#!/usr/bin/env python3
"""Flood drill for `rem serve`: hostile clients while a job runs.

Usage:

    python3 .github/serve_flood.py <host:port> <scenario.toml> <reference-hash-file>

Against a running `rem serve` with an empty queue, it opens the flood,
submits the scenario while the flood is in flight, and checks that:

- 20 connections that send half a request line and hold it do not
  stop the service;
- a connection that sends a header a byte a second is closed within
  the service's 10 s request deadline plus 3 s;
- a header line of 8 MiB with no newline sees its connection closed
  before the client has sent 1 MiB;
- a POST whose Content-Length is past the body cap (1 MiB) is closed
  without a response;
- a scenario with arrays nested 40 deep gets a 400;
- `GET /healthz` answers 200 within 2 s throughout;
- the submitted job is the only job, and it completes with the hash in
  the reference file.

Exits 1 with a message at the first failed check. The flood is tens of
connections: it tests the service's caps, not the host's.
"""

import http.client
import json
import select
import socket
import sys
import threading
import time

MAX_BODY = 1 << 20
LORIS = 20
# Longer than the service's 5 s read timeout.
HOLD_S = 8.0
BOMB_BYTES = 8 << 20
BOMB_LIMIT = 1 << 20
HEALTH_DEADLINE_S = 2.0
# The service's whole-request deadline, and the slack on its close.
REQUEST_DEADLINE_S = 10.0
TRICKLE_SLACK_S = 3.0
JOB_DEADLINE_S = 300.0


def fail(msg):
    print(f"serve_flood: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def request(addr, method, path, body=None, timeout=5.0):
    """One request on a fresh connection: (status, body text)."""
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class Health(threading.Thread):
    """Polls `GET /healthz` every 200 ms and keeps every miss."""

    def __init__(self, addr):
        super().__init__(daemon=True)
        self.addr = addr
        self.done = threading.Event()
        self.misses = []
        self.polls = 0
        self.worst_s = 0.0

    def run(self):
        while not self.done.is_set():
            t0 = time.monotonic()
            try:
                status, _ = request(self.addr, "GET", "/healthz", timeout=HEALTH_DEADLINE_S)
                if status != 200:
                    self.misses.append(f"status {status}")
            except Exception as e:  # a timeout, a reset, a malformed reply
                self.misses.append(repr(e))
            took = time.monotonic() - t0
            if took >= HEALTH_DEADLINE_S:
                self.misses.append(f"answered in {took:.2f} s")
            self.worst_s = max(self.worst_s, took)
            self.polls += 1
            self.done.wait(0.2)


def header_bomb(addr, out):
    """Streams one header line with no newline; records what was sent."""
    s = socket.socket()
    # A small send buffer, so that the bytes the kernel accepts are
    # bytes the service read or left in its own receive buffer, not
    # bytes queued on this side.
    s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 << 10)
    s.settimeout(10)
    s.connect(addr)
    sent = 0
    chunk = b"b" * (16 << 10)
    try:
        s.sendall(b"GET /healthz HTTP/1.1\r\nX-Bomb: ")
        while sent < BOMB_BYTES:
            sent += s.send(chunk)
        out["closed"] = False
    except (BrokenPipeError, ConnectionResetError):
        out["closed"] = True
    except OSError as e:
        out["error"] = repr(e)
    finally:
        s.close()
    out["sent"] = sent


def trickle(addr, out):
    """Sends a header a byte a second; records when the service closed."""
    s = socket.create_connection(addr, timeout=5)
    t0 = time.monotonic()
    limit = REQUEST_DEADLINE_S + TRICKLE_SLACK_S
    try:
        s.sendall(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        while time.monotonic() - t0 < limit:
            readable, _, _ = select.select([s], [], [], 1.0)
            if readable and not s.recv(4096):
                out["closed_s"] = time.monotonic() - t0
                return
            s.sendall(b"s")
    except (BrokenPipeError, ConnectionResetError):
        out["closed_s"] = time.monotonic() - t0
        return
    except OSError as e:
        out["error"] = repr(e)
        return
    finally:
        s.close()
    out["open_s"] = time.monotonic() - t0


def main():
    if len(sys.argv) != 4:
        fail("usage: serve_flood.py <host:port> <scenario.toml> <reference-hash-file>")
    host, port = sys.argv[1].rsplit(":", 1)
    addr = (host, int(port))
    scenario = open(sys.argv[2], "rb").read()
    reference = open(sys.argv[3]).read().strip()

    health = Health(addr)
    health.start()

    # Half a request line each, held open.
    t_open = time.monotonic()
    loris = []
    for _ in range(LORIS):
        s = socket.create_connection(addr, timeout=5)
        s.sendall(b"GET /heal")
        loris.append(s)

    bomb = {}
    bomber = threading.Thread(target=header_bomb, args=(addr, bomb), daemon=True)
    bomber.start()

    slow = {}
    trickler = threading.Thread(target=trickle, args=(addr, slow), daemon=True)
    trickler.start()

    # A body past the cap: the service drops the connection unanswered.
    s = socket.create_connection(addr, timeout=5)
    s.sendall(f"POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY + 1}\r\n\r\n".encode())
    try:
        reply = s.recv(4096)
    except ConnectionResetError:
        reply = b""
    s.close()
    if reply:
        fail(f"the oversized POST got a reply: {reply[:80]!r}")

    nested = (
        'format = "REMSCENARIO1"\nname = "nested"\n\n[run]\nseeds = '
        + "[" * 40 + "1" + "]" * 40 + "\n"
    )
    status, text = request(addr, "POST", "/jobs", nested.encode())
    if status != 400 or "nested" not in text:
        fail(f"arrays nested 40 deep: want 400 naming the nesting, got {status} {text!r}")

    status, text = request(addr, "POST", "/jobs", scenario)
    if status != 201:
        fail(f"job submission: want 201, got {status} {text!r}")
    job_id = json.loads(text)["id"]

    deadline = time.monotonic() + JOB_DEADLINE_S
    while True:
        status, text = request(addr, "GET", f"/jobs/{job_id}")
        job = json.loads(text)
        if job["state"] in ("Done", "Quarantined"):
            break
        if time.monotonic() > deadline:
            fail(f"job {job_id} not done after {JOB_DEADLINE_S:.0f} s: {job}")
        time.sleep(0.2)
    if job["state"] != "Done" or job["result_hash"] != reference:
        fail(f"job {job_id}: want Done with {reference}, got {job}")

    bomber.join(timeout=30)
    if "error" in bomb or not bomb.get("closed"):
        fail(f"header bomb: want the connection closed, got {bomb}")
    if bomb["sent"] >= BOMB_LIMIT:
        fail(f"header bomb: {bomb['sent']} bytes sent before the close, want < {BOMB_LIMIT}")

    trickler.join(timeout=REQUEST_DEADLINE_S + TRICKLE_SLACK_S + 10)
    if "closed_s" not in slow:
        fail(f"trickled header: want the connection closed, got {slow}")

    time.sleep(max(0.0, HOLD_S - (time.monotonic() - t_open)))
    for s in loris:
        s.close()
    health.done.set()
    health.join()
    if health.misses:
        fail(f"/healthz missed {len(health.misses)} of {health.polls} polls: {health.misses[:5]}")

    status, text = request(addr, "GET", "/jobs")
    if status != 200 or len(json.loads(text)) != 1:
        fail(f"want exactly the one submitted job, got {status} {text}")

    print(
        f"serve_flood: ok: {LORIS} held connections, header bomb closed after "
        f"{bomb['sent']} bytes, trickled header closed after {slow['closed_s']:.1f} s, "
        f"oversized POST dropped, nested scenario 400, "
        f"job {job_id} {job['result_hash']}, /healthz {health.polls} polls, "
        f"slowest {health.worst_s * 1e3:.0f} ms"
    )


if __name__ == "__main__":
    main()
