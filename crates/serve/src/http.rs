//! A deliberately minimal HTTP/1.1 server-side codec.
//!
//! The control plane of `rem serve` needs exactly four routes, one
//! client at a time, on a trusted loopback interface — a full HTTP
//! stack would be the largest dependency in the workspace for the
//! smallest job in it. This module reads one request (request line,
//! headers, `Content-Length` body) and writes one `Connection: close`
//! response, all over `std::net::TcpStream`, and nothing more: no
//! keep-alive, no chunked encoding, no TLS.
//!
//! Every part of a request is bounded before it is buffered: a head
//! line by [`MAX_LINE`], the whole head by [`MAX_HEAD`] and the body by
//! [`MAX_BODY`], so reading one request buffers at most their sum plus
//! one read buffer. Reading it is bounded in time too: each read waits
//! at most `READ_IDLE` (5 s), and the whole request must arrive within
//! `REQUEST_DEADLINE` (10 s) of its accept.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, line ending included.
pub const MAX_LINE: usize = 8 << 10;

/// Largest accepted request head: the request line and every header
/// line, up to and including the empty line that ends it.
pub const MAX_HEAD: usize = 32 << 10;

/// Largest accepted request body (a scenario TOML is ~1 KiB; this is
/// generous while still bounding a misbehaving client).
pub const MAX_BODY: usize = 1 << 20;

/// Longest a whole request may take to arrive, from accept to the last
/// byte of its body. Without it a client sending a byte every few
/// seconds would hold its connection until [`MAX_HEAD`] ran out.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Longest any one read of a request may wait for data.
pub(crate) const READ_IDLE: Duration = Duration::from_secs(5);

/// A socket read under a whole-request deadline: each read waits at
/// most [`READ_IDLE`] and never past the deadline, and a read past the
/// deadline fails with `TimedOut`.
pub(crate) struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl<'a> Deadline<'a> {
    /// Reads `stream` until `at`.
    pub(crate) fn new(stream: &'a TcpStream, at: Instant) -> Self {
        Self { stream, at }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "request deadline passed");
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        self.stream.set_read_timeout(Some(left.min(READ_IDLE)))?;
        match self.stream.read(buf) {
            // The socket's timeout reads as `WouldBlock` on Unix.
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                    && Instant::now() >= self.at =>
            {
                Err(timed_out())
            }
            read => read,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client per RFC 9112).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// One response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self { status, content_type: "application/json", body: body.into_bytes() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.into_bytes() }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one head line, line ending included (empty at the end of the
/// stream), and charges it to `head_left`, the bytes the head may
/// still take. A line past [`MAX_LINE`] or past the head's budget is
/// `InvalidData`, with no more than one buffer read beyond the cap.
fn read_head_line(reader: &mut impl BufRead, head_left: &mut usize) -> io::Result<String> {
    let cap = MAX_LINE.min(*head_left);
    let mut line = String::new();
    let n = reader.by_ref().take(cap as u64).read_line(&mut line)?;
    if n == cap && !line.ends_with('\n') {
        let why = if cap < MAX_LINE { "request head too large" } else { "head line too long" };
        return Err(bad(why));
    }
    *head_left -= n;
    Ok(line)
}

/// Reads one request off `stream`. `Err` covers both I/O failures and
/// malformed requests, a head or body past its cap included; the
/// caller just drops the connection.
pub fn read_request(stream: impl Read) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head_left = MAX_HEAD;
    let line = read_head_line(&mut reader, &mut head_left)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_string();
    let target = parts.next().ok_or_else(|| bad("request line without target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut head_left)?;
        if header.is_empty() {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Writes `resp` and flushes. The connection is then done
/// (`Connection: close`).
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_integration::{check, Gen};
    use std::net::TcpListener;

    /// Runs one request/response cycle over a real socket pair.
    fn roundtrip(raw_request: &str, resp: Response) -> (Request, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw_request.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side).unwrap();
        write_response(&mut server_side, &resp).unwrap();
        drop(server_side);
        (req, client.join().unwrap())
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let (req, reply) = roundtrip(
            "POST /jobs?src=test HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            Response::json(201, "{\"id\":0}".into()),
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs", "query string is stripped");
        assert_eq!(req.body, b"hello");
        assert!(reply.starts_with("HTTP/1.1 201 Created\r\n"), "reply: {reply}");
        assert!(reply.contains("Content-Length: 8\r\n"));
        assert!(reply.ends_with("{\"id\":0}"));
    }

    #[test]
    fn get_without_body_parses_empty() {
        let (req, reply) = roundtrip(
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            Response::text(200, "ok".into()),
        );
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"));
    }

    /// A reader that counts the bytes taken from it.
    struct Counted<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_line_past_its_cap_is_refused_after_one_buffer() {
        // A 64 MiB request line with no newline, then a 64 MiB header
        // line: each read stops one buffer past the line cap.
        let buffer = 8 << 10; // `BufReader`'s capacity
        let request_line = io::repeat(b'a').take(64 << 20);
        let header_line = b"GET / HTTP/1.1\r\n".chain(io::repeat(b'h').take(64 << 20));
        for (name, stream) in [
            ("request", Box::new(request_line) as Box<dyn Read>),
            ("header", Box::new(header_line)),
        ] {
            let mut counted = Counted { inner: stream, read: 0 };
            let err = read_request(&mut counted).expect_err(name);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            assert!(counted.read <= MAX_LINE + buffer, "{name}: read {} bytes", counted.read);
        }
    }

    #[test]
    fn a_head_past_its_cap_is_refused() {
        let header = format!("X-Pad: {}\r\n", "p".repeat(MAX_LINE / 2));
        let n_fit = (MAX_HEAD - 64) / header.len();
        let head = |n: usize| format!("GET /healthz HTTP/1.1\r\n{}\r\n", header.repeat(n));
        let fits = head(n_fit);
        assert!(fits.len() <= MAX_HEAD);
        assert_eq!(read_request(fits.as_bytes()).expect("fits the cap").path, "/healthz");
        let err = read_request(head(n_fit + 2).as_bytes()).expect_err("past the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(err.to_string(), "request head too large");
    }

    #[test]
    fn arbitrary_bytes_read_to_a_request_or_a_typed_error() {
        // Nothing, or a well-formed request, with request fragments and
        // random bytes spliced in and maybe cut short: inputs reach the
        // headers, the Content-Length parse and the body as well as the
        // request line, and some still parse.
        const REQUESTS: [&str; 2] = [
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            "POST /jobs?src=t HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        ];
        const PIECES: [&str; 8] = [
            "\r\n",
            "\n",
            " ",
            "Content-Length: ",
            "content-length:9",
            "18446744073709551616",
            "\u{e9}",
            "GET / HTTP/1.1",
        ];
        let bytes = |g: &mut Gen| {
            let mut b = if g.bool() { g.pick(&REQUESTS).as_bytes().to_vec() } else { Vec::new() };
            for _ in 0..g.range(0..4) {
                let at = g.range(0..=b.len());
                let piece = if g.bool() {
                    g.pick(&PIECES).as_bytes().to_vec()
                } else {
                    g.vec(0..12, Gen::u8)
                };
                b.splice(at..at, piece);
            }
            if g.bool() {
                b.truncate(g.range(0..=b.len()));
            }
            b
        };
        let mut requests = 0;
        check("arbitrary_bytes_read_to_a_request_or_a_typed_error", 1024, bytes, |input| {
            match read_request(&input[..]) {
                Ok(req) => {
                    assert!(req.body.len() <= MAX_BODY);
                    requests += 1;
                }
                Err(e) => assert!(
                    matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                    "untyped error {e:?}"
                ),
            }
        });
        assert!(requests > 0, "no input parsed: the generator misses the Ok path");
    }

    #[test]
    fn a_trickled_request_is_refused_at_its_deadline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickling = stop.clone();
        // One header byte every 50 ms: each read gets data long before
        // the idle limit, so only the deadline ends the request.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ").unwrap();
            while !trickling.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                if s.write_all(b"s").is_err() {
                    break;
                }
            }
        });
        let (server_side, _) = listener.accept().unwrap();
        let t0 = Instant::now();
        let budget = Duration::from_millis(400);
        let err = read_request(Deadline::new(&server_side, t0 + budget)).expect_err("trickled");
        let took = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(took >= budget && took < budget + Duration::from_secs(1), "took {took:?}");
        drop(server_side);
        client.join().unwrap();

        // A request sent at once still parses under the same deadline.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nok").unwrap();
        });
        let (server_side, _) = listener.accept().unwrap();
        let req = read_request(Deadline::new(&server_side, Instant::now() + budget)).unwrap();
        assert_eq!((req.path.as_str(), req.body.as_slice()), ("/jobs", &b"ok"[..]));
        client.join().unwrap();
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let head =
                format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
            s.write_all(head.as_bytes()).unwrap();
        });
        let (mut server_side, _) = listener.accept().unwrap();
        assert!(read_request(&mut server_side).is_err());
        client.join().unwrap();
    }
}
