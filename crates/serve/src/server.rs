//! The resident service: spool directories, the HTTP control plane,
//! and the drain/restart lifecycle.
//!
//! ```text
//!            POST /jobs (scenario TOML)
//!   client ────────────────────────────► accept loop ──► JobQueue
//!                                                          │ REMQUEUE1 journal
//!   GET /healthz /metrics /jobs ◄── route handlers         │ (atomic+fsync+checksum)
//!                                                          ▼
//!                                          workers (claim → run → complete)
//!                                                          │ per-job REMCKPT1
//!                                          supervisor ◄────┘ checkpoints
//! ```
//!
//! Durability contract: every queue mutation is journalled before it
//! is acknowledged, every job checkpoints through the campaign
//! machinery, so `kill -9` at any instant loses no acknowledged job
//! and no completed trial wave — a restarted service resumes every
//! in-flight job from its checkpoint and produces `--hash`-identical
//! results.

use crate::http::{read_request, write_response, Deadline, Request, Response, REQUEST_DEADLINE};
use crate::queue::{JobQueue, JobState, QueueConfig, SubmitError};
use crate::signal;
use crate::stats::ServeStats;
use crate::worker::{WorkerConfig, WorkerPool};
use rem_core::{ExperimentError, ScenarioSpec};
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration (one `rem serve` invocation).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port `0` picks a free port (written to
    /// `<spool>/serve.addr` for discovery).
    pub listen: String,
    /// Spool directory: queue journal, per-job checkpoints, address
    /// file. Created if missing; this is the service's whole durable
    /// state, so restarts must reuse it.
    pub spool: PathBuf,
    /// Concurrent worker loops (jobs in flight).
    pub workers: usize,
    /// Admission bound: queued + running jobs past this are rejected
    /// with HTTP 503.
    pub queue_capacity: usize,
    /// Attempts per job before it is quarantined as poison.
    pub job_retries: u32,
    /// Worker threads inside each job's campaign (`0` = all cores).
    pub job_threads: usize,
    /// Trials per checkpoint wave — the drain/crash granularity.
    pub checkpoint_every: usize,
    /// Heartbeat staleness (s) before a job is flagged overrun
    /// (`0` disables the watchdog).
    pub job_timeout_s: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:7787".into(),
            spool: PathBuf::from(".rem-spool"),
            workers: 1,
            queue_capacity: 64,
            job_retries: 2,
            job_threads: 0,
            checkpoint_every: 4,
            job_timeout_s: 0,
        }
    }
}

/// State shared between the accept loop and route handlers.
struct Shared {
    queue: Arc<JobQueue>,
    stats: Arc<ServeStats>,
    drain: Arc<AtomicBool>,
    workers: usize,
}

/// `GET /healthz` body.
#[derive(Serialize)]
struct Health {
    status: &'static str,
    workers: usize,
    queued: usize,
    running: usize,
    done: usize,
    quarantined: usize,
    worker_restarts: u64,
    recovered_jobs: u64,
}

/// `GET /jobs` element: a [`crate::queue::Job`] minus its TOML source.
#[derive(Serialize)]
struct JobSummary {
    id: u64,
    name: String,
    state: JobState,
    attempts: u32,
    result_hash: Option<String>,
    error: Option<String>,
}

/// A started service. Dropping it does **not** stop the threads; call
/// [`Server::drain`] then [`Server::join`] for a graceful exit.
pub struct Server {
    addr: SocketAddr,
    spool: PathBuf,
    queue: Arc<JobQueue>,
    stats: Arc<ServeStats>,
    drain: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl Server {
    /// Opens the spool, recovers the queue, binds the listener and
    /// spawns workers + supervisor + accept loop.
    pub fn start(cfg: &ServeConfig) -> Result<Server, ExperimentError> {
        let jobs_dir = cfg.spool.join("jobs");
        std::fs::create_dir_all(&jobs_dir).map_err(|e| ExperimentError::io(&jobs_dir, e))?;

        let (queue, recovered) = JobQueue::open(
            &cfg.spool.join("queue.journal"),
            QueueConfig { capacity: cfg.queue_capacity, max_attempts: cfg.job_retries },
        )?;
        let queue = Arc::new(queue);
        let stats = Arc::new(ServeStats::default());
        for _ in 0..recovered {
            ServeStats::inc(&stats.recovered_jobs);
        }
        if recovered > 0 {
            rem_obs::trace::emit("serve", "jobs_recovered", &[("count", recovered.into())]);
        }

        let listen_path = PathBuf::from(&cfg.listen);
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| ExperimentError::io(&listen_path, e))?;
        let addr = listener.local_addr().map_err(|e| ExperimentError::io(&listen_path, e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ExperimentError::io(&listen_path, e))?;
        // Port discovery for scripts that start with `--listen :0`.
        let addr_file = cfg.spool.join("serve.addr");
        std::fs::write(&addr_file, addr.to_string())
            .map_err(|e| ExperimentError::io(&addr_file, e))?;

        let drain = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            queue: queue.clone(),
            stats: stats.clone(),
            drain: drain.clone(),
            workers: cfg.workers.max(1),
        });
        let accept = std::thread::spawn(move || accept_loop(listener, shared));

        let pool = WorkerPool::start(
            queue.clone(),
            &jobs_dir,
            cfg.workers,
            WorkerConfig {
                job_threads: cfg.job_threads,
                checkpoint_every: cfg.checkpoint_every,
                job_timeout_s: cfg.job_timeout_s,
            },
            drain.clone(),
            stats.clone(),
        );

        Ok(Server {
            addr,
            spool: cfg.spool.clone(),
            queue,
            stats,
            drain,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// The bound address (resolves `--listen` port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The queue, for in-process submission and inspection (tests, the
    /// CLI's own status printing).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// The service counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Begins a graceful drain: stop accepting jobs, stop claiming,
    /// interrupt running jobs at their next checkpoint wave. Returns
    /// immediately; [`Server::join`] blocks until done.
    pub fn drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.queue.notify_all();
    }

    /// Blocks until the accept loop and the worker pool have exited
    /// (after [`Server::drain`], SIGINT or SIGTERM). Queue state is
    /// already durable — every mutation journals before acking — so
    /// there is nothing left to flush; the address file is removed to
    /// mark a clean exit.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.drain_and_join(&self.queue);
        }
        let _ = std::fs::remove_file(self.spool.join("serve.addr"));
        rem_obs::trace::emit("serve", "drained", &[]);
    }

    /// Runs until SIGINT/SIGTERM (or [`Server::drain`]) then completes
    /// the graceful shutdown — the body of `rem serve`.
    pub fn run_to_completion(self) {
        while !self.drain.load(Ordering::SeqCst) && !signal::requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.drain();
        self.join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.drain.load(Ordering::SeqCst) || signal::requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let deadline = Instant::now() + REQUEST_DEADLINE;
                let shared = shared.clone();
                std::thread::spawn(move || handle_connection(stream, deadline, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Serves one request that must arrive by `deadline`.
fn handle_connection(mut stream: TcpStream, deadline: Instant, shared: &Shared) {
    let Ok(req) = read_request(Deadline::new(&stream, deadline)) else { return };
    let resp = route(&req, shared);
    let _ = write_response(&mut stream, &resp);
}

fn route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/jobs") => jobs(shared),
        ("GET", path) if path.starts_with("/jobs/") => job_by_id(shared, &path[6..]),
        ("POST", "/jobs") => submit(shared, &req.body),
        (_, "/healthz" | "/metrics" | "/jobs") => {
            Response::text(405, "method not allowed\n".into())
        }
        _ => Response::text(404, "not found\n".into()),
    }
}

fn healthz(shared: &Shared) -> Response {
    let c = shared.queue.counts();
    let draining = shared.drain.load(Ordering::SeqCst) || signal::requested();
    let health = Health {
        status: if draining { "draining" } else { "ok" },
        workers: shared.workers,
        queued: c.queued,
        running: c.running,
        done: c.done,
        quarantined: c.quarantined,
        worker_restarts: shared.stats.worker_restarts.load(Ordering::Relaxed),
        recovered_jobs: shared.stats.recovered_jobs.load(Ordering::Relaxed),
    };
    match serde_json::to_string(&health) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::text(500, format!("serialize: {e}\n")),
    }
}

fn metrics(shared: &Shared) -> Response {
    // Service-native series first (always present, even in builds
    // without the obs feature), then the process-wide registry dump
    // (empty unless `enabled`); the name prefixes are disjoint.
    let mut text =
        rem_obs::metrics::render_prometheus(&shared.stats.snapshot(&shared.queue.counts()));
    text.push_str(&rem_obs::metrics::render_prometheus(&rem_obs::metrics::snapshot()));
    Response { status: 200, content_type: "text/plain; version=0.0.4", body: text.into_bytes() }
}

fn summarize(j: crate::queue::Job) -> JobSummary {
    JobSummary {
        id: j.id,
        name: j.name,
        state: j.state,
        attempts: j.attempts,
        result_hash: j.result_hash,
        error: j.error,
    }
}

fn jobs(shared: &Shared) -> Response {
    let list: Vec<JobSummary> = shared.queue.jobs().into_iter().map(summarize).collect();
    match serde_json::to_string(&list) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::text(500, format!("serialize: {e}\n")),
    }
}

fn job_by_id(shared: &Shared, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::text(400, "job id must be an integer\n".into());
    };
    match shared.queue.job(id) {
        None => Response::text(404, format!("no job {id}\n")),
        Some(j) => match serde_json::to_string(&summarize(j)) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::text(500, format!("serialize: {e}\n")),
        },
    }
}

fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.drain.load(Ordering::SeqCst) || signal::requested() {
        ServeStats::inc(&shared.stats.rejected);
        return Response::text(503, "draining: not accepting jobs\n".into());
    }
    let Ok(toml_src) = std::str::from_utf8(body) else {
        return Response::text(400, "body must be UTF-8 scenario TOML\n".into());
    };
    // Full validation up front: a job the workers cannot parse is the
    // submitter's error (400), not a poison job to burn retries on.
    let spec = match ScenarioSpec::from_toml(toml_src) {
        Ok(s) => s,
        Err(e) => return Response::text(400, format!("invalid scenario: {e}\n")),
    };
    match shared.queue.submit(&spec.name, toml_src) {
        Ok(id) => {
            ServeStats::inc(&shared.stats.submitted);
            rem_obs::trace::emit("serve", "job_submitted", &[("job", id.into())]);
            Response::json(201, format!("{{\"id\":{id},\"name\":{:?}}}", spec.name))
        }
        Err(e @ SubmitError::Full { .. }) => {
            ServeStats::inc(&shared.stats.rejected);
            Response::text(503, format!("{e}\n"))
        }
        Err(e) => Response::text(500, format!("{e}\n")),
    }
}
