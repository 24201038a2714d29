//! `rem serve` — the resident campaign service.
//!
//! Thin shell over [`rem_serve::Server`]: parse flags into a
//! [`ServeConfig`], install the SIGINT/SIGTERM handler, start the
//! service, and block until a signal drains it. All the interesting
//! behaviour (durable queue, supervised workers, HTTP control plane)
//! lives in the `rem-serve` crate so tests can drive it in-process.

use crate::args::{ArgError, Args};
use crate::CliError;
use rem_serve::{signal, ServeConfig, Server};
use std::path::PathBuf;

/// Parses `rem serve` flags and runs the service to completion.
pub fn cmd_serve(mut a: Args) -> Result<(), CliError> {
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        listen: a.str("listen")?.unwrap_or(d.listen),
        spool: PathBuf::from(a.str("spool")?.unwrap_or_else(|| ".rem-spool".into())),
        workers: a.int("workers")?.unwrap_or(d.workers),
        queue_capacity: a.int("queue-cap")?.unwrap_or(d.queue_capacity),
        job_retries: a.int("job-retries")?.unwrap_or(d.job_retries),
        job_threads: a.int("job-threads")?.unwrap_or(d.job_threads),
        checkpoint_every: a.int("checkpoint-every")?.unwrap_or(d.checkpoint_every),
        job_timeout_s: a.int("job-timeout-s")?.unwrap_or(d.job_timeout_s),
    };
    a.finish()?;
    if cfg.queue_capacity == 0 {
        return Err(ArgError("--queue-cap must be at least 1".into()).into());
    }
    if cfg.job_retries == 0 {
        return Err(ArgError("--job-retries must be at least 1".into()).into());
    }

    signal::install();
    let server = Server::start(&cfg)?;
    let recovered = server.stats().recovered_jobs.load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "rem serve: listening on http://{} (spool {}, {} worker(s), queue cap {})",
        server.addr(),
        cfg.spool.display(),
        cfg.workers.max(1),
        cfg.queue_capacity
    );
    if recovered > 0 {
        println!("recovered {recovered} in-flight job(s) from the journal; resuming from checkpoints");
    }
    println!("routes: POST /jobs  GET /jobs  GET /jobs/<id>  GET /healthz  GET /metrics");
    server.run_to_completion();
    println!("rem serve: drained cleanly (queue state persisted; restart resumes in-flight jobs)");
    Ok(())
}
