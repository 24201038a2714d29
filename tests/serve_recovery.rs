//! End-to-end drills for the resident campaign service: submit over
//! HTTP, crash/drain/restart, and verify the durability contract —
//! zero lost jobs, `--hash`-identical results, poison jobs quarantined
//! instead of wedging the service.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rem_core::{fnv1a64, CampaignSpec, Checkpoint, Comparison, Plane, ScenarioSpec, Study};
use rem_num::health::DegradedStats;
use rem_serve::{JobQueue, JobState, QueueConfig, ServeConfig, Server};

/// A campaign small enough to finish in seconds but with enough trials
/// (2 planes x 2 seeds) for per-trial checkpoints to matter.
const TINY_SCENARIO: &str = r#"
format = "REMSCENARIO1"
name = "tiny-serve"

[trajectory]
speed_kmh = 300
route_km = 6

[cells]
family = "bs"

[run]
seeds = 2
checkpoint_every = 1
"#;

/// Same campaign, but every trial panics on every attempt: a poison
/// job that must end quarantined, not looping.
const POISON_SCENARIO: &str = r#"
format = "REMSCENARIO1"
name = "poison-serve"

[trajectory]
speed_kmh = 300
route_km = 6

[cells]
family = "bs"

[run]
seeds = 2
checkpoint_every = 1
chaos_panic_rate = 1.0
chaos_fatal = true
"#;

fn scratch_spool(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rem-serve-recovery-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool scratch");
    dir
}

fn serve_config(spool: &Path) -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".into(),
        spool: spool.to_path_buf(),
        workers: 1,
        checkpoint_every: 1,
        ..ServeConfig::default()
    }
}

/// Minimal HTTP/1.1 client: one request, one response, connection
/// closed (matching the server's `Connection: close` behaviour).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to service");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let response_body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, response_body)
}

/// Polls the queue until job `id` reaches a terminal state.
fn await_terminal(server: &Server, id: u64, deadline: Duration) -> rem_serve::Job {
    let start = Instant::now();
    loop {
        let job = server.queue().job(id).expect("job exists");
        if matches!(job.state, JobState::Done | JobState::Quarantined) {
            return job;
        }
        assert!(
            start.elapsed() < deadline,
            "job {id} still {:?} after {deadline:?}",
            job.state
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The digest `rem compare --scenario f --hash` prints for a scenario:
/// the reference every service result must equal.
fn direct_hash(toml_src: &str) -> String {
    let spec = ScenarioSpec::from_toml(toml_src).expect("scenario parses");
    let checked = Comparison::run_checkpointed(&spec.campaign(), &spec.run_policy(), None)
        .expect("direct run succeeds");
    assert!(checked.is_clean());
    let json = serde_json::to_string(&checked.comparison).expect("comparison serializes");
    format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes()))
}

/// Submit over HTTP, run to completion, verify the hash equals a
/// direct one-shot run and the control plane reports a healthy,
/// fully-drained service.
#[test]
fn submitted_job_completes_with_one_shot_identical_hash() {
    let spool = scratch_spool("roundtrip");
    let server = Server::start(&serve_config(&spool)).expect("service starts");
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/jobs", TINY_SCENARIO);
    assert_eq!(status, 201, "submit: {body}");
    assert!(body.contains("\"id\":0"), "submit body: {body}");

    let job = await_terminal(&server, 0, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.result_hash.as_deref(), Some(direct_hash(TINY_SCENARIO).as_str()));

    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    for needle in ["\"status\":\"ok\"", "\"done\":1", "\"queued\":0", "\"quarantined\":0"] {
        assert!(health.contains(needle), "healthz missing {needle}: {health}");
    }
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "rem_serve_jobs_submitted_total 1",
        "rem_serve_jobs_completed_total 1",
        "rem_serve_queue_depth 0",
        "rem_serve_jobs_quarantined 0",
    ] {
        assert!(metrics.contains(needle), "metrics missing {needle}:\n{metrics}");
    }
    let (status, list) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(list.contains("\"state\":\"done\"") || list.contains("\"state\":\"Done\""), "{list}");

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Admission control and input validation over HTTP: a full queue is a
/// 503 the client can retry, garbage is a 400, unknown routes 404, and
/// wrong methods 405 — none of them become jobs.
#[test]
fn bad_submissions_are_rejected_without_becoming_jobs() {
    let spool = scratch_spool("admission");
    let mut cfg = serve_config(&spool);
    cfg.queue_capacity = 1;
    let server = Server::start(&cfg).expect("service starts");
    let addr = server.addr();

    // A long first job: it must still be running when the second
    // submission arrives.
    let long_job = TINY_SCENARIO.replace("route_km = 6", "route_km = 200");
    let (status, _) = http(addr, "POST", "/jobs", &long_job);
    assert_eq!(status, 201);
    // Queued + running is at capacity while job 0 runs: reject.
    let (status, body) = http(addr, "POST", "/jobs", TINY_SCENARIO);
    assert_eq!(status, 503, "expected queue-full rejection, got: {body}");

    let (status, body) = http(addr, "POST", "/jobs", "format = \"NOPE\"");
    assert_eq!(status, 400, "expected validation rejection, got: {body}");
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "GET", "/jobs/999", "");
    assert_eq!(status, 404);

    // Only the one accepted job ever existed.
    assert_eq!(server.queue().jobs().len(), 1);
    let rejected = server.stats().rejected.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(rejected, 1, "exactly the queue-full submit counts as rejected");

    let job = await_terminal(&server, 0, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Done);
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}

/// The `kill -9` drill, deterministically: fabricate the exact durable
/// state a SIGKILLed service leaves behind (journal says Running, a
/// partial per-job checkpoint on disk), restart, and require the job
/// to finish with the one-shot-identical hash while `/healthz` and
/// `/metrics` report the recovery.
#[test]
fn sigkill_state_recovers_to_identical_hash() {
    let spool = scratch_spool("sigkill");
    let jobs_dir = spool.join("jobs");
    std::fs::create_dir_all(&jobs_dir).expect("create jobs dir");

    // Phase 1: the "previous process". Journal a job and claim it so
    // the journal records Running/attempt 1 — then simply stop, as a
    // SIGKILL would, without completing or requeueing anything.
    {
        let (queue, recovered) =
            JobQueue::open(&spool.join("queue.journal"), QueueConfig::default())
                .expect("fresh journal");
        assert_eq!(recovered, 0);
        let id = queue.submit("tiny-serve", TINY_SCENARIO).expect("submit");
        let claimed = queue.claim(Duration::from_millis(10)).expect("claim").expect("a job");
        assert_eq!(claimed.id, id);

        // The job had checkpointed one trial before the kill: build a
        // full checkpoint, then forget everything past trial 1 —
        // byte-wise the file a per-trial checkpointer leaves behind.
        let spec = ScenarioSpec::from_toml(TINY_SCENARIO).expect("scenario parses");
        let mut policy = spec.run_policy();
        policy.checkpoint_every = 1;
        let ckpt = jobs_dir.join(format!("job-{id}.ckpt"));
        Comparison::run_checkpointed(&spec.campaign(), &policy, Some(&ckpt))
            .expect("seed checkpoint");
        let mut c = rem_core::Checkpoint::load(&ckpt).expect("checkpoint loads");
        for i in 1..c.n_trials {
            c.unrecord(i);
        }
        assert_eq!(c.completed(), 1);
        c.save(&ckpt).expect("save truncated checkpoint");
    }

    // Phase 2: restart on the same spool.
    let server = Server::start(&serve_config(&spool)).expect("service restarts");
    assert_eq!(
        server.stats().recovered_jobs.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the Running job must be recovered"
    );
    let job = await_terminal(&server, 0, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.result_hash.as_deref(), Some(direct_hash(TINY_SCENARIO).as_str()));

    let addr = server.addr();
    let (_, health) = http(addr, "GET", "/healthz", "");
    assert!(health.contains("\"recovered_jobs\":1"), "healthz: {health}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("rem_serve_recovered_jobs_total 1"),
        "metrics:\n{metrics}"
    );

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A job whose spool holds a compare checkpoint from when each
/// `(plane, seed)` replay was its own trial (`2 * seeds` trials, one
/// `RunMetrics` per record) fails with the checkpoint mismatch on every
/// attempt instead of merging those records, and the file is kept.
#[test]
fn per_plane_checkpoint_in_the_spool_fails_the_job() {
    let spool = scratch_spool("per-plane-ckpt");
    let jobs_dir = spool.join("jobs");
    std::fs::create_dir_all(&jobs_dir).expect("create jobs dir");
    let id = {
        let (queue, _) = JobQueue::open(&spool.join("queue.journal"), QueueConfig::default())
            .expect("fresh journal");
        queue.submit("tiny-serve", TINY_SCENARIO).expect("submit")
    };
    let campaign = ScenarioSpec::from_toml(TINY_SCENARIO).expect("scenario parses").campaign();
    let n = campaign.seeds.len();
    let fingerprint = campaign.fingerprint().expect("fingerprint");
    let mut old = Checkpoint::new(CampaignSpec::KIND, fingerprint, 2 * n);
    for i in 0..2 * n {
        let plane = if i < n { Plane::Legacy } else { Plane::Rem };
        let mut cfg = rem_core::RunConfig::new(campaign.spec.clone(), plane, campaign.seeds[i % n]);
        cfg.faults = campaign.faults.clone();
        let record = (rem_core::simulate_run(&cfg), DegradedStats::default());
        old.record(i, serde_json::to_string(&record).expect("record serializes"));
    }
    let ckpt = jobs_dir.join(format!("job-{id}.ckpt"));
    old.save(&ckpt).expect("save per-plane checkpoint");

    let mut cfg = serve_config(&spool);
    cfg.job_retries = 2;
    let server = Server::start(&cfg).expect("service starts");
    let job = await_terminal(&server, id, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Quarantined);
    assert_eq!(job.attempts, 2);
    let error = job.error.expect("the failed job records its error");
    assert!(error.contains("belongs to a different campaign: 4 trials != 2"), "error: {error}");
    assert_eq!(Checkpoint::load(&ckpt).expect("checkpoint still loads"), old);
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Graceful drain mid-job: the worker stops at a wave boundary, the
/// attempt is returned, and a restarted service finishes the job from
/// its checkpoint with the one-shot-identical hash.
#[test]
fn drain_mid_job_then_restart_finishes_with_identical_hash() {
    let spool = scratch_spool("drain");
    let server = Server::start(&serve_config(&spool)).expect("service starts");
    let id = server.queue().submit("tiny-serve", TINY_SCENARIO).expect("submit");

    // Drain as soon as the worker picks the job up; with per-trial
    // checkpoints this usually lands mid-campaign. (If the job races
    // to Done first the assertions below still hold — the drill then
    // only exercises the drained-while-idle path.)
    let start = Instant::now();
    while server.queue().job(id).expect("job exists").state == JobState::Queued {
        assert!(start.elapsed() < Duration::from_secs(60), "job never claimed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.drain();
    server.join();

    let parked = {
        let (queue, _) = JobQueue::open(&spool.join("queue.journal"), QueueConfig::default())
            .expect("journal reopens after drain");
        queue.job(id).expect("job persisted")
    };
    assert!(
        matches!(parked.state, JobState::Queued | JobState::Done),
        "drain must park the job as queued (or it finished): {parked:?}"
    );
    if parked.state == JobState::Queued {
        assert_eq!(parked.attempts, 0, "a drained attempt is returned");
    }

    let server = Server::start(&serve_config(&spool)).expect("service restarts");
    let job = await_terminal(&server, id, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.attempts, 1, "exactly one counted attempt end to end");
    assert_eq!(job.result_hash.as_deref(), Some(direct_hash(TINY_SCENARIO).as_str()));
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A poison job (fatal chaos in every trial) burns its bounded retries
/// and lands in quarantine with the failure recorded; the service
/// stays healthy and keeps serving other jobs.
#[test]
fn poison_job_is_quarantined_and_service_stays_healthy() {
    let spool = scratch_spool("poison");
    let mut cfg = serve_config(&spool);
    cfg.job_retries = 2;
    let server = Server::start(&cfg).expect("service starts");
    let addr = server.addr();

    let (status, _) = http(addr, "POST", "/jobs", POISON_SCENARIO);
    assert_eq!(status, 201);
    let poison = await_terminal(&server, 0, Duration::from_secs(120));
    assert_eq!(poison.state, JobState::Quarantined);
    assert_eq!(poison.attempts, 2, "bounded retries, then quarantine");
    let error = poison.error.expect("quarantined job records its failure");
    assert!(error.contains("quarantined"), "error: {error}");

    // The service is still alive and correct for the next job.
    let (status, _) = http(addr, "POST", "/jobs", TINY_SCENARIO);
    assert_eq!(status, 201);
    let job = await_terminal(&server, 1, Duration::from_secs(120));
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.result_hash.as_deref(), Some(direct_hash(TINY_SCENARIO).as_str()));

    let (_, health) = http(addr, "GET", "/healthz", "");
    assert!(health.contains("\"quarantined\":1"), "healthz: {health}");
    assert!(health.contains("\"status\":\"ok\""), "healthz: {health}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    for needle in ["rem_serve_jobs_quarantined_total 1", "rem_serve_jobs_quarantined 1"] {
        assert!(metrics.contains(needle), "metrics missing {needle}:\n{metrics}");
    }

    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&spool);
}
