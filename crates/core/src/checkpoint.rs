//! Crash-safe campaign checkpointing.
//!
//! A multi-hour Monte-Carlo campaign must survive SIGKILL, OOM and
//! power loss with its completed work intact. The contract here:
//!
//! * **Atomic saves** — the checkpoint is written to a sibling
//!   temporary file, fsynced, then renamed over the target. A reader
//!   never observes a half-written file.
//! * **Self-verifying** — the body carries an FNV-1a 64 checksum in
//!   the header line (`REMCKPT1 fnv1a64:<16 hex>`); truncation or
//!   bit-rot is a typed [`ExperimentError::ChecksumMismatch`], not a
//!   garbage resume.
//! * **Deterministic resume** — a checkpoint stores each completed
//!   trial's serialized record at its canonical index. Resuming runs
//!   *only* the missing indices; because every trial is a pure
//!   function of `(spec, index)`, the merged result — and therefore
//!   the campaign's `--hash` — is bit-identical to an uninterrupted
//!   run, at any thread count, interrupted at any point.
//!
//! The format is one header line plus a JSON body:
//!
//! ```text
//! REMCKPT1 fnv1a64:8c93...\n
//! {"kind":"compare","spec_json":"...","n_trials":8,"trials":[...]}
//! ```

use crate::error::ExperimentError;
use rem_exec::{CheckedPolicy, DeadlineOverrun, QuarantinedTrial, TrialOutcome};
use rem_num::hash::{fnv1a64, fnv1a64_digest};
use rem_num::health::{self, DegradedStats};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Header magic of the checkpoint format.
pub const CHECKPOINT_MAGIC: &str = "REMCKPT1";

/// Atomically writes a checksummed artifact in the shared
/// `<magic> fnv1a64:<16 hex>\n<body>` layout: the content goes to a
/// sibling `<path>.tmp`, is fsynced, then renamed over `path`. Both
/// checkpoints (`REMCKPT1`) and the campaign service's queue journal
/// (`REMQUEUE1`) use this, so crash-atomicity has one implementation.
pub fn write_atomic_checksummed(
    magic: &str,
    path: &Path,
    body: &str,
) -> Result<(), ExperimentError> {
    let content = format!("{magic} {}\n{body}", fnv1a64_digest(body.as_bytes()));
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let io = |e| ExperimentError::io(&tmp, e);
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(content.as_bytes()).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| ExperimentError::io(path, e))
}

/// Reads an artifact written by [`write_atomic_checksummed`], verifies
/// magic and checksum, and returns the body. Structural damage is a
/// typed [`ExperimentError::Corrupt`]; a checksum disagreement is
/// [`ExperimentError::ChecksumMismatch`] — never a panic, never a
/// silently accepted half-write.
pub fn read_checksummed(magic: &str, path: &Path) -> Result<String, ExperimentError> {
    let content = std::fs::read_to_string(path).map_err(|e| ExperimentError::io(path, e))?;
    let corrupt = |detail: &str| ExperimentError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    let (header, body) = content.split_once('\n').ok_or_else(|| corrupt("missing header line"))?;
    let digest_hex = header
        .strip_prefix(magic)
        .and_then(|r| r.strip_prefix(" fnv1a64:"))
        .ok_or_else(|| corrupt("bad magic or header"))?;
    let expected = u64::from_str_radix(digest_hex.trim(), 16)
        .map_err(|_| corrupt("unparseable checksum"))?;
    let actual = fnv1a64(body.as_bytes());
    if expected != actual {
        return Err(ExperimentError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(body.to_string())
}

/// On-disk campaign state: which trials have completed and their
/// serialized records.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Campaign kind tag (`"compare"`, `"bler"`, ...): resuming a
    /// checkpoint into a different command is refused.
    pub kind: String,
    /// Canonical serialization of the campaign spec (threads excluded:
    /// a resume may use a different worker count).
    pub spec_json: String,
    /// Total trial count of the campaign.
    pub n_trials: usize,
    /// `trials[i]` holds trial `i`'s serialized record once complete.
    pub trials: Vec<Option<String>>,
}

impl Checkpoint {
    /// An empty checkpoint for a campaign of `n_trials` trials.
    pub fn new(kind: &str, spec_json: String, n_trials: usize) -> Self {
        Self { kind: kind.to_string(), spec_json, n_trials, trials: vec![None; n_trials] }
    }

    /// Number of completed trials.
    pub fn completed(&self) -> usize {
        self.trials.iter().filter(|t| t.is_some()).count()
    }

    /// Canonical indices still to run.
    pub fn missing(&self) -> Vec<usize> {
        self.trials
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.is_none().then_some(i))
            .collect()
    }

    /// True when every trial has a record.
    pub fn is_complete(&self) -> bool {
        self.trials.iter().all(Option::is_some)
    }

    /// Stores trial `index`'s serialized record.
    pub fn record(&mut self, index: usize, record_json: String) {
        self.trials[index] = Some(record_json);
    }

    /// Forgets trial `index`'s record (used by tests and tooling to
    /// simulate a campaign killed before those trials completed).
    pub fn unrecord(&mut self, index: usize) {
        self.trials[index] = None;
    }

    /// Deserializes trial `index`'s record, if present.
    pub fn decode_trial<T: DeserializeOwned>(
        &self,
        index: usize,
    ) -> Result<Option<T>, ExperimentError> {
        match &self.trials[index] {
            None => Ok(None),
            Some(json) => serde_json::from_str(json)
                .map(Some)
                .map_err(|e| ExperimentError::serde(format!("checkpoint trial {index}"), e)),
        }
    }

    /// Atomically writes the checkpoint: serialize, checksum, write to
    /// `<path>.tmp`, fsync, rename over `path`.
    pub fn save(&self, path: &Path) -> Result<(), ExperimentError> {
        let _timing = rem_obs::metrics::span("rem_core_checkpoint_save_us");
        let body =
            serde_json::to_string(self).map_err(|e| ExperimentError::serde("checkpoint", e))?;
        rem_obs::metrics::inc("rem_core_checkpoint_saves_total");
        rem_obs::metrics::add("rem_core_checkpoint_bytes_written_total", body.len() as u64);
        write_atomic_checksummed(CHECKPOINT_MAGIC, path, &body)
    }

    /// Loads and verifies a checkpoint written by [`Checkpoint::save`].
    pub fn load(path: &Path) -> Result<Self, ExperimentError> {
        let body = read_checksummed(CHECKPOINT_MAGIC, path)?;
        rem_obs::metrics::inc("rem_core_checkpoint_loads_total");
        rem_obs::metrics::add("rem_core_checkpoint_bytes_read_total", body.len() as u64);
        serde_json::from_str(&body).map_err(|e| ExperimentError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("body does not parse: {e}"),
        })
    }

    /// Refuses to resume into a campaign this checkpoint does not
    /// describe.
    pub fn verify_matches(
        &self,
        path: &Path,
        kind: &str,
        spec_json: &str,
        n_trials: usize,
    ) -> Result<(), ExperimentError> {
        let mismatch = |detail: String| ExperimentError::SpecMismatch {
            path: path.to_path_buf(),
            detail,
        };
        if self.kind != kind {
            return Err(mismatch(format!("kind '{}' != '{kind}'", self.kind)));
        }
        if self.n_trials != n_trials {
            return Err(mismatch(format!("{} trials != {n_trials}", self.n_trials)));
        }
        if self.spec_json != spec_json {
            return Err(mismatch("spec fingerprint differs".to_string()));
        }
        Ok(())
    }
}

/// Execution policy of a checkpointed campaign: worker threads, panic
/// retry budget, per-trial deadline, checkpoint cadence and an
/// optional cancellation hook.
#[derive(Clone)]
pub struct RunPolicy {
    /// Worker threads (`0` = all available hardware threads).
    pub threads: usize,
    /// Panicking-trial re-attempts before quarantine.
    pub max_retries: u32,
    /// Per-trial deadline (detection only; see
    /// [`rem_exec::CheckedPolicy::trial_timeout`]).
    pub trial_timeout_ms: Option<u64>,
    /// Save the checkpoint after every `checkpoint_every` newly
    /// completed trials (`0` = only at the end).
    pub checkpoint_every: usize,
    /// Polled at every wave boundary; returning `true` stops the
    /// campaign with [`ExperimentError::Interrupted`] after the
    /// just-finished wave's records are safely checkpointed. Signal
    /// handlers and the campaign service's drain/heartbeat path hook
    /// in here; `None` (the default) never cancels.
    pub cancel: Option<std::sync::Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl std::fmt::Debug for RunPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPolicy")
            .field("threads", &self.threads)
            .field("max_retries", &self.max_retries)
            .field("trial_timeout_ms", &self.trial_timeout_ms)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("cancel", &self.cancel.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            threads: 0,
            max_retries: 1,
            trial_timeout_ms: None,
            checkpoint_every: 16,
            cancel: None,
        }
    }
}

impl RunPolicy {
    /// The equivalent `rem_exec` policy.
    pub fn checked_policy(&self) -> CheckedPolicy {
        let mut p = CheckedPolicy::with_retries(self.max_retries);
        if let Some(ms) = self.trial_timeout_ms {
            p = p.with_timeout(Duration::from_millis(ms.max(1)));
        }
        p
    }

    /// True when the cancellation hook reports the campaign should
    /// stop at the next wave boundary.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().map(|c| c()).unwrap_or(false)
    }
}

/// Everything a checkpointed campaign produced.
#[derive(Clone, Debug)]
pub struct CheckpointedRun<T> {
    /// `values[i]` is trial `i`'s value; `None` iff the trial was
    /// quarantined this run.
    pub values: Vec<Option<T>>,
    /// Trials that panicked on every attempt, canonical order.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Deadline overruns observed this run (detection only).
    pub overruns: Vec<DeadlineOverrun>,
    /// Panicking attempts that were retried successfully.
    pub retries: u64,
    /// Trials replayed from the checkpoint instead of recomputed.
    pub resumed_trials: usize,
    /// Merged numerical-health ledger over every trial (resumed trials
    /// contribute the stats recorded when they originally ran).
    pub health: DegradedStats,
}

impl<T> CheckpointedRun<T> {
    /// True when every trial produced a value.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The values, or the quarantine list as a typed error.
    pub fn into_values(self) -> Result<Vec<T>, ExperimentError> {
        if self.is_clean() {
            Ok(self.values.into_iter().flatten().collect())
        } else {
            Err(ExperimentError::Quarantined { trials: self.quarantined })
        }
    }
}

/// Runs (or resumes) a checkpointed campaign of `n_trials` independent
/// trials.
///
/// `trial(index, attempt)` must make its result a pure function of
/// `index` (the `attempt` parameter exists for fault-injection hooks —
/// see [`rem_exec::par_map_checked`]). Records are serialized as
/// `(value, DegradedStats)` pairs: the health ledger survives a resume
/// while staying out of any hash computed over the values.
///
/// With `path = None` this is a plain checked run (no file touched).
/// With a path, the checkpoint is saved after every wave of
/// [`RunPolicy::checkpoint_every`] trials and once at the end; if the
/// file already exists it is loaded, verified against
/// `(kind, spec_json, n_trials)` and only the missing trials run.
pub fn run_trials_checkpointed<T, F>(
    kind: &str,
    spec_json: &str,
    n_trials: usize,
    policy: &RunPolicy,
    path: Option<&Path>,
    trial: F,
) -> Result<CheckpointedRun<T>, ExperimentError>
where
    T: Serialize + DeserializeOwned + Send,
    F: Fn(usize, u32) -> T + Sync,
{
    let mut ckpt = match path {
        Some(p) if p.exists() => {
            let c = Checkpoint::load(p)?;
            c.verify_matches(p, kind, spec_json, n_trials)?;
            c
        }
        _ => Checkpoint::new(kind, spec_json.to_string(), n_trials),
    };

    let mut values: Vec<Option<T>> = Vec::with_capacity(n_trials);
    let mut stats = DegradedStats::default();
    for i in 0..n_trials {
        match ckpt.decode_trial::<(T, DegradedStats)>(i)? {
            Some((v, d)) => {
                stats.merge(&d);
                values.push(Some(v));
            }
            None => values.push(None),
        }
    }
    let resumed_trials = n_trials - values.iter().filter(|v| v.is_none()).count();

    let missing = ckpt.missing();
    rem_obs::metrics::add("rem_core_trials_resumed_total", resumed_trials as u64);
    rem_obs::trace::emit(
        "core",
        "campaign_start",
        &[
            ("kind", kind.into()),
            ("n_trials", n_trials.into()),
            ("resumed", resumed_trials.into()),
            ("missing", missing.len().into()),
        ],
    );
    let mut quarantined = Vec::new();
    let mut overruns = Vec::new();
    let mut retries = 0u64;
    let wave_len = if policy.checkpoint_every == 0 || path.is_none() {
        missing.len().max(1)
    } else {
        policy.checkpoint_every.max(1)
    };

    for wave in missing.chunks(wave_len) {
        // Wave-boundary cancellation: everything finished so far is
        // already saved (the checkpoint write trails every wave), so
        // stopping here loses no work and a resume reproduces the
        // uninterrupted hash exactly.
        if policy.cancelled() {
            let completed = ckpt.completed();
            rem_obs::trace::emit(
                "core",
                "campaign_interrupted",
                &[("kind", kind.into()), ("completed", completed.into())],
            );
            return Err(ExperimentError::Interrupted { completed, total: n_trials });
        }
        let run = rem_exec::par_map_checked(
            policy.threads,
            wave.len(),
            policy.checked_policy(),
            |wi, attempt| {
                let index = wave[wi];
                let _ = health::take_thread_stats();
                let v = trial(index, attempt);
                (v, health::take_thread_stats())
            },
        );
        retries += run.retries;
        overruns.extend(run.overruns.into_iter().map(|mut o| {
            o.index = wave[o.index];
            o
        }));
        for (wi, outcome) in run.outcomes.into_iter().enumerate() {
            let index = wave[wi];
            match outcome {
                TrialOutcome::Ok((v, d)) => {
                    stats.merge(&d);
                    // Encoding a record costs a full serialization per
                    // trial; skip it when there is no checkpoint file
                    // to write. The placeholder keeps `completed()`
                    // accurate and is never saved or decoded.
                    let record = if path.is_some() {
                        serde_json::to_string(&(&v, &d))
                            .map_err(|e| ExperimentError::serde(format!("trial {index}"), e))?
                    } else {
                        String::new()
                    };
                    ckpt.record(index, record);
                    values[index] = Some(v);
                }
                TrialOutcome::Quarantined(mut q) => {
                    q.index = index;
                    quarantined.push(q);
                }
            }
        }
        if let Some(p) = path {
            ckpt.save(p)?;
        }
        rem_obs::trace::emit(
            "core",
            "wave_done",
            &[("wave_len", wave.len().into()), ("completed", ckpt.completed().into())],
        );
    }

    quarantined.sort_by_key(|q| q.index);
    rem_obs::trace::emit(
        "core",
        "campaign_done",
        &[
            ("kind", kind.into()),
            ("quarantined", quarantined.len().into()),
            ("retries", retries.into()),
        ],
    );
    Ok(CheckpointedRun { values, quarantined, overruns, retries, resumed_trials, health: stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rem-core-ckpt-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn save_load_roundtrip() -> Result<(), ExperimentError> {
        let path = tmp("roundtrip.ckpt");
        let mut c = Checkpoint::new("demo", "{\"x\":1}".into(), 3);
        c.record(1, "[7,{}]".into());
        c.save(&path)?;
        let back = Checkpoint::load(&path)?;
        assert_eq!(back, c);
        assert_eq!(back.completed(), 1);
        assert_eq!(back.missing(), vec![0, 2]);
        assert!(!back.is_complete());
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn corrupted_body_is_a_checksum_mismatch() -> Result<(), ExperimentError> {
        let path = tmp("corrupt.ckpt");
        Checkpoint::new("demo", String::new(), 2).save(&path)?;
        let mut content = std::fs::read_to_string(&path).map_err(|e| ExperimentError::io(&path, e))?;
        // Flip one byte of the body, leaving the header intact.
        let flip = content.len() - 2;
        content.replace_range(flip..flip + 1, "9");
        std::fs::write(&path, &content).map_err(|e| ExperimentError::io(&path, e))?;
        match Checkpoint::load(&path) {
            Err(ExperimentError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let path = tmp("magic.ckpt");
        std::fs::write(&path, "NOTMAGIC abc\n{}").expect("write");
        match Checkpoint::load(&path) {
            Err(ExperimentError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_matches_rejects_other_campaigns() {
        let c = Checkpoint::new("compare", "spec-a".into(), 4);
        let p = Path::new("x.ckpt");
        assert!(c.verify_matches(p, "compare", "spec-a", 4).is_ok());
        assert!(matches!(
            c.verify_matches(p, "bler", "spec-a", 4),
            Err(ExperimentError::SpecMismatch { .. })
        ));
        assert!(matches!(
            c.verify_matches(p, "compare", "spec-b", 4),
            Err(ExperimentError::SpecMismatch { .. })
        ));
        assert!(matches!(
            c.verify_matches(p, "compare", "spec-a", 5),
            Err(ExperimentError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn checkpointed_run_resumes_only_missing_trials() -> Result<(), ExperimentError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmp("resume-count.ckpt");
        let _ = std::fs::remove_file(&path);
        let policy = RunPolicy { threads: 1, checkpoint_every: 2, ..Default::default() };
        let trial = |i: usize, _a: u32| (i * i) as u64;

        let full = run_trials_checkpointed("demo", "s", 6, &policy, Some(&path), trial)?;
        assert!(full.is_clean());
        assert_eq!(full.resumed_trials, 0);

        // Simulate a kill: forget trials 2 and 5.
        let mut c = Checkpoint::load(&path)?;
        c.unrecord(2);
        c.unrecord(5);
        c.save(&path)?;

        let computed = AtomicUsize::new(0);
        let resumed = run_trials_checkpointed("demo", "s", 6, &policy, Some(&path), |i, a| {
            computed.fetch_add(1, Ordering::Relaxed);
            trial(i, a)
        })?;
        assert_eq!(computed.load(Ordering::Relaxed), 2, "only missing trials run");
        assert_eq!(resumed.resumed_trials, 4);
        assert_eq!(resumed.into_values()?, full.into_values()?);
        assert!(Checkpoint::load(&path)?.is_complete());
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn quarantined_trials_stay_missing_for_the_next_resume() -> Result<(), ExperimentError> {
        let path = tmp("quarantine.ckpt");
        let _ = std::fs::remove_file(&path);
        let policy =
            RunPolicy { threads: 2, max_retries: 1, checkpoint_every: 0, ..Default::default() };
        // Trial 3 always panics this run.
        let run = run_trials_checkpointed("demo", "s", 5, &policy, Some(&path), |i, _a| {
            if i == 3 {
                panic!("injected");
            }
            i as u64
        })?;
        assert_eq!(run.quarantined.len(), 1);
        assert_eq!(run.quarantined[0].index, 3);
        assert_eq!(run.quarantined[0].attempts, 2);
        assert!(run.values[3].is_none());
        assert!(matches!(run.into_values(), Err(ExperimentError::Quarantined { .. })));

        // The fixed binary resumes: only trial 3 runs, result complete.
        let resumed =
            run_trials_checkpointed("demo", "s", 5, &policy, Some(&path), |i, _a| i as u64)?;
        assert_eq!(resumed.resumed_trials, 4);
        assert_eq!(resumed.into_values()?, vec![0, 1, 2, 3, 4]);
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn health_ledger_survives_resume() -> Result<(), ExperimentError> {
        let path = tmp("health.ckpt");
        let _ = std::fs::remove_file(&path);
        let policy = RunPolicy { threads: 1, checkpoint_every: 1, ..Default::default() };
        let trial = |i: usize, _a: u32| {
            health::record(|d| d.non_finite_llr += i as u64);
            i as u64
        };
        let full = run_trials_checkpointed("demo", "s", 4, &policy, Some(&path), trial)?;
        assert_eq!(full.health.non_finite_llr, 6); // 0+1+2+3

        let mut c = Checkpoint::load(&path)?;
        c.unrecord(1);
        c.save(&path)?;
        let resumed = run_trials_checkpointed("demo", "s", 4, &policy, Some(&path), trial)?;
        assert_eq!(resumed.health.non_finite_llr, 6, "resumed trials keep their recorded stats");
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn no_path_is_a_plain_checked_run() -> Result<(), ExperimentError> {
        let run = run_trials_checkpointed(
            "demo",
            "s",
            8,
            &RunPolicy { threads: 3, ..Default::default() },
            None,
            |i, _a| i as u64,
        )?;
        assert_eq!(run.resumed_trials, 0);
        assert_eq!(run.into_values()?, (0..8).collect::<Vec<u64>>());
        Ok(())
    }

    #[test]
    fn checksummed_helpers_roundtrip_any_magic() -> Result<(), ExperimentError> {
        let path = tmp("journal.q");
        write_atomic_checksummed("REMQUEUE1", &path, "{\"jobs\":[]}")?;
        assert_eq!(read_checksummed("REMQUEUE1", &path)?, "{\"jobs\":[]}");
        // A reader expecting a different magic refuses the file.
        assert!(matches!(
            read_checksummed(CHECKPOINT_MAGIC, &path),
            Err(ExperimentError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn cancel_hook_interrupts_at_a_wave_boundary() -> Result<(), ExperimentError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let path = tmp("cancel.ckpt");
        let _ = std::fs::remove_file(&path);
        // Cancel after the first poll: wave 1 runs, wave 2 does not.
        let polls = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&polls);
        let policy = RunPolicy {
            threads: 1,
            checkpoint_every: 2,
            cancel: Some(Arc::new(move || p2.fetch_add(1, Ordering::SeqCst) >= 1)),
            ..Default::default()
        };
        let ran = AtomicUsize::new(0);
        let err = run_trials_checkpointed("demo", "s", 6, &policy, Some(&path), |i, _a| {
            ran.fetch_add(1, Ordering::SeqCst);
            i as u64
        })
        .expect_err("cancelled run must not complete");
        match err {
            ExperimentError::Interrupted { completed, total } => {
                assert_eq!(completed, 2, "first wave checkpointed before the stop");
                assert_eq!(total, 6);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 2);

        // Resume without the hook: only the missing trials run, and the
        // merged result equals an uninterrupted run.
        let resume = RunPolicy { threads: 1, checkpoint_every: 2, ..Default::default() };
        let done = run_trials_checkpointed("demo", "s", 6, &resume, Some(&path), |i, _a| i as u64)?;
        assert_eq!(done.resumed_trials, 2);
        assert_eq!(done.into_values()?, (0..6).collect::<Vec<u64>>());
        let _ = std::fs::remove_file(&path);
        Ok(())
    }
}
