//! Crash-safety acceptance tests: a campaign killed mid-run and
//! resumed from its checkpoint must be **bit-identical** to an
//! uninterrupted run at any worker count, and the checked execution
//! layer must be invisible when nothing fails.

use std::path::PathBuf;

use rem_core::study::from_checkpoint;
use rem_core::{
    fnv1a64, run_study, CampaignSpec, Comparison, DatasetSpec, ExperimentError, RunPolicy,
};
use rem_exec::{par_map, par_map_checked, CheckedPolicy, TrialOutcome};
use rem_faults::ChaosConfig;
use rem_integration::check;

/// Unique scratch path for one test (tests run concurrently).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rem-crash-safety-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}.ckpt"))
}

fn small_campaign() -> CampaignSpec {
    CampaignSpec::new(DatasetSpec::beijing_taiyuan(12.0, 300.0)).with_seeds(&[3, 4, 5])
}

fn hash_of(cmp: &Comparison) -> u64 {
    fnv1a64(serde_json::to_string(cmp).expect("comparison serializes").as_bytes())
}

/// With zero failures the checked engine is bit-identical to the
/// plain one: same values, canonical order, no supervision noise.
#[test]
fn checked_map_without_failures_equals_plain_map() {
    check(
        "checked_map_without_failures_equals_plain_map",
        64,
        |g| (g.range(0usize..40), g.range(1usize..6), g.range(1u64..1000)),
        |&(n, threads, mult)| {
            let reference = par_map(threads, n, |i| (i as u64).wrapping_mul(mult) % 8923);
            let run = par_map_checked(threads, n, CheckedPolicy::with_retries(2), |i, _attempt| {
                (i as u64).wrapping_mul(mult) % 8923
            });
            assert!(run.is_clean());
            assert_eq!(run.retries, 0);
            assert!(run.overruns.is_empty());
            let values = run.into_values().expect("clean run");
            assert_eq!(values, reference);
        },
    );
}

/// Transient (attempt-0 only) panics are retried and the retried
/// trials reproduce exactly the values an unfaulted run produces.
#[test]
fn transient_panics_retry_to_the_unfaulted_values() {
    let n = 24;
    let chaos = ChaosConfig::transient(11, 0.5);
    let reference = par_map(4, n, |i| i * i + 1);
    let run = par_map_checked(4, n, CheckedPolicy::with_retries(1), |i, attempt| {
        chaos.maybe_panic(i, attempt);
        i * i + 1
    });
    assert!(run.retries > 0, "chaos at rate 0.5 should hit some of {n} trials");
    assert!(run.is_clean());
    assert_eq!(run.into_values().expect("clean"), reference);
}

/// A deterministically-fatal trial is quarantined; every other trial's
/// value is untouched.
#[test]
fn fatal_trial_is_quarantined_without_disturbing_neighbours() {
    let n = 9;
    let run = par_map_checked(3, n, CheckedPolicy::with_retries(2), |i, _attempt| {
        if i == 4 {
            panic!("synthetic fault in trial 4");
        }
        i * 7
    });
    assert!(!run.is_clean());
    let quarantined = run.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].index, 4);
    assert_eq!(quarantined[0].attempts, 3);
    for (i, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            TrialOutcome::Ok(v) => assert_eq!(*v, i * 7, "trial {i}"),
            TrialOutcome::Quarantined(q) => assert_eq!(q.index, 4),
        }
    }
}

/// Kill a campaign after k completed trials (for several k), resume at
/// 1 and at 4 worker threads: the FNV-1a hash of the result must equal
/// the uninterrupted run's hash every time.
#[test]
fn killed_campaign_resumes_bit_identical_at_any_thread_count(
) -> Result<(), Box<dyn std::error::Error>> {
    let campaign = small_campaign();
    let reference = Comparison::run(&campaign.clone().with_threads(1));
    let reference_hash = hash_of(&reference);
    let total = campaign.seeds.len(); // one paired (legacy + REM) trial per seed

    let policy = RunPolicy { checkpoint_every: 1, ..RunPolicy::default() };
    for kill_after in [1, 2] {
        for resume_threads in [1usize, 4] {
            let path = scratch(&format!("kill{kill_after}-t{resume_threads}"));
            let _ = std::fs::remove_file(&path);

            // Produce a full checkpoint, then forget every trial past
            // `kill_after` — byte-wise this is exactly the file a run
            // killed after `kill_after` completed trials leaves behind,
            // because the writer checkpoints after every trial wave.
            let checked = Comparison::run_checkpointed(&campaign, &policy, Some(&path))?;
            assert!(checked.is_clean());
            let mut ckpt = rem_core::Checkpoint::load(&path)?;
            for i in kill_after..total {
                ckpt.unrecord(i);
            }
            assert_eq!(ckpt.completed(), kill_after);
            ckpt.save(&path)?;

            let resume_policy = RunPolicy { threads: resume_threads, ..policy.clone() };
            let resumed_campaign: CampaignSpec = from_checkpoint(&path, resume_threads)?;
            let resumed = run_study(&resumed_campaign, &resume_policy, Some(&path), |_, _| {})?;
            assert_eq!(resumed_campaign.seeds, campaign.seeds);
            assert_eq!(resumed.resumed_trials, kill_after);
            assert_eq!(resumed.completed_trials, total);
            assert_eq!(
                hash_of(&resumed.value),
                reference_hash,
                "kill_after={kill_after} resume_threads={resume_threads}"
            );
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// A quarantined trial leaves a hole in the checkpoint, so "recover
/// from a persistent fault" is just resume-once-the-fault-is-gone.
#[test]
fn quarantine_then_resume_completes_the_campaign() -> Result<(), Box<dyn std::error::Error>> {
    let campaign = small_campaign();
    let reference_hash = hash_of(&Comparison::run(&campaign.clone().with_threads(1)));
    let path = scratch("quarantine-resume");
    let _ = std::fs::remove_file(&path);

    // First run: trial 2 dies on every attempt and is quarantined.
    let policy = RunPolicy { checkpoint_every: 1, ..RunPolicy::default() };
    let checked = run_study(&campaign, &policy, Some(&path), |i, _a| {
        if i == 2 {
            panic!("persistent fault in trial 2");
        }
    })?;
    assert_eq!(checked.quarantined.len(), 1);
    assert_eq!(checked.quarantined[0].index, 2);
    assert!(matches!(
        checked.into_result(),
        Err(ExperimentError::Quarantined { .. })
    ));

    // The fault clears (hook gone); resume re-runs exactly trial 2.
    let rebuilt: CampaignSpec = from_checkpoint(&path, policy.threads)?;
    let resumed = run_study(&rebuilt, &policy, Some(&path), |_, _| {})?;
    assert!(resumed.is_clean());
    assert_eq!(resumed.completed_trials, resumed.total_trials);
    assert_eq!(hash_of(&resumed.value), reference_hash);
    std::fs::remove_file(&path)?;
    Ok(())
}

/// Flipping one byte of a saved checkpoint is detected as a typed
/// checksum error, never parsed as data.
#[test]
fn corrupted_checkpoint_is_rejected_with_a_typed_error(
) -> Result<(), Box<dyn std::error::Error>> {
    let campaign = small_campaign();
    let path = scratch("corruption");
    let _ = std::fs::remove_file(&path);
    let policy = RunPolicy { checkpoint_every: 1, ..RunPolicy::default() };
    Comparison::run_checkpointed(&campaign, &policy, Some(&path))?;

    let mut bytes = std::fs::read(&path)?;
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes)?;

    match rem_core::Checkpoint::load(&path) {
        Err(ExperimentError::ChecksumMismatch { expected, actual, .. }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path)?;
    Ok(())
}

/// The chaos hook panics only on attempt 0, so a chaos-ridden campaign
/// with retries enabled still hashes identically to a calm one — the
/// property the CI chaos job gates on.
#[test]
fn chaos_campaign_hash_equals_calm_campaign_hash() -> Result<(), Box<dyn std::error::Error>> {
    let campaign = small_campaign().with_threads(2);
    let calm_hash = hash_of(&Comparison::run(&campaign));

    let chaos = ChaosConfig::transient(7, 1.0); // every trial panics once
    let policy = RunPolicy { threads: 2, max_retries: 2, ..RunPolicy::default() };
    let checked = run_study(&campaign, &policy, None, |i, a| chaos.maybe_panic(i, a))?;
    assert!(checked.is_clean());
    assert_eq!(checked.retries as usize, campaign.seeds.len());
    assert_eq!(hash_of(&checked.value), calm_hash);
    Ok(())
}
