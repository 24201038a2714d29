//! Pins the result digest of every campaign kind the `rem` binary runs
//! and requires each run's manifest, and an equivalent scenario file,
//! to reproduce it: the shared study path (flags or file → spec → run →
//! digest → manifest → `rem rerun`) must never move a recorded hash.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Each kind's command line, the body of an equivalent scenario file
/// and the recorded `--hash` digest.
const KINDS: [(&str, &[&str], &str, &str); 6] = [
    (
        "compare",
        &["compare", "--dataset", "bt", "--route-km", "5", "--seeds", "2"],
        "[trajectory]\nspeed_kmh = 300\nroute_km = 5\n[cells]\nfamily = \"bt\"\n[run]\nseeds = 2\n",
        "fnv1a64:bde21efe5c973408",
    ),
    (
        "faults",
        &["faults", "--dataset", "bt", "--route-km", "5", "--seeds", "2"],
        "[trajectory]\nspeed_kmh = 300\nroute_km = 5\n[cells]\nfamily = \"bt\"\n[run]\nseeds = 2\n",
        "fnv1a64:59dd5f7c53f716cb",
    ),
    (
        "bler",
        &["bler", "--blocks", "20"],
        "[trajectory]\nspeed_kmh = 350\nroute_km = 40\n[cells]\nfamily = \"bs\"\n\
         carriers = [[38050, 2.6e9, 20]]\n[link]\nblocks = 20\n",
        "fnv1a64:c8763e118836a659",
    ),
    (
        "train",
        &["train", "--clients", "3", "--route-km", "5"],
        "[trajectory]\nspeed_kmh = 300\nroute_km = 5\n[cells]\nfamily = \"bs\"\n[train]\nclients = 3\n",
        "fnv1a64:0c90cf37d65addc7",
    ),
    (
        "net",
        &["net", "study", "--seeds", "1", "--window-ms", "20000"],
        "[trajectory]\nspeed_kmh = 300\nroute_km = 40\n[cells]\nfamily = \"bs\"\n\
         [net]\nwindow_ms = 20000\n[run]\nseeds = 1\n",
        "fnv1a64:b44c93a8a3fa67e6",
    ),
    (
        "fleet",
        &["fleet", "--trains", "20", "--duration", "30"],
        "[trajectory]\nspeed_kmh = 300\nroute_km = 40\n[cells]\nfamily = \"bs\"\n\
         [fleet]\ntrains = 20\nduration_s = 30\n",
        "fnv1a64:ce1bebb9281832d5",
    ),
];

/// The command word of a `KINDS` row (`net study` keeps its subcommand).
fn verb<'a>(kind: &str, args: &'a [&'a str]) -> &'a [&'a str] {
    if kind == "net" {
        &args[..2]
    } else {
        &args[..1]
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rem-study-kinds-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `rem <args>`, requires exit 0 and returns the `hash:` line.
fn rem_hash(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rem")).args(args).output().expect("run rem");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "rem {args:?} failed: {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("hash: "))
        .unwrap_or_else(|| panic!("rem {args:?} printed no hash line:\n{stdout}"))
        .to_string()
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 scratch path")
}

#[test]
fn every_kind_keeps_its_digest_and_reruns_from_its_manifest() {
    let dir = scratch("rerun");
    for (kind, args, _, expected) in KINDS {
        let trace = dir.join(format!("{kind}.trace.jsonl"));
        let mut run = args.to_vec();
        run.extend(["--threads", "2", "--hash", "--obs-trace", path_str(&trace)]);
        assert_eq!(rem_hash(&run), expected, "{kind} digest moved");

        let manifest = dir.join(format!("{kind}.trace.jsonl.manifest.json"));
        let rerun = rem_hash(&["rerun", path_str(&manifest), "--threads", "1"]);
        assert_eq!(rerun, expected, "{kind} manifest reran to another digest");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--resume` rebuilds every trial-based kind from the checkpoint's own
/// fingerprint: a resume that repeats none of the original flags still
/// reproduces the original digest.
#[test]
fn resume_rebuilds_every_study_from_its_checkpoint() {
    let dir = scratch("resume");
    for (kind, args, _, expected) in KINDS.iter().filter(|(kind, ..)| *kind != "fleet") {
        let ckpt = dir.join(format!("{kind}.ckpt"));
        let mut run = args.to_vec();
        run.extend(["--threads", "2", "--checkpoint", path_str(&ckpt)]);
        let status = Command::new(env!("CARGO_BIN_EXE_rem"))
            .args(&run)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run rem");
        assert!(status.success(), "{kind} checkpointed run failed: {status:?}");

        let mut resume = verb(kind, args).to_vec();
        resume.extend(["--threads", "1", "--hash", "--resume", path_str(&ckpt)]);
        assert_eq!(rem_hash(&resume), *expected, "{kind} resume rebuilt another study");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `compare` row's campaign: the study its flags lower to.
fn compare_campaign() -> rem_core::CampaignSpec {
    rem_core::CampaignSpec::new(rem_core::DatasetSpec::beijing_taiyuan(5.0, 300.0))
        .with_seeds(&[1, 2])
}

/// A compare checkpoint from when each `(plane, seed)` replay was its
/// own trial (`2 * seeds` trials, one `RunMetrics` per record) belongs
/// to another campaign: `--resume` refuses it (exit 1) and leaves it.
#[test]
fn resume_refuses_a_checkpoint_with_a_trial_per_plane() {
    use rem_core::{Checkpoint, Plane, RunConfig, Study};
    let dir = scratch("per-plane-ckpt");
    let campaign = compare_campaign();
    let n = campaign.seeds.len();
    let fingerprint = campaign.fingerprint().expect("fingerprint");
    let mut old = Checkpoint::new(rem_core::CampaignSpec::KIND, fingerprint, 2 * n);
    for i in 0..2 * n {
        let plane = if i < n { Plane::Legacy } else { Plane::Rem };
        let cfg = RunConfig::new(campaign.spec.clone(), plane, campaign.seeds[i % n]);
        let record = (rem_core::simulate_run(&cfg), rem_num::health::DegradedStats::default());
        old.record(i, serde_json::to_string(&record).expect("record serializes"));
    }
    let ckpt = dir.join("old.ckpt");
    old.save(&ckpt).expect("save per-plane checkpoint");

    let out = Command::new(env!("CARGO_BIN_EXE_rem"))
        .args(["compare", "--resume", path_str(&ckpt), "--threads", "1", "--hash"])
        .output()
        .expect("run rem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("belongs to a different campaign: 4 trials != 2"), "stderr: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("hash: "));
    assert_eq!(Checkpoint::load(&ckpt).expect("checkpoint still loads"), old);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compare manifest recorded when each `(plane, seed)` replay was its
/// own trial reruns to its digest: `rem rerun` rebuilds the study from
/// the fingerprint alone. Such a manifest differs from today's only in
/// `n_trials` (`2 * seeds`).
#[test]
fn rerun_reproduces_a_manifest_with_a_trial_per_plane() {
    let dir = scratch("per-plane-manifest");
    let (_, args, _, expected) = KINDS[0];
    let trace = dir.join("compare.trace.jsonl");
    let mut run = args.to_vec();
    run.extend(["--threads", "2", "--obs-trace", path_str(&trace)]);
    let status = Command::new(env!("CARGO_BIN_EXE_rem"))
        .args(&run)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run rem");
    assert!(status.success(), "compare failed: {status:?}");

    let path = dir.join("compare.trace.jsonl.manifest.json");
    let body = std::fs::read_to_string(&path).expect("read manifest");
    let mut manifest: serde_json::Value = serde_json::from_str(&body).expect("manifest parses");
    let seeds = compare_campaign().seeds.len();
    assert_eq!(manifest["n_trials"].as_u64(), Some(seeds as u64), "one paired trial per seed");
    assert_eq!(manifest["result_hash"].as_str(), Some(expected));
    manifest["n_trials"] = (2 * seeds).into();
    std::fs::write(&path, manifest.to_string()).expect("write manifest");
    assert_eq!(rem_hash(&["rerun", path_str(&path), "--threads", "1"]), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flags and files are one path: each kind's equivalent scenario file,
/// run with no study flags, prints the same pinned digest.
#[test]
fn every_kind_runs_from_its_equivalent_scenario_file() {
    let dir = scratch("scenario");
    for (kind, args, body, expected) in KINDS {
        let file = dir.join(format!("{kind}.toml"));
        let toml = format!("format = \"REMSCENARIO1\"\nname = \"{kind}\"\n{body}");
        std::fs::write(&file, toml).expect("write scenario");
        let mut run = verb(kind, args).to_vec();
        run.extend(["--threads", "2", "--hash", "--scenario", path_str(&file)]);
        assert_eq!(rem_hash(&run), expected, "{kind} scenario file ran another study");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
