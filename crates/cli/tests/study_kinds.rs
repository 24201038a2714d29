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
