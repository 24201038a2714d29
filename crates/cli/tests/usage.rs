//! Usage errors exit 2 and name what was wrong before anything runs: a
//! flag or argument the command does not take, or a flag value its
//! validated spec rejects. Flags beat a `--scenario` file for every
//! command.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("rem-usage-test").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `rem <args>` in `dir`.
fn rem(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rem")).args(args).current_dir(dir).output().expect("run rem")
}

/// Requires exit 2, a message naming `named` and no output on stdout.
fn assert_usage_error(args: &[&str], named: &str, dir: &Path) {
    let out = rem(args, dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "rem {args:?}: {stderr}");
    assert!(stderr.contains(named), "rem {args:?} must name {named}: {stderr}");
    assert!(out.stdout.is_empty(), "rem {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn flags_and_arguments_a_command_does_not_take_are_usage_errors() {
    let dir = scratch("unknown");
    for (args, named) in [
        (&["fleet", "--trians", "7"][..], "--trians"),
        (&["fleet", "--checkpoint", "f.ckpt"], "--checkpoint"),
        (&["compare", "--rate-scale", "2"], "--rate-scale"),
        (&["compare", "--plane", "rem"], "--plane"),
        (&["bler", "--seeds", "3"], "--seeds"),
        (&["compare", "extra"], "'extra'"),
    ] {
        assert_usage_error(args, named, &dir);
    }
    assert!(!dir.join("f.ckpt").exists(), "a rejected run wrote its checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_flags_name_the_spec_field() {
    let dir = scratch("range");
    for (args, field) in [
        (&["compare", "--route-km", "0"][..], "trajectory.route_km"),
        (&["compare", "--seeds", "0"], "run.seeds"),
        (&["compare", "--speed", "-5"], "trajectory.speed_kmh"),
        (&["train", "--clients", "0"], "train.clients"),
        (&["bler", "--blocks", "0"], "link.blocks"),
        (&["compare", "--chaos-panic", "1.5"], "run.chaos_panic_rate"),
        // The field the flag sets, with the value it gave.
        (&["fleet", "--trains", "0"], "'fleet.trains' is out of range: must be >= 1 (got 0)"),
        (
            &["faults", "--rate-scale", "-1"],
            "'faults.rate_scale' is out of range: must be finite and >= 0 (got -1)",
        ),
    ] {
        assert_usage_error(args, field, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let dir = scratch("help");
    for args in [&["fleet", "--help"][..], &["fleet", "--trains", "20", "--hash", "-h"]] {
        let out = rem(args, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "rem {args:?}: {:?}", out.status);
        assert!(stdout.contains("USAGE: rem"), "rem {args:?} printed no help:\n{stdout}");
        assert!(!stdout.lines().any(|l| l.starts_with("hash:")), "rem {args:?} ran:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_replays_the_scenario_file() {
    let dir = scratch("trace");
    std::fs::write(
        dir.join("la.toml"),
        "format = \"REMSCENARIO1\"\nname = \"la\"\n\
         [trajectory]\nspeed_kmh = 60\nroute_km = 3\n[cells]\nfamily = \"la\"\n",
    )
    .expect("write scenario");
    let file_run = rem(&["trace", "--scenario", "la.toml", "--out", "file.jsonl"], &dir);
    assert!(file_run.status.success(), "{file_run:?}");
    let flag_run = rem(
        &["trace", "--dataset", "la", "--speed", "60", "--route-km", "3", "--out", "flags.jsonl"],
        &dir,
    );
    assert!(flag_run.status.success(), "{flag_run:?}");
    let from_file = std::fs::read(dir.join("file.jsonl")).expect("read file trace");
    assert!(!from_file.is_empty());
    assert!(from_file == std::fs::read(dir.join("flags.jsonl")).expect("read flag trace"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggressive_overlays_the_scenario_net_section() {
    let dir = scratch("net");
    let metro = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/metro.toml");
    let hash = |extra: &[&str]| {
        let mut args = vec!["net", "study", "--scenario", metro, "--seeds", "1"];
        args.extend(["--window-ms", "20000", "--hash"]);
        args.extend(extra);
        let out = rem(&args, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "rem {args:?}: {:?}\n{stdout}", out.status);
        stdout.lines().find_map(|l| l.strip_prefix("hash: ")).expect("hash line").to_string()
    };
    assert_ne!(hash(&[]), hash(&["--aggressive"]), "--aggressive left metro's [net] as it was");
    let _ = std::fs::remove_dir_all(&dir);
}
