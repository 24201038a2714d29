//! `rem` — command-line front end for the REM reproduction.
//!
//! ```text
//! rem compare --dataset bs --speed 300 --route-km 40 --seeds 2
//! rem compare --scenario scenarios/hsr_beijing_shanghai.toml --hash
//! rem trace   --dataset bt --plane legacy --out trace.jsonl
//! rem audit   policies.json
//! rem bler    --model hst --speed 350 --snr 6 --blocks 200
//! rem train   --clients 8 --dataset bs --speed 300
//! rem faults  --dataset bt --plane legacy --seeds 3 --verify 2
//! rem net     study --seeds 3 --hash --json BENCH_net.json
//! rem fleet   --trains 1000 --shards 4 --hash
//! rem scenario validate scenarios/
//! ```

mod args;
mod obs;
mod serve;

use args::{configure, ArgError, Args, Cmd, CommonArgs};
use obs::ObsSession;
use rem_core::rem_faults::ChaosConfig;
use rem_core::{
    run_study, Aggregate, BlerStudy, Checked, Checkpoint, Comparison, ExperimentError, FaultConfig,
    FaultKind, Plane, RunPolicy, ScenarioSpec, Study,
};
use rem_mobility::conflict::{a3_graph_from_policies, scan_conflicts};
use rem_mobility::rem_policy::{rem_policies, SimplifyConfig};
use rem_mobility::CellPolicy;
use rem_obs::RunManifest;
use rem_sim::simulate_run;
use std::path::{Path, PathBuf};

/// Everything a command can fail with, mapped to distinct exit codes:
/// usage errors (bad flags, bad scenario files) exit 2,
/// experiment/runtime errors (I/O, corrupt checkpoints, quarantined
/// trials...) exit 1.
enum CliError {
    /// Bad flags or arguments.
    Arg(ArgError),
    /// The campaign itself failed.
    Experiment(ExperimentError),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        CliError::Experiment(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Arg(e) => write!(f, "{e}"),
            CliError::Experiment(e) => write!(f, "{e}"),
        }
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| "help".into());
    let rest: Vec<String> = argv.collect();
    if rest.iter().any(|t| t == "--help" || t == "-h") {
        print_help();
        return;
    }
    let a = Args::parse(&cmd, rest);
    let result = match cmd.as_str() {
        "compare" => cmd_compare(a),
        "trace" => cmd_trace(a),
        "audit" => cmd_audit(a),
        "bler" => cmd_bler(a),
        // `storm` is the historical name of `train`; both spellings run
        // the whole-train study.
        "train" | "storm" => cmd_train(a),
        "fleet" => cmd_fleet(a),
        "faults" => cmd_faults(a),
        "net" => cmd_net(a),
        "serve" => serve::cmd_serve(a),
        "scenario" => cmd_scenario(a),
        "obs" => obs::cmd_obs(a),
        "rerun" => obs::cmd_rerun(a),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(ArgError(format!("unknown command '{other}' (try `rem help`)")).into()),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Arg(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        // A bad scenario file is a usage error, not a campaign failure:
        // the invocation was wrong, nothing ran.
        Err(CliError::Experiment(ExperimentError::Scenario(e))) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        // SIGINT/SIGTERM drained the run at a wave boundary: the
        // checkpoint (and its manifest) are on disk. 130 is the shell
        // convention for an interrupted process.
        Err(CliError::Experiment(e @ ExperimentError::Interrupted { .. })) => {
            eprintln!("{e}");
            std::process::exit(130);
        }
        Err(CliError::Experiment(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The plumbing every study command shares, built once from its
/// validated spec and the common flags: execution policy, chaos,
/// observability session and checkpoint path. A study command runs
/// `study → run → finish`; `rem fleet`, which has no independent
/// trials, uses only the digest-and-manifest [`tail`](Driver::tail).
struct Driver {
    common: CommonArgs,
    scn: ScenarioSpec,
    policy: RunPolicy,
    chaos: Option<ChaosConfig>,
    session: ObsSession,
    ckpt: Option<PathBuf>,
}

impl Driver {
    /// Configures `cmd` from its flags (see [`configure`]); a command
    /// reads any flag of its own that is not a spec field before this.
    fn begin(cmd: Cmd, a: Args) -> Result<Self, CliError> {
        let (common, scn) = configure(cmd, a)?;
        Ok(Self {
            session: ObsSession::begin(&common),
            ckpt: common.ckpt_path(),
            policy: scn.run_policy(),
            chaos: scn.chaos(),
            common,
            scn,
        })
    }

    /// The study `lower` builds from the spec. With `--resume` it is
    /// rebuilt from the checkpoint's own fingerprint, for every kind:
    /// flags describing the study are ignored, only the execution flags
    /// apply.
    fn study<S: Study>(&self, lower: impl FnOnce(&ScenarioSpec) -> S) -> Result<S, CliError> {
        let Some(path) = &self.common.resume else { return Ok(lower(&self.scn)) };
        Ok(rem_core::study::from_checkpoint(Path::new(path), self.policy.threads)?)
    }

    /// Runs the study with the chaos hook and the checkpoint. A
    /// checkpointed run also arms graceful shutdown: SIGINT or SIGTERM
    /// stops it at the next wave with a complete, resumable checkpoint
    /// instead of killing it mid-wave.
    fn run<S: Study>(&self, study: &S) -> Result<Checked<S::Output>, CliError> {
        let mut policy = self.policy.clone();
        if self.ckpt.is_some() {
            rem_serve::signal::install();
            policy.cancel = Some(std::sync::Arc::new(rem_serve::signal::requested));
        }
        let chaos = &self.chaos;
        let hook = |i, attempt| {
            if let Some(c) = chaos {
                c.maybe_panic(i, attempt);
            }
        };
        match run_study(study, &policy, self.ckpt.as_deref(), hook) {
            Err(e @ ExperimentError::Interrupted { .. }) => {
                self.interrupted();
                Err(e.into())
            }
            other => Ok(other?),
        }
    }

    /// On an interrupted run the checkpoint is already flushed (waves
    /// persist as they complete) but the manifest is not: write it
    /// hash-less, from the checkpoint itself, and print the resume hint.
    fn interrupted(&self) {
        let Some(path) = self.ckpt.as_deref() else { return };
        if let Ok(c) = Checkpoint::load(path) {
            let _ = self.tail(&c.kind, &c.spec_json, c.n_trials, None, false, |_| {});
            eprintln!(
                "interrupted: {} of {} trials checkpointed in {}; rerun with --resume {} to finish",
                c.completed(),
                c.n_trials,
                path.display(),
                path.display()
            );
        }
    }

    /// Prints the supervision summary, then the digest-and-manifest
    /// tail; a quarantined run ends in its typed error (exit 1).
    fn finish<S: Study>(
        &self,
        study: &S,
        checked: &Checked<S::Output>,
        amend: impl FnOnce(&mut RunManifest),
    ) -> Result<(), CliError> {
        if checked.resumed_trials > 0 {
            println!("resumed {} trial(s) from checkpoint", checked.resumed_trials);
        }
        if checked.retries > 0 {
            println!("retried {} panicking attempt(s)", checked.retries);
        }
        for o in &checked.overruns {
            println!(
                "deadline overrun: trial {} took {} ms (deadline {} ms)",
                o.index, o.elapsed_ms, o.deadline_ms
            );
        }
        for q in &checked.quarantined {
            println!("quarantined: {q}");
        }
        if !checked.health.is_clean() {
            println!("numerical health: {}", checked.health);
        }
        let digest = (self.common.hash || self.session.wants_manifest(self.ckpt.as_deref()))
            .then(|| rem_core::study::digest(study, &checked.value))
            .transpose()?;
        let clean = checked.is_clean();
        self.tail(S::KIND, &study.fingerprint()?, study.n_trials(), digest, clean, amend)?;
        if !clean {
            return Err(ExperimentError::Quarantined { trials: checked.quarantined.clone() }.into());
        }
        Ok(())
    }

    /// The tail every campaign command ends with: `--hash` prints the
    /// result digest, and the manifest beside the trace or checkpoint
    /// records it. The manifest of an unclean (quarantined) run records
    /// no digest: its result holds fallback values.
    fn tail(
        &self,
        kind: &str,
        fingerprint: &str,
        n_trials: usize,
        digest: Option<String>,
        clean: bool,
        amend: impl FnOnce(&mut RunManifest),
    ) -> Result<(), CliError> {
        if let Some(d) = digest.as_ref().filter(|_| self.common.hash) {
            println!("hash: {d}");
        }
        if !self.session.wants_manifest(self.ckpt.as_deref()) {
            return Ok(());
        }
        let mut m = RunManifest::new(kind, fingerprint, n_trials);
        m.threads = self.policy.threads;
        m.max_retries = self.policy.max_retries;
        m.trial_timeout_ms = self.policy.trial_timeout_ms;
        m.checkpoint_every = self.policy.checkpoint_every;
        if let Some(c) = &self.chaos {
            m.chaos = Some(
                serde_json::to_value(c)
                    .map_err(|e| ArgError(format!("serialize chaos config: {e}")))?,
            );
        }
        m.result_hash = digest.filter(|_| clean);
        m.scenario = Some(self.scn.fingerprint());
        amend(&mut m);
        self.session.finish(&m, self.ckpt.as_deref())
    }
}

/// `--verify <n>`: reruns the study on 1 and on `n` threads (no
/// checkpoint, no chaos) and exits 1 unless the canonical results are
/// bit-identical.
fn verify<S: Study>(study: &S, n: usize) -> Result<(), CliError> {
    if n == 0 {
        return Ok(());
    }
    let json = |threads| -> Result<String, CliError> {
        let policy = RunPolicy { threads, ..RunPolicy::default() };
        let out = run_study(study, &policy, None, |_, _| {})?.into_result()?;
        Ok(study.canonical_json(&out)?)
    };
    if json(1)? != json(n)? {
        eprintln!("error: 1-thread and {n}-thread runs diverged");
        std::process::exit(1);
    }
    println!("\nverified: 1-thread and {n}-thread runs are bit-identical");
    Ok(())
}

fn print_help() {
    println!(
        "rem — Reliable Extreme Mobility management (SIGCOMM'20 reproduction)

USAGE: rem <command> [--flag value ...]
       rem <command> --help    (prints this text)

A command takes the flags listed for it below and rejects any other
(exit 2). Campaign commands (compare, bler, faults, train, net) accept
  --scenario <file>    load a declarative REMSCENARIO1 TOML scenario
                       (see scenarios/) as the base configuration; any
                       other flag on the command line overrides the
                       corresponding scenario field
and the shared execution flags
  --threads <n>        worker threads (default 0 = all cores)
  --hash               print an FNV-1a 64 digest of the full result
                       (determinism checks)
  --checkpoint <file>  save campaign state atomically as trials finish;
                       also arms graceful shutdown: SIGINT/SIGTERM
                       stops at the next wave with a complete,
                       resumable checkpoint + manifest (exit 130)
  --resume <file>      resume a killed campaign: the campaign is
                       rebuilt from the checkpoint's own fingerprint
                       (flags describing it are ignored; execution
                       flags apply), only the missing trials run, and
                       the result is bit-identical to an uninterrupted
                       run
  --checkpoint-every <n>   trials per checkpoint wave (default 16)
  --max-retries <n>        panicking-trial retries before quarantine
                           (default 1)
  --trial-timeout-ms <ms>  report trials exceeding this deadline
                           (detection only)
  --chaos-panic <rate>     inject deterministic trial panics (CI
                           crash-safety gate); --chaos-fatal makes them
                           persist past retries, --chaos-seed <n> picks
                           the victims
  --obs-trace <file>   write the observability trace (JSONL) plus
                       <file>.metrics.prom and <file>.manifest.json;
                       campaigns with --checkpoint also write
                       <ckpt>.manifest.json

COMMANDS:
  compare   Paired legacy-vs-REM replay on a synthetic dataset
              --dataset bt|bs|la|nr (default bs)
              --speed <km/h>       (default 300)
              --route-km <km>      (default 40)
              --seeds <n>          (default 2)
  trace     Export a MobileInsight-style signaling trace (JSON lines)
              --dataset/--speed/--route-km as above
              --plane legacy|rem   (default legacy)
              --seed <n>           (default 42)
              --out <file>         (default trace.jsonl)
              --scenario <file>    base config (flags override it)
  audit     Audit a JSON file of cell policies for conflicts, apply
            REM's simplification, verify Theorem 2
              <file>               JSON array of CellPolicy
  bler      Coded signaling BLER, legacy OFDM vs REM OTFS
              --model hst|eva|etu|epa  (default hst)
              --speed <km/h>           (default 350)
              --snr <dB>               (default 6)
              --blocks <n>             (default 200)
              --seed <n>               (default 1)
  train     Whole-train signaling burst statistics (alias: storm).
            Each client is an independent checkpointable trial, so the
            shared execution flags (--checkpoint/--resume/--hash/...)
            work exactly as for compare.
              --clients <n>        (default 8)
              --seed <n>           (default 7)
              --dataset/--speed/--route-km/--plane as above
  fleet     Fleet-scale sharded corridor campaign: thousands of trains
            (each a moving bundle of UE contexts) over a bidirectional
            rail corridor, sharded by geography onto the worker pool.
            Cross-shard handover intents exchange at epoch barriers in
            canonical train-id order, so the result digest is
            bit-identical for every --shards and --threads choice.
              --trains <n>         (default 64)
              --ues <n>            UE contexts per train (default 100)
              --corridor-km <km>   (default 60)
              --cell-spacing-m <m> (default 1000)
              --speed <km/h>       (default 300)
              --jitter <frac>      per-train speed jitter (default 0.1)
              --headway <s>        departure spacing per end (default 10)
              --duration <s>       simulated window (default 120)
              --epoch-ms <ms>      exchange cadence (default 100)
              --seed <n>           (default 7)
              --shards <n>         geographic shards (default 4)
              --scenario <file>    base config from the [fleet] section
              --threads/--hash/--obs-trace as for the campaign commands
  faults    Fault-injection campaign: seeded faults (Table 2 taxonomy),
            recovery statistics, and the classification oracle.
            Exits non-zero if any classified cause contradicts the
            injected ground truth.
              --dataset/--speed/--route-km/--plane as above
              --seeds <n>          (default 3)
              --rate-scale <x>     (default 1.0; scales all fault rates)
              --verify <n>         also re-run on 1 vs <n> threads and
                                   require bit-identical metrics
  net       Transport stall study (Fig 9) across the cellular link
            pathology taxonomy: bufferbloat, jitter spikes, silent NAT
            rebinds and handover outage bursts, each replayed under
            reno, frto and rem-informed recovery. Stalls are classified
            by cause and checked against the injected ground truth;
            exits non-zero on any unjustified stall or recovery.
              study                study subcommand (required)
              --seeds <n>          (default 3)
              --window-ms <ms>     transfer window (default 60000)
              --loss <p>           base loss probability (default 0.003)
              --aggressive         high-rate pathology mix
              --json <file>        write the full report (BENCH_net.json)
              --verify <n>         also re-run on 1 vs <n> threads and
                                   require bit-identical reports
              --scenario <file>    pathology mix from the [net] section
  serve     Resident campaign service: a durable job queue (REMQUEUE1
            journal under --spool), a supervised worker pool running
            each job through the checkpointed campaign machinery, and
            a small HTTP control plane. SIGINT/SIGTERM drains
            gracefully; kill -9 loses nothing — a restart requeues
            in-flight jobs and resumes them from their checkpoints
            with identical result hashes.
              --listen <addr:port>   (default 127.0.0.1:7787; port 0
                                     picks a free port, written to
                                     <spool>/serve.addr)
              --spool <dir>          durable state dir (default
                                     .rem-spool)
              --workers <n>          concurrent jobs (default 1)
              --queue-cap <n>        admission bound; beyond it POST
                                     /jobs returns 503 (default 64)
              --job-retries <n>      attempts before a job is
                                     quarantined as poison (default 2)
              --job-threads <n>      threads inside each job's campaign
                                     (default 0 = all cores)
              --checkpoint-every <n> trials per checkpoint wave
                                     (default 4)
              --job-timeout-s <s>    flag jobs with stale heartbeats
                                     (detection only; default 0 = off)
            Routes: POST /jobs (scenario TOML body), GET /jobs,
            GET /jobs/<id>, GET /healthz, GET /metrics (Prometheus).
  scenario  Tooling over scenario files (the CI scenario gate)
              validate <file-or-dir>...  parse + validate each file,
                                         print its fingerprint
              smoke <file-or-dir>...     additionally run a 1-seed
                                         paired comparison end-to-end
  obs       Offline tools over observability artifacts
              summarize <trace.jsonl>  per-kind event counts of an
                                       --obs-trace file
  rerun     Replay a campaign (compare, aggregate, bler, train, net,
            fleet) from its run manifest alone and verify the
            recomputed result digest (exit 1 on mismatch)
              <file.manifest.json>     written by --obs-trace or
                                       --checkpoint
              --threads <n>            (default 0 = all cores; results
                                       are thread-count invariant)

Monte-Carlo trials are scheduled over --threads workers but reduced
in canonical order: any thread count gives identical results."
    );
}

fn cmd_compare(a: Args) -> Result<(), CliError> {
    let d = Driver::begin(Cmd::Compare, a)?;
    let campaign = d.study(ScenarioSpec::campaign)?;
    println!(
        "{} @ {} km/h, {:.0} km x {} seeds",
        campaign.spec.name,
        campaign.spec.speed_kmh,
        campaign.spec.deployment.route_m / 1e3,
        campaign.seeds.len()
    );
    let checked = d.run(&campaign)?;
    let cmp = &checked.value;
    println!("\n{:<26} {:>10} {:>10}", "", "legacy", "REM");
    println!("{:<26} {:>10} {:>10}", "handovers", cmp.legacy.handovers.len(), cmp.rem.handovers.len());
    println!(
        "{:<26} {:>9.1}% {:>9.1}%",
        "failure ratio",
        cmp.legacy.failure_ratio() * 100.0,
        cmp.rem.failure_ratio() * 100.0
    );
    println!(
        "{:<26} {:>9.1}% {:>9.1}%",
        "failure (w/o holes)",
        cmp.legacy.failure_ratio_no_holes() * 100.0,
        cmp.rem.failure_ratio_no_holes() * 100.0
    );
    println!(
        "{:<26} {:>10} {:>10}",
        "conflict loops",
        cmp.legacy.conflict_loops().count(),
        cmp.rem.conflict_loops().count()
    );
    println!(
        "{:<26} {:>8.0}ms {:>8.0}ms",
        "mean feedback delay",
        rem_num::stats::mean(&cmp.legacy.feedback_delays_ms),
        rem_num::stats::mean(&cmp.rem.feedback_delays_ms)
    );
    println!(
        "{:<26} {:>10} {:>10}",
        "signaling messages",
        cmp.legacy.signaling.total_messages(),
        cmp.rem.signaling.total_messages()
    );
    d.finish(&campaign, &checked, |_| {})
}

fn cmd_trace(mut a: Args) -> Result<(), CliError> {
    let seed = a.int("seed")?.unwrap_or(42);
    let out = a.str("out")?.unwrap_or_else(|| "trace.jsonl".into());
    let (_, s) = configure(Cmd::Trace, a)?;
    let mut cfg = s.run_config(s.single_plane().unwrap_or(Plane::Legacy), seed);
    cfg.record_trace = true;
    let m = simulate_run(&cfg);
    std::fs::write(&out, m.trace.to_jsonl())
        .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {} events to {out} ({} reports, {} commands, {} RLFs)",
        m.trace.len(),
        m.trace.count("MEAS_REPORT"),
        m.trace.count("HO_COMMAND"),
        m.trace.count("RLF"),
    );
    Ok(())
}

fn cmd_audit(mut a: Args) -> Result<(), CliError> {
    let positionals = a.positionals();
    a.finish()?;
    let [file] = positionals.as_slice() else {
        return Err(ArgError("usage: rem audit <policies.json> (see `rem help`)".into()).into());
    };
    let body = std::fs::read_to_string(file)
        .map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
    let policies: Vec<CellPolicy> = serde_json::from_str(&body)
        .map_err(|e| ArgError(format!("bad policy JSON: {e}")))?;

    println!("loaded {} policies from {file}", policies.len());
    let conflicts = scan_conflicts(&policies, |_, _| true);
    for c in &conflicts {
        println!(
            "  conflict {:?} <-> {:?}: {} ({})",
            c.a,
            c.b,
            c.kinds,
            if c.intra_frequency { "intra-frequency" } else { "inter-frequency" }
        );
    }
    let g = a3_graph_from_policies(&policies);
    println!("Theorem 2 holds: {}", g.theorem2_holds());
    println!("persistent loop possible: {}", g.has_persistent_loop());
    for cycle in g.find_conflict_cycles(4) {
        println!("  negative cycle: {cycle:?}");
    }

    let fixed = rem_policies(&policies, &SimplifyConfig::default());
    let g2 = a3_graph_from_policies(&fixed);
    println!(
        "after REM simplification: conflicts {}, Theorem 2 {}, loops {}",
        scan_conflicts(&fixed, |_, _| true).len(),
        g2.theorem2_holds(),
        g2.has_persistent_loop()
    );
    Ok(())
}

fn cmd_bler(a: Args) -> Result<(), CliError> {
    use rem_phy::link::Waveform;

    let d = Driver::begin(Cmd::Bler, a)?;
    // Same seed for both waveforms: trial i sees the identical channel
    // and payload under each, so the comparison is paired.
    let study = d.study(|s| BlerStudy {
        ofdm: s.bler_scenario(Waveform::Ofdm),
        otfs: s.bler_scenario(Waveform::Otfs),
    })?;
    let checked = d.run(&study)?;
    let (ofdm, otfs) = &checked.value;
    let bler = |outs: &[Option<rem_phy::BlockOutcome>]| {
        let done = outs.iter().flatten().count();
        outs.iter().flatten().filter(|o| !o.crc_ok).count() as f64 / done.max(1) as f64
    };
    println!(
        "{:?} @ {:.0} km/h, SNR {} dB, {} blocks:",
        study.ofdm.model,
        rem_channel::doppler::ms_to_kmh(study.ofdm.speed_ms),
        study.ofdm.snr_db,
        study.ofdm.blocks
    );
    println!("  legacy OFDM BLER: {:.3}", bler(ofdm));
    println!("  REM OTFS BLER:    {:.3}", bler(otfs));
    d.finish(&study, &checked, |_| {})
}

fn cmd_faults(mut a: Args) -> Result<(), CliError> {
    use rem_mobility::FailureCause;

    let verify_threads = a.int("verify")?.unwrap_or(0);
    let d = Driver::begin(Cmd::Faults, a)?;
    let study = d.study(|s| {
        // A fault campaign always injects: a spec without a `[faults]`
        // section runs the stock schedule.
        let mut campaign = s.campaign();
        campaign.faults.get_or_insert_with(FaultConfig::default);
        Aggregate { campaign, plane: s.single_plane().unwrap_or(Plane::Legacy) }
    })?;
    let c = &study.campaign;
    println!(
        "{} @ {} km/h, {:?} plane, {} seeds, fault injection on",
        c.spec.name,
        c.spec.speed_kmh,
        study.plane,
        c.seeds.len()
    );
    let checked = d.run(&study)?;
    let m = &checked.value;

    println!("\ninjected faults:");
    for kind in FaultKind::all() {
        let n = m.injected.iter().filter(|f| f.kind == kind).count();
        println!("  {:<14} {:>4}", kind.label(), n);
    }
    println!("\nfailures {} / handovers {}:", m.failures.len(), m.handovers.len());
    for cause in [
        FailureCause::FeedbackDelayLoss,
        FailureCause::MissedCell,
        FailureCause::CommandLoss,
        FailureCause::CoverageHole,
    ] {
        let n = m.failures.iter().filter(|f| f.cause == cause).count();
        println!("  {cause:<18?} {n:>4}");
    }
    println!("\nrecovery:");
    println!("  re-establishment attempts {:>4}", m.reestablish_attempts);
    println!("  REM fallback epochs       {:>4}", m.rem_fallback_epochs);
    println!("  X2 backhaul messages      {:>4}", m.signaling.x2_messages);

    let mismatches = m.oracle_mismatches();
    println!(
        "\noracle: {} attributed failures, {} mismatched",
        m.fault_oracle.len(),
        mismatches.len()
    );
    for p in &mismatches {
        println!(
            "  t={:.0}ms {}: truth {:?}, classified {:?}",
            p.t_ms,
            p.kind.label(),
            p.truth,
            p.classified
        );
    }
    verify(&study, verify_threads)?;
    d.finish(&study, &checked, |_| {})?;
    if !mismatches.is_empty() {
        eprintln!("error: fault oracle found misclassified failures");
        std::process::exit(1);
    }
    Ok(())
}

/// `rem net study` — the Fig-9-style transport stall study: every
/// recovery policy (reno, frto, rem-informed) replays every pathology
/// scenario of the cellular-link fault taxonomy over the same
/// handover-outage baseline; stalls are classified by cause, bucketed
/// into duration histograms, and checked against the injected ground
/// truth. Runs under the same crash-safety machinery as the other
/// campaigns, so `--checkpoint`/`--resume`/`--hash`/chaos behave
/// exactly like `rem compare`.
fn cmd_net(mut a: Args) -> Result<(), CliError> {
    use rem_core::rem_faults::NetFaultKind;
    use rem_core::NetPolicy;

    if a.positionals() != ["study"] {
        return Err(ArgError(
            "usage: rem net study [--scenario <file>] [--aggressive] [--seeds <n>] \
             [--window-ms <ms>] [--loss <p>] [--json <file>] [--verify <n>] \
             (see `rem help`)"
                .to_string(),
        )
        .into());
    }
    let json = a.str("json")?;
    let verify_threads = a.int("verify")?.unwrap_or(0);
    let d = Driver::begin(Cmd::Net, a)?;
    // The net flags always fill the spec's `[net]` section.
    let spec = d.study(|s| s.net_study_spec().unwrap_or_default())?;

    println!(
        "net stall study: {} policies x {} pathologies x {} seeds, {:.0} s window",
        NetPolicy::all().len(),
        NetFaultKind::all().len(),
        spec.seeds.len(),
        spec.window_ms / 1e3,
    );
    let checked = d.run(&spec)?;
    let report = &checked.value;

    println!(
        "\n{:<13} {:<16} {:>10} {:>7} {:>12} {:>7}",
        "policy", "pathology", "stall ms", "stalls", "acked bytes", "oracle"
    );
    for c in &report.cells {
        println!(
            "{:<13} {:<16} {:>10.0} {:>7} {:>12} {:>7}",
            c.policy.label(),
            c.pathology.label(),
            c.total_stall_ms,
            c.stalls,
            c.total_acked_bytes,
            if c.oracle_mismatches == 0 { "ok".to_string() } else { c.oracle_mismatches.to_string() },
        );
    }

    println!("\nstall duration histogram (count per bucket):");
    println!(
        "{:<13} {:<16} {:>6} {:>6} {:>6} {:>7} {:>6}",
        "policy", "pathology", "1-2s", "2-4s", "4-8s", "8-16s", "16s+"
    );
    for c in &report.cells {
        let h = &c.histogram;
        println!(
            "{:<13} {:<16} {:>6} {:>6} {:>6} {:>7} {:>6}",
            c.policy.label(),
            c.pathology.label(),
            h[0],
            h[1],
            h[2],
            h[3],
            h[4]
        );
    }

    println!("\nrecovery machinery (summed over pathologies):");
    for p in NetPolicy::all() {
        let cells: Vec<_> =
            report.cells.iter().filter(|c| c.policy == p).collect();
        println!(
            "  {:<13} spurious RTO {}/{} undone, {} reconnects, {:.0} ms frozen",
            p.label(),
            cells.iter().map(|c| c.spurious_rto_undone).sum::<u64>(),
            cells.iter().map(|c| c.spurious_rto_detected).sum::<u64>(),
            cells.iter().map(|c| c.reconnects).sum::<u64>(),
            cells.iter().map(|c| c.frozen_ms).sum::<f64>(),
        );
    }

    let wins = report.stall_wins(NetPolicy::RemInformed, NetPolicy::Reno);
    println!(
        "\nrem-informed stalls less than reno on {}/{} pathologies ({})",
        wins.len(),
        NetFaultKind::all().len(),
        wins.iter().map(|k| k.label()).collect::<Vec<_>>().join(", "),
    );
    verify(&spec, verify_threads)?;
    if let Some(path) = json {
        std::fs::write(&path, report.to_json_pretty(&spec))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    d.finish(&spec, &checked, |m| {
        m.net = serde_json::from_str(&format!(
            "{{\"policies\": {}, \"pathologies\": {}, \"stall_gap_ms\": {}, \
             \"oracle_slack_ms\": {}, \"window_ms\": {}}}",
            NetPolicy::all().len(),
            NetFaultKind::all().len(),
            rem_core::NET_STALL_GAP_MS,
            rem_core::NET_ORACLE_SLACK_MS,
            spec.window_ms,
        ))
        .ok();
    })?;
    if report.oracle_mismatches() > 0 {
        eprintln!("error: stall oracle found unjustified stalls or recoveries");
        std::process::exit(1);
    }
    Ok(())
}

/// `rem train` (historically `rem storm`) — the whole-train
/// signaling-burst study over [`TrainScenario`](rem_sim::TrainScenario),
/// under the same crash-safety machinery as the other campaigns: each
/// client is an independent checkpointable trial, so
/// `--checkpoint`/`--resume`, `--hash`, chaos injection and graceful
/// SIGINT/SIGTERM shutdown all behave exactly like `rem compare`.
fn cmd_train(a: Args) -> Result<(), CliError> {
    let d = Driver::begin(Cmd::Train, a)?;
    let train = d.study(ScenarioSpec::train_scenario)?;
    let checked = d.run(&train)?;
    let t = &checked.value;
    println!(
        "{} clients, {} messages total: mean {:.1} msg/s, peak {:.1} msg/s over {:.0} ms windows",
        t.n_clients, t.total_messages, t.mean_rate_per_s, t.peak_rate_per_s, t.window_ms
    );
    println!("handovers {} / failures {}", t.handovers, t.failures);
    println!("scenario: {}", d.scn.fingerprint());
    d.finish(&train, &checked, |_| {})
}

/// `rem fleet` — the fleet-scale sharded corridor campaign: thousands
/// of trains with per-UE signaling state over a geographically sharded
/// corridor, bit-identical for every `--shards`/`--threads` choice.
/// Base configuration comes from the `[fleet]` scenario section when
/// `--scenario` is given; explicit flags win over the file.
fn cmd_fleet(a: Args) -> Result<(), CliError> {
    use rem_core::rem_fleet::{run_fleet, RunOptions};

    // Chaos injection rides the trial runner, which the fleet engine
    // does not use: record none.
    let d = Driver { chaos: None, ..Driver::begin(Cmd::Fleet, a)? };
    let spec = d.scn.fleet_spec().unwrap_or_default();
    let threads = d.policy.threads;
    let opts = RunOptions { shards: spec.shards, threads };
    // Unreachable: the spec's validate() checked the fleet section.
    let (report, timing) = run_fleet(&spec, opts).map_err(ArgError)?;

    println!(
        "{} trains / {} UEs over {} cells ({} km corridor), {} epochs of {} ms",
        report.trains, report.ues, report.cells, spec.corridor_km, report.epochs, spec.epoch_ms
    );
    println!(
        "handovers {} (denied {}), rlfs {}, ue events {} (ue failures {})",
        report.handovers, report.denied, report.rlfs, report.ue_events, report.ue_failures
    );
    let sim_s = report.sim_window_ms as f64 / 1_000.0;
    println!(
        "wall {:.3} s ({:.0}x realtime), critical path {:.3} s, exchange {:.3} s, \
         {} shards x {} threads",
        timing.wall_s,
        sim_s / timing.wall_s.max(1e-9),
        timing.critical_path_s,
        timing.exchange_s,
        spec.shards,
        threads
    );
    println!("scenario: {}", d.scn.fingerprint());
    let timing = serde_json::to_value(&timing)
        .map_err(|e| ArgError(format!("serialize fleet timing: {e}")))?;
    let digest = Some(report.result_hash());
    d.tail("fleet", &spec.fingerprint(), spec.trains as usize, digest, true, |m| {
        m.fleet = Some(timing)
    })
}

/// Expands `rem scenario` positionals into concrete files: a directory
/// contributes every `*.toml` inside it, sorted by name.
fn scenario_files(paths: &[String]) -> Result<Vec<PathBuf>, CliError> {
    let mut files = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| ArgError(format!("cannot read {}: {e}", path.display())))?
                .filter_map(|entry| entry.ok().map(|entry| entry.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    if files.is_empty() {
        return Err(ArgError("no scenario files given (expected files or directories)".into())
            .into());
    }
    Ok(files)
}

/// `rem scenario validate|smoke <file-or-dir>...` — the CI gate over
/// the `scenarios/` directory. `validate` loads and fully validates
/// each file; `smoke` additionally replays a 1-seed paired comparison
/// so every shipped scenario is known to run end-to-end.
fn cmd_scenario(mut a: Args) -> Result<(), CliError> {
    let usage = || {
        CliError::Arg(ArgError(
            "usage: rem scenario validate|smoke <file-or-dir>... (see `rem help`)".to_string(),
        ))
    };
    let positionals = a.positionals();
    a.finish()?;
    let (verb, rest) = positionals.split_first().ok_or_else(usage)?;
    let smoke = match verb.as_str() {
        "validate" => false,
        "smoke" => true,
        _ => return Err(usage()),
    };
    let files = scenario_files(rest)?;

    let mut failed = 0usize;
    for file in &files {
        match ScenarioSpec::load(file) {
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                failed += 1;
            }
            Ok(spec) => {
                println!("ok: {} ({})", file.display(), spec.fingerprint());
                if smoke {
                    let mut campaign = spec.campaign();
                    campaign.seeds.truncate(1);
                    let cmp = Comparison::run(&campaign);
                    println!(
                        "   1-seed smoke: legacy {:.1}% -> REM {:.1}% failures, \
                         {} + {} handovers",
                        cmp.legacy.failure_ratio() * 100.0,
                        cmp.rem.failure_ratio() * 100.0,
                        cmp.legacy.handovers.len(),
                        cmp.rem.handovers.len()
                    );
                }
            }
        }
    }
    if failed > 0 {
        return Err(ArgError(format!(
            "{failed} of {} scenario file(s) failed validation",
            files.len()
        ))
        .into());
    }
    Ok(())
}
