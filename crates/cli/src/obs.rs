//! CLI-side observability plumbing: the `--obs-trace` session, run
//! manifests, and the `rem obs` / `rem rerun` subcommands.
//!
//! A campaign command opens an [`ObsSession`] right after flag
//! parsing. When `--obs-trace <file>` is present the session resets
//! the metrics registry and activates the trace sink; when the
//! campaign finishes it drains the sink to `<file>` (JSONL), dumps
//! every metric to `<file>.metrics.prom` (Prometheus text format) and
//! writes the run manifest to `<file>.manifest.json`. Campaigns that
//! checkpoint also drop `<ckpt>.manifest.json` next to the checkpoint,
//! so every artifact on disk carries its own reproduction recipe:
//! `rem rerun <manifest>` replays the campaign from the manifest alone
//! and fails (exit 1) unless the recomputed `--hash` digest matches.

use crate::args::{ArgError, Args, CommonArgs};
use crate::CliError;
use rem_core::{run_study, RunPolicy, Study};
use rem_obs::RunManifest;
use std::path::{Path, PathBuf};

/// `<path>.manifest.json` — the manifest written beside an artifact.
pub fn manifest_path_for(artifact: &Path) -> PathBuf {
    PathBuf::from(format!("{}.manifest.json", artifact.display()))
}

/// One command's observability scope, created right after flag
/// parsing so the whole campaign is covered.
pub struct ObsSession {
    trace_path: Option<PathBuf>,
}

impl ObsSession {
    /// Opens the session. With `--obs-trace <file>` this clears the
    /// metrics registry and activates the trace sink (warning on
    /// stderr when the binary was built without the `obs` feature and
    /// the file would stay empty).
    pub fn begin(c: &CommonArgs) -> Self {
        let trace_path = c.obs_trace.as_deref().map(PathBuf::from);
        if trace_path.is_some() {
            rem_obs::metrics::reset();
            if !rem_obs::trace::start() {
                eprintln!(
                    "warning: --obs-trace requested but probes are compiled out \
                     (build rem-cli with the default `obs` feature); \
                     trace and metrics will be empty"
                );
            }
        }
        Self { trace_path }
    }

    /// Closes the session: drains the trace sink to the `--obs-trace`
    /// file, dumps the metrics registry beside it, and writes the run
    /// manifest next to both the trace and any checkpoint file.
    pub fn finish(
        &self,
        manifest: &RunManifest,
        checkpoint: Option<&Path>,
    ) -> Result<(), CliError> {
        let io = |path: &Path, e: std::io::Error| {
            CliError::Arg(ArgError(format!("cannot write {}: {e}", path.display())))
        };
        if let Some(trace_path) = &self.trace_path {
            let events = rem_obs::trace::finish();
            std::fs::write(trace_path, rem_obs::trace::to_jsonl(&events))
                .map_err(|e| io(trace_path, e))?;
            let prom = PathBuf::from(format!("{}.metrics.prom", trace_path.display()));
            let snap = rem_obs::metrics::snapshot();
            std::fs::write(&prom, rem_obs::metrics::render_prometheus(&snap))
                .map_err(|e| io(&prom, e))?;
            let mpath = manifest_path_for(trace_path);
            manifest.save(&mpath).map_err(|e| CliError::Arg(ArgError(e)))?;
            println!(
                "obs: {} events -> {}, {} metrics -> {}, manifest -> {}",
                events.len(),
                trace_path.display(),
                snap.counters.len() + snap.histograms.len(),
                prom.display(),
                mpath.display()
            );
        }
        if let Some(ckpt) = checkpoint {
            let mpath = manifest_path_for(ckpt);
            manifest.save(&mpath).map_err(|e| CliError::Arg(ArgError(e)))?;
            println!("manifest -> {}", mpath.display());
        }
        Ok(())
    }

    /// True when anything will be written at [`ObsSession::finish`]
    /// (used to skip hash computation when nobody consumes it).
    pub fn wants_manifest(&self, checkpoint: Option<&Path>) -> bool {
        self.trace_path.is_some() || checkpoint.is_some()
    }
}

/// `rem obs <subcommand>` — offline tooling over observability
/// artifacts. `summarize <trace.jsonl>` prints order-independent
/// per-kind event counts.
pub fn cmd_obs(mut a: Args) -> Result<(), CliError> {
    let positionals = a.positionals();
    a.finish()?;
    match positionals.as_slice() {
        [verb, file] if verb == "summarize" => {
            let body = std::fs::read_to_string(file)
                .map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
            let events = rem_obs::trace::parse_jsonl(&body).map_err(ArgError)?;
            print!("{}", rem_obs::summary::summarize(&events));
            // SIMD/DSP provenance from the sibling manifest, when the
            // trace has one (traces from older runs or bare files
            // simply don't print these lines).
            if let Ok(m) = RunManifest::load(&manifest_path_for(Path::new(file))) {
                if !m.simd_dispatch.is_empty() {
                    println!("simd dispatch: {} (cpu: {})", m.simd_dispatch, m.cpu_features);
                }
                if !m.plan_cache.is_empty() {
                    println!("plan cache: {}", m.plan_cache);
                }
            }
            Ok(())
        }
        _ => Err(ArgError("usage: rem obs summarize <trace.jsonl> (see `rem help`)".into()).into()),
    }
}

/// Rebuilds a study from a manifest's fingerprint alone, reruns it (no
/// checkpoint, no chaos) and returns its result digest.
fn replay<S: Study>(manifest: &RunManifest, policy: &RunPolicy) -> Result<String, CliError> {
    let study = S::from_fingerprint(&manifest.spec_json, policy.threads)?;
    let out = run_study(&study, policy, None, |_, _| {})?.into_result()?;
    Ok(rem_core::study::digest(&study, &out)?)
}

/// `rem rerun <manifest> [--threads N]` — replays the campaign a
/// manifest describes, from the manifest alone, and verifies the
/// recomputed result digest against the recorded one. Exit 1 on
/// mismatch: the artifact no longer reproduces.
pub fn cmd_rerun(mut a: Args) -> Result<(), CliError> {
    use rem_core::{Aggregate, BlerStudy, CampaignSpec, NetStudySpec};
    use rem_sim::TrainScenario;

    let policy = RunPolicy { threads: a.int("threads")?.unwrap_or(0), ..RunPolicy::default() };
    let positionals = a.positionals();
    a.finish()?;
    let [file] = positionals.as_slice() else {
        let usage = "usage: rem rerun <file.manifest.json> (see `rem help`)";
        return Err(ArgError(usage.into()).into());
    };
    let manifest = RunManifest::load(Path::new(file)).map_err(ArgError)?;
    println!(
        "rerunning {} campaign ({} trials) from {file}",
        manifest.kind, manifest.n_trials
    );

    let digest = match manifest.kind.as_str() {
        "compare" => replay::<CampaignSpec>(&manifest, &policy)?,
        "aggregate" => replay::<Aggregate>(&manifest, &policy)?,
        "bler" => replay::<BlerStudy>(&manifest, &policy)?,
        "train" => replay::<TrainScenario>(&manifest, &policy)?,
        "net" => replay::<NetStudySpec>(&manifest, &policy)?,
        // The fleet engine has no independent trials: it reruns its
        // sharded corridor directly.
        "fleet" => {
            use rem_core::rem_fleet::{run_fleet, FleetSpec, RunOptions};
            let spec: FleetSpec = serde_json::from_str(&manifest.spec_json).map_err(|e| {
                ArgError(format!("manifest spec_json is not a fleet fingerprint: {e}"))
            })?;
            // Shards ride the spec; threads are this invocation's
            // choice — both are identity-free by construction.
            let opts = RunOptions { shards: spec.shards, threads: policy.threads };
            let (report, _timing) = run_fleet(&spec, opts).map_err(ArgError)?;
            report.result_hash()
        }
        other => {
            return Err(ArgError(format!(
                "cannot rerun kind '{other}' (supported: compare, aggregate, bler, train, \
                 net, fleet)"
            ))
            .into())
        }
    };

    match &manifest.result_hash {
        Some(expected) if *expected == digest => {
            println!("hash: {digest}");
            println!("reproduced: recomputed hash matches the manifest");
            Ok(())
        }
        Some(expected) => {
            eprintln!("error: hash mismatch — manifest {expected}, recomputed {digest}");
            std::process::exit(1);
        }
        None => {
            println!("hash: {digest}");
            println!("manifest records no result hash; nothing to verify");
            Ok(())
        }
    }
}
