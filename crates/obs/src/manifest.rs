//! Reproducible run manifests.
//!
//! A [`RunManifest`] is written next to every checkpoint and bench
//! artifact. It captures everything needed to reproduce the run's
//! `--hash` from scratch — the campaign fingerprint (the same
//! `spec_json` the checkpoint stores), seed/trial counts, thread
//! count, retry/chaos policy, the SIMD tier and the git
//! SHA — plus the result hash itself, so `rem rerun <manifest>` can
//! replay the campaign and gate on hash equality (the CI
//! manifest-gate does exactly this).
//!
//! Provenance fields (`git_sha`, `threads`, timings) are recorded for
//! the reader; only `kind` + `spec_json` determine the recomputed
//! values, which is why a manifest replayed at a different thread
//! count still reproduces the identical hash.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Format tag of the manifest JSON (`format` field).
pub const MANIFEST_FORMAT: &str = "REMMANIFEST1";

/// Everything needed to reproduce (and attribute) one campaign or
/// bench run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Always [`MANIFEST_FORMAT`]; loading refuses anything else.
    pub format: String,
    /// Campaign kind (`"compare"`, `"bler"`, `"aggregate"`,
    /// `"bench:dsp_json"`, ...) — the same tag checkpoints carry.
    pub kind: String,
    /// Canonical campaign fingerprint: the JSON the checkpoint layer
    /// uses (dataset/scenarios, seeds, faults; thread count excluded).
    pub spec_json: String,
    /// Total trials in the campaign.
    pub n_trials: usize,
    /// Worker threads the run used (`0` = all cores). Provenance only:
    /// results are thread-count invariant.
    #[serde(default)]
    pub threads: usize,
    /// Panicking-trial retry budget the run used.
    #[serde(default)]
    pub max_retries: u32,
    /// Per-trial deadline, if one was set (detection only).
    #[serde(default)]
    pub trial_timeout_ms: Option<u64>,
    /// Checkpoint cadence in trials.
    #[serde(default)]
    pub checkpoint_every: usize,
    /// Chaos-injection config, if any (provenance: injected panics are
    /// retried to the unfaulted value and never move the hash).
    #[serde(default)]
    pub chaos: Option<serde_json::Value>,
    /// Active SIMD dispatch tier of the DSP kernels (`"scalar"`,
    /// `"avx2"`, `"neon"`). Provenance only: every tier is bit-exact
    /// against the scalar reference, so the hash never depends on it.
    #[serde(default)]
    pub simd_dispatch: String,
    /// Vector features the CPU exposed at run time (e.g.
    /// `"avx2,fma,sse4.2"`), independent of the dispatch override.
    #[serde(default)]
    pub cpu_features: String,
    /// `git rev-parse HEAD` at run time, when available.
    #[serde(default)]
    pub git_sha: Option<String>,
    /// Whether observability probes were compiled into the binary that
    /// produced this manifest.
    #[serde(default)]
    pub obs_enabled: bool,
    /// The run's FNV-1a 64 result digest (`"fnv1a64:<16 hex>"`), when
    /// the run computes one. `rem rerun` recomputes and compares.
    #[serde(default)]
    pub result_hash: Option<String>,
    /// Fingerprint (`"<name>:fnv1a64:<16 hex>"`) of the scenario spec a
    /// `rem` study command ran: its `--scenario` file, or else the
    /// command's base spec, with the command's flags laid over it.
    /// Provenance only: the campaign identity stays in `spec_json`,
    /// which is why `rem rerun` replays scenario runs without the
    /// scenario file present.
    #[serde(default)]
    pub scenario: Option<String>,
    /// Net stall-study summary (study dimensions, stall gap, oracle
    /// slack) when the run was a `rem net` study. Provenance only: the
    /// study identity stays in `spec_json`, so `rem rerun` replays the
    /// stall study hash-identically from that alone.
    #[serde(default)]
    pub net: Option<serde_json::Value>,
    /// Fleet campaign execution record (shard and thread counts the
    /// run actually used) when the run was a `rem fleet` campaign.
    /// Provenance only: results are bit-identical for every shard and
    /// thread count, so `rem rerun` is free to pick its own.
    #[serde(default)]
    pub fleet: Option<serde_json::Value>,
}

impl RunManifest {
    /// A manifest for a campaign of `n_trials` over fingerprint
    /// `spec_json`, with environment provenance (SIMD tier, git SHA,
    /// probe availability) captured from the current process.
    pub fn new(kind: &str, spec_json: &str, n_trials: usize) -> Self {
        Self {
            format: MANIFEST_FORMAT.to_string(),
            kind: kind.to_string(),
            spec_json: spec_json.to_string(),
            n_trials,
            threads: 0,
            max_retries: 0,
            trial_timeout_ms: None,
            checkpoint_every: 0,
            chaos: None,
            simd_dispatch: rem_num::simd::active_tier().name().to_string(),
            cpu_features: rem_num::simd::cpu_features(),
            git_sha: git_sha(),
            obs_enabled: crate::compiled_in(),
            result_hash: None,
            scenario: None,
            net: None,
            fleet: None,
        }
    }

    /// Sets the result digest (`"fnv1a64:<16 hex>"`).
    pub fn with_result_hash(mut self, hash: String) -> Self {
        self.result_hash = Some(hash);
        self
    }

    /// Atomically writes the manifest as pretty JSON (`<path>.tmp`,
    /// fsync, rename) so a crashed run never leaves a truncated one.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let body = serde_json::to_string_pretty(self)
            .map_err(|e| format!("serialize manifest: {e}"))?;
        let tmp = path.with_extension("manifest.tmp");
        let io = |e: std::io::Error| format!("{}: {e}", tmp.display());
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(body.as_bytes()).map_err(io)?;
        f.write_all(b"\n").map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads and validates a manifest written by [`RunManifest::save`].
    pub fn load(path: &Path) -> Result<Self, String> {
        let body =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let m: RunManifest = serde_json::from_str(&body)
            .map_err(|e| format!("{}: not a manifest: {e}", path.display()))?;
        if m.format != MANIFEST_FORMAT {
            return Err(format!(
                "{}: format '{}' is not {MANIFEST_FORMAT}",
                path.display(),
                m.format
            ));
        }
        Ok(m)
    }
}

/// The commit SHA of the working tree, if `git` is available (runs
/// `git rev-parse HEAD`; any failure degrades to `None` — manifests
/// are provenance, never a hard dependency on a VCS).
pub fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!sha.is_empty()).then_some(sha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rem-obs-manifest-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn save_load_roundtrip_preserves_the_fingerprint_verbatim() {
        let path = tmp("roundtrip.manifest.json");
        let spec = r#"[{"name":"beijing-taiyuan"},[1,2,3],null]"#;
        let mut m = RunManifest::new("compare", spec, 6)
            .with_result_hash("fnv1a64:00ff00ff00ff00ff".to_string());
        m.threads = 4;
        m.max_retries = 2;
        m.chaos = Some(serde_json::json!({"seed": 7, "panic_rate": 0.5}));
        m.save(&path).expect("save");
        let back = RunManifest::load(&path).expect("load");
        assert_eq!(back, m);
        assert_eq!(back.spec_json, spec, "fingerprint must survive byte-for-byte");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_refuses_other_formats() {
        let path = tmp("badformat.manifest.json");
        let mut m = RunManifest::new("bler", "{}", 2);
        m.format = "SOMETHINGELSE".to_string();
        let body = serde_json::to_string(&m).expect("serialize");
        std::fs::write(&path, body).expect("write");
        let err = RunManifest::load(&path).expect_err("must refuse");
        assert!(err.contains("REMMANIFEST1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_reports_unparseable_files() {
        let path = tmp("garbage.manifest.json");
        std::fs::write(&path, "not json at all").expect("write");
        assert!(RunManifest::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sparse_manifests_deserialize_with_defaults() {
        // Forward compatibility: a minimal manifest (format, kind,
        // spec_json, n_trials) loads with every provenance field
        // defaulted.
        let body = r#"{"format":"REMMANIFEST1","kind":"bler","spec_json":"{}","n_trials":4}"#;
        let m: RunManifest = serde_json::from_str(body).expect("parse");
        assert_eq!(m.threads, 0);
        assert!(m.result_hash.is_none());
        assert!(m.chaos.is_none());
        assert!(m.scenario.is_none());
        assert!(m.net.is_none());
    }

    #[test]
    fn new_captures_environment_provenance() {
        let m = RunManifest::new("compare", "{}", 2);
        assert_eq!(m.format, MANIFEST_FORMAT);
        assert_eq!(m.obs_enabled, crate::compiled_in());
        // SIMD provenance: the active tier name and the CPU feature
        // list are always captured (both non-empty on every platform).
        assert_eq!(m.simd_dispatch, rem_num::simd::active_tier().name());
        assert!(!m.cpu_features.is_empty());
    }

    #[test]
    fn manifests_without_simd_provenance_still_load() {
        let body = r#"{"format":"REMMANIFEST1","kind":"bler","spec_json":"{}","n_trials":4}"#;
        let m: RunManifest = serde_json::from_str(body).expect("parse");
        assert_eq!(m.simd_dispatch, "");
        assert_eq!(m.cpu_features, "");
    }

    #[test]
    fn manifests_with_the_retired_plan_cache_field_still_load() {
        // Manifests written while the FFT plan cache had an off switch
        // record its mode; the field is ignored now.
        let body = r#"{"format":"REMMANIFEST1","kind":"compare","spec_json":"{}","n_trials":4,"plan_cache":"off","result_hash":"fnv1a64:0123456789abcdef"}"#;
        let m: RunManifest = serde_json::from_str(body).expect("parse");
        assert_eq!(m.kind, "compare");
        assert_eq!(m.result_hash.as_deref(), Some("fnv1a64:0123456789abcdef"));
    }
}
