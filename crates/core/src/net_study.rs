//! The Fig-9-style transport stall study (`rem net study`).
//!
//! Fig 9's headline is that recovery machinery — not raw link quality —
//! decides how long a stall outlives the radio event that caused it.
//! This study quantifies that across the cellular-path fault taxonomy:
//! each trial replays one bulk transfer over a link carrying the
//! extreme-mobility baseline (handover-aligned outage bursts from a
//! [`NetFaultPlan`]) plus one injected pathology, under one recovery
//! policy. Stalls are classified by cause, bucketed into duration
//! histograms, and every scored stall and recovery action is checked
//! against the plan's ground truth — a study whose classifier
//! hallucinates causes fails its oracle gate.
//!
//! The policy ladder:
//!
//! * [`NetPolicy::Reno`] — loss-based vanilla recovery
//!   ([`ResilienceConfig::vanilla`]); spurious timeouts collapse cwnd,
//!   NAT rebinds zombie the flow forever.
//! * [`NetPolicy::Frto`] — F-RTO spurious-timeout undo plus
//!   zombie-connection reconnect ([`ResilienceConfig::frto`]).
//! * [`NetPolicy::RemInformed`] — F-RTO plus a REM forecast built from
//!   the plan's own outage schedule (the REM plane *predicts* the
//!   handovers it schedules), freezing cwnd and suppressing RTO backoff
//!   across predicted outages ([`ResilienceConfig::rem_informed`]).
//!
//! Trials are pure functions of `(spec, index)` and [`NetStudySpec`]
//! is a [`Study`], so the study checkpoints, resumes, and hashes
//! bit-identically at any worker thread count.

use crate::checkpoint::RunPolicy;
use crate::error::ExperimentError;
use crate::study::{run_study, Checked, Study};
use rem_faults::{NetFaultConfig, NetFaultKind, NetFaultPlan};
use rem_net::tcp::{simulate_transfer_resilient, LinkModel, TcpConfig};
use rem_net::{
    classify_stalls, CauseBreakdown, ForecastWindow, NetStats, RemForecast, ResilienceConfig,
    StallCause,
};
use rem_num::rng::child_rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Stall-gap threshold of the study (ms): an ack gap longer than this
/// counts as a stall (the Fig 9 convention).
pub const NET_STALL_GAP_MS: f64 = 1_000.0;

/// Attribution slack of the oracle gate (ms): a stall or recovery may
/// trail the fault that caused it by up to this much (RTO ladders and
/// queue drains lag the event).
pub const NET_ORACLE_SLACK_MS: f64 = 2_000.0;

/// Histogram bucket edges (s): stalls land in `[1,2) [2,4) [4,8)
/// [8,16) [16,∞)`.
pub const NET_HIST_EDGES_S: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// One recovery policy of the study ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetPolicy {
    /// Vanilla loss-based Reno recovery.
    Reno,
    /// F-RTO spurious-timeout undo + zombie reconnect.
    Frto,
    /// F-RTO plus REM-forecast cwnd freezing across predicted outages.
    RemInformed,
}

impl NetPolicy {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            NetPolicy::Reno => "reno",
            NetPolicy::Frto => "frto",
            NetPolicy::RemInformed => "rem-informed",
        }
    }

    /// All policies, ladder order.
    pub fn all() -> [NetPolicy; 3] {
        [NetPolicy::Reno, NetPolicy::Frto, NetPolicy::RemInformed]
    }
}

/// The study specification: pathology rates, seeds, transfer window.
/// Serialized verbatim into the checkpoint/manifest fingerprint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetStudySpec {
    /// Pathology rates and shapes. The handover-outage rate is the
    /// extreme-mobility baseline and stays active in every scenario;
    /// each scenario adds exactly one of the other pathologies.
    pub faults: NetFaultConfig,
    /// Seeds; each (policy × pathology) cell replays every seed.
    pub seeds: Vec<u64>,
    /// Transfer window per trial (ms).
    pub window_ms: f64,
    /// Base random-loss probability of the link.
    pub loss_prob: f64,
}

impl Default for NetStudySpec {
    fn default() -> Self {
        Self {
            faults: NetFaultConfig::default(),
            seeds: vec![1, 2, 3],
            window_ms: 60_000.0,
            loss_prob: 0.003,
        }
    }
}

impl NetStudySpec {
    /// Validates rates, seeds and shapes.
    pub fn validate(&self) -> Result<(), String> {
        if self.seeds.is_empty() {
            return Err("seeds must list at least one seed".into());
        }
        match self.invalid_field() {
            Some((field, value, reason)) => Err(format!("{field} {reason}, got {value}")),
            None => Ok(()),
        }
    }

    /// The first out-of-domain numeric field, as `(field, value,
    /// reason)`: a pathology rate or shape (named as in
    /// [`NetFaultConfig::invalid_field`]), `window_ms` or `loss_prob`.
    /// The one rule for each, shared by [`validate`](Self::validate) and
    /// the scenario's `[net]` section.
    pub fn invalid_field(&self) -> Option<(&'static str, f64, &'static str)> {
        if let Some(bad) = self.faults.invalid_field() {
            return Some(bad);
        }
        if !(self.window_ms.is_finite() && self.window_ms > 0.0) {
            return Some(("window_ms", self.window_ms, "must be finite and > 0"));
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Some(("loss_prob", self.loss_prob, "must be a probability in [0, 1]"));
        }
        None
    }

    /// Canonical JSON of the spec: the checkpoint / manifest / rerun
    /// fingerprint. Hand-rolled with a fixed field order and
    /// shortest-round-trip floats so the fingerprint does not depend
    /// on a JSON library's formatting choices; `serde_json::from_str`
    /// parses it back when `rem rerun` replays a manifest.
    pub fn to_canonical_json(&self) -> String {
        let f = &self.faults;
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        format!(
            "{{\"faults\":{{\"bloat_per_min\":{},\"bloat_ms\":{},\
             \"bloat_drain_pkts_per_ms\":{},\"bloat_queue_pkts\":{},\
             \"bloat_standing_pkts\":{},\"jitter_per_min\":{},\"jitter_ms\":{},\
             \"jitter_spike_ms\":{},\"rebind_per_min\":{},\"outage_per_min\":{},\
             \"outage_ms\":{}}},\"seeds\":[{}],\"window_ms\":{},\"loss_prob\":{}}}",
            f.bloat_per_min,
            f.bloat_ms,
            f.bloat_drain_pkts_per_ms,
            f.bloat_queue_pkts,
            f.bloat_standing_pkts,
            f.jitter_per_min,
            f.jitter_ms,
            f.jitter_spike_ms,
            f.rebind_per_min,
            f.outage_per_min,
            f.outage_ms,
            seeds.join(","),
            self.window_ms,
            self.loss_prob,
        )
    }

    /// The fault configuration of one pathology scenario: the
    /// handover-outage baseline plus `kind` alone (every other
    /// pathology rate zeroed). The per-kind RNG streams make the
    /// shared baseline schedule identical across scenarios, so cells
    /// are paired on their outages.
    pub fn pathology_config(&self, kind: NetFaultKind) -> NetFaultConfig {
        let mut c = self.faults.clone();
        if kind != NetFaultKind::Bufferbloat {
            c.bloat_per_min = 0.0;
        }
        if kind != NetFaultKind::JitterSpike {
            c.jitter_per_min = 0.0;
        }
        if kind != NetFaultKind::NatRebind {
            c.rebind_per_min = 0.0;
        }
        c
    }

    /// Trial `index` → `(policy, pathology, seed)`, policy-major so a
    /// resumed checkpoint finishes whole policy blocks first.
    pub fn trial_coords(&self, index: usize) -> (NetPolicy, NetFaultKind, u64) {
        let n_seeds = self.seeds.len();
        let n_path = NetFaultKind::all().len();
        let policy = NetPolicy::all()[index / (n_path * n_seeds)];
        let pathology = NetFaultKind::all()[(index / n_seeds) % n_path];
        let seed = self.seeds[index % n_seeds];
        (policy, pathology, seed)
    }
}

/// One trial's outcome: a classified, oracle-checked transfer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetTrialResult {
    /// Recovery policy replayed.
    pub policy: NetPolicy,
    /// Injected pathology (on top of the outage baseline).
    pub pathology: NetFaultKind,
    /// Trial seed.
    pub seed: u64,
    /// Total stalled time at the Fig 9 gap threshold (ms).
    pub total_stall_ms: f64,
    /// Number of stalls.
    pub stalls: u64,
    /// Goodput: cumulatively acked bytes.
    pub total_acked_bytes: u64,
    /// Stalled time attributed to each cause (ms).
    pub breakdown: CauseBreakdown,
    /// Stall-duration histogram over [`NET_HIST_EDGES_S`].
    pub histogram: [u64; 5],
    /// Resilience counters and recovery events of the trace.
    pub net: NetStats,
    /// Oracle violations: scored stalls/recoveries with no
    /// ground-truth fault to justify them. Zero on a correct study.
    pub oracle_mismatches: u64,
}

/// Runs one trial: generate the plan, stamp the link, replay under the
/// policy, classify, oracle-check. Pure function of its arguments.
pub fn run_net_trial(
    spec: &NetStudySpec,
    policy: NetPolicy,
    pathology: NetFaultKind,
    seed: u64,
) -> NetTrialResult {
    let cfg = spec.pathology_config(pathology);
    let plan = NetFaultPlan::generate(&cfg, seed, 0, spec.window_ms);
    let mut link = LinkModel {
        loss_prob: spec.loss_prob,
        pathology_seed: seed,
        ..LinkModel::default()
    };
    plan.apply(&cfg, &mut link);

    let res = match policy {
        NetPolicy::Reno => ResilienceConfig::vanilla(),
        NetPolicy::Frto => ResilienceConfig::frto(),
        NetPolicy::RemInformed => {
            // The REM plane forecasts the outages its own mobility plan
            // schedules: every ground-truth outage window, issued at
            // t=0 and fresh for the whole transfer.
            let windows = plan
                .events()
                .iter()
                .filter(|e| e.kind == NetFaultKind::HandoverOutage)
                .map(|e| ForecastWindow { start_ms: e.start_ms, end_ms: e.end_ms })
                .collect();
            ResilienceConfig::rem_informed(RemForecast {
                windows,
                issued_at_ms: 0.0,
                freshness_ms: spec.window_ms,
            })
        }
    };

    let mut rng = child_rng(seed, &format!("net/replay/{}", pathology.label()));
    let trace = simulate_transfer_resilient(
        &TcpConfig::default(),
        &res,
        &link,
        spec.window_ms,
        &mut rng,
    );
    let classified = classify_stalls(&trace, &link, NET_STALL_GAP_MS);

    let mut breakdown = CauseBreakdown::default();
    let mut histogram = [0u64; 5];
    for s in &classified {
        breakdown.merge(&s.breakdown);
        let secs = s.duration_ms() / 1e3;
        let bucket = NET_HIST_EDGES_S.iter().rposition(|&e| secs >= e).unwrap_or(0);
        histogram[bucket] += 1;
    }
    let oracle_mismatches = (plan.check_stalls(&classified, NET_ORACLE_SLACK_MS).len()
        + plan.check_recoveries(&trace.net.recovery_events, NET_ORACLE_SLACK_MS).len())
        as u64;

    NetTrialResult {
        policy,
        pathology,
        seed,
        total_stall_ms: trace.total_stall_ms(NET_STALL_GAP_MS),
        stalls: classified.len() as u64,
        total_acked_bytes: trace.total_acked_bytes,
        breakdown,
        histogram,
        net: trace.net,
        oracle_mismatches,
    }
}

/// One (policy × pathology) aggregate over every seed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetCell {
    /// Recovery policy.
    pub policy: NetPolicy,
    /// Injected pathology.
    pub pathology: NetFaultKind,
    /// Seeds aggregated.
    pub seeds: u64,
    /// Total stalled time across seeds (ms).
    pub total_stall_ms: f64,
    /// Mean stalled time per seed (ms).
    pub mean_stall_ms: f64,
    /// Total goodput across seeds (bytes).
    pub total_acked_bytes: u64,
    /// Total stalls.
    pub stalls: u64,
    /// Summed stall-duration histogram.
    pub histogram: [u64; 5],
    /// Summed per-cause stalled time (ms).
    pub breakdown: CauseBreakdown,
    /// Spurious RTOs detected / undone by F-RTO.
    pub spurious_rto_detected: u64,
    /// Bogus cwnd collapses undone.
    pub spurious_rto_undone: u64,
    /// Zombie-connection re-establishments.
    pub reconnects: u64,
    /// Time spent with cwnd frozen across predicted outages (ms).
    pub frozen_ms: f64,
    /// Packets tail-dropped by the bottleneck queue.
    pub queue_overflow_drops: u64,
    /// Packets silently eaten by dead NAT bindings.
    pub rebind_drops: u64,
    /// Oracle violations (must be zero).
    pub oracle_mismatches: u64,
}

/// The full study result: every trial plus the (policy × pathology)
/// aggregate table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetStudyReport {
    /// Per-trial outcomes, trial-index order (the hashed value).
    pub trials: Vec<NetTrialResult>,
    /// Aggregates, policy-major × pathology-minor order.
    pub cells: Vec<NetCell>,
}

impl NetStudyReport {
    /// Builds the aggregate table from trial outcomes.
    pub fn from_trials(trials: Vec<NetTrialResult>) -> Self {
        let mut cells = Vec::new();
        for policy in NetPolicy::all() {
            for pathology in NetFaultKind::all() {
                let mut cell = NetCell {
                    policy,
                    pathology,
                    seeds: 0,
                    total_stall_ms: 0.0,
                    mean_stall_ms: 0.0,
                    total_acked_bytes: 0,
                    stalls: 0,
                    histogram: [0; 5],
                    breakdown: CauseBreakdown::default(),
                    spurious_rto_detected: 0,
                    spurious_rto_undone: 0,
                    reconnects: 0,
                    frozen_ms: 0.0,
                    queue_overflow_drops: 0,
                    rebind_drops: 0,
                    oracle_mismatches: 0,
                };
                for t in trials.iter().filter(|t| t.policy == policy && t.pathology == pathology)
                {
                    cell.seeds += 1;
                    cell.total_stall_ms += t.total_stall_ms;
                    cell.total_acked_bytes += t.total_acked_bytes;
                    cell.stalls += t.stalls;
                    for (h, th) in cell.histogram.iter_mut().zip(t.histogram.iter()) {
                        *h += th;
                    }
                    cell.breakdown.merge(&t.breakdown);
                    cell.spurious_rto_detected += t.net.spurious_rto_detected;
                    cell.spurious_rto_undone += t.net.spurious_rto_undone;
                    cell.reconnects += t.net.reconnects;
                    cell.frozen_ms += t.net.frozen_ms;
                    cell.queue_overflow_drops += t.net.queue_overflow_drops;
                    cell.rebind_drops += t.net.rebind_drops;
                    cell.oracle_mismatches += t.oracle_mismatches;
                }
                if cell.seeds > 0 {
                    cell.mean_stall_ms = cell.total_stall_ms / cell.seeds as f64;
                }
                cells.push(cell);
            }
        }
        Self { trials, cells }
    }

    /// The aggregate of one (policy × pathology) cell.
    pub fn cell(&self, policy: NetPolicy, pathology: NetFaultKind) -> Option<&NetCell> {
        self.cells.iter().find(|c| c.policy == policy && c.pathology == pathology)
    }

    /// Total oracle violations across the study (the CI gate).
    pub fn oracle_mismatches(&self) -> u64 {
        self.cells.iter().map(|c| c.oracle_mismatches).sum()
    }

    /// Pathologies where `a` stalled strictly less than `b` in total.
    pub fn stall_wins(&self, a: NetPolicy, b: NetPolicy) -> Vec<NetFaultKind> {
        NetFaultKind::all()
            .into_iter()
            .filter(|&k| match (self.cell(a, k), self.cell(b, k)) {
                (Some(ca), Some(cb)) => ca.total_stall_ms < cb.total_stall_ms,
                _ => false,
            })
            .collect()
    }

    /// Canonical pretty-printed JSON of the study: the `--hash` input
    /// and the `BENCH_net.json` body. Hand-rolled for the same reason
    /// as [`NetStudySpec::to_canonical_json`]: the hash gate compares
    /// this string across thread counts and reruns, so its formatting
    /// must not depend on a JSON library.
    pub fn to_json_pretty(&self, spec: &NetStudySpec) -> String {
        fn hist(h: &[u64; 5]) -> String {
            format!(
                "{{\"1-2s\": {}, \"2-4s\": {}, \"4-8s\": {}, \"8-16s\": {}, \"16s+\": {}}}",
                h[0], h[1], h[2], h[3], h[4]
            )
        }
        fn causes(b: &CauseBreakdown) -> String {
            format!(
                "{{\"handover-outage\": {}, \"nat-rebind\": {}, \"bufferbloat\": {}, \
                 \"rto-backoff\": {}}}",
                b.handover_outage_ms, b.nat_rebind_ms, b.bufferbloat_ms, b.rto_backoff_ms
            )
        }
        let mut out = String::new();
        out.push_str("{\n  \"study\": \"net-stall\",\n");
        out.push_str(&format!("  \"spec\": {},\n", spec.to_canonical_json()));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"pathology\": \"{}\", \"seeds\": {}, \
                 \"total_stall_ms\": {}, \"mean_stall_ms\": {}, \"stalls\": {}, \
                 \"total_acked_bytes\": {}, \"histogram\": {}, \"breakdown_ms\": {}, \
                 \"spurious_rto_detected\": {}, \"spurious_rto_undone\": {}, \
                 \"reconnects\": {}, \"frozen_ms\": {}, \"queue_overflow_drops\": {}, \
                 \"rebind_drops\": {}, \"oracle_mismatches\": {}}}{}\n",
                c.policy.label(),
                c.pathology.label(),
                c.seeds,
                c.total_stall_ms,
                c.mean_stall_ms,
                c.stalls,
                c.total_acked_bytes,
                hist(&c.histogram),
                causes(&c.breakdown),
                c.spurious_rto_detected,
                c.spurious_rto_undone,
                c.reconnects,
                c.frozen_ms,
                c.queue_overflow_drops,
                c.rebind_drops,
                c.oracle_mismatches,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"trials\": [\n");
        for (i, t) in self.trials.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"policy\": \"{}\", \"pathology\": \"{}\", \"seed\": {}, \
                 \"total_stall_ms\": {}, \"stalls\": {}, \"total_acked_bytes\": {}, \
                 \"oracle_mismatches\": {}}}{}\n",
                t.policy.label(),
                t.pathology.label(),
                t.seed,
                t.total_stall_ms,
                t.stalls,
                t.total_acked_bytes,
                t.oracle_mismatches,
                if i + 1 < self.trials.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        let wins: Vec<String> = self
            .stall_wins(NetPolicy::RemInformed, NetPolicy::Reno)
            .iter()
            .map(|k| format!("\"{}\"", k.label()))
            .collect();
        out.push_str(&format!(
            "  \"headline\": {{\"rem_informed_beats_reno_on\": [{}], \
             \"oracle_mismatches\": {}}}\n}}\n",
            wins.join(", "),
            self.oracle_mismatches(),
        ));
        out
    }
}

/// The stall study: trial `i` replays [`NetStudySpec::trial_coords`]
/// of `i`, and the report is built in trial-index order.
impl Study for NetStudySpec {
    const KIND: &'static str = "net";
    type Trial = NetTrialResult;
    type Output = NetStudyReport;

    fn fingerprint(&self) -> Result<String, ExperimentError> {
        Ok(self.to_canonical_json())
    }

    /// The spec has no worker count, so `threads` is unused.
    fn from_fingerprint(json: &str, _threads: usize) -> Result<Self, ExperimentError> {
        let spec: Self = serde_json::from_str(json)
            .map_err(|e| ExperimentError::serde("net study fingerprint", e))?;
        spec.validate().map_err(ExperimentError::Config)?;
        Ok(spec)
    }

    /// Policies × pathologies × seeds.
    fn n_trials(&self) -> usize {
        NetPolicy::all().len() * NetFaultKind::all().len() * self.seeds.len()
    }

    fn run_trial(&self, i: usize) -> NetTrialResult {
        let (policy, pathology, seed) = self.trial_coords(i);
        run_net_trial(self, policy, pathology, seed)
    }

    /// Builds the report and adds its stall-cause and recovery counters
    /// to the run's metrics (`--obs-trace`).
    fn merge(&self, trials: Vec<Option<NetTrialResult>>) -> NetStudyReport {
        let report = NetStudyReport::from_trials(trials.into_iter().flatten().collect());
        for cause in StallCause::all() {
            let ms = report.cells.iter().map(|c| c.breakdown.get(cause)).sum::<f64>();
            let counter = match cause {
                StallCause::HandoverOutage => "rem_net_stall_handover_outage_ms_total",
                StallCause::NatRebind => "rem_net_stall_nat_rebind_ms_total",
                StallCause::Bufferbloat => "rem_net_stall_bufferbloat_ms_total",
                StallCause::RtoBackoff => "rem_net_stall_rto_backoff_ms_total",
            };
            rem_obs::metrics::add(counter, ms as u64);
        }
        rem_obs::metrics::add(
            "rem_net_spurious_rto_detected_total",
            report.cells.iter().map(|c| c.spurious_rto_detected).sum(),
        );
        rem_obs::metrics::add(
            "rem_net_spurious_rto_undone_total",
            report.cells.iter().map(|c| c.spurious_rto_undone).sum(),
        );
        rem_obs::metrics::add(
            "rem_net_reconnects_total",
            report.cells.iter().map(|c| c.reconnects).sum(),
        );
        rem_obs::metrics::add("rem_net_oracle_mismatches_total", report.oracle_mismatches());
        report
    }

    fn canonical_json(&self, out: &NetStudyReport) -> Result<String, ExperimentError> {
        Ok(out.to_json_pretty(self))
    }
}

/// Validates `spec`, then runs (or resumes) the stall study under crash
/// isolation. Trials are scheduled in parallel and reduced in
/// trial-index order, so the report is bit-identical for every thread
/// count.
pub fn run_net_study(
    spec: &NetStudySpec,
    policy: &RunPolicy,
    path: Option<&Path>,
) -> Result<Checked<NetStudyReport>, ExperimentError> {
    spec.validate().map_err(ExperimentError::Config)?;
    run_study(spec, policy, path, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> NetStudySpec {
        NetStudySpec {
            faults: rem_faults::NetFaultConfig::aggressive(),
            seeds: vec![1, 2],
            window_ms: 30_000.0,
            loss_prob: 0.003,
        }
    }

    #[test]
    fn trial_coords_cover_every_cell_exactly_once() {
        let spec = quick_spec();
        let mut seen = std::collections::HashSet::new();
        for i in 0..spec.n_trials() {
            let (p, k, s) = spec.trial_coords(i);
            assert!(seen.insert((p, k, s)), "duplicate coords at {i}");
        }
        assert_eq!(seen.len(), 3 * 4 * 2);
    }

    #[test]
    fn trials_are_deterministic() {
        let spec = quick_spec();
        let a = run_net_trial(&spec, NetPolicy::RemInformed, NetFaultKind::NatRebind, 1);
        let b = run_net_trial(&spec, NetPolicy::RemInformed, NetFaultKind::NatRebind, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn study_passes_its_own_oracle_and_rem_beats_reno() {
        let spec = quick_spec();
        let policy = RunPolicy { threads: 1, ..RunPolicy::default() };
        let report = run_net_study(&spec, &policy, None)
            .expect("study")
            .into_result()
            .expect("clean");
        assert_eq!(report.trials.len(), spec.n_trials());
        assert_eq!(report.oracle_mismatches(), 0, "classifier hallucinated a cause");
        // The headline: REM-informed recovery stalls less than Reno on
        // every pathology in the taxonomy.
        let wins = report.stall_wins(NetPolicy::RemInformed, NetPolicy::Reno);
        assert_eq!(
            wins.len(),
            NetFaultKind::all().len(),
            "rem-informed must beat reno everywhere, won only {wins:?}"
        );
    }

    #[test]
    fn study_is_thread_count_invariant() {
        let spec = quick_spec();
        let one = run_net_study(&spec, &RunPolicy { threads: 1, ..RunPolicy::default() }, None)
            .expect("1-thread")
            .into_result()
            .expect("clean");
        let four = run_net_study(&spec, &RunPolicy { threads: 4, ..RunPolicy::default() }, None)
            .expect("4-thread")
            .into_result()
            .expect("clean");
        assert_eq!(one, four);
    }

    #[test]
    fn checkpoint_resume_reproduces_the_report() {
        let dir = std::env::temp_dir().join("rem-net-study-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let spec = NetStudySpec { seeds: vec![5], ..quick_spec() };
        let policy = RunPolicy { threads: 1, checkpoint_every: 4, ..RunPolicy::default() };
        let first = run_net_study(&spec, &policy, Some(&path))
            .expect("first run")
            .into_result()
            .expect("clean");
        let resumed = run_net_study(&spec, &policy, Some(&path)).expect("resume");
        assert_eq!(resumed.resumed_trials, spec.n_trials());
        assert_eq!(resumed.into_result().expect("clean"), first);
        let _ = std::fs::remove_file(&path);
    }
}
