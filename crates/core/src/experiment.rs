//! Paired legacy-vs-REM experiments (the paper's replay methodology).
//!
//! A [`Comparison`] runs both signaling planes over the *same* radio
//! environment (same seed — the environment RNG stream is shared) and
//! derives the reduction factors `ε = (K_legacy − K_rem) / K_rem`
//! reported in Table 5. This module also holds the single-plane
//! [`Aggregate`], the paired [`BlerStudy`] and the train study's
//! [`Study`] implementation.

use crate::checkpoint::RunPolicy;
use crate::error::ExperimentError;
use crate::study::{run_study, Checked, Study};
use rem_exec::{DeadlineOverrun, QuarantinedTrial};
use rem_faults::FaultConfig;
use rem_mobility::FailureCause;
use rem_num::health::DegradedStats;
use rem_phy::link::BlerScenario;
use rem_phy::BlockOutcome;
use rem_sim::{
    simulate_planes, simulate_run, ClientTrial, DatasetSpec, Plane, RunConfig, RunMetrics,
    TrainMetrics, TrainScenario,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Route length (km) used by the headline Table 5 campaign.
pub const DEFAULT_ROUTE_KM: f64 = 60.0;

/// Seeds used by the headline Table 5 campaign: the default of
/// [`CampaignSpec::new`], which the rem-bench table and figure targets
/// (re-exported there as `SEEDS`) and the library's tests build their
/// campaigns from. Four seeds tighten the statistics EXPERIMENTS.md
/// reports.
///
/// The `rem` commands do not read it. Their seed lists start from the
/// scenario default `[run] seeds = [1, 2]` (`RunSpec::default` in
/// [`crate::scenario`]): `rem compare` and every `--scenario` file
/// without `[run] seeds` use it, while `rem faults` and `rem net` start
/// from `[1, 2, 3]` (`rem bler` takes one link seed instead). The two
/// defaults differ on purpose and neither is derived from the other:
/// each pins its own results (the bench tables here, the CLI's
/// `--hash` digests there), so changing either moves them.
pub const DEFAULT_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// A Monte-Carlo replay campaign: the dataset, the seeds to replay it
/// under, and how many worker threads to run them on.
///
/// Each seed's replay is an independent trial (the simulator derives
/// all randomness from the config's seed), so a campaign fans its
/// trials out over the worker pool and reduces them in canonical seed
/// order — the aggregate is bit-identical for every thread count,
/// including 1.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Dataset/route to replay.
    pub spec: DatasetSpec,
    /// Seeds to replay under; aggregation order follows this slice.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = all available hardware threads).
    pub threads: usize,
    /// Fault-injection configuration, applied to every trial. `None`
    /// (the default, and what older serialized campaigns deserialize
    /// to) replays the clean environment.
    #[serde(default)]
    pub faults: Option<FaultConfig>,
}

impl CampaignSpec {
    /// A campaign over `spec` with the headline defaults
    /// ([`DEFAULT_SEEDS`], all hardware threads, no fault injection).
    pub fn new(spec: DatasetSpec) -> Self {
        Self { spec, seeds: DEFAULT_SEEDS.to_vec(), threads: 0, faults: None }
    }

    /// Enables fault injection: every trial runs under a
    /// [`rem_faults::FaultPlan`] derived from this config and the
    /// trial's seed.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replaces the seed list.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Uses seeds `1..=n`.
    pub fn with_seed_count(mut self, n: usize) -> Self {
        self.seeds = (1..=n as u64).collect();
        self
    }

    /// Sets the worker thread count (`0` = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The run of `plane` under `seed`, with the campaign's dataset and
    /// faults.
    fn run_config(&self, plane: Plane, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(self.spec.clone(), plane, seed);
        cfg.faults = self.faults.clone();
        cfg
    }

    /// Runs one plane over every seed in parallel, letting `configure`
    /// adjust each [`RunConfig`] (clamping, ablations, tracing...), and
    /// merges the per-seed metrics in canonical seed order.
    pub fn aggregate_with(
        &self,
        plane: Plane,
        configure: impl Fn(&mut RunConfig) + Sync,
    ) -> RunMetrics {
        let runs = rem_exec::par_map(self.threads, self.seeds.len(), |i| {
            let mut cfg = self.run_config(plane, self.seeds[i]);
            configure(&mut cfg);
            simulate_run(&cfg)
        });
        let mut agg = RunMetrics::default();
        for m in runs {
            merge(&mut agg, m);
        }
        agg
    }

    /// [`CampaignSpec::aggregate_with`] with the stock configuration.
    pub fn aggregate(&self, plane: Plane) -> RunMetrics {
        self.aggregate_with(plane, |_| {})
    }

    /// Canonical fingerprint of what this campaign *computes*: the
    /// dataset, the seeds and the fault configuration. Deliberately
    /// excludes `threads` — a checkpoint written at one worker count
    /// resumes at any other.
    pub fn fingerprint(&self) -> Result<String, ExperimentError> {
        serde_json::to_string(&(&self.spec, &self.seeds, &self.faults))
            .map_err(|e| ExperimentError::serde("campaign fingerprint", e))
    }
}

/// The paired comparison: trial `i` replays both planes of seed `i`, in
/// lock-step on one environment stream ([`simulate_planes`]), and its
/// value is the (legacy, REM) pair.
impl Study for CampaignSpec {
    const KIND: &'static str = "compare";
    type Trial = (RunMetrics, RunMetrics);
    type Output = Comparison;

    /// The inherent [`CampaignSpec::fingerprint`], which stays for
    /// callers that do not import [`Study`].
    fn fingerprint(&self) -> Result<String, ExperimentError> {
        CampaignSpec::fingerprint(self)
    }

    fn from_fingerprint(json: &str, threads: usize) -> Result<Self, ExperimentError> {
        let (spec, seeds, faults) = serde_json::from_str(json)
            .map_err(|e| ExperimentError::serde("campaign fingerprint", e))?;
        Ok(Self { spec, seeds, threads, faults })
    }

    fn n_trials(&self) -> usize {
        self.seeds.len()
    }

    fn run_trial(&self, i: usize) -> (RunMetrics, RunMetrics) {
        let cfg = self.run_config(Plane::Legacy, self.seeds[i]);
        let [legacy, rem] = simulate_planes(&cfg, [Plane::Legacy, Plane::Rem]);
        (legacy, rem)
    }

    /// Folds the legacy halves in seed order into one aggregate and the
    /// REM halves in seed order into the other.
    fn merge(&self, trials: Vec<Option<(RunMetrics, RunMetrics)>>) -> Comparison {
        let (mut legacy, mut rem) = (RunMetrics::default(), RunMetrics::default());
        for (l, r) in trials.into_iter().flatten() {
            merge(&mut legacy, l);
            merge(&mut rem, r);
        }
        Comparison { dataset: self.spec.name.clone(), speed_kmh: self.spec.speed_kmh, legacy, rem }
    }

    fn canonical_json(&self, out: &Comparison) -> Result<String, ExperimentError> {
        serde_json::to_string(out).map_err(|e| ExperimentError::serde("comparison", e))
    }
}

/// One plane of a campaign merged over its seeds: the single-plane
/// study the fault harness runs (`rem faults`). Trial `i` replays seed
/// `i`.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Dataset, seeds and fault configuration.
    pub campaign: CampaignSpec,
    /// The plane every trial replays.
    pub plane: Plane,
}

impl Study for Aggregate {
    const KIND: &'static str = "aggregate";
    type Trial = RunMetrics;
    type Output = RunMetrics;

    /// The campaign fingerprint plus the plane: a legacy checkpoint
    /// must not resume into a REM aggregate.
    fn fingerprint(&self) -> Result<String, ExperimentError> {
        let c = &self.campaign;
        serde_json::to_string(&(&c.spec, &c.seeds, &c.faults, self.plane))
            .map_err(|e| ExperimentError::serde("aggregate fingerprint", e))
    }

    fn from_fingerprint(json: &str, threads: usize) -> Result<Self, ExperimentError> {
        let (spec, seeds, faults, plane) = serde_json::from_str(json)
            .map_err(|e| ExperimentError::serde("aggregate fingerprint", e))?;
        Ok(Self { campaign: CampaignSpec { spec, seeds, threads, faults }, plane })
    }

    fn n_trials(&self) -> usize {
        self.campaign.seeds.len()
    }

    fn run_trial(&self, i: usize) -> RunMetrics {
        simulate_run(&self.campaign.run_config(self.plane, self.campaign.seeds[i]))
    }

    fn merge(&self, trials: Vec<Option<RunMetrics>>) -> RunMetrics {
        let mut metrics = RunMetrics::default();
        for m in trials.into_iter().flatten() {
            merge(&mut metrics, m);
        }
        metrics
    }

    fn canonical_json(&self, out: &RunMetrics) -> Result<String, ExperimentError> {
        serde_json::to_string(out).map_err(|e| ExperimentError::serde("aggregate", e))
    }
}

/// The paired coded-BLER study (`rem bler`): trial `i < blocks` runs
/// OFDM block `i`, trial `blocks + i` runs OTFS block `i`. Both
/// scenarios share the seed, so block `i` sees the same channel and
/// payload under each waveform.
#[derive(Clone, Copy, Debug)]
pub struct BlerStudy {
    /// The legacy OFDM link.
    pub ofdm: BlerScenario,
    /// The REM OTFS link (same channel model, speed, SNR and seed).
    pub otfs: BlerScenario,
}

impl Study for BlerStudy {
    const KIND: &'static str = "bler";
    type Trial = BlockOutcome;
    /// Per-block outcomes of OFDM and of OTFS, block order (`None` =
    /// quarantined).
    type Output = (Vec<Option<BlockOutcome>>, Vec<Option<BlockOutcome>>);

    /// Both scenarios, pinned at `threads = 0` so a resume may change
    /// the worker count.
    fn fingerprint(&self) -> Result<String, ExperimentError> {
        serde_json::to_string(&(self.ofdm.with_threads(0), self.otfs.with_threads(0)))
            .map_err(|e| ExperimentError::serde("bler fingerprint", e))
    }

    fn from_fingerprint(json: &str, threads: usize) -> Result<Self, ExperimentError> {
        let (ofdm, otfs): (BlerScenario, BlerScenario) = serde_json::from_str(json)
            .map_err(|e| ExperimentError::serde("bler fingerprint", e))?;
        Ok(Self { ofdm: ofdm.with_threads(threads), otfs: otfs.with_threads(threads) })
    }

    fn n_trials(&self) -> usize {
        2 * self.ofdm.blocks
    }

    fn run_trial(&self, i: usize) -> BlockOutcome {
        let blocks = self.ofdm.blocks;
        if i < blocks {
            self.ofdm.trial(i)
        } else {
            self.otfs.trial(i - blocks)
        }
    }

    fn merge(&self, mut trials: Vec<Option<BlockOutcome>>) -> Self::Output {
        let otfs = trials.split_off(self.ofdm.blocks);
        (trials, otfs)
    }

    /// The full per-block outcome record, not just the BLER: any change
    /// in SINR or bit-error counts moves the digest. A `Vec<Option<T>>`
    /// with every slot `Some` serializes exactly like `Vec<T>`.
    fn canonical_json(&self, out: &Self::Output) -> Result<String, ExperimentError> {
        serde_json::to_string(out).map_err(|e| ExperimentError::serde("bler outcomes", e))
    }
}

/// The whole-train study: client `i` is trial `i` (a pure function of
/// `(scenario, i)` — see [`TrainScenario::client_trial`]), and a clean
/// run merges into exactly the metrics [`TrainScenario::run`] produces.
impl Study for TrainScenario {
    const KIND: &'static str = "train";
    type Trial = ClientTrial;
    type Output = TrainMetrics;

    /// Every field that feeds a client trial's value. `RunConfig` does
    /// not serialize; its link, timer and re-establishment sections
    /// stay at their defaults for train studies, so they are omitted.
    fn fingerprint(&self) -> Result<String, ExperimentError> {
        let b = &self.base;
        serde_json::to_string(&(
            &b.spec,
            b.plane,
            b.seed,
            b.rem_clamp_offsets,
            b.ablation,
            &b.faults,
            self.clients,
            self.train_len_m,
            self.window_ms,
        ))
        .map_err(|e| ExperimentError::serde("train fingerprint", e))
    }

    fn from_fingerprint(json: &str, threads: usize) -> Result<Self, ExperimentError> {
        let (spec, plane, seed, clamp, ablation, faults, clients, train_len_m, window_ms) =
            serde_json::from_str(json)
                .map_err(|e| ExperimentError::serde("train fingerprint", e))?;
        let mut base = RunConfig::new(spec, plane, seed);
        base.rem_clamp_offsets = clamp;
        base.ablation = ablation;
        base.faults = faults;
        Ok(TrainScenario::new(base)
            .with_clients(clients)
            .with_train_len_m(train_len_m)
            .with_window_ms(window_ms)
            .with_threads(threads))
    }

    fn n_trials(&self) -> usize {
        self.clients
    }

    fn run_trial(&self, i: usize) -> ClientTrial {
        self.client_trial(i)
    }

    fn merge(&self, trials: Vec<Option<ClientTrial>>) -> TrainMetrics {
        let completed: Vec<ClientTrial> = trials.into_iter().flatten().collect();
        self.merge_trials(&completed)
    }

    fn canonical_json(&self, out: &TrainMetrics) -> Result<String, ExperimentError> {
        serde_json::to_string(out).map_err(|e| ExperimentError::serde("train metrics", e))
    }
}

/// A [`Comparison`] produced under crash isolation: a
/// [`Checked<Comparison>`] whose value is named `comparison`.
///
/// Its trials are `(plane, seed)` replays, `2 * seeds` in total: replay
/// `i` is seed `i`'s legacy plane and replay `seeds + i` its REM plane.
/// A paired trial of the study counts as its two replays, so
/// `completed_trials + quarantined.len() == total_trials`. Retries and
/// overruns are per paired trial: its two replays run as one. The
/// replay counts stay because perfbench's `compare_hsr` counts its
/// operations in replays.
#[derive(Clone, Debug)]
pub struct CheckedComparison {
    /// The paired aggregate over every *completed* trial.
    pub comparison: Comparison,
    /// Replays that panicked on every attempt (both of each quarantined
    /// paired trial, in replay order).
    pub quarantined: Vec<QuarantinedTrial>,
    /// Paired trials that exceeded the per-trial deadline (indexed by
    /// seed).
    pub overruns: Vec<DeadlineOverrun>,
    /// Panicking attempts of paired trials that were retried
    /// successfully.
    pub retries: u64,
    /// Replays restored from the checkpoint instead of recomputed.
    pub resumed_trials: usize,
    /// Completed replays (resumed + newly run).
    pub completed_trials: usize,
    /// Total replays in the campaign (`2 * seeds`).
    pub total_trials: usize,
    /// Merged numerical-health counters over all completed trials.
    pub health: DegradedStats,
}

impl From<Checked<Comparison>> for CheckedComparison {
    fn from(c: Checked<Comparison>) -> Self {
        let seeds = c.total_trials;
        let rem_replays: Vec<QuarantinedTrial> = c
            .quarantined
            .iter()
            .map(|q| QuarantinedTrial { index: seeds + q.index, ..q.clone() })
            .collect();
        Self {
            comparison: c.value,
            quarantined: c.quarantined.into_iter().chain(rem_replays).collect(),
            overruns: c.overruns,
            retries: c.retries,
            resumed_trials: 2 * c.resumed_trials,
            completed_trials: 2 * c.completed_trials,
            total_trials: 2 * seeds,
            health: c.health,
        }
    }
}

impl CheckedComparison {
    /// True when every trial completed.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The comparison, or the quarantine list as a typed error.
    pub fn into_result(self) -> Result<Comparison, ExperimentError> {
        if self.is_clean() {
            Ok(self.comparison)
        } else {
            Err(ExperimentError::Quarantined { trials: self.quarantined })
        }
    }
}

/// Results of one paired replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Comparison {
    /// Dataset name.
    pub dataset: String,
    /// Client speed (km/h).
    pub speed_kmh: f64,
    /// Legacy plane metrics.
    pub legacy: RunMetrics,
    /// REM plane metrics.
    pub rem: RunMetrics,
}

impl Comparison {
    /// Runs both planes over the campaign's seeds and aggregates.
    ///
    /// Each seed is an independent trial that replays both planes in
    /// lock-step on one environment stream; trials are scheduled over
    /// the campaign's worker threads and per-plane metrics are merged
    /// in seed order, so the result is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    /// Panics when a trial panics (there is no retry budget here; use
    /// [`Comparison::run_checkpointed`] for crash isolation).
    pub fn run(campaign: &CampaignSpec) -> Self {
        let policy =
            RunPolicy { threads: campaign.threads, max_retries: 0, ..RunPolicy::default() };
        match run_study(campaign, &policy, None, |_, _| {}).and_then(Checked::into_result) {
            Ok(cmp) => cmp,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Comparison::run`] under crash isolation with optional
    /// checkpointing: each seed's paired trial runs inside
    /// `catch_unwind` with retry/quarantine semantics, and with a
    /// `path` the campaign state is atomically saved as trials finish,
    /// so a killed process resumes with only the missing trials. The
    /// result counts replays, two per paired trial (see
    /// [`CheckedComparison`]).
    ///
    /// A clean (no-quarantine) run merges exactly the values
    /// [`Comparison::run`] would have produced — same JSON, same hash.
    /// Resuming, and a per-attempt chaos hook, go through
    /// [`run_study`] and [`crate::study::from_checkpoint`] directly.
    pub fn run_checkpointed(
        campaign: &CampaignSpec,
        policy: &RunPolicy,
        path: Option<&Path>,
    ) -> Result<CheckedComparison, ExperimentError> {
        run_study(campaign, policy, path, |_, _| {}).map(CheckedComparison::from)
    }

    /// The paper's reduction factor `ε = (K_lgc − K_rem) / K_rem` for a
    /// pair of counts; `f64::INFINITY` when REM has zero.
    pub fn epsilon(k_legacy: f64, k_rem: f64) -> f64 {
        if k_rem <= 0.0 {
            if k_legacy <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (k_legacy - k_rem) / k_rem
        }
    }

    /// ε over failures excluding coverage holes.
    pub fn no_hole_failure_epsilon(&self) -> f64 {
        let count = |m: &RunMetrics| {
            m.failures.iter().filter(|f| f.cause != FailureCause::CoverageHole).count() as f64
        };
        Self::epsilon(count(&self.legacy), count(&self.rem))
    }
}

/// Concatenates run metrics (used to aggregate over seeds).
pub fn merge(into: &mut RunMetrics, from: RunMetrics) {
    // Offset times so records from different seeds don't interleave.
    let offset = into.duration_s * 1e3;
    into.duration_s += from.duration_s;
    into.handovers.extend(from.handovers.into_iter().map(|mut h| {
        h.t_ms += offset;
        h
    }));
    into.failures.extend(from.failures.into_iter().map(|mut f| {
        f.t_ms += offset;
        f
    }));
    into.loops.extend(from.loops.into_iter().map(|mut l| {
        l.start_ms += offset;
        l.end_ms += offset;
        l
    }));
    into.bler_before_failure_ul.extend(from.bler_before_failure_ul);
    into.bler_before_failure_dl.extend(from.bler_before_failure_dl);
    into.feedback_delays_ms.extend(from.feedback_delays_ms);
    into.signaling.reports += from.signaling.reports;
    into.signaling.commands += from.signaling.commands;
    into.signaling.reconfigs += from.signaling.reconfigs;
    into.signaling.harq_transmissions += from.signaling.harq_transmissions;
    into.signaling.x2_messages += from.signaling.x2_messages;
    into.injected.extend(from.injected.into_iter().map(|mut f| {
        f.t_ms += offset;
        f
    }));
    into.fault_oracle.extend(from.fault_oracle.into_iter().map(|mut p| {
        p.t_ms += offset;
        p
    }));
    into.reestablish_attempts += from.reestablish_attempts;
    into.rem_fallback_epochs += from.rem_fallback_epochs;
    into.trace.events.extend(from.trace.events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;

    #[test]
    fn epsilon_semantics() {
        assert_eq!(Comparison::epsilon(0.0, 0.0), 0.0);
        assert!(Comparison::epsilon(3.0, 0.0).is_infinite());
        assert!((Comparison::epsilon(12.0, 3.0) - 3.0).abs() < 1e-12);
        // Paper notation: "3.0x reduction" for 10.6% -> 2.63%.
        assert!((Comparison::epsilon(10.6, 2.63) - 3.03).abs() < 0.01);
    }

    #[test]
    fn paired_run_shows_rem_advantage_at_speed() {
        let spec = DatasetSpec::beijing_taiyuan(20.0, 300.0);
        let cmp = Comparison::run(&CampaignSpec::new(spec).with_seeds(&[11]));
        assert!(
            cmp.rem.failure_ratio_no_holes() <= cmp.legacy.failure_ratio_no_holes(),
            "rem={} legacy={}",
            cmp.rem.failure_ratio_no_holes(),
            cmp.legacy.failure_ratio_no_holes()
        );
        assert_eq!(cmp.rem.conflict_loops().count(), 0);
    }

    #[test]
    fn campaign_defaults_match_headline_constants() {
        let c = CampaignSpec::new(DatasetSpec::beijing_taiyuan(DEFAULT_ROUTE_KM, 300.0));
        assert_eq!(c.seeds, DEFAULT_SEEDS.to_vec());
        assert_eq!(c.threads, 0);
        assert_eq!(c.clone().with_seed_count(3).seeds, vec![1, 2, 3]);
        assert_eq!(c.with_threads(2).threads, 2);
    }

    #[test]
    fn campaign_is_thread_count_invariant() -> Result<(), Box<dyn std::error::Error>> {
        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(12.0, 300.0)).with_seeds(&[7, 8]);
        let serial = Comparison::run(&campaign.clone().with_threads(1));
        let parallel = Comparison::run(&campaign.with_threads(4));
        assert_eq!(
            serde_json::to_string(&serial)?,
            serde_json::to_string(&parallel)?,
            "1-thread and 4-thread campaigns must be bit-identical"
        );
        Ok(())
    }

    #[test]
    fn aggregate_matches_manual_serial_merge() -> Result<(), Box<dyn std::error::Error>> {
        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 250.0)).with_seeds(&[1, 2]);
        let mut manual = RunMetrics::default();
        for &seed in &campaign.seeds {
            let spec = campaign.spec.clone();
            merge(&mut manual, simulate_run(&RunConfig::new(spec, Plane::Legacy, seed)));
        }
        let agg = campaign.with_threads(4).aggregate(Plane::Legacy);
        assert_eq!(serde_json::to_string(&manual)?, serde_json::to_string(&agg)?);
        Ok(())
    }

    #[test]
    fn faulted_campaign_is_thread_count_invariant() -> Result<(), Box<dyn std::error::Error>> {
        let campaign = CampaignSpec::new(DatasetSpec::beijing_taiyuan(12.0, 300.0))
            .with_seeds(&[3, 4])
            .with_faults(FaultConfig::aggressive());
        let serial = Comparison::run(&campaign.clone().with_threads(1));
        let parallel = Comparison::run(&campaign.with_threads(4));
        assert_eq!(
            serde_json::to_string(&serial)?,
            serde_json::to_string(&parallel)?,
            "faulted campaigns must stay bit-identical across thread counts"
        );
        assert!(!serial.legacy.injected.is_empty(), "aggressive plan injected nothing");
        assert!(serial.legacy.oracle_mismatches().is_empty());
        assert!(serial.rem.oracle_mismatches().is_empty());
        Ok(())
    }

    #[test]
    fn checkpointed_clean_run_matches_plain_run() -> Result<(), Box<dyn std::error::Error>> {
        let campaign = CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 250.0))
            .with_seeds(&[5, 6])
            .with_threads(2);
        let plain = Comparison::run(&campaign);
        let checked = Comparison::run_checkpointed(
            &campaign,
            &RunPolicy { threads: 2, ..Default::default() },
            None,
        )?;
        assert!(checked.is_clean());
        assert_eq!(checked.completed_trials, 4);
        assert_eq!(checked.resumed_trials, 0);
        assert_eq!(
            serde_json::to_string(&plain)?,
            serde_json::to_string(&checked.into_result()?)?,
            "crash isolation must not perturb a clean campaign"
        );
        Ok(())
    }

    /// `CheckedComparison` counts replays: a quarantined paired trial
    /// is its two replays, legacy `i` and REM `seeds + i`.
    #[test]
    fn checked_comparison_counts_replays() -> Result<(), Box<dyn std::error::Error>> {
        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(4.0, 300.0)).with_seeds(&[1, 2, 3]);
        let policy = RunPolicy { threads: 2, max_retries: 0, ..Default::default() };
        let checked = run_study(&campaign, &policy, None, |i, _| {
            if i == 1 {
                panic!("persistent fault in seed 2's pair");
            }
        })?;
        assert_eq!((checked.completed_trials, checked.total_trials), (2, 3));
        let c = CheckedComparison::from(checked);
        assert_eq!((c.completed_trials, c.total_trials, c.resumed_trials), (4, 6, 0));
        let replays: Vec<usize> = c.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(replays, [1, 4]);
        assert_eq!(c.completed_trials + c.quarantined.len(), c.total_trials);
        Ok(())
    }

    #[test]
    fn checkpointed_aggregate_matches_plain_aggregate() -> Result<(), Box<dyn std::error::Error>>
    {
        let dir = std::env::temp_dir().join("rem-core-exp-tests");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("aggregate-resume.ckpt");
        let _ = std::fs::remove_file(&path);

        let campaign = CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 250.0))
            .with_seeds(&[2, 3])
            .with_faults(FaultConfig::aggressive());
        let plain = campaign.aggregate(Plane::Legacy);
        let policy = RunPolicy { threads: 2, checkpoint_every: 1, ..Default::default() };
        let legacy = Aggregate { campaign: campaign.clone(), plane: Plane::Legacy };
        let full = run_study(&legacy, &policy, Some(&path), |_, _| {})?;
        assert!(full.is_clean());
        assert_eq!(
            serde_json::to_string(&plain)?,
            serde_json::to_string(&full.into_result()?)?,
            "checked single-plane aggregate must match the plain one"
        );

        // Forget one trial and rerun with the same checkpoint: only the
        // hole recomputes and the merge is unchanged.
        let mut ckpt = Checkpoint::load(&path)?;
        ckpt.unrecord(0);
        ckpt.save(&path)?;
        let resumed = run_study(&legacy, &policy, Some(&path), |_, _| {})?;
        assert_eq!(resumed.resumed_trials, 1);
        assert_eq!(serde_json::to_string(&plain)?, serde_json::to_string(&resumed.value)?);

        // A different plane refuses the checkpoint outright.
        let rem = Aggregate { campaign, plane: Plane::Rem };
        assert!(matches!(
            run_study(&rem, &policy, Some(&path), |_, _| {}),
            Err(ExperimentError::SpecMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("rem-core-exp-tests");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("compare-resume.ckpt");
        let _ = std::fs::remove_file(&path);

        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 250.0)).with_seeds(&[9, 10]);
        let policy = RunPolicy { threads: 2, checkpoint_every: 1, ..Default::default() };
        let uninterrupted = Comparison::run(&campaign.clone().with_threads(1));
        let full = Comparison::run_checkpointed(&campaign, &policy, Some(&path))?;
        assert!(full.is_clean());

        // Simulate a kill mid-campaign (seed 10's paired trial lost),
        // then resume from the file alone.
        let mut ckpt = Checkpoint::load(&path)?;
        assert_eq!(ckpt.n_trials, 2, "one paired trial per seed");
        ckpt.unrecord(1);
        ckpt.save(&path)?;
        let rebuilt: CampaignSpec = crate::study::from_checkpoint(&path, policy.threads)?;
        let resumed = run_study(&rebuilt, &policy, Some(&path), |_, _| {})?;
        assert_eq!(rebuilt.seeds, campaign.seeds);
        assert_eq!(resumed.resumed_trials, 1);
        assert_eq!(
            serde_json::to_string(&resumed.into_result()?)?,
            serde_json::to_string(&uninterrupted)?,
            "resumed campaign must equal an uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    /// A compare checkpoint written when each `(plane, seed)` replay was
    /// its own trial (`2 * seeds` trials, one `RunMetrics` per record)
    /// is refused, not merged as paired records: its trial count no
    /// longer matches the campaign's.
    #[test]
    fn a_checkpoint_with_a_trial_per_plane_is_refused() -> Result<(), Box<dyn std::error::Error>>
    {
        let dir = std::env::temp_dir().join("rem-core-exp-tests");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("compare-per-plane.ckpt");
        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(4.0, 300.0)).with_seeds(&[1, 2]);
        let n = campaign.seeds.len();
        let mut ckpt = Checkpoint::new(CampaignSpec::KIND, campaign.fingerprint()?, 2 * n);
        for i in 0..2 * n {
            let plane = if i < n { Plane::Legacy } else { Plane::Rem };
            let m = simulate_run(&campaign.run_config(plane, campaign.seeds[i % n]));
            ckpt.record(i, serde_json::to_string(&(m, DegradedStats::default()))?);
        }
        ckpt.save(&path)?;

        let rebuilt: CampaignSpec = crate::study::from_checkpoint(&path, 1)?;
        assert_eq!(rebuilt.fingerprint()?, campaign.fingerprint()?);
        let policy = RunPolicy { threads: 1, ..Default::default() };
        match run_study(&rebuilt, &policy, Some(&path), |_, _| {}) {
            Err(ExperimentError::SpecMismatch { detail, .. }) => {
                assert_eq!(detail, "4 trials != 2");
            }
            other => panic!("expected SpecMismatch, got {:?}", other.map(|c| c.completed_trials)),
        }
        // The refused file is left as it was.
        assert_eq!(Checkpoint::load(&path)?, ckpt);
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn chaos_hook_panics_are_retried_without_changing_the_result(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let campaign =
            CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 250.0)).with_seeds(&[11]);
        let clean = Comparison::run(&campaign.clone().with_threads(1));
        let chaos = rem_faults::ChaosConfig::transient(5, 1.0);
        let checked = run_study(
            &campaign,
            &RunPolicy { threads: 2, max_retries: 2, ..Default::default() },
            None,
            |i, a| chaos.maybe_panic(i, a),
        )?;
        assert!(checked.is_clean());
        assert_eq!(checked.retries, 1, "the paired trial panicked once and was retried");
        assert_eq!(
            serde_json::to_string(&checked.into_result()?)?,
            serde_json::to_string(&clean)?,
            "retried trials must reproduce the unfaulted values exactly"
        );
        Ok(())
    }

    #[test]
    fn checkpointed_train_matches_plain_run_and_resumes() -> Result<(), Box<dyn std::error::Error>>
    {
        let dir = std::env::temp_dir().join("rem-core-exp-tests");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("train-resume.ckpt");
        let _ = std::fs::remove_file(&path);

        let base =
            RunConfig::new(DatasetSpec::beijing_taiyuan(8.0, 300.0), Plane::Legacy, 5);
        let train = TrainScenario::new(base).with_clients(3).with_threads(1);
        let plain = train.run();
        let policy = RunPolicy { threads: 1, checkpoint_every: 1, ..Default::default() };
        let checked = run_study(&train, &policy, Some(&path), |_, _| {})?;
        assert!(checked.is_clean());
        assert_eq!(checked.total_trials, 3);
        assert_eq!(
            serde_json::to_string(&plain)?,
            serde_json::to_string(&checked.value)?,
            "crash isolation must not perturb a clean train study"
        );

        // Forget one client and resume: only the hole recomputes.
        let mut ckpt = Checkpoint::load(&path)?;
        ckpt.unrecord(1);
        ckpt.save(&path)?;
        let resumed = run_study(&train, &policy, Some(&path), |_, _| {})?;
        assert_eq!(resumed.resumed_trials, 2);
        assert_eq!(serde_json::to_string(&plain)?, serde_json::to_string(&resumed.value)?);

        // A different client count refuses the checkpoint.
        let other = train.clone().with_clients(4);
        assert!(matches!(
            run_study(&other, &policy, Some(&path), |_, _| {}),
            Err(ExperimentError::SpecMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn merge_aggregates_fault_fields() {
        let spec = DatasetSpec::beijing_taiyuan(10.0, 300.0);
        let mk = |seed| {
            let mut cfg = RunConfig::new(spec.clone(), Plane::Legacy, seed);
            cfg.faults = Some(FaultConfig::aggressive());
            simulate_run(&cfg)
        };
        let (a, b) = (mk(1), mk(2));
        let dur_a_ms = a.duration_s * 1e3;
        let n_inj = a.injected.len() + b.injected.len();
        let n_oracle = a.fault_oracle.len() + b.fault_oracle.len();
        let reest = a.reestablish_attempts + b.reestablish_attempts;
        let x2 = a.signaling.x2_messages + b.signaling.x2_messages;
        let b_first_inj = b.injected.first().map(|f| f.t_ms);
        let mut m = RunMetrics::default();
        merge(&mut m, a);
        merge(&mut m, b);
        assert_eq!(m.injected.len(), n_inj);
        assert_eq!(m.fault_oracle.len(), n_oracle);
        assert_eq!(m.reestablish_attempts, reest);
        assert_eq!(m.signaling.x2_messages, x2);
        if let Some(t) = b_first_inj {
            // The second run's fault times were shifted past the first.
            assert!(m.injected.iter().any(|f| (f.t_ms - (t + dur_a_ms)).abs() < 1e-6));
        }
    }

    #[test]
    fn campaign_spec_deserializes_without_faults_field() -> Result<(), Box<dyn std::error::Error>>
    {
        // Campaign JSON from before fault injection existed has no
        // `faults` key; it must load as a clean campaign.
        let spec = CampaignSpec::new(DatasetSpec::beijing_taiyuan(10.0, 300.0));
        let mut v: serde_json::Value = serde_json::to_value(&spec)?;
        v.as_object_mut().ok_or("campaign must serialize to an object")?.remove("faults");
        let back: CampaignSpec = serde_json::from_value(v)?;
        assert!(back.faults.is_none());
        Ok(())
    }

    #[test]
    fn merge_concatenates_and_offsets() {
        let spec = DatasetSpec::beijing_taiyuan(10.0, 250.0);
        let a = simulate_run(&RunConfig::new(spec.clone(), Plane::Legacy, 1));
        let b = simulate_run(&RunConfig::new(spec, Plane::Legacy, 2));
        let (na, nb) = (a.handovers.len(), b.handovers.len());
        let dur_a = a.duration_s;
        let mut m = RunMetrics::default();
        merge(&mut m, a);
        merge(&mut m, b);
        assert_eq!(m.handovers.len(), na + nb);
        if nb > 0 {
            assert!(m.handovers[na].t_ms >= dur_a * 1e3);
        }
    }
}
