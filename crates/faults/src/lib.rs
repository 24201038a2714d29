#![warn(missing_docs)]

//! # rem-faults
//!
//! Seeded, deterministic fault injection for the REM reproduction.
//!
//! The paper's reliability claims (§2 Table 2, §4) rest on surviving
//! four concrete fault classes: feedback delay/loss, missed cells,
//! handover-command loss and coverage holes. The simulator used to
//! observe those failures only when the channel happened to produce
//! them; this crate lets a campaign *provoke* them on demand — and
//! because every injected fault carries its ground-truth
//! [`FailureCause`], the run's failure classifier can be checked
//! against an oracle instead of eyeballed.
//!
//! A [`FaultPlan`] is generated up-front from `(seed, client_id)` via
//! [`rem_num::rng::child_rng`], the same per-trial stream discipline
//! the parallel Monte-Carlo engine uses: the plan never consumes
//! simulation RNG state, so faulted campaigns stay bit-identical for
//! any worker-thread count.
//!
//! Fault taxonomy (one [`FaultKind`] per Table 2 row, plus a
//! transport-layer burst-loss channel for the TCP stack):
//!
//! | kind | injected as | ground truth |
//! |------|-------------|--------------|
//! | [`FaultKind::DropFeedback`] | measurement report dropped / delayed / corrupted | `FeedbackDelayLoss` |
//! | [`FaultKind::DropCommand`]  | handover command dropped / corrupted | `CommandLoss` |
//! | [`FaultKind::DropX2`]       | X2 preparation / state transfer lost on the backhaul | `CommandLoss` |
//! | [`FaultKind::MaskCell`]     | measurement pipeline blinded (multi-stage gap) | `MissedCell` |
//! | [`FaultKind::CoverageHole`] | timed radio blackout window | `CoverageHole` |
//!
//! ```
//! use rem_faults::{FaultConfig, FaultKind, FaultPlan};
//!
//! let cfg = FaultConfig::aggressive();
//! let plan = FaultPlan::generate(&cfg, 7, 0, 120_000.0);
//! assert!(plan.count(FaultKind::DropCommand) > 0);
//! // A plan is a pure function of (config, seed, client): regenerating
//! // it reproduces the schedule exactly, at any worker-thread count.
//! let again = FaultPlan::generate(&cfg, 7, 0, 120_000.0);
//! assert_eq!(plan.faults().len(), again.faults().len());
//! // Every window lies inside the horizon and is live at its own start.
//! assert!(plan.faults().iter().all(|f| f.start_ms < 120_000.0 && f.active_at(f.start_ms)));
//! ```

use rand::Rng;
use rem_mobility::FailureCause;
use rem_num::rng::{child_rng, exponential};
use serde::{Deserialize, Serialize};

pub mod chaos;
pub mod net;

pub use chaos::ChaosConfig;
pub use net::{NetFaultConfig, NetFaultEvent, NetFaultKind, NetFaultPlan, NetOracleMismatch};

/// One injectable fault class (the Table 2 taxonomy, plus X2 loss
/// which manifests as command loss).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Uplink measurement report never reaches (or reaches too late /
    /// garbled) the serving cell.
    DropFeedback,
    /// Downlink handover command never reaches the client.
    DropCommand,
    /// X2AP preparation or SN-status transfer lost between base
    /// stations: the command can never be issued.
    DropX2,
    /// The measurement pipeline is blinded: neighbour cells exist but
    /// are never measured/reported (the §3.2 multi-stage gap).
    MaskCell,
    /// A timed radio blackout: no cell is receivable at all.
    CoverageHole,
}

impl FaultKind {
    /// The failure cause a correctly-working classifier must assign
    /// when this fault brings the radio link down.
    pub fn ground_truth(&self) -> FailureCause {
        match self {
            FaultKind::DropFeedback => FailureCause::FeedbackDelayLoss,
            FaultKind::DropCommand | FaultKind::DropX2 => FailureCause::CommandLoss,
            FaultKind::MaskCell => FailureCause::MissedCell,
            FaultKind::CoverageHole => FailureCause::CoverageHole,
        }
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DropFeedback => "drop-feedback",
            FaultKind::DropCommand => "drop-command",
            FaultKind::DropX2 => "drop-x2",
            FaultKind::MaskCell => "mask-cell",
            FaultKind::CoverageHole => "coverage-hole",
        }
    }

    /// All kinds, in taxonomy order.
    pub fn all() -> [FaultKind; 5] {
        [
            FaultKind::DropFeedback,
            FaultKind::DropCommand,
            FaultKind::DropX2,
            FaultKind::MaskCell,
            FaultKind::CoverageHole,
        ]
    }
}

/// How a signaling-message fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultMode {
    /// The message is silently lost.
    Drop,
    /// The message is delayed past the supervision deadline
    /// (feedback only).
    Delay,
    /// The message arrives with flipped bytes; the RRC codec must
    /// reject it, which manifests as a loss.
    Corrupt,
}

/// One scheduled fault window: `kind` is active on `[start_ms, end_ms)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Window start (ms).
    pub start_ms: f64,
    /// Window end (ms, exclusive).
    pub end_ms: f64,
    /// Fault class.
    pub kind: FaultKind,
    /// Manifestation for message faults (always [`FaultMode::Drop`]
    /// for radio-window kinds).
    pub mode: FaultMode,
}

impl ScheduledFault {
    /// Whether the window covers instant `t_ms`.
    pub fn active_at(&self, t_ms: f64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms
    }
}

/// A transport-layer bursty-loss window (Gilbert-Elliott-style "bad"
/// state) for the TCP stack.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LossBurst {
    /// Burst start (ms).
    pub start_ms: f64,
    /// Burst end (ms, exclusive).
    pub end_ms: f64,
    /// Per-packet loss probability inside the burst.
    pub loss_prob: f64,
}

/// Fault-injection rates and shapes. Rates are Poisson arrivals per
/// minute of simulated time; each arrival opens a window of the
/// configured width.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Measurement-report fault windows per minute.
    pub feedback_per_min: f64,
    /// Handover-command fault windows per minute.
    pub command_per_min: f64,
    /// X2 backhaul fault windows per minute.
    pub x2_per_min: f64,
    /// Measurement-masking windows per minute.
    pub mask_per_min: f64,
    /// Injected coverage-hole windows per minute.
    pub hole_per_min: f64,
    /// Width of signaling-fault and masking windows (ms).
    pub window_ms: f64,
    /// Width of injected coverage holes (ms).
    pub hole_ms: f64,
    /// Extra latency a [`FaultMode::Delay`] feedback fault adds (ms);
    /// chosen larger than the T310-style supervision deadline so the
    /// delay is indistinguishable from loss at the state machine.
    pub extra_delay_ms: f64,
    /// Fraction of feedback faults that delay instead of drop.
    pub delay_frac: f64,
    /// Fraction of feedback/command faults that corrupt instead of
    /// drop (exercises the RRC codec's rejection path).
    pub corrupt_frac: f64,
    /// TCP bursty-loss windows per minute.
    pub tcp_burst_per_min: f64,
    /// Burst width (ms).
    pub burst_ms: f64,
    /// Packet loss probability inside a burst.
    pub burst_loss_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            feedback_per_min: 1.2,
            command_per_min: 1.2,
            x2_per_min: 0.8,
            mask_per_min: 1.0,
            hole_per_min: 0.25,
            window_ms: 3_000.0,
            hole_ms: 1_500.0,
            extra_delay_ms: 1_200.0,
            delay_frac: 0.25,
            corrupt_frac: 0.25,
            tcp_burst_per_min: 1.0,
            burst_ms: 600.0,
            burst_loss_prob: 0.35,
        }
    }
}

impl FaultConfig {
    /// A high-rate configuration for oracle tests: every fault class
    /// fires several times even on short routes.
    pub fn aggressive() -> Self {
        Self {
            feedback_per_min: 4.0,
            command_per_min: 4.0,
            x2_per_min: 2.5,
            mask_per_min: 4.0,
            hole_per_min: 1.0,
            ..Self::default()
        }
    }

    /// Scales every arrival rate by `factor` (shapes untouched).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.feedback_per_min *= factor;
        self.command_per_min *= factor;
        self.x2_per_min *= factor;
        self.mask_per_min *= factor;
        self.hole_per_min *= factor;
        self.tcp_burst_per_min *= factor;
        self
    }

    /// Arrival rate for one kind (per minute).
    pub fn rate_per_min(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::DropFeedback => self.feedback_per_min,
            FaultKind::DropCommand => self.command_per_min,
            FaultKind::DropX2 => self.x2_per_min,
            FaultKind::MaskCell => self.mask_per_min,
            FaultKind::CoverageHole => self.hole_per_min,
        }
    }

    /// The first rate or shape outside its domain, as `(field, value,
    /// reason)`, e.g. `("window_ms", 0.0, "must be finite and > 0")`;
    /// `None` when the config is valid.
    pub fn invalid_field(&self) -> Option<(&'static str, f64, &'static str)> {
        let rates = [
            ("feedback_per_min", self.feedback_per_min),
            ("command_per_min", self.command_per_min),
            ("x2_per_min", self.x2_per_min),
            ("mask_per_min", self.mask_per_min),
            ("hole_per_min", self.hole_per_min),
            ("tcp_burst_per_min", self.tcp_burst_per_min),
        ];
        if let Some((f, r)) = rates.into_iter().find(|&(_, r)| !r.is_finite() || r < 0.0) {
            return Some((f, r, "must be finite and >= 0"));
        }
        let widths = [
            ("window_ms", self.window_ms),
            ("hole_ms", self.hole_ms),
            ("burst_ms", self.burst_ms),
            ("extra_delay_ms", self.extra_delay_ms),
        ];
        if let Some((f, w)) = widths.into_iter().find(|&(_, w)| !w.is_finite() || w <= 0.0) {
            return Some((f, w, "must be finite and > 0"));
        }
        let probs = [
            ("delay_frac", self.delay_frac),
            ("corrupt_frac", self.corrupt_frac),
            ("burst_loss_prob", self.burst_loss_prob),
        ];
        if let Some((f, p)) = probs.into_iter().find(|&(_, p)| !(0.0..=1.0).contains(&p)) {
            return Some((f, p, "must be in [0, 1]"));
        }
        if self.delay_frac + self.corrupt_frac > 1.0 {
            let reason = "delay_frac + corrupt_frac must stay within [0, 1]";
            return Some(("corrupt_frac", self.corrupt_frac, reason));
        }
        None
    }
}

/// The full fault schedule of one client's run, generated up-front so
/// injection never perturbs the simulation's own RNG streams.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
    bursts: Vec<LossBurst>,
}

impl FaultPlan {
    /// A plan with nothing scheduled (fault injection off).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Generates the schedule for `(seed, client_id)` over
    /// `[0, horizon_ms)`. Every kind draws from its own
    /// [`child_rng`] stream, so enabling or re-rating one kind never
    /// shifts another kind's windows, and the plan is a pure function
    /// of its arguments — bit-identical on any thread count.
    pub fn generate(cfg: &FaultConfig, seed: u64, client_id: u64, horizon_ms: f64) -> Self {
        let mut faults = Vec::new();
        for kind in FaultKind::all() {
            let rate = cfg.rate_per_min(kind);
            if rate <= 0.0 || horizon_ms <= 0.0 {
                continue;
            }
            let mut rng = child_rng(seed, &format!("faults/{client_id}/{}", kind.label()));
            let mean_gap_ms = 60_000.0 / rate;
            let width = if kind == FaultKind::CoverageHole { cfg.hole_ms } else { cfg.window_ms };
            let mut t = exponential(&mut rng, mean_gap_ms);
            while t < horizon_ms {
                let mode = match kind {
                    FaultKind::DropFeedback | FaultKind::DropCommand => {
                        let u: f64 = rng.gen();
                        if kind == FaultKind::DropFeedback && u < cfg.delay_frac {
                            FaultMode::Delay
                        } else if u < cfg.delay_frac + cfg.corrupt_frac {
                            FaultMode::Corrupt
                        } else {
                            FaultMode::Drop
                        }
                    }
                    _ => FaultMode::Drop,
                };
                faults.push(ScheduledFault { start_ms: t, end_ms: t + width, kind, mode });
                // Windows of one kind never overlap.
                t += width + exponential(&mut rng, mean_gap_ms);
            }
        }
        faults.sort_by(|a, b| {
            a.start_ms
                .partial_cmp(&b.start_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
        });

        let mut bursts = Vec::new();
        if cfg.tcp_burst_per_min > 0.0 && horizon_ms > 0.0 {
            let mut rng = child_rng(seed, &format!("faults/{client_id}/tcp-burst"));
            let mean_gap_ms = 60_000.0 / cfg.tcp_burst_per_min;
            let mut t = exponential(&mut rng, mean_gap_ms);
            while t < horizon_ms {
                bursts.push(LossBurst {
                    start_ms: t,
                    end_ms: t + cfg.burst_ms,
                    loss_prob: cfg.burst_loss_prob,
                });
                t += cfg.burst_ms + exponential(&mut rng, mean_gap_ms);
            }
        }

        Self { faults, bursts }
    }

    /// The window of `kind` active at `t_ms`, if any.
    pub fn active(&self, kind: FaultKind, t_ms: f64) -> Option<&ScheduledFault> {
        self.faults.iter().find(|f| f.kind == kind && f.active_at(t_ms))
    }

    /// The window of `kind` active at `t_ms` or that ended within the
    /// last `slack_ms` (failure detection lags the fault that caused
    /// it, e.g. by the RLF timer).
    pub fn active_within(&self, kind: FaultKind, t_ms: f64, slack_ms: f64) -> Option<&ScheduledFault> {
        self.faults
            .iter()
            .find(|f| f.kind == kind && t_ms >= f.start_ms && t_ms < f.end_ms + slack_ms)
    }

    /// All scheduled fault windows, by start time.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// TCP bursty-loss windows, by start time.
    pub fn bursts(&self) -> &[LossBurst] {
        &self.bursts
    }

    /// Number of scheduled windows of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.faults.iter().filter(|f| f.kind == kind).count()
    }

    /// Whether nothing at all is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.bursts.is_empty()
    }
}

/// Deterministically corrupts an encoded message so the RRC codec
/// must reject it: the type tag is smashed (no valid tag survives
/// `^ 0xFF`) and the tail byte flipped for good measure.
pub fn corrupt(bytes: &mut [u8]) {
    if let Some(first) = bytes.first_mut() {
        *first ^= 0xFF;
    }
    if bytes.len() > 1 {
        let last = bytes.len() - 1;
        bytes[last] ^= 0xA5;
    }
}

/// One fault that actually bit the run (as opposed to a scheduled
/// window nothing happened to fall into).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// When it bit (ms).
    pub t_ms: f64,
    /// Fault class.
    pub kind: FaultKind,
    /// How it manifested.
    pub mode: FaultMode,
}

/// One oracle check: a failure attributable to an injected fault,
/// pairing the fault's ground-truth cause with what the run's
/// classifier decided.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OraclePair {
    /// Failure classification instant (ms).
    pub t_ms: f64,
    /// The injected fault class held responsible.
    pub kind: FaultKind,
    /// Ground truth implied by the fault class.
    pub truth: FailureCause,
    /// What the state machine classified.
    pub classified: FailureCause,
}

impl OraclePair {
    /// Whether classification agreed with ground truth.
    pub fn matches(&self) -> bool {
        self.truth == self.classified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_covers_table2() {
        assert_eq!(FaultKind::DropFeedback.ground_truth(), FailureCause::FeedbackDelayLoss);
        assert_eq!(FaultKind::DropCommand.ground_truth(), FailureCause::CommandLoss);
        assert_eq!(FaultKind::DropX2.ground_truth(), FailureCause::CommandLoss);
        assert_eq!(FaultKind::MaskCell.ground_truth(), FailureCause::MissedCell);
        assert_eq!(FaultKind::CoverageHole.ground_truth(), FailureCause::CoverageHole);
        // Every Table 2 cause is reachable by injection.
        for cause in FailureCause::all() {
            assert!(
                FaultKind::all().iter().any(|k| k.ground_truth() == cause),
                "{cause:?} unreachable"
            );
        }
    }

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let cfg = FaultConfig::default();
        let a = FaultPlan::generate(&cfg, 7, 0, 600_000.0);
        let b = FaultPlan::generate(&cfg, 7, 0, 600_000.0);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&cfg, 8, 0, 600_000.0);
        assert_ne!(a, c);
        let d = FaultPlan::generate(&cfg, 7, 1, 600_000.0);
        assert_ne!(a, d, "client_id must decorrelate plans");
    }

    #[test]
    fn plan_rates_roughly_match_config() {
        let cfg = FaultConfig::default();
        let horizon_min = 60.0;
        let plan = FaultPlan::generate(&cfg, 3, 0, horizon_min * 60_000.0);
        for kind in FaultKind::all() {
            let expect = cfg.rate_per_min(kind) * horizon_min;
            let got = plan.count(kind) as f64;
            assert!(
                (got - expect).abs() < 0.5 * expect + 5.0,
                "{kind:?}: got {got}, expected ~{expect}"
            );
        }
        let bursts = plan.bursts().len() as f64;
        let expect = cfg.tcp_burst_per_min * horizon_min;
        assert!((bursts - expect).abs() < 0.5 * expect + 5.0);
    }

    #[test]
    fn windows_sorted_and_disjoint_per_kind() {
        let plan = FaultPlan::generate(&FaultConfig::aggressive(), 11, 2, 1_200_000.0);
        for w in plan.faults().windows(2) {
            assert!(w[1].start_ms >= w[0].start_ms);
        }
        for kind in FaultKind::all() {
            let ws: Vec<_> = plan.faults().iter().filter(|f| f.kind == kind).collect();
            for w in ws.windows(2) {
                assert!(w[1].start_ms >= w[0].end_ms, "{kind:?} windows overlap");
            }
        }
    }

    #[test]
    fn active_lookups() {
        let cfg = FaultConfig { hole_per_min: 2.0, ..FaultConfig::default() };
        let plan = FaultPlan::generate(&cfg, 5, 0, 600_000.0);
        let hole = plan.faults().iter().find(|f| f.kind == FaultKind::CoverageHole).unwrap();
        let mid = (hole.start_ms + hole.end_ms) / 2.0;
        assert_eq!(plan.active(FaultKind::CoverageHole, mid).unwrap().start_ms, hole.start_ms);
        assert!(plan.active(FaultKind::CoverageHole, hole.end_ms + 1e9).is_none());
        // Slack keeps the window attributable shortly after it closes.
        assert!(plan.active_within(FaultKind::CoverageHole, hole.end_ms + 100.0, 500.0).is_some());
        assert!(plan
            .active_within(FaultKind::CoverageHole, hole.end_ms + 600.0, 500.0)
            .is_none_or(|f| f.start_ms != hole.start_ms));
    }

    #[test]
    fn empty_plan_and_zero_rates() {
        assert!(FaultPlan::empty().is_empty());
        let off = FaultConfig {
            feedback_per_min: 0.0,
            command_per_min: 0.0,
            x2_per_min: 0.0,
            mask_per_min: 0.0,
            hole_per_min: 0.0,
            tcp_burst_per_min: 0.0,
            ..FaultConfig::default()
        };
        assert!(FaultPlan::generate(&off, 1, 0, 600_000.0).is_empty());
        assert!(FaultPlan::generate(&FaultConfig::default(), 1, 0, 0.0).is_empty());
    }

    #[test]
    fn config_validation() {
        assert_eq!(FaultConfig::default().invalid_field(), None);
        assert_eq!(FaultConfig::aggressive().invalid_field(), None);
        let field = |bad: FaultConfig| bad.invalid_field().map(|(f, v, _)| (f, v));
        let bad = FaultConfig { feedback_per_min: -1.0, ..FaultConfig::default() };
        assert_eq!(field(bad), Some(("feedback_per_min", -1.0)));
        let bad = FaultConfig { burst_loss_prob: 1.5, ..FaultConfig::default() };
        assert_eq!(field(bad), Some(("burst_loss_prob", 1.5)));
        let bad = FaultConfig { delay_frac: 0.8, corrupt_frac: 0.5, ..FaultConfig::default() };
        assert_eq!(field(bad), Some(("corrupt_frac", 0.5)));
        let bad = FaultConfig { window_ms: 0.0, ..FaultConfig::default() };
        assert_eq!(field(bad), Some(("window_ms", 0.0)));
    }

    #[test]
    fn corruption_defeats_the_rrc_codec() {
        use rem_mobility::{CellId, RrcMessage};
        let messages = [
            RrcMessage::MeasurementReport { cells: vec![(CellId(3), -4.5), (CellId(9), 2.0)] },
            RrcMessage::HandoverCommand { target: CellId(12) },
            RrcMessage::Reconfiguration { earfcns: vec![1850, 2452] },
            RrcMessage::HandoverComplete,
        ];
        for msg in messages {
            let mut raw = msg.encode();
            corrupt(&mut raw);
            assert!(RrcMessage::decode(&raw).is_none(), "corrupted {msg:?} must not decode");
        }
    }

    #[test]
    fn oracle_pair_matches() {
        let ok = OraclePair {
            t_ms: 1.0,
            kind: FaultKind::DropCommand,
            truth: FailureCause::CommandLoss,
            classified: FailureCause::CommandLoss,
        };
        assert!(ok.matches());
        let bad = OraclePair { classified: FailureCause::MissedCell, ..ok };
        assert!(!bad.matches());
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::generate(&FaultConfig::default(), 2, 1, 300_000.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
