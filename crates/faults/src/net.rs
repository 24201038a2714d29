//! Transport-pathology fault schedules with ground-truth stall
//! attribution.
//!
//! The signaling-layer [`FaultPlan`](crate::FaultPlan) provokes the
//! paper's Table 2 handover failures; this module does the same job one
//! layer up, for the cellular *path* pathologies the NG-RMTP report and
//! the CGNAT campaign journals document: bufferbloat (a finite
//! bottleneck queue whose queuing delay inflates RTT past the adapted
//! RTO), delay-jitter spike episodes, silent NAT rebinds that zombie
//! the flow, and handover-aligned radio outage bursts.
//!
//! A [`NetFaultPlan`] is generated up-front from `(seed, client_id)`
//! with one [`child_rng`] stream per pathology
//! (`netfaults/{client}/{label}`), so re-rating one pathology never
//! shifts another's windows and plans are bit-identical on any worker
//! thread count. [`NetFaultPlan::apply`] stamps the schedule onto a
//! [`LinkModel`]; after the transfer, [`NetFaultPlan::check_stalls`]
//! and [`NetFaultPlan::check_recoveries`] score the run's classified
//! stalls and recovery actions against the ground truth — every scored
//! stall cause and every recovery event must be attributable to a fault
//! that actually happened.

use rem_net::tcp::{BloatEpisode, JitterEpisode, LinkModel, NatRebind, Outage};
use rem_net::{ClassifiedStall, RecoveryEvent, RecoveryKind, StallCause};
use rem_num::rng::{child_rng, exponential};
use serde::{Deserialize, Serialize};

/// One injectable transport pathology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetFaultKind {
    /// Finite bottleneck queue fills (cross-traffic backlog plus our
    /// own flood); queuing delay jumps past the adapted RTO.
    Bufferbloat,
    /// Per-packet delay jitter spikes (scheduler stalls, HARQ bursts).
    JitterSpike,
    /// The NAT binding dies silently: every in-flight and future packet
    /// of the old binding epoch is dropped without a signal.
    NatRebind,
    /// A radio blackout burst aligned with handover overlap.
    HandoverOutage,
}

impl NetFaultKind {
    /// Short display label (also the [`child_rng`] stream suffix).
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::Bufferbloat => "bufferbloat",
            NetFaultKind::JitterSpike => "jitter-spike",
            NetFaultKind::NatRebind => "nat-rebind",
            NetFaultKind::HandoverOutage => "handover-outage",
        }
    }

    /// The stall cause a correct classifier assigns to a stall this
    /// pathology produces. Jitter spikes stall the flow only through
    /// the spurious timeouts they trigger, so they score as RTO
    /// backoff.
    pub fn ground_truth(&self) -> StallCause {
        match self {
            NetFaultKind::Bufferbloat => StallCause::Bufferbloat,
            NetFaultKind::JitterSpike => StallCause::RtoBackoff,
            NetFaultKind::NatRebind => StallCause::NatRebind,
            NetFaultKind::HandoverOutage => StallCause::HandoverOutage,
        }
    }

    /// All kinds, in taxonomy order.
    pub fn all() -> [NetFaultKind; 4] {
        [
            NetFaultKind::Bufferbloat,
            NetFaultKind::JitterSpike,
            NetFaultKind::NatRebind,
            NetFaultKind::HandoverOutage,
        ]
    }
}

/// One scheduled pathology window. For [`NetFaultKind::NatRebind`] the
/// event is instantaneous and `end_ms == start_ms`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetFaultEvent {
    /// Window start (ms).
    pub start_ms: f64,
    /// Window end (ms, exclusive; equals `start_ms` for rebinds).
    pub end_ms: f64,
    /// Pathology class.
    pub kind: NetFaultKind,
}

/// Pathology arrival rates (Poisson, per minute of simulated time) and
/// window shapes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetFaultConfig {
    /// Bufferbloat episodes per minute.
    pub bloat_per_min: f64,
    /// Bufferbloat episode width (ms).
    pub bloat_ms: f64,
    /// Bottleneck drain rate inside a bloat episode (packets/ms).
    pub bloat_drain_pkts_per_ms: f64,
    /// Bottleneck queue capacity (packets).
    pub bloat_queue_pkts: f64,
    /// Cross-traffic backlog already queued at episode onset (packets);
    /// this is what makes the delay *jump* rather than ramp.
    pub bloat_standing_pkts: f64,
    /// Jitter episodes per minute.
    pub jitter_per_min: f64,
    /// Jitter episode width (ms).
    pub jitter_ms: f64,
    /// Maximum per-packet delay spike inside a jitter episode (ms).
    pub jitter_spike_ms: f64,
    /// NAT rebind events per minute.
    pub rebind_per_min: f64,
    /// Handover-aligned outage bursts per minute.
    pub outage_per_min: f64,
    /// Outage burst width (ms).
    pub outage_ms: f64,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        Self {
            bloat_per_min: 0.4,
            bloat_ms: 2_500.0,
            bloat_drain_pkts_per_ms: 0.05,
            bloat_queue_pkts: 120.0,
            bloat_standing_pkts: 100.0,
            jitter_per_min: 0.8,
            jitter_ms: 1_500.0,
            jitter_spike_ms: 120.0,
            rebind_per_min: 0.12,
            outage_per_min: 0.5,
            outage_ms: 1_200.0,
        }
    }
}

impl NetFaultConfig {
    /// A high-rate configuration for oracle tests: every pathology
    /// fires even on short transfers.
    pub fn aggressive() -> Self {
        Self {
            bloat_per_min: 1.2,
            jitter_per_min: 2.0,
            rebind_per_min: 0.8,
            outage_per_min: 1.5,
            ..Self::default()
        }
    }

    /// Arrival rate for one kind (per minute).
    pub fn rate_per_min(&self, kind: NetFaultKind) -> f64 {
        match kind {
            NetFaultKind::Bufferbloat => self.bloat_per_min,
            NetFaultKind::JitterSpike => self.jitter_per_min,
            NetFaultKind::NatRebind => self.rebind_per_min,
            NetFaultKind::HandoverOutage => self.outage_per_min,
        }
    }

    /// Window width for one kind (0 for instantaneous rebinds).
    fn width_ms(&self, kind: NetFaultKind) -> f64 {
        match kind {
            NetFaultKind::Bufferbloat => self.bloat_ms,
            NetFaultKind::JitterSpike => self.jitter_ms,
            NetFaultKind::NatRebind => 0.0,
            NetFaultKind::HandoverOutage => self.outage_ms,
        }
    }

    /// The first rate or shape outside its domain, as `(field, value,
    /// reason)`; `None` when the config is valid.
    pub fn invalid_field(&self) -> Option<(&'static str, f64, &'static str)> {
        let non_negative = [
            ("bloat_per_min", self.bloat_per_min),
            ("jitter_per_min", self.jitter_per_min),
            ("rebind_per_min", self.rebind_per_min),
            ("outage_per_min", self.outage_per_min),
            ("bloat_standing_pkts", self.bloat_standing_pkts),
            ("jitter_spike_ms", self.jitter_spike_ms),
        ];
        if let Some((f, v)) = non_negative.into_iter().find(|&(_, v)| !v.is_finite() || v < 0.0) {
            return Some((f, v, "must be finite and >= 0"));
        }
        let positive = [
            ("bloat_ms", self.bloat_ms),
            ("jitter_ms", self.jitter_ms),
            ("outage_ms", self.outage_ms),
            ("bloat_drain_pkts_per_ms", self.bloat_drain_pkts_per_ms),
        ];
        if let Some((f, v)) = positive.into_iter().find(|&(_, v)| !v.is_finite() || v <= 0.0) {
            return Some((f, v, "must be finite and > 0"));
        }
        if !(self.bloat_queue_pkts.is_finite() && self.bloat_queue_pkts >= 1.0) {
            return Some(("bloat_queue_pkts", self.bloat_queue_pkts, "must be finite and >= 1"));
        }
        None
    }
}

/// One oracle mismatch: a scored stall or recovery action with no
/// ground-truth fault to justify it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetOracleMismatch {
    /// When the unjustified classification happened (ms).
    pub t_ms: f64,
    /// What the classifier (or recovery machinery) claimed.
    pub claimed: StallCause,
}

/// The full pathology schedule of one client's transfer, generated
/// up-front so injection never perturbs the simulation's RNG streams.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetFaultPlan {
    events: Vec<NetFaultEvent>,
}

impl NetFaultPlan {
    /// A plan with nothing scheduled.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Generates the schedule for `(seed, client_id)` over
    /// `[0, horizon_ms)`. Each pathology draws from its own
    /// `netfaults/{client}/{label}` stream.
    pub fn generate(cfg: &NetFaultConfig, seed: u64, client_id: u64, horizon_ms: f64) -> Self {
        let mut events = Vec::new();
        for kind in NetFaultKind::all() {
            let rate = cfg.rate_per_min(kind);
            if rate <= 0.0 || horizon_ms <= 0.0 {
                continue;
            }
            let mut rng = child_rng(seed, &format!("netfaults/{client_id}/{}", kind.label()));
            let mean_gap_ms = 60_000.0 / rate;
            let width = cfg.width_ms(kind);
            let mut t = exponential(&mut rng, mean_gap_ms);
            while t < horizon_ms {
                events.push(NetFaultEvent { start_ms: t, end_ms: t + width, kind });
                // Windows of one kind never overlap.
                t += width + exponential(&mut rng, mean_gap_ms);
            }
        }
        events.sort_by(|a, b| {
            a.start_ms
                .partial_cmp(&b.start_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
        });
        Self { events }
    }

    /// Stamps the schedule onto a link. The pathology RNG stream seed
    /// (jitter draws) is derived from `(seed, client_id)` passed at
    /// generation time by the caller; `apply` only populates the event
    /// vectors, leaving `rtt_ms` / capacity / loss untouched.
    pub fn apply(&self, cfg: &NetFaultConfig, link: &mut LinkModel) {
        for e in &self.events {
            match e.kind {
                NetFaultKind::Bufferbloat => link.bloat.push(BloatEpisode {
                    start_ms: e.start_ms,
                    end_ms: e.end_ms,
                    drain_pkts_per_ms: cfg.bloat_drain_pkts_per_ms,
                    queue_pkts: cfg.bloat_queue_pkts,
                    standing_pkts: cfg.bloat_standing_pkts,
                }),
                NetFaultKind::JitterSpike => link.jitter.push(JitterEpisode {
                    start_ms: e.start_ms,
                    end_ms: e.end_ms,
                    spike_ms: cfg.jitter_spike_ms,
                }),
                NetFaultKind::NatRebind => link.rebinds.push(NatRebind { t_ms: e.start_ms }),
                NetFaultKind::HandoverOutage => {
                    link.outages.push(Outage { start_ms: e.start_ms, end_ms: e.end_ms })
                }
            }
        }
    }

    /// All scheduled events, by start time.
    pub fn events(&self) -> &[NetFaultEvent] {
        &self.events
    }

    /// Number of scheduled events of one kind.
    pub fn count(&self, kind: NetFaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether some ground-truth event could have produced a stall of
    /// `cause` overlapping `[start_ms, end_ms]` (with `slack_ms` of
    /// attribution lag on both sides — detection lags the fault, and a
    /// queue keeps delaying packets after its episode closes). A
    /// rebind justifies any stall from the rebind instant onward, since
    /// a zombied flow stays stalled until (unless) it reconnects.
    pub fn justifies(&self, cause: StallCause, start_ms: f64, end_ms: f64, slack_ms: f64) -> bool {
        self.events.iter().any(|e| {
            e.kind.ground_truth() == cause
                && match e.kind {
                    NetFaultKind::NatRebind => {
                        e.start_ms <= end_ms && e.start_ms >= start_ms - slack_ms
                    }
                    _ => e.start_ms < end_ms + slack_ms && start_ms < e.end_ms + slack_ms,
                }
        })
    }

    /// Scores classified stalls against the ground truth: every stall
    /// whose dominant cause names a pathology must overlap (within
    /// `slack_ms`) a scheduled event of that pathology. RTO-backoff
    /// stalls need no event — plain loss produces them — *unless* the
    /// plan is empty of every kind that can masquerade as one.
    pub fn check_stalls(&self, stalls: &[ClassifiedStall], slack_ms: f64) -> Vec<NetOracleMismatch> {
        stalls
            .iter()
            .filter(|s| {
                s.cause != StallCause::RtoBackoff
                    && !self.justifies(s.cause, s.start_ms, s.end_ms, slack_ms)
            })
            .map(|s| NetOracleMismatch { t_ms: s.start_ms, claimed: s.cause })
            .collect()
    }

    /// Scores recovery actions against the ground truth: a reconnect
    /// must follow a scheduled rebind, a spurious-RTO undo must follow
    /// a delay pathology (bufferbloat or jitter window), and a forecast
    /// freeze must cover a scheduled outage.
    pub fn check_recoveries(
        &self,
        recoveries: &[RecoveryEvent],
        slack_ms: f64,
    ) -> Vec<NetOracleMismatch> {
        let recent = |t: f64, kind: NetFaultKind| {
            self.events
                .iter()
                .any(|e| e.kind == kind && e.start_ms <= t && t < e.end_ms + slack_ms)
        };
        recoveries
            .iter()
            .filter_map(|r| match r.kind {
                RecoveryKind::Reconnect => {
                    // A zombied flow may take several backoff rounds to
                    // re-establish; any prior rebind justifies it. So
                    // does a recent handover outage: the zombie
                    // detector is a consecutive-RTO heuristic and
                    // cannot distinguish a dead binding from a radio
                    // blackout that outlives the RTO ladder, so a
                    // reconnect fired inside a long outage is
                    // explainable, not fabricated.
                    let ok = self
                        .events
                        .iter()
                        .any(|e| e.kind == NetFaultKind::NatRebind && e.start_ms <= r.t_ms)
                        || recent(r.t_ms, NetFaultKind::HandoverOutage);
                    (!ok).then_some(NetOracleMismatch { t_ms: r.t_ms, claimed: StallCause::NatRebind })
                }
                RecoveryKind::SpuriousRtoUndo => {
                    let ok = recent(r.t_ms, NetFaultKind::Bufferbloat)
                        || recent(r.t_ms, NetFaultKind::JitterSpike);
                    (!ok).then_some(NetOracleMismatch {
                        t_ms: r.t_ms,
                        claimed: StallCause::Bufferbloat,
                    })
                }
                RecoveryKind::ForecastFreeze => {
                    let ok = recent(r.t_ms, NetFaultKind::HandoverOutage);
                    (!ok).then_some(NetOracleMismatch {
                        t_ms: r.t_ms,
                        claimed: StallCause::HandoverOutage,
                    })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_net::tcp::{simulate_transfer_resilient, TcpConfig};
    use rem_net::{classify_stalls, ResilienceConfig};

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let cfg = NetFaultConfig::default();
        let a = NetFaultPlan::generate(&cfg, 7, 0, 600_000.0);
        let b = NetFaultPlan::generate(&cfg, 7, 0, 600_000.0);
        assert_eq!(a, b);
        assert_ne!(a, NetFaultPlan::generate(&cfg, 8, 0, 600_000.0));
        assert_ne!(a, NetFaultPlan::generate(&cfg, 7, 1, 600_000.0));
    }

    #[test]
    fn rerating_one_kind_never_shifts_another() {
        let base = NetFaultConfig::default();
        let more_jitter = NetFaultConfig { jitter_per_min: 4.0, ..base.clone() };
        let a = NetFaultPlan::generate(&base, 3, 0, 600_000.0);
        let b = NetFaultPlan::generate(&more_jitter, 3, 0, 600_000.0);
        for kind in [NetFaultKind::Bufferbloat, NetFaultKind::NatRebind, NetFaultKind::HandoverOutage]
        {
            let xs: Vec<_> = a.events().iter().filter(|e| e.kind == kind).collect();
            let ys: Vec<_> = b.events().iter().filter(|e| e.kind == kind).collect();
            assert_eq!(xs, ys, "{kind:?} windows shifted when jitter was re-rated");
        }
    }

    #[test]
    fn plan_rates_roughly_match_config() {
        let cfg = NetFaultConfig::aggressive();
        let horizon_min = 60.0;
        let plan = NetFaultPlan::generate(&cfg, 5, 0, horizon_min * 60_000.0);
        for kind in NetFaultKind::all() {
            let expect = cfg.rate_per_min(kind) * horizon_min;
            let got = plan.count(kind) as f64;
            assert!(
                (got - expect).abs() < 0.5 * expect + 5.0,
                "{kind:?}: got {got}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn apply_yields_a_valid_link() {
        let cfg = NetFaultConfig::aggressive();
        let plan = NetFaultPlan::generate(&cfg, 11, 2, 300_000.0);
        assert!(!plan.is_empty());
        let mut link = LinkModel::default();
        plan.apply(&cfg, &mut link);
        link.validate().expect("applied plan must validate");
        assert_eq!(link.bloat.len(), plan.count(NetFaultKind::Bufferbloat));
        assert_eq!(link.jitter.len(), plan.count(NetFaultKind::JitterSpike));
        assert_eq!(link.rebinds.len(), plan.count(NetFaultKind::NatRebind));
        assert_eq!(link.outages.len(), plan.count(NetFaultKind::HandoverOutage));
    }

    #[test]
    fn config_validation() {
        assert_eq!(NetFaultConfig::default().invalid_field(), None);
        assert_eq!(NetFaultConfig::aggressive().invalid_field(), None);
        let field = |bad: NetFaultConfig| bad.invalid_field().map(|(f, _, _)| f);
        let bad = NetFaultConfig { rebind_per_min: -0.1, ..NetFaultConfig::default() };
        assert_eq!(field(bad), Some("rebind_per_min"));
        let bad = NetFaultConfig { bloat_queue_pkts: 0.0, ..NetFaultConfig::default() };
        assert_eq!(field(bad), Some("bloat_queue_pkts"));
        let bad = NetFaultConfig { outage_ms: f64::NAN, ..NetFaultConfig::default() };
        assert_eq!(field(bad), Some("outage_ms"));
    }

    #[test]
    fn oracle_passes_on_a_real_faulted_transfer() {
        let cfg = NetFaultConfig::aggressive();
        let plan = NetFaultPlan::generate(&cfg, 21, 0, 60_000.0);
        let mut link = LinkModel { loss_prob: 0.005, ..LinkModel::default() };
        link.pathology_seed = 99;
        plan.apply(&cfg, &mut link);
        let mut rng = child_rng(21, "netfaults-test/replay");
        let trace = simulate_transfer_resilient(
            &TcpConfig::default(),
            &ResilienceConfig::frto(),
            &link,
            60_000.0,
            &mut rng,
        );
        let stalls = classify_stalls(&trace, &link, 1_000.0);
        let stall_mismatches = plan.check_stalls(&stalls, 2_000.0);
        assert!(stall_mismatches.is_empty(), "unjustified stalls: {stall_mismatches:?}");
        let rec_mismatches = plan.check_recoveries(&trace.net.recovery_events, 2_000.0);
        assert!(rec_mismatches.is_empty(), "unjustified recoveries: {rec_mismatches:?}");
    }

    #[test]
    fn oracle_flags_fabricated_claims() {
        let plan = NetFaultPlan::empty();
        let stall = ClassifiedStall {
            start_ms: 1_000.0,
            end_ms: 4_000.0,
            cause: StallCause::NatRebind,
            breakdown: Default::default(),
        };
        let mismatches = plan.check_stalls(std::slice::from_ref(&stall), 500.0);
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].claimed, StallCause::NatRebind);
        let rec = RecoveryEvent { t_ms: 2_000.0, kind: RecoveryKind::Reconnect };
        assert_eq!(plan.check_recoveries(&[rec], 500.0).len(), 1);
        // RTO-backoff stalls need no justification (plain loss).
        let benign = ClassifiedStall { cause: StallCause::RtoBackoff, ..stall };
        assert!(plan.check_stalls(&[benign], 500.0).is_empty());
    }
}
