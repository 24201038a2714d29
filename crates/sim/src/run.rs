//! The mobility-management campaign simulator.
//!
//! Replays a client moving along a synthetic route (dataset spec) under
//! either the legacy 4G/5G signaling plane or REM's delay-Doppler
//! overlay, reproducing the paper's replay methodology (§7): same
//! radio environment, same policies, different mobility machinery.
//!
//! A replay has two halves, and [`simulate_planes`] steps one over the
//! other:
//!
//! - the **environment stream** (`EnvStream`): the deployment, owned by
//!   its [`RadioEnv`], the `environment` RNG stream, the trajectory and
//!   the last second of observations. It depends on the dataset and the
//!   seed only, never on the plane, so both planes of a seed replay the
//!   same radio conditions;
//! - the **plane state** (`PlaneState`), one per plane: the client's
//!   connection state, its event monitors, the RLF bookkeeping, the
//!   `link-<plane>` and `estimation` RNG streams and the metrics.
//!   `PlaneState::step` advances it by one epoch of the stream.
//!
//! One stream feeds every plane in lock-step, one observation per
//! epoch: the paired comparison observes the environment once for both
//! planes, and [`simulate_run`] is the one-plane case of the same loop.
//!
//! Per measurement epoch (20 ms):
//!
//! 1. the stream advances the client and observes per-cell RSRP/SNR
//!    (slow envelope);
//! 2. the plane evaluates measurement events on *stale* observations —
//!    the staleness models the sequential measurement + reporting
//!    pipeline of §3.1 (legacy intra ≈ 160 ms, inter ≈ 640 ms; REM ≈
//!    40 ms via cross-band estimation);
//! 3. fired events start a handover attempt: uplink report, decision,
//!    downlink command, attach — each message drawn from the
//!    waveform-dependent link model (OFDM for legacy, OTFS for REM);
//! 4. radio-link failure (serving SINR below `Q_out` for 200 ms) ends
//!    connectivity; the failure is classified with the Table 2 taxonomy
//!    and an outage runs until re-establishment.

use crate::dataset::DatasetSpec;
use crate::deployment::{CellIndex, Deployment};
use crate::linkmodel::{deliver_with_harq, LinkDraw, SignalingLinkCfg};
use crate::metrics::{detect_loops, FailureRecord, HandoverRecord, RunMetrics};
use crate::radio::{CellRadio, RadioEnv, ShadowingCfg};
use crate::trace::SignalingEvent;
use crate::trajectory::Trajectory;
use rem_faults::{FaultConfig, FaultKind, FaultMode, FaultPlan, InjectedFault, OraclePair};
use rem_mobility::events::{EventConfig, EventKind, EventMonitor};
use rem_mobility::x2::target_handle_request;
use rem_mobility::{
    AdmissionControl, CellId, FailureCause, HandoverAttempt, HandoverPreparation, RrcMessage,
    SupervisionTimers, UeId, X2Message,
};
use rem_num::rng::{child_rng, normal};
use rem_num::SimRng;
use rem_phy::link::bler_estimate;
use rem_phy::{Modulation, Waveform};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which signaling plane drives mobility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plane {
    /// Wireless-signal-strength-based 4G/5G (OFDM signaling,
    /// multi-stage policy, sequential measurements).
    Legacy,
    /// REM: delay-Doppler overlay (OTFS signaling, cross-band
    /// estimation, simplified conflict-free A3 policy).
    Rem,
}

/// Which REM components are active (component ablations). Defaults to
/// the full system; switching parts off isolates each mechanism's
/// contribution to the failure reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemAblation {
    /// Delay-Doppler OTFS signaling overlay (§5.1). Off = REM's
    /// policies/feedback ride legacy OFDM signaling.
    pub otfs_signaling: bool,
    /// Cross-band estimation (§5.2). Off = REM measures with legacy
    /// sequential staleness.
    pub crossband_feedback: bool,
}

impl Default for RemAblation {
    fn default() -> Self {
        Self { otfs_signaling: true, crossband_feedback: true }
    }
}

/// One simulation run's configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The dataset (route, radio plan, policy mix, speed).
    pub spec: DatasetSpec,
    /// Signaling plane under test.
    pub plane: Plane,
    /// Master seed (environment stream is shared across planes so both
    /// replay the *same* radio conditions).
    pub seed: u64,
    /// Whether REM clamps negative A3 offsets (Theorem 2 repair).
    /// Fig 15 evaluates failures with this on.
    pub rem_clamp_offsets: bool,
    /// REM component switches (ablation studies).
    pub ablation: RemAblation,
    /// Record the full signaling event trace into
    /// [`RunMetrics::trace`] (off by default: long campaigns produce
    /// large traces).
    pub record_trace: bool,
    /// Link model for signaling messages.
    pub link: SignalingLinkCfg,
    /// Client index within a multi-client campaign. Decorrelates the
    /// per-client fault plans (and nothing else): the `(seed,
    /// client_id)` pair fully determines the injected schedule.
    pub client_id: u64,
    /// Fault-injection configuration; `None` disables injection and
    /// leaves the run on the exact healthy code path.
    pub faults: Option<FaultConfig>,
    /// T310/T304-style supervision deadlines for in-flight attempts.
    pub timers: SupervisionTimers,
    /// RRC re-establishment retry policy after radio link failure.
    pub reestablish: ReestablishCfg,
}

impl RunConfig {
    /// Standard configuration for a spec/plane/seed triple.
    pub fn new(spec: DatasetSpec, plane: Plane, seed: u64) -> Self {
        Self {
            spec,
            plane,
            seed,
            rem_clamp_offsets: true,
            ablation: RemAblation::default(),
            record_trace: false,
            link: SignalingLinkCfg::default(),
            client_id: 0,
            faults: None,
            timers: SupervisionTimers::default(),
            reestablish: ReestablishCfg::default(),
        }
    }
}

/// Bounded-retry RRC re-establishment with exponential backoff.
///
/// After a radio link failure the client scans (cell search + RACH,
/// ~2 s), then attempts re-establishment. A failed
/// attempt (no admissible cell, or an injected blackout) backs off
/// exponentially; once `max_attempts` retries are exhausted the client
/// abandons re-establishment and falls back to a full scan + RRC setup
/// from scratch, resetting the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReestablishCfg {
    /// Retries before falling back to RRC setup from scratch.
    pub max_attempts: u32,
    /// First retry backoff (ms).
    pub initial_backoff_ms: f64,
    /// Multiplier applied per successive retry.
    pub backoff_factor: f64,
}

impl Default for ReestablishCfg {
    fn default() -> Self {
        Self { max_attempts: 4, initial_backoff_ms: 200.0, backoff_factor: 2.0 }
    }
}

const EPOCH_MS: f64 = 20.0;
const RANGE_M: f64 = 4_000.0;
/// Observations kept for the staleness lookups: one second of epochs.
const HISTORY_LEN: usize = (1_000.0 / EPOCH_MS) as usize + 2;
/// Minimum target SINR to attach (dB).
const ATTACH_MIN_SNR_DB: f64 = -6.0;
/// Q_out: serving SINR below this arms the RLF timer (dB).
const RLF_SNR_DB: f64 = -8.0;
/// RLF timer (ms) — T310-like.
const RLF_TIMER_MS: f64 = 200.0;
/// HARQ attempts per signaling message.
const HARQ_ATTEMPTS: usize = 3;
/// Per-HARQ-attempt airtime (ms).
const HARQ_MS: f64 = 8.0;
/// Serving-cell decision processing (ms).
const DECISION_MS: f64 = 10.0;
/// Random-access + attach time at the target (ms).
const ATTACH_MS: f64 = 30.0;
/// Radio-link-failure recovery time before service resumes: cell
/// scan + RACH + RRC re-establishment + context recovery (ms).
const REESTABLISH_SCAN_MS: f64 = 2_000.0;
/// Ping-pong window (Fig 3 shows 8 handovers within 15 s).
const LOOP_WINDOW_MS: f64 = 15_000.0;
/// Service interruption per handover (ms).
const HO_DISRUPTION_MS: f64 = 100.0;
/// Post-handover measurement settling guard (ms): L3 filtering and
/// re-synchronisation keep the next trigger ~seconds away (Fig 3b
/// shows ping-pong at a ~2 s cadence, not per-TTT).
const POST_HO_GUARD_MS: f64 = 1_500.0;
/// Legacy multi-stage thresholds (Fig 1b).
const A2_THRESH_DBM: f64 = -112.0;
const A1_THRESH_DBM: f64 = -100.0;
const A4_THRESH_DBM: f64 = -110.0;
/// REM's single-stage A3 time-to-trigger (ms).
const REM_TTT_MS: f64 = 40.0;
/// X2 handover-preparation round trip on the backhaul (ms).
const X2_PREP_MS: f64 = 5.0;
/// Serving-cell guard timer on a lost X2 preparation (ms).
const X2_PREP_TIMEOUT_MS: f64 = 120.0;
/// How long after a measurement-masking window closes a missed-cell
/// failure is still attributed to it (the fade + RLF timer lag the
/// blinding that caused them).
const MASK_ATTRIB_SLACK_MS: f64 = 1_000.0;
/// How long a broken signaling exchange still explains a radio-link
/// failure (ms).
const MSG_FAILURE_ATTRIB_MS: f64 = 5_000.0;
/// Cross-band estimates outside this envelope (Fig 12's 90% bound) are
/// low-confidence: REM degrades to directly-measured cells only.
const CONF_LIMIT_DB: f64 = 2.0;

/// Runs one campaign and returns its metrics.
pub fn simulate_run(cfg: &RunConfig) -> RunMetrics {
    let [metrics] = simulate_planes(cfg, [cfg.plane]);
    metrics
}

/// Runs `cfg` once per plane in `planes`, all of them in lock-step on
/// one environment stream, and returns their metrics in that order
/// (`cfg.plane` is not read). No plane draws from the stream, so each
/// plane's metrics equal [`simulate_run`] of `cfg` with that plane.
pub fn simulate_planes<const N: usize>(cfg: &RunConfig, planes: [Plane; N]) -> [RunMetrics; N] {
    let mut env = EnvStream::new(&cfg.spec, cfg.seed);
    let mut states = planes.map(|plane| PlaneState::new(cfg, plane, &env.cells, env.attach));
    while let Some(epoch) = env.next_epoch() {
        for state in &mut states {
            state.step(&epoch);
        }
    }
    states.map(PlaneState::finish)
}

/// The plane-independent half of a replay. Only
/// [`DeploymentSpec::generate`](crate::deployment::DeploymentSpec::generate)
/// and [`RadioEnv::observe_into`] draw from its `environment` stream.
struct EnvStream {
    radio: RadioEnv,
    /// The deployment's cells by id, built once.
    cells: CellIndex,
    rng: SimRng,
    trajectory: Trajectory,
    duration_ms: f64,
    /// Start of the next epoch (ms).
    t: f64,
    /// The initial attach: the strongest cell at the route start.
    attach: Option<CellId>,
    /// One observation per epoch over the last second, each sorted by
    /// `CellId`. Slots are recycled once the ring is full, so the
    /// stream stops allocating after its first second.
    history: VecDeque<(f64, Vec<CellRadio>)>,
}

impl EnvStream {
    /// The stream of `spec` under `seed`, with the client observed once
    /// at the route start for its initial attach.
    fn new(spec: &DatasetSpec, seed: u64) -> Self {
        let mut rng = child_rng(seed, "environment");
        let deployment = spec.deployment.generate(&mut rng);
        let shadowing =
            ShadowingCfg { sigma_db: spec.shadow_sigma_db, d_corr_m: spec.shadow_dcorr_m };
        let cells = CellIndex::new(&deployment);
        let mut radio = RadioEnv::new(deployment, shadowing);
        let first = radio.observe(0.0, RANGE_M, &mut rng);
        Self {
            radio,
            cells,
            rng,
            trajectory: spec.trajectory(),
            duration_ms: spec.duration_s() * 1e3,
            t: 0.0,
            attach: strongest(&first, |_| true).map(|c| c.cell),
            history: VecDeque::with_capacity(HISTORY_LEN),
        }
    }

    /// Advances the client by one epoch and observes every cell in
    /// range; `None` once the route is done.
    fn next_epoch(&mut self) -> Option<Epoch<'_>> {
        let t = self.t;
        if t >= self.duration_ms {
            return None;
        }
        self.t += EPOCH_MS;
        let (pos_m, speed_ms) = self.trajectory.state_at(t / 1e3);
        let mut slot = if self.history.len() == HISTORY_LEN {
            self.history.pop_front().expect("the history is full").1
        } else {
            Vec::new()
        };
        self.radio.observe_into(pos_m, RANGE_M, &mut self.rng, &mut slot);
        // Observation order is `CellId` order on every generated
        // deployment; only a hand-numbered one needs the sort.
        if !slot.is_sorted_by_key(|c| c.cell) {
            slot.sort_unstable_by_key(|c| c.cell);
        }
        self.history.push_back((t, slot));
        let history = &self.history;
        Some(Epoch {
            t,
            pos_m,
            speed_ms,
            deployment: self.radio.deployment(),
            cells: &self.cells,
            now: &history.back().expect("pushed above").1,
            history,
        })
    }
}

/// One epoch of the environment stream, as every plane sees it.
struct Epoch<'a> {
    t: f64,
    pos_m: f64,
    speed_ms: f64,
    deployment: &'a Deployment,
    cells: &'a CellIndex,
    /// This epoch's observation, sorted by `CellId`.
    now: &'a [CellRadio],
    /// The observations of the last second, one per epoch, `EPOCH_MS`
    /// apart and ending with this epoch's.
    history: &'a VecDeque<(f64, Vec<CellRadio>)>,
}

impl<'a> Epoch<'a> {
    /// The latest observation at least `delay_ms` old (the oldest one
    /// kept while the run is younger than that), sorted by `CellId`.
    ///
    /// Observations are `EPOCH_MS` apart, so the answer is normally
    /// `ceil(delay_ms / EPOCH_MS)` slots back; the search starts there
    /// and steps to the newest slot at or before `t - delay_ms`.
    fn stale(&self, delay_ms: f64) -> &'a [CellRadio] {
        let h = self.history;
        let cutoff = self.t - delay_ms;
        let due = |i: usize| h[i].0 <= cutoff;
        let mut i = (h.len() - 1).saturating_sub((delay_ms / EPOCH_MS).ceil() as usize);
        if due(i) {
            while i + 1 < h.len() && due(i + 1) {
                i += 1;
            }
        } else {
            while i > 0 && !due(i) {
                i -= 1;
            }
        }
        &h[i].1
    }
}

#[derive(Clone, Copy, Debug)]
enum UeState {
    Connected { serving: CellId },
    Attempting(Attempt),
    Outage(Outage),
}

/// A handover attempt whose message exchanges ran when it triggered;
/// it resolves at `resolve_at_ms`.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    serving: CellId,
    target: CellId,
    resolve_at_ms: f64,
    outcome: AttemptOutcome,
    feedback_delay_ms: f64,
    /// Typed procedure state, supervised by the T310/T304 timers.
    sm: HandoverAttempt,
    /// The fault class that bit this attempt's messages, if any
    /// (ground truth for the classification oracle).
    injected: Option<FaultKind>,
    /// X2 preparation context at the target, when admitted.
    prep: Option<HandoverPreparation>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum AttemptOutcome {
    Success,
    ReportLost,
    /// X2 preparation failed: the command could never be issued.
    PrepFailed,
    CommandLost,
    TargetFaded,
}

/// Out of service after a radio-link failure, retrying
/// re-establishment from `next_try_ms`.
#[derive(Clone, Copy, Debug)]
struct Outage {
    since_ms: f64,
    cause: FailureCause,
    next_try_ms: f64,
    attempt: u32,
}

impl Outage {
    /// An outage since `since_ms` that starts a full cell scan at `t`.
    fn scan(since_ms: f64, cause: FailureCause, t: f64) -> Self {
        Self { since_ms, cause, next_try_ms: t + REESTABLISH_SCAN_MS, attempt: 0 }
    }
}

/// The last signaling exchange that broke: when, with what cause, and
/// the injected fault class that broke it, if any (the oracle's ground
/// truth).
#[derive(Clone, Copy, Debug)]
struct MsgFailure {
    t_ms: f64,
    cause: FailureCause,
    injected: Option<FaultKind>,
}

/// A fired measurement event: the handover target, and the
/// time-to-trigger and measurement staleness it waited through (ms).
#[derive(Clone, Copy, Debug)]
struct Trigger {
    target: CellId,
    ttt_ms: f64,
    staleness_ms: f64,
}

/// The measurement-event state a plane carries between epochs:
/// time-to-trigger per candidate cell (indexed by cell id) and legacy's
/// A2/A1 stage gate.
#[derive(Clone, Debug)]
struct Monitors {
    a3: Vec<EventMonitor>,
    a4: Vec<EventMonitor>,
    a2: EventMonitor,
    a1: EventMonitor,
    /// Legacy stage 2: the A2 gate is open and inter-frequency cells
    /// are measured.
    stage2: bool,
}

impl Monitors {
    fn new(n_cells: usize) -> Self {
        Self {
            a3: vec![EventMonitor::default(); n_cells],
            a4: vec![EventMonitor::default(); n_cells],
            a2: EventMonitor::default(),
            a1: EventMonitor::default(),
            stage2: false,
        }
    }

    /// Clears every candidate's trigger so it can fire again: the UE
    /// keeps reporting after a failed attempt.
    fn clear_candidates(&mut self) {
        self.a3.fill(EventMonitor::default());
        self.a4.fill(EventMonitor::default());
    }

    /// Back to stage 1 with every timer cleared, after a handover or a
    /// radio-link failure.
    fn reset(&mut self) {
        self.clear_candidates();
        self.a2.reset();
        self.a1.reset();
        self.stage2 = false;
    }

    /// Legacy event evaluation: intra-frequency A3 per neighbour on the
    /// intra-frequency view, and A2/A1-gated stage 2 with A4 per
    /// inter-frequency neighbour on the inter-frequency view. Returns
    /// the strongest candidate that fired this epoch (the first one on
    /// ties).
    fn legacy(
        &mut self,
        spec: &DatasetSpec,
        cells: &CellIndex,
        serving: CellId,
        t: f64,
        intra_obs: &[CellRadio],
        inter_obs: &[CellRadio],
    ) -> Option<Trigger> {
        let serving_earfcn = cells.get(serving)?.earfcn;
        let serving_rsrp =
            |obs: &[CellRadio]| radio_of(obs, serving).map_or(-140.0, |c| c.rsrp_dbm);
        let (intra_rsrp, inter_rsrp) = (serving_rsrp(intra_obs), serving_rsrp(inter_obs));

        // Stage gates on (stale) serving RSRP.
        let gate = |kind| EventConfig { kind, ttt_ms: spec.inter_ttt_ms, hysteresis_db: 1.0 };
        if !self.stage2 {
            let a2 = gate(EventKind::A2 { thresh: A2_THRESH_DBM });
            if self.a2.observe(&a2, t, inter_rsrp, 0.0) {
                self.stage2 = true;
                self.a1.reset();
            }
        } else {
            let a1 = gate(EventKind::A1 { thresh: A1_THRESH_DBM });
            if self.a1.observe(&a1, t, inter_rsrp, 0.0) {
                self.stage2 = false;
                self.a4.fill(EventMonitor::default());
                self.a2.reset();
            }
        }

        // Intra-frequency A3, then inter-frequency A4 in stage 2 only
        // (the §3.2 missed-cell mechanism: those cells are simply
        // invisible until the A2 gate opens).
        let stages = [
            (true, intra_obs, intra_rsrp, spec.intra_ttt_ms, spec.intra_staleness_ms),
            (false, inter_obs, inter_rsrp, spec.inter_ttt_ms, spec.inter_staleness_ms),
        ];
        let mut best: Option<(f64, Trigger)> = None;
        for (intra, obs, serving_dbm, ttt_ms, staleness_ms) in
            stages.into_iter().take(1 + usize::from(self.stage2))
        {
            let monitors = if intra { &mut self.a3 } else { &mut self.a4 };
            for radio in obs {
                let cell_id = radio.cell;
                if cell_id == serving {
                    continue;
                }
                let Some(cell) = cells.get(cell_id) else { continue };
                if (cell.earfcn == serving_earfcn) != intra {
                    continue;
                }
                let kind = if intra {
                    EventKind::A3 { offset: spec.a3_offset(serving, cell_id) }
                } else {
                    EventKind::A4 { thresh: A4_THRESH_DBM }
                };
                let event = EventConfig { kind, ttt_ms, hysteresis_db: 1.0 };
                if monitors[cell_id.0 as usize].observe(&event, t, serving_dbm, radio.rsrp_dbm)
                    && best.is_none_or(|(q, _)| radio.rsrp_dbm > q)
                {
                    best =
                        Some((radio.rsrp_dbm, Trigger { target: cell_id, ttt_ms, staleness_ms }));
                }
            }
        }
        best.map(|(_, trigger)| trigger)
    }
}

/// One plane's half of a replay: everything that depends on the plane.
struct PlaneState<'c> {
    cfg: &'c RunConfig,
    plane: Plane,
    waveform: Waveform,
    /// Measurement staleness of REM's event evaluation (ms).
    rem_staleness_ms: f64,
    /// The `link-<plane>` stream: every signaling message's fading.
    link_rng: SimRng,
    /// The `estimation` stream, and per cell REM's cross-band
    /// estimation error: a slowly-varying AR(1) (the delay-Doppler
    /// profile drifts on path-geometry timescales, so the error is
    /// correlated over hundreds of ms).
    est_rng: SimRng,
    est_err: Vec<Option<f64>>,
    monitors: Monitors,
    state: UeState,
    /// When the serving SINR fell below `Q_out` (the running RLF timer).
    below_since: Option<f64>,
    last_msg_failure: Option<MsgFailure>,
    /// No events are evaluated before this (post-handover settling).
    guard_until_ms: f64,
    /// The serving link over the last 5 s, kept for Fig 2b's BLER
    /// before failure.
    bler_window: VecDeque<LinkSample>,
    plan: FaultPlan,
    /// X2 endpoint state: one client, so target-side admission control
    /// is modeled as a single shared pool, released as attempts resolve.
    ue: UeId,
    admission: AdmissionControl,
    rach_preamble: u8,
    metrics: RunMetrics,
}

impl<'c> PlaneState<'c> {
    /// `plane` of `cfg` over the deployment of `cells`, attached to
    /// `strongest` (or in a coverage-hole outage when no cell is in
    /// range).
    fn new(cfg: &'c RunConfig, plane: Plane, cells: &CellIndex, strongest: Option<CellId>) -> Self {
        let spec = &cfg.spec;
        let duration_s = spec.duration_s();
        // Per-cell state lives in dense vectors indexed by cell id
        // (`generate` numbers cells from 0).
        let n_cells = cells.len();
        let mut state = Self {
            cfg,
            plane,
            waveform: match plane {
                Plane::Legacy => Waveform::Ofdm,
                Plane::Rem if cfg.ablation.otfs_signaling => Waveform::Otfs,
                Plane::Rem => Waveform::Ofdm,
            },
            // Cross-band ablation: REM falls back to legacy measurement
            // staleness when it must measure every band sequentially.
            rem_staleness_ms: if cfg.ablation.crossband_feedback {
                spec.rem_staleness_ms
            } else {
                spec.intra_staleness_ms.max(spec.inter_staleness_ms)
            },
            link_rng: child_rng(cfg.seed, &format!("link-{plane:?}")),
            est_rng: child_rng(cfg.seed, "estimation"),
            est_err: vec![None; n_cells],
            monitors: Monitors::new(n_cells),
            state: match strongest {
                Some(serving) => UeState::Connected { serving },
                None => UeState::Outage(Outage::scan(0.0, FailureCause::CoverageHole, 0.0)),
            },
            below_since: None,
            last_msg_failure: None,
            guard_until_ms: 0.0,
            bler_window: VecDeque::new(),
            // The fault schedule is a pure function of (seed, client_id)
            // drawn from its own child_rng streams: it never touches the
            // simulation RNGs, so campaigns stay bit-identical on any
            // thread count and an unfaulted run is byte-for-byte the
            // pre-injection run.
            plan: match &cfg.faults {
                Some(fc) => FaultPlan::generate(fc, cfg.seed, cfg.client_id, duration_s * 1e3),
                None => FaultPlan::empty(),
            },
            ue: UeId(cfg.client_id as u32),
            admission: AdmissionControl::new(8),
            rach_preamble: 0,
            metrics: RunMetrics { duration_s, ..Default::default() },
        };
        if let Some(cell) = strongest {
            state.record(SignalingEvent::Attach { t_ms: 0.0, cell });
        }
        state
    }

    /// Advances the plane by one epoch of the environment stream.
    fn step(&mut self, e: &Epoch) {
        // An injected blackout: no cell receivable for the window. The
        // environment was still observed, so the `environment` RNG
        // stream is identical with and without the fault.
        let forced_hole = self.plan.active(FaultKind::CoverageHole, e.t).is_some();
        match self.state {
            UeState::Connected { serving } => self.connected(e, serving, forced_hole),
            UeState::Attempting(attempt) => self.attempting(e, attempt, forced_hole),
            UeState::Outage(outage) if e.t >= outage.next_try_ms => {
                self.reestablish(e, outage, forced_hole)
            }
            UeState::Outage(_) => {}
        }
    }

    /// One connected epoch: sample the serving link, run the RLF timer,
    /// evaluate the measurement events and start a handover attempt
    /// when one fires.
    fn connected(&mut self, e: &Epoch, serving: CellId, forced_hole: bool) {
        let (t, cfg) = (e.t, self.cfg);
        // The serving link's SINR and carrier, when the cell is heard.
        let link = radio_of(e.now, serving)
            .zip(e.cells.get(serving))
            .map(|(r, c)| (r.snr_db, c.carrier_hz));

        // --- BLER window sample (serving link, both directions): the
        // draws are taken now, their BLER only if a failure reads them.
        if let Some((snr_db, carrier_hz)) = link {
            let ul = LinkDraw::new(self.waveform, &mut self.link_rng);
            let dl = LinkDraw::new(self.waveform, &mut self.link_rng);
            let speed_ms = e.speed_ms;
            self.bler_window.push_back(LinkSample { t, snr_db, carrier_hz, speed_ms, ul, dl });
            while self.bler_window.front().is_some_and(|w| t - w.t > 5_000.0) {
                self.bler_window.pop_front();
            }
        }

        if self.radio_link_lost(e, serving, forced_hole) {
            self.radio_link_failure(e, serving, forced_hole);
            return;
        }

        // --- Event evaluation on stale measurements (suppressed during
        // the post-handover settling guard, during an injected
        // blackout, and while an injected mask blinds the measurement
        // pipeline).
        let masked = self.plan.active(FaultKind::MaskCell, t).is_some();
        let stage2_before = self.monitors.stage2;
        let trigger = if t < self.guard_until_ms || forced_hole || masked {
            None
        } else {
            let spec = &cfg.spec;
            match self.plane {
                Plane::Legacy => self.monitors.legacy(
                    spec,
                    e.cells,
                    serving,
                    t,
                    e.stale(spec.intra_staleness_ms),
                    e.stale(spec.inter_staleness_ms),
                ),
                // Cross-band inputs lost: degrade gracefully to
                // directly-measured cells (legacy single-cell handover)
                // rather than trusting stale or missing estimates.
                Plane::Rem => {
                    let degraded = self.plan.active(FaultKind::DropFeedback, t).is_some();
                    let obs = e.stale(self.rem_staleness_ms);
                    self.evaluate_rem(e.cells, serving, t, obs, degraded)
                }
            }
        };
        // Legacy stage transitions cost a reconfiguration message each
        // (A2 -> configure inter-freq, A1 -> tear down).
        if self.monitors.stage2 != stage2_before {
            self.metrics.signaling.reconfigs += 1;
        }
        if let Some(trigger) = trigger {
            self.start_attempt(e, serving, link.unwrap_or((-30.0, 2e9)), trigger);
        }
    }

    /// Runs the T310-like timer on the serving SINR (an injected
    /// blackout reads as no receivable serving signal); true once the
    /// SINR has stayed below `Q_out` for `RLF_TIMER_MS`.
    fn radio_link_lost(&mut self, e: &Epoch, serving: CellId, forced_hole: bool) -> bool {
        let snr_db =
            if forced_hole { -30.0 } else { radio_of(e.now, serving).map_or(-30.0, |c| c.snr_db) };
        if snr_db < RLF_SNR_DB {
            self.below_since.get_or_insert(e.t);
        } else {
            self.below_since = None;
        }
        self.below_since.is_some_and(|b| e.t - b >= RLF_TIMER_MS)
    }

    /// Declares radio-link failure on `serving`: classifies it, pairs
    /// an attributable injected fault with the classification for the
    /// oracle, keeps the BLER samples that preceded it and starts the
    /// outage.
    fn radio_link_failure(&mut self, e: &Epoch, serving: CellId, forced_hole: bool) {
        let t = e.t;
        let (cause, fault) = self.classify_rlf(e, serving, forced_hole);
        if let Some(kind) = fault {
            if matches!(kind, FaultKind::CoverageHole | FaultKind::MaskCell) {
                self.inject(t, kind, FaultMode::Drop);
            }
            self.metrics.fault_oracle.push(OraclePair {
                t_ms: t,
                kind,
                truth: kind.ground_truth(),
                classified: cause,
            });
        }
        for w in &self.bler_window {
            let bler = |d: LinkDraw| {
                let sinr = d.sinr_db(&self.cfg.link, w.snr_db, w.speed_ms, w.carrier_hz);
                bler_estimate(sinr, Modulation::Qpsk)
            };
            self.metrics.bler_before_failure_ul.push(bler(w.ul));
            self.metrics.bler_before_failure_dl.push(bler(w.dl));
        }
        self.record(SignalingEvent::RadioLinkFailure { t_ms: t, serving, cause });
        self.state = UeState::Outage(Outage::scan(t, cause, t));
        self.below_since = None;
        self.last_msg_failure = None;
        self.monitors.reset();
    }

    /// Classifies a radio-link failure per the Table 2 taxonomy and
    /// names the injected fault it is attributable to, if any. One
    /// precedence decides both, so the oracle only claims failures the
    /// classifier reasons about from the same evidence: a genuine
    /// (deployment) hole pre-empting an injected message fault is
    /// ambiguous and claimed by neither.
    fn classify_rlf(
        &self,
        e: &Epoch,
        serving: CellId,
        forced_hole: bool,
    ) -> (FailureCause, Option<FaultKind>) {
        let t = e.t;
        if forced_hole {
            return (FailureCause::CoverageHole, Some(FaultKind::CoverageHole));
        }
        if e.deployment.in_hole(e.pos_m) {
            return (FailureCause::CoverageHole, None);
        }
        if let Some(f) = self.last_msg_failure.filter(|f| t - f.t_ms <= MSG_FAILURE_ATTRIB_MS) {
            return (f.cause, f.injected);
        }
        // The §3.2 missed-cell condition: a viable cell on another
        // frequency that legacy stage-1 monitoring never measured.
        let serving_earfcn = e.cells.get(serving).map(|c| c.earfcn);
        let missed = self.plane == Plane::Legacy
            && !self.monitors.stage2
            && e.now.iter().any(|c| {
                c.snr_db > 0.0
                    && e.cells.get(c.cell).is_some_and(|cc| Some(cc.earfcn) != serving_earfcn)
            });
        if missed {
            let masked =
                self.plan.active_within(FaultKind::MaskCell, t, MASK_ATTRIB_SLACK_MS).is_some();
            return (FailureCause::MissedCell, masked.then_some(FaultKind::MaskCell));
        }
        // No in-coverage candidate at all behaves like a hole.
        if !e.now.iter().any(|c| c.cell != serving && c.snr_db > ATTACH_MIN_SNR_DB) {
            return (FailureCause::CoverageHole, None);
        }
        (FailureCause::FeedbackDelayLoss, None)
    }

    /// REM event evaluation: single-stage A3 over delay-Doppler SNR for
    /// *every* cell (cross-band estimation covers other frequencies),
    /// with Theorem-2-clamped offsets and a short TTT.
    ///
    /// Graceful degradation: when the cross-band inputs were dropped
    /// (`degraded`) or an estimate leaves the Fig 12 confidence
    /// envelope, the estimated cell is ignored for the epoch and REM
    /// behaves like a legacy single-cell handover over directly-measured
    /// cells; `rem_fallback_epochs` counts epochs where that happened.
    fn evaluate_rem(
        &mut self,
        cells: &CellIndex,
        serving: CellId,
        t: f64,
        obs: &[CellRadio],
        degraded: bool,
    ) -> Option<Trigger> {
        // AR(1) error evolution: ~300 ms time constant per 20 ms epoch.
        const RHO: f64 = 0.935;
        let cfg = self.cfg;
        let serving_snr = radio_of(obs, serving).map_or(-30.0, |c| c.snr_db);
        let serving_site = cells.get(serving).map(|c| c.site);

        let mut best: Option<(f64, CellId)> = None;
        let mut fell_back = false;
        // Cells in `CellId` order: the estimation-error draws below are
        // assigned to cells in this order.
        for radio in obs {
            let cell_id = radio.cell;
            if cell_id == serving {
                continue;
            }
            let Some(cell) = cells.get(cell_id) else { continue };
            // Cross-band estimated cells (not the per-site
            // representative) carry a small, slowly-varying estimation
            // error (Fig 12: <= 2 dB for 90% of measurements).
            let estimated = cell.representative != cell_id && Some(cell.site) != serving_site;
            let quality = if estimated {
                let sigma = cfg.spec.rem_estimation_err_db;
                // The AR(1) state always evolves — degradation must not
                // shift the estimation RNG stream.
                let e = self.est_err[cell_id.0 as usize]
                    .get_or_insert_with(|| normal(&mut self.est_rng, 0.0, sigma));
                *e = RHO * *e + (1.0 - RHO * RHO).sqrt() * normal(&mut self.est_rng, 0.0, sigma);
                if degraded || e.abs() > CONF_LIMIT_DB {
                    fell_back = true;
                    continue;
                }
                radio.snr_db + *e
            } else {
                radio.snr_db
            };
            let mut offset = cfg.spec.a3_offset(serving, cell_id);
            if cfg.rem_clamp_offsets {
                offset = offset.max(0.0);
            }
            let a3 = EventConfig {
                kind: EventKind::A3 { offset },
                ttt_ms: REM_TTT_MS,
                hysteresis_db: 1.0,
            };
            if self.monitors.a3[cell_id.0 as usize].observe(&a3, t, serving_snr, quality)
                && best.is_none_or(|(q, _)| quality > q)
            {
                best = Some((quality, cell_id));
            }
        }
        if fell_back {
            self.metrics.rem_fallback_epochs += 1;
        }
        best.map(|(_, target)| Trigger {
            target,
            ttt_ms: REM_TTT_MS,
            staleness_ms: self.rem_staleness_ms,
        })
    }

    /// Starts a handover attempt to `trigger.target`: runs its message
    /// exchanges now (report, X2 preparation, command) over the serving
    /// link `(SINR, carrier)`; it resolves after their accumulated
    /// airtime. Injected signaling faults are applied after each
    /// channel draw, so the link RNG stream is unchanged by injection.
    fn start_attempt(
        &mut self,
        e: &Epoch,
        serving: CellId,
        (snr_db, carrier_hz): (f64, f64),
        trigger: Trigger,
    ) {
        let (t, cfg, target, waveform) = (e.t, self.cfg, trigger.target, self.waveform);
        let feedback_fault = self.plan.active(FaultKind::DropFeedback, t).map(|f| f.mode);
        let command_fault = self.plan.active(FaultKind::DropCommand, t).map(|f| f.mode);
        let x2_fault = self.plan.active(FaultKind::DropX2, t).is_some();
        let deliver = |rng: &mut SimRng| {
            let (ok, tries, _) = deliver_with_harq(
                &cfg.link,
                snr_db,
                e.speed_ms,
                carrier_hz,
                waveform,
                HARQ_ATTEMPTS,
                rng,
            );
            (ok, tries)
        };

        let (chan_report_ok, report_tries) = deliver(&mut self.link_rng);
        // A delayed report arrives, but far too late (handled below).
        let delayed = feedback_fault == Some(FaultMode::Delay);
        let report_ok = survives(chan_report_ok, feedback_fault, || {
            RrcMessage::MeasurementReport { cells: vec![(target, snr_db)] }
        });
        if let Some(mode) = feedback_fault {
            self.inject(t, FaultKind::DropFeedback, mode);
        }
        self.metrics.signaling.reports += 1;
        self.metrics.signaling.harq_transmissions += report_tries;
        self.record(SignalingEvent::MeasurementReport {
            t_ms: t,
            serving,
            target,
            delivered: report_ok && !delayed,
        });
        let mut sm = HandoverAttempt::trigger(t);
        let mut elapsed = report_tries as f64 * HARQ_MS;
        let mut outcome = AttemptOutcome::ReportLost;
        let mut injected = feedback_fault.map(|_| FaultKind::DropFeedback);
        let mut prep: Option<HandoverPreparation> = None;
        if delayed {
            // The report is in flight well past the T310 deadline;
            // supervision will kill the attempt.
            elapsed += cfg.faults.as_ref().map_or(0.0, |f| f.extra_delay_ms);
        } else if report_ok {
            sm.report_received(t + elapsed).expect("report follows trigger");
            elapsed += DECISION_MS;
            // X2 preparation with the target eNB gates the command
            // (admission + RACH preamble).
            let (mut p, req) = HandoverPreparation::start(self.ue, target);
            self.metrics.signaling.x2_messages += 1;
            if x2_fault {
                // Request (or its ack) lost on the backhaul: the serving
                // cell waits out its preparation guard timer and gives up.
                elapsed += X2_PREP_TIMEOUT_MS;
                injected = Some(FaultKind::DropX2);
                self.inject(t, FaultKind::DropX2, FaultMode::Drop);
            } else {
                elapsed += X2_PREP_MS;
                self.rach_preamble = self.rach_preamble.wrapping_add(1);
                let resp = target_handle_request(&mut self.admission, &req, self.rach_preamble)
                    .expect("handover request draws a response");
                self.metrics.signaling.x2_messages += 1;
                p.on_response(&resp).expect("response matches the request");
                // Prepared unless the target denied admission.
                prep = p.ready_to_command().then_some(p);
            }
            outcome = match prep.as_mut() {
                None => AttemptOutcome::PrepFailed,
                Some(p) => {
                    let (chan_cmd_ok, cmd_tries) = deliver(&mut self.link_rng);
                    let cmd_ok = survives(chan_cmd_ok, command_fault, || {
                        RrcMessage::HandoverCommand { target }
                    });
                    if let Some(mode) = command_fault {
                        injected = Some(FaultKind::DropCommand);
                        self.inject(t, FaultKind::DropCommand, mode);
                    }
                    self.metrics.signaling.commands += 1;
                    self.metrics.signaling.harq_transmissions += cmd_tries;
                    self.record(SignalingEvent::HandoverCommand {
                        t_ms: t,
                        serving,
                        target,
                        delivered: cmd_ok,
                    });
                    elapsed += cmd_tries as f64 * HARQ_MS;
                    if cmd_ok {
                        sm.command_received(t + elapsed).expect("command follows report");
                        // The UE obeyed the command: transfer PDCP state
                        // so the target can resume lossless.
                        let sn = self.metrics.signaling.commands as u32;
                        p.send_sn_status(sn, sn).expect("prepared before command");
                        self.metrics.signaling.x2_messages += 1;
                        elapsed += ATTACH_MS;
                        AttemptOutcome::Success // target checked at resolve
                    } else {
                        AttemptOutcome::CommandLost
                    }
                }
            };
        }
        let feedback_delay_ms =
            trigger.staleness_ms + trigger.ttt_ms + report_tries as f64 * HARQ_MS;
        self.metrics.feedback_delays_ms.push(feedback_delay_ms);
        self.state = UeState::Attempting(Attempt {
            serving,
            target,
            resolve_at_ms: t + elapsed,
            outcome,
            feedback_delay_ms,
            sm,
            injected,
            prep,
        });
    }

    /// Supervises the in-flight attempt and resolves it when it is due
    /// or the serving link is lost first.
    fn attempting(&mut self, e: &Epoch, attempt: Attempt, forced_hole: bool) {
        let t = e.t;
        // RLF can still strike mid-attempt.
        let rlf = self.radio_link_lost(e, attempt.serving, forced_hole);
        if t < attempt.resolve_at_ms && !rlf {
            // T310/T304 supervision: a silently in-flight message (the
            // delay-fault manifestation) must not hang the procedure
            // past its deadline.
            if let Some(expiry) = self.cfg.timers.supervise(&attempt.sm, t) {
                self.fail_attempt(t, &attempt, expiry.cause());
            }
            return;
        }
        let outcome =
            if rlf && attempt.outcome == AttemptOutcome::Success && t < attempt.resolve_at_ms {
                // Lost the link before the procedure finished.
                AttemptOutcome::TargetFaded
            } else {
                attempt.outcome
            };
        let cause = match outcome {
            AttemptOutcome::Success => {
                let target_ok = !forced_hole
                    && radio_of(e.now, attempt.target)
                        .is_some_and(|c| c.snr_db >= ATTACH_MIN_SNR_DB);
                if target_ok {
                    self.complete_handover(e, &attempt);
                    return;
                }
                // Too late: the chosen target already faded.
                FailureCause::FeedbackDelayLoss
            }
            AttemptOutcome::ReportLost | AttemptOutcome::TargetFaded => {
                FailureCause::FeedbackDelayLoss
            }
            AttemptOutcome::PrepFailed | AttemptOutcome::CommandLost => FailureCause::CommandLoss,
        };
        self.fail_attempt(t, &attempt, cause);
    }

    /// The UE arrived at the target: the handover completes.
    fn complete_handover(&mut self, e: &Epoch, attempt: &Attempt) {
        let t = e.t;
        // Transitions clamp to the last recorded procedure event because
        // the exchange was pre-computed at trigger time.
        let mut sm = attempt.sm;
        sm.complete(t.max(sm.last_event_ms())).expect("executing attempt completes");
        if let Some(mut p) = attempt.prep {
            // The target releases the old serving-side context.
            p.on_response(&X2Message::UeContextRelease { ue: self.ue })
                .expect("release follows forwarding");
            self.admission.release();
            self.metrics.signaling.x2_messages += 1;
        }
        let (from, to) = (attempt.serving, attempt.target);
        let intra_freq = match (e.cells.get(from), e.cells.get(to)) {
            (Some(a), Some(b)) => a.earfcn == b.earfcn,
            _ => false,
        };
        self.metrics.handovers.push(HandoverRecord {
            t_ms: t,
            from,
            to,
            intra_freq,
            feedback_delay_ms: attempt.feedback_delay_ms,
        });
        self.record(SignalingEvent::HandoverComplete { t_ms: t, from, to });
        self.state = UeState::Connected { serving: to };
        self.below_since = None;
        self.guard_until_ms = t + POST_HO_GUARD_MS;
        self.monitors.reset();
    }

    /// Ends the in-flight attempt as failed with `cause`: the target's
    /// admission is released, the failure is latched for RLF
    /// classification, and the UE stays on its serving cell and keeps
    /// reporting, with every candidate's trigger cleared to re-fire.
    fn fail_attempt(&mut self, t: f64, attempt: &Attempt, cause: FailureCause) {
        let mut sm = attempt.sm;
        sm.fail(t.max(sm.last_event_ms()), cause).expect("an in-flight attempt fails");
        if attempt.prep.is_some() {
            self.admission.release();
        }
        self.last_msg_failure = Some(MsgFailure { t_ms: t, cause, injected: attempt.injected });
        self.state = UeState::Connected { serving: attempt.serving };
        self.monitors.clear_candidates();
    }

    /// One RRC re-establishment try, due now: attach to the strongest
    /// admissible cell, or back off (and after `max_attempts` tries
    /// restart from a full scan).
    fn reestablish(&mut self, e: &Epoch, outage: Outage, forced_hole: bool) {
        let t = e.t;
        let blocked = forced_hole || e.deployment.in_hole(e.pos_m);
        let candidate =
            if blocked { None } else { strongest(e.now, |c| c.snr_db >= ATTACH_MIN_SNR_DB) };
        self.metrics.reestablish_attempts += 1;
        let tries = outage.attempt + 1;
        self.record(SignalingEvent::Reestablish {
            t_ms: t,
            attempt: tries,
            success: candidate.is_some(),
        });
        let retry = self.cfg.reestablish;
        self.state = if let Some(best) = candidate {
            self.metrics.failures.push(FailureRecord {
                t_ms: outage.since_ms,
                cause: outage.cause,
                outage_ms: t - outage.since_ms,
            });
            self.record(SignalingEvent::Attach { t_ms: t, cell: best.cell });
            self.bler_window.clear();
            UeState::Connected { serving: best.cell }
        } else if tries >= retry.max_attempts {
            // Retries exhausted: abandon re-establishment and restart
            // from a full scan + RRC setup, resetting the backoff ladder.
            UeState::Outage(Outage::scan(outage.since_ms, outage.cause, t))
        } else {
            let backoff = retry.initial_backoff_ms * retry.backoff_factor.powi(tries as i32 - 1);
            UeState::Outage(Outage { next_try_ms: t + backoff, attempt: tries, ..outage })
        };
    }

    /// Records an injected fault that bit the run.
    fn inject(&mut self, t_ms: f64, kind: FaultKind, mode: FaultMode) {
        self.metrics.injected.push(InjectedFault { t_ms, kind, mode });
    }

    /// Appends `event` to the signaling trace when the run records one.
    fn record(&mut self, event: SignalingEvent) {
        if self.cfg.record_trace {
            self.metrics.trace.push(event);
        }
    }

    /// Closes the run: an open outage becomes a failure, loops are
    /// detected, and the run is counted.
    fn finish(mut self) -> RunMetrics {
        let cfg = self.cfg;
        let m = &mut self.metrics;
        // A run ending inside an outage still records the failure.
        if let UeState::Outage(outage) = self.state {
            let outage_ms = m.duration_s * 1e3 - outage.since_ms;
            m.failures.push(FailureRecord {
                t_ms: outage.since_ms,
                cause: outage.cause,
                outage_ms,
            });
        }

        // Loop semantics: a bounce is a *policy conflict* when the
        // pair's effective A3 offsets sum below zero (Theorem 2's
        // violated condition); under REM's clamping that sum is always
        // >= 0.
        let clamp = self.plane == Plane::Rem && cfg.rem_clamp_offsets;
        m.loops = detect_loops(&m.handovers, LOOP_WINDOW_MS, HO_DISRUPTION_MS, |a, b| {
            let mut fwd = cfg.spec.a3_offset(a, b);
            let mut back = cfg.spec.a3_offset(b, a);
            if clamp {
                fwd = fwd.max(0.0);
                back = back.max(0.0);
            }
            fwd + back < 0.0
        });

        rem_obs::metrics::inc("rem_sim_runs_total");
        rem_obs::metrics::add("rem_sim_handovers_total", m.handovers.len() as u64);
        rem_obs::metrics::add("rem_sim_failures_total", m.failures.len() as u64);
        rem_obs::metrics::add("rem_sim_reestablish_attempts_total", m.reestablish_attempts as u64);
        rem_obs::trace::emit(
            "sim",
            "run_done",
            &[
                ("plane", format!("{:?}", self.plane).into()),
                ("seed", cfg.seed.into()),
                ("handovers", m.handovers.len().into()),
                ("failures", m.failures.len().into()),
                ("loops", m.loops.len().into()),
            ],
        );
        self.metrics
    }
}

/// One connected epoch's serving link, kept in the BLER window: its
/// mean SNR, carrier and speed, and the uplink and downlink messages'
/// draws. The BLER is evaluated only when a radio-link failure reads
/// the window.
struct LinkSample {
    t: f64,
    snr_db: f64,
    carrier_hz: f64,
    speed_ms: f64,
    ul: LinkDraw,
    dl: LinkDraw,
}

/// The radio state of `cell` in an observation sorted by `CellId`.
fn radio_of(obs: &[CellRadio], cell: CellId) -> Option<&CellRadio> {
    obs.binary_search_by_key(&cell, |c| c.cell).ok().map(|i| &obs[i])
}

/// The strongest cell of `obs` that `admit`s, by RSRP, the first of
/// equal RSRPs: the cell a stable sort by descending RSRP would put
/// first among the admitted ones.
fn strongest(obs: &[CellRadio], admit: impl Fn(&CellRadio) -> bool) -> Option<&CellRadio> {
    let descending = |a: &&CellRadio, b: &&CellRadio| {
        b.rsrp_dbm.partial_cmp(&a.rsrp_dbm).expect("RSRP is not NaN")
    };
    // `min_by` returns the first of equal minima.
    obs.iter().filter(|c| admit(c)).min_by(descending)
}

/// Whether a message the channel delivered (`chan_ok`) survives an
/// injected fault: a dropped message is lost, a corrupted one arrives
/// garbled and the RRC codec gets the final vote, and a delayed one
/// arrives late (only measurement reports are ever delayed; the caller
/// charges the delay).
fn survives(chan_ok: bool, fault: Option<FaultMode>, msg: impl FnOnce() -> RrcMessage) -> bool {
    match fault {
        None | Some(FaultMode::Delay) => chan_ok,
        Some(FaultMode::Drop) => false,
        Some(FaultMode::Corrupt) => {
            let mut raw = msg().encode();
            rem_faults::corrupt(&mut raw);
            chan_ok && RrcMessage::decode(&raw).is_some()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(speed: f64) -> DatasetSpec {
        DatasetSpec::beijing_taiyuan(20.0, speed)
    }

    #[test]
    fn legacy_run_produces_handovers() {
        let cfg = RunConfig::new(quick_spec(250.0), Plane::Legacy, 1);
        let m = simulate_run(&cfg);
        assert!(m.handovers.len() >= 5, "handovers={}", m.handovers.len());
        // HSR handover cadence: paper Table 2 reports 11-20 s.
        let iv = m.avg_handover_interval_s();
        assert!((5.0..60.0).contains(&iv), "interval={iv}");
    }

    #[test]
    fn legacy_hsr_has_nonneglible_failures() {
        let cfg = RunConfig::new(quick_spec(300.0), Plane::Legacy, 2);
        let m = simulate_run(&cfg);
        assert!(m.failure_ratio() > 0.01, "ratio={}", m.failure_ratio());
    }

    #[test]
    fn rem_reduces_failures_at_hsr_speed() {
        let spec = quick_spec(300.0);
        let legacy = simulate_run(&RunConfig::new(spec.clone(), Plane::Legacy, 3));
        let rem = simulate_run(&RunConfig::new(spec, Plane::Rem, 3));
        assert!(
            rem.failure_ratio_no_holes() <= legacy.failure_ratio_no_holes(),
            "rem={} legacy={}",
            rem.failure_ratio_no_holes(),
            legacy.failure_ratio_no_holes()
        );
    }

    #[test]
    fn rem_eliminates_conflict_loops() {
        let spec = quick_spec(300.0);
        let rem = simulate_run(&RunConfig::new(spec, Plane::Rem, 4));
        assert_eq!(rem.conflict_loops().count(), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        // Two runs in one process differ in everything a run must not
        // depend on, such as a hash map's random keys.
        for plane in [Plane::Legacy, Plane::Rem] {
            let cfg = RunConfig::new(quick_spec(250.0), plane, 5);
            let a = serde_json::to_string(&simulate_run(&cfg)).unwrap();
            let b = serde_json::to_string(&simulate_run(&cfg)).unwrap();
            assert_eq!(a, b, "{plane:?}");
        }
    }

    /// Each plane of the lock-step loop serializes byte for byte like
    /// a replay of that plane alone, on every dataset family, clean and
    /// under aggressive faults with the signaling trace recorded. The
    /// faulted `beijing_taiyuan` pair is the run `tests/end_to_end.rs`
    /// pins in `faulted_traced_runs_are_pinned`.
    #[test]
    fn lock_step_planes_match_each_plane_alone() {
        let families = [
            DatasetSpec::beijing_taiyuan(150.0, 300.0),
            DatasetSpec::beijing_shanghai(20.0, 300.0),
            DatasetSpec::la_driving(8.0, 100.0),
            DatasetSpec::nr_smallcell(4.0, 120.0),
        ];
        let json = |m: &RunMetrics| serde_json::to_string(m).expect("metrics serialize");
        for spec in families {
            for faulted in [false, true] {
                let mut cfg = RunConfig::new(spec.clone(), Plane::Legacy, 3);
                if faulted {
                    cfg.faults = Some(FaultConfig::aggressive());
                    cfg.record_trace = true;
                }
                let planes = [Plane::Legacy, Plane::Rem];
                let paired = simulate_planes(&cfg, planes);
                for (plane, m) in planes.into_iter().zip(&paired) {
                    let alone = simulate_run(&RunConfig { plane, ..cfg.clone() });
                    assert_eq!(json(m), json(&alone), "{} {plane:?} faulted={faulted}", spec.name);
                    assert_eq!(!m.trace.is_empty(), faulted, "{} {plane:?}", spec.name);
                }
            }
        }
    }

    #[test]
    fn feedback_delays_recorded() {
        let cfg = RunConfig::new(quick_spec(250.0), Plane::Legacy, 6);
        let m = simulate_run(&cfg);
        assert!(!m.feedback_delays_ms.is_empty());
        for &d in &m.feedback_delays_ms {
            assert!(d > 0.0 && d < 5_000.0, "delay={d}");
        }
    }

    #[test]
    fn rem_feedback_faster_than_legacy() {
        let spec = quick_spec(300.0);
        let legacy = simulate_run(&RunConfig::new(spec.clone(), Plane::Legacy, 7));
        let rem = simulate_run(&RunConfig::new(spec, Plane::Rem, 7));
        let ml = rem_num::stats::mean(&legacy.feedback_delays_ms);
        let mr = rem_num::stats::mean(&rem.feedback_delays_ms);
        assert!(mr < ml, "rem={mr} legacy={ml}");
    }

    #[test]
    fn stale_views_match_the_reverse_scan() {
        let mut env = EnvStream::new(&quick_spec(300.0), 1);
        let mut epochs = 0;
        while let Some(e) = env.next_epoch() {
            for delay_ms in [0.0, 20.0, 30.0, 40.0, 160.0, 640.0, 1040.0, 5000.0] {
                let cutoff = e.t - delay_ms;
                let want = e.history.iter().rev().find(|(ht, _)| *ht <= cutoff);
                let want = &want.unwrap_or(&e.history[0]).1;
                let got = e.stale(delay_ms);
                assert!(std::ptr::eq(got, want.as_slice()), "t={} delay={delay_ms}", e.t);
            }
            epochs += 1;
            // The ring fills, then is recycled for as long again.
            if epochs == 2 * HISTORY_LEN {
                break;
            }
        }
        assert_eq!(epochs, 2 * HISTORY_LEN);
    }

    #[test]
    fn strongest_matches_a_stable_sort_by_rsrp() {
        use rand::Rng;
        let mut rng = rem_num::rng::rng_from_seed(8);
        let mut ties = 0;
        for _ in 0..2_000 {
            // A few RSRP and SINR levels, so equal RSRPs are common.
            let obs: Vec<CellRadio> = (0..rng.gen_range(0..8))
                .map(|c| CellRadio {
                    cell: CellId(c),
                    rsrp_dbm: -100.0 + 5.0 * f64::from(rng.gen_range(0..3u8)),
                    snr_db: -9.0 + 3.0 * f64::from(rng.gen_range(0..3u8)),
                })
                .collect();
            let mut by_rsrp = obs.clone();
            by_rsrp.sort_by(|a, b| b.rsrp_dbm.partial_cmp(&a.rsrp_dbm).unwrap());
            let admits: [&dyn Fn(&CellRadio) -> bool; 2] =
                [&|_| true, &|c| c.snr_db >= ATTACH_MIN_SNR_DB];
            for admit in admits {
                let want = by_rsrp.iter().find(|c| admit(c)).map(|c| c.cell);
                assert_eq!(strongest(&obs, admit).map(|c| c.cell), want, "{obs:?}");
            }
            ties += usize::from(by_rsrp.len() > 1 && by_rsrp[0].rsrp_dbm == by_rsrp[1].rsrp_dbm);
        }
        assert!(ties > 100, "only {ties} observations tie for the strongest");
    }

    /// `evaluate_legacy` and the monitor state the replay carries between
    /// epochs. Three sites 1 km apart each host one cell on carrier 1825
    /// (cells 0, 2, 4) and one on 2452 (cells 1, 3, 5); cell 0 serves,
    /// and every A3 offset is +2 dB.
    struct Legacy {
        spec: DatasetSpec,
        cells: CellIndex,
        monitors: Monitors,
    }

    impl Legacy {
        fn new(intra_ttt_ms: f64, inter_ttt_ms: f64) -> Self {
            use crate::deployment::{BaseStationId, Cell, Site};
            let cell = |id: u32| Cell {
                id: CellId(id),
                bs: BaseStationId(id / 2),
                earfcn: rem_mobility::Earfcn(if id.is_multiple_of(2) { 1825 } else { 2452 }),
                carrier_hz: 1.8e9,
                bandwidth_mhz: 20.0,
                tx_power_dbm: 15.0,
            };
            let site = |s: u32| Site {
                id: BaseStationId(s),
                along_m: 1_000.0 * f64::from(s),
                lateral_m: 100.0,
                cells: vec![cell(2 * s), cell(2 * s + 1)],
            };
            let sites = (0..3).map(site).collect();
            Self {
                spec: DatasetSpec {
                    proactive_prob: 0.0,
                    normal_offset_db: 2.0,
                    intra_ttt_ms,
                    inter_ttt_ms,
                    ..quick_spec(300.0)
                },
                cells: CellIndex::new(&Deployment { sites, holes: vec![], route_m: 2e3 }),
                monitors: Monitors::new(6),
            }
        }

        /// Epochs every 20 ms over `ms`: serving cell 0 at `serving_dbm`,
        /// `neighbours` as `(cell, RSRP)`, each cell in both stages'
        /// observations. Returns the epochs that chose a target.
        fn run(
            &mut self,
            ms: std::ops::RangeInclusive<u32>,
            serving_dbm: f64,
            neighbours: &[(u32, f64)],
        ) -> Vec<(u32, CellId)> {
            let mut obs: Vec<CellRadio> = std::iter::once((0, serving_dbm))
                .chain(neighbours.iter().copied())
                .map(|(c, rsrp_dbm)| CellRadio { cell: CellId(c), rsrp_dbm, snr_db: 0.0 })
                .collect();
            obs.sort_by_key(|c| c.cell);
            let Legacy { spec, cells, monitors } = self;
            ms.step_by(20)
                .filter_map(|t| {
                    let found = monitors.legacy(spec, cells, CellId(0), f64::from(t), &obs, &obs);
                    found.map(|trigger| (t, trigger.target))
                })
                .collect()
        }
    }

    #[test]
    fn a3_handover_to_better_intra_cell() {
        let mut l = Legacy::new(0.0, 0.0);
        // Within offset + hysteresis of serving (-97 dBm to enter): no A3.
        assert_eq!(l.run(0..=40, -100.0, &[(2, -98.0)]), []);
        // Past it, the zero-TTT A3 hands over on the same epoch.
        assert_eq!(l.run(60..=60, -100.0, &[(2, -95.0)]), [(60, CellId(2))]);
        assert!(!l.monitors.stage2);
    }

    #[test]
    fn inter_freq_neighbor_ignored_by_intra_rule() {
        // Zero TTTs everywhere: only the A2 gate keeps cell 1 out. With
        // serving fine it stays closed, and the intra-frequency A3 rule
        // never admits the 20 dB stronger cell on the other carrier.
        let mut l = Legacy::new(0.0, 0.0);
        assert_eq!(l.run(0..=200, -100.0, &[(1, -80.0)]), []);
        assert!(!l.monitors.stage2);
    }

    #[test]
    fn multi_stage_gates_inter_frequency() {
        let mut l = Legacy::new(0.0, 100.0);
        // Serving fine: the 20 dB stronger inter-frequency cell is not
        // measured, and the intra-frequency A3 rule ignores it.
        assert_eq!(l.run(0..=0, -100.0, &[(1, -80.0)]), []);
        // Serving below A2 (-112 dB, 1 dB hysteresis) from 20 ms: the
        // gate holds its 100 ms TTT before stage 2 opens on 120 ms.
        assert_eq!(l.run(20..=100, -115.0, &[(1, -80.0)]), []);
        assert!(!l.monitors.stage2);
        assert_eq!(l.run(120..=120, -115.0, &[(1, -80.0)]), []);
        assert!(l.monitors.stage2);
        assert_eq!(l.run(140..=200, -115.0, &[(1, -80.0)]), []);
        // A4 started its own 100 ms TTT when the gate opened.
        assert_eq!(l.run(220..=220, -115.0, &[(1, -80.0)]), [(220, CellId(1))]);
    }

    #[test]
    fn a1_exit_closes_stage2() {
        let mut l = Legacy::new(0.0, 100.0);
        assert_eq!(l.run(0..=100, -115.0, &[(1, -120.0)]), []);
        assert!(l.monitors.stage2);
        // Serving recovers above A1 (-100 dB) on 120 ms; cell 1 passes
        // A4 (-110 dB) from 140 ms, so A1 fires first, on 220 ms.
        assert_eq!(l.run(120..=120, -95.0, &[(1, -120.0)]), []);
        assert_eq!(l.run(140..=220, -95.0, &[(1, -105.0)]), []);
        assert!(!l.monitors.stage2);
        // Serving falls again: the gate reopens on 340 ms, and cell 1's
        // A4 starts over there instead of firing on its 140 ms entry.
        assert_eq!(l.run(240..=340, -115.0, &[(1, -105.0)]), []);
        assert!(l.monitors.stage2);
        // Serving recovers at once: A1 starts over on 360 ms too.
        assert_eq!(l.run(360..=440, -95.0, &[(1, -105.0)]), [(440, CellId(1))]);
        assert!(l.monitors.stage2);
        assert_eq!(l.run(460..=460, -95.0, &[(1, -105.0)]), []);
        assert!(!l.monitors.stage2);
    }

    #[test]
    fn ttt_applies_per_candidate() {
        let mut l = Legacy::new(100.0, 640.0);
        // A3 enters above serving + 2 dB offset + 1 dB hysteresis
        // (-97 dBm) and leaves below -99 dBm.
        assert_eq!(l.run(0..=20, -100.0, &[(2, -90.0), (4, -99.0)]), []);
        assert_eq!(l.run(40..=40, -100.0, &[(2, -90.0), (4, -92.0)]), []);
        // Cell 2 dips on 60 ms and restarts on 80 ms; cell 4 holds.
        assert_eq!(l.run(60..=60, -100.0, &[(2, -100.0), (4, -92.0)]), []);
        let fired = l.run(80..=180, -100.0, &[(2, -90.0), (4, -92.0)]);
        // Cell 4 fires first although cell 2 is stronger.
        assert_eq!(fired, [(140, CellId(4)), (180, CellId(2))]);
    }

    #[test]
    fn best_candidate_wins() {
        // Stage 1: the strongest intra-frequency candidate; the stronger
        // inter-frequency cell 3 is invisible.
        let mut l = Legacy::new(0.0, 0.0);
        let nbs = [(2, -95.0), (3, -80.0), (4, -90.0)];
        assert_eq!(l.run(0..=0, -100.0, &nbs), [(0, CellId(4))]);
        // Stage 2 (zero-TTT gate): A3 and A4 candidates compete.
        let mut l = Legacy::new(0.0, 0.0);
        let nbs = [(2, -100.0), (3, -90.0), (4, -95.0), (5, -104.0)];
        assert_eq!(l.run(0..=0, -115.0, &nbs), [(0, CellId(3))]);
    }

    #[test]
    fn reset_returns_to_stage1() {
        let mut l = Legacy::new(0.0, 100.0);
        assert_eq!(l.run(0..=100, -115.0, &[]), []);
        assert!(l.monitors.stage2);
        l.monitors.reset();
        assert!(!l.monitors.stage2);
        // The gate holds its full TTT again.
        assert_eq!(l.run(120..=200, -115.0, &[]), []);
        assert!(!l.monitors.stage2);
        assert_eq!(l.run(220..=220, -115.0, &[]), []);
        assert!(l.monitors.stage2);
    }

    #[test]
    fn rem_a3_admits_every_carrier_without_a_gate() {
        // REM's single-stage A3 runs over every cell: cell 1 shares the
        // serving site on the other carrier (measured, not estimated).
        let l = Legacy::new(0.0, 0.0);
        let cfg = RunConfig::new(l.spec.clone(), Plane::Rem, 1);
        let mut plane = PlaneState::new(&cfg, Plane::Rem, &l.cells, Some(CellId(0)));
        let radio = |c, snr_db| CellRadio { cell: CellId(c), rsrp_dbm: -100.0, snr_db };
        let obs = [radio(0, 0.0), radio(1, 10.0)];
        let fired: Vec<f64> = [0.0, 20.0, 40.0]
            .into_iter()
            .filter(|&t| plane.evaluate_rem(&l.cells, CellId(0), t, &obs, false).is_some())
            .collect();
        // REM's 40 ms TTT, with no A2 gate and no measurement gap.
        assert_eq!((fired, plane.metrics.rem_fallback_epochs), (vec![40.0], 0));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use std::collections::HashSet;

    fn faulted_cfg(plane: Plane, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(DatasetSpec::beijing_taiyuan(20.0, 300.0), plane, seed);
        cfg.faults = Some(FaultConfig::aggressive());
        cfg
    }

    #[test]
    fn unfaulted_runs_carry_no_fault_artifacts() {
        let m = simulate_run(&RunConfig::new(DatasetSpec::beijing_taiyuan(15.0, 250.0), Plane::Legacy, 1));
        assert!(m.injected.is_empty());
        assert!(m.fault_oracle.is_empty());
        assert_eq!(m.rem_fallback_epochs, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cfg = faulted_cfg(Plane::Legacy, 11);
        let a = simulate_run(&cfg);
        let b = simulate_run(&cfg);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.handovers, b.handovers);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.fault_oracle, b.fault_oracle);
        assert_eq!(a.reestablish_attempts, b.reestablish_attempts);
    }

    #[test]
    fn client_id_decorrelates_fault_schedules() {
        let cfg = faulted_cfg(Plane::Legacy, 11);
        let mut other = cfg.clone();
        other.client_id = 1;
        let a = simulate_run(&cfg);
        let b = simulate_run(&other);
        assert_ne!(a.injected, b.injected);
    }

    #[test]
    fn injection_provokes_failures() {
        let spec = DatasetSpec::beijing_taiyuan(20.0, 300.0);
        let clean = simulate_run(&RunConfig::new(spec.clone(), Plane::Legacy, 21));
        let mut cfg = RunConfig::new(spec, Plane::Legacy, 21);
        cfg.faults = Some(FaultConfig::aggressive());
        let faulted = simulate_run(&cfg);
        assert!(!faulted.injected.is_empty());
        assert!(
            faulted.failures.len() > clean.failures.len(),
            "faulted={} clean={}",
            faulted.failures.len(),
            clean.failures.len()
        );
    }

    #[test]
    fn oracle_classification_matches_ground_truth() {
        let mut kinds: HashSet<FaultKind> = HashSet::new();
        let mut pairs = 0usize;
        for seed in 1u64..=5 {
            for plane in [Plane::Legacy, Plane::Rem] {
                let m = simulate_run(&faulted_cfg(plane, seed));
                for pair in &m.fault_oracle {
                    assert!(pair.matches(), "{plane:?} seed {seed}: {pair:?}");
                    kinds.insert(pair.kind);
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 0, "no fault was ever held responsible for a failure");
        // Injected blackouts reliably bring the link down.
        assert!(kinds.contains(&FaultKind::CoverageHole), "kinds={kinds:?}");
    }

    #[test]
    fn reestablishment_is_counted_and_traced() {
        let mut cfg = faulted_cfg(Plane::Legacy, 7);
        cfg.record_trace = true;
        let m = simulate_run(&cfg);
        assert!(!m.failures.is_empty());
        // Every mid-run recovery took at least one attempt; only a
        // failure still open at run end may lack one.
        assert!(m.reestablish_attempts >= m.failures.len().saturating_sub(1));
        assert_eq!(m.trace.count("REESTABLISH"), m.reestablish_attempts);
    }

    #[test]
    fn rem_degrades_gracefully_under_feedback_faults() {
        let m = simulate_run(&faulted_cfg(Plane::Rem, 9));
        assert!(m.rem_fallback_epochs > 0, "REM never fell back");
    }

    #[test]
    fn x2_preparation_is_exercised() {
        let m = simulate_run(&RunConfig::new(DatasetSpec::beijing_taiyuan(20.0, 250.0), Plane::Legacy, 1));
        assert!(!m.handovers.is_empty());
        // Request + ack + SN status + context release per completed
        // handover, plus whatever failed attempts spent.
        assert!(m.signaling.x2_messages >= 4 * m.handovers.len());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn trace_recording_captures_the_procedure() {
        let spec = DatasetSpec::beijing_taiyuan(15.0, 250.0);
        let mut cfg = RunConfig::new(spec, Plane::Legacy, 1);
        cfg.record_trace = true;
        let m = simulate_run(&cfg);
        assert!(!m.trace.is_empty());
        // Every completed handover appears in the trace.
        assert_eq!(m.trace.count("HO_COMPLETE"), m.handovers.len());
        // Every failure appears as an RLF.
        assert_eq!(m.trace.count("RLF"), m.failures.len());
        // Reports precede commands precede completions.
        assert!(m.trace.count("MEAS_REPORT") >= m.trace.count("HO_COMMAND"));
        assert!(m.trace.count("HO_COMMAND") >= m.trace.count("HO_COMPLETE"));
        // Chronological order.
        for w in m.trace.events.windows(2) {
            assert!(w[1].t_ms() >= w[0].t_ms());
        }
        // JSONL round trip.
        let back = crate::trace::SignalingTrace::from_jsonl(&m.trace.to_jsonl()).unwrap();
        assert_eq!(back.events.len(), m.trace.events.len());
    }

    #[test]
    fn trace_off_by_default() {
        let spec = DatasetSpec::beijing_taiyuan(10.0, 250.0);
        let m = simulate_run(&RunConfig::new(spec, Plane::Legacy, 2));
        assert!(m.trace.is_empty());
    }
}

#[cfg(test)]
mod trajectory_run_tests {
    use super::*;
    use crate::trajectory::SpeedProfile;

    #[test]
    fn station_profile_campaign_runs() {
        let mut spec = DatasetSpec::beijing_taiyuan(25.0, 300.0);
        // 300 km/h at 0.5 m/s^2 needs ~14 km of ramp: stops every 20 km.
        spec.speed_profile = SpeedProfile::Stations {
            stop_every_m: 20_000.0,
            dwell_s: 90.0,
            accel_ms2: 0.5,
        };
        // Stops lengthen the journey.
        let constant = DatasetSpec::beijing_taiyuan(25.0, 300.0);
        assert!(spec.duration_s() > constant.duration_s() + 120.0);

        let m = simulate_run(&RunConfig::new(spec, Plane::Rem, 3));
        assert!(m.handovers.len() >= 5, "handovers={}", m.handovers.len());
        // The run covers the same cells, just over more time.
        assert!(m.duration_s > constant.duration_s());
    }

    #[test]
    fn station_profile_is_deterministic() {
        let mut spec = DatasetSpec::beijing_taiyuan(15.0, 250.0);
        spec.speed_profile = SpeedProfile::Stations {
            stop_every_m: 12_000.0,
            dwell_s: 60.0,
            accel_ms2: 0.5,
        };
        let cfg = RunConfig::new(spec, Plane::Legacy, 9);
        let a = simulate_run(&cfg);
        let b = simulate_run(&cfg);
        assert_eq!(a.handovers, b.handovers);
    }
}
