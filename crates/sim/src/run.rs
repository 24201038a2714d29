//! The mobility-management campaign simulator.
//!
//! Replays a client moving along a synthetic route (dataset spec) under
//! either the legacy 4G/5G signaling plane or REM's delay-Doppler
//! overlay, reproducing the paper's replay methodology (§7): same
//! radio environment, same policies, different mobility machinery.
//!
//! Per measurement epoch (20 ms):
//!
//! 1. advance the client, observe per-cell RSRP/SNR (slow envelope);
//! 2. evaluate measurement events on *stale* observations — the
//!    staleness models the sequential measurement + reporting pipeline
//!    of §3.1 (legacy intra ≈ 160 ms, inter ≈ 640 ms; REM ≈ 40 ms via
//!    cross-band estimation);
//! 3. fired events start a handover attempt: uplink report, decision,
//!    downlink command, attach — each message drawn from the
//!    waveform-dependent link model (OFDM for legacy, OTFS for REM);
//! 4. radio-link failure (serving SINR below `Q_out` for 200 ms) ends
//!    connectivity; the failure is classified with the Table 2 taxonomy
//!    and an outage runs until re-establishment.

use crate::dataset::DatasetSpec;
use crate::deployment::Deployment;
use crate::linkmodel::{deliver_with_harq, effective_sinr_db, SignalingLinkCfg};
use crate::metrics::{detect_loops, FailureRecord, HandoverRecord, RunMetrics};
use crate::radio::{CellRadio, RadioEnv, ShadowingCfg};
use crate::trace::SignalingEvent;
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
/// X2 handover-preparation round trip on the backhaul (ms).
const X2_PREP_MS: f64 = 5.0;
/// Serving-cell guard timer on a lost X2 preparation (ms).
const X2_PREP_TIMEOUT_MS: f64 = 120.0;
/// How long after a measurement-masking window closes a missed-cell
/// failure is still attributed to it (the fade + RLF timer lag the
/// blinding that caused them).
const MASK_ATTRIB_SLACK_MS: f64 = 1_000.0;
/// Cross-band estimates outside this envelope (Fig 12's 90% bound) are
/// low-confidence: REM degrades to directly-measured cells only.
const CONF_LIMIT_DB: f64 = 2.0;

#[derive(Clone, Copy, Debug)]
enum UeState {
    Connected {
        serving: CellId,
    },
    /// A handover attempt resolving at `resolve_at_ms`.
    Attempting {
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
    },
    Outage {
        since_ms: f64,
        cause: FailureCause,
        next_try_ms: f64,
        attempt: u32,
    },
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

/// Runs one campaign and returns its metrics.
pub fn simulate_run(cfg: &RunConfig) -> RunMetrics {
    let spec = &cfg.spec;
    let mut env_rng = child_rng(cfg.seed, "environment");
    let mut link_rng = child_rng(cfg.seed, &format!("link-{:?}", cfg.plane));
    let mut est_rng = child_rng(cfg.seed, "estimation");

    let deployment = spec.deployment.generate(&mut env_rng);
    let mut env = RadioEnv::new(
        deployment.clone(),
        ShadowingCfg { sigma_db: spec.shadow_sigma_db, d_corr_m: spec.shadow_dcorr_m },
    );

    let trajectory = spec.trajectory();
    let duration_ms = spec.duration_s() * 1e3;
    let waveform = match cfg.plane {
        Plane::Legacy => Waveform::Ofdm,
        Plane::Rem if cfg.ablation.otfs_signaling => Waveform::Otfs,
        Plane::Rem => Waveform::Ofdm,
    };
    // Cross-band ablation: REM falls back to legacy measurement
    // staleness when it must measure every band sequentially.
    let rem_staleness = if cfg.ablation.crossband_feedback {
        spec.rem_staleness_ms
    } else {
        spec.intra_staleness_ms.max(spec.inter_staleness_ms)
    };

    // This epoch's observation, by descending RSRP.
    let mut obs_vec: Vec<CellRadio> = Vec::new();
    // Measurement history for staleness lookups: one slot per epoch,
    // each sorted by `CellId`. Slots are recycled once the history is
    // full, so the epoch loop stops allocating after its first second.
    let hist_len = (1_000.0 / EPOCH_MS) as usize + 2;
    let mut history: VecDeque<(f64, Vec<CellRadio>)> = VecDeque::with_capacity(hist_len);

    // Per-cell state lives in dense vectors indexed by cell id
    // (`generate` numbers cells from 0).
    let n_cells = deployment.cells().map(|c| c.id.0 as usize + 1).max().unwrap_or(0);

    // Event-monitor state.
    let mut a3_monitors = vec![EventMonitor::default(); n_cells];
    let mut a4_monitors = vec![EventMonitor::default(); n_cells];
    let mut a2_monitor = EventMonitor::default();
    let mut a1_monitor = EventMonitor::default();
    let mut stage2 = false;
    let mut stage2_since_ms = f64::NAN;

    // REM cross-band estimation error: slowly-varying per-cell AR(1)
    // (the delay-Doppler profile drifts on path-geometry timescales,
    // so the estimation error is correlated over hundreds of ms).
    let mut est_err: Vec<Option<f64>> = vec![None; n_cells];

    // RLF bookkeeping. The message-failure latch remembers when the
    // last signaling exchange broke, with what cause, and — when an
    // injected fault broke it — the ground-truth fault class for the
    // classification oracle.
    let mut below_since: Option<f64> = None;
    let mut last_msg_failure: Option<(f64, FailureCause, Option<FaultKind>)> = None;
    let mut guard_until_ms = 0.0f64;

    // Rolling BLER window for Fig 2b (5 s).
    let mut bler_window: VecDeque<(f64, f64, f64)> = VecDeque::new();

    let mut metrics = RunMetrics { duration_s: spec.duration_s(), ..Default::default() };

    // The fault schedule is a pure function of (seed, client_id) drawn
    // from its own child_rng streams: it never touches the simulation
    // RNGs above, so campaigns stay bit-identical on any thread count
    // and an unfaulted run is byte-for-byte the pre-injection run.
    let plan = match &cfg.faults {
        Some(fc) => FaultPlan::generate(fc, cfg.seed, cfg.client_id, duration_ms),
        None => FaultPlan::empty(),
    };
    let extra_delay_ms = cfg.faults.as_ref().map_or(0.0, |f| f.extra_delay_ms);

    // X2 endpoint state: one client, so target-side admission control
    // is modeled as a single shared pool, released as attempts resolve.
    let ue = UeId(cfg.client_id as u32);
    let mut admission = AdmissionControl::new(8);
    let mut rach_preamble: u8 = 0;

    // Initial attach.
    env.observe_into(0.0, RANGE_M, &mut env_rng, &mut obs_vec);
    let mut state = match obs_vec.first() {
        Some(best) => {
            if cfg.record_trace {
                metrics.trace.push(SignalingEvent::Attach { t_ms: 0.0, cell: best.cell });
            }
            UeState::Connected { serving: best.cell }
        }
        None => UeState::Outage {
            since_ms: 0.0,
            cause: FailureCause::CoverageHole,
            next_try_ms: REESTABLISH_SCAN_MS,
            attempt: 0,
        },
    };

    let mut t = 0.0f64;
    while t < duration_ms {
        let (pos, speed) = trajectory.state_at(t / 1e3);
        env.observe_into(pos, RANGE_M, &mut env_rng, &mut obs_vec);
        let mut slot = if history.len() == hist_len {
            history.pop_front().expect("the history is full").1
        } else {
            Vec::new()
        };
        slot.clear();
        slot.extend_from_slice(&obs_vec);
        slot.sort_unstable_by_key(|c| c.cell);
        history.push_back((t, slot));
        let obs: &[CellRadio] = &history.back().expect("pushed above").1;
        let stale = |delay_ms: f64| -> &[CellRadio] {
            let cutoff = t - delay_ms;
            let (_, slot) =
                history.iter().rev().find(|(ht, _)| *ht <= cutoff).unwrap_or(&history[0]);
            slot
        };

        // An injected blackout: no cell receivable for the window. The
        // environment was still observed above, so the `environment`
        // RNG stream is identical with and without the fault.
        let forced_hole = plan.active(FaultKind::CoverageHole, t).is_some();

        match state {
            UeState::Connected { serving } => {
                let serving_now = radio_of(obs, serving);
                let serving_cell = deployment.cell(serving);

                // --- BLER window sample (serving link, both directions).
                if let (Some(sr), Some(sc)) = (serving_now, serving_cell) {
                    let ul = bler_estimate(
                        effective_sinr_db(&cfg.link, sr.snr_db, speed, sc.carrier_hz, waveform, &mut link_rng),
                        Modulation::Qpsk,
                    );
                    let dl = bler_estimate(
                        effective_sinr_db(&cfg.link, sr.snr_db, speed, sc.carrier_hz, waveform, &mut link_rng),
                        Modulation::Qpsk,
                    );
                    bler_window.push_back((t, ul, dl));
                    while bler_window.front().is_some_and(|(wt, _, _)| t - wt > 5_000.0) {
                        bler_window.pop_front();
                    }
                }

                // --- RLF detection (an injected blackout reads as no
                // receivable serving signal).
                let snr_now = if forced_hole {
                    -30.0
                } else {
                    serving_now.map(|c| c.snr_db).unwrap_or(-30.0)
                };
                if snr_now < RLF_SNR_DB {
                    if below_since.is_none() {
                        below_since = Some(t);
                    }
                } else {
                    below_since = None;
                }
                if below_since.is_some_and(|b| t - b >= RLF_TIMER_MS) {
                    let missed_possible =
                        missed_cell_possible(&deployment, &obs_vec, serving, stage2, cfg.plane);
                    let cause = classify_rlf(
                        &deployment,
                        pos,
                        &obs_vec,
                        serving,
                        forced_hole,
                        missed_possible,
                        t,
                        last_msg_failure,
                    );
                    // Oracle bookkeeping: when the failure is
                    // attributable to an injected fault, pair the
                    // fault's ground truth with the classification.
                    if let Some(kind) = attribute_failure(
                        &plan,
                        forced_hole,
                        deployment.in_hole(pos),
                        last_msg_failure,
                        missed_possible,
                        t,
                    ) {
                        if matches!(kind, FaultKind::CoverageHole | FaultKind::MaskCell) {
                            metrics.injected.push(InjectedFault {
                                t_ms: t,
                                kind,
                                mode: FaultMode::Drop,
                            });
                        }
                        metrics.fault_oracle.push(OraclePair {
                            t_ms: t,
                            kind,
                            truth: kind.ground_truth(),
                            classified: cause,
                        });
                    }
                    for (_, ul, dl) in &bler_window {
                        metrics.bler_before_failure_ul.push(*ul);
                        metrics.bler_before_failure_dl.push(*dl);
                    }
                    if cfg.record_trace {
                        metrics.trace.push(SignalingEvent::RadioLinkFailure {
                            t_ms: t,
                            serving,
                            cause,
                        });
                    }
                    state = UeState::Outage {
                        since_ms: t,
                        cause,
                        next_try_ms: t + REESTABLISH_SCAN_MS,
                        attempt: 0,
                    };
                    below_since = None;
                    last_msg_failure = None;
                    reset_monitors(&mut a3_monitors, &mut a4_monitors, &mut a2_monitor, &mut a1_monitor, &mut stage2);
                    t += EPOCH_MS;
                    continue;
                }

                // --- Event evaluation on stale measurements (suppressed
                // during the post-handover settling guard, during an
                // injected blackout, and while an injected mask blinds
                // the measurement pipeline).
                let masked = plan.active(FaultKind::MaskCell, t).is_some();
                let stage2_before = stage2;
                let trigger = if t < guard_until_ms || forced_hole || masked {
                    None
                } else {
                    match cfg.plane {
                    Plane::Legacy => evaluate_legacy(
                        spec,
                        &deployment,
                        serving,
                        t,
                        stale(spec.intra_staleness_ms),
                        stale(spec.inter_staleness_ms),
                        &mut a3_monitors,
                        &mut a4_monitors,
                        &mut a2_monitor,
                        &mut a1_monitor,
                        &mut stage2,
                        &mut stage2_since_ms,
                    ),
                    Plane::Rem => evaluate_rem(
                        spec,
                        &deployment,
                        serving,
                        t,
                        stale(rem_staleness),
                        rem_staleness,
                        cfg.rem_clamp_offsets,
                        // Cross-band inputs lost: degrade gracefully to
                        // directly-measured cells (legacy single-cell
                        // handover) rather than trusting stale or
                        // missing estimates.
                        plan.active(FaultKind::DropFeedback, t).is_some(),
                        &mut a3_monitors,
                        &mut est_err,
                        &mut est_rng,
                        &mut metrics.rem_fallback_epochs,
                    ),
                    }
                };

                // Legacy stage transitions cost a reconfiguration
                // message each (A2 -> configure inter-freq, A1 -> tear
                // down).
                if stage2 != stage2_before {
                    metrics.signaling.reconfigs += 1;
                }

                if let Some((target, ttt_ms, staleness_ms)) = trigger {
                    // Run the attempt's message exchanges now; the
                    // resolution lands after the accumulated airtime.
                    let (s_snr, carrier) = match (serving_now, serving_cell) {
                        (Some(sr), Some(sc)) => (sr.snr_db, sc.carrier_hz),
                        _ => (-30.0, 2e9),
                    };
                    // Signaling faults scheduled over this instant. The
                    // channel is always sampled first so the link RNG
                    // stream is unchanged by injection.
                    let feedback_fault = plan.active(FaultKind::DropFeedback, t).map(|f| f.mode);
                    let command_fault = plan.active(FaultKind::DropCommand, t).map(|f| f.mode);
                    let x2_fault = plan.active(FaultKind::DropX2, t).is_some();

                    let (chan_report_ok, report_tries, _) = deliver_with_harq(
                        &cfg.link, s_snr, speed, carrier, waveform, HARQ_ATTEMPTS, &mut link_rng,
                    );
                    let delayed = matches!(feedback_fault, Some(FaultMode::Delay));
                    let report_ok = match feedback_fault {
                        None => chan_report_ok,
                        // Arrives, but far too late (handled below).
                        Some(FaultMode::Delay) => chan_report_ok,
                        Some(FaultMode::Corrupt) => {
                            // The report arrives garbled; the RRC codec
                            // gets the final vote and must reject it.
                            let msg =
                                RrcMessage::MeasurementReport { cells: vec![(target, s_snr)] };
                            let mut raw = msg.encode();
                            rem_faults::corrupt(&mut raw);
                            chan_report_ok && RrcMessage::decode(&raw).is_some()
                        }
                        Some(FaultMode::Drop) => false,
                    };
                    if let Some(mode) = feedback_fault {
                        metrics.injected.push(InjectedFault {
                            t_ms: t,
                            kind: FaultKind::DropFeedback,
                            mode,
                        });
                    }
                    metrics.signaling.reports += 1;
                    metrics.signaling.harq_transmissions += report_tries;
                    if cfg.record_trace {
                        metrics.trace.push(SignalingEvent::MeasurementReport {
                            t_ms: t,
                            serving,
                            target,
                            delivered: report_ok && !delayed,
                        });
                    }
                    let mut sm = HandoverAttempt::trigger(t);
                    let mut elapsed = report_tries as f64 * HARQ_MS;
                    let mut outcome = AttemptOutcome::ReportLost;
                    let mut injected = feedback_fault.map(|_| FaultKind::DropFeedback);
                    let mut prep: Option<HandoverPreparation> = None;
                    if delayed {
                        // The report is in flight well past the T310
                        // deadline; supervision will kill the attempt.
                        elapsed += extra_delay_ms;
                    } else if report_ok {
                        sm.report_received(t + elapsed).expect("report follows trigger");
                        elapsed += DECISION_MS;
                        // X2 preparation with the target eNB gates the
                        // command (admission + RACH preamble).
                        let (mut p, req) = HandoverPreparation::start(ue, target);
                        metrics.signaling.x2_messages += 1;
                        let prep_ok = if x2_fault {
                            // Request (or its ack) lost on the
                            // backhaul: the serving cell waits out its
                            // preparation guard timer and gives up.
                            elapsed += X2_PREP_TIMEOUT_MS;
                            injected = Some(FaultKind::DropX2);
                            metrics.injected.push(InjectedFault {
                                t_ms: t,
                                kind: FaultKind::DropX2,
                                mode: FaultMode::Drop,
                            });
                            false
                        } else {
                            elapsed += X2_PREP_MS;
                            rach_preamble = rach_preamble.wrapping_add(1);
                            let resp = target_handle_request(&mut admission, &req, rach_preamble)
                                .expect("handover request draws a response");
                            metrics.signaling.x2_messages += 1;
                            p.on_response(&resp).expect("response matches the request");
                            if p.ready_to_command() {
                                prep = Some(p);
                                true
                            } else {
                                // Admission denied by the target.
                                false
                            }
                        };
                        if prep_ok {
                            let (chan_cmd_ok, cmd_tries, _) = deliver_with_harq(
                                &cfg.link, s_snr, speed, carrier, waveform, HARQ_ATTEMPTS,
                                &mut link_rng,
                            );
                            let cmd_ok = match command_fault {
                                None => chan_cmd_ok,
                                Some(FaultMode::Corrupt) => {
                                    let msg = RrcMessage::HandoverCommand { target };
                                    let mut raw = msg.encode();
                                    rem_faults::corrupt(&mut raw);
                                    chan_cmd_ok && RrcMessage::decode(&raw).is_some()
                                }
                                Some(_) => false,
                            };
                            if let Some(mode) = command_fault {
                                injected = Some(FaultKind::DropCommand);
                                metrics.injected.push(InjectedFault {
                                    t_ms: t,
                                    kind: FaultKind::DropCommand,
                                    mode,
                                });
                            }
                            metrics.signaling.commands += 1;
                            metrics.signaling.harq_transmissions += cmd_tries;
                            if cfg.record_trace {
                                metrics.trace.push(SignalingEvent::HandoverCommand {
                                    t_ms: t,
                                    serving,
                                    target,
                                    delivered: cmd_ok,
                                });
                            }
                            elapsed += cmd_tries as f64 * HARQ_MS;
                            if cmd_ok {
                                sm.command_received(t + elapsed).expect("command follows report");
                                // The UE obeyed the command: transfer
                                // PDCP state so the target can resume
                                // lossless.
                                if let Some(p) = prep.as_mut() {
                                    let sn = metrics.signaling.commands as u32;
                                    p.send_sn_status(sn, sn).expect("prepared before command");
                                    metrics.signaling.x2_messages += 1;
                                }
                                elapsed += ATTACH_MS;
                                outcome = AttemptOutcome::Success; // target checked at resolve
                            } else {
                                outcome = AttemptOutcome::CommandLost;
                            }
                        } else {
                            outcome = AttemptOutcome::PrepFailed;
                        }
                    }
                    let feedback_delay = staleness_ms + ttt_ms + report_tries as f64 * HARQ_MS;
                    metrics.feedback_delays_ms.push(feedback_delay);
                    state = UeState::Attempting {
                        serving,
                        target,
                        resolve_at_ms: t + elapsed,
                        outcome,
                        feedback_delay_ms: feedback_delay,
                        sm,
                        injected,
                        prep,
                    };
                }
            }

            UeState::Attempting {
                serving,
                target,
                resolve_at_ms,
                outcome,
                feedback_delay_ms,
                sm,
                injected,
                prep,
            } => {
                // RLF can still strike mid-attempt.
                let snr_now = if forced_hole {
                    -30.0
                } else {
                    radio_of(obs, serving).map(|c| c.snr_db).unwrap_or(-30.0)
                };
                if snr_now < RLF_SNR_DB {
                    if below_since.is_none() {
                        below_since = Some(t);
                    }
                } else {
                    below_since = None;
                }
                let rlf = below_since.is_some_and(|b| t - b >= RLF_TIMER_MS);

                // T310/T304 supervision: a silently in-flight message
                // (the delay-fault manifestation) must not hang the
                // procedure past its deadline.
                let expired =
                    if t < resolve_at_ms && !rlf { cfg.timers.supervise(&sm, t) } else { None };

                if let Some(expiry) = expired {
                    let cause = expiry.cause();
                    let mut sm = sm;
                    sm.fail(t.max(sm.last_event_ms()), cause)
                        .expect("supervised attempt is non-terminal");
                    if prep.is_some() {
                        admission.release();
                    }
                    last_msg_failure = Some((t, cause, injected));
                    state = UeState::Connected { serving };
                    a3_monitors.fill(EventMonitor::default());
                    a4_monitors.fill(EventMonitor::default());
                } else if t >= resolve_at_ms || rlf {
                    let mut outcome = outcome;
                    if rlf && outcome == AttemptOutcome::Success && t < resolve_at_ms {
                        // Lost the link before the procedure finished.
                        outcome = AttemptOutcome::TargetFaded;
                    }
                    // The attempt concludes now; transitions clamp to
                    // the last recorded procedure event because the
                    // exchange was pre-computed at trigger time.
                    let mut sm = sm;
                    let sm_now = t.max(sm.last_event_ms());
                    match outcome {
                        AttemptOutcome::Success => {
                            let target_ok = !forced_hole
                                && radio_of(obs, target)
                                    .is_some_and(|c| c.snr_db >= ATTACH_MIN_SNR_DB);
                            if target_ok {
                                sm.complete(sm_now).expect("executing attempt completes");
                                if let Some(mut p) = prep {
                                    // UE arrived: the target releases
                                    // the old serving-side context.
                                    p.on_response(&X2Message::UeContextRelease { ue })
                                        .expect("release follows forwarding");
                                    admission.release();
                                    metrics.signaling.x2_messages += 1;
                                }
                                let from_cell = deployment.cell(serving);
                                let to_cell = deployment.cell(target);
                                let intra = match (from_cell, to_cell) {
                                    (Some(a), Some(b)) => a.earfcn == b.earfcn,
                                    _ => false,
                                };
                                metrics.handovers.push(HandoverRecord {
                                    t_ms: t,
                                    from: serving,
                                    to: target,
                                    intra_freq: intra,
                                    feedback_delay_ms,
                                });
                                if cfg.record_trace {
                                    metrics.trace.push(SignalingEvent::HandoverComplete {
                                        t_ms: t,
                                        from: serving,
                                        to: target,
                                    });
                                }
                                state = UeState::Connected { serving: target };
                                below_since = None;
                                guard_until_ms = t + POST_HO_GUARD_MS;
                                reset_monitors(&mut a3_monitors, &mut a4_monitors, &mut a2_monitor, &mut a1_monitor, &mut stage2);
                            } else {
                                // Too late: the chosen target already faded.
                                sm.fail(sm_now, FailureCause::FeedbackDelayLoss)
                                    .expect("non-terminal attempt fails");
                                if prep.is_some() {
                                    admission.release();
                                }
                                last_msg_failure =
                                    Some((t, FailureCause::FeedbackDelayLoss, injected));
                                state = UeState::Connected { serving };
                                a3_monitors.fill(EventMonitor::default());
                                a4_monitors.fill(EventMonitor::default());
                            }
                        }
                        AttemptOutcome::ReportLost | AttemptOutcome::TargetFaded => {
                            sm.fail(sm_now, FailureCause::FeedbackDelayLoss)
                                .expect("non-terminal attempt fails");
                            if prep.is_some() {
                                admission.release();
                            }
                            last_msg_failure =
                                Some((t, FailureCause::FeedbackDelayLoss, injected));
                            state = UeState::Connected { serving };
                            // The UE keeps reporting: clear the latched
                            // monitors so the trigger can re-fire.
                            a3_monitors.fill(EventMonitor::default());
                            a4_monitors.fill(EventMonitor::default());
                        }
                        AttemptOutcome::PrepFailed | AttemptOutcome::CommandLost => {
                            sm.fail(sm_now, FailureCause::CommandLoss)
                                .expect("non-terminal attempt fails");
                            if prep.is_some() {
                                admission.release();
                            }
                            last_msg_failure = Some((t, FailureCause::CommandLoss, injected));
                            state = UeState::Connected { serving };
                            a3_monitors.fill(EventMonitor::default());
                            a4_monitors.fill(EventMonitor::default());
                        }
                    }
                }
            }

            UeState::Outage { since_ms, cause, next_try_ms, attempt } => {
                if t >= next_try_ms {
                    let blocked = forced_hole || deployment.in_hole(pos);
                    let candidate = if blocked {
                        None
                    } else {
                        obs_vec.iter().find(|c| c.snr_db >= ATTACH_MIN_SNR_DB)
                    };
                    metrics.reestablish_attempts += 1;
                    let tries = attempt + 1;
                    if cfg.record_trace {
                        metrics.trace.push(SignalingEvent::Reestablish {
                            t_ms: t,
                            attempt: tries,
                            success: candidate.is_some(),
                        });
                    }
                    if let Some(best) = candidate {
                        metrics.failures.push(FailureRecord {
                            t_ms: since_ms,
                            cause,
                            outage_ms: t - since_ms,
                        });
                        if cfg.record_trace {
                            metrics.trace.push(SignalingEvent::Attach { t_ms: t, cell: best.cell });
                        }
                        state = UeState::Connected { serving: best.cell };
                        bler_window.clear();
                    } else if tries >= cfg.reestablish.max_attempts {
                        // Retries exhausted: abandon re-establishment
                        // and restart from a full scan + RRC setup,
                        // resetting the backoff ladder.
                        state = UeState::Outage {
                            since_ms,
                            cause,
                            next_try_ms: t + REESTABLISH_SCAN_MS,
                            attempt: 0,
                        };
                    } else {
                        let backoff = cfg.reestablish.initial_backoff_ms
                            * cfg.reestablish.backoff_factor.powi(tries as i32 - 1);
                        state = UeState::Outage {
                            since_ms,
                            cause,
                            next_try_ms: t + backoff,
                            attempt: tries,
                        };
                    }
                }
            }
        }

        t += EPOCH_MS;
    }

    // A run ending inside an outage still records the failure.
    if let UeState::Outage { since_ms, cause, .. } = state {
        metrics.failures.push(FailureRecord { t_ms: since_ms, cause, outage_ms: duration_ms - since_ms });
    }

    // Loop semantics: a bounce is a *policy conflict* when the pair's
    // effective A3 offsets sum below zero (Theorem 2's violated
    // condition); under REM's clamping that sum is always >= 0.
    let clamp = cfg.plane == Plane::Rem && cfg.rem_clamp_offsets;
    metrics.loops = detect_loops(&metrics.handovers, LOOP_WINDOW_MS, HO_DISRUPTION_MS, |a, b| {
        let mut fwd = spec.a3_offset(a, b);
        let mut back = spec.a3_offset(b, a);
        if clamp {
            fwd = fwd.max(0.0);
            back = back.max(0.0);
        }
        fwd + back < 0.0
    });

    rem_obs::metrics::inc("rem_sim_runs_total");
    rem_obs::metrics::add("rem_sim_handovers_total", metrics.handovers.len() as u64);
    rem_obs::metrics::add("rem_sim_failures_total", metrics.failures.len() as u64);
    rem_obs::metrics::add(
        "rem_sim_reestablish_attempts_total",
        metrics.reestablish_attempts as u64,
    );
    rem_obs::trace::emit(
        "sim",
        "run_done",
        &[
            ("plane", format!("{:?}", cfg.plane).into()),
            ("seed", cfg.seed.into()),
            ("handovers", metrics.handovers.len().into()),
            ("failures", metrics.failures.len().into()),
            ("loops", metrics.loops.len().into()),
        ],
    );
    metrics
}

/// The radio state of `cell` in an observation sorted by `CellId`.
fn radio_of(obs: &[CellRadio], cell: CellId) -> Option<&CellRadio> {
    obs.binary_search_by_key(&cell, |c| c.cell).ok().map(|i| &obs[i])
}

fn reset_monitors(
    a3: &mut [EventMonitor],
    a4: &mut [EventMonitor],
    a2: &mut EventMonitor,
    a1: &mut EventMonitor,
    stage2: &mut bool,
) {
    a3.fill(EventMonitor::default());
    a4.fill(EventMonitor::default());
    a2.reset();
    a1.reset();
    *stage2 = false;
}

/// Whether a viable cell existed on another frequency that legacy
/// stage-1 monitoring never measured (the §3.2 missed-cell condition).
/// Shared by the classifier and the oracle attribution so both reason
/// from the same evidence.
fn missed_cell_possible(
    deployment: &Deployment,
    obs: &[CellRadio],
    serving: CellId,
    stage2: bool,
    plane: Plane,
) -> bool {
    if plane != Plane::Legacy || stage2 {
        return false;
    }
    let serving_earfcn = deployment.cell(serving).map(|c| c.earfcn);
    obs.iter().any(|c| {
        c.snr_db > 0.0
            && deployment.cell(c.cell).map(|cc| Some(cc.earfcn) != serving_earfcn).unwrap_or(false)
    })
}

/// Classifies a radio-link failure per the Table 2 taxonomy.
#[allow(clippy::too_many_arguments)]
fn classify_rlf(
    deployment: &Deployment,
    pos_m: f64,
    obs: &[CellRadio],
    serving: CellId,
    forced_hole: bool,
    missed_possible: bool,
    now_ms: f64,
    last_msg_failure: Option<(f64, FailureCause, Option<FaultKind>)>,
) -> FailureCause {
    if forced_hole || deployment.in_hole(pos_m) {
        return FailureCause::CoverageHole;
    }
    if let Some((ft, cause, _)) = last_msg_failure {
        if now_ms - ft <= 5_000.0 {
            return cause;
        }
    }
    if missed_possible {
        return FailureCause::MissedCell;
    }
    // No in-coverage candidate at all behaves like a hole.
    if !obs.iter().any(|c| c.cell != serving && c.snr_db > ATTACH_MIN_SNR_DB) {
        return FailureCause::CoverageHole;
    }
    FailureCause::FeedbackDelayLoss
}

/// Decides which injected fault (if any) a just-classified failure is
/// attributable to. Mirrors [`classify_rlf`]'s precedence exactly so
/// the oracle only claims failures the classifier reasons about from
/// the same evidence: a genuine (deployment) hole pre-empting an
/// injected message fault is ambiguous and claimed by neither.
fn attribute_failure(
    plan: &FaultPlan,
    forced_hole: bool,
    genuine_hole: bool,
    last_msg_failure: Option<(f64, FailureCause, Option<FaultKind>)>,
    missed_possible: bool,
    now_ms: f64,
) -> Option<FaultKind> {
    if forced_hole {
        return Some(FaultKind::CoverageHole);
    }
    if genuine_hole {
        return None;
    }
    if let Some((ft, _, injected)) = last_msg_failure {
        if now_ms - ft <= 5_000.0 {
            return injected;
        }
    }
    if missed_possible
        && plan.active_within(FaultKind::MaskCell, now_ms, MASK_ATTRIB_SLACK_MS).is_some()
    {
        return Some(FaultKind::MaskCell);
    }
    None
}

/// Legacy event evaluation: intra-frequency A3 per neighbour, A2/A1
/// gated stage 2 with A4 per inter-frequency neighbour. Returns the
/// chosen `(target, ttt, staleness)` when a handover fires.
#[allow(clippy::too_many_arguments)]
fn evaluate_legacy(
    spec: &DatasetSpec,
    deployment: &Deployment,
    serving: CellId,
    t: f64,
    intra_obs: &[CellRadio],
    inter_obs: &[CellRadio],
    a3_monitors: &mut [EventMonitor],
    a4_monitors: &mut [EventMonitor],
    a2_monitor: &mut EventMonitor,
    a1_monitor: &mut EventMonitor,
    stage2: &mut bool,
    stage2_since_ms: &mut f64,
) -> Option<(CellId, f64, f64)> {
    let serving_earfcn = deployment.cell(serving)?.earfcn;
    let serving_rsrp_intra = radio_of(intra_obs, serving).map(|c| c.rsrp_dbm).unwrap_or(-140.0);
    let serving_rsrp_inter = radio_of(inter_obs, serving).map(|c| c.rsrp_dbm).unwrap_or(-140.0);

    // Stage gates on (stale) serving RSRP.
    if !*stage2 {
        let a2 = EventConfig {
            kind: EventKind::A2 { thresh: A2_THRESH_DBM },
            ttt_ms: spec.inter_ttt_ms,
            hysteresis_db: 1.0,
        };
        if a2_monitor.observe(&a2, t, serving_rsrp_inter, 0.0) {
            *stage2 = true;
            *stage2_since_ms = t;
            a1_monitor.reset();
        }
    } else {
        let a1 = EventConfig {
            kind: EventKind::A1 { thresh: A1_THRESH_DBM },
            ttt_ms: spec.inter_ttt_ms,
            hysteresis_db: 1.0,
        };
        if a1_monitor.observe(&a1, t, serving_rsrp_inter, 0.0) {
            *stage2 = false;
            a4_monitors.fill(EventMonitor::default());
            a2_monitor.reset();
        }
    }

    let mut best: Option<(f64, CellId, f64, f64)> = None; // (quality, cell, ttt, staleness)

    // Intra-frequency A3.
    for radio in intra_obs {
        let cell_id = radio.cell;
        if cell_id == serving {
            continue;
        }
        let Some(cell) = deployment.cell(cell_id) else { continue };
        if cell.earfcn != serving_earfcn {
            continue;
        }
        let a3 = EventConfig {
            kind: EventKind::A3 { offset: spec.a3_offset(serving, cell_id) },
            ttt_ms: spec.intra_ttt_ms,
            hysteresis_db: 1.0,
        };
        let mon = &mut a3_monitors[cell_id.0 as usize];
        if mon.observe(&a3, t, serving_rsrp_intra, radio.rsrp_dbm)
            && best.is_none_or(|(q, _, _, _)| radio.rsrp_dbm > q)
        {
            best = Some((radio.rsrp_dbm, cell_id, spec.intra_ttt_ms, spec.intra_staleness_ms));
        }
    }

    // Inter-frequency A4, stage 2 only (the §3.2 missed-cell mechanism:
    // these cells are simply invisible until the A2 gate opens).
    if *stage2 {
        for radio in inter_obs {
            let cell_id = radio.cell;
            if cell_id == serving {
                continue;
            }
            let Some(cell) = deployment.cell(cell_id) else { continue };
            if cell.earfcn == serving_earfcn {
                continue;
            }
            let a4 = EventConfig {
                kind: EventKind::A4 { thresh: A4_THRESH_DBM },
                ttt_ms: spec.inter_ttt_ms,
                hysteresis_db: 1.0,
            };
            let mon = &mut a4_monitors[cell_id.0 as usize];
            if mon.observe(&a4, t, serving_rsrp_inter, radio.rsrp_dbm)
                && best.is_none_or(|(q, _, _, _)| radio.rsrp_dbm > q)
            {
                best = Some((radio.rsrp_dbm, cell_id, spec.inter_ttt_ms, spec.inter_staleness_ms));
            }
        }
    }

    best.map(|(_, cell, ttt, stale)| (cell, ttt, stale))
}

/// REM event evaluation: single-stage A3 over delay-Doppler SNR for
/// *every* cell (cross-band estimation covers other frequencies), with
/// Theorem-2-clamped offsets and a short TTT.
///
/// Graceful degradation: when the cross-band inputs were dropped
/// (`degraded`) or an estimate leaves the Fig 12 confidence envelope,
/// the estimated cell is ignored for the epoch and REM behaves like a
/// legacy single-cell handover over directly-measured cells;
/// `fallback_epochs` counts epochs where that happened.
#[allow(clippy::too_many_arguments)]
fn evaluate_rem(
    spec: &DatasetSpec,
    deployment: &Deployment,
    serving: CellId,
    t: f64,
    obs: &[CellRadio],
    staleness_ms: f64,
    clamp_offsets: bool,
    degraded: bool,
    a3_monitors: &mut [EventMonitor],
    est_err: &mut [Option<f64>],
    est_rng: &mut SimRng,
    fallback_epochs: &mut usize,
) -> Option<(CellId, f64, f64)> {
    let serving_snr = radio_of(obs, serving).map(|c| c.snr_db).unwrap_or(-30.0);
    let serving_site = deployment.site_of(serving).map(|s| s.id);
    let rem_ttt = 40.0;
    // AR(1) error evolution: ~300 ms time constant per 20 ms epoch.
    const RHO: f64 = 0.935;

    let mut best: Option<(f64, CellId)> = None;
    let mut fell_back = false;
    // Cells in `CellId` order: the estimation-error draws below are
    // assigned to cells in this order.
    for radio in obs {
        let cell_id = radio.cell;
        if cell_id == serving {
            continue;
        }
        let Some(site) = deployment.site_of(cell_id) else { continue };
        // Cross-band estimated cells (not the per-site representative)
        // carry a small, slowly-varying estimation error (Fig 12:
        // <= 2 dB for 90% of measurements).
        let representative =
            site.cells.iter().map(|c| c.id).min().expect("the site hosts this cell");
        let estimated = representative != cell_id && Some(site.id) != serving_site;
        let quality = if estimated {
            let sigma = spec.rem_estimation_err_db;
            // The AR(1) state always evolves — degradation must not
            // shift the estimation RNG stream.
            let e = est_err[cell_id.0 as usize].get_or_insert_with(|| normal(est_rng, 0.0, sigma));
            *e = RHO * *e + (1.0 - RHO * RHO).sqrt() * normal(est_rng, 0.0, sigma);
            if degraded || e.abs() > CONF_LIMIT_DB {
                fell_back = true;
                continue;
            }
            radio.snr_db + *e
        } else {
            radio.snr_db
        };
        let mut offset = spec.a3_offset(serving, cell_id);
        if clamp_offsets {
            offset = offset.max(0.0);
        }
        let a3 = EventConfig {
            kind: EventKind::A3 { offset },
            ttt_ms: rem_ttt,
            hysteresis_db: 1.0,
        };
        let mon = &mut a3_monitors[cell_id.0 as usize];
        if mon.observe(&a3, t, serving_snr, quality)
            && best.is_none_or(|(q, _)| quality > q)
        {
            best = Some((quality, cell_id));
        }
    }
    if fell_back {
        *fallback_epochs += 1;
    }
    best.map(|(_, cell)| (cell, rem_ttt, staleness_ms))
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

    /// `evaluate_legacy` and the monitor state the replay carries between
    /// epochs. Three sites 1 km apart each host one cell on carrier 1825
    /// (cells 0, 2, 4) and one on 2452 (cells 1, 3, 5); cell 0 serves,
    /// and every A3 offset is +2 dB.
    struct Legacy {
        spec: DatasetSpec,
        deployment: Deployment,
        a3: [EventMonitor; 6],
        a4: [EventMonitor; 6],
        a2: EventMonitor,
        a1: EventMonitor,
        stage2: bool,
        stage2_since_ms: f64,
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
                deployment: Deployment { sites, holes: vec![], route_m: 2e3 },
                a3: [EventMonitor::default(); 6],
                a4: [EventMonitor::default(); 6],
                a2: EventMonitor::default(),
                a1: EventMonitor::default(),
                stage2: false,
                stage2_since_ms: 0.0,
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
            let Legacy { spec, deployment, a3, a4, a2, a1, stage2, stage2_since_ms } = self;
            ms.step_by(20)
                .filter_map(|t| {
                    let found = evaluate_legacy(
                        spec,
                        deployment,
                        CellId(0),
                        f64::from(t),
                        &obs,
                        &obs,
                        a3,
                        a4,
                        a2,
                        a1,
                        stage2,
                        stage2_since_ms,
                    );
                    found.map(|(target, _, _)| (t, target))
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
        assert!(!l.stage2);
    }

    #[test]
    fn inter_freq_neighbor_ignored_by_intra_rule() {
        // Zero TTTs everywhere: only the A2 gate keeps cell 1 out. With
        // serving fine it stays closed, and the intra-frequency A3 rule
        // never admits the 20 dB stronger cell on the other carrier.
        let mut l = Legacy::new(0.0, 0.0);
        assert_eq!(l.run(0..=200, -100.0, &[(1, -80.0)]), []);
        assert!(!l.stage2);
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
        assert!(!l.stage2);
        assert_eq!(l.run(120..=200, -115.0, &[(1, -80.0)]), []);
        assert!(l.stage2);
        assert_eq!(l.stage2_since_ms, 120.0);
        // A4 started its own 100 ms TTT when the gate opened.
        assert_eq!(l.run(220..=220, -115.0, &[(1, -80.0)]), [(220, CellId(1))]);
    }

    #[test]
    fn a1_exit_closes_stage2() {
        let mut l = Legacy::new(0.0, 100.0);
        assert_eq!(l.run(0..=100, -115.0, &[(1, -120.0)]), []);
        assert!(l.stage2);
        // Serving recovers above A1 (-100 dB) on 120 ms; cell 1 passes
        // A4 (-110 dB) from 140 ms, so A1 fires first, on 220 ms.
        assert_eq!(l.run(120..=120, -95.0, &[(1, -120.0)]), []);
        assert_eq!(l.run(140..=220, -95.0, &[(1, -105.0)]), []);
        assert!(!l.stage2);
        // Serving falls again: the gate reopens on 340 ms, and cell 1's
        // A4 starts over there instead of firing on its 140 ms entry.
        assert_eq!(l.run(240..=340, -115.0, &[(1, -105.0)]), []);
        assert!(l.stage2);
        // Serving recovers at once: A1 starts over on 360 ms too.
        assert_eq!(l.run(360..=440, -95.0, &[(1, -105.0)]), [(440, CellId(1))]);
        assert!(l.stage2);
        assert_eq!(l.run(460..=460, -95.0, &[(1, -105.0)]), []);
        assert!(!l.stage2);
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
        assert!(l.stage2);
        reset_monitors(&mut l.a3, &mut l.a4, &mut l.a2, &mut l.a1, &mut l.stage2);
        assert!(!l.stage2);
        // The gate holds its full TTT again.
        assert_eq!(l.run(120..=200, -115.0, &[]), []);
        assert!(!l.stage2);
        assert_eq!(l.run(220..=220, -115.0, &[]), []);
        assert!(l.stage2);
    }

    #[test]
    fn rem_a3_admits_every_carrier_without_a_gate() {
        // REM's single-stage A3 runs over every cell: cell 1 shares the
        // serving site on the other carrier (measured, not estimated).
        let l = Legacy::new(0.0, 0.0);
        let radio = |c, snr_db| CellRadio { cell: CellId(c), rsrp_dbm: -100.0, snr_db };
        let obs = [radio(0, 0.0), radio(1, 10.0)];
        let (mut a3, mut est_err, mut fallback) = ([EventMonitor::default(); 6], [None; 6], 0);
        let mut rng = child_rng(1, "est");
        let fired: Vec<f64> = [0.0, 20.0, 40.0]
            .into_iter()
            .filter(|&t| {
                let found = evaluate_rem(
                    &l.spec,
                    &l.deployment,
                    CellId(0),
                    t,
                    &obs,
                    40.0,
                    true,
                    false,
                    &mut a3,
                    &mut est_err,
                    &mut rng,
                    &mut fallback,
                );
                found.is_some()
            })
            .collect();
        // REM's 40 ms TTT, with no A2 gate and no measurement gap.
        assert_eq!((fired, fallback), (vec![40.0], 0));
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
