//! A miniature TCP Reno sender/receiver over a lossy, outage-prone link.
//!
//! Built for the paper's Fig 9: when a handover failure takes the radio
//! down, TCP's retransmission timer backs off exponentially, so the
//! data stall outlives the radio outage (their trace: a 2.3 s failure
//! inflated RTO to 6.28 s and stalled the transfer ~9 s). The model is
//! packet-granular and slotted at 1 ms:
//!
//! * slow start / congestion avoidance / fast retransmit on 3 dup-acks
//!   (Reno), cumulative acks, out-of-order buffering at the receiver;
//! * RTO per RFC 6298 (SRTT/RTTVAR smoothing, Karn's algorithm, binary
//!   exponential backoff, min/max clamps);
//! * the link drops every packet while an outage is active, plus i.i.d.
//!   random loss otherwise, and enforces a rate cap;
//! * cellular link pathologies: a finite bottleneck queue whose
//!   queuing delay inflates the RTT ([`BloatEpisode`]), delay-jitter
//!   spikes ([`JitterEpisode`]) and NAT rebinds that silently kill the
//!   flow ([`NatRebind`]) — all seeded and RNG-isolated (the jitter
//!   stream derives from [`LinkModel::pathology_seed`], never from the
//!   loss-coin stream, so adding a pathology cannot perturb the
//!   legacy replay).
//!
//! Sender-side countermeasures (spurious-RTO undo, zombie
//! re-establishment, REM-forecast freezing) live in
//! [`crate::resilience`] and are driven through
//! [`try_simulate_transfer_resilient`]; the plain entry points run
//! the vanilla loss-based sender bit-identically to before.

use crate::resilience::{NetStats, RecoveryEvent, RecoveryKind, ResilienceConfig};
use rand::Rng;
use rem_num::rng::child_rng;
use rem_num::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A malformed TCP scenario: configuration or link parameters that
/// would make the replay meaningless (NaN timers, negative capacity,
/// probabilities outside `[0, 1]`, …).
///
/// Produced by [`TcpConfig::validate`], [`LinkModel::validate`] and
/// [`try_simulate_transfer`] instead of panicking mid-replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpError {
    /// The sender configuration is invalid.
    InvalidConfig(String),
    /// The link model is invalid.
    InvalidLink(String),
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::InvalidConfig(why) => write!(f, "invalid TCP config: {why}"),
            TcpError::InvalidLink(why) => write!(f, "invalid link model: {why}"),
        }
    }
}

impl std::error::Error for TcpError {}

/// Congestion-control algorithm (smoltcp ships the same pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionControl {
    /// Classic AIMD Reno.
    Reno,
    /// CUBIC (RFC 8312): cubic window growth keyed to time since the
    /// last loss; the Linux default and the sender behind most
    /// real-world HSR iperf traces.
    Cubic,
}

/// TCP sender configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Congestion-control algorithm.
    pub congestion: CongestionControl,
    /// Segment size in bytes.
    pub mss_bytes: u64,
    /// Initial congestion window (segments).
    pub init_cwnd: f64,
    /// Initial ssthresh (segments).
    pub init_ssthresh: f64,
    /// Minimum RTO (ms). RFC 6298 says 1 s; Linux uses 200 ms.
    pub rto_min_ms: f64,
    /// Maximum RTO (ms).
    pub rto_max_ms: f64,
    /// Receiver window cap (segments).
    pub rwnd: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            congestion: CongestionControl::Reno,
            mss_bytes: 1448,
            init_cwnd: 10.0,
            init_ssthresh: 64.0,
            rto_min_ms: 200.0,
            rto_max_ms: 60_000.0,
            rwnd: 512.0,
        }
    }
}

impl TcpConfig {
    /// Checks the configuration for values the replay cannot handle.
    pub fn validate(&self) -> Result<(), TcpError> {
        let bad = |why: &str| Err(TcpError::InvalidConfig(why.to_string()));
        if self.mss_bytes == 0 {
            return bad("mss_bytes must be positive");
        }
        if !(self.init_cwnd.is_finite() && self.init_cwnd >= 1.0) {
            return bad("init_cwnd must be finite and >= 1");
        }
        if !(self.init_ssthresh.is_finite() && self.init_ssthresh >= 1.0) {
            return bad("init_ssthresh must be finite and >= 1");
        }
        if !(self.rto_min_ms.is_finite() && self.rto_min_ms > 0.0) {
            return bad("rto_min_ms must be finite and positive");
        }
        if !(self.rto_max_ms.is_finite() && self.rto_max_ms >= self.rto_min_ms) {
            return bad("rto_max_ms must be finite and >= rto_min_ms");
        }
        if !(self.rwnd.is_finite() && self.rwnd >= 1.0) {
            return bad("rwnd must be finite and >= 1");
        }
        Ok(())
    }
}

/// A radio outage interval during which every packet is lost.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// Start (ms).
    pub start_ms: f64,
    /// End (ms).
    pub end_ms: f64,
}

impl Outage {
    /// Whether `t` falls inside the outage.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_ms && t < self.end_ms
    }

    /// Outage duration.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A bufferbloat episode: while active, every packet passes through a
/// finite bottleneck queue that services one packet per
/// `1 / drain_pkts_per_ms` ms. Backlog inflates the delivery delay
/// (and hence the measured RTT) deterministically — no RNG is
/// involved — and a packet arriving to a full queue (`queue_pkts`
/// packets of backlog) is tail-dropped.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BloatEpisode {
    /// Start (ms).
    pub start_ms: f64,
    /// End (ms).
    pub end_ms: f64,
    /// Bottleneck service rate while the episode is active
    /// (packets per ms; well below the link capacity).
    pub drain_pkts_per_ms: f64,
    /// Queue capacity in packets; beyond it packets are tail-dropped.
    pub queue_pkts: f64,
    /// Cross-traffic backlog already sitting in the queue when the
    /// episode starts. This is what makes bufferbloat *spike* the RTT
    /// instead of ramping it: the first own packet of the episode
    /// waits behind the standing queue, so delay jumps by
    /// `standing_pkts / drain_pkts_per_ms` in one RTT — far past the
    /// sender's adapted RTO. Absent in links serialized before this
    /// field existed (defaults to an empty queue).
    #[serde(default)]
    pub standing_pkts: f64,
}

impl BloatEpisode {
    /// Whether `t` falls inside the episode.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_ms && t < self.end_ms
    }
}

/// A delay-jitter episode: packets sent while it is active pick up an
/// extra one-way delay drawn uniformly from `[0, spike_ms]` — from the
/// isolated pathology RNG stream, never the loss-coin stream.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JitterEpisode {
    /// Start (ms).
    pub start_ms: f64,
    /// End (ms).
    pub end_ms: f64,
    /// Maximum extra one-way delay (ms).
    pub spike_ms: f64,
}

impl JitterEpisode {
    /// Whether `t` falls inside the episode.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_ms && t < self.end_ms
    }
}

/// A NAT rebind: at `t_ms` the middlebox drops the flow's binding
/// without signalling either end. Every packet and ack crossing the
/// NAT afterwards is silently eaten until the sender re-establishes
/// (which a vanilla sender never does — the "zombie connection" from
/// the CGNAT campaign journals: the socket reports healthy while every
/// send vanishes).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NatRebind {
    /// When the binding dies (ms).
    pub t_ms: f64,
}

/// The path model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkModel {
    /// Base round-trip time (ms).
    pub rtt_ms: f64,
    /// Capacity in packets per millisecond.
    pub capacity_pkts_per_ms: f64,
    /// Random loss probability outside outages.
    pub loss_prob: f64,
    /// Radio outages (e.g. from handover failures).
    pub outages: Vec<Outage>,
    /// Bufferbloat episodes (finite bottleneck queue). Absent in links
    /// serialized before the pathology layer existed.
    #[serde(default)]
    pub bloat: Vec<BloatEpisode>,
    /// Delay-jitter spike episodes.
    #[serde(default)]
    pub jitter: Vec<JitterEpisode>,
    /// NAT rebind events.
    #[serde(default)]
    pub rebinds: Vec<NatRebind>,
    /// Seed of the isolated pathology RNG stream (jitter draws). Kept
    /// separate from the replay RNG so fault plans never perturb the
    /// loss-coin sequence.
    #[serde(default)]
    pub pathology_seed: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self {
            rtt_ms: 40.0,
            capacity_pkts_per_ms: 2.0,
            loss_prob: 0.0,
            outages: vec![],
            bloat: vec![],
            jitter: vec![],
            rebinds: vec![],
            pathology_seed: 0,
        }
    }
}

impl LinkModel {
    /// Whether a radio outage is active at `t`.
    pub fn is_down(&self, t: f64) -> bool {
        self.outages.iter().any(|o| o.contains(t))
    }

    /// The bufferbloat episode active at `t`, if any.
    pub fn bloat_at(&self, t: f64) -> Option<&BloatEpisode> {
        self.bloat.iter().find(|b| b.contains(t))
    }

    /// The jitter episode active at `t`, if any.
    pub fn jitter_at(&self, t: f64) -> Option<&JitterEpisode> {
        self.jitter.iter().find(|j| j.contains(t))
    }

    /// The NAT binding epoch at `t`: the number of rebinds that have
    /// happened. A packet crossing the NAT is delivered only when the
    /// epoch it was sent under is still current.
    pub fn rebind_epoch_at(&self, t: f64) -> usize {
        self.rebinds.iter().filter(|r| r.t_ms <= t).count()
    }

    /// Checks the link for values the replay cannot handle.
    pub fn validate(&self) -> Result<(), TcpError> {
        let bad = |why: String| Err(TcpError::InvalidLink(why));
        if !(self.rtt_ms.is_finite() && self.rtt_ms > 0.0) {
            return bad("rtt_ms must be finite and positive".into());
        }
        if !(self.capacity_pkts_per_ms.is_finite() && self.capacity_pkts_per_ms > 0.0) {
            return bad("capacity_pkts_per_ms must be finite and positive".into());
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return bad(format!("loss_prob {} outside [0, 1]", self.loss_prob));
        }
        for o in &self.outages {
            if !(o.start_ms.is_finite() && o.end_ms.is_finite() && o.start_ms <= o.end_ms) {
                return bad(format!("outage [{}, {}] is malformed", o.start_ms, o.end_ms));
            }
        }
        for b in &self.bloat {
            if !(b.start_ms.is_finite() && b.end_ms.is_finite() && b.start_ms <= b.end_ms) {
                return bad(format!("bloat episode [{}, {}] is malformed", b.start_ms, b.end_ms));
            }
            if !(b.drain_pkts_per_ms.is_finite() && b.drain_pkts_per_ms > 0.0) {
                return bad("bloat drain_pkts_per_ms must be finite and positive".into());
            }
            if !(b.queue_pkts.is_finite() && b.queue_pkts >= 1.0) {
                return bad("bloat queue_pkts must be finite and >= 1".into());
            }
            if !(b.standing_pkts.is_finite() && b.standing_pkts >= 0.0) {
                return bad("bloat standing_pkts must be finite and >= 0".into());
            }
        }
        for j in &self.jitter {
            if !(j.start_ms.is_finite() && j.end_ms.is_finite() && j.start_ms <= j.end_ms) {
                return bad(format!("jitter episode [{}, {}] is malformed", j.start_ms, j.end_ms));
            }
            if !(j.spike_ms.is_finite() && j.spike_ms >= 0.0) {
                return bad("jitter spike_ms must be finite and non-negative".into());
            }
        }
        for r in &self.rebinds {
            if !(r.t_ms.is_finite() && r.t_ms >= 0.0) {
                return bad(format!("rebind at {} must be finite and non-negative", r.t_ms));
            }
        }
        Ok(())
    }
}

/// One RTO expiry record: `(time, rto after backoff)`.
pub type RtoEvent = (f64, f64);

/// Result of a simulated transfer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TcpTrace {
    /// `(time_ms, cumulative_acked_bytes)` — stepwise goodput curve.
    pub ack_timeline: Vec<(f64, u64)>,
    /// RTO expiries with the post-backoff RTO value.
    pub rto_events: Vec<RtoEvent>,
    /// Final cumulative acked bytes.
    pub total_acked_bytes: u64,
    /// Simulation horizon (ms).
    pub duration_ms: f64,
    /// Resilience outcome counters (recovery actions, pathology drops).
    /// Zero/empty for traces from before the resilience layer existed.
    #[serde(default)]
    pub net: NetStats,
}

impl TcpTrace {
    /// Goodput in Mbit/s over the whole run.
    pub fn mean_goodput_mbps(&self) -> f64 {
        if self.duration_ms <= 0.0 {
            return 0.0;
        }
        self.total_acked_bytes as f64 * 8.0 / (self.duration_ms * 1e3)
    }

    /// Stall periods: maximal gaps between consecutive goodput
    /// deliveries longer than `min_gap_ms` (also counting the tail gap
    /// to the horizon).
    pub fn stall_periods(&self, min_gap_ms: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut last = 0.0;
        for &(t, _) in &self.ack_timeline {
            if t - last > min_gap_ms {
                out.push((last, t));
            }
            last = t;
        }
        if self.duration_ms - last > min_gap_ms {
            out.push((last, self.duration_ms));
        }
        out
    }

    /// Total stalled time with the given gap threshold.
    pub fn total_stall_ms(&self, min_gap_ms: f64) -> f64 {
        self.stall_periods(min_gap_ms).iter().map(|(a, b)| b - a).sum()
    }

    /// Throughput series in Mbit/s over fixed bins (for Fig 9b).
    pub fn throughput_series_mbps(&self, bin_ms: f64) -> Vec<(f64, f64)> {
        if bin_ms <= 0.0 {
            return Vec::new();
        }
        let bins = (self.duration_ms / bin_ms).ceil() as usize;
        let mut acc = vec![0u64; bins.max(1)];
        let mut prev = 0u64;
        for &(t, total) in &self.ack_timeline {
            let idx = ((t / bin_ms) as usize).min(acc.len() - 1);
            acc[idx] += total - prev;
            prev = total;
        }
        acc.iter()
            .enumerate()
            .map(|(i, &b)| ((i as f64 + 0.5) * bin_ms, b as f64 * 8.0 / (bin_ms * 1e3)))
            .collect()
    }
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    sent_at_ms: f64,
    retransmitted: bool,
}

/// Simulates a bulk transfer (infinite source, like iperf) for
/// `duration_ms` over `link`. Deterministic given the RNG.
///
/// Panics on malformed inputs; use [`try_simulate_transfer`] to get a
/// typed [`TcpError`] instead.
pub fn simulate_transfer(
    cfg: &TcpConfig,
    link: &LinkModel,
    duration_ms: f64,
    rng: &mut SimRng,
) -> TcpTrace {
    match try_simulate_transfer(cfg, link, duration_ms, rng) {
        Ok(trace) => trace,
        Err(e) => panic!("{e}"),
    }
}

/// Validating front door to [`simulate_transfer`]: rejects malformed
/// configs and links with a [`TcpError`] rather than producing NaN
/// timers or panicking mid-replay. Runs the vanilla loss-based sender.
pub fn try_simulate_transfer(
    cfg: &TcpConfig,
    link: &LinkModel,
    duration_ms: f64,
    rng: &mut SimRng,
) -> Result<TcpTrace, TcpError> {
    try_simulate_transfer_resilient(cfg, &ResilienceConfig::vanilla(), link, duration_ms, rng)
}

/// [`try_simulate_transfer_resilient`] that panics on malformed input.
pub fn simulate_transfer_resilient(
    cfg: &TcpConfig,
    res: &ResilienceConfig,
    link: &LinkModel,
    duration_ms: f64,
    rng: &mut SimRng,
) -> TcpTrace {
    match try_simulate_transfer_resilient(cfg, res, link, duration_ms, rng) {
        Ok(trace) => trace,
        Err(e) => panic!("{e}"),
    }
}

/// Simulates a bulk transfer with the given sender-side resilience
/// switches. With [`ResilienceConfig::vanilla`] and a pathology-free
/// link this is bit-identical (same RNG draw sequence, same trace) to
/// the historical [`try_simulate_transfer`].
pub fn try_simulate_transfer_resilient(
    cfg: &TcpConfig,
    res: &ResilienceConfig,
    link: &LinkModel,
    duration_ms: f64,
    rng: &mut SimRng,
) -> Result<TcpTrace, TcpError> {
    cfg.validate()?;
    res.validate()?;
    link.validate()?;
    if !(duration_ms.is_finite() && duration_ms >= 0.0) {
        return Err(TcpError::InvalidLink(format!(
            "duration_ms {duration_ms} must be finite and non-negative"
        )));
    }
    let owd = link.rtt_ms / 2.0;
    // Jitter draws come from this isolated stream: creating it never
    // touches `rng`, and links without jitter episodes never draw from
    // it, so pathology-free replays keep their historical sequences.
    let mut path_rng = child_rng(link.pathology_seed, "net/pathology");
    let mut path = PathState { q_busy_until: 0.0, sender_epoch: 0 };
    let mut net = NetStats::default();

    // Trusted forecast windows; stale ones degrade to vanilla handling
    // and leave a mark in the numerical-health ledger.
    let mut freeze_windows: Vec<(f64, f64)> = Vec::new();
    if let Some(fc) = &res.forecast {
        for w in &fc.windows {
            if fc.is_fresh(w) {
                freeze_windows.push((w.start_ms, w.end_ms));
            } else {
                net.forecast_windows_stale += 1;
                rem_num::health::record(|d| d.forecast_fallbacks += 1);
            }
        }
    }

    // Sender state.
    let mut cwnd = cfg.init_cwnd;
    let mut ssthresh = cfg.init_ssthresh;
    let mut next_seq: u64 = 0; // next new sequence number to send
    let mut snd_una: u64 = 0; // lowest unacked
    let mut dup_acks = 0u32;
    let mut srtt: Option<f64> = None;
    let mut rttvar = 0.0;
    let mut rto = 1000.0f64;
    let mut rto_deadline: Option<f64> = None;
    let mut backoff = 1.0f64;
    let mut recover_seq: u64 = 0; // fast-recovery guard
    let mut rto_recover_until: u64 = 0; // go-back-N horizon after an RTO
    // CUBIC state (RFC 8312): window max before the last reduction and
    // the epoch the cubic curve is anchored to.
    const CUBIC_C: f64 = 0.4;
    const CUBIC_BETA: f64 = 0.7;
    let mut w_max = cfg.init_cwnd;
    let mut cubic_epoch: Option<f64> = None;
    let mut cubic_k = 0.0f64;
    // Resilience state: the pre-collapse (cwnd, ssthresh) saved at the
    // first RTO of a backoff run (for the spurious-timeout undo), the
    // zero-progress RTO counter feeding the zombie detector, the
    // in-progress re-establishment handshake, its bounded backoff, and
    // which forecast window (if any) the sender is frozen across.
    let mut spurious_save: Option<(f64, f64)> = None;
    let mut consecutive_rtos = 0u32;
    let mut reconnect_until: Option<f64> = None;
    let mut reconnect_backoff = res.reconnect_backoff_ms;
    let mut frozen_since: Option<f64> = None;

    // Receiver state.
    let mut rcv_next: u64 = 0;
    let mut ooo: std::collections::BTreeSet<u64> = Default::default();

    // Packets in flight: seq -> metadata. Ack events: time -> acks.
    let mut inflight: BTreeMap<u64, InFlight> = BTreeMap::new();
    // Scheduled deliveries at the receiver:
    // arrival time (us) -> (seq, was_retransmit, NAT epoch at send).
    let mut deliveries: BTreeMap<u64, Vec<(u64, bool, usize)>> = BTreeMap::new();
    // Scheduled ack arrivals at the sender:
    // time (us) -> (cumulative ack, is_dup, acks_a_retransmit, NAT epoch).
    #[allow(clippy::type_complexity)]
    let mut acks: BTreeMap<u64, Vec<(u64, bool, bool, usize)>> = BTreeMap::new();

    let mut trace = TcpTrace {
        ack_timeline: Vec::new(),
        rto_events: Vec::new(),
        total_acked_bytes: 0,
        duration_ms,
        net: NetStats::default(),
    };

    let to_us = |t: f64| (t * 1000.0).round() as u64;
    let tick_ms = 1.0;
    let mut now = 0.0f64;

    while now < duration_ms {
        let now_us = to_us(now);

        // Forecast freeze bookkeeping: entering a trusted window logs
        // the action and freezes the congestion state; leaving it
        // probes immediately instead of waiting out a backed-off timer.
        let freeze = freeze_windows.iter().copied().find(|&(s, e)| now >= s && now < e);
        match (freeze, frozen_since) {
            (Some((s, _)), since) if since != Some(s) => {
                frozen_since = Some(s);
                net.forecast_windows_used += 1;
                net.recovery_events
                    .push(RecoveryEvent { t_ms: now, kind: RecoveryKind::ForecastFreeze });
            }
            (None, Some(_)) => {
                frozen_since = None;
                // The predicted outage is over: resume with an
                // immediate probe retransmit, timer un-backed-off.
                if snd_una < next_seq {
                    let arrival =
                        transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                    inflight
                        .insert(snd_una, InFlight { sent_at_ms: now, retransmitted: true });
                    if let Some(t_exit) = arrival {
                        deliveries.entry(to_us(t_exit + owd)).or_default().push((
                            snd_una,
                            true,
                            link.rebind_epoch_at(now),
                        ));
                    }
                    rto_deadline = Some(now + rto);
                }
            }
            _ => {}
        }
        let frozen = frozen_since.is_some();
        if frozen {
            net.frozen_ms += tick_ms;
        }

        // 1. Receiver: process packet deliveries up to now.
        let due: Vec<u64> = deliveries.range(..=now_us).map(|(&k, _)| k).collect();
        for k in due {
            for (seq, was_retx, epoch) in deliveries.remove(&k).unwrap_or_default() {
                // A rebind between send and arrival eats the packet at
                // the NAT.
                if link.rebind_epoch_at(now) != epoch {
                    net.rebind_drops += 1;
                    continue;
                }
                let is_dup_ack;
                if seq == rcv_next {
                    rcv_next += 1;
                    while ooo.remove(&rcv_next) {
                        rcv_next += 1;
                    }
                    is_dup_ack = false;
                } else if seq > rcv_next {
                    ooo.insert(seq);
                    is_dup_ack = true;
                } else {
                    // Already-received (spurious retransmit): still acks.
                    is_dup_ack = false;
                }
                // Ack travels back; acks are never lost here beyond the
                // link state at send time (one loss coin per packet),
                // but a rebind while the ack is in flight eats it.
                let back = to_us(now + owd);
                acks.entry(back).or_default().push((
                    rcv_next,
                    is_dup_ack,
                    was_retx,
                    link.rebind_epoch_at(now),
                ));
            }
        }

        // 2. Sender: process ack arrivals.
        let due: Vec<u64> = acks.range(..=now_us).map(|(&k, _)| k).collect();
        for k in due {
            for (cum, is_dup, acks_retx, epoch) in acks.remove(&k).unwrap_or_default() {
                if link.rebind_epoch_at(now) != epoch {
                    net.rebind_drops += 1;
                    continue;
                }
                if cum > snd_una {
                    // New data acked.
                    let newly = cum - snd_una;
                    // RTT sample from the highest newly-acked original
                    // transmission (Karn: skip retransmitted).
                    if let Some(info) = inflight.get(&(cum - 1)) {
                        if !info.retransmitted {
                            let sample = now - info.sent_at_ms;
                            let smoothed = match srtt {
                                None => {
                                    rttvar = sample / 2.0;
                                    sample
                                }
                                Some(s) => {
                                    rttvar = 0.75 * rttvar + 0.25 * (s - sample).abs();
                                    0.875 * s + 0.125 * sample
                                }
                            };
                            srtt = Some(smoothed);
                            rto = (smoothed + (4.0 * rttvar).max(1.0))
                                .clamp(cfg.rto_min_ms, cfg.rto_max_ms);
                        }
                    }
                    for s in snd_una..cum {
                        inflight.remove(&s);
                    }
                    snd_una = cum;
                    backoff = 1.0;
                    dup_acks = 0;
                    consecutive_rtos = 0;
                    reconnect_backoff = res.reconnect_backoff_ms;
                    // Spurious-timeout detection (Eifel/F-RTO style):
                    // an ack for an *original* transmission arriving
                    // while an RTO collapse is outstanding proves the
                    // timer fired although nothing was lost — undo the
                    // collapse. An ack for the retransmission instead
                    // validates the timeout. Go-back-N stays armed
                    // either way: any real holes (e.g. tail drops at
                    // a bloated queue) still repair on partial acks
                    // instead of waiting out a delay-inflated RTO.
                    if let Some((saved_cwnd, saved_ssthresh)) = spurious_save {
                        if res.frto && !acks_retx {
                            net.spurious_rto_detected += 1;
                            if saved_cwnd > cwnd {
                                // RFC 4015-style cautious restore: resume at
                                // the saved slow-start threshold (at least half
                                // the saved window) instead of the full saved
                                // cwnd -- the spurious timeout was triggered by
                                // queuing delay, so the bottleneck is likely
                                // still congested and a full-window burst would
                                // overflow it.
                                cwnd = saved_ssthresh.max(saved_cwnd / 2.0).min(cfg.rwnd);
                                ssthresh = saved_ssthresh;
                                net.spurious_rto_undone += 1;
                                net.recovery_events.push(RecoveryEvent {
                                    t_ms: now,
                                    kind: RecoveryKind::SpuriousRtoUndo,
                                });
                            }
                        }
                        spurious_save = None;
                    }
                    // Congestion control (held still across a forecast
                    // freeze: predicted-outage stragglers must not move
                    // the window either way).
                    if !frozen {
                        if cwnd < ssthresh {
                            cwnd += newly as f64; // slow start
                        } else {
                            match cfg.congestion {
                                CongestionControl::Reno => {
                                    cwnd += newly as f64 / cwnd;
                                }
                                CongestionControl::Cubic => {
                                    // W(t) = C (t - K)^3 + W_max, t since the
                                    // loss epoch started.
                                    let epoch = *cubic_epoch.get_or_insert(now);
                                    let t_s = (now - epoch) / 1e3;
                                    let target =
                                        CUBIC_C * (t_s - cubic_k).powi(3) + w_max;
                                    if target > cwnd {
                                        cwnd += (target - cwnd).min(newly as f64);
                                    } else {
                                        // TCP-friendly floor: grow at least
                                        // like Reno.
                                        cwnd += 0.5 * newly as f64 / cwnd;
                                    }
                                }
                            }
                        }
                        cwnd = cwnd.min(cfg.rwnd);
                    }
                    trace.total_acked_bytes = snd_una * cfg.mss_bytes;
                    trace.ack_timeline.push((now, trace.total_acked_bytes));
                    // Go-back-N after an RTO: segments up to the loss
                    // horizon were (likely) lost with the window;
                    // retransmit the next hole immediately on each
                    // partial ack instead of waiting one RTO per segment.
                    if !frozen && snd_una < rto_recover_until && inflight.contains_key(&snd_una)
                    {
                        let arrival =
                            transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                        inflight
                            .insert(snd_una, InFlight { sent_at_ms: now, retransmitted: true });
                        if let Some(t_exit) = arrival {
                            deliveries.entry(to_us(t_exit + owd)).or_default().push((
                                snd_una,
                                true,
                                link.rebind_epoch_at(now),
                            ));
                        }
                    }
                    rto_deadline =
                        if inflight.is_empty() { None } else { Some(now + rto * backoff) };
                } else if is_dup && cum == snd_una {
                    dup_acks += 1;
                    if dup_acks == 3 && snd_una >= recover_seq && !frozen {
                        // Fast retransmit: multiplicative decrease
                        // (Reno halves; CUBIC reduces to beta*cwnd and
                        // re-anchors the cubic curve).
                        match cfg.congestion {
                            CongestionControl::Reno => {
                                ssthresh = (cwnd / 2.0).max(2.0);
                            }
                            CongestionControl::Cubic => {
                                w_max = cwnd;
                                cubic_k = (w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                                cubic_epoch = None;
                                ssthresh = (cwnd * CUBIC_BETA).max(2.0);
                            }
                        }
                        cwnd = ssthresh;
                        recover_seq = next_seq;
                        let arrival =
                            transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                        inflight
                            .insert(snd_una, InFlight { sent_at_ms: now, retransmitted: true });
                        if let Some(t_exit) = arrival {
                            deliveries.entry(to_us(t_exit + owd)).or_default().push((
                                snd_una,
                                true,
                                link.rebind_epoch_at(now),
                            ));
                        }
                        rto_deadline = Some(now + rto * backoff);
                    }
                }
            }
        }

        // 3. RTO expiry.
        if let Some(deadline) = rto_deadline {
            if now >= deadline && snd_una < next_seq {
                if let Some((_, freeze_end)) = freeze {
                    // Forecast says the radio is out: the timeout is
                    // expected, not congestion. Defer the timer to the
                    // window end without backing off or collapsing.
                    rto_deadline = Some(freeze_end);
                } else if res.zombie_rtos > 0 && consecutive_rtos + 1 >= res.zombie_rtos {
                    // Zombie connection: repeated zero-progress RTOs
                    // mean the path silently died (NAT rebind). Tear
                    // down and re-establish on the current binding
                    // instead of backing off forever.
                    net.reconnects += 1;
                    net.recovery_events
                        .push(RecoveryEvent { t_ms: now, kind: RecoveryKind::Reconnect });
                    path.sender_epoch = link.rebind_epoch_at(now);
                    cwnd = cfg.init_cwnd.min(cfg.rwnd);
                    dup_acks = 0;
                    backoff = 1.0;
                    rto_recover_until = next_seq;
                    spurious_save = None;
                    consecutive_rtos = 0;
                    reconnect_until = Some(now + link.rtt_ms);
                    rto_deadline = None;
                } else {
                    consecutive_rtos += 1;
                    // The pre-collapse state, captured at the *first*
                    // timeout of a backoff run so a later original-ack
                    // can prove the whole run spurious.
                    if res.frto {
                        spurious_save.get_or_insert((cwnd, ssthresh));
                    }
                    backoff = (backoff * 2.0).min(cfg.rto_max_ms / rto);
                    trace.rto_events.push((now, (rto * backoff).min(cfg.rto_max_ms)));
                    ssthresh = match cfg.congestion {
                        CongestionControl::Reno => (cwnd / 2.0).max(2.0),
                        CongestionControl::Cubic => {
                            w_max = cwnd.max(w_max * CUBIC_BETA);
                            cubic_k = (w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                            cubic_epoch = None;
                            (cwnd * CUBIC_BETA).max(2.0)
                        }
                    };
                    cwnd = 1.0;
                    dup_acks = 0;
                    rto_recover_until = next_seq;
                    // Retransmit the lowest unacked segment.
                    let arrival = transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                    inflight
                        .insert(snd_una, InFlight { sent_at_ms: now, retransmitted: true });
                    if let Some(t_exit) = arrival {
                        deliveries.entry(to_us(t_exit + owd)).or_default().push((
                            snd_una,
                            true,
                            link.rebind_epoch_at(now),
                        ));
                    }
                    rto_deadline = Some(now + (rto * backoff).min(cfg.rto_max_ms));
                }
            }
        }

        // 3b. Re-establishment handshake completion: one RTT after the
        // zombie teardown the new binding is live; probe immediately.
        if let Some(rc) = reconnect_until {
            if now >= rc {
                reconnect_until = None;
                if snd_una < next_seq {
                    let arrival = transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                    inflight
                        .insert(snd_una, InFlight { sent_at_ms: now, retransmitted: true });
                    if let Some(t_exit) = arrival {
                        deliveries.entry(to_us(t_exit + owd)).or_default().push((
                            snd_una,
                            true,
                            link.rebind_epoch_at(now),
                        ));
                    }
                    // If the probe dies too the next attempt waits out
                    // the bounded reconnect backoff, not 2^n RTOs.
                    rto_deadline = Some(now + rto.max(reconnect_backoff));
                }
                reconnect_backoff =
                    (reconnect_backoff * 2.0).min(res.reconnect_backoff_max_ms);
            }
        }

        // 4. Send new data up to cwnd and capacity.
        if !frozen && reconnect_until.is_none() {
            let mut budget = (link.capacity_pkts_per_ms * tick_ms) as u64;
            while budget > 0 && (next_seq - snd_una) < cwnd as u64 {
                let arrival = transmit(link, now, &mut path, &mut net, rng, &mut path_rng);
                inflight.insert(next_seq, InFlight { sent_at_ms: now, retransmitted: false });
                if let Some(t_exit) = arrival {
                    deliveries.entry(to_us(t_exit + owd)).or_default().push((
                        next_seq,
                        false,
                        link.rebind_epoch_at(now),
                    ));
                }
                if rto_deadline.is_none() {
                    rto_deadline = Some(now + rto * backoff);
                }
                next_seq += 1;
                budget -= 1;
            }
        }

        now += tick_ms;
    }
    trace.net = net;
    Ok(trace)
}

/// Sender-side path state threaded through [`transmit`]: the virtual
/// bottleneck-queue horizon and the NAT binding epoch the sender last
/// (re-)established on.
struct PathState {
    q_busy_until: f64,
    sender_epoch: usize,
}

/// Push one packet into the path at time `t`. Returns the time the
/// packet *exits* the bottleneck (caller adds the propagation OWD), or
/// `None` if the path ate it (dead NAT binding, outage, queue
/// overflow, or the random-loss coin).
///
/// RNG discipline: the main `rng` is consumed *only* for the loss coin
/// and only when `loss_prob > 0` — exactly the legacy sequence — so
/// pathology-free replays stay bit-identical to the historical model.
/// Jitter draws come from the isolated `path_rng` stream.
fn transmit(
    link: &LinkModel,
    t: f64,
    path: &mut PathState,
    net: &mut NetStats,
    rng: &mut SimRng,
    path_rng: &mut SimRng,
) -> Option<f64> {
    // A NAT rebind invalidated the 5-tuple: every send on the old
    // binding is silently eaten. No RNG consumed.
    if link.rebind_epoch_at(t) != path.sender_epoch {
        net.rebind_drops += 1;
        return None;
    }
    if link.is_down(t) {
        return None;
    }
    // Bufferbloat: a finite FIFO drains at `drain_pkts_per_ms`; the
    // packet waits behind everything already queued, or tail-drops if
    // the backlog exceeds the buffer.
    let mut extra = 0.0;
    if let Some(b) = link.bloat_at(t) {
        let service_ms = 1.0 / b.drain_pkts_per_ms;
        // Cross-traffic standing queue: at episode onset the buffer
        // already holds `standing_pkts` worth of someone else's
        // packets, and it drains from there.
        let standing_horizon = b.start_ms + b.standing_pkts * service_ms;
        if path.q_busy_until < standing_horizon {
            path.q_busy_until = standing_horizon;
        }
        let service_start = t.max(path.q_busy_until);
        if service_start - t >= b.queue_pkts * service_ms {
            net.queue_overflow_drops += 1;
            return None;
        }
        path.q_busy_until = service_start + service_ms;
        extra += path.q_busy_until - t;
    }
    let p = link.loss_prob;
    if p > 0.0 && rng.gen::<f64>() < p {
        return None;
    }
    if let Some(j) = link.jitter_at(t) {
        if j.spike_ms > 0.0 {
            extra += path_rng.gen::<f64>() * j.spike_ms;
        }
    }
    Some(t + extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    fn run(link: &LinkModel, ms: f64, seed: u64) -> TcpTrace {
        simulate_transfer(&TcpConfig::default(), link, ms, &mut rng_from_seed(seed))
    }

    #[test]
    fn clean_link_transfers_data() {
        let t = run(&LinkModel::default(), 5_000.0, 1);
        assert!(t.total_acked_bytes > 1_000_000, "bytes={}", t.total_acked_bytes);
        assert!(t.rto_events.is_empty());
        assert!(t.stall_periods(1000.0).is_empty());
    }

    #[test]
    fn goodput_bounded_by_capacity() {
        let link = LinkModel { capacity_pkts_per_ms: 1.0, ..Default::default() };
        let t = run(&link, 5_000.0, 2);
        // 1 pkt/ms * 1448 B = ~11.6 Mbps ceiling.
        assert!(t.mean_goodput_mbps() <= 11.6 + 0.1, "{}", t.mean_goodput_mbps());
        assert!(t.mean_goodput_mbps() > 5.0);
    }

    #[test]
    fn outage_causes_stall_and_rto_backoff() {
        let link = LinkModel {
            outages: vec![Outage { start_ms: 2_000.0, end_ms: 4_500.0 }],
            ..Default::default()
        };
        let t = run(&link, 10_000.0, 3);
        // There must be a stall covering the outage.
        let stalls = t.stall_periods(1_000.0);
        assert!(!stalls.is_empty());
        let total = t.total_stall_ms(1_000.0);
        assert!(total >= 2_400.0, "stall={total}");
        // And RTO events whose backoff grew well past the base RTO
        // during the outage.
        assert!(t.rto_events.len() >= 2, "rto events: {:?}", t.rto_events);
        let max_rto = t.rto_events.iter().map(|e| e.1).fold(0.0, f64::max);
        let first_rto = t.rto_events[0].1;
        assert!(max_rto >= 2.0 * first_rto, "max={max_rto} first={first_rto}");
    }

    #[test]
    fn stall_outlives_outage_due_to_backoff() {
        // The Fig 9b phenomenon: data resumes only at the next RTO
        // expiry after the radio recovers, so the stall exceeds the
        // outage duration.
        let link = LinkModel {
            outages: vec![Outage { start_ms: 2_000.0, end_ms: 4_300.0 }],
            ..Default::default()
        };
        let t = run(&link, 15_000.0, 4);
        let total = t.total_stall_ms(1_000.0);
        assert!(total > 2_300.0, "stall {total} should exceed the 2300 ms outage");
        // But transfer recovers eventually.
        let after: Vec<_> = t.ack_timeline.iter().filter(|(tt, _)| *tt > 6_000.0).collect();
        assert!(!after.is_empty(), "transfer never recovered");
    }

    #[test]
    fn longer_outage_longer_stall() {
        let mk = |end| LinkModel {
            outages: vec![Outage { start_ms: 2_000.0, end_ms: end }],
            ..Default::default()
        };
        let short = run(&mk(3_000.0), 15_000.0, 5).total_stall_ms(1_000.0);
        let long = run(&mk(6_000.0), 15_000.0, 5).total_stall_ms(1_000.0);
        assert!(long > short, "short={short} long={long}");
    }

    #[test]
    fn random_loss_reduces_goodput() {
        let clean = run(&LinkModel::default(), 8_000.0, 6).mean_goodput_mbps();
        let lossy = run(
            &LinkModel { loss_prob: 0.02, ..Default::default() },
            8_000.0,
            6,
        )
        .mean_goodput_mbps();
        assert!(lossy < clean, "lossy={lossy} clean={clean}");
        assert!(lossy > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let link = LinkModel { loss_prob: 0.05, ..Default::default() };
        let a = run(&link, 3_000.0, 7);
        let b = run(&link, 3_000.0, 7);
        assert_eq!(a.total_acked_bytes, b.total_acked_bytes);
        assert_eq!(a.rto_events, b.rto_events);
    }

    #[test]
    fn throughput_series_shows_outage_hole() {
        let link = LinkModel {
            outages: vec![Outage { start_ms: 3_000.0, end_ms: 5_000.0 }],
            ..Default::default()
        };
        let t = run(&link, 9_000.0, 8);
        let series = t.throughput_series_mbps(1_000.0);
        // Bin centred at 3.5s and 4.5s should be (near) zero.
        let hole = series.iter().find(|(c, _)| (*c - 4_500.0).abs() < 1.0).unwrap().1;
        let before = series.iter().find(|(c, _)| (*c - 1_500.0).abs() < 1.0).unwrap().1;
        assert!(hole < 0.5, "hole={hole}");
        assert!(before > 1.0, "before={before}");
    }

    #[test]
    fn ack_timeline_is_monotone() {
        let t = run(&LinkModel { loss_prob: 0.03, ..Default::default() }, 4_000.0, 9);
        for w in t.ack_timeline.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn zero_duration_is_empty() {
        let t = run(&LinkModel::default(), 0.0, 10);
        assert_eq!(t.total_acked_bytes, 0);
        assert_eq!(t.mean_goodput_mbps(), 0.0);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    fn attempt(cfg: &TcpConfig, link: &LinkModel) -> Result<TcpTrace, TcpError> {
        try_simulate_transfer(cfg, link, 2_000.0, &mut rng_from_seed(1))
    }

    #[test]
    fn default_scenario_validates() {
        assert!(TcpConfig::default().validate().is_ok());
        assert!(LinkModel::default().validate().is_ok());
        assert!(attempt(&TcpConfig::default(), &LinkModel::default()).is_ok());
    }

    #[test]
    fn bad_config_is_typed_not_a_panic() {
        let cfg = TcpConfig { rto_min_ms: f64::NAN, ..Default::default() };
        assert!(matches!(attempt(&cfg, &LinkModel::default()), Err(TcpError::InvalidConfig(_))));
        let cfg = TcpConfig { mss_bytes: 0, ..Default::default() };
        assert!(matches!(cfg.validate(), Err(TcpError::InvalidConfig(_))));
        let cfg = TcpConfig { rto_max_ms: 10.0, rto_min_ms: 20.0, ..Default::default() };
        assert!(matches!(cfg.validate(), Err(TcpError::InvalidConfig(_))));
    }

    #[test]
    fn bad_link_is_typed_not_a_panic() {
        let link = LinkModel { loss_prob: 1.5, ..Default::default() };
        assert!(matches!(attempt(&TcpConfig::default(), &link), Err(TcpError::InvalidLink(_))));
        let link = LinkModel { rtt_ms: 0.0, ..Default::default() };
        assert!(matches!(link.validate(), Err(TcpError::InvalidLink(_))));
        let link = LinkModel {
            outages: vec![Outage { start_ms: 5.0, end_ms: 1.0 }],
            ..Default::default()
        };
        assert!(matches!(link.validate(), Err(TcpError::InvalidLink(_))));
    }

    #[test]
    fn bad_duration_is_rejected() {
        let r = try_simulate_transfer(
            &TcpConfig::default(),
            &LinkModel::default(),
            f64::NAN,
            &mut rng_from_seed(1),
        );
        assert!(matches!(r, Err(TcpError::InvalidLink(_))));
    }

    #[test]
    fn errors_display_cleanly() {
        let e = TcpError::InvalidLink("rtt_ms must be finite and positive".into());
        assert!(e.to_string().contains("rtt_ms"));
    }
}

#[cfg(test)]
mod episode_tests {
    use super::*;

    #[test]
    fn episodes_deserialize_as_empty_when_absent() {
        // Links serialized before the pathology fields existed must
        // still load, with no episodes.
        let json = r#"{"rtt_ms":40.0,"capacity_pkts_per_ms":2.0,"loss_prob":0.0,"outages":[]}"#;
        let link: LinkModel = serde_json::from_str(json).expect("legacy link JSON");
        assert!(link.bloat.is_empty() && link.jitter.is_empty() && link.rebinds.is_empty());
    }
}

#[cfg(test)]
mod cubic_tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    fn run_cc(cc: CongestionControl, link: &LinkModel, ms: f64, seed: u64) -> TcpTrace {
        let cfg = TcpConfig { congestion: cc, ..Default::default() };
        simulate_transfer(&cfg, link, ms, &mut rng_from_seed(seed))
    }

    #[test]
    fn cubic_transfers_on_clean_link() {
        let t = run_cc(CongestionControl::Cubic, &LinkModel::default(), 5_000.0, 1);
        assert!(t.total_acked_bytes > 1_000_000);
        assert!(t.rto_events.is_empty());
    }

    #[test]
    fn cubic_recovers_faster_than_reno_after_loss() {
        // Large BDP link with sporadic loss: CUBIC's cubic ramp regains
        // the window faster, delivering more bytes.
        let link = LinkModel {
            rtt_ms: 120.0,
            capacity_pkts_per_ms: 4.0,
            loss_prob: 0.0008,
            ..Default::default()
        };
        let reno = run_cc(CongestionControl::Reno, &link, 30_000.0, 2);
        let cubic = run_cc(CongestionControl::Cubic, &link, 30_000.0, 2);
        assert!(
            cubic.total_acked_bytes > reno.total_acked_bytes,
            "cubic={} reno={}",
            cubic.total_acked_bytes,
            reno.total_acked_bytes
        );
    }

    #[test]
    fn cubic_survives_outages_like_reno() {
        let link = LinkModel {
            outages: vec![Outage { start_ms: 4_000.0, end_ms: 6_500.0 }],
            ..Default::default()
        };
        let t = run_cc(CongestionControl::Cubic, &link, 15_000.0, 3);
        assert!(t.total_stall_ms(1_000.0) >= 2_400.0);
        assert!(t.ack_timeline.iter().any(|(tt, _)| *tt > 8_000.0), "never recovered");
    }

    #[test]
    fn cubic_deterministic() {
        let link = LinkModel { loss_prob: 0.01, ..Default::default() };
        let a = run_cc(CongestionControl::Cubic, &link, 4_000.0, 4);
        let b = run_cc(CongestionControl::Cubic, &link, 4_000.0, 4);
        assert_eq!(a.total_acked_bytes, b.total_acked_bytes);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::resilience::{ForecastWindow, RemForecast, ResilienceConfig};
    use rem_num::rng::rng_from_seed;

    fn run_res(res: &ResilienceConfig, link: &LinkModel, ms: f64, seed: u64) -> TcpTrace {
        simulate_transfer_resilient(
            &TcpConfig::default(),
            res,
            link,
            ms,
            &mut rng_from_seed(seed),
        )
    }

    fn bloated() -> LinkModel {
        LinkModel {
            bloat: vec![BloatEpisode {
                start_ms: 2_000.0,
                end_ms: 8_000.0,
                drain_pkts_per_ms: 0.05,
                queue_pkts: 120.0,
                standing_pkts: 100.0,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn vanilla_resilient_matches_legacy_bit_for_bit() {
        let link = LinkModel {
            loss_prob: 0.02,
            outages: vec![Outage { start_ms: 3_000.0, end_ms: 4_500.0 }],
            ..Default::default()
        };
        for seed in [1u64, 9, 77] {
            let legacy = simulate_transfer(
                &TcpConfig::default(),
                &link,
                10_000.0,
                &mut rng_from_seed(seed),
            );
            let resilient = run_res(&ResilienceConfig::vanilla(), &link, 10_000.0, seed);
            assert_eq!(legacy.ack_timeline, resilient.ack_timeline, "seed {seed}");
            assert_eq!(legacy.rto_events, resilient.rto_events, "seed {seed}");
            assert_eq!(legacy.total_acked_bytes, resilient.total_acked_bytes);
        }
    }

    #[test]
    fn bufferbloat_fires_spurious_rtos_and_frto_undoes_them() {
        let link = bloated();
        let vanilla = run_res(&ResilienceConfig::vanilla(), &link, 12_000.0, 3);
        let frto = run_res(&ResilienceConfig::frto(), &link, 12_000.0, 3);
        // Queuing delay, not loss, fired the timer: no packet was
        // dropped (queue of 120 never overflows a <=512-segment
        // window at this drain rate before the timer fires).
        assert!(!vanilla.rto_events.is_empty(), "bloat should trigger RTOs");
        assert!(frto.net.spurious_rto_detected > 0, "{:?}", frto.net);
        assert!(frto.net.spurious_rto_undone > 0);
        assert!(
            frto.total_acked_bytes >= vanilla.total_acked_bytes,
            "undoing bogus collapses must not lose goodput: {} < {}",
            frto.total_acked_bytes,
            vanilla.total_acked_bytes
        );
    }

    #[test]
    fn nat_rebind_zombies_vanilla_but_recovery_reconnects() {
        let link = LinkModel { rebinds: vec![NatRebind { t_ms: 3_000.0 }], ..Default::default() };
        let vanilla = run_res(&ResilienceConfig::vanilla(), &link, 20_000.0, 5);
        let frto = run_res(&ResilienceConfig::frto(), &link, 20_000.0, 5);
        // The vanilla sender never makes progress after the rebind —
        // every retransmission dies at the NAT.
        let vanilla_after = vanilla
            .ack_timeline
            .iter()
            .filter(|(t, _)| *t > 4_000.0)
            .count();
        assert_eq!(vanilla_after, 0, "vanilla sender should zombie after the rebind");
        assert!(vanilla.net.rebind_drops > 0);
        assert!(frto.net.reconnects >= 1, "{:?}", frto.net);
        assert!(
            frto.total_acked_bytes > 2 * vanilla.total_acked_bytes,
            "reconnect should restore goodput: {} vs {}",
            frto.total_acked_bytes,
            vanilla.total_acked_bytes
        );
    }

    #[test]
    fn rebind_at_time_zero_is_survivable() {
        let link = LinkModel { rebinds: vec![NatRebind { t_ms: 0.0 }], ..Default::default() };
        // Vanilla: every send from t=0 dies; the run must still
        // terminate (acceptance: no infinite loop, no panic).
        let vanilla = run_res(&ResilienceConfig::vanilla(), &link, 20_000.0, 2);
        assert_eq!(vanilla.total_acked_bytes, 0);
        // The zombie detector re-establishes onto the post-rebind
        // binding and completes the transfer. With no RTT sample the
        // ladder starts at the 1 s conservative RTO, so the fourth
        // zero-progress expiry lands at ~15 s.
        let frto = run_res(&ResilienceConfig::frto(), &link, 20_000.0, 2);
        assert!(frto.net.reconnects >= 1);
        assert!(frto.total_acked_bytes > 100_000, "bytes={}", frto.total_acked_bytes);
    }

    #[test]
    fn forecast_freeze_cuts_outage_stall() {
        let link = LinkModel {
            outages: vec![Outage { start_ms: 3_000.0, end_ms: 5_500.0 }],
            ..Default::default()
        };
        let forecast = RemForecast {
            windows: vec![ForecastWindow { start_ms: 3_000.0, end_ms: 5_500.0 }],
            issued_at_ms: 0.0,
            freshness_ms: 10_000.0,
        };
        let vanilla = run_res(&ResilienceConfig::vanilla(), &link, 15_000.0, 4);
        let informed =
            run_res(&ResilienceConfig::rem_informed(forecast), &link, 15_000.0, 4);
        assert_eq!(informed.net.forecast_windows_used, 1);
        assert!(informed.net.frozen_ms > 2_000.0);
        assert!(
            informed.total_stall_ms(1_000.0) < vanilla.total_stall_ms(1_000.0),
            "freeze should cut the stall: {} vs {}",
            informed.total_stall_ms(1_000.0),
            vanilla.total_stall_ms(1_000.0)
        );
        assert!(informed.total_acked_bytes > vanilla.total_acked_bytes);
    }

    #[test]
    fn stale_forecast_degrades_to_vanilla_and_records_it() {
        let link = LinkModel {
            outages: vec![Outage { start_ms: 3_000.0, end_ms: 5_500.0 }],
            ..Default::default()
        };
        let forecast = RemForecast {
            windows: vec![ForecastWindow { start_ms: 3_000.0, end_ms: 5_500.0 }],
            issued_at_ms: 0.0,
            freshness_ms: 1_000.0, // window starts past the trust horizon
        };
        let _ = rem_num::health::take_thread_stats();
        let mut cfg = ResilienceConfig::rem_informed(forecast);
        cfg.frto = false;
        cfg.zombie_rtos = 0;
        let stale = run_res(&cfg, &link, 15_000.0, 4);
        let health = rem_num::health::take_thread_stats();
        let vanilla = run_res(&ResilienceConfig::vanilla(), &link, 15_000.0, 4);
        assert_eq!(stale.net.forecast_windows_stale, 1);
        assert_eq!(stale.net.forecast_windows_used, 0);
        assert_eq!(health.forecast_fallbacks, 1);
        // Behaviour is exactly vanilla: same timeline, same timers.
        assert_eq!(stale.ack_timeline, vanilla.ack_timeline);
        assert_eq!(stale.rto_events, vanilla.rto_events);
    }

    #[test]
    fn jitter_episodes_are_deterministic_and_isolated() {
        let jittery = LinkModel {
            jitter: vec![JitterEpisode { start_ms: 1_000.0, end_ms: 6_000.0, spike_ms: 900.0 }],
            pathology_seed: 11,
            ..Default::default()
        };
        let a = run_res(&ResilienceConfig::vanilla(), &jittery, 10_000.0, 6);
        let b = run_res(&ResilienceConfig::vanilla(), &jittery, 10_000.0, 6);
        assert_eq!(a.ack_timeline, b.ack_timeline);
        // Jitter slows the transfer relative to the clean link.
        let clean = run_res(&ResilienceConfig::vanilla(), &LinkModel::default(), 10_000.0, 6);
        assert!(a.total_acked_bytes < clean.total_acked_bytes);
        // A different pathology seed reshuffles the spikes without
        // touching the main RNG stream.
        let reseeded = LinkModel { pathology_seed: 12, ..jittery.clone() };
        let c = run_res(&ResilienceConfig::vanilla(), &reseeded, 10_000.0, 6);
        assert_ne!(a.ack_timeline, c.ack_timeline);
    }

    #[test]
    fn queue_overflow_drops_are_counted() {
        let link = LinkModel {
            bloat: vec![BloatEpisode {
                start_ms: 1_000.0,
                end_ms: 9_000.0,
                drain_pkts_per_ms: 0.02,
                queue_pkts: 5.0,
                standing_pkts: 0.0,
            }],
            ..Default::default()
        };
        let t = run_res(&ResilienceConfig::vanilla(), &link, 10_000.0, 8);
        assert!(t.net.queue_overflow_drops > 0, "{:?}", t.net);
    }
}
