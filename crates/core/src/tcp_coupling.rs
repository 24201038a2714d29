//! Coupling mobility failures to TCP (paper §7.1, Fig 9).
//!
//! The outage intervals a campaign produced become radio outages for
//! the miniature TCP stack; the resulting stall times quantify REM's
//! application-level benefit.

use rem_net::{simulate_transfer, LinkModel, Outage, TcpConfig, TcpTrace};
use rem_num::rng::rng_from_seed;
use rem_sim::RunMetrics;

/// The stall-gap threshold used by the Fig 9 analysis (ms): a goodput
/// gap longer than this counts as a stall.
pub const STALL_GAP_MS: f64 = 1_000.0;

/// Per-handover service interruption injected into the TCP replay
/// (break-before-make gap), ms.
pub const HO_INTERRUPTION_MS: f64 = 60.0;

/// Runs an iperf-like bulk transfer across a window of the campaign,
/// injecting the campaign's outages into the link.
///
/// `window_ms` bounds the replayed span (long campaigns are truncated;
/// outages are shifted accordingly). Returns the TCP trace.
pub fn replay_tcp(metrics: &RunMetrics, window_ms: f64, seed: u64) -> TcpTrace {
    let link = LinkModel { outages: outages_within(metrics, window_ms), ..Default::default() };
    let mut rng = rng_from_seed(seed);
    simulate_transfer(&TcpConfig::default(), &link, window_ms, &mut rng)
}

fn outages_within(metrics: &RunMetrics, window_ms: f64) -> Vec<Outage> {
    metrics
        .interruption_intervals_ms(HO_INTERRUPTION_MS)
        .into_iter()
        .filter(|(s, _)| *s < window_ms)
        .map(|(s, e)| Outage { start_ms: s, end_ms: e.min(window_ms) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_sim::FailureRecord;
    use rem_mobility::FailureCause;

    fn metrics_with_outages(outages: &[(f64, f64)]) -> RunMetrics {
        RunMetrics {
            duration_s: 60.0,
            failures: outages
                .iter()
                .map(|&(s, e)| FailureRecord {
                    t_ms: s,
                    cause: FailureCause::FeedbackDelayLoss,
                    outage_ms: e - s,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn outage_free_run_has_no_stalls() {
        let m = metrics_with_outages(&[]);
        let trace = replay_tcp(&m, 10_000.0, 1);
        assert!(trace.stall_periods(STALL_GAP_MS).is_empty());
        assert!(trace.total_acked_bytes > 0);
    }

    #[test]
    fn outages_create_stalls_longer_than_outage() {
        let m = metrics_with_outages(&[(3_000.0, 5_500.0)]);
        let trace = replay_tcp(&m, 20_000.0, 2);
        let stall = trace.total_stall_ms(STALL_GAP_MS);
        assert!(stall >= 2_500.0, "stall={stall}");
    }

    #[test]
    fn outages_beyond_window_ignored() {
        let m = metrics_with_outages(&[(50_000.0, 55_000.0)]);
        let trace = replay_tcp(&m, 10_000.0, 3);
        assert!(trace.stall_periods(STALL_GAP_MS).is_empty());
    }
}

#[cfg(test)]
mod interruption_tests {
    use super::*;
    use rem_mobility::CellId;
    use rem_sim::HandoverRecord;

    #[test]
    fn successful_handovers_cause_micro_interruptions() {
        // Many handovers, no failures: short breaks dent goodput but do
        // not create >1 s stalls.
        let mut m = RunMetrics { duration_s: 30.0, ..Default::default() };
        for i in 0..10 {
            m.handovers.push(HandoverRecord {
                t_ms: 2_000.0 + 2_500.0 * i as f64,
                from: CellId(i),
                to: CellId(i + 1),
                intra_freq: true,
                feedback_delay_ms: 100.0,
            });
        }
        let trace = replay_tcp(&m, 30_000.0, 5);
        assert!(trace.stall_periods(STALL_GAP_MS).is_empty());
        // But the interruptions cost some throughput vs a clean run.
        let clean = replay_tcp(&RunMetrics { duration_s: 30.0, ..Default::default() }, 30_000.0, 5);
        assert!(trace.total_acked_bytes < clean.total_acked_bytes);
    }
}
