//! Numerical-health guards: NaN/Inf spot checks and the
//! [`DegradedStats`] ledger.
//!
//! A multi-hour Monte-Carlo campaign must treat numerical trouble the
//! way it treats injected faults: *observe and account*, never silently
//! poison the aggregate. A single NaN LLR flowing into the Viterbi
//! decoder, or a non-converged SVD feeding the cross-band estimator,
//! turns a BLER point or an SNR prediction into garbage with no trace
//! in the output. The guards here give every stage boundary a cheap
//! finite-ness spot check and a place to record degradations:
//!
//! * [`first_non_finite`] / [`check_finite`] — scan real or complex
//!   slices for the first NaN/Inf;
//! * [`DegradedStats`] — a mergeable counter block, serialized next to
//!   (never inside) campaign aggregates so hashes of trial values are
//!   unaffected;
//! * a thread-local accumulator ([`record`] / [`take_thread_stats`])
//!   so deep DSP code can count an event without threading a stats
//!   parameter through every signature. Workers drain it per trial and
//!   reduce in canonical order, keeping campaigns deterministic.

use crate::complex::Complex64;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// A non-finite value was found at `index` of the scanned slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonFinite {
    /// Index of the first offending element.
    pub index: usize,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite value at index {}", self.index)
    }
}

impl std::error::Error for NonFinite {}

/// Index of the first NaN/Inf in a real slice, if any.
pub fn first_non_finite(xs: &[f64]) -> Option<usize> {
    xs.iter().position(|x| !x.is_finite())
}

/// Index of the first element with a NaN/Inf component in a complex
/// slice, if any.
pub fn first_non_finite_c(xs: &[Complex64]) -> Option<usize> {
    xs.iter().position(|z| !z.re.is_finite() || !z.im.is_finite())
}

/// Typed finite-ness check over a real slice.
pub fn check_finite(xs: &[f64]) -> Result<(), NonFinite> {
    match first_non_finite(xs) {
        Some(index) => Err(NonFinite { index }),
        None => Ok(()),
    }
}

/// Counters of numerical degradations observed during a run. Kept
/// *beside* campaign aggregates (and out of determinism hashes): a
/// degraded trial contributes its sanitized value to the aggregate and
/// its event count here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedStats {
    /// Jacobi SVDs that hit the sweep cap (best-effort factors used).
    #[serde(default)]
    pub svd_non_converged: u64,
    /// NaN/Inf LLRs neutralised (set to 0.0) before Viterbi decoding.
    #[serde(default)]
    pub non_finite_llr: u64,
    /// Non-finite values detected at a DSP stage boundary
    /// (post-equalisation / post-OTFS-demodulation grids).
    #[serde(default)]
    pub non_finite_stage: u64,
    /// Cross-band predictions replaced by the last good estimate.
    #[serde(default)]
    pub estimator_fallbacks: u64,
    /// REM forecasts found absent/stale by the transport resilience
    /// shim, which fell back to vanilla loss-based recovery.
    #[serde(default)]
    pub forecast_fallbacks: u64,
}

impl DegradedStats {
    /// Adds another ledger into this one.
    pub fn merge(&mut self, other: &DegradedStats) {
        self.svd_non_converged += other.svd_non_converged;
        self.non_finite_llr += other.non_finite_llr;
        self.non_finite_stage += other.non_finite_stage;
        self.estimator_fallbacks += other.estimator_fallbacks;
        self.forecast_fallbacks += other.forecast_fallbacks;
    }

    /// Total events of any kind.
    pub fn total(&self) -> u64 {
        self.svd_non_converged
            + self.non_finite_llr
            + self.non_finite_stage
            + self.estimator_fallbacks
            + self.forecast_fallbacks
    }

    /// True when nothing degraded.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl std::fmt::Display for DegradedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "svd-non-converged {}, non-finite LLRs {}, non-finite stages {}, \
             estimator fallbacks {}, forecast fallbacks {}",
            self.svd_non_converged,
            self.non_finite_llr,
            self.non_finite_stage,
            self.estimator_fallbacks,
            self.forecast_fallbacks
        )
    }
}

thread_local! {
    static THREAD_STATS: Cell<DegradedStats> = const { Cell::new(DegradedStats {
        svd_non_converged: 0,
        non_finite_llr: 0,
        non_finite_stage: 0,
        estimator_fallbacks: 0,
        forecast_fallbacks: 0,
    }) };
}

/// Mutates the current thread's degradation ledger. DSP code calls
/// this at the point of degradation; the campaign worker drains the
/// ledger per trial with [`take_thread_stats`].
pub fn record(f: impl FnOnce(&mut DegradedStats)) {
    THREAD_STATS.with(|cell| {
        let mut stats = cell.get();
        f(&mut stats);
        cell.set(stats);
    });
}

/// Takes (and resets) the current thread's degradation ledger. Call
/// once before a trial to clear leftovers and once after to collect
/// what the trial recorded — counts are then per-trial deterministic
/// and can be reduced in canonical order.
pub fn take_thread_stats() -> DegradedStats {
    THREAD_STATS.with(|cell| cell.replace(DegradedStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn finite_scans_find_first_offender() {
        assert_eq!(first_non_finite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_non_finite(&[1.0, f64::NAN, f64::INFINITY]), Some(1));
        assert_eq!(first_non_finite(&[f64::NEG_INFINITY]), Some(0));
        assert!(check_finite(&[0.0, -1.0]).is_ok());
        assert_eq!(check_finite(&[0.0, f64::NAN]), Err(NonFinite { index: 1 }));
    }

    #[test]
    fn complex_scans_catch_either_component() {
        let ok = [c64(1.0, -2.0), c64(0.0, 0.0)];
        assert_eq!(first_non_finite_c(&ok), None);
        let bad_re = [c64(1.0, 0.0), c64(f64::NAN, 0.0)];
        assert_eq!(first_non_finite_c(&bad_re), Some(1));
        let bad_im = [c64(1.0, f64::INFINITY)];
        assert_eq!(first_non_finite_c(&bad_im), Some(0));
    }

    #[test]
    fn stats_merge_total_and_display() {
        let mut a = DegradedStats { svd_non_converged: 1, ..Default::default() };
        let b = DegradedStats { non_finite_llr: 2, estimator_fallbacks: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert!(!a.is_clean());
        assert!(DegradedStats::default().is_clean());
        let shown = a.to_string();
        assert!(shown.contains("svd-non-converged 1"));
        assert!(shown.contains("estimator fallbacks 3"));
    }

    #[test]
    fn thread_ledger_records_and_drains() {
        let _ = take_thread_stats(); // clear anything a prior test left
        record(|d| d.non_finite_llr += 2);
        record(|d| d.svd_non_converged += 1);
        let taken = take_thread_stats();
        assert_eq!(taken.non_finite_llr, 2);
        assert_eq!(taken.svd_non_converged, 1);
        // Drained: the next take is clean.
        assert!(take_thread_stats().is_clean());
    }

    #[test]
    fn stats_serde_roundtrip_and_missing_fields_default() {
        let s = DegradedStats { non_finite_stage: 4, ..Default::default() };
        let json = serde_json::to_string(&s).expect("serialize");
        let back: DegradedStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
        let sparse: DegradedStats = serde_json::from_str("{}").expect("all fields default");
        assert!(sparse.is_clean());
    }
}
