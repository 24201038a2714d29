//! Handover policies (paper §3.2): the data every serving cell is
//! configured with.
//!
//! Each serving cell runs a local policy: a set of [`HandoverRule`]s
//! (event + target scope). Operators deploy *multi-stage* policies
//! (Fig 1b): intra-frequency neighbours are monitored continuously;
//! inter-frequency monitoring is only reconfigured on an A2 ("serving
//! weak") gate because it costs measurement gaps, and torn down again
//! on A1 ("serving strong"). REM collapses this to single-stage A3-only
//! policies over cross-band-estimated qualities (§5.3).
//!
//! This module holds the policies only; conflict analysis reads them
//! ([`crate::conflict`], [`crate::rem_policy`]). The runtime that
//! evaluates them epoch by epoch, on [`crate::events::EventMonitor`],
//! is `rem-sim`'s replay.

use crate::events::{EventConfig, EventKind};
use serde::{Deserialize, Serialize};

/// Globally unique cell identifier (ECI-like).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// Base station identifier (eNB/gNB); several cells may share one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BaseStationId(pub u32);

/// Frequency channel number (EARFCN-like).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Earfcn(pub u32);

/// Which neighbours a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetScope {
    /// Same frequency as the serving cell (no measurement gap needed).
    IntraFreq,
    /// One specific other frequency (requires gaps / reconfiguration in
    /// legacy; covered by cross-band estimation in REM).
    InterFreq(Earfcn),
    /// Any frequency — REM's simplified single-stage scope.
    AnyFreq,
}

/// One policy rule: when `event` fires for a candidate in `target`,
/// hand over to it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HandoverRule {
    /// The triggering event.
    pub event: EventConfig,
    /// Candidate scope.
    pub target: TargetScope,
}

/// A serving cell's policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellPolicy {
    /// The cell this policy belongs to.
    pub cell: CellId,
    /// The cell's own frequency.
    pub earfcn: Earfcn,
    /// Stage-1 rules (always active; legacy: intra-frequency only).
    pub stage1: Vec<HandoverRule>,
    /// A2 gate that activates stage 2 (legacy multi-stage only).
    pub a2_gate: Option<EventConfig>,
    /// Stage-2 rules (inter-frequency; active only after the A2 gate).
    pub stage2: Vec<HandoverRule>,
    /// A1 event that deactivates stage 2 again.
    pub a1_exit: Option<EventConfig>,
}

impl CellPolicy {
    /// True when the policy has an inter-frequency second stage.
    pub fn is_multi_stage(&self) -> bool {
        self.a2_gate.is_some() && !self.stage2.is_empty()
    }

    /// All rules across stages.
    pub fn all_rules(&self) -> impl Iterator<Item = &HandoverRule> {
        self.stage1.iter().chain(self.stage2.iter())
    }
}

/// Builds the typical legacy multi-stage policy of Fig 1b for a cell:
/// intra-frequency A3, A2-gated inter-frequency A4 rules per listed
/// frequency, A1 exit.
pub fn legacy_multi_stage_policy(
    cell: CellId,
    earfcn: Earfcn,
    inter_freqs: &[Earfcn],
    a3_offset_db: f64,
    intra_ttt_ms: f64,
    inter_ttt_ms: f64,
) -> CellPolicy {
    let stage2 = inter_freqs
        .iter()
        .map(|&f| HandoverRule {
            event: EventConfig {
                kind: EventKind::A4 { thresh: -108.0 },
                ttt_ms: inter_ttt_ms,
                hysteresis_db: 1.0,
            },
            target: TargetScope::InterFreq(f),
        })
        .collect();
    CellPolicy {
        cell,
        earfcn,
        stage1: vec![HandoverRule {
            event: EventConfig {
                kind: EventKind::A3 { offset: a3_offset_db },
                ttt_ms: intra_ttt_ms,
                hysteresis_db: 1.0,
            },
            target: TargetScope::IntraFreq,
        }],
        a2_gate: Some(EventConfig {
            kind: EventKind::A2 { thresh: -110.0 },
            ttt_ms: inter_ttt_ms,
            hysteresis_db: 1.0,
        }),
        stage2,
        a1_exit: Some(EventConfig {
            kind: EventKind::A1 { thresh: -85.0 },
            ttt_ms: inter_ttt_ms,
            hysteresis_db: 1.0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_stage_detection() {
        let pol = legacy_multi_stage_policy(CellId(0), Earfcn(1), &[Earfcn(2)], 3.0, 40.0, 640.0);
        assert!(pol.is_multi_stage());
        let single = CellPolicy { a2_gate: None, stage2: vec![], a1_exit: None, ..pol.clone() };
        assert!(!single.is_multi_stage());
        assert_eq!(pol.all_rules().count(), 2);
    }
}
