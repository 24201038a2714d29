#![warn(missing_docs)]

//! # rem-mobility
//!
//! The 4G/5G mobility-management machinery of the REM reproduction:
//! measurement events A1–A5 with time-to-trigger (paper Table 1),
//! the multi-stage handover policies operators configure (Fig 1b),
//! RRC-style signaling messages, the handover state machine and
//! failure taxonomy (Table 2), feedback-delay models (Figs 2a/14a),
//! policy-conflict detection and classification (Table 3, Figs 3–4),
//! and REM's policy simplification with Theorem 2/3 conflict freedom
//! (§5.3, Fig 8).
//!
//! [`EventMonitor`] is the workspace's one time-to-trigger
//! implementation. `rem-sim` evaluates the policies on it epoch by
//! epoch (its replay is the policies' runtime), and `rem-fleet` runs
//! each train's A3 trigger on it.

pub mod conflict;
pub mod events;
pub mod feedback;
pub mod messages;
pub mod policy;
pub mod rem_policy;
pub mod statemachine;
pub mod x2;

pub use conflict::{a3_graph_from_policies, scan_conflicts, A3Graph, TwoCellConflict};
pub use events::{EventConfig, EventKind, EventMonitor};
pub use messages::RrcMessage;
pub use policy::{CellId, CellPolicy, Earfcn, HandoverRule, TargetScope};
pub use rem_policy::{rem_policies, simplify_policy, SimplifyConfig};
pub use statemachine::{
    FailureCause, HandoverAttempt, HoPhase, InvalidTransition, SupervisionExpiry, SupervisionTimers,
};
pub use x2::{AdmissionControl, HandoverPreparation, PrepState, UeId, X2Message};
