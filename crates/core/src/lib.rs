#![warn(missing_docs)]

//! # rem-core
//!
//! The public facade of the REM reproduction ("Beyond 5G: Reliable
//! Extreme Mobility Management", SIGCOMM 2020): paired legacy-vs-REM
//! replay experiments, the TCP coupling of Fig 9, and re-exports of
//! every subsystem crate.
//!
//! ## The system in one paragraph
//!
//! 4G/5G mobility management keys every decision off wireless signal
//! strength, which is fragile under extreme-mobility Doppler; REM
//! shifts to *movement-based* management in the delay-Doppler domain:
//! an OTFS signaling overlay rides on the legacy OFDM grid
//! ([`rem_phy::scheduler`]), the client measures one cell per base
//! station and derives the rest via SVD cross-band estimation
//! ([`rem_crossband`]), and policies collapse to provably conflict-free
//! single-stage A3 rules ([`rem_mobility::rem_policy`]).
//!
//! ## Quickstart
//!
//! ```no_run
//! use rem_core::{CampaignSpec, Comparison, DatasetSpec};
//!
//! // A campaign is a value: dataset + seeds + worker threads. Trials
//! // are scheduled in parallel but reduced in canonical seed order, so
//! // the result is identical for every thread count.
//! let spec = DatasetSpec::beijing_taiyuan(50.0, 300.0);
//! let campaign = CampaignSpec::new(spec).with_seeds(&[1, 2, 3]);
//! let cmp = Comparison::run(&campaign);
//! println!(
//!     "legacy {:.1}% -> REM {:.1}% failures ({:.1}x reduction)",
//!     cmp.legacy.failure_ratio() * 100.0,
//!     cmp.rem.failure_ratio() * 100.0,
//!     cmp.no_hole_failure_epsilon(),
//! );
//! ```

pub mod checkpoint;
pub mod error;
pub mod experiment;
pub mod net_study;
pub mod report;
pub mod scenario;
pub mod study;
pub mod tcp_coupling;

pub use checkpoint::{
    read_checksummed, run_trials_checkpointed, write_atomic_checksummed, Checkpoint,
    CheckpointedRun, RunPolicy, CHECKPOINT_MAGIC,
};
pub use error::ExperimentError;
pub use experiment::{
    merge, Aggregate, BlerStudy, CampaignSpec, CheckedComparison, Comparison, DEFAULT_ROUTE_KM,
    DEFAULT_SEEDS,
};
pub use net_study::{
    run_net_study, run_net_trial, NetCell, NetPolicy, NetStudyReport, NetStudySpec,
    NetTrialResult, NET_ORACLE_SLACK_MS, NET_STALL_GAP_MS,
};
pub use rem_num::hash::fnv1a64;
pub use report::{ExperimentReport, ReportRow};
pub use scenario::{ScenarioError, ScenarioSpec, SCENARIO_FORMAT};
pub use study::{run_study, Checked, Study};
pub use tcp_coupling::{mean_stall_per_failure_s, replay_tcp, replay_tcp_faulted, STALL_GAP_MS};

// Subsystem re-exports so downstream users depend on one crate.
pub use rem_channel;
pub use rem_crossband;
pub use rem_exec;
pub use rem_faults;
pub use rem_fleet;
pub use rem_mobility;
pub use rem_net;
pub use rem_num;
pub use rem_phy;
pub use rem_sim;

pub use rem_faults::{FaultConfig, FaultKind, FaultPlan, InjectedFault, OraclePair};
pub use rem_sim::{simulate_planes, simulate_run, DatasetSpec, Plane, RunConfig, RunMetrics};
