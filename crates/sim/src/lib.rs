#![warn(missing_docs)]

//! # rem-sim
//!
//! The epoch-stepped extreme-mobility simulator of the REM
//! reproduction: rail-line radio deployments, correlated-shadowing
//! radio environments, synthetic datasets calibrated to the paper's
//! Table 4, a fast waveform-aware signaling link model, and the
//! campaign runner that replays a client under the legacy 4G/5G plane
//! or REM's delay-Doppler overlay, producing the failure/conflict
//! metrics behind Tables 2/3/5 and Figs 2/3/4/9/15.
//!
//! ```
//! use rem_sim::{simulate_planes, simulate_run, DatasetSpec, Plane, RunConfig};
//!
//! // Both planes of seed 7, in lock-step on one environment stream.
//! let cfg = RunConfig::new(DatasetSpec::beijing_taiyuan(10.0, 300.0), Plane::Rem, 7);
//! let [legacy, rem] = simulate_planes(&cfg, [Plane::Legacy, Plane::Rem]);
//! assert!(!legacy.handovers.is_empty());
//! assert!(rem.failure_ratio() <= legacy.failure_ratio());
//! // One plane on its own replays exactly its half of the pair.
//! assert_eq!(simulate_run(&cfg).handovers, rem.handovers);
//! ```

pub mod dataset;
pub mod deployment;
pub mod error;
pub mod linkmodel;
pub mod metrics;
pub mod radio;
pub mod run;
pub mod trace;
pub mod trajectory;
pub mod train;

pub use dataset::DatasetSpec;
pub use deployment::{Deployment, DeploymentSpec};
pub use error::ParseError;
pub use metrics::{FailureRecord, HandoverRecord, LoopRecord, RunMetrics, SignalingCounts};
pub use radio::{RadioEnv, ShadowingCfg};
pub use rem_faults::{FaultConfig, FaultKind, FaultMode, FaultPlan, InjectedFault, OraclePair};
pub use run::{simulate_planes, simulate_run, Plane, ReestablishCfg, RunConfig};
pub use trace::{SignalingEvent, SignalingTrace};
pub use train::{ClientTrial, TrainMetrics, TrainScenario};
pub use trajectory::{SpeedProfile, Trajectory};
