#![warn(missing_docs)]

//! # rem-net
//!
//! A miniature, packet-granular TCP Reno implementation over an
//! outage-prone radio link, reproducing the transport-layer behaviour
//! behind the paper's Fig 9: RTO exponential backoff turns radio
//! failures into data stalls that outlive the outage itself.
//!
//! Beyond the clean lossy/outage link, [`tcp`] models the pathologies
//! that dominate real cellular paths — bufferbloat queues, jitter-spike
//! episodes, and silent NAT rebinds — and [`resilience`] provides the
//! sender-side countermeasures (F-RTO spurious-timeout undo, zombie
//! reconnects, REM-forecast cwnd freezing) plus the Fig-9-style stall
//! classifier that scores them.

pub mod resilience;
pub mod tcp;

pub use resilience::{
    classify_stalls, CauseBreakdown, ClassifiedStall, ForecastWindow, NetStats, RecoveryEvent,
    RecoveryKind, RemForecast, ResilienceConfig, StallCause,
};
pub use tcp::{
    simulate_transfer, simulate_transfer_resilient, try_simulate_transfer,
    try_simulate_transfer_resilient, BloatEpisode, CongestionControl, JitterEpisode, LinkModel,
    NatRebind, Outage, TcpConfig, TcpError, TcpTrace,
};
