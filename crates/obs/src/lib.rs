#![warn(missing_docs)]

//! # rem-obs
//!
//! Zero-cost-when-disabled observability for the REM reproduction:
//! structured tracing, a metrics registry and reproducible run
//! manifests.
//!
//! The paper's evaluation (§7) attributes end-to-end BLER/latency
//! deltas to per-stage behaviour — estimation error, Doppler/ICI,
//! handover events. Doing that on a grown system needs the same
//! introspection a training/inference stack has, without perturbing
//! the hot paths whose determinism the whole replay methodology rests
//! on. This crate follows the `log`-crate model:
//!
//! * Every instrumented crate depends on `rem-obs` **unconditionally**
//!   and calls its probes freely.
//! * Without the `enabled` cargo feature (the default), every probe is
//!   an empty `#[inline(always)]` function — the optimizer deletes the
//!   call and its argument construction, so release builds carry zero
//!   overhead.
//! * The top of the dependency graph (the `rem` CLI, feature `obs`,
//!   on by default there) turns `rem-obs/enabled` on; cargo feature
//!   unification then lights the probes up across the whole workspace
//!   for that build.
//!
//! Three subsystems:
//!
//! * [`trace`] — structured events ordered by a monotonic sequence
//!   counter (never wall-clock), collected in memory while a sink is
//!   active and drained to JSONL per campaign;
//! * [`metrics`] — process-wide counters and histograms (trials
//!   run/retried/quarantined, per-stage DSP timings, checkpoint IO),
//!   with deterministic snapshots and a Prometheus-style text dump;
//! * [`manifest`] — a [`manifest::RunManifest`] written next to every
//!   checkpoint/bench artifact: campaign fingerprint, seeds, thread
//!   count, chaos/fault config, SIMD tier, git SHA and the
//!   result hash, so any `--hash` value is reproducible from its
//!   manifest alone (`rem rerun <manifest>`).
//!
//! ## Determinism contract
//!
//! Probes **observe, never influence**: they touch no RNG, no trial
//! value, no aggregation order. A build with probes enabled produces
//! bit-identical campaign hashes to a build without them. Trace events
//! carry only deterministic payloads (trial indices, seeds, counts);
//! wall-clock durations go to metrics histograms, which live beside —
//! never inside — hashed results. Counter totals are order-independent
//! sums, so metrics snapshots are identical at any worker-thread
//! count; event *order* within a trace is only guaranteed at one
//! worker thread (the event *set*, and therefore every summary count,
//! is thread-count invariant).

pub mod manifest;
pub mod metrics;
pub mod summary;
pub mod trace;

pub use manifest::RunManifest;
pub use metrics::{MetricsSnapshot, Span};
pub use summary::TraceSummary;
pub use trace::TraceEvent;

/// True when the crate was compiled with the `enabled` feature, i.e.
/// the probes are live in this build.
#[inline(always)]
pub const fn compiled_in() -> bool {
    cfg!(feature = "enabled")
}
