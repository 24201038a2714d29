//! Observability acceptance tests: probes observe, they never
//! influence. The metrics registry and trace sink are process-global,
//! so every test that touches them serialises on [`REGISTRY`] —
//! integration tests in this binary run concurrently by default.
//!
//! The determinism contract under test (see `rem-obs` crate docs):
//! counter values and the trace event *set* are invariant under the
//! worker thread count; only event order is scheduling-dependent.

use rem_core::{CampaignSpec, Comparison, DatasetSpec, RunPolicy};
use rem_obs::{metrics, trace, RunManifest};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serialises access to the process-global metrics/trace state.
static REGISTRY: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn campaign() -> CampaignSpec {
    CampaignSpec::new(DatasetSpec::beijing_taiyuan(8.0, 300.0)).with_seeds(&[3, 4])
}

/// Runs the reference campaign on `threads` workers and returns the
/// counter rollup it produced.
fn campaign_counters(threads: usize) -> BTreeMap<String, u64> {
    metrics::reset();
    let policy = RunPolicy { threads, ..RunPolicy::default() };
    let checked = Comparison::run_checkpointed(&campaign().with_threads(threads), &policy, None)
        .expect("campaign");
    assert!(checked.is_clean());
    metrics::snapshot().counters
}

#[test]
fn metric_counters_are_thread_count_invariant() {
    let _g = lock();
    let serial = campaign_counters(1);
    // 2 seeds x 2 planes = 4 simulated runs in 2 paired trials,
    // regardless of scheduling.
    assert_eq!(serial.get("rem_sim_runs_total"), Some(&4));
    assert_eq!(serial.get("rem_exec_checked_trials_total"), Some(&2));
    let parallel = campaign_counters(4);
    assert_eq!(serial, parallel, "counters must not depend on the worker count");
}

/// Order-insensitive identity of an event: kind plus serialized
/// payload (never `seq`, which is scheduling-dependent).
fn event_keys(events: &[rem_obs::TraceEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events
        .iter()
        .map(|e| format!("{} {}", e.kind(), serde_json::to_string(&e.fields).expect("fields")))
        .collect();
    keys.sort();
    keys
}

fn campaign_trace(threads: usize) -> Vec<rem_obs::TraceEvent> {
    assert!(trace::start(), "integration tests build rem-obs with `enabled`");
    let policy = RunPolicy { threads, ..RunPolicy::default() };
    Comparison::run_checkpointed(&campaign().with_threads(threads), &policy, None)
        .expect("campaign");
    trace::finish()
}

#[test]
fn trace_event_set_is_thread_count_invariant() {
    let _g = lock();
    let serial = campaign_trace(1);
    let keys = event_keys(&serial);
    assert!(
        keys.iter().any(|k| k.starts_with("core/campaign_start")),
        "campaign lifecycle must be traced, got {keys:?}"
    );
    assert!(keys.iter().any(|k| k.starts_with("core/campaign_done")));
    let parallel = campaign_trace(4);
    assert_eq!(keys, event_keys(&parallel), "event set must not depend on the worker count");
    // The offline rollup agrees with itself across thread counts too.
    assert_eq!(
        rem_obs::summary::summarize(&serial).by_kind,
        rem_obs::summary::summarize(&parallel).by_kind
    );
}

#[test]
fn trace_is_inert_until_started() {
    let _g = lock();
    let _ = trace::finish(); // drain + deactivate whatever came before
    trace::emit("itest", "dropped", &[("x", 1u64.into())]);
    assert!(trace::finish().is_empty(), "emit before start() must be a no-op");
    assert!(trace::start());
    trace::emit("itest", "kept", &[("x", 1u64.into())]);
    let events = trace::finish();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind(), "itest/kept");
}

#[test]
fn spans_record_into_histograms() {
    let _g = lock();
    metrics::reset();
    {
        let _s = metrics::span("rem_itest_span_us");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let snap = metrics::snapshot();
    let h = snap.histograms.get("rem_itest_span_us").expect("span must record a histogram");
    assert_eq!(h.count, 1);
    assert!(h.sum >= 1_000, "a 1ms span is at least 1000us, got {}", h.sum);
    // The Prometheus dump carries the histogram.
    let text = metrics::render_prometheus(&snap);
    assert!(text.contains("rem_itest_span_us"), "{text}");
}

#[test]
fn manifest_roundtrip_records_probe_availability() {
    let dir = std::env::temp_dir().join("rem-obs-itest");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("roundtrip.manifest.json");
    let mut m = RunManifest::new("compare", r#"["fingerprint"]"#, 4)
        .with_result_hash("fnv1a64:0011223344556677".to_string());
    m.threads = 4;
    m.save(&path).expect("save");
    let back = RunManifest::load(&path).expect("load");
    assert_eq!(back, m);
    assert_eq!(back.spec_json, r#"["fingerprint"]"#);
    assert!(back.obs_enabled, "this binary links rem-obs with `enabled`");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn jsonl_roundtrip_preserves_the_event_stream() {
    let _g = lock();
    assert!(trace::start());
    trace::emit("itest", "a", &[("v", 3u64.into()), ("s", "x".into())]);
    trace::emit("itest", "b", &[("f", 0.5f64.into()), ("ok", true.into())]);
    let events = trace::finish();
    let jsonl = trace::to_jsonl(&events);
    let back = trace::parse_jsonl(&jsonl).expect("parse");
    assert_eq!(events, back);
}
