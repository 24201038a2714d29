//! End-to-end integration: a full paired campaign across planes, with
//! the headline claims of the paper asserted on the outputs.

use rem_core::rem_num::hash::fnv1a64_digest;
use rem_core::{
    run_study, simulate_run, study, CampaignSpec, Comparison, DatasetSpec, FaultConfig, FaultKind,
    Plane, RunConfig, RunMetrics, ScenarioSpec,
};

fn run(spec: DatasetSpec, seeds: &[u64]) -> Comparison {
    Comparison::run(&CampaignSpec::new(spec).with_seeds(seeds))
}

#[test]
fn rem_beats_legacy_on_hsr_replay() {
    let cmp = run(DatasetSpec::beijing_shanghai(40.0, 300.0), &[1, 2, 3]);

    // Non-trivial campaign.
    assert!(cmp.legacy.handovers.len() >= 20, "legacy HOs: {}", cmp.legacy.handovers.len());
    assert!(cmp.rem.handovers.len() >= 20);

    // Headline: REM reduces failures (excluding coverage holes).
    let l = cmp.legacy.failure_ratio_no_holes();
    let r = cmp.rem.failure_ratio_no_holes();
    assert!(r < l, "rem={r} legacy={l}");

    // Conflict freedom: REM has zero policy-conflict loops.
    assert_eq!(cmp.rem.conflict_loops().count(), 0);

    // Feedback acceleration.
    let lf = rem_num::stats::mean(&cmp.legacy.feedback_delays_ms);
    let rf = rem_num::stats::mean(&cmp.rem.feedback_delays_ms);
    assert!(rf < lf, "rem={rf} legacy={lf}");
}

#[test]
fn rem_failures_comparable_to_low_mobility() {
    // Paper: "REM achieves comparable failure ratios to static and low
    // mobility" — REM at 325 km/h should be within ~2.5x of the legacy
    // low-mobility baseline.
    let hsr = run(DatasetSpec::beijing_shanghai(40.0, 325.0), &[4, 5]);
    let low = run(DatasetSpec::la_driving(40.0, 50.0), &[4, 5]);
    let rem_hsr = hsr.rem.failure_ratio_no_holes();
    let legacy_low = low.legacy.failure_ratio_no_holes();
    assert!(
        rem_hsr <= (legacy_low * 2.5).max(0.05),
        "REM@HSR {rem_hsr} vs legacy@low {legacy_low}"
    );
}

#[test]
fn campaigns_are_reproducible() {
    let spec = DatasetSpec::beijing_taiyuan(15.0, 250.0);
    let a = run(spec.clone(), &[9]);
    let b = run(spec, &[9]);
    assert_eq!(a.legacy.handovers, b.legacy.handovers);
    assert_eq!(a.rem.failures, b.rem.failures);
}

#[test]
fn failure_ratios_grow_with_speed_for_legacy() {
    let slow = run(DatasetSpec::beijing_taiyuan(40.0, 120.0), &[1, 2]);
    let fast = run(DatasetSpec::beijing_taiyuan(40.0, 325.0), &[1, 2]);
    assert!(
        fast.legacy.failure_ratio() > slow.legacy.failure_ratio(),
        "fast={} slow={}",
        fast.legacy.failure_ratio(),
        slow.legacy.failure_ratio()
    );
}

/// The HSR scenario's replay digests (`rem compare --scenario
/// scenarios/hsr_beijing_shanghai.toml --seeds 4 --threads 2 --hash`
/// prints the first): every compare trial runs through `simulate_run`,
/// so a change to the epoch loop that moves a draw or a transition
/// moves one of these.
#[test]
fn hsr_replay_digests_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/hsr_beijing_shanghai.toml");
    let src = std::fs::read_to_string(path).expect("read the HSR scenario");
    let mut scenario = ScenarioSpec::from_toml(&src).expect("the HSR scenario parses");
    scenario.run.seeds = (1..=4).collect();
    scenario.run.threads = 2;
    scenario.validate().expect("the HSR scenario validates");
    let campaign = scenario.campaign();
    let cmp = run_study(&campaign, &scenario.run_policy(), None, |_, _| {}).expect("runs").value;
    assert_eq!(study::digest(&campaign, &cmp).unwrap(), "fnv1a64:f61dbedc3dd8cb86");
    assert_eq!(digest_of(&cmp.legacy), "fnv1a64:b705cf8939fcadb3");
}

/// One aggressively faulted, traced run per plane: the fault, attempt,
/// RLF and re-establishment transitions all fire, and their metrics
/// and signaling traces are pinned. The route is long enough for every
/// fault kind to bite the legacy run; a masking window only ever causes
/// a legacy failure (REM measures every carrier, so it misses no cell).
#[test]
fn faulted_traced_runs_are_pinned() {
    for (plane, want) in
        [(Plane::Legacy, "fnv1a64:56f1e9ad6aa6bc60"), (Plane::Rem, "fnv1a64:74c9a0551c934225")]
    {
        let mut cfg = RunConfig::new(DatasetSpec::beijing_taiyuan(150.0, 300.0), plane, 3);
        cfg.faults = Some(FaultConfig::aggressive());
        cfg.record_trace = true;
        let m = simulate_run(&cfg);
        assert_eq!(digest_of(&m), want, "{plane:?}");
        let expected = FaultKind::all().into_iter();
        for kind in expected.filter(|&k| plane == Plane::Legacy || k != FaultKind::MaskCell) {
            assert!(
                m.injected.iter().any(|f| f.kind == kind),
                "{kind:?} never bit the {plane:?} run"
            );
        }
    }
}

fn digest_of(m: &RunMetrics) -> String {
    fnv1a64_digest(serde_json::to_string(m).expect("metrics serialize").as_bytes())
}
