//! Dataset calibration against the paper's Table 2/4 statistics.

use rem_core::{merge, DatasetSpec, Plane, RunConfig, RunMetrics};
use rem_num::rng::rng_from_seed;
use rem_sim::simulate_run;

fn legacy(spec: &DatasetSpec, seeds: &[u64]) -> RunMetrics {
    let mut m = RunMetrics::default();
    for &s in seeds {
        merge(&mut m, simulate_run(&RunConfig::new(spec.clone(), Plane::Legacy, s)));
    }
    m
}

#[test]
fn handover_intervals_match_table2_bands() {
    // Paper Table 2: 50.2 s (low), 20.4 s, 19.3 s, 11.3 s.
    let low = legacy(&DatasetSpec::la_driving(40.0, 50.0), &[1, 2]);
    assert!((20.0..90.0).contains(&low.avg_handover_interval_s()), "low: {}", low.avg_handover_interval_s());
    let hsr = legacy(&DatasetSpec::beijing_shanghai(40.0, 325.0), &[1, 2]);
    assert!((6.0..25.0).contains(&hsr.avg_handover_interval_s()), "hsr: {}", hsr.avg_handover_interval_s());
    assert!(hsr.avg_handover_interval_s() < low.avg_handover_interval_s());
}

#[test]
fn cositing_matches_table4() {
    // Paper §3.1: 53.4% of cells share a base station.
    let spec = DatasetSpec::beijing_taiyuan(100.0, 250.0);
    let dep = spec.deployment.generate(&mut rng_from_seed(1));
    let f = dep.cosited_fraction();
    assert!((0.40..0.70).contains(&f), "cosited={f}");
}

#[test]
fn rsrp_range_matches_table4() {
    // Table 4: RSRP in roughly [-134, -59] dBm on the HSR datasets.
    use rem_sim::{RadioEnv, ShadowingCfg};
    let spec = DatasetSpec::beijing_shanghai(30.0, 300.0);
    let dep = spec.deployment.generate(&mut rng_from_seed(2));
    let mut env = RadioEnv::new(dep, ShadowingCfg::default());
    let mut rng = rng_from_seed(3);
    let mut best_min = f64::INFINITY;
    let mut best_max = f64::NEG_INFINITY;
    for step in 0..3000 {
        let pos = step as f64 * 10.0;
        // Coverage holes go below any measurable RSRP by design; the
        // Table 4 range covers *measured* (in-coverage) samples.
        if env.deployment().in_hole(pos) {
            continue;
        }
        let obs = env.observe(pos, 4_000.0, &mut rng);
        if let Some(best) = obs.iter().map(|c| c.rsrp_dbm).reduce(f64::max) {
            best_min = best_min.min(best);
            best_max = best_max.max(best);
        }
    }
    assert!(best_max < -55.0 && best_max > -100.0, "max={best_max}");
    assert!(best_min > -145.0, "min={best_min}");
}

#[test]
fn conflict_loop_statistics_match_table2_shape() {
    // HSR conflict loops: a handful per hour, 2-6 handovers each.
    let m = legacy(&DatasetSpec::beijing_shanghai(60.0, 300.0), &[1, 2, 3]);
    let loops = m.conflict_loops().count();
    assert!(loops >= 1, "expected at least one conflict loop");
    let per_loop = m.avg_handovers_per_loop();
    assert!((2.0..8.0).contains(&per_loop), "HOs/loop={per_loop}");
}

#[test]
fn proactive_policies_create_theorem2_violations() {
    use rem_mobility::conflict::A3Graph;
    use rem_mobility::CellId;
    let spec = DatasetSpec::beijing_shanghai(30.0, 300.0);
    let mut g = A3Graph::new();
    for i in 0..200u32 {
        for j in (i + 1)..(i + 4).min(200) {
            g.set_offset(CellId(i), CellId(j), spec.a3_offset(CellId(i), CellId(j)));
            g.set_offset(CellId(j), CellId(i), spec.a3_offset(CellId(j), CellId(i)));
        }
    }
    assert!(!g.theorem2_holds(), "dataset policies should violate Theorem 2");
    assert!(g.has_persistent_loop());
    let fixed = g.make_conflict_free();
    assert!(fixed.theorem2_holds());
    assert!(!fixed.has_persistent_loop());
}
