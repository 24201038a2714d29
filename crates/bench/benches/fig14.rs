//! Fig 14a: feedback delays, legacy sequential measurement vs REM's
//! cross-band estimation (CDF) — both from the analytic timing model
//! and from the campaign simulator's recorded attempts.
//!
//! Fig 14b: cross-band estimation runtime — REM's closed-form SVD
//! pipeline vs R2F2's iterative fitting vs OptML's network inference.
//! The paper reports 158.1 ms / 2.4 s / 416.3 ms on its hardware; the
//! ordering and the ratios are the target.

use rem_bench::{bench_args, header, print_cdf, time_us, ROUTE_KM};
use rem_core::{CampaignSpec, DatasetSpec, Plane};
use rem_crossband::estimator::{CrossBandEstimator, R2f2Estimator, RemEstimator};
use rem_crossband::harness::{generate_scenarios, train_optml, Regime, ScenarioConfig};
use rem_crossband::optml::OptMlConfig;
use rem_mobility::feedback::{sample_feedback_delays, MeasurementTiming};
use rem_num::rng::rng_from_seed;
use rem_num::stats::mean;
use std::hint::black_box;

fn main() {
    let args = bench_args();
    header("Fig 14a: feedback delay CDF, legacy vs REM (timing model)");
    let t = MeasurementTiming::default();
    let mut rng = rng_from_seed(8);
    let samples = sample_feedback_delays(5000, &t, &mut rng);
    let legacy: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let rem: Vec<f64> = samples.iter().map(|s| s.1).collect();
    print_cdf("legacy", &legacy, 10, "ms");
    print_cdf("REM", &rem, 10, "ms");
    println!(
        "means: legacy {:.1} ms -> REM {:.1} ms (paper: 802.5 -> 242.4 ms)",
        mean(&legacy),
        mean(&rem)
    );

    header("Fig 14a': realized feedback delays from the campaign replays");
    let spec = DatasetSpec::beijing_shanghai(ROUTE_KM, 300.0);
    let campaign =
        CampaignSpec::new(spec).with_seeds(&[1, 2]).with_threads(args.threads);
    let l = campaign.aggregate(Plane::Legacy);
    let r = campaign.aggregate(Plane::Rem);
    println!(
        "realized means: legacy {:.0} ms -> REM {:.0} ms",
        mean(&l.feedback_delays_ms),
        mean(&r.feedback_delays_ms)
    );

    header("Fig 14b: cross-band estimation runtime per prediction");
    let cfg = ScenarioConfig::default();
    let scenarios = generate_scenarios(Regime::Hsr, &cfg, 25, &mut rng_from_seed(9));
    let obs = &scenarios.last().expect("25 scenarios").obs;
    let optml =
        train_optml(&scenarios, &OptMlConfig { hidden: 32, epochs: 10, lr: 0.01 }, &cfg.grid, 10);
    let estimators: [(&str, &dyn CrossBandEstimator); 3] = [
        ("REM (SVD closed form)", &RemEstimator::default()),
        ("R2F2 (iterative fit)", &R2f2Estimator::default()),
        ("OptML (NN inference)", &optml),
    ];
    let times: Vec<(&str, f64)> = estimators
        .iter()
        .map(|(name, est)| {
            let t = time_us(5, 3, 200, || {
                black_box(est.predict_band2_tf(black_box(obs)));
            });
            (*name, t.median_us)
        })
        .collect();
    for (name, us) in &times {
        println!("  {name:<22} {:>10.3} ms  ({:.2}x REM)", us / 1e3, us / times[0].1);
    }
    println!("(paper: REM 158.1 ms, R2F2 2.4 s, OptML 416.3 ms)");
}
