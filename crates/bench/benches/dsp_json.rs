//! DSP kernel throughput, machine-readable: times the planned FFT
//! path against the per-call baseline (kept as
//! `fft_unplanned`/`ifft_unplanned`), the SFFT hot path, the
//! runtime-dispatched SIMD kernels (Viterbi ACS, QAM soft demap)
//! against their scalar references, the cross-band SVD and OTFS
//! message-passing detection and one coded link block at their working
//! sizes, and writes `BENCH_dsp.json` so CI can archive the perf
//! trajectory.
//!
//! Usage: `cargo bench -p rem-bench --bench dsp_json [-- --test]`
//! (`--test` shrinks iteration counts to a smoke run; the JSON is
//! written either way). The output lands in the working directory, or
//! at `$BENCH_DSP_JSON` when set.
//!
//! Every timing is [`rem_bench::time_us`]'s record: the median over
//! `repeats` rounds of the per-round mean, with the fastest and slowest
//! round, in µs. Speedups are ratios of medians; the two sides of each
//! are timed in alternating rounds ([`rem_bench::time_pair_us`]), so
//! the host's drift lands on both. The report also records the host's
//! `available_parallelism` and the SIMD tier.
//!
//! On a CPU without a vector tier (or under `REM_DSP_SIMD=off`) the
//! "simd" timings fall back to the scalar kernel, so the speedup
//! columns read ~1.0 — the report's `simd.dispatch` field says which
//! tier actually ran.

use rem_bench::{time_pair_us, time_us, Timing};
use rem_channel::models::ChannelModel;
use rem_num::fft::{fft, fft_unplanned};
use rem_num::rng::{complex_gaussian, rng_from_seed};
use rem_num::simd::{self, SimdTier};
use rem_num::svd::svd;
use rem_num::{c64, CMatrix, Complex64};
use rem_phy::convcode;
use rem_phy::dsp::DspScratch;
use rem_phy::link::{simulate_block_with, LinkConfig, Waveform};
use rem_phy::mp_detect::{apply_dd_channel, mp_detect, DdTap, MpConfig};
use rem_phy::otfs::{sfft, sfft_into};
use rem_phy::qam::{self, Modulation};
use std::f64::consts::FRAC_1_SQRT_2;
use std::hint::black_box;

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (warmup, repeats, iters) = if smoke { (2, 3, 5) } else { (50, 7, 400) };
    // Ratios of medians, rounded like the timings.
    let speedup =
        |base: Timing, fast: Timing| (100.0 * base.median_us / fast.median_us).round() / 100.0;
    let tier = simd::active_tier();

    let mut rng = rng_from_seed(1);
    let x1200: Vec<Complex64> = (0..1200).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
    let x1024: Vec<Complex64> = (0..1024).map(|_| complex_gaussian(&mut rng, 1.0)).collect();

    // 1200-point Bluestein, planned (cached twiddles + pre-transformed
    // chirp kernel, SIMD butterflies) vs the per-call baseline.
    let (mut buf, mut buf_ref) = (x1200.clone(), x1200.clone());
    let (planned_1200, unplanned_1200) = time_pair_us(
        warmup,
        repeats,
        iters,
        || {
            buf.copy_from_slice(&x1200);
            fft(black_box(&mut buf));
        },
        || {
            buf_ref.copy_from_slice(&x1200);
            fft_unplanned(black_box(&mut buf_ref));
        },
    );

    let (mut buf2, mut buf2_ref) = (x1024.clone(), x1024.clone());
    let (planned_1024, unplanned_1024) = time_pair_us(
        warmup,
        repeats,
        iters,
        || {
            buf2.copy_from_slice(&x1024);
            fft(black_box(&mut buf2));
        },
        || {
            buf2_ref.copy_from_slice(&x1024);
            fft_unplanned(black_box(&mut buf2_ref));
        },
    );

    // SFFT of the LTE signaling subframe through the zero-allocation
    // path with a persistent scratch.
    let mut ws = DspScratch::new();
    let g12 = CMatrix::from_fn(12, 14, |_, _| complex_gaussian(&mut rng, 1.0));
    let mut out12 = CMatrix::zeros(12, 14);
    let sfft_12x14 = time_us(warmup, repeats, iters * 2, || {
        sfft_into(black_box(&g12), &mut out12, &mut ws);
        black_box(&out12);
    });

    // QAM soft demap: per-symbol LLRs over a full-band 16-QAM grid,
    // scalar kernel vs the active SIMD tier (same entry point, forced
    // tier) — the per-block hot path of every receiver.
    let qam_syms: Vec<Complex64> =
        (0..4096).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
    let demap = |llrs: &mut Vec<f64>, tier: SimdTier| {
        llrs.clear();
        qam::demodulate_soft_into_with_tier(
            black_box(&qam_syms),
            Modulation::Qam16,
            0.1,
            llrs,
            tier,
        );
        black_box(&llrs);
    };
    let mut llr_scalar: Vec<f64> = Vec::with_capacity(4 * qam_syms.len());
    let mut llr_simd: Vec<f64> = Vec::with_capacity(4 * qam_syms.len());
    let (qam_scalar, qam_simd) = time_pair_us(
        warmup,
        repeats,
        iters,
        || demap(&mut llr_scalar, SimdTier::Scalar),
        || demap(&mut llr_simd, tier),
    );

    // Viterbi: flat bit-packed trellis on a full signaling payload,
    // scalar ACS vs the vectorised add-compare-select.
    let payload_len = LinkConfig::signaling(Waveform::Otfs).max_payload_bits();
    let payload: Vec<bool> = (0..payload_len).map(|i| i % 3 == 0).collect();
    let coded = convcode::encode(&payload);
    let llrs: Vec<f64> = coded.iter().map(|&b| if b { -1.0 } else { 1.0 }).collect();
    let decode = |trellis: &mut convcode::TrellisScratch, tier: SimdTier| {
        black_box(convcode::decode_soft_with_tier(black_box(&llrs), payload_len, trellis, tier));
    };
    let mut trellis_scalar = convcode::TrellisScratch::new();
    let mut trellis_simd = convcode::TrellisScratch::new();
    let (viterbi_scalar, viterbi_simd) = time_pair_us(
        warmup,
        repeats,
        iters,
        || decode(&mut trellis_scalar, SimdTier::Scalar),
        || decode(&mut trellis_simd, tier),
    );

    // End-to-end coded block (the Monte-Carlo trial unit).
    let cfg = LinkConfig::signaling(Waveform::Otfs);
    let ch = ChannelModel::Hst.realize(&mut rng, 97.2, 2.6e9);
    let mut block_rng = rng_from_seed(2);
    let block_iters = (iters / 4).max(3);
    let block = time_us(warmup.min(5), repeats, block_iters, || {
        black_box(simulate_block_with(&cfg, &ch, 10.0, &payload, &mut block_rng, &mut ws));
    });

    // Allocating SFFT of a 4-RB grid, the SVD at the cross-band
    // estimator's working size, and message-passing detection on an
    // 8x8 delay-Doppler grid with 3 taps. Their inputs come from a
    // stream of their own, so the inputs of the kernels above do not
    // depend on them.
    let mut rng = rng_from_seed(4);
    let g48 = CMatrix::from_fn(48, 14, |_, _| complex_gaussian(&mut rng, 1.0));
    let sfft_48x14 = time_us(warmup, repeats, iters, || {
        black_box(sfft(black_box(&g48)));
    });
    let h = CMatrix::from_fn(24, 16, |_, _| complex_gaussian(&mut rng, 1.0));
    let svd_24x16 = time_us(warmup.min(5), repeats, block_iters, || {
        black_box(svd(black_box(&h)));
    });
    let taps = [
        DdTap { dk: 0, dl: 0, gain: Complex64::ONE },
        DdTap { dk: 1, dl: 1, gain: c64(0.3, 0.2) },
        DdTap { dk: 2, dl: 0, gain: c64(0.0, 0.25) },
    ];
    let qpsk = c64(FRAC_1_SQRT_2, FRAC_1_SQRT_2);
    let y = apply_dd_channel(&CMatrix::from_fn(8, 8, |_, _| qpsk), &taps);
    let mp_8x8 = time_us(warmup.min(5), repeats, block_iters, || {
        black_box(mp_detect(black_box(&y), &taps, Modulation::Qpsk, 0.01, &MpConfig::default()));
    });

    let report = serde_json::json!({
        "bench": "dsp_json",
        "mode": (if smoke { "smoke" } else { "full" }),
        "repeats": repeats,
        "iterations": iters,
        "host": {
            "available_parallelism": (std::thread::available_parallelism().map_or(0, |n| n.get())),
        },
        "simd": {
            "dispatch": (tier.name()),
            "cpu_features": (simd::cpu_features()),
        },
        "kernels": {
            "fft_1200_bluestein": {
                "planned_us": (planned_1200.json()),
                "unplanned_us": (unplanned_1200.json()),
                "speedup": (speedup(unplanned_1200, planned_1200)),
            },
            "fft_1024_radix2": {
                "planned_us": (planned_1024.json()),
                "unplanned_us": (unplanned_1024.json()),
                "speedup": (speedup(unplanned_1024, planned_1024)),
            },
            "sfft_12x14_into": { "planned_us": (sfft_12x14.json()) },
            "sfft_48x14": { "us": (sfft_48x14.json()) },
            "svd_24x16": { "us": (svd_24x16.json()) },
            "mp_detect_8x8_3taps": { "us": (mp_8x8.json()) },
            "qam_llr": {
                "symbols": (qam_syms.len()),
                "modulation": "qam16",
                "scalar_us": (qam_scalar.json()),
                "simd_us": (qam_simd.json()),
                "speedup": (speedup(qam_scalar, qam_simd)),
            },
            "viterbi_decode_soft": {
                "scalar_us": (viterbi_scalar.json()),
                "simd_us": (viterbi_simd.json()),
                "speedup": (speedup(viterbi_scalar, viterbi_simd)),
                "payload_bits": payload_len,
            },
            "otfs_coded_block_12x14": { "us": (block.json()) },
        },
    });

    let path = std::env::var("BENCH_DSP_JSON").unwrap_or_else(|_| "BENCH_dsp.json".into());
    let pretty = serde_json::to_string_pretty(&report).expect("serialise bench report");
    std::fs::write(&path, &pretty).expect("write BENCH_dsp.json");
    // Provenance manifest beside the artifact (git SHA, plan-cache
    // mode, SIMD tier, iteration counts). No result hash: timings are
    // not deterministic, only attributable.
    let spec = serde_json::json!({
        "warmup": warmup,
        "repeats": repeats,
        "iters": iters,
        "smoke": smoke,
    });
    let manifest = rem_obs::RunManifest::new("bench:dsp_json", &spec.to_string(), iters);
    let mpath = format!("{path}.manifest.json");
    manifest.save(std::path::Path::new(&mpath)).expect("write bench manifest");
    println!("{pretty}");
    println!("wrote {path} (+ {mpath})");
    println!(
        "simd dispatch: {} | viterbi {:.2} -> {:.2} us, qam_llr {:.2} -> {:.2} us, \
         otfs block {:.2} us; medians of {repeats} rounds",
        tier.name(),
        viterbi_scalar.median_us,
        viterbi_simd.median_us,
        qam_scalar.median_us,
        qam_simd.median_us,
        block.median_us,
    );
}
