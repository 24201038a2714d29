//! Crash-safety overhead benchmarks: what panic isolation and
//! checkpointing cost when nothing goes wrong. The checked engine
//! wraps every trial in `catch_unwind` plus watchdog bookkeeping, and
//! the checkpoint writer serializes + fsyncs per wave — both must stay
//! cheap relative to a real Monte-Carlo trial (~ms of DSP).
//!
//! Usage: `cargo bench -p rem-bench --bench crash_safety [-- --test]`
//! (`--test` shrinks iteration counts to a smoke run).

use rem_bench::{header, time_us, Timing};
use rem_core::rem_exec::{par_map, par_map_checked, CheckedPolicy};
use rem_core::{fnv1a64, Checkpoint};
use std::hint::black_box;

/// A trial-shaped unit of work: enough arithmetic that scheduling
/// noise doesn't dominate, cheap enough that supervision overhead is
/// visible if it regresses.
fn synthetic_trial(i: usize) -> f64 {
    let mut acc = i as f64 + 1.0;
    for k in 1..200 {
        acc = (acc * 1.000_1 + k as f64).sqrt();
    }
    acc
}

fn report(name: &str, t: Timing) {
    println!(
        "  {name:<28} {:>12.2} us  (min {:.2}, max {:.2}, {} rounds)",
        t.median_us, t.min_us, t.max_us, t.repeats
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // Checkpoint saves fsync, so they get fewer iterations.
    let (warmup, repeats, iters, io_iters) = if smoke { (1, 3, 3, 3) } else { (10, 5, 200, 30) };

    header("Crash safety: checked-engine overhead (median of per-round means)");
    const TRIALS: usize = 256;
    for threads in [1usize, 4] {
        let plain = time_us(warmup, repeats, iters, || {
            black_box(par_map(threads, TRIALS, synthetic_trial));
        });
        let checked = time_us(warmup, repeats, iters, || {
            black_box(par_map_checked(
                threads,
                TRIALS,
                CheckedPolicy::with_retries(1),
                |i, _attempt| synthetic_trial(i),
            ));
        });
        report(&format!("par_map_{TRIALS}_t{threads}"), plain);
        report(&format!("par_map_checked_{TRIALS}_t{threads}"), checked);
    }

    header("Crash safety: checkpoint IO and hashing (median of per-round means)");
    const RECORDS: usize = 512;
    let mut ckpt = Checkpoint::new("bench", "{\"spec\":1}".to_string(), RECORDS);
    for i in 0..RECORDS {
        ckpt.record(i, format!("[{:.6},{{}}]", synthetic_trial(i)));
    }
    let path = std::env::temp_dir().join("rem-bench-crash-safety.ckpt");
    let save =
        time_us(warmup.min(3), repeats, io_iters, || ckpt.save(black_box(&path)).expect("save"));
    let load = time_us(warmup, repeats, iters, || {
        black_box(Checkpoint::load(black_box(&path)).expect("load"));
    });
    let _ = std::fs::remove_file(&path);
    report(&format!("checkpoint_save_{RECORDS}"), save);
    report(&format!("checkpoint_load_{RECORDS}"), load);

    let blob: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let hash = time_us(warmup, repeats, iters, || {
        black_box(fnv1a64(black_box(&blob)));
    });
    report("fnv1a64_1mib", hash);
}
