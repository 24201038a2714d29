//! Shared helpers for the table/figure regeneration benches.
//!
//! Every bench target prints the series/rows of one paper table or
//! figure next to the paper's reported values, so `cargo bench` output
//! doubles as the EXPERIMENTS.md evidence.

use rem_num::stats::Ecdf;
use std::time::Instant;

/// Route length (km) used by campaign benches. Longer routes tighten
/// the statistics at the cost of runtime.
///
/// Re-exported from [`rem_core`]: the campaign configuration (route,
/// seeds, threads) now lives in [`rem_core::CampaignSpec`] so benches
/// and the CLI share one sweep-configuration type.
pub use rem_core::DEFAULT_ROUTE_KM as ROUTE_KM;

/// Seeds aggregated per configuration (re-exported from [`rem_core`]).
pub use rem_core::DEFAULT_SEEDS as SEEDS;

/// Arguments of a `harness = false` bench invocation: the optional
/// positional trial-count and the `--threads N` worker count.
///
/// Cargo passes its own tokens (e.g. `--bench`) through to the binary;
/// unknown flags are ignored rather than rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchArgs {
    /// First bare integer argument (conventionally the Monte-Carlo
    /// block/trial count), if any.
    pub trials: Option<usize>,
    /// Worker threads (`0` = all available hardware threads).
    pub threads: usize,
}

impl BenchArgs {
    /// The positional trial count, or `default` when absent.
    pub fn trials_or(&self, default: usize) -> usize {
        self.trials.unwrap_or(default)
    }
}

/// Parses bench command-line tokens (everything after the program
/// name). See [`BenchArgs`].
pub fn parse_bench_args<I, S>(tokens: I) -> BenchArgs
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = BenchArgs { trials: None, threads: 0 };
    let mut it = tokens.into_iter();
    while let Some(tok) = it.next() {
        let tok = tok.as_ref();
        if tok == "--threads" {
            if let Some(v) = it.next() {
                if let Ok(n) = v.as_ref().parse() {
                    out.threads = n;
                }
            }
        } else if out.trials.is_none() {
            if let Ok(n) = tok.parse() {
                out.trials = Some(n);
            }
        }
    }
    out
}

/// [`parse_bench_args`] over the process arguments.
pub fn bench_args() -> BenchArgs {
    parse_bench_args(std::env::args().skip(1))
}

/// Microseconds per call of a timed closure over `repeats` rounds:
/// each round's mean, summarised by the median and the range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Median over the rounds of the mean microseconds per call.
    pub median_us: f64,
    /// The fastest round's mean.
    pub min_us: f64,
    /// The slowest round's mean.
    pub max_us: f64,
    /// Timed rounds.
    pub repeats: usize,
}

impl Timing {
    /// The summary of one mean per round.
    fn of_rounds(mut means: Vec<f64>) -> Self {
        means.sort_by(f64::total_cmp);
        let repeats = means.len();
        let mid = repeats / 2;
        let median_us =
            if repeats % 2 == 1 { means[mid] } else { 0.5 * (means[mid - 1] + means[mid]) };
        Timing { median_us, min_us: means[0], max_us: means[repeats - 1], repeats }
    }

    /// The record form: `{"median": .., "min": .., "max": ..}` in µs,
    /// rounded to 0.01 µs.
    pub fn json(&self) -> serde_json::Value {
        let r = |us: f64| (us * 100.0).round() / 100.0;
        let (median, min, max) = (r(self.median_us), r(self.min_us), r(self.max_us));
        serde_json::json!({ "median": median, "min": min, "max": max })
    }
}

/// Times `f`: `warmup` untimed calls, then `repeats` rounds of `iters`
/// calls each, one mean per round.
///
/// # Panics
/// Panics if `repeats` or `iters` is 0.
pub fn time_us(warmup: usize, repeats: usize, iters: usize, mut f: impl FnMut()) -> Timing {
    let [t] = time_rounds(warmup, repeats, iters, |_| f());
    t
}

/// Times the two sides of a ratio as [`time_us`] times one, in
/// alternating rounds: round `r` times `a` first when `r` is even and
/// `b` first when it is odd, so the host's speed drift lands on both
/// sides alike instead of on the ratio.
///
/// # Panics
/// Panics if `repeats` or `iters` is 0.
pub fn time_pair_us(
    warmup: usize,
    repeats: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Timing, Timing) {
    let [ta, tb] = time_rounds(warmup, repeats, iters, |side| if side == 0 { a() } else { b() });
    (ta, tb)
}

/// The round loop of [`time_us`] and [`time_pair_us`] over `N` sides,
/// `call(side)` running side `side` once: `warmup` untimed calls per
/// side, then `repeats` rounds in which each side runs `iters` timed
/// calls, round `r` starting with side `r % N`.
fn time_rounds<const N: usize>(
    warmup: usize,
    repeats: usize,
    iters: usize,
    mut call: impl FnMut(usize),
) -> [Timing; N] {
    assert!(repeats > 0 && iters > 0, "time_us needs at least one timed call");
    for side in 0..N {
        for _ in 0..warmup {
            call(side);
        }
    }
    let mut means: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(repeats));
    for r in 0..repeats {
        for k in 0..N {
            let side = (r + k) % N;
            let t0 = Instant::now();
            for _ in 0..iters {
                call(side);
            }
            means[side].push(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
        }
    }
    means.map(Timing::of_rounds)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Prints an ECDF as `(x, percent)` rows.
pub fn print_cdf(label: &str, data: &[f64], points: usize, unit: &str) {
    let e = Ecdf::new(data);
    println!("-- CDF: {label} ({} samples) --", e.len());
    for (x, p) in e.series(points) {
        println!("  {x:>10.2} {unit:<4} {:>6.1}%", p * 100.0);
    }
}

/// Formats a ratio as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats the paper's epsilon reduction factor.
pub fn eps(e: f64) -> String {
    if e.is_infinite() {
        "inf".to_string()
    } else {
        format!("{e:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_args_parses_positional_and_threads() {
        let a = parse_bench_args(["60", "--threads", "2"]);
        assert_eq!(a, BenchArgs { trials: Some(60), threads: 2 });
        assert_eq!(a.trials_or(200), 60);
    }

    #[test]
    fn bench_args_defaults() {
        let a = parse_bench_args::<_, &str>([]);
        assert_eq!(a, BenchArgs { trials: None, threads: 0 });
        assert_eq!(a.trials_or(200), 200);
    }

    #[test]
    fn bench_args_ignores_cargo_tokens() {
        // Cargo injects e.g. `--bench`; the threads value must not be
        // mistaken for the positional trial count.
        let a = parse_bench_args(["--bench", "--threads", "4", "80"]);
        assert_eq!(a, BenchArgs { trials: Some(80), threads: 4 });
        let b = parse_bench_args(["--threads", "4"]);
        assert_eq!(b.trials, None);
        assert_eq!(b.threads, 4);
    }

    #[test]
    fn time_us_summarises_every_round() {
        let mut calls = 0;
        let t = time_us(2, 3, 4, || calls += 1);
        assert_eq!(calls, 2 + 3 * 4);
        assert_eq!(t.repeats, 3);
        assert!(t.min_us <= t.median_us && t.median_us <= t.max_us, "{t:?}");
        assert_eq!(t.json()["median"].as_f64(), Some((t.median_us * 100.0).round() / 100.0));
    }

    #[test]
    fn time_pair_us_alternates_the_first_side() {
        let order = std::cell::RefCell::new(String::new());
        let (a, b) = time_pair_us(
            1,
            4,
            2,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        // One warm-up call per side, then rounds of two calls per side
        // led by a, b, a, b in turn.
        assert_eq!(order.into_inner(), "ab".to_string() + "aabb" + "bbaa" + "aabb" + "bbaa");
        assert_eq!((a.repeats, b.repeats), (4, 4));
        assert!(a.min_us <= a.median_us && a.median_us <= a.max_us, "{a:?}");
    }

    #[test]
    fn campaign_constants_come_from_core() {
        assert_eq!(ROUTE_KM, rem_core::DEFAULT_ROUTE_KM);
        assert_eq!(SEEDS, rem_core::DEFAULT_SEEDS);
    }
}
