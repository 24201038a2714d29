//! Stateless, order-free randomness.
//!
//! The single-train simulator isolates RNG streams per trial with
//! `child_rng(seed, label)` — good enough when one trial is one unit
//! of scheduling. A sharded fleet cannot use sequential streams at
//! all: which shard advances a train, and in what order within an
//! epoch, depends on the decomposition, so *any* draw that consumes
//! mutable stream state would make the result depend on shard count.
//!
//! Every draw here is instead a pure hash of
//! `(seed, entity, epoch, purpose)` — the counter-based RNG idea
//! (Salmon et al., SC'11) reduced to a SplitMix64 finalizer chain.
//! Same inputs, same bits, no matter who asks first.

use rem_num::rng::splitmix64;

/// Domain-separation tags so different purposes at the same
/// `(seed, entity, epoch)` never correlate.
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
pub enum Stream {
    /// Per-train spawn draws (speed jitter).
    Spawn = 1,
    /// Per-(train, epoch) shadowing on the serving cell.
    ShadowServing = 2,
    /// Per-(train, epoch) shadowing on the strongest neighbour.
    ShadowNeighbor = 3,
    /// Per-(UE, handover) signaling outcome.
    UeOutcome = 4,
}

/// The raw 64-bit draw for `(seed, entity, epoch, stream)`.
#[inline]
pub fn draw(seed: u64, entity: u64, epoch: u64, stream: Stream) -> u64 {
    splitmix64(seed ^ splitmix64(entity ^ splitmix64(epoch ^ splitmix64(stream as u64))))
}

/// A uniform draw in `[0, 1)` with 53 random bits.
#[inline]
pub fn unit(seed: u64, entity: u64, epoch: u64, stream: Stream) -> f64 {
    (draw(seed, entity, epoch, stream) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An approximately standard-normal draw: the sum of four uniforms,
/// centred and scaled (Irwin–Hall with n = 4, sigma = sqrt(1/3)).
/// Plenty for log-normal shadowing at fleet fidelity, and four mixes
/// cheaper than a Box–Muller transcendental pair.
#[inline]
pub fn gauss(seed: u64, entity: u64, epoch: u64, stream: Stream) -> f64 {
    let d = draw(seed, entity, epoch, stream);
    // Four independent 16-bit lanes of one well-mixed draw.
    let sum = (d & 0xffff) + ((d >> 16) & 0xffff) + ((d >> 32) & 0xffff) + ((d >> 48) & 0xffff);
    let uniform_sum = sum as f64 / 65_536.0; // in [0, 4), mean 2, variance 1/3
    (uniform_sum - 2.0) * (3.0f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions() {
        assert_eq!(draw(7, 1, 2, Stream::Spawn), draw(7, 1, 2, Stream::Spawn));
        assert_ne!(draw(7, 1, 2, Stream::Spawn), draw(7, 1, 2, Stream::UeOutcome));
        assert_ne!(draw(7, 1, 2, Stream::Spawn), draw(8, 1, 2, Stream::Spawn));
        assert_ne!(draw(7, 1, 2, Stream::Spawn), draw(7, 1, 3, Stream::Spawn));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let u = unit(42, i, 0, Stream::UeOutcome);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} is far from 0.5");
    }

    #[test]
    fn gauss_is_roughly_standard() {
        let n = 10_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for i in 0..n {
            let g = gauss(42, i, 0, Stream::ShadowServing);
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
