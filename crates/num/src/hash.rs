//! FNV-1a 64: the workspace's one hash function.
//!
//! Every result digest (`--hash`, manifests, the campaign service's job
//! hashes, the fleet's per-train fold) and every checksum of an
//! on-disk artifact (checkpoints, queue journals) is FNV-1a 64 over a
//! canonical byte string, printed as `fnv1a64:<16 hex>`.
//!
//! The one other fold here, [`stream_label_hash`], names random
//! streams; it is not a digest.

/// The FNV-1a 64 offset basis: the state of an empty fold.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` starting from `state`, so a digest can be
/// built incrementally (start from [`FNV1A64_OFFSET`]).
pub fn fnv1a64_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV1A64_PRIME);
    }
    state
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_OFFSET, bytes)
}

/// The printed digest of `bytes`: `fnv1a64:<16 hex>`.
pub fn fnv1a64_digest(bytes: &[u8]) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(bytes))
}

/// The multiplier of [`stream_label_hash`]: `2^44 + 0x1b3`, where the
/// FNV prime is `2^40 + 0x1b3`.
const STREAM_LABEL_MULTIPLIER: u64 = 0x0000_1000_0000_01b3;

/// The key [`crate::rng::child_rng`] XORs into its parent seed to name
/// a child stream: an FNV-1a-shaped fold of `label` from the FNV offset
/// basis, but with the multiplier `0x1000_0000_01b3` (`2^44 + 0x1b3`)
/// in place of the FNV prime (`2^40 + 0x1b3`). It is therefore **not**
/// FNV-1a 64 and is never printed as a digest. It stays as it is because every random stream in the
/// workspace is seeded through it: another multiplier would move every
/// result digest.
pub fn stream_label_hash(label: &str) -> u64 {
    let mut h = FNV1A64_OFFSET;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(STREAM_LABEL_MULTIPLIER);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stream_label_hash_is_not_fnv1a() {
        // The empty label leaves the offset basis, like FNV-1a; any
        // byte then diverges through the multiplier.
        assert_eq!(stream_label_hash(""), FNV1A64_OFFSET);
        assert_eq!(
            stream_label_hash("a"),
            (FNV1A64_OFFSET ^ u64::from(b'a')).wrapping_mul(0x1000_0000_01b3)
        );
        assert_ne!(stream_label_hash("a"), fnv1a64(b"a"));
    }

    #[test]
    fn fold_is_incremental() {
        assert_eq!(fnv1a64_fold(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fnv1a64_digest(b"a"), "fnv1a64:af63dc4c8601ec8c");
    }
}
