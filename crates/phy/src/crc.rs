//! CRC-16 block integrity check.
//!
//! Transport blocks carry a CRC so the receiver can detect residual
//! decoding errors — this is what turns bit errors into the *block*
//! error rate (BLER) the paper reports (Fig 2b, Fig 10). We use the
//! CCITT polynomial `x^16 + x^12 + x^5 + 1` (0x1021), init 0xFFFF,
//! matching the LTE-style 16-bit transport block CRC length.

/// Computes the CRC-16/CCITT-FALSE over a bit sequence (MSB-first per
/// conceptual byte; we operate directly on bits).
fn crc16(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bits {
        let top = (crc >> 15) & 1 == 1;
        crc <<= 1;
        if top ^ b {
            crc ^= 0x1021;
        }
    }
    crc
}

/// Appends the 16 CRC bits (MSB first) to a payload.
pub fn attach_crc(payload: &[bool]) -> Vec<bool> {
    let crc = crc16(payload);
    let mut out = payload.to_vec();
    for i in (0..16).rev() {
        out.push((crc >> i) & 1 == 1);
    }
    out
}

/// Checks and strips the CRC; returns the payload on success.
pub fn check_crc(block: &[bool]) -> Option<Vec<bool>> {
    if block.len() < 16 {
        return None;
    }
    let (payload, tail) = block.split_at(block.len() - 16);
    let crc = crc16(payload);
    let ok = (0..16).rev().zip(tail).all(|(i, &b)| ((crc >> i) & 1 == 1) == b);
    ok.then(|| payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rem_num::rng::rng_from_seed;

    fn bits_of_str(s: &str) -> Vec<bool> {
        s.bytes().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1)).collect()
    }

    #[test]
    fn known_vector_123456789() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(&bits_of_str("123456789")), 0x29B1);
    }

    #[test]
    fn attach_then_check_round_trips() {
        let mut rng = rng_from_seed(1);
        for len in [0usize, 1, 7, 64, 321] {
            let payload: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
            let block = attach_crc(&payload);
            assert_eq!(block.len(), len + 16);
            assert_eq!(check_crc(&block), Some(payload));
        }
    }

    #[test]
    fn single_bit_flip_detected() {
        let mut rng = rng_from_seed(2);
        let payload: Vec<bool> = (0..100).map(|_| rng.gen()).collect();
        let block = attach_crc(&payload);
        for i in 0..block.len() {
            let mut corrupted = block.clone();
            corrupted[i] = !corrupted[i];
            assert!(check_crc(&corrupted).is_none(), "missed flip at {i}");
        }
    }

    #[test]
    fn burst_errors_detected() {
        let mut rng = rng_from_seed(3);
        let payload: Vec<bool> = (0..200).map(|_| rng.gen()).collect();
        let block = attach_crc(&payload);
        // All bursts up to 16 bits are caught by a 16-bit CRC.
        for start in [0usize, 17, 100] {
            for blen in 2..=16usize {
                let mut c = block.clone();
                for b in c[start..start + blen].iter_mut() {
                    *b = !*b;
                }
                assert!(check_crc(&c).is_none(), "missed burst {start}+{blen}");
            }
        }
    }

    #[test]
    fn too_short_rejected() {
        assert!(check_crc(&[true; 15]).is_none());
    }
}
