//! (72,64) SECDED error control for the SDRAM controller.
//!
//! The MAP's external memory interface "performs SECDED error control"
//! (§2): single-error-correcting, double-error-detecting. This module
//! implements the classic Hsiao-style extended Hamming code over 64 data
//! bits with 8 check bits, plus a fault-injection API used by the tests
//! and the reliability ablation bench.

/// Number of data bits protected.
pub const DATA_BITS: u32 = 64;
/// Number of check bits (7 Hamming + 1 overall parity).
pub const CHECK_BITS: u32 = 8;

/// Outcome of decoding a (data, check) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error detected; payload is the stored data.
    Clean(u64),
    /// A single-bit error was corrected; payload is the corrected data and
    /// the flipped code-word position.
    Corrected {
        /// The repaired data word.
        data: u64,
        /// Code-word bit position that was flipped (1-based Hamming
        /// position; positions that are powers of two are check bits).
        position: u32,
    },
    /// An uncorrectable (double-bit) error was detected.
    DoubleError,
}

impl Decoded {
    /// The data word, if the read was usable.
    #[must_use]
    pub fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean(d) | Decoded::Corrected { data: d, .. } => Some(d),
            Decoded::DoubleError => None,
        }
    }
}

/// Hamming position (1-based) of data bit `i` — skipping power-of-two
/// positions, which hold check bits.
const fn data_position(i: u32) -> u32 {
    // Positions 1,2,4,8,... are check bits; data fills the rest in order.
    let mut pos: u32 = 0;
    let mut remaining = i + 1;
    while remaining > 0 {
        pos += 1;
        if !pos.is_power_of_two() {
            remaining -= 1;
        }
    }
    pos
}

/// Precomputed positions for the 64 data bits.
const POSITIONS: [u32; 64] = {
    let mut p = [0u32; 64];
    let mut i = 0;
    while i < 64 {
        p[i as usize] = data_position(i);
        i += 1;
    }
    p
};

/// `MASKS[k]`: the data bits whose Hamming position has bit `k` set.
/// The syndrome "XOR of the positions of set data bits" is then, per
/// syndrome bit, the parity of `data & MASKS[k]`. (Positions reach 72,
/// so 7 bits cover them.)
const MASKS: [u64; 7] = {
    let mut m = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let mut k = 0;
        while k < 7 {
            if (POSITIONS[i] >> k) & 1 == 1 {
                m[k] |= 1u64 << i;
            }
            k += 1;
        }
        i += 1;
    }
    m
};

/// Data-bit index for each Hamming position (255 = a check bit or out of
/// range) — the correction path's reverse lookup.
const POS_TO_DATA: [u8; 128] = {
    let mut t = [255u8; 128];
    let mut i = 0;
    while i < 64 {
        t[POSITIONS[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// The check bits of a word whose only set bit is data bit `i`: bit `k`
/// (k < 7) when `MASKS[k]` covers the bit, and the overall parity of the
/// data bit plus those check bits in bit 7.
const fn column(i: usize) -> u8 {
    let mut c = 0u8;
    let mut k = 0;
    while k < 7 {
        c |= (((MASKS[k] >> i) & 1) as u8) << k;
        k += 1;
    }
    let parity = (1 + c.count_ones()) & 1;
    c | ((parity as u8) << 7)
}

/// `ENCODE[b][v]`: the check bits of a word whose only set bits are the
/// value `v` in byte `b`. Every check bit is a parity of data bits, so the
/// code is linear: a word's check bits are the XOR of its eight bytes'
/// entries — eight lookups in place of nine popcounts, which the release
/// target has no instruction for.
const ENCODE: [[u8; 256]; 8] = {
    let mut t = [[0u8; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 1;
        while v < 256 {
            // `v` minus its lowest set bit, XOR that bit's column.
            let low = (v as u32).trailing_zeros() as usize;
            t[b][v] = t[b][v & (v - 1)] ^ column(8 * b + low);
            v += 1;
        }
        b += 1;
    }
    t
};

/// Compute the 8 check bits for a data word.
#[must_use]
#[inline]
pub fn encode(data: u64) -> u8 {
    let b = data.to_le_bytes();
    ENCODE[0][b[0] as usize]
        ^ ENCODE[1][b[1] as usize]
        ^ ENCODE[2][b[2] as usize]
        ^ ENCODE[3][b[3] as usize]
        ^ ENCODE[4][b[4] as usize]
        ^ ENCODE[5][b[5] as usize]
        ^ ENCODE[6][b[6] as usize]
        ^ ENCODE[7][b[7] as usize]
}

/// Decode a (data, check) pair, correcting single-bit errors.
#[must_use]
pub fn decode(data: u64, check: u8) -> Decoded {
    // Check bits recomputed from the received data, against the
    // received ones: every word read back unchanged stops here.
    let diff = encode(data) ^ check;
    if diff == 0 {
        return Decoded::Clean(data);
    }
    // The low seven bits of the difference are the Hamming syndrome (the
    // XOR of the flipped positions); its parity is the overall parity of
    // the received code word (data + 7 check bits + parity bit), odd after
    // an odd number of flips.
    let syndrome = u32::from(diff & 0x7F);
    let parity_err = diff.count_ones() & 1 == 1;

    if !parity_err {
        // Even number of flips with a non-zero syndrome: uncorrectable.
        return Decoded::DoubleError;
    }
    if syndrome == 0 {
        // The overall parity bit itself flipped; data is intact.
        return Decoded::Corrected {
            data,
            position: 128,
        };
    }
    // Single error at Hamming position `syndrome`.
    if syndrome.is_power_of_two() {
        // A check bit flipped; data is intact.
        return Decoded::Corrected {
            data,
            position: syndrome,
        };
    }
    // A data bit flipped: find which data index has this position.
    let i = POS_TO_DATA[syndrome as usize];
    if i != 255 {
        return Decoded::Corrected {
            data: data ^ (1u64 << i),
            position: syndrome,
        };
    }
    Decoded::DoubleError
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The popcount codec the tables replace, kept as the reference:
    /// one mask-and-popcount per syndrome bit, one more for the parity.
    mod reference {
        use super::super::{Decoded, MASKS, POS_TO_DATA};

        fn hamming_syndrome(data: u64) -> u32 {
            let mut s = 0;
            for (k, m) in MASKS.iter().enumerate() {
                s |= ((data & m).count_ones() & 1) << k;
            }
            s
        }

        pub fn encode(data: u64) -> u8 {
            #[allow(clippy::cast_possible_truncation)]
            let check = hamming_syndrome(data) as u8;
            let parity = (data.count_ones() + u32::from(check & 0x7F).count_ones()) & 1;
            #[allow(clippy::cast_possible_truncation)]
            {
                check | ((parity as u8) << 7)
            }
        }

        pub fn decode(data: u64, check: u8) -> Decoded {
            let syndrome = hamming_syndrome(data) ^ u32::from(check & 0x7F);
            let parity_err = (data.count_ones() + u32::from(check).count_ones()) & 1 == 1;
            match (syndrome, parity_err) {
                (0, false) => Decoded::Clean(data),
                (_, false) => Decoded::DoubleError,
                (0, true) => Decoded::Corrected {
                    data,
                    position: 128,
                },
                (s, true) if s.is_power_of_two() => Decoded::Corrected { data, position: s },
                (s, true) => match POS_TO_DATA[(s & 127) as usize] {
                    255 => Decoded::DoubleError,
                    i => Decoded::Corrected {
                        data: data ^ (1u64 << i),
                        position: s,
                    },
                },
            }
        }
    }

    /// Flip code-word bit `bit` of `(data, check)`: 0..64 are data bits,
    /// 64..72 the check bits.
    fn flip(data: u64, check: u8, bit: u32) -> (u64, u8) {
        if bit < 64 {
            (data ^ (1 << bit), check)
        } else {
            (data, check ^ (1 << (bit - 64)))
        }
    }

    /// The table codec against the popcount one on random words: equal
    /// check bits, the same answer for all 72 single-bit flips, and a
    /// double error from both for sampled double flips.
    #[test]
    fn tables_match_the_popcount_codec() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [0, u64::MAX, 1, 1 << 63, 0xFF, 0xFF << 56];
        for k in 0..2000 {
            let data = edges.get(k).copied().unwrap_or_else(&mut next);
            let check = encode(data);
            assert_eq!(check, reference::encode(data), "encode {data:#x}");
            assert_eq!(decode(data, check), Decoded::Clean(data));
            for bit in 0..72 {
                let (d, c) = flip(data, check, bit);
                assert_eq!(decode(d, c), reference::decode(d, c), "{data:#x} bit {bit}");
            }
            for _ in 0..8 {
                let r = next();
                #[allow(clippy::cast_possible_truncation)]
                let (a, b) = ((r % 72) as u32, ((r >> 8) % 71) as u32);
                let b = if b >= a { b + 1 } else { b };
                let (d, c) = flip(data, check, a);
                let (d, c) = flip(d, c, b);
                assert_eq!(decode(d, c), Decoded::DoubleError, "{data:#x} bits {a},{b}");
                assert_eq!(reference::decode(d, c), Decoded::DoubleError);
            }
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1 << 63] {
            let c = encode(data);
            assert_eq!(decode(data, c), Decoded::Clean(data));
        }
    }

    #[test]
    fn corrects_every_single_data_bit_flip() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let check = encode(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            match decode(corrupted, check) {
                Decoded::Corrected { data: fixed, .. } => assert_eq!(fixed, data),
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrects_check_bit_flips() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = encode(data);
        for bit in 0..8 {
            let bad_check = check ^ (1u8 << bit);
            match decode(data, bad_check) {
                Decoded::Corrected { data: fixed, .. } => assert_eq!(fixed, data),
                other => panic!("check bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_double_data_flips() {
        let data = 0x1111_2222_3333_4444u64;
        let check = encode(data);
        for (a, b) in [(0u32, 1u32), (5, 40), (62, 63), (10, 11), (0, 63)] {
            let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(
                decode(corrupted, check),
                Decoded::DoubleError,
                "bits {a},{b}"
            );
        }
    }

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean(5).data(), Some(5));
        assert_eq!(Decoded::DoubleError.data(), None);
    }
}
