//! The 64-bit tagged machine word.
//!
//! Every M-Machine word carries, besides its 64 data bits, a hardware
//! **pointer tag** distinguishing guarded pointers from raw data (§2).
//! A separate **synchronization bit** is associated with each word *of
//! memory*; that bit belongs to the memory system, not to the register
//! value, so it lives in `mm-mem`, not here.

use crate::pointer::GuardedPointer;
use mm_faults::ckpt_struct;
use std::fmt;

/// A 64-bit word plus the pointer tag bit.
///
/// # Examples
///
/// ```
/// use mm_isa::word::Word;
/// use mm_isa::pointer::{GuardedPointer, Perm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Word::from_u64(42);
/// assert!(!w.is_pointer());
/// assert_eq!(w.as_i64(), 42);
///
/// let p = Word::from_pointer(GuardedPointer::new(Perm::Read, 3, 0x80)?);
/// assert!(p.is_pointer());
/// assert_eq!(p.pointer()?.addr(), 0x80);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Word {
    bits: u64,
    tag: bool,
}

// Checkpoint format: the data bits, then the pointer tag.
ckpt_struct! { Word { bits, tag } }

impl Word {
    /// The all-zero, untagged word.
    pub const ZERO: Word = Word {
        bits: 0,
        tag: false,
    };

    /// An untagged word from raw bits.
    #[must_use]
    pub fn from_u64(bits: u64) -> Word {
        Word { bits, tag: false }
    }

    /// An untagged word from a signed integer.
    #[must_use]
    pub fn from_i64(v: i64) -> Word {
        #[allow(clippy::cast_sign_loss)]
        Word {
            bits: v as u64,
            tag: false,
        }
    }

    /// An untagged word holding an IEEE-754 double.
    #[must_use]
    pub fn from_f64(v: f64) -> Word {
        Word {
            bits: v.to_bits(),
            tag: false,
        }
    }

    /// A tagged word holding a guarded pointer.
    #[must_use]
    pub fn from_pointer(p: GuardedPointer) -> Word {
        Word {
            bits: p.to_bits(),
            tag: true,
        }
    }

    /// A word holding a boolean (1 or 0, untagged).
    #[must_use]
    pub fn from_bool(b: bool) -> Word {
        Word {
            bits: u64::from(b),
            tag: false,
        }
    }

    /// Reconstruct from raw parts (used by memory serialization).
    #[must_use]
    pub fn from_raw(bits: u64, tag: bool) -> Word {
        Word { bits, tag }
    }

    /// The 64 data bits.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The data bits viewed as a signed integer.
    #[must_use]
    pub fn as_i64(self) -> i64 {
        #[allow(clippy::cast_possible_wrap)]
        {
            self.bits as i64
        }
    }

    /// The data bits viewed as an IEEE-754 double.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.bits)
    }

    /// Is the word non-zero? (Branch predicates use this.)
    #[must_use]
    pub fn is_true(self) -> bool {
        self.bits != 0
    }

    /// Is the pointer tag set?
    #[must_use]
    pub fn is_pointer(self) -> bool {
        self.tag
    }

    /// Decode the word as a guarded pointer.
    ///
    /// # Errors
    ///
    /// [`crate::error::PointerError::NotAPointer`] if the tag is clear.
    pub fn pointer(self) -> Result<GuardedPointer, crate::error::PointerError> {
        if self.tag {
            Ok(GuardedPointer::from_bits(self.bits))
        } else {
            Err(crate::error::PointerError::NotAPointer)
        }
    }

    /// The same bits with the pointer tag cleared (integer ops on pointers
    /// strip the tag: the result is plain data, so capabilities cannot be
    /// forged by arithmetic).
    #[must_use]
    pub fn untagged(self) -> Word {
        Word {
            bits: self.bits,
            tag: false,
        }
    }
}

impl From<u64> for Word {
    fn from(v: u64) -> Word {
        Word::from_u64(v)
    }
}

impl From<i64> for Word {
    fn from(v: i64) -> Word {
        Word::from_i64(v)
    }
}

impl From<f64> for Word {
    fn from(v: f64) -> Word {
        Word::from_f64(v)
    }
}

impl From<GuardedPointer> for Word {
    fn from(p: GuardedPointer) -> Word {
        Word::from_pointer(p)
    }
}

impl fmt::Display for Word {
    /// Pointers render as `<perm:addr+2^len>`, data as hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tag {
            write!(f, "{}", GuardedPointer::from_bits(self.bits))
        } else {
            write!(f, "{:#x}", self.bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointer::Perm;

    #[test]
    fn integer_round_trip() {
        assert_eq!(Word::from_i64(-5).as_i64(), -5);
        assert_eq!(Word::from_u64(u64::MAX).bits(), u64::MAX);
        assert_eq!(Word::from_i64(-5).bits(), (-5i64) as u64);
    }

    #[test]
    fn float_round_trip() {
        let w = Word::from_f64(3.5);
        assert!((w.as_f64() - 3.5).abs() < f64::EPSILON);
        assert!(!w.is_pointer());
    }

    #[test]
    fn pointer_tagging() {
        let p = GuardedPointer::new(Perm::ReadWrite, 5, 0x400).unwrap();
        let w = Word::from_pointer(p);
        assert!(w.is_pointer());
        assert_eq!(w.pointer().unwrap(), p);
        assert!(!w.untagged().is_pointer());
        assert_eq!(w.untagged().bits(), p.to_bits());
    }

    #[test]
    fn data_is_not_pointer() {
        assert!(Word::from_u64(7).pointer().is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Word::from_u64(1).is_true());
        assert!(!Word::ZERO.is_true());
        assert!(Word::from_i64(-1).is_true());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Word::default(), Word::ZERO);
    }

    #[test]
    fn conversions() {
        let _: Word = 5u64.into();
        let _: Word = (-5i64).into();
        let _: Word = 2.5f64.into();
        let p = GuardedPointer::new(Perm::Read, 0, 0).unwrap();
        let w: Word = p.into();
        assert!(w.is_pointer());
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Word::from_u64(255)), "0xff");
        let p = GuardedPointer::new(Perm::Read, 0, 16).unwrap();
        assert!(format!("{}", Word::from_pointer(p)).contains("0x10"));
    }
}
