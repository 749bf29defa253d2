//! [`Memo`]: recent answers of a node's index lookups, kept inline
//! beside the structure that owns the index.
//!
//! The cache's slot table, the SDRAM's page table and the LTLB's vpn
//! index each live in a heap block of their own, so on a mesh too large
//! for the host cache every lookup is a miss behind the owner's header —
//! yet a busy node asks about the same few lines, pages and vpns window
//! after window. The owner keeps recent answers here, in its own header
//! lines, and consults the index only for a key it has not seen lately.
//! The memo is direct-mapped on the key's low bits, so a lookup is one
//! compare whether it hits or not. Answers are exact: an owner forgets a
//! key whenever the index entry behind it changes.

/// The position a table entry names: the cache's slot table, the
/// SDRAM's page table, the LTLB's index and their memos hold the
/// position plus one, and 0 for none.
pub(crate) fn position(entry: u32) -> Option<usize> {
    entry.checked_sub(1).map(|p| p as usize)
}

/// Up to `N` remembered `key → value` answers, one per value of
/// `key % N` (`N` a power of two, at least 2).
#[derive(Debug, Clone)]
pub(crate) struct Memo<const N: usize> {
    keys: [u64; N],
    values: [u32; N],
}

impl<const N: usize> Memo<N> {
    /// Keys that can never be asked for in their entries: entry `i`
    /// holds `i ^ 1`, whose own entry is `i ^ 1`.
    const VACANT: [u64; N] = {
        assert!(N >= 2 && N.is_power_of_two());
        let mut keys = [0; N];
        let mut i = 0;
        while i < N {
            keys[i] = (i ^ 1) as u64;
            i += 1;
        }
        keys
    };

    /// A memo holding nothing.
    pub(crate) const fn new() -> Memo<N> {
        Memo {
            keys: Self::VACANT,
            values: [0; N],
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn entry(key: u64) -> usize {
        key as usize & (N - 1)
    }

    /// The remembered answer for `key`.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let i = Self::entry(key);
        (self.keys[i] == key).then(|| self.values[i])
    }

    /// The remembered answer for `key`, or `lookup`'s, which is then
    /// remembered.
    #[inline]
    pub(crate) fn remember(&mut self, key: u64, lookup: impl FnOnce() -> u32) -> u32 {
        self.get(key).unwrap_or_else(|| {
            let value = lookup();
            self.put(key, value);
            value
        })
    }

    /// Remember `key → value`, replacing the answer it shares an entry
    /// with.
    #[inline]
    pub(crate) fn put(&mut self, key: u64, value: u32) {
        let i = Self::entry(key);
        self.keys[i] = key;
        self.values[i] = value;
    }

    /// Forget every answer.
    pub(crate) fn clear(&mut self) {
        self.keys = Self::VACANT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_one_answer_per_entry() {
        let mut m: Memo<2> = Memo::new();
        assert_eq!(
            (m.get(0), m.get(1)),
            (None, None),
            "vacant entries match nothing"
        );
        m.put(4, 40);
        m.put(7, 70);
        assert_eq!((m.get(4), m.get(7), m.get(6)), (Some(40), Some(70), None));
        m.put(6, 60); // shares 4's entry
        assert_eq!((m.get(4), m.get(6), m.get(7)), (None, Some(60), Some(70)));
        assert_eq!(m.remember(8, || 80), 80);
        assert_eq!(m.remember(8, || unreachable!("remembered")), 80);
        m.clear();
        assert_eq!((m.get(7), m.get(8)), (None, None));
    }
}
