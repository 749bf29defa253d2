//! The Local Page Table: a software-managed hash table in local DRAM.
//!
//! The LTLB "caches local page table (LPT) entries" (§2); on a miss, a
//! software handler walks this table, installs the entry, and restarts the
//! reference (§3.3). The table lives in *physical* memory so the handler
//! can reach it without translation.
//!
//! ## Layout
//!
//! `slots` (a power of two) entries of 4 words each, starting at `base`:
//!
//! | word | contents |
//! |------|----------|
//! | 0    | bit 63 = valid, bits 53:0 = vpn |
//! | 1    | ppn |
//! | 2    | block status bits for blocks 0..32 |
//! | 3    | block status bits for blocks 32..64 |
//!
//! The probe sequence is `slot = vpn & (slots-1)`, then linear probing —
//! simple enough for the assembly-language miss handler to replicate
//! (see `mm-runtime`).

use crate::dram::{MemWord, Sdram};
use crate::ltlb::LtlbEntry;
use mm_faults::ckpt_struct;
use mm_isa::word::Word;

/// Words per LPT entry.
pub const ENTRY_WORDS: u64 = 4;
/// Bit 63 of word 0 marks a slot valid.
pub const VALID_BIT: u64 = 1 << 63;

/// A view of the LPT resident at `base` in a node's physical memory.
///
/// All accesses are zero-time backdoors: the *hardware* paths that consult
/// the LPT (LTLB refill via `tlbwr`, eviction write-back) are charged by
/// the memory system, and the *software* path (the miss handler) performs
/// real timed loads of these same words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lpt {
    /// Physical word address of slot 0.
    pub base: u64,
    /// Number of slots (power of two).
    pub slots: u64,
}

ckpt_struct! { Lpt { base, slots } }

impl Lpt {
    /// Define a table at `base` with `slots` entries.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a non-zero power of two.
    #[must_use]
    pub fn new(base: u64, slots: u64) -> Lpt {
        assert!(slots.is_power_of_two(), "LPT slots must be a power of two");
        Lpt { base, slots }
    }

    /// Total words occupied by the table.
    #[must_use]
    pub fn size_words(self) -> u64 {
        self.slots * ENTRY_WORDS
    }

    /// Physical address of slot `i`.
    #[must_use]
    pub fn slot_addr(self, i: u64) -> u64 {
        self.base + (i % self.slots) * ENTRY_WORDS
    }

    /// The initial probe slot for `vpn`.
    #[must_use]
    pub fn home_slot(self, vpn: u64) -> u64 {
        vpn & (self.slots - 1)
    }

    /// Insert or update the mapping for `entry.vpn`.
    ///
    /// Returns the physical address of the written slot, or `None` if the
    /// table is full.
    pub fn insert(self, mem: &mut Sdram, entry: &LtlbEntry) -> Option<u64> {
        let start = self.home_slot(entry.vpn);
        for k in 0..self.slots {
            let addr = self.slot_addr(start + k);
            let w0 = mem.peek(addr).word.bits();
            let occupied = w0 & VALID_BIT != 0;
            if !occupied || (w0 & !VALID_BIT) == entry.vpn {
                Self::store(mem, addr, entry);
                return Some(addr);
            }
        }
        None
    }

    /// Find the slot holding `vpn`, returning its physical address.
    #[must_use]
    pub fn find(self, mem: &Sdram, vpn: u64) -> Option<u64> {
        let start = self.home_slot(vpn);
        for k in 0..self.slots {
            let addr = self.slot_addr(start + k);
            let w0 = mem.peek(addr).word.bits();
            if w0 & VALID_BIT == 0 {
                return None; // linear probing stops at the first hole
            }
            if w0 & !VALID_BIT == vpn {
                return Some(addr);
            }
        }
        None
    }

    /// Read the entry stored at slot address `addr` (as `tlbwr` does).
    #[must_use]
    pub fn read_entry(self, mem: &Sdram, addr: u64) -> Option<LtlbEntry> {
        let mut w = [0; ENTRY_WORDS as usize];
        let _ = mem.peek_run(addr, &mut w);
        if w[0] & VALID_BIT == 0 {
            return None;
        }
        Some(LtlbEntry {
            vpn: w[0] & !VALID_BIT,
            ppn: w[1],
            status_lo: w[2],
            status_hi: w[3],
            lpt_addr: addr,
        })
    }

    /// Look up `vpn` and decode its entry in one step.
    #[must_use]
    pub fn lookup(self, mem: &Sdram, vpn: u64) -> Option<LtlbEntry> {
        self.find(mem, vpn).and_then(|a| self.read_entry(mem, a))
    }

    /// Write an (evicted, possibly dirtied) LTLB entry back to its slot.
    pub fn write_back(self, mem: &mut Sdram, entry: &LtlbEntry) {
        Self::store(mem, entry.lpt_addr, entry);
    }

    /// Write `entry`'s four words at slot address `addr`: untagged, empty
    /// words in one zero-time store.
    fn store(mem: &mut Sdram, addr: u64, entry: &LtlbEntry) {
        let words = [
            VALID_BIT | entry.vpn,
            entry.ppn,
            entry.status_lo,
            entry.status_hi,
        ];
        mem.poke_run(addr, &words, 0, 0);
    }

    /// Remove the mapping for `vpn`. Returns `true` if present.
    ///
    /// (Removal leaves a tombstone-free table by re-inserting the probe
    /// chain after the hole, preserving linear-probe reachability.)
    pub fn remove(self, mem: &mut Sdram, vpn: u64) -> bool {
        let Some(addr) = self.find(mem, vpn) else {
            return false;
        };
        mem.poke(addr, MemWord::new(Word::ZERO));
        // Re-insert everything in the chain following the hole.
        let hole_slot = (addr - self.base) / ENTRY_WORDS;
        let mut k = hole_slot + 1;
        loop {
            let a = self.slot_addr(k);
            let w0 = mem.peek(a).word.bits();
            if w0 & VALID_BIT == 0 {
                break;
            }
            if let Some(entry) = self.read_entry(mem, a) {
                mem.poke(a, MemWord::new(Word::ZERO));
                let _ = self.insert(mem, &entry);
            }
            k += 1;
            if k % self.slots == hole_slot {
                break;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::SdramConfig;
    use crate::ltlb::BlockStatus;

    fn mem() -> Sdram {
        Sdram::new(SdramConfig {
            capacity_words: 8192,
            ..SdramConfig::default()
        })
    }

    fn entry(vpn: u64, ppn: u64) -> LtlbEntry {
        LtlbEntry::uniform(vpn, ppn, BlockStatus::ReadWrite, 0)
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 16);
        let addr = lpt.insert(&mut m, &entry(5, 9)).unwrap();
        assert_eq!(addr, lpt.slot_addr(5));
        let e = lpt.lookup(&m, 5).unwrap();
        assert_eq!(e.ppn, 9);
        assert_eq!(e.lpt_addr, addr);
        assert!(lpt.lookup(&m, 6).is_none());
    }

    #[test]
    fn linear_probe_on_collision() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 16);
        // vpns 3 and 19 collide (both hash to slot 3).
        lpt.insert(&mut m, &entry(3, 1)).unwrap();
        let second = lpt.insert(&mut m, &entry(19, 2)).unwrap();
        assert_eq!(second, lpt.slot_addr(4));
        assert_eq!(lpt.lookup(&m, 3).unwrap().ppn, 1);
        assert_eq!(lpt.lookup(&m, 19).unwrap().ppn, 2);
    }

    #[test]
    fn update_in_place() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 16);
        lpt.insert(&mut m, &entry(3, 1)).unwrap();
        lpt.insert(&mut m, &entry(3, 7)).unwrap();
        assert_eq!(lpt.lookup(&m, 3).unwrap().ppn, 7);
    }

    #[test]
    fn full_table_rejects() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 2);
        assert!(lpt.insert(&mut m, &entry(0, 0)).is_some());
        assert!(lpt.insert(&mut m, &entry(1, 1)).is_some());
        assert!(lpt.insert(&mut m, &entry(2, 2)).is_none());
    }

    #[test]
    fn write_back_persists_status() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 16);
        let addr = lpt.insert(&mut m, &entry(3, 1)).unwrap();
        let mut e = lpt.read_entry(&m, addr).unwrap();
        e.set_block_status(7, BlockStatus::Dirty);
        lpt.write_back(&mut m, &e);
        assert_eq!(
            lpt.lookup(&m, 3).unwrap().block_status(7),
            BlockStatus::Dirty
        );
    }

    #[test]
    fn remove_repairs_probe_chain() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 16);
        lpt.insert(&mut m, &entry(3, 1)).unwrap();
        lpt.insert(&mut m, &entry(19, 2)).unwrap(); // probes to slot 4
        assert!(lpt.remove(&mut m, 3));
        // 19 must still be reachable after the hole is repaired.
        assert_eq!(lpt.lookup(&m, 19).unwrap().ppn, 2);
        assert!(!lpt.remove(&mut m, 3));
    }

    #[test]
    fn wraps_around_table_end() {
        let mut m = mem();
        let lpt = Lpt::new(1024, 4);
        lpt.insert(&mut m, &entry(3, 1)).unwrap(); // slot 3 (last)
        lpt.insert(&mut m, &entry(7, 2)).unwrap(); // collides, wraps to 0
        assert_eq!(lpt.lookup(&m, 7).unwrap().ppn, 2);
        assert_eq!(lpt.find(&m, 7).unwrap(), lpt.slot_addr(0));
    }
}
