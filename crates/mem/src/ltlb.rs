//! The Local Translation Lookaside Buffer and per-block status bits.
//!
//! The LTLB caches local page table (LPT) entries; pages are 512 words
//! (64 blocks of 8 words) (§2). "In addition to the virtual to physical
//! mapping, each LTLB (and LPT) entry contains 2 status bits for each
//! cache block in the page", providing the fine-grained INVALID /
//! READ-ONLY / READ/WRITE / DIRTY states that let local DRAM cache remote
//! data (§4.3).

use crate::memo::{position, Memo};
use mm_faults::{ckpt_enum, ckpt_struct, Ckpt, CkptError, Dec, Enc};

/// Words per local page.
pub const PAGE_WORDS: u64 = 512;
/// 8-word blocks per page.
pub const BLOCKS_PER_PAGE: u64 = 64;
/// Words per block (= cache line).
pub const BLOCK_WORDS: u64 = 8;

/// The four block states encoded by the two status bits (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum BlockStatus {
    /// "The block may not be read, written, or placed in the hardware cache."
    Invalid = 0,
    /// "The block may be read, but not written."
    ReadOnly = 1,
    /// "The block may be read or written."
    ReadWrite = 2,
    /// "The block may be read or written, and it has been written since
    /// being copied to the local node."
    Dirty = 3,
}

impl BlockStatus {
    /// Decode from two bits.
    #[must_use]
    pub fn from_bits(bits: u8) -> BlockStatus {
        match bits & 0b11 {
            0 => BlockStatus::Invalid,
            1 => BlockStatus::ReadOnly,
            2 => BlockStatus::ReadWrite,
            _ => BlockStatus::Dirty,
        }
    }

    /// The two-bit encoding.
    #[must_use]
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// May the block be read?
    #[must_use]
    pub fn readable(self) -> bool {
        self != BlockStatus::Invalid
    }

    /// May the block be written?
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self, BlockStatus::ReadWrite | BlockStatus::Dirty)
    }
}

/// One LTLB entry: a virtual→physical page mapping plus 64 × 2 status
/// bits, packed exactly as the 4-word in-memory LPT entry (see
/// [`crate::lpt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtlbEntry {
    /// Virtual page number (`va / 512`).
    pub vpn: u64,
    /// Physical page number.
    pub ppn: u64,
    /// Status bits for blocks 0..32 (2 bits each, block 0 in bits 1:0).
    pub status_lo: u64,
    /// Status bits for blocks 32..64.
    pub status_hi: u64,
    /// Physical word address of this entry's LPT slot, for write-back of
    /// modified status bits on eviction.
    pub lpt_addr: u64,
}

impl LtlbEntry {
    /// An entry with every block in the given state.
    #[must_use]
    pub fn uniform(vpn: u64, ppn: u64, status: BlockStatus, lpt_addr: u64) -> LtlbEntry {
        let two = u64::from(status.bits());
        let mut packed = 0u64;
        for b in 0..32 {
            packed |= two << (2 * b);
        }
        LtlbEntry {
            vpn,
            ppn,
            status_lo: packed,
            status_hi: packed,
            lpt_addr,
        }
    }

    /// Status of block `block` (0..64).
    ///
    /// # Panics
    ///
    /// Panics if `block >= 64`.
    #[must_use]
    pub fn block_status(&self, block: u64) -> BlockStatus {
        assert!(block < BLOCKS_PER_PAGE);
        let (word, idx) = if block < 32 {
            (self.status_lo, block)
        } else {
            (self.status_hi, block - 32)
        };
        #[allow(clippy::cast_possible_truncation)]
        BlockStatus::from_bits(((word >> (2 * idx)) & 0b11) as u8)
    }

    /// Set the status of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= 64`.
    pub fn set_block_status(&mut self, block: u64, status: BlockStatus) {
        assert!(block < BLOCKS_PER_PAGE);
        let two = u64::from(status.bits());
        let (word, idx) = if block < 32 {
            (&mut self.status_lo, block)
        } else {
            (&mut self.status_hi, block - 32)
        };
        *word = (*word & !(0b11 << (2 * idx))) | (two << (2 * idx));
    }

    /// Status of the block containing page-offset word `offset` (0..512).
    #[must_use]
    pub fn status_for_offset(&self, offset: u64) -> BlockStatus {
        self.block_status(offset / BLOCK_WORDS)
    }

    /// Physical address of page-offset word `offset`.
    #[must_use]
    pub fn translate(&self, offset: u64) -> u64 {
        self.ppn * PAGE_WORDS + offset
    }
}

/// Statistics for the LTLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LtlbStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

ckpt_enum!(BlockStatus, "block status" { 0 => Invalid, 1 => ReadOnly, 2 => ReadWrite, 3 => Dirty });

ckpt_struct! {
    LtlbEntry { vpn, ppn, status_lo, status_hi, lpt_addr }
    LtlbStats { hits, misses, evictions }
}

/// The fully-associative LTLB with LRU replacement.
///
/// A `vpn → slot` index backs every lookup: the cycle kernel consults
/// the LTLB on each miss-path translation *and* on each store's
/// dirty-bit update, so the old linear scan over all entries (2.5 KB
/// touched per probe at the default capacity) was one of the hottest
/// loops in the whole simulator. The index is an open-addressed table
/// over the fixed slots, sized once at construction and hashed with a
/// fixed multiplier, so a lookup allocates nothing and probes the same
/// buckets on every run.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Ltlb {
    /// Recent index answers (`slot + 1`, 0 = not resident), for the
    /// page a node's stores keep dirty-marking and the one its misses
    /// keep missing; forgotten whenever the index changes.
    memo: Memo<4>,
    entries: Vec<Option<LtlbEntry>>,
    /// Resident vpn → slot: bucket `h` holds `slot + 1` (0 = empty),
    /// linear probing from [`Ltlb::home`], backward-shift deletion, at
    /// most half full. A bucket's key is its slot's `vpn`.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the home bucket is the top bits of the
    /// multiplicative hash.
    shift: u32,
    clock: u64,
    stats: LtlbStats,
    /// LRU stamps, read only by insertions.
    last_use: Vec<u64>,
}

impl Ltlb {
    /// Can [`Ltlb::new`] build an LTLB of `capacity` entries? It needs
    /// at least one.
    ///
    /// # Errors
    ///
    /// Why it cannot.
    pub fn validate_capacity(capacity: usize) -> Result<(), String> {
        if capacity > 0 {
            Ok(())
        } else {
            Err("LTLB needs at least one entry (ltlb_entries = 0)".into())
        }
    }

    /// An empty LTLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero ([`Ltlb::validate_capacity`]).
    // analyze: cold (constructor: the slots, stamps and index, once per node)
    #[must_use]
    pub fn new(capacity: usize) -> Ltlb {
        if let Err(e) = Ltlb::validate_capacity(capacity) {
            panic!("{e}");
        }
        let buckets = (2 * capacity).next_power_of_two();
        Ltlb {
            memo: Memo::new(),
            entries: vec![None; capacity],
            index: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
            clock: 0,
            stats: LtlbStats::default(),
            last_use: vec![0; capacity],
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> LtlbStats {
        self.stats
    }

    /// `vpn`'s home bucket: Fibonacci hashing, a fixed odd multiplier
    /// and the product's top bits, so every run probes alike.
    fn home(&self, vpn: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
        }
    }

    /// The bucket holding `vpn`, or the empty bucket its probe ends at.
    fn bucket(&self, vpn: u64) -> (usize, Option<usize>) {
        let mask = self.index.len() - 1;
        let mut h = self.home(vpn);
        loop {
            let Some(slot) = position(self.index[h]) else {
                return (h, None);
            };
            if self.entries[slot].is_some_and(|e| e.vpn == vpn) {
                return (h, Some(slot));
            }
            h = (h + 1) & mask;
        }
    }

    /// The slot `vpn` is resident in.
    fn find(&self, vpn: u64) -> Option<usize> {
        match self.memo.get(vpn) {
            Some(code) => position(code),
            None => self.bucket(vpn).1,
        }
    }

    /// [`Ltlb::find`], remembering the answer.
    fn locate(&mut self, vpn: u64) -> Option<usize> {
        if let Some(code) = self.memo.get(vpn) {
            return position(code);
        }
        let slot = self.bucket(vpn).1;
        #[allow(clippy::cast_possible_truncation)]
        self.memo.put(vpn, slot.map_or(0, |s| s as u32 + 1));
        slot
    }

    /// Point `vpn`'s bucket at `slot`, adding the bucket if `vpn` has
    /// none. `entries[slot]` must already hold `vpn`.
    fn index_insert(&mut self, vpn: u64, slot: usize) {
        self.memo.clear();
        let (h, _) = self.bucket(vpn);
        self.index[h] = u32::try_from(slot + 1).expect("LTLB slots fit u32");
    }

    /// Drop `vpn`'s bucket, if any, shifting later buckets of its probe
    /// run back so no lookup stops short. Must run while the slot still
    /// holds `vpn`.
    fn index_remove(&mut self, vpn: u64) {
        self.memo.clear();
        let mask = self.index.len() - 1;
        let (mut hole, Some(_)) = self.bucket(vpn) else {
            return;
        };
        let mut h = hole;
        loop {
            h = (h + 1) & mask;
            let Some(slot) = position(self.index[h]) else {
                break;
            };
            let home = self.home(self.entries[slot].map_or(0, |e| e.vpn));
            // The bucket may fill the hole unless its home lies
            // cyclically in `(hole, h]`.
            if (h.wrapping_sub(home) & mask) >= (h.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[h];
                hole = h;
            }
        }
        self.index[hole] = 0;
    }

    /// Look up a virtual page number, updating LRU state and counters.
    pub fn lookup(&mut self, vpn: u64) -> Option<&mut LtlbEntry> {
        self.clock += 1;
        if let Some(i) = self.locate(vpn) {
            self.stats.hits += 1;
            self.last_use[i] = self.clock;
            return self.entries[i].as_mut();
        }
        self.stats.misses += 1;
        None
    }

    /// Mutable access without touching LRU state or counters (firmware
    /// coherence updates, dirty-bit marking).
    pub fn find_mut(&mut self, vpn: u64) -> Option<&mut LtlbEntry> {
        let i = self.locate(vpn)?;
        self.entries[i].as_mut()
    }

    /// Peek without touching LRU state or counters.
    #[must_use]
    pub fn probe(&self, vpn: u64) -> Option<&LtlbEntry> {
        let i = self.find(vpn)?;
        self.entries[i].as_ref()
    }

    /// Insert an entry, replacing any existing mapping for the same vpn,
    /// otherwise evicting the LRU victim. The evicted entry is returned so
    /// the memory system can write its (possibly dirtied) status bits back
    /// to the LPT.
    pub fn insert(&mut self, entry: LtlbEntry) -> Option<LtlbEntry> {
        self.clock += 1;
        // Same-vpn replacement.
        if let Some(i) = self.find(entry.vpn) {
            let old = self.entries[i].replace(entry);
            self.last_use[i] = self.clock;
            return old;
        }
        // Free slot.
        if let Some(i) = self.entries.iter().position(Option::is_none) {
            self.entries[i] = Some(entry);
            self.index_insert(entry.vpn, i);
            self.last_use[i] = self.clock;
            return None;
        }
        // LRU eviction.
        let victim = self
            .last_use
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("non-empty LTLB");
        self.stats.evictions += 1;
        if let Some(e) = self.entries[victim] {
            self.index_remove(e.vpn);
        }
        let old = self.entries[victim].replace(entry);
        self.index_insert(entry.vpn, victim);
        self.last_use[victim] = self.clock;
        old
    }

    /// Drop the mapping for `vpn`, returning it (for LPT write-back).
    pub fn invalidate(&mut self, vpn: u64) -> Option<LtlbEntry> {
        let i = self.find(vpn)?;
        self.index_remove(vpn);
        self.entries[i].take()
    }

    /// Iterate over resident entries.
    pub fn iter(&self) -> impl Iterator<Item = &LtlbEntry> {
        self.entries.iter().flatten()
    }

    /// Serialize slots (position-preserving, so LRU victim selection is
    /// unchanged after restore), LRU clocks and statistics into a
    /// checkpoint stream. The `vpn → slot` index is not written — it is
    /// a pure function of the slots and is rebuilt on load.
    pub fn save_state(&self, e: &mut Enc) {
        e.usize(self.entries.len());
        for (entry, last_use) in self.entries.iter().zip(&self.last_use) {
            entry.save(e);
            last_use.save(e);
        }
        self.clock.save(e);
        self.stats.save(e);
    }

    /// Restore state saved by [`Ltlb::save_state`], rebuilding the
    /// lookup index from the slots.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input or a capacity mismatch.
    // analyze: cold (checkpoint codec: reads the slots into a list)
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let slots = Vec::<(Option<LtlbEntry>, u64)>::load(d)?;
        if slots.len() != self.entries.len() {
            return Err(CkptError(format!(
                "LTLB capacity mismatch: checkpoint has {}, TLB has {}",
                slots.len(),
                self.entries.len()
            )));
        }
        self.memo.clear();
        self.index.fill(0);
        self.entries.fill(None);
        for (i, (en, last_use)) in slots.into_iter().enumerate() {
            self.entries[i] = en;
            self.last_use[i] = last_use;
            // A vpn in two slots (only a hand-made checkpoint has one)
            // resolves to the later slot.
            if let Some(en) = en {
                self.index_insert(en.vpn, i);
            }
        }
        self.clock = d.u64()?;
        self.stats = LtlbStats::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_status_bits_round_trip() {
        for s in [
            BlockStatus::Invalid,
            BlockStatus::ReadOnly,
            BlockStatus::ReadWrite,
            BlockStatus::Dirty,
        ] {
            assert_eq!(BlockStatus::from_bits(s.bits()), s);
        }
    }

    #[test]
    fn permissions() {
        assert!(!BlockStatus::Invalid.readable());
        assert!(BlockStatus::ReadOnly.readable());
        assert!(!BlockStatus::ReadOnly.writable());
        assert!(BlockStatus::ReadWrite.writable());
        assert!(BlockStatus::Dirty.writable());
    }

    #[test]
    fn entry_status_accessors() {
        let mut e = LtlbEntry::uniform(1, 2, BlockStatus::ReadWrite, 0);
        assert_eq!(e.block_status(0), BlockStatus::ReadWrite);
        assert_eq!(e.block_status(63), BlockStatus::ReadWrite);
        e.set_block_status(0, BlockStatus::Invalid);
        e.set_block_status(33, BlockStatus::Dirty);
        assert_eq!(e.block_status(0), BlockStatus::Invalid);
        assert_eq!(e.block_status(1), BlockStatus::ReadWrite);
        assert_eq!(e.block_status(33), BlockStatus::Dirty);
        assert_eq!(e.status_for_offset(0), BlockStatus::Invalid);
        assert_eq!(e.status_for_offset(8), BlockStatus::ReadWrite);
        assert_eq!(e.status_for_offset(33 * 8 + 3), BlockStatus::Dirty);
    }

    #[test]
    fn entry_translate() {
        let e = LtlbEntry::uniform(7, 3, BlockStatus::ReadWrite, 0);
        assert_eq!(e.translate(0), 3 * 512);
        assert_eq!(e.translate(511), 3 * 512 + 511);
    }

    #[test]
    fn lookup_hit_and_miss() {
        let mut t = Ltlb::new(4);
        assert!(t.lookup(5).is_none());
        t.insert(LtlbEntry::uniform(5, 1, BlockStatus::ReadWrite, 0));
        assert!(t.lookup(5).is_some());
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Ltlb::new(2);
        t.insert(LtlbEntry::uniform(1, 1, BlockStatus::ReadWrite, 0));
        t.insert(LtlbEntry::uniform(2, 2, BlockStatus::ReadWrite, 0));
        let _ = t.lookup(1); // make 2 the LRU
        let evicted = t
            .insert(LtlbEntry::uniform(3, 3, BlockStatus::ReadWrite, 0))
            .expect("eviction");
        assert_eq!(evicted.vpn, 2);
        assert!(t.probe(1).is_some());
        assert!(t.probe(3).is_some());
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn same_vpn_replaces() {
        let mut t = Ltlb::new(2);
        t.insert(LtlbEntry::uniform(1, 1, BlockStatus::ReadWrite, 0));
        let old = t
            .insert(LtlbEntry::uniform(1, 9, BlockStatus::ReadOnly, 0))
            .expect("old mapping returned");
        assert_eq!(old.ppn, 1);
        assert_eq!(t.probe(1).unwrap().ppn, 9);
    }

    #[test]
    fn invalidate_removes() {
        let mut t = Ltlb::new(2);
        t.insert(LtlbEntry::uniform(1, 1, BlockStatus::ReadWrite, 0));
        assert!(t.invalidate(1).is_some());
        assert!(t.probe(1).is_none());
        assert!(t.invalidate(1).is_none());
    }

    /// Restore preserves slot positions (and therefore LRU victim
    /// choice) and rebuilds the lookup index.
    #[test]
    fn ltlb_state_round_trips() {
        let mut t = Ltlb::new(2);
        t.insert(LtlbEntry::uniform(1, 1, BlockStatus::ReadWrite, 0));
        t.insert(LtlbEntry::uniform(2, 2, BlockStatus::ReadOnly, 64));
        let _ = t.lookup(1); // 2 becomes the LRU victim
        let mut e = Enc::new();
        t.save_state(&mut e);
        let bytes = e.finish();
        let mut r = Ltlb::new(2);
        let mut d = Dec::new(&bytes);
        r.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(r.stats(), t.stats());
        assert_eq!(r.probe(1).unwrap().ppn, 1);
        assert_eq!(r.probe(2).unwrap().ppn, 2);
        let evicted = r
            .insert(LtlbEntry::uniform(3, 3, BlockStatus::ReadWrite, 0))
            .expect("eviction");
        assert_eq!(evicted.vpn, 2, "LRU order survives the round trip");
        assert!(Ltlb::new(4).load_state(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn mutation_through_lookup_persists() {
        let mut t = Ltlb::new(2);
        t.insert(LtlbEntry::uniform(1, 1, BlockStatus::ReadWrite, 0));
        t.lookup(1).unwrap().set_block_status(5, BlockStatus::Dirty);
        assert_eq!(t.probe(1).unwrap().block_status(5), BlockStatus::Dirty);
    }
}
