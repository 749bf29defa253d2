//! The on-chip cache: four word-interleaved, virtually-addressed banks.
//!
//! "The on-chip cache is organized as four word-interleaved 4KW (32KB)
//! banks to permit four consecutive word accesses to proceed in parallel.
//! The cache is virtually addressed and tagged. The cache banks are
//! pipelined with a three-cycle read latency, including switch traversal"
//! (§2). Lines are 8 words — the same granularity as the block-status
//! bits — so coherence invalidations map one block to one line.
//!
//! Consecutive words live in different banks (`bank = va mod 4`); a line
//! spans all four banks, two words in each. Tag and state are kept once
//! per line. Each line carries a `writable` bit derived from the page's
//! block-status bits at fill time, so stores to locally-cached READ-ONLY
//! remote data fault even on a cache hit.

use crate::dram::MemWord;
use crate::memo::{position, Memo};
use mm_faults::{ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::word::Word;

/// Words per cache line (= words per block-status block).
pub const LINE_WORDS: u64 = 8;

/// Cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of banks (fixed at 4 on the MAP; configurable for ablations).
    pub banks: u64,
    /// Words per bank (4 KW on the MAP).
    pub words_per_bank: u64,
}

impl CacheConfig {
    /// Total lines in the cache.
    #[must_use]
    pub fn num_lines(&self) -> u64 {
        self.banks * self.words_per_bank / LINE_WORDS
    }

    /// Can [`Cache::new`] build this geometry? Its line count must be a
    /// non-zero power of two (the index is a mask, the tag a shift).
    ///
    /// # Errors
    ///
    /// Why it cannot, naming the offending fields.
    // analyze: cold (configuration check, once per machine build)
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_lines();
        if n > 0 && n.is_power_of_two() {
            Ok(())
        } else {
            Err(format!(
                "cache line count must be a power of two: {} banks x {} words per bank \
                 is {n} lines",
                self.banks, self.words_per_bank
            ))
        }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            banks: 4,
            words_per_bank: 4096,
        }
    }
}

/// Line state flags, kept in the alignment bits of `Line::pa_flags`.
const VALID: u64 = 1;
const DIRTY: u64 = 2;
const WRITABLE: u64 = 4;
const FLAGS: u64 = LINE_WORDS - 1;

/// One committed direct-mapped line, packed: tag, flags, check bits
/// and the words' tag and full/empty bits in its first 32 bytes, the
/// eight bare data words in the next 64. A hit reads the header and one
/// word — one or two host cache lines; eight 24-byte [`MemWord`]s would
/// spread a line over four.
#[derive(Debug, Clone)]
#[repr(C, align(32))]
struct Line {
    tag: u64,
    /// Physical address of the line base, captured at fill time so dirty
    /// victims can be written back without re-translating (the cache is
    /// virtually tagged; the victim's LTLB entry may be gone). The base
    /// is line-aligned, so its low three bits hold the state flags.
    pa_flags: u64,
    /// SECDED check bits of word `i` in byte `i`.
    ecc: [u8; LINE_WORDS as usize],
    /// Pointer tag of word `i` in bit `i`, its full/empty bit in bit
    /// `LINE_WORDS + i`.
    bits: u16,
    /// Data bits of word `i`.
    data: [u64; LINE_WORDS as usize],
}

// A committed line is three 32-byte quarters of host cache lines.
const _: () = assert!(std::mem::size_of::<Line>() <= 96);

/// Bit of word `i`'s full/empty flag in [`Line::bits`].
const SYNC_BITS: u32 = LINE_WORDS as u32;

impl Line {
    fn new(tag: u64, pa_flags: u64, words: &[MemWord; LINE_WORDS as usize]) -> Line {
        let mut line = Line {
            tag,
            pa_flags,
            ecc: [0; LINE_WORDS as usize],
            bits: 0,
            data: [0; LINE_WORDS as usize],
        };
        for (i, &w) in words.iter().enumerate() {
            line.set(i, w);
        }
        line
    }

    fn holds(&self, tag: u64) -> bool {
        self.pa_flags & VALID != 0 && self.tag == tag
    }

    fn pa_base(&self) -> u64 {
        self.pa_flags & !FLAGS
    }

    fn get(&self, i: usize) -> MemWord {
        MemWord {
            word: Word::from_raw(self.data[i], self.bits >> i & 1 == 1),
            sync: self.bits >> (SYNC_BITS as usize + i) & 1 == 1,
            ecc: self.ecc[i],
        }
    }

    fn set(&mut self, i: usize, w: MemWord) {
        self.data[i] = w.word.bits();
        self.ecc[i] = w.ecc;
        let mask = 1u16 << i | 1u16 << (SYNC_BITS as usize + i);
        let bits =
            u16::from(w.word.is_pointer()) << i | u16::from(w.sync) << (SYNC_BITS as usize + i);
        self.bits = self.bits & !mask | bits;
    }

    fn set_sync(&mut self, i: usize, sync: bool) {
        let bit = SYNC_BITS as usize + i;
        self.bits = self.bits & !(1 << bit) | u16::from(sync) << bit;
    }

    fn words(&self) -> [MemWord; LINE_WORDS as usize] {
        std::array::from_fn(|i| self.get(i))
    }
}

/// Result of attempting a store hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The word was written (line now dirty).
    Written,
    /// The line is present but not writable (block-status fault).
    NotWritable,
    /// The line is not present.
    Miss,
}

/// A dirty line evicted by a fill, to be written back to DRAM.
#[derive(Debug, Clone)]
pub struct Victim {
    /// Virtual address of the first word of the victim line.
    pub va: u64,
    /// Physical address of the first word of the victim line.
    pub pa: u64,
    /// The eight words of the line.
    pub data: [MemWord; LINE_WORDS as usize],
}

/// Counters for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

ckpt_struct! { CacheStats { read_hits, read_misses, write_hits, write_misses, writebacks } }

/// The four-bank, direct-mapped, virtually-tagged cache.
///
/// Line storage is demand-committed: `slots` maps a line index to its
/// position in `lines`, which holds only the lines some fill has reached,
/// and itself grows on commit — an empty cache owns nothing.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Cache {
    /// One more than the position in `lines` of each line index; 0 =
    /// never filled, a miss decided without touching any line. Covers
    /// indices up to the highest one filled so far: an index past its
    /// end was never filled.
    slots: Vec<u32>,
    /// The committed lines, in first-fill order.
    lines: Vec<Line>,
    /// Recent `slots` answers for the pipeline, so a line it keeps
    /// hitting — or keeps missing — costs no table read.
    memo: Memo<4>,
    /// `num_lines - 1` (the line count is a power of two).
    index_mask: u64,
    /// `banks - 1`: a line count that is a power of two makes the bank
    /// count one too, so the interleave is a mask.
    bank_mask: u64,
    /// `log2(LINE_WORDS * num_lines)`.
    tag_shift: u32,
    stats: CacheStats,
    cfg: CacheConfig,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero lines or a non-power-of-two line
    /// count ([`CacheConfig::validate`]).
    // analyze: cold (constructor, once per node)
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.num_lines();
        debug_assert!(cfg.banks.is_power_of_two());
        Cache {
            slots: Vec::new(),
            lines: Vec::new(),
            memo: Memo::new(),
            index_mask: n - 1,
            bank_mask: cfg.banks - 1,
            tag_shift: (LINE_WORDS * n).trailing_zeros(),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The geometry in use.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The bank serving virtual address `va` (word-interleaved).
    #[must_use]
    pub fn bank_of(&self, va: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (va & self.bank_mask) as usize
        }
    }

    fn index_of(&self, va: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            ((va / LINE_WORDS) & self.index_mask) as usize
        }
    }

    fn tag_of(&self, va: u64) -> u64 {
        va >> self.tag_shift
    }

    /// Position in `lines` of line index `idx`, if it was ever filled.
    fn slot(&self, idx: usize) -> Option<usize> {
        position(self.slots.get(idx).copied().unwrap_or(0))
    }

    /// [`Cache::slot`] for the access pipeline, through the memo.
    fn locate(&mut self, idx: usize) -> Option<usize> {
        let slots = &self.slots;
        position(
            self.memo
                .remember(idx as u64, || slots.get(idx).copied().unwrap_or(0)),
        )
    }

    /// The resident line holding `va`.
    fn hit(&self, va: u64) -> Option<&Line> {
        let line = &self.lines[self.slot(self.index_of(va))?];
        line.holds(self.tag_of(va)).then_some(line)
    }

    fn hit_mut(&mut self, va: u64) -> Option<&mut Line> {
        let (slot, tag) = (self.locate(self.index_of(va))?, self.tag_of(va));
        let line = &mut self.lines[slot];
        line.holds(tag).then_some(line)
    }

    /// The word at `va` if resident — [`Cache::peek`] for the access
    /// pipeline, which keeps asking about the same few lines.
    pub fn probe(&mut self, va: u64) -> Option<MemWord> {
        self.hit_mut(va).map(|l| l.get((va % LINE_WORDS) as usize))
    }

    /// Is the word at `va` present?
    #[must_use]
    pub fn contains(&self, va: u64) -> bool {
        self.hit(va).is_some()
    }

    /// Read a word on a hit. Counts a read hit or miss.
    pub fn read(&mut self, va: u64) -> Option<MemWord> {
        let w = self.probe(va);
        if w.is_some() {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        w
    }

    /// Write a word on a hit. Counts a write hit or miss.
    pub fn write(&mut self, va: u64, w: MemWord) -> StoreOutcome {
        let Some(line) = self.hit_mut(va) else {
            self.stats.write_misses += 1;
            return StoreOutcome::Miss;
        };
        if line.pa_flags & WRITABLE == 0 {
            return StoreOutcome::NotWritable;
        }
        line.set((va % LINE_WORDS) as usize, w);
        line.pa_flags |= DIRTY;
        self.stats.write_hits += 1;
        StoreOutcome::Written
    }

    /// Update only the synchronization bit of a resident word (used by
    /// synchronizing loads; requires a writable line, like any mutation).
    pub fn set_sync(&mut self, va: u64, sync: bool) -> StoreOutcome {
        let Some(line) = self.hit_mut(va) else {
            return StoreOutcome::Miss;
        };
        if line.pa_flags & WRITABLE == 0 {
            return StoreOutcome::NotWritable;
        }
        line.set_sync((va % LINE_WORDS) as usize, sync);
        line.pa_flags |= DIRTY;
        StoreOutcome::Written
    }

    /// Commit storage for line index `idx`, holding `line`, growing the
    /// slot table to reach it — the allocations of the access path; only
    /// the first fill of an index gets here, so keep it out of line.
    #[cold]
    fn commit(&mut self, idx: usize, line: Line) {
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        let code = u32::try_from(self.lines.len() + 1).expect("line count fits u32");
        self.slots[idx] = code;
        self.memo.put(idx as u64, code);
        self.lines.push(line);
    }

    /// Install the line containing `va`, whose physical base is `pa_base`.
    /// Returns the evicted dirty line, if any, for write-back.
    pub fn fill(
        &mut self,
        va: u64,
        pa_base: u64,
        data: [MemWord; LINE_WORDS as usize],
        writable: bool,
    ) -> Option<Victim> {
        let idx = self.index_of(va);
        let new = Line::new(
            self.tag_of(va),
            (pa_base & !FLAGS) | VALID | if writable { WRITABLE } else { 0 },
            &data,
        );
        let Some(slot) = self.locate(idx) else {
            self.commit(idx, new);
            return None;
        };
        let line = &mut self.lines[slot];
        let victim = (line.pa_flags & (VALID | DIRTY) == VALID | DIRTY).then(|| Victim {
            va: (line.tag << self.tag_shift) | (idx as u64 * LINE_WORDS),
            pa: line.pa_base(),
            data: line.words(),
        });
        *line = new;
        self.stats.writebacks += u64::from(victim.is_some());
        victim
    }

    /// Read a resident word without touching statistics (backdoor for
    /// loaders, sync-precondition checks and firmware).
    #[must_use]
    pub fn peek(&self, va: u64) -> Option<MemWord> {
        self.hit(va).map(|l| l.get((va % LINE_WORDS) as usize))
    }

    /// Overwrite a resident word without touching statistics or the
    /// writable bit (backdoor for loaders and firmware).
    pub fn poke(&mut self, va: u64, w: MemWord) -> bool {
        self.hit_mut(va).is_some_and(|line| {
            line.set((va % LINE_WORDS) as usize, w);
            line.pa_flags |= DIRTY;
            true
        })
    }

    /// Clear `clear` (plus the dirty bit) on the resident line holding
    /// `va`; returns the write-back owed if it was dirty.
    fn drop_rights(&mut self, va: u64, clear: u64) -> Option<Victim> {
        let line = self.hit_mut(va)?;
        let dirty = line.pa_flags & DIRTY != 0;
        line.pa_flags &= !(clear | DIRTY);
        let victim = dirty.then(|| Victim {
            va: va & !(LINE_WORDS - 1),
            pa: line.pa_base(),
            data: line.words(),
        });
        self.stats.writebacks += u64::from(dirty);
        victim
    }

    /// Invalidate the line containing `va` (coherence). Returns the line's
    /// contents if it was dirty, so the caller can write it back.
    pub fn invalidate(&mut self, va: u64) -> Option<Victim> {
        self.drop_rights(va, VALID)
    }

    /// Downgrade the line containing `va` to read-only (coherence), if
    /// present. Returns its contents if it was dirty (for write-back).
    pub fn downgrade(&mut self, va: u64) -> Option<Victim> {
        self.drop_rights(va, WRITABLE)
    }

    /// Valid lines holding writes not yet in the SDRAM.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        let dirty = VALID | DIRTY;
        self.lines
            .iter()
            .filter(|l| l.pa_flags & dirty == dirty)
            .count()
    }

    /// Serialize every valid line plus the statistics into a checkpoint
    /// stream (invalid lines are skipped; restore re-empties them).
    // analyze: cold (checkpoint codec: grows the encoder's buffer)
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.cfg.num_lines());
        let valid = || {
            let lines = self
                .slots
                .iter()
                .enumerate()
                .filter(|&(_, &slot)| slot != 0);
            let lines = lines.map(|(idx, &slot)| (idx, &self.lines[slot as usize - 1]));
            lines.filter(|(_, l)| l.pa_flags & VALID != 0)
        };
        e.usize(valid().count());
        for (idx, l) in valid() {
            e.usize(idx);
            let flag = |f| l.pa_flags & f != 0;
            (l.tag, flag(DIRTY), flag(WRITABLE), l.pa_base()).save(e);
            l.words().save(e);
        }
        self.stats.save(e);
    }

    /// Restore state saved by [`Cache::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input, a geometry mismatch or a line
    /// base that is not line-aligned.
    // analyze: cold (checkpoint codec: commits the lines the checkpoint holds)
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let n = d.u64()?;
        if n != self.cfg.num_lines() {
            return Err(CkptError(format!(
                "cache line-count mismatch: checkpoint has {n}, cache has {}",
                self.cfg.num_lines()
            )));
        }
        self.slots.clear();
        self.lines.clear();
        self.memo.clear();
        for _ in 0..d.usize()? {
            let idx = d.usize()?;
            if idx as u64 >= n {
                return Err(CkptError(format!("cache line index {idx} out of range")));
            }
            let (tag, dirty, writable, pa_base) = <(u64, bool, bool, u64)>::load(d)?;
            if pa_base & FLAGS != 0 {
                return Err(CkptError(format!(
                    "cache line base {pa_base:#x} is not line-aligned"
                )));
            }
            let data = Ckpt::load(d)?;
            let flags = VALID | if dirty { DIRTY } else { 0 } | if writable { WRITABLE } else { 0 };
            let new = Line::new(tag, pa_base | flags, &data);
            match self.slot(idx) {
                None => self.commit(idx, new),
                Some(slot) => self.lines[slot] = new,
            }
        }
        self.stats = CacheStats::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(v: u64) -> MemWord {
        MemWord::new(Word::from_u64(v))
    }

    fn line(vals: std::ops::Range<u64>) -> [MemWord; LINE_WORDS as usize] {
        let v: Vec<MemWord> = vals.map(mk).collect();
        v.try_into().expect("test lines are LINE_WORDS long")
    }

    fn cache() -> Cache {
        Cache::new(CacheConfig {
            banks: 4,
            words_per_bank: 64, // 256 words, 32 lines — small for tests
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        assert_eq!(c.read(8), None);
        assert!(c.fill(8, 8, line(0..8), true).is_none());
        assert_eq!(c.read(9).unwrap().word.bits(), 1);
        assert!(c.contains(15));
        assert!(!c.contains(16));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn bank_interleaving() {
        let c = cache();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 1);
        assert_eq!(c.bank_of(5), 1);
        assert_eq!(c.bank_of(7), 3);
    }

    #[test]
    fn write_hit_marks_dirty_and_evicts() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert_eq!(c.write(3, mk(99)), StoreOutcome::Written);
        assert_eq!(c.read(3).unwrap().word.bits(), 99);
        //

        // Fill a conflicting line: 32 lines * 8 words = 256-word stride.
        let victim = c
            .fill(256, 256, line(100..108), true)
            .expect("dirty victim");
        assert_eq!(victim.va, 0);
        assert_eq!(victim.data[3].word.bits(), 99);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_returns_no_victim() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert!(c.fill(256, 256, line(0..8), true).is_none());
    }

    #[test]
    fn read_only_line_rejects_stores() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), false);
        assert_eq!(c.write(0, mk(1)), StoreOutcome::NotWritable);
        assert_eq!(c.set_sync(0, true), StoreOutcome::NotWritable);
        // Reads still fine.
        assert!(c.read(0).is_some());
    }

    #[test]
    fn store_miss_reported() {
        let mut c = cache();
        assert_eq!(c.write(40, mk(1)), StoreOutcome::Miss);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn sync_bit_update() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert_eq!(c.set_sync(2, true), StoreOutcome::Written);
        assert!(c.read(2).unwrap().sync);
    }

    #[test]
    fn invalidate_returns_dirty_contents() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(1, mk(55));
        let v = c.invalidate(0).expect("dirty line returned");
        assert_eq!(v.va, 0);
        assert_eq!(v.data[1].word.bits(), 55);
        assert!(!c.contains(0));
        // Invalidating again is a no-op.
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn invalidate_clean_line_silent() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert!(c.invalidate(0).is_none());
        assert!(!c.contains(0));
    }

    #[test]
    fn downgrade_blocks_later_stores() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(1, mk(5));
        let v = c.downgrade(0).expect("was dirty");
        assert_eq!(v.data[1].word.bits(), 5);
        assert_eq!(c.write(1, mk(6)), StoreOutcome::NotWritable);
        assert!(c.contains(0));
    }

    /// A cache with valid, dirty and read-only lines round-trips through
    /// the checkpoint codec.
    #[test]
    fn cache_state_round_trips() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(3, mk(99));
        c.fill(8, 8, line(8..16), false);
        let mut e = Enc::new();
        c.save_state(&mut e);
        let bytes = e.finish();
        let mut r = cache();
        let mut d = Dec::new(&bytes);
        r.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(r.stats(), c.stats());
        assert_eq!(r.peek(3).unwrap().word.bits(), 99);
        assert_eq!(r.write(8, mk(1)), StoreOutcome::NotWritable);
        // The restored dirty bit still produces a victim on conflict.
        assert!(r.fill(256, 256, line(0..8), true).is_some());
        // A different geometry refuses the checkpoint.
        let mut other = Cache::new(CacheConfig {
            banks: 4,
            words_per_bank: 32,
        });
        assert!(other.load_state(&mut Dec::new(&bytes)).is_err());
    }

    /// Line storage is committed by the first fill of an index and by
    /// nothing else: misses, invalidations and refills allocate nothing.
    #[test]
    fn lines_commit_on_first_fill_only() {
        let committed = |c: &Cache| c.lines.len();
        let mut c = cache();
        assert_eq!(c.read(8), None);
        assert_eq!(c.write(8, mk(1)), StoreOutcome::Miss);
        assert!(c.invalidate(8).is_none());
        assert_eq!(committed(&c), 0);
        c.fill(8, 8, line(0..8), true);
        c.fill(264, 264, line(0..8), true); // same index, another tag
        assert!(c.invalidate(264).is_none());
        c.fill(8, 8, line(0..8), true);
        assert_eq!(committed(&c), 1);
        c.fill(64, 64, line(0..8), true);
        assert_eq!(committed(&c), 2);
    }

    #[test]
    fn distinct_tags_conflict_correctly() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.fill(256, 256, line(8..16), true); // same index, different tag
        assert!(!c.contains(0));
        assert!(c.contains(256));
        assert_eq!(c.read(256).unwrap().word.bits(), 8);
    }
}
