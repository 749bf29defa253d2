//! The node's external SDRAM with page-mode timing and SECDED.
//!
//! Each M-Machine node carries 1 MW (8 MB) of synchronous DRAM; the MAP's
//! memory interface "exploits the pipeline and page mode of the external
//! memory and performs SECDED error control" (§2). This model keeps an
//! open row per internal bank: accesses to the open row pay the short CAS
//! latency, others pay a precharge+activate penalty, and bursts then
//! stream one word per cycle.

use crate::memo::{position, Memo};
use crate::secded::{decode, encode, Decoded};
use mm_faults::{ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::word::Word;

/// One word of storage: data bits + pointer tag + synchronization bit +
/// the 8 SECDED check bits.
///
/// The synchronization bit is the per-memory-word full/empty bit of §2;
/// it travels with the word through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemWord {
    /// The tagged data word.
    pub word: Word,
    /// Full/empty synchronization bit.
    pub sync: bool,
    /// SECDED check bits over the data bits.
    pub ecc: u8,
}

impl MemWord {
    /// A word with freshly computed check bits and an empty sync bit.
    #[must_use]
    pub fn new(word: Word) -> MemWord {
        MemWord {
            word,
            sync: false,
            ecc: encode(word.bits()),
        }
    }

    /// A word with the sync bit preset.
    #[must_use]
    pub fn with_sync(word: Word, sync: bool) -> MemWord {
        MemWord {
            word,
            sync,
            ecc: encode(word.bits()),
        }
    }
}

/// One 8-word coherence block, packed: word `i`'s data bits in
/// `data[i]`, its pointer tag in bit `i` of `tags` and its full/empty bit
/// in bit `i` of `sync`. Blocks travel through the §4.3 protocol in this
/// form; they carry no check bits, which the SDRAM computes as it stores
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Block {
    /// The words' data bits.
    pub data: [u64; 8],
    /// Pointer tag of word `i` in bit `i`.
    pub tags: u8,
    /// Full/empty bit of word `i` in bit `i`.
    pub sync: u8,
}

impl Block {
    /// Pack eight memory words, dropping their check bits.
    #[must_use]
    pub fn pack(words: &[MemWord; 8]) -> Block {
        let mut b = Block::default();
        for (i, w) in words.iter().enumerate() {
            b.data[i] = w.word.bits();
            b.tags |= u8::from(w.word.is_pointer()) << i;
            b.sync |= u8::from(w.sync) << i;
        }
        b
    }

    /// Word `i`, with its pointer tag.
    #[must_use]
    pub fn word(&self, i: usize) -> Word {
        Word::from_raw(self.data[i], (self.tags >> i) & 1 == 1)
    }

    /// Word `i`'s full/empty bit.
    #[must_use]
    pub fn full(&self, i: usize) -> bool {
        (self.sync >> i) & 1 == 1
    }
}

/// SDRAM timing and geometry configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdramConfig {
    /// Total capacity in words (the paper's node: 1 MW = 8 MB).
    pub capacity_words: u64,
    /// Internal banks, each with one open row.
    pub banks: u64,
    /// Words per row ("page" in DRAM terms).
    pub row_words: u64,
    /// Cycles from request to first word when the row is already open.
    pub first_word_row_hit: u64,
    /// Additional cycles when the row must be precharged + activated.
    pub row_miss_penalty: u64,
    /// Cycles per additional word in a burst.
    pub burst_per_word: u64,
    /// When `false`, every access pays the row-miss penalty (page-mode
    /// disabled — used by the ablation bench).
    pub page_mode: bool,
}

impl SdramConfig {
    /// Can [`Sdram::new`] build this geometry? It needs at least one
    /// bank and a non-empty row.
    ///
    /// # Errors
    ///
    /// Why it cannot, naming the offending fields.
    // analyze: cold (configuration check, once per machine build)
    pub fn validate(&self) -> Result<(), String> {
        if self.banks > 0 && self.row_words > 0 {
            Ok(())
        } else {
            Err(format!(
                "degenerate SDRAM geometry: {} banks of {}-word rows",
                self.banks, self.row_words
            ))
        }
    }
}

impl Default for SdramConfig {
    fn default() -> SdramConfig {
        SdramConfig {
            capacity_words: 1 << 20,
            banks: 4,
            row_words: 1024,
            // Tuned so a local cache-miss read completes in the paper's 13
            // cycles: 2 (detect) + 1 (translate) + 9 (first word) + 1
            // (register write) = 13; the full 8-word line lands at 19,
            // matching the paper's 19-cycle local miss write.
            first_word_row_hit: 9,
            row_miss_penalty: 6,
            burst_per_word: 1,
            page_mode: true,
        }
    }
}

/// Counters the benches report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdramStats {
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required precharge + activate.
    pub row_misses: u64,
    /// Total words transferred.
    pub words_transferred: u64,
    /// Single-bit errors corrected by SECDED.
    pub ecc_corrected: u64,
    /// Uncorrectable double-bit errors observed.
    pub ecc_double_errors: u64,
}

ckpt_struct! {
    MemWord { word, sync, ecc }
    SdramStats { row_hits, row_misses, words_transferred, ecc_corrected, ecc_double_errors }
}

/// Checkpoint format: each word's data bits, pointer tag and full/empty
/// bit in turn (hand-written: the packed masks are split per word).
impl Ckpt for Block {
    fn save(&self, e: &mut Enc) {
        for k in 0..8 {
            (self.data[k], self.tags >> k & 1 == 1, self.full(k)).save(e);
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut b = Block::default();
        for k in 0..8 {
            let (data, tag, sync) = <(u64, bool, bool)>::load(d)?;
            b.data[k] = data;
            b.tags |= u8::from(tag) << k;
            b.sync |= u8::from(sync) << k;
        }
        Ok(b)
    }
}

/// Words per demand-committed storage page — a unit of host memory only,
/// unrelated to the 512-word translation page and to the DRAM row. Small
/// on purpose: a first touch inside a run costs one 640-byte allocation,
/// and 64 words make each of the two per-page bitsets a single `u64`.
const PAGE_WORDS: u64 = 64;

/// One committed page, packed: ten bytes per word instead of the
/// 24-byte [`MemWord`]. The bitsets and the first 48 words' check bits
/// share the page's first host cache line, so reading a word touches
/// that line and its data line, and writing one of those 48 words
/// touches nothing else.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Page {
    /// Pointer-tag bit of word `i` in bit `i`.
    tags: u64,
    /// Full/empty bit of word `i` in bit `i`.
    sync: u64,
    ecc: [u8; PAGE_WORDS as usize],
    data: [u64; PAGE_WORDS as usize],
}

// Ten host cache lines per 64 words.
const _: () = assert!(std::mem::size_of::<Page>() <= 640);

impl Page {
    fn get(&self, i: usize) -> MemWord {
        MemWord {
            word: Word::from_raw(self.data[i], (self.tags >> i) & 1 == 1),
            sync: (self.sync >> i) & 1 == 1,
            ecc: self.ecc[i],
        }
    }

    fn set(&mut self, i: usize, w: MemWord) {
        self.data[i] = w.word.bits();
        self.ecc[i] = w.ecc;
        let bit = 1u64 << i;
        self.tags = (self.tags & !bit) | (u64::from(w.word.is_pointer()) << i);
        self.sync = (self.sync & !bit) | (u64::from(w.sync) << i);
    }
}

/// A freshly committed page: zero words. Absent ≡ all-zero is sound
/// because `encode(0) == 0`: the zero-filled array's `MemWord::new(ZERO)`
/// is the all-zero bit pattern, which is also `MemWord::default()` and
/// decodes clean.
const ZERO_PAGE: Page = Page {
    tags: 0,
    sync: 0,
    ecc: [0; PAGE_WORDS as usize],
    data: [0; PAGE_WORDS as usize],
};

/// Is `w` the word every absent page reads as?
fn is_zero(w: MemWord) -> bool {
    w == MemWord::default()
}

/// Page number and in-page offset of word `addr`.
fn split(addr: u64) -> (usize, usize) {
    #[allow(clippy::cast_possible_truncation)]
    {
        ((addr / PAGE_WORDS) as usize, (addr % PAGE_WORDS) as usize)
    }
}

/// The SDRAM array plus its controller state.
///
/// Storage is demand-committed: a page table over packed pages in
/// which an absent page reads as zero words and is committed by the
/// first store or upset that makes it non-zero. The table itself grows
/// on commit, so building an SDRAM costs nothing per word of capacity.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Sdram {
    /// One more than the position in `pages` of each storage page; 0 =
    /// absent, read as zero words without touching any page. Covers
    /// pages up to the highest one committed so far: a page number past
    /// its end is absent.
    table: Vec<u32>,
    /// The committed pages, in first-touch order.
    pages: Vec<Page>,
    /// Recent `table` answers for the access paths: the handful of
    /// pages a node's handlers keep touching cost no table read.
    memo: Memo<4>,
    /// `cfg.capacity_words`, beside the table every access reads.
    capacity: u64,
    busy_until: u64,
    open_rows: Vec<Option<u64>>,
    stats: SdramStats,
    cfg: SdramConfig,
}

impl Sdram {
    /// Build an SDRAM of the configured capacity, zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_words` is zero
    /// ([`SdramConfig::validate`]).
    // analyze: cold (constructor: allocates the open-row state once per node)
    #[must_use]
    pub fn new(cfg: SdramConfig) -> Sdram {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let open_rows = vec![None; cfg.banks as usize];
        Sdram {
            table: Vec::new(),
            pages: Vec::new(),
            memo: Memo::new(),
            capacity: cfg.capacity_words,
            busy_until: 0,
            open_rows,
            stats: SdramStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SdramConfig {
        &self.cfg
    }

    /// Capacity in words.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity_words
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> SdramStats {
        self.stats
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.cfg.row_words;
        #[allow(clippy::cast_possible_truncation)]
        let bank = (row_index % self.cfg.banks) as usize;
        (bank, row_index / self.cfg.banks)
    }

    /// Model the timing of an access starting no earlier than `now`;
    /// returns the cycle at which the first word is available and advances
    /// the controller's busy window past the whole burst.
    fn access_timing(&mut self, now: u64, addr: u64, len: u64) -> u64 {
        let start = now.max(self.busy_until);
        let (bank, row) = self.bank_and_row(addr);
        let hit = self.cfg.page_mode && self.open_rows[bank] == Some(row);
        let first = if hit {
            self.stats.row_hits += 1;
            start + self.cfg.first_word_row_hit
        } else {
            self.stats.row_misses += 1;
            start + self.cfg.first_word_row_hit + self.cfg.row_miss_penalty
        };
        self.open_rows[bank] = Some(row);
        let done = first + self.cfg.burst_per_word * len.saturating_sub(1);
        self.busy_until = done;
        self.stats.words_transferred += len;
        first
    }

    /// Position in `pages` of page `pn`, if committed.
    fn slot(&self, pn: usize) -> Option<usize> {
        position(self.table.get(pn).copied().unwrap_or(0))
    }

    /// [`Sdram::slot`] for the access paths, through the memo.
    fn locate(&mut self, pn: usize) -> Option<usize> {
        let table = &self.table;
        position(
            self.memo
                .remember(pn as u64, || table.get(pn).copied().unwrap_or(0)),
        )
    }

    /// Page `pn` for writing, committed if it was absent.
    fn page_mut(&mut self, pn: usize) -> &mut Page {
        let slot = match self.locate(pn) {
            Some(slot) => slot,
            None => self.commit(pn),
        };
        &mut self.pages[slot]
    }

    /// Commit absent page `pn`, growing the table to reach it, and
    /// return its position — the allocations of the access path; first
    /// touches are rare, so keep them out of line.
    #[cold]
    fn commit(&mut self, pn: usize) -> usize {
        if pn >= self.table.len() {
            self.table.resize(pn + 1, 0);
        }
        let slot = self.pages.len();
        let code = u32::try_from(slot + 1).expect("page count fits u32");
        self.table[pn] = code;
        self.memo.put(pn as u64, code);
        self.pages.push(ZERO_PAGE);
        slot
    }

    /// Pages end on a 64-word boundary and the table on no boundary at
    /// all; neither may make a word past `capacity_words` addressable.
    fn check_addr(&self, addr: u64) {
        assert!(
            addr < self.capacity,
            "SDRAM address out of range: {addr:#x}"
        );
    }

    /// Read `out.len()` words starting at `addr` into a caller-owned
    /// buffer, beginning no earlier than cycle `now` (the line-fill path
    /// passes one stack array per fill). Returns
    /// `(first_word_cycle, last_word_cycle)`; single-bit upsets are
    /// corrected transparently and scrubbed, double errors surface as
    /// `None` entries.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn read_into(&mut self, now: u64, addr: u64, out: &mut [Option<MemWord>]) -> (u64, u64) {
        let len = out.len() as u64;
        assert!(
            addr + len <= self.capacity,
            "SDRAM read out of range: {addr:#x}+{len}"
        );
        let first = self.access_timing(now, addr, len);
        let last = first + self.cfg.burst_per_word * len.saturating_sub(1);
        // One page lookup per page the burst touches, not per word.
        let (mut pn, mut off) = split(addr);
        let mut rest = out;
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at_mut(rest.len().min(PAGE_WORDS as usize - off));
            // An absent page reads as zero words, which decode clean and
            // so are never scrubbed: it stays zero, and absent.
            let Some(at) = self.locate(pn) else {
                seg.fill(Some(MemWord::default()));
                rest = tail;
                pn += 1;
                off = 0;
                continue;
            };
            let page = &mut self.pages[at];
            for (i, slot) in seg.iter_mut().enumerate() {
                let cell = page.get(off + i);
                *slot = match decode(cell.word.bits(), cell.ecc) {
                    Decoded::Clean(_) => Some(cell),
                    Decoded::Corrected { data, .. } => {
                        self.stats.ecc_corrected += 1;
                        let repaired = MemWord {
                            word: Word::from_raw(data, cell.word.is_pointer()),
                            sync: cell.sync,
                            ecc: encode(data),
                        };
                        // Scrub the corrected word back to the array.
                        page.set(off + i, repaired);
                        Some(repaired)
                    }
                    Decoded::DoubleError => {
                        self.stats.ecc_double_errors += 1;
                        None
                    }
                };
            }
            rest = tail;
            pn += 1;
            off = 0;
        }
        (first, last)
    }

    /// Write `words` starting at `addr`, beginning no earlier than `now`;
    /// returns the completion cycle. Check bits are recomputed.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn write(&mut self, now: u64, addr: u64, words: &[MemWord]) -> u64 {
        assert!(
            addr + words.len() as u64 <= self.capacity,
            "SDRAM write out of range: {addr:#x}+{}",
            words.len()
        );
        let first = self.access_timing(now, addr, words.len() as u64);
        self.store(addr, words.len(), |i| (words[i].word, words[i].sync));
        first + self.cfg.burst_per_word * (words.len() as u64).saturating_sub(1)
    }

    /// Store `len` words from `addr` with fresh check bits, word `i`
    /// being `word(i)` (the word and its full/empty bit): one page lookup
    /// per storage page touched and one encode per word. Zero words
    /// stored to an absent page leave it absent.
    fn store(&mut self, addr: u64, len: usize, word: impl Fn(usize) -> (Word, bool)) {
        let (mut pn, mut off) = split(addr);
        let mut done = 0;
        while done < len {
            let n = (len - done).min(PAGE_WORDS as usize - off);
            let slot = match self.locate(pn) {
                Some(slot) => Some(slot),
                None if (done..done + n).all(|i| word(i) == (Word::ZERO, false)) => None,
                None => Some(self.commit(pn)),
            };
            if let Some(slot) = slot {
                let page = &mut self.pages[slot];
                for i in 0..n {
                    let (w, sync) = word(done + i);
                    let ecc = encode(w.bits());
                    page.set(off + i, MemWord { word: w, sync, ecc });
                }
            }
            (done, pn, off) = (done + n, pn + 1, 0);
        }
    }

    /// Zero-time backdoor read for loaders, debuggers and tests.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    #[must_use]
    pub fn peek(&self, addr: u64) -> MemWord {
        self.check_addr(addr);
        let (pn, off) = split(addr);
        self.slot(pn)
            .map_or_else(MemWord::default, |at| self.pages[at].get(off))
    }

    /// [`Sdram::peek`] for the physical-access pipeline, which keeps
    /// reading the same few pages.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    pub fn probe(&mut self, addr: u64) -> MemWord {
        self.check_addr(addr);
        let (pn, off) = split(addr);
        self.locate(pn)
            .map_or_else(MemWord::default, |at| self.pages[at].get(off))
    }

    /// Zero-time backdoor write for loaders, debuggers and tests.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    pub fn poke(&mut self, addr: u64, w: MemWord) {
        self.check_addr(addr);
        self.store(addr, 1, |_| (w.word, w.sync));
    }

    /// Zero-time store of consecutive words from `addr`: `values[i]`
    /// with bit `i` of `tags` as its pointer tag and bit `i` of `sync` as
    /// its full/empty bit, under fresh check bits. One page lookup per
    /// storage page touched and one encode per word — the firmware moves
    /// whole blocks and LPT entries through here.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds the capacity or 64 words.
    pub fn poke_run(&mut self, addr: u64, values: &[u64], tags: u64, sync: u64) {
        assert!(values.len() <= 64, "run longer than its masks");
        self.check_addr(addr + values.len().saturating_sub(1) as u64);
        self.store(addr, values.len(), |i| {
            let bit = |mask: u64| (mask >> i) & 1 == 1;
            (Word::from_raw(values[i], bit(tags)), bit(sync))
        });
    }

    /// Zero-time read of `out.len()` consecutive words from `addr` into
    /// `out`, returning their pointer tags and full/empty bits as masks
    /// (bit `i` for word `i`): [`Sdram::peek`] for a run, one page lookup
    /// per storage page touched.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds the capacity or 64 words.
    #[must_use]
    pub fn peek_run(&self, addr: u64, out: &mut [u64]) -> (u64, u64) {
        assert!(out.len() <= 64, "run longer than its masks");
        self.check_addr(addr + out.len().saturating_sub(1) as u64);
        let (mut pn, mut off) = split(addr);
        let (mut tags, mut sync, mut done) = (0, 0, 0);
        while done < out.len() {
            let n = (out.len() - done).min(PAGE_WORDS as usize - off);
            let seg = &mut out[done..done + n];
            match self.slot(pn) {
                Some(at) => {
                    let page = &self.pages[at];
                    seg.copy_from_slice(&page.data[off..off + n]);
                    for i in 0..n {
                        tags |= ((page.tags >> (off + i)) & 1) << (done + i);
                        sync |= ((page.sync >> (off + i)) & 1) << (done + i);
                    }
                }
                None => seg.fill(0),
            }
            done += n;
            pn += 1;
            off = 0;
        }
        (tags, sync)
    }

    /// Flip a stored data bit (fault injection for the SECDED tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the capacity.
    pub fn inject_bit_flip(&mut self, addr: u64, bit: u32) {
        self.check_addr(addr);
        let (pn, off) = split(addr);
        // Deliberately do NOT recompute ECC: that's the point.
        self.page_mut(pn).data[off] ^= 1u64 << bit;
    }

    /// Serialize the array (run-length encoded — a mostly-zero megaword
    /// array collapses to a handful of runs), controller state and
    /// statistics into a checkpoint stream. The byte format is that of a
    /// dense word array: an absent page is a run of zero words, merged
    /// with its neighbours without visiting it.
    // analyze: cold (checkpoint codec: grows the encoder's buffer)
    pub fn save_state(&self, e: &mut Enc) {
        fn flush(e: &mut Enc, w: MemWord, run: u64) {
            if run > 0 {
                (run, w).save(e);
            }
        }
        let cap = self.cfg.capacity_words;
        e.u64(cap);
        let (mut cur, mut run) = (MemWord::default(), 0u64);
        let mut push = |e: &mut Enc, w: MemWord, count: u64| {
            if w == cur {
                run += count;
            } else {
                flush(e, cur, run);
                (cur, run) = (w, count);
            }
        };
        for (pn, &slot) in self.table.iter().enumerate() {
            let words = PAGE_WORDS.min(cap - pn as u64 * PAGE_WORDS);
            if slot == 0 {
                push(e, MemWord::default(), words);
                continue;
            }
            let page = &self.pages[slot as usize - 1];
            #[allow(clippy::cast_possible_truncation)]
            for i in 0..words as usize {
                push(e, page.get(i), 1);
            }
        }
        // Committed pages all sit inside the table; whatever capacity
        // lies past its end is one more stretch of zero words.
        let tail = cap.saturating_sub(self.table.len() as u64 * PAGE_WORDS);
        push(e, MemWord::default(), tail);
        flush(e, cur, run);
        e.u64(0); // run terminator
        self.open_rows.save(e);
        self.busy_until.save(e);
        self.stats.save(e);
    }

    /// Restore state saved by [`Sdram::save_state`]. Zero runs stay
    /// uncommitted.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input or a geometry mismatch (the
    /// checkpoint came from a differently-sized SDRAM).
    // analyze: cold (checkpoint codec: commits the pages non-zero runs cover)
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let cap = d.u64()?;
        if cap != self.cfg.capacity_words {
            return Err(CkptError(format!(
                "SDRAM capacity mismatch: checkpoint has {cap} words, array has {}",
                self.cfg.capacity_words
            )));
        }
        self.table.clear();
        self.pages.clear();
        self.memo.clear();
        let mut i = 0u64;
        loop {
            let run = d.u64()?;
            if run == 0 {
                break;
            }
            let w = MemWord::load(d)?;
            let end = i
                .checked_add(run)
                .filter(|&end| end <= cap)
                .ok_or_else(|| CkptError("SDRAM runs overflow the array".into()))?;
            if !is_zero(w) {
                for addr in i..end {
                    let (pn, off) = split(addr);
                    self.page_mut(pn).set(off, w);
                }
            }
            i = end;
        }
        if i != cap {
            return Err(CkptError(format!("SDRAM runs cover {i} of {cap} words")));
        }
        let open_rows = Vec::load(d)?;
        if open_rows.len() != self.open_rows.len() {
            return Err(CkptError("SDRAM bank count mismatch".into()));
        }
        self.open_rows = open_rows;
        self.busy_until = d.u64()?;
        self.stats = SdramStats::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sdram {
        Sdram::new(SdramConfig {
            capacity_words: 4096,
            ..SdramConfig::default()
        })
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut d = small();
        d.poke(10, MemWord::with_sync(Word::from_i64(-3), true));
        let w = d.peek(10);
        assert_eq!(w.word.as_i64(), -3);
        assert!(w.sync);
    }

    #[test]
    fn row_hit_vs_miss_timing() {
        let mut d = small();
        let (f1, _) = d.read_into(0, 0, &mut [None]);
        // First access: row miss.
        assert_eq!(f1, 9 + 6);
        let (f2, _) = d.read_into(f1, 1, &mut [None]);
        // Same row: hit.
        assert_eq!(f2, f1 + 9);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn page_mode_off_always_misses() {
        let mut d = Sdram::new(SdramConfig {
            capacity_words: 4096,
            page_mode: false,
            ..SdramConfig::default()
        });
        d.read_into(0, 0, &mut [None]);
        d.read_into(100, 1, &mut [None]);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn burst_timing() {
        let mut d = small();
        let mut words = [None; 8];
        let (first, last) = d.read_into(0, 0, &mut words);
        assert!(words.iter().all(Option::is_some));
        assert_eq!(last, first + 7);
    }

    #[test]
    fn controller_serializes() {
        let mut d = small();
        let (f1, l1) = d.read_into(0, 0, &mut [None; 8]);
        let (f2, _) = d.read_into(f1, 0, &mut [None]); // issued while burst in flight
        assert!(f2 >= l1, "second access must wait for the burst");
    }

    #[test]
    fn ecc_corrects_and_scrubs() {
        let mut d = small();
        d.poke(5, MemWord::new(Word::from_u64(0xFFFF)));
        d.inject_bit_flip(5, 3);
        let mut word = [None];
        d.read_into(0, 5, &mut word);
        assert_eq!(word[0].unwrap().word.bits(), 0xFFFF);
        assert_eq!(d.stats().ecc_corrected, 1);
        // Scrubbed: a second read is clean.
        let mut again = [None];
        d.read_into(50, 5, &mut again);
        assert_eq!(again[0].unwrap().word.bits(), 0xFFFF);
        assert_eq!(d.stats().ecc_corrected, 1);
    }

    #[test]
    fn ecc_flags_double_errors() {
        let mut d = small();
        d.poke(5, MemWord::new(Word::from_u64(0xABCD)));
        d.inject_bit_flip(5, 3);
        d.inject_bit_flip(5, 17);
        let mut word = [Some(MemWord::default())];
        d.read_into(0, 5, &mut word);
        assert!(word[0].is_none());
        assert_eq!(d.stats().ecc_double_errors, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let mut d = small();
        let _ = d.read_into(0, 4090, &mut [None; 8]);
    }

    /// A lived-in SDRAM (writes, pending ECC damage, open rows, busy
    /// controller) round-trips through the RLE checkpoint codec.
    #[test]
    fn sdram_state_round_trips() {
        let mut d = small();
        d.poke(5, MemWord::with_sync(Word::from_u64(0xABCD), true));
        d.poke(4000, MemWord::new(Word::from_i64(-9)));
        d.inject_bit_flip(5, 3); // un-scrubbed upset survives the trip
        let _ = d.read_into(0, 100, &mut [None; 8]);
        let mut e = Enc::new();
        d.save_state(&mut e);
        let bytes = e.finish();
        let mut r = small();
        let mut dec = Dec::new(&bytes);
        r.load_state(&mut dec).expect("load");
        assert_eq!(dec.remaining(), 0);
        assert_eq!(r.stats(), d.stats());
        for addr in [0u64, 5, 100, 4000, 4095] {
            assert_eq!(r.peek(addr), d.peek(addr), "word {addr}");
        }
        // The restored array still corrects (and counts) the upset.
        let mut word = [None];
        r.read_into(200, 5, &mut word);
        assert_eq!(word[0].unwrap().word.bits(), 0xABCD);
        assert_eq!(r.stats().ecc_corrected, 1);
        // A different geometry refuses the checkpoint.
        let mut other = Sdram::new(SdramConfig {
            capacity_words: 2048,
            ..SdramConfig::default()
        });
        assert!(other.load_state(&mut Dec::new(&bytes)).is_err());
    }

    /// Absent ≡ zero: nothing that leaves a page all-zero commits it —
    /// reads, zero stores, a checkpoint round trip — and the first store
    /// or upset that does not, does.
    #[test]
    fn pages_commit_only_when_made_nonzero() {
        let committed = |d: &Sdram| d.pages.len();
        assert_eq!(MemWord::new(Word::ZERO), MemWord::default());
        let mut d = small();
        let mut burst = [None; 16];
        d.read_into(0, 56, &mut burst); // straddles pages 0 and 1
        assert_eq!(burst, [Some(MemWord::default()); 16]);
        d.poke(70, MemWord::default());
        d.write(20, 120, &[MemWord::default(); 16]);
        assert_eq!(committed(&d), 0);

        d.poke(70, MemWord::with_sync(Word::ZERO, true)); // the sync bit counts
        assert_eq!(committed(&d), 1);
        d.inject_bit_flip(130, 3);
        assert_eq!(committed(&d), 2);
        d.write(40, 250, &[MemWord::new(Word::from_u64(1)); 8]); // pages 3 and 4
        assert_eq!(committed(&d), 4);

        let mut e = Enc::new();
        d.save_state(&mut e);
        let mut r = small();
        r.poke(4000, MemWord::new(Word::from_u64(7))); // dropped by the load
        r.load_state(&mut Dec::new(&e.finish())).expect("load");
        assert_eq!(committed(&r), 4);
        assert_eq!(r.peek(4000), MemWord::default());
    }

    #[test]
    fn different_banks_track_rows_independently() {
        let mut d = small();
        // addr 0 -> row_index 0 -> bank 0; addr 1024 -> row_index 1 -> bank 1.
        let (f1, _) = d.read_into(0, 0, &mut [None]);
        let (f2, _) = d.read_into(f1, 1024, &mut [None]);
        let (f3, _) = d.read_into(f2, 0, &mut [None]);
        let (f4, _) = d.read_into(f3, 1024, &mut [None]);
        // Third and fourth accesses hit their banks' still-open rows.
        assert_eq!(f3 - f2, 9);
        assert_eq!(f4 - f3, 9);
        assert_eq!(d.stats().row_hits, 2);
    }
}
