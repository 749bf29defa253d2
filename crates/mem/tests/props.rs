//! Property tests: the cached memory system never loses or invents data
//! relative to a flat reference memory, SECDED handles all single and
//! double flips, and the demand-committed SDRAM and cache are
//! indistinguishable from the dense arrays they replaced.

use mm_faults::{Dec, Enc};
use mm_isa::op::{SyncPost, SyncPre};
use mm_isa::word::Word;
use mm_mem::cache::{Cache, CacheConfig, CacheStats, StoreOutcome, Victim, LINE_WORDS};
use mm_mem::dram::{MemWord, Sdram, SdramConfig, SdramStats};
use mm_mem::lpt::Lpt;
use mm_mem::ltlb::{BlockStatus, Ltlb, LtlbEntry, LtlbStats, PAGE_WORDS};
use mm_mem::memsys::{MemConfig, MemEvent, MemRequest, MemResponse, MemorySystem};
use mm_mem::secded;
use proptest::prelude::*;
use std::collections::HashMap;

/// Advance `ms` one cycle and return what completed, in buffers of its
/// own (the cycle engines recycle theirs across steps).
fn step(ms: &mut MemorySystem, now: u64) -> (Vec<MemResponse>, Vec<MemEvent>) {
    let (mut responses, mut events) = (Vec::new(), Vec::new());
    ms.step_into(now, &mut responses, &mut events);
    (responses, events)
}

/// Apply a random load/store sequence through the full pipeline of a
/// `banks`-bank cache and check every load against a flat model.
fn run_sequence(ops: &[(bool, u64, u64)], banks: u64) {
    let mut cfg = MemConfig::default();
    cfg.cache.banks = banks;
    cfg.cache.words_per_bank = 256 / banks; // tiny cache: lots of evictions
    let mut ms = MemorySystem::new(cfg);
    let lpt = Lpt::new(4096, 64);
    ms.set_lpt(lpt);
    for vpn in 0..4 {
        let entry = LtlbEntry::uniform(vpn, 2 + vpn, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
        assert!(ms.tlb_install(slot));
    }

    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut cycle: u64 = 0;
    let mut id: u64 = 0;

    for &(is_store, addr, value) in ops {
        let va = addr % (4 * PAGE_WORDS);
        id += 1;
        let req = if is_store {
            model.insert(va, value);
            MemRequest::store(id, va, Word::from_u64(value), 0)
        } else {
            MemRequest::load(id, va, 0)
        };
        // Submit (retrying on bank-full) and run to completion.
        let mut pending = Some(req);
        let mut done = false;
        let deadline = cycle + 500;
        while !done {
            assert!(cycle < deadline, "request {id} stuck");
            if let Some(r) = pending.take() {
                if let Err(back) = ms.submit(r) {
                    pending = Some(back);
                }
            }
            let (resps, events) = step(&mut ms, cycle);
            assert!(events.is_empty(), "unexpected fault: {events:?}");
            for resp in resps {
                if resp.req.id == id {
                    if !is_store {
                        let expect = model.get(&va).copied().unwrap_or(0);
                        assert_eq!(
                            resp.value.bits(),
                            expect,
                            "load {id} at va {va} returned wrong data"
                        );
                    }
                    done = true;
                }
            }
            cycle += 1;
        }
    }

    // Every modelled word must also be visible through the backdoor.
    for (&va, &v) in &model {
        assert_eq!(ms.peek_va(va).unwrap().word.bits(), v, "backdoor mismatch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_matches_flat_memory(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..4096, any::<u64>()),
            1..60,
        )
    ) {
        run_sequence(&ops, 4);
    }

    /// The same on eight banks: more bank queues than the memory system
    /// keeps inline.
    #[test]
    fn cache_matches_flat_memory_on_eight_banks(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..4096, any::<u64>()),
            1..60,
        )
    ) {
        run_sequence(&ops, 8);
    }

    /// SECDED corrects every single flip and flags every double flip, for
    /// arbitrary data.
    #[test]
    fn secded_single_and_double(data in any::<u64>(), a in 0u32..64, b in 0u32..64) {
        let check = secded::encode(data);
        let single = data ^ (1u64 << a);
        match secded::decode(single, check) {
            secded::Decoded::Corrected { data: fixed, .. } => prop_assert_eq!(fixed, data),
            other => return Err(TestCaseError::fail(format!("single flip: {other:?}"))),
        }
        prop_assume!(a != b);
        let double = data ^ (1u64 << a) ^ (1u64 << b);
        prop_assert_eq!(secded::decode(double, check), secded::Decoded::DoubleError);
    }

    /// Synchronization bits round-trip through cache fills and evictions.
    #[test]
    fn sync_bits_survive_memory(addrs in prop::collection::vec(0u64..512, 1..20)) {
        let mut cfg = MemConfig::default();
        cfg.cache.words_per_bank = 64;
        let mut ms = MemorySystem::new(cfg);
        let lpt = Lpt::new(4096, 64);
        ms.set_lpt(lpt);
        let entry = LtlbEntry::uniform(0, 2, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
        prop_assert!(ms.tlb_install(slot));

        for &va in &addrs {
            let mut w = ms.peek_va(va).unwrap();
            w.sync = true;
            prop_assert!(ms.poke_va(va, w));
        }
        // Evict everything.
        for va in (0..512).step_by(8) {
            ms.flush_block(va);
        }
        for &va in &addrs {
            prop_assert!(ms.peek_va(va).unwrap().sync, "sync bit lost at {va}");
        }
    }

    /// §2 full/empty semantics under arbitrary interleavings of
    /// synchronizing and plain accesses: every operation either completes
    /// and applies its postcondition, or sync-faults with the bit's true
    /// value and leaves the word — value *and* bit — untouched. A flat
    /// (value, full/empty) model decides which, per word, across cache
    /// fills and evictions.
    #[test]
    fn full_empty_bits_interleave_correctly(
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..3, 0u8..3, 0u64..48, any::<u64>()),
            1..48,
        )
    ) {
        let mut cfg = MemConfig::default();
        cfg.cache.words_per_bank = 64; // tiny cache: lots of evictions
        let mut ms = MemorySystem::new(cfg);
        let lpt = Lpt::new(4096, 64);
        ms.set_lpt(lpt);
        let entry = LtlbEntry::uniform(0, 2, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
        prop_assert!(ms.tlb_install(slot));

        // Words boot EMPTY with value 0 (matches `MemWord::new`).
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
        let mut cycle: u64 = 0;

        for (id, &(is_store, pre_s, post_s, va, value)) in ops.iter().enumerate() {
            let id = id as u64 + 1;
            let pre = [SyncPre::Any, SyncPre::Full, SyncPre::Empty][pre_s as usize];
            let post =
                [SyncPost::Unchanged, SyncPost::SetFull, SyncPost::SetEmpty][post_s as usize];
            let mut req = if is_store {
                MemRequest::store(id, va, Word::from_u64(value), 0)
            } else {
                MemRequest::load(id, va, 0)
            };
            req.pre = pre;
            req.post = post;

            let &(mval, msync) = model.get(&va).unwrap_or(&(0, false));
            let want_fault = match pre {
                SyncPre::Any => false,
                SyncPre::Full => !msync,
                SyncPre::Empty => msync,
            };

            let mut pending = Some(req);
            let deadline = cycle + 500;
            'op: loop {
                prop_assert!(cycle < deadline, "request {id} stuck");
                if let Some(r) = pending.take() {
                    if let Err(back) = ms.submit(r) {
                        pending = Some(back);
                    }
                }
                let (resps, events) = step(&mut ms, cycle);
                cycle += 1;
                if let Some(ev) = events.first() {
                    prop_assert!(want_fault, "unexpected fault for {id}: {ev:?}");
                    prop_assert_eq!(ev.req.id, id, "fault names the wrong request");
                    match ev.kind {
                        mm_mem::memsys::MemEventKind::SyncFault { sync_was } => {
                            prop_assert_eq!(
                                sync_was, msync,
                                "fault reported the wrong bit value"
                            );
                        }
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "request {id}: wrong fault kind {other:?}"
                            )));
                        }
                    }
                    break 'op; // faulted op leaves the word untouched
                }
                if let Some(resp) = resps.first() {
                    prop_assert_eq!(resp.req.id, id);
                    prop_assert!(!want_fault, "request {id} should have sync-faulted");
                    if !is_store {
                        prop_assert_eq!(resp.value.bits(), mval, "load {id} wrong value");
                    }
                    let new_val = if is_store { value } else { mval };
                    let new_sync = match post {
                        SyncPost::Unchanged => msync,
                        SyncPost::SetFull => true,
                        SyncPost::SetEmpty => false,
                    };
                    model.insert(va, (new_val, new_sync));
                    break 'op;
                }
            }
        }

        // The backdoor agrees with the model on every touched word.
        for (&va, &(v, s)) in &model {
            let got = ms.peek_va(va).unwrap();
            prop_assert_eq!(got.word.bits(), v, "value mismatch at {}", va);
            prop_assert_eq!(got.sync, s, "full/empty mismatch at {}", va);
        }
    }
}

// ----------------------------------------------------------------------
// Demand-committed storage vs the dense arrays it replaced
// ----------------------------------------------------------------------

/// The eagerly zero-filled `Vec<MemWord>` SDRAM, kept as the reference
/// model: same controller timing, same SECDED handling, and the dense
/// run-length checkpoint loop whose bytes `Sdram::save_state` must match.
struct DenseSdram {
    cfg: SdramConfig,
    words: Vec<MemWord>,
    open_rows: Vec<Option<u64>>,
    busy_until: u64,
    stats: SdramStats,
}

impl DenseSdram {
    fn new(cfg: SdramConfig) -> DenseSdram {
        DenseSdram {
            words: vec![MemWord::new(Word::ZERO); cfg.capacity_words as usize],
            open_rows: vec![None; cfg.banks as usize],
            busy_until: 0,
            stats: SdramStats::default(),
            cfg,
        }
    }

    fn access_timing(&mut self, now: u64, addr: u64, len: u64) -> u64 {
        let start = now.max(self.busy_until);
        let row_index = addr / self.cfg.row_words;
        let (bank, row) = (
            (row_index % self.cfg.banks) as usize,
            row_index / self.cfg.banks,
        );
        let hit = self.cfg.page_mode && self.open_rows[bank] == Some(row);
        let first = if hit {
            self.stats.row_hits += 1;
            start + self.cfg.first_word_row_hit
        } else {
            self.stats.row_misses += 1;
            start + self.cfg.first_word_row_hit + self.cfg.row_miss_penalty
        };
        self.open_rows[bank] = Some(row);
        self.busy_until = first + self.cfg.burst_per_word * len.saturating_sub(1);
        self.stats.words_transferred += len;
        first
    }

    fn read_into(&mut self, now: u64, addr: u64, out: &mut [Option<MemWord>]) -> (u64, u64) {
        let len = out.len() as u64;
        let first = self.access_timing(now, addr, len);
        for (i, slot) in out.iter_mut().enumerate() {
            let cell = self.words[addr as usize + i];
            *slot = match secded::decode(cell.word.bits(), cell.ecc) {
                secded::Decoded::Clean(_) => Some(cell),
                secded::Decoded::Corrected { data, .. } => {
                    self.stats.ecc_corrected += 1;
                    let repaired = MemWord {
                        word: Word::from_raw(data, cell.word.is_pointer()),
                        sync: cell.sync,
                        ecc: secded::encode(data),
                    };
                    self.words[addr as usize + i] = repaired;
                    Some(repaired)
                }
                secded::Decoded::DoubleError => {
                    self.stats.ecc_double_errors += 1;
                    None
                }
            };
        }
        (
            first,
            first + self.cfg.burst_per_word * len.saturating_sub(1),
        )
    }

    fn write(&mut self, now: u64, addr: u64, words: &[MemWord]) -> u64 {
        let first = self.access_timing(now, addr, words.len() as u64);
        for (i, w) in words.iter().enumerate() {
            self.poke(addr + i as u64, *w);
        }
        first + self.cfg.burst_per_word * (words.len() as u64).saturating_sub(1)
    }

    fn poke(&mut self, addr: u64, w: MemWord) {
        self.words[addr as usize] = MemWord::with_sync(w.word, w.sync);
    }

    fn inject_bit_flip(&mut self, addr: u64, bit: u32) {
        let cell = &mut self.words[addr as usize];
        cell.word = Word::from_raw(cell.word.bits() ^ (1u64 << bit), cell.word.is_pointer());
    }

    fn save_state(&self, e: &mut Enc) {
        e.u64(self.cfg.capacity_words);
        let mut i = 0usize;
        while i < self.words.len() {
            let w = self.words[i];
            let mut run = 1usize;
            while i + run < self.words.len() && self.words[i + run] == w {
                run += 1;
            }
            e.u64(run as u64);
            e.u64(w.word.bits());
            e.bool(w.word.is_pointer());
            e.bool(w.sync);
            e.u8(w.ecc);
            i += run;
        }
        e.u64(0);
        e.usize(self.open_rows.len());
        for r in &self.open_rows {
            match r {
                None => e.u8(0),
                Some(v) => {
                    e.u8(1);
                    e.u64(*v);
                }
            }
        }
        e.u64(self.busy_until);
        let s = &self.stats;
        for v in [
            s.row_hits,
            s.row_misses,
            s.words_transferred,
            s.ecc_corrected,
            s.ecc_double_errors,
        ] {
            e.u64(v);
        }
    }
}

/// A capacity that is not a whole number of storage pages: the last page
/// is partial and its slack must stay unaddressable.
const ODD_CAPACITY: u64 = 1000;

fn odd_sdram_config() -> SdramConfig {
    SdramConfig {
        capacity_words: ODD_CAPACITY,
        row_words: 128,
        ..SdramConfig::default()
    }
}

fn encoded(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    save(&mut e);
    e.finish()
}

/// One step against both SDRAMs: `(kind, addr, len, value, tag+sync bits,
/// flip bit)`; kind 6 is the pipeline's remembering `probe`, kinds 7 and 8
/// the zero-time multi-word `poke_run` and `peek_run`. Bursts are clipped
/// to the capacity; the out-of-range panics have their own tests below.
type SdramOp = (u8, u64, u64, u64, u8, u32);

fn sdram_ops() -> impl Strategy<Value = Vec<SdramOp>> {
    // Half the addresses sit just below a 64-word page boundary, so
    // bursts straddle it; most pages are never written at all.
    let addr = prop_oneof![
        0..ODD_CAPACITY,
        (1u64..15, 0u64..8).prop_map(|(p, d)| p * 64 - 1 - d),
    ];
    prop::collection::vec(
        (0u8..9, addr, 1u64..=16, any::<u64>(), 0u8..4, 0u32..64),
        1..80,
    )
}

fn apply_sdram_ops(new: &mut Sdram, old: &mut DenseSdram, ops: &[SdramOp]) {
    let mut now = 0u64;
    for &(kind, addr, len, value, bits, flip) in ops {
        let len = len.min(ODD_CAPACITY - addr) as usize;
        // Sparse values: zero stores into absent pages are a path of
        // their own.
        let value = if value % 3 == 0 { 0 } else { value };
        let w = MemWord::with_sync(Word::from_raw(value, bits & 1 == 1), bits & 2 == 2);
        match kind {
            0 => {
                new.poke(addr, w);
                old.poke(addr, w);
            }
            1 => {
                let burst: Vec<MemWord> = (0..len as u64)
                    .map(|i| {
                        MemWord::with_sync(Word::from_raw(value & !i, w.word.is_pointer()), w.sync)
                    })
                    .collect();
                let done = new.write(now, addr, &burst);
                assert_eq!(done, old.write(now, addr, &burst), "write timing");
                now = done;
            }
            2 | 3 => {
                let (mut a, mut b) = (vec![None; len], vec![None; len]);
                let t = new.read_into(now, addr, &mut a);
                assert_eq!(t, old.read_into(now, addr, &mut b), "read timing");
                assert_eq!(a, b, "read of {addr}+{len}");
                now = t.0;
            }
            4 => {
                new.inject_bit_flip(addr, flip);
                old.inject_bit_flip(addr, flip);
            }
            6 => assert_eq!(new.probe(addr), old.words[addr as usize], "probe {addr}"),
            7 => {
                // Zero and non-zero words mixed in one run.
                let values: Vec<u64> = (0..len)
                    .map(|i| if (value >> i) & 1 == 1 { value } else { 0 })
                    .collect();
                let tags = if bits & 1 == 1 { value } else { 0 };
                let sync = if bits & 2 == 2 { !value } else { 0 };
                new.poke_run(addr, &values, tags, sync);
                for (i, &v) in values.iter().enumerate() {
                    let w = MemWord::with_sync(
                        Word::from_raw(v, (tags >> i) & 1 == 1),
                        (sync >> i) & 1 == 1,
                    );
                    old.poke(addr + i as u64, w);
                }
            }
            8 => {
                let mut got = vec![!0; len];
                let (tags, sync) = new.peek_run(addr, &mut got);
                assert!(len == 64 || (tags | sync) >> len == 0, "masks past the run");
                for (i, &v) in got.iter().enumerate() {
                    let want = old.words[addr as usize + i];
                    assert_eq!(v, want.word.bits(), "peek_run {addr}+{i}");
                    assert_eq!((tags >> i) & 1 == 1, want.word.is_pointer());
                    assert_eq!((sync >> i) & 1 == 1, want.sync);
                }
            }
            _ => {
                // A double upset: uncorrectable until overwritten.
                for bit in [flip, (flip + 1) % 64] {
                    new.inject_bit_flip(addr, bit);
                    old.inject_bit_flip(addr, bit);
                }
            }
        }
        assert_eq!(new.peek(addr), old.words[addr as usize], "peek {addr}");
        assert_eq!(new.stats(), old.stats);
    }
}

/// The paged SDRAM is indistinguishable from the dense array over
/// `ops`: every word, statistic and cycle, and the checkpoint bytes.
fn check_sdram_against_dense(ops: &[SdramOp], more: &[SdramOp]) {
    let mut new = Sdram::new(odd_sdram_config());
    let mut old = DenseSdram::new(odd_sdram_config());
    apply_sdram_ops(&mut new, &mut old, ops);
    for addr in 0..ODD_CAPACITY {
        assert_eq!(new.peek(addr), old.words[addr as usize], "word {addr}");
    }

    // Byte-for-byte the dense run-length format...
    let bytes = encoded(|e| new.save_state(e));
    assert_eq!(&bytes, &encoded(|e| old.save_state(e)));
    // ...which restores into a fresh array and into a lived-in one
    // (whose own pages must not show through), and re-encodes equal.
    let mut fresh = Sdram::new(odd_sdram_config());
    let mut used = Sdram::new(odd_sdram_config());
    apply_sdram_ops(&mut used, &mut DenseSdram::new(odd_sdram_config()), more);
    for restored in [&mut fresh, &mut used] {
        let mut d = Dec::new(&bytes);
        restored.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(&encoded(|e| restored.save_state(e)), &bytes);
    }
    // The restored array behaves like the original from here on.
    apply_sdram_ops(&mut fresh, &mut old, more);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_sdram_matches_dense_array(ops in sdram_ops(), more in sdram_ops()) {
        check_sdram_against_dense(&ops, &more);
    }
}

/// The page table covers only the pages up to the highest one committed,
/// so the ends of it are cases of their own: accesses past the grown
/// table (empty, then one page long), and a first commit at the last
/// legal word, whose page is the partial one.
#[test]
fn sdram_table_grows_to_the_highest_committed_page() {
    const LAST: u64 = ODD_CAPACITY - 1;
    // (kind, addr, len, value, tag+sync bits, flip bit): 0 poke, 1 write
    // burst, 2 read burst, 4 single upset.
    let past_the_table: [SdramOp; 7] = [
        (2, LAST, 1, 0, 0, 0),
        (2, LAST - 11, 12, 0, 0, 0),
        (0, LAST, 1, 0, 0, 0), // a zero store commits nothing
        (0, 5, 1, 7, 3, 0),    // the table is now one page long
        (2, 60, 8, 0, 0, 0),   // out of its only page, past its end
        (2, LAST - 11, 12, 0, 0, 0),
        (1, LAST - 3, 4, 7, 1, 0),
    ];
    let highest_first: [SdramOp; 3] = [
        (0, LAST, 1, 7, 2, 0),
        (4, LAST - 1, 1, 0, 0, 9),
        (2, 0, 16, 0, 0, 0),
    ];
    let upset_first: [SdramOp; 2] = [(4, LAST, 1, 0, 0, 63), (2, LAST, 1, 0, 0, 0)];
    check_sdram_against_dense(&past_the_table, &highest_first);
    check_sdram_against_dense(&highest_first, &past_the_table);
    check_sdram_against_dense(&upset_first, &[]);
}

#[test]
#[should_panic(expected = "out of range")]
fn sdram_peek_in_last_page_slack_panics() {
    let _ = Sdram::new(odd_sdram_config()).peek(ODD_CAPACITY);
}

#[test]
#[should_panic(expected = "out of range")]
fn sdram_poke_in_last_page_slack_panics() {
    Sdram::new(odd_sdram_config()).poke(ODD_CAPACITY + 3, MemWord::new(Word::from_u64(1)));
}

#[test]
#[should_panic(expected = "out of range")]
fn sdram_bit_flip_in_last_page_slack_panics() {
    Sdram::new(odd_sdram_config()).inject_bit_flip(ODD_CAPACITY, 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn sdram_burst_into_last_page_slack_panics() {
    let _ = Sdram::new(odd_sdram_config()).write(0, ODD_CAPACITY - 4, &[MemWord::default(); 8]);
}

/// Committing the partial last page puts its slack inside the table; it
/// stays outside the array.
#[test]
#[should_panic(expected = "out of range")]
fn sdram_slack_of_a_committed_last_page_panics() {
    let mut d = Sdram::new(odd_sdram_config());
    d.poke(ODD_CAPACITY - 1, MemWord::new(Word::from_u64(1)));
    let _ = d.peek(ODD_CAPACITY);
}

/// The dense `Vec<Line>` cache, kept as the reference model, with the
/// checkpoint loop whose bytes `Cache::save_state` must match.
#[derive(Clone, Default)]
struct DenseLine {
    valid: bool,
    tag: u64,
    dirty: bool,
    writable: bool,
    pa_base: u64,
    data: [MemWord; LINE_WORDS as usize],
}

struct DenseCache {
    lines: Vec<DenseLine>,
    stats: CacheStats,
}

/// What `fill`/`invalidate`/`downgrade` hand back for write-back.
type Evicted = Option<(u64, u64, [MemWord; LINE_WORDS as usize])>;

impl DenseCache {
    fn new(cfg: &CacheConfig) -> DenseCache {
        DenseCache {
            lines: vec![DenseLine::default(); cfg.num_lines() as usize],
            stats: CacheStats::default(),
        }
    }

    fn slot(&mut self, va: u64) -> (usize, u64) {
        let n = self.lines.len() as u64;
        (((va / LINE_WORDS) % n) as usize, va / LINE_WORDS / n)
    }

    fn hit(&mut self, va: u64) -> Option<&mut DenseLine> {
        let (idx, tag) = self.slot(va);
        Some(&mut self.lines[idx]).filter(|l| l.valid && l.tag == tag)
    }

    fn peek(&mut self, va: u64) -> Option<MemWord> {
        self.hit(va).map(|l| l.data[(va % LINE_WORDS) as usize])
    }

    fn read(&mut self, va: u64) -> Option<MemWord> {
        let w = self.peek(va);
        if w.is_some() {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        w
    }

    fn write(&mut self, va: u64, w: MemWord, count: bool) -> StoreOutcome {
        match self.hit(va) {
            None => {
                self.stats.write_misses += u64::from(count);
                StoreOutcome::Miss
            }
            Some(l) if !l.writable => StoreOutcome::NotWritable,
            Some(l) => {
                l.data[(va % LINE_WORDS) as usize] = w;
                l.dirty = true;
                self.stats.write_hits += u64::from(count);
                StoreOutcome::Written
            }
        }
    }

    fn set_sync(&mut self, va: u64, sync: bool) -> StoreOutcome {
        match self.peek(va) {
            Some(w) => self.write(va, MemWord { sync, ..w }, false),
            None => StoreOutcome::Miss,
        }
    }

    fn poke(&mut self, va: u64, w: MemWord) -> bool {
        self.hit(va).is_some_and(|l| {
            l.data[(va % LINE_WORDS) as usize] = w;
            l.dirty = true;
            true
        })
    }

    fn fill(&mut self, va: u64, pa: u64, data: [MemWord; 8], writable: bool) -> Evicted {
        let (idx, tag) = self.slot(va);
        let n = self.lines.len() as u64;
        let l = &mut self.lines[idx];
        let victim = (l.valid && l.dirty).then(|| {
            self.stats.writebacks += 1;
            ((l.tag * n + idx as u64) * LINE_WORDS, l.pa_base, l.data)
        });
        *l = DenseLine {
            valid: true,
            tag,
            dirty: false,
            writable,
            pa_base: pa & !(LINE_WORDS - 1),
            data,
        };
        victim
    }

    /// `invalidate` (`keep == false`) or `downgrade` (`keep == true`).
    fn drop_rights(&mut self, va: u64, keep: bool) -> Evicted {
        let l = self.hit(va)?;
        l.valid = keep;
        l.writable = false;
        let victim = l
            .dirty
            .then_some((va & !(LINE_WORDS - 1), l.pa_base, l.data));
        l.dirty = false;
        self.stats.writebacks += u64::from(victim.is_some());
        victim
    }

    fn save_state(&self, e: &mut Enc) {
        e.u64(self.lines.len() as u64);
        e.usize(self.lines.iter().filter(|l| l.valid).count());
        for (idx, l) in self.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            e.usize(idx);
            e.u64(l.tag);
            e.bool(l.dirty);
            e.bool(l.writable);
            e.u64(l.pa_base);
            for w in &l.data {
                e.u64(w.word.bits());
                e.bool(w.word.is_pointer());
                e.bool(w.sync);
                e.u8(w.ecc);
            }
        }
        let s = &self.stats;
        for v in [
            s.read_hits,
            s.read_misses,
            s.write_hits,
            s.write_misses,
            s.writebacks,
        ] {
            e.u64(v);
        }
    }
}

/// `(kind, va, value, flag)` against both caches; kind 9 is the
/// pipeline's remembering `probe`.
type CacheOp = (u8, u64, u64, bool);

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    // 32 lines of 8 words: 1024 words of address space is four tags per
    // index, so fills conflict; a short run leaves indices unfilled.
    prop::collection::vec((0u8..10, 0u64..1024, any::<u64>(), any::<bool>()), 1..120)
}

fn small_cache_config() -> CacheConfig {
    CacheConfig {
        banks: 4,
        words_per_bank: 64,
    }
}

fn apply_cache_ops(new: &mut Cache, old: &mut DenseCache, ops: &[CacheOp]) {
    let evicted = |v: Option<Victim>| v.map(|v| (v.va, v.pa, v.data));
    for &(kind, va, value, flag) in ops {
        // Check bits that need not match the data: the cache keeps
        // whatever it is handed.
        let w = MemWord {
            word: Word::from_raw(value, value % 5 == 0),
            sync: flag,
            ecc: (value >> 7) as u8,
        };
        match kind {
            // Fills are the only way in, so make them common.
            0..=2 => {
                let line: [MemWord; 8] = std::array::from_fn(|i| MemWord {
                    word: Word::from_raw(value ^ i as u64, (value >> i) & 1 == 1),
                    sync: (value >> (8 + i)) & 1 == 1,
                    ecc: (value >> (16 + i)) as u8,
                });
                let pa = value % 4096;
                assert_eq!(
                    evicted(new.fill(va, pa, line, flag)),
                    old.fill(va, pa, line, flag),
                    "fill {va}"
                );
            }
            3 => assert_eq!(new.read(va), old.read(va), "read {va}"),
            4 => assert_eq!(new.write(va, w), old.write(va, w, true), "write {va}"),
            5 => assert_eq!(
                new.set_sync(va, flag),
                old.set_sync(va, flag),
                "set_sync {va}"
            ),
            6 => assert_eq!(new.poke(va, w), old.poke(va, w), "poke {va}"),
            7 => assert_eq!(
                evicted(new.invalidate(va)),
                old.drop_rights(va, false),
                "invalidate {va}"
            ),
            9 => assert_eq!(new.probe(va), old.peek(va), "probe {va}"),
            _ => assert_eq!(
                evicted(new.downgrade(va)),
                old.drop_rights(va, true),
                "downgrade {va}"
            ),
        }
        assert_eq!(new.peek(va), old.peek(va), "peek {va}");
        assert_eq!(new.contains(va), old.peek(va).is_some());
        assert_eq!(new.stats(), old.stats);
    }
}

/// The demand-committed cache is indistinguishable from the dense line
/// array over `ops`: every outcome, victim and statistic, and the
/// checkpoint bytes.
fn check_cache_against_dense(ops: &[CacheOp], more: &[CacheOp]) {
    let cfg = small_cache_config();
    let mut new = Cache::new(cfg.clone());
    let mut old = DenseCache::new(&cfg);
    apply_cache_ops(&mut new, &mut old, ops);

    let bytes = encoded(|e| new.save_state(e));
    assert_eq!(&bytes, &encoded(|e| old.save_state(e)));
    let mut fresh = Cache::new(cfg.clone());
    let mut used = Cache::new(cfg.clone());
    apply_cache_ops(&mut used, &mut DenseCache::new(&cfg), more);
    for restored in [&mut fresh, &mut used] {
        let mut d = Dec::new(&bytes);
        restored.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(&encoded(|e| restored.save_state(e)), &bytes);
    }
    apply_cache_ops(&mut fresh, &mut old, more);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_cache_matches_dense_lines(ops in cache_ops(), more in cache_ops()) {
        check_cache_against_dense(&ops, &more);
    }
}

/// The slot table covers only the line indices up to the highest one
/// filled: every access kind past the grown table (empty, then one slot
/// long) misses like a never-filled line, and the first fill may land on
/// the last index.
#[test]
fn cache_slot_table_grows_to_the_highest_filled_index() {
    // 32 lines of 8 words: index 31 is va 248..256 (and 504.., 760..).
    const LAST: u64 = 31 * LINE_WORDS;
    // (kind, va, value, flag): 0 fill, 3 read, 4 write, 5 set_sync,
    // 6 poke, 7 invalidate, 8 downgrade.
    let misses = |va| (3..=8).map(move |kind| (kind, va, 7, true));
    let mut past_the_table: Vec<CacheOp> = misses(LAST + 3).collect();
    past_the_table.push((0, 4, 7, true)); // the table is now one slot long
    past_the_table.extend(misses(LAST + 3));
    past_the_table.extend(misses(LINE_WORDS));
    let highest_first: Vec<CacheOp> = vec![
        (0, LAST + 256, 11, true),
        (4, LAST + 257, 13, false),
        (3, LAST, 0, false),  // same index, another tag
        (0, LAST, 17, false), // evicts the dirty line
        (3, 0, 0, false),     // inside the grown table, never filled
    ];
    check_cache_against_dense(&past_the_table, &highest_first);
    check_cache_against_dense(&highest_first, &past_the_table);
}

// ----------------------------------------------------------------------
// The LTLB's open-addressed index vs the hash map it replaced
// ----------------------------------------------------------------------

/// The LTLB as it was with a `HashMap<vpn, slot>` index, kept as the
/// reference model: same slots, LRU stamps, statistics and checkpoint
/// loop.
struct MapLtlb {
    entries: Vec<Option<LtlbEntry>>,
    last_use: Vec<u64>,
    map: HashMap<u64, usize>,
    clock: u64,
    stats: LtlbStats,
}

impl MapLtlb {
    fn new(capacity: usize) -> MapLtlb {
        MapLtlb {
            entries: vec![None; capacity],
            last_use: vec![0; capacity],
            map: HashMap::with_capacity(capacity),
            clock: 0,
            stats: LtlbStats::default(),
        }
    }

    fn lookup(&mut self, vpn: u64) -> Option<&mut LtlbEntry> {
        self.clock += 1;
        if let Some(&i) = self.map.get(&vpn) {
            self.stats.hits += 1;
            self.last_use[i] = self.clock;
            return self.entries[i].as_mut();
        }
        self.stats.misses += 1;
        None
    }

    fn find_mut(&mut self, vpn: u64) -> Option<&mut LtlbEntry> {
        let i = *self.map.get(&vpn)?;
        self.entries[i].as_mut()
    }

    fn probe(&self, vpn: u64) -> Option<&LtlbEntry> {
        let i = *self.map.get(&vpn)?;
        self.entries[i].as_ref()
    }

    fn insert(&mut self, entry: LtlbEntry) -> Option<LtlbEntry> {
        self.clock += 1;
        if let Some(&i) = self.map.get(&entry.vpn) {
            let old = self.entries[i].replace(entry);
            self.last_use[i] = self.clock;
            return old;
        }
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if slot.is_none() {
                self.map.insert(entry.vpn, i);
                *slot = Some(entry);
                self.last_use[i] = self.clock;
                return None;
            }
        }
        let victim = self
            .last_use
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("non-empty LTLB");
        self.stats.evictions += 1;
        let old = self.entries[victim].replace(entry);
        if let Some(e) = &old {
            self.map.remove(&e.vpn);
        }
        self.map.insert(entry.vpn, victim);
        self.last_use[victim] = self.clock;
        old
    }

    fn invalidate(&mut self, vpn: u64) -> Option<LtlbEntry> {
        let i = self.map.remove(&vpn)?;
        self.entries[i].take()
    }

    fn save_state(&self, e: &mut Enc) {
        e.usize(self.entries.len());
        for (slot, lu) in self.entries.iter().zip(&self.last_use) {
            match slot {
                None => e.u8(0),
                Some(en) => {
                    e.u8(1);
                    e.u64(en.vpn);
                    e.u64(en.ppn);
                    e.u64(en.status_lo);
                    e.u64(en.status_hi);
                    e.u64(en.lpt_addr);
                }
            }
            e.u64(*lu);
        }
        e.u64(self.clock);
        e.u64(self.stats.hits);
        e.u64(self.stats.misses);
        e.u64(self.stats.evictions);
    }

    fn load_state(&mut self, d: &mut Dec<'_>) {
        let n = d.usize().unwrap();
        assert_eq!(n, self.entries.len());
        self.map.clear();
        for i in 0..n {
            self.entries[i] = match d.u8().unwrap() {
                0 => None,
                _ => {
                    let en = LtlbEntry {
                        vpn: d.u64().unwrap(),
                        ppn: d.u64().unwrap(),
                        status_lo: d.u64().unwrap(),
                        status_hi: d.u64().unwrap(),
                        lpt_addr: d.u64().unwrap(),
                    };
                    self.map.insert(en.vpn, i);
                    Some(en)
                }
            };
            self.last_use[i] = d.u64().unwrap();
        }
        self.clock = d.u64().unwrap();
        self.stats = LtlbStats {
            hits: d.u64().unwrap(),
            misses: d.u64().unwrap(),
            evictions: d.u64().unwrap(),
        };
    }
}

/// `(kind, vpn, ppn, block)` against both LTLBs.
type LtlbOp = (u8, u64, u64, u64);

fn ltlb_ops() -> impl Strategy<Value = Vec<LtlbOp>> {
    // A dozen small vpns (so inserts hit resident pages, evict and
    // collide in the index) plus the odd arbitrary one.
    let vpn = prop_oneof![0u64..12, 0u64..12, 0u64..12, any::<u64>()];
    prop::collection::vec((0u8..8, vpn, 0u64..64, 0u64..64), 1..100)
}

fn apply_ltlb_ops(new: &mut Ltlb, old: &mut MapLtlb, ops: &[LtlbOp]) {
    for &(kind, vpn, ppn, block) in ops {
        let status = BlockStatus::from_bits(ppn as u8);
        match kind {
            0..=2 => {
                let e = LtlbEntry::uniform(vpn, ppn, status, ppn * 4);
                assert_eq!(new.insert(e), old.insert(e), "insert {vpn}");
            }
            3 => {
                let (a, b) = (new.lookup(vpn), old.lookup(vpn));
                assert_eq!(a.as_deref(), b.as_deref(), "lookup {vpn}");
                // A write through the returned entry must land in both.
                if let (Some(a), Some(b)) = (a, b) {
                    a.set_block_status(block, status);
                    b.set_block_status(block, status);
                }
            }
            4 => {
                let (a, b) = (new.find_mut(vpn), old.find_mut(vpn));
                assert_eq!(a.as_deref(), b.as_deref(), "find_mut {vpn}");
                if let (Some(a), Some(b)) = (a, b) {
                    a.set_block_status(block, BlockStatus::Dirty);
                    b.set_block_status(block, BlockStatus::Dirty);
                }
            }
            5 => assert_eq!(new.invalidate(vpn), old.invalidate(vpn), "invalidate {vpn}"),
            6 => {
                // Round trip both through their own bytes, which must match.
                let bytes = encoded(|e| new.save_state(e));
                assert_eq!(&bytes, &encoded(|e| old.save_state(e)), "checkpoint bytes");
                new.load_state(&mut Dec::new(&bytes)).expect("load");
                old.load_state(&mut Dec::new(&bytes));
            }
            _ => {}
        }
        assert_eq!(new.probe(vpn), old.probe(vpn), "probe {vpn}");
        assert_eq!(new.stats(), old.stats);
        let resident: Vec<LtlbEntry> = new.iter().copied().collect();
        let expect: Vec<LtlbEntry> = old.entries.iter().flatten().copied().collect();
        assert_eq!(resident, expect, "resident entries");
    }
    for vpn in 0..12 {
        assert_eq!(new.probe(vpn), old.probe(vpn), "probe {vpn}");
    }
    assert_eq!(
        encoded(|e| new.save_state(e)),
        encoded(|e| old.save_state(e))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The open-addressed index answers every lookup, probe, insert,
    /// eviction and invalidation exactly as the hash map did, with equal
    /// statistics and checkpoint bytes, at capacities from one slot
    /// (index of two buckets) to more slots than the vpns in play.
    #[test]
    fn ltlb_index_matches_hash_map(ops in ltlb_ops(), capacity in 1usize..16) {
        let mut new = Ltlb::new(capacity);
        let mut old = MapLtlb::new(capacity);
        apply_ltlb_ops(&mut new, &mut old, &ops);
    }
}

/// A hand-made checkpoint may hold one vpn in two slots: the later slot
/// answers, as the hash map's last insert did, through lookups,
/// replacement, eviction and invalidation.
#[test]
fn ltlb_duplicate_vpn_checkpoint_resolves_like_the_map() {
    let entry = |vpn, ppn| LtlbEntry::uniform(vpn, ppn, BlockStatus::ReadWrite, 0);
    let mut e = Enc::new();
    e.usize(3);
    for (i, en) in [entry(7, 1), entry(7, 2), entry(9, 3)].iter().enumerate() {
        e.u8(1);
        for v in [en.vpn, en.ppn, en.status_lo, en.status_hi, en.lpt_addr] {
            e.u64(v);
        }
        e.u64(i as u64);
    }
    for v in [10u64, 0, 0, 0] {
        e.u64(v);
    }
    let bytes = e.finish();
    let mut new = Ltlb::new(3);
    let mut old = MapLtlb::new(3);
    new.load_state(&mut Dec::new(&bytes)).expect("load");
    old.load_state(&mut Dec::new(&bytes));
    assert_eq!(new.probe(7).map(|e| e.ppn), Some(2));
    // Evicts slot 0 (a duplicate nobody indexes): the map dropped vpn 7
    // altogether, so must the index.
    let ops: [LtlbOp; 6] = [
        (0, 11, 5, 0),
        (3, 7, 0, 0),
        (0, 7, 6, 0),
        (5, 7, 0, 0),
        (3, 9, 0, 0),
        (6, 0, 0, 0),
    ];
    apply_ltlb_ops(&mut new, &mut old, &ops);
}
