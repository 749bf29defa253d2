//! Integration tests for the memory-system pipeline, including the local
//! rows of the paper's Table 1.

use mm_isa::op::{SyncPost, SyncPre};
use mm_isa::word::Word;
use mm_mem::lpt::Lpt;
use mm_mem::ltlb::{BlockStatus, LtlbEntry, PAGE_WORDS};
use mm_mem::memsys::{AccessKind, MemConfig, MemEventKind, MemRequest, MemResponse, MemorySystem};
use mm_mem::{MemEvent, MemWord};

/// Advance `ms` one cycle and return what completed, in buffers of its
/// own (the cycle engines recycle theirs across steps).
fn step(ms: &mut MemorySystem, now: u64) -> (Vec<MemResponse>, Vec<MemEvent>) {
    let (mut responses, mut events) = (Vec::new(), Vec::new());
    ms.step_into(now, &mut responses, &mut events);
    (responses, events)
}

/// A memory system with vpn 0..8 mapped to ppn 16.. and the LPT at 1024.
fn booted() -> MemorySystem {
    let mut ms = MemorySystem::new(MemConfig::default());
    let lpt = Lpt::new(1024, 64);
    ms.set_lpt(lpt);
    for vpn in 0..8 {
        let entry = LtlbEntry::uniform(vpn, 16 + vpn, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
        assert!(ms.tlb_install(slot));
    }
    ms
}

/// Run until the response for `id` arrives; returns (response, cycle).
fn run_until_resp(ms: &mut MemorySystem, id: u64, limit: u64) -> (MemResponse, u64) {
    for cycle in 0..limit {
        let (resps, events) = step(ms, cycle);
        assert!(
            events.is_empty(),
            "unexpected events at cycle {cycle}: {events:?}"
        );
        if let Some(r) = resps.into_iter().find(|r| r.req.id == id) {
            return (r, cycle);
        }
    }
    panic!("no response for request {id} within {limit} cycles");
}

/// Run until any event arrives.
fn run_until_event(ms: &mut MemorySystem, limit: u64) -> MemEvent {
    for cycle in 0..limit {
        let (_, events) = step(ms, cycle);
        if let Some(e) = events.into_iter().next() {
            return e;
        }
    }
    panic!("no event within {limit} cycles");
}

#[test]
fn table1_local_read_miss_then_hit() {
    let mut ms = booted();
    // Cold access: local cache miss — paper says 13 cycles.
    ms.submit(MemRequest::load(1, 8, 0)).unwrap();
    let (r, _) = run_until_resp(&mut ms, 1, 100);
    // Row miss on a cold DRAM adds the precharge penalty over Table 1's
    // open-row number: 13 + 6.
    assert_eq!(r.ready, 13 + 6, "cold (row-miss) local read");

    // Warm DRAM row, cold cache line: exactly the paper's 13 cycles.
    let t0 = 40;
    ms.submit(MemRequest::load(2, 16, 0)).unwrap();
    for cycle in t0..t0 + 1 {
        let _ = cycle;
    }
    let mut issued_at = None;
    for cycle in t0..t0 + 100 {
        if issued_at.is_none() {
            issued_at = Some(cycle);
        }
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 2) {
            assert_eq!(r.ready - t0, 13, "warm-row local cache-miss read");
            break;
        }
        assert!(cycle < t0 + 50, "no response");
    }

    // Now a hit: paper says 3 cycles.
    let t1 = 100;
    ms.submit(MemRequest::load(3, 16, 0)).unwrap();
    for cycle in t1..t1 + 20 {
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 3) {
            assert_eq!(r.ready - t1, 3, "local cache-hit read");
            return;
        }
    }
    panic!("no hit response");
}

#[test]
fn table1_local_write_hit_and_miss() {
    let mut ms = booted();
    // Warm the DRAM row with a read of another line in the same row.
    ms.submit(MemRequest::load(1, 64, 0)).unwrap();
    let _ = run_until_resp(&mut ms, 1, 100);

    // Cache-miss write to a warm row: paper says 19 cycles.
    let t0 = 50;
    ms.submit(MemRequest::store(2, 80, Word::from_u64(42), 0))
        .unwrap();
    let mut done = false;
    for cycle in t0..t0 + 60 {
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 2) {
            assert_eq!(r.ready - t0, 19, "local cache-miss write");
            done = true;
            break;
        }
    }
    assert!(done);

    // Write hit: paper says 2 cycles.
    let t1 = 150;
    ms.submit(MemRequest::store(3, 81, Word::from_u64(43), 0))
        .unwrap();
    for cycle in t1..t1 + 20 {
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 3) {
            assert_eq!(r.ready - t1, 2, "local cache-hit write");
            // And the data is really there.
            assert_eq!(ms.peek_va(81).unwrap().word.bits(), 43);
            return;
        }
    }
    panic!("no write-hit response");
}

#[test]
fn ltlb_miss_raises_event_with_request() {
    let mut ms = booted();
    let va = 100 * PAGE_WORDS; // unmapped page
    ms.submit(MemRequest::load(9, va, 7)).unwrap();
    let e = run_until_event(&mut ms, 50);
    assert_eq!(e.kind, MemEventKind::LtlbMiss);
    assert_eq!(e.req.id, 9);
    assert_eq!(e.req.va, va);
    assert_eq!(e.req.tag, 7);
    // Event is raised ~4 cycles in (2 detect + 1 translate + lookup).
    assert!(e.at <= 5, "LTLB miss event at cycle {}", e.at);
}

#[test]
fn replay_after_tlb_install_completes() {
    let mut ms = booted();
    let vpn = 100;
    let va = vpn * PAGE_WORDS + 3;
    ms.submit(MemRequest::load(9, va, 0)).unwrap();
    let e = run_until_event(&mut ms, 50);
    assert_eq!(e.kind, MemEventKind::LtlbMiss);

    // "Software" installs the mapping and replays (what mrestart does).
    let lpt = ms.lpt().unwrap();
    let entry = LtlbEntry::uniform(vpn, 30, BlockStatus::ReadWrite, 0);
    let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
    assert!(ms.tlb_install(slot));
    ms.submit(e.req).unwrap();
    let (r, _) = run_until_resp(&mut ms, 9, 200);
    assert_eq!(r.value.bits(), 0);
}

#[test]
fn block_status_fault_on_invalid_block() {
    let mut ms = booted();
    let vpn = 5;
    // Mark block 0 of page 5 invalid.
    let lpt = ms.lpt().unwrap();
    let mut entry = LtlbEntry::uniform(vpn, 21, BlockStatus::ReadWrite, 0);
    entry.set_block_status(0, BlockStatus::Invalid);
    let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
    assert!(ms.tlb_install(slot));

    ms.submit(MemRequest::load(1, vpn * PAGE_WORDS, 0)).unwrap();
    let e = run_until_event(&mut ms, 50);
    assert_eq!(
        e.kind,
        MemEventKind::BlockStatusFault {
            status: BlockStatus::Invalid
        }
    );
    // Block 1 is fine.
    ms.submit(MemRequest::load(2, vpn * PAGE_WORDS + 8, 0))
        .unwrap();
    let (r, _) = run_until_resp(&mut ms, 2, 100);
    assert_eq!(r.value.bits(), 0);
}

#[test]
fn store_to_read_only_block_faults_even_on_cache_hit() {
    let mut ms = booted();
    let vpn = 6;
    let lpt = ms.lpt().unwrap();
    let entry = LtlbEntry::uniform(vpn, 22, BlockStatus::ReadOnly, 0);
    let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
    assert!(ms.tlb_install(slot));
    let va = vpn * PAGE_WORDS;

    // Load it into the cache (fills a non-writable line).
    ms.submit(MemRequest::load(1, va, 0)).unwrap();
    let _ = run_until_resp(&mut ms, 1, 100);

    // Store must fault despite the cache hit.
    let t = 60;
    ms.submit(MemRequest::store(2, va, Word::from_u64(1), 0))
        .unwrap();
    for cycle in t..t + 30 {
        let (_, events) = step(&mut ms, cycle);
        if let Some(e) = events.first() {
            assert!(matches!(e.kind, MemEventKind::BlockStatusFault { .. }));
            return;
        }
    }
    panic!("store to read-only cached block did not fault");
}

#[test]
fn dirty_marking_in_block_status() {
    let mut ms = booted();
    ms.submit(MemRequest::store(1, 8, Word::from_u64(5), 0))
        .unwrap();
    let _ = run_until_resp(&mut ms, 1, 100);
    let entry = ms.ltlb_probe(0).unwrap();
    assert_eq!(entry.block_status(1), BlockStatus::Dirty);
    assert_eq!(entry.block_status(0), BlockStatus::ReadWrite);
}

#[test]
fn sync_precondition_faults() {
    let mut ms = booted();
    // Word 8 is empty initially; a pre=Full load must sync-fault.
    let mut req = MemRequest::load(1, 8, 0);
    req.pre = SyncPre::Full;
    ms.submit(req).unwrap();
    let e = run_until_event(&mut ms, 50);
    assert_eq!(e.kind, MemEventKind::SyncFault { sync_was: false });

    // Producer: store with post=SetFull.
    let mut st = MemRequest::store(2, 8, Word::from_u64(77), 0);
    st.post = SyncPost::SetFull;
    ms.submit(st).unwrap();
    let _ = run_until_resp(&mut ms, 2, 200);

    // Consumer: load pre=Full post=SetEmpty now succeeds and empties.
    let t = 100;
    let mut ld = MemRequest::load(3, 8, 0);
    ld.pre = SyncPre::Full;
    ld.post = SyncPost::SetEmpty;
    ms.submit(ld).unwrap();
    for cycle in t..t + 50 {
        let (resps, events) = step(&mut ms, cycle);
        assert!(events.is_empty());
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 3) {
            assert_eq!(r.value.bits(), 77);
            assert!(!ms.peek_va(8).unwrap().sync, "post=SetEmpty applied");
            return;
        }
    }
    panic!("synchronizing load did not complete");
}

#[test]
fn phys_access_bypasses_translation() {
    let mut ms = booted();
    let mut st = MemRequest::store(1, 2000, Word::from_u64(9), 0);
    st.phys = true;
    ms.submit(st).unwrap();
    let (r, _) = run_until_resp(&mut ms, 1, 20);
    assert_eq!(r.ready, 2);
    let mut ld = MemRequest::load(2, 2000, 0);
    ld.phys = true;
    let t = 10;
    ms.submit(ld).unwrap();
    for cycle in t..t + 20 {
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 2) {
            assert_eq!(r.value.bits(), 9);
            assert_eq!(r.ready - t, 3);
            return;
        }
    }
    panic!("phys load incomplete");
}

#[test]
fn bank_queue_overflow_stalls() {
    let mut ms = booted();
    // Same bank (va % 4 == 0): depth is 4.
    for i in 0..4 {
        ms.submit(MemRequest::load(i, i * 4, 0)).unwrap();
    }
    let rejected = ms.submit(MemRequest::load(99, 16, 0));
    assert!(rejected.is_err());
    assert_eq!(ms.stats().bank_stalls, 1);
    // Different bank still accepts.
    ms.submit(MemRequest::load(100, 1, 0)).unwrap();
}

/// Every bank has a queue of its own, the banks past the four kept
/// inline included: each fills to the depth independently and retires
/// one request per cycle.
#[test]
fn eight_bank_queues_fill_and_drain_independently() {
    let mut cfg = MemConfig::default();
    cfg.cache.banks = 8;
    cfg.cache.words_per_bank = 2048;
    let mut ms = MemorySystem::new(cfg);
    for bank in 0..8u64 {
        for k in 0..4 {
            let id = bank * 4 + k;
            assert!(ms.can_accept(bank + 8 * k, false), "bank {bank} entry {k}");
            ms.submit(MemRequest::load(id, bank + 8 * k, 0)).unwrap();
        }
        assert!(!ms.can_accept(bank, false), "bank {bank} is full");
        assert!(ms.submit(MemRequest::load(99, bank + 64, 0)).is_err());
    }
    assert_eq!(ms.stats().bank_stalls, 8);
    // Unmapped loads: each retired request raises an LTLB miss a few
    // cycles on, eight per cycle, in bank order.
    let (mut resps, mut events) = (Vec::new(), Vec::new());
    for cycle in 0..16 {
        ms.step_into(cycle, &mut resps, &mut events);
    }
    let ids: Vec<u64> = events.iter().map(|e| e.req.id).collect();
    let expect: Vec<u64> = (0..4)
        .flat_map(|k| (0..8).map(move |b| b * 4 + k))
        .collect();
    assert_eq!(ids, expect);
}

#[test]
fn writeback_on_eviction_preserves_data() {
    let ms = booted();
    // Dirty a line, then evict it by filling the conflicting line
    // (cache has 2048 lines of 8 words: conflict stride = 16384 words).
    // Page space is limited, so shrink: use a small cache instead.
    let mut cfg = MemConfig::default();
    cfg.cache.words_per_bank = 64; // 32 lines, stride 256 words
    let mut ms2 = MemorySystem::new(cfg);
    let lpt = Lpt::new(2048, 64);
    ms2.set_lpt(lpt);
    for vpn in 0..2 {
        let entry = LtlbEntry::uniform(vpn, 16 + vpn, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms2.sdram_mut(), &entry).unwrap();
        assert!(ms2.tlb_install(slot));
    }
    drop(ms);

    ms2.submit(MemRequest::store(1, 8, Word::from_u64(123), 0))
        .unwrap();
    let _ = run_until_resp(&mut ms2, 1, 100);
    // Evict va 8's line by loading va 8+256 (same index, different tag).
    ms2.submit(MemRequest::load(2, 8 + 256, 0)).unwrap();
    let _ = run_until_resp(&mut ms2, 2, 200);
    // The dirty data must have reached DRAM: read it back.
    let t = 300;
    ms2.submit(MemRequest::load(3, 8, 0)).unwrap();
    for cycle in t..t + 100 {
        let (resps, _) = step(&mut ms2, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 3) {
            assert_eq!(r.value.bits(), 123);
            return;
        }
    }
    panic!("written-back data lost");
}

#[test]
fn flush_block_writes_back_dirty_line() {
    let mut ms = booted();
    ms.submit(MemRequest::store(1, 8, Word::from_u64(5), 0))
        .unwrap();
    let _ = run_until_resp(&mut ms, 1, 100);
    // Flush pushes the dirty line to DRAM and drops it.
    ms.flush_block(8);
    let pa = ms.translate(8).unwrap();
    assert_eq!(ms.peek_phys(pa).word.bits(), 5);
}

#[test]
fn pointer_tag_survives_store_load() {
    let mut ms = booted();
    let ptr = mm_isa::GuardedPointer::new(mm_isa::Perm::ReadWrite, 4, 0x40).unwrap();
    let w = Word::from_pointer(ptr);
    ms.submit(MemRequest::store(1, 9, w, 0)).unwrap();
    let _ = run_until_resp(&mut ms, 1, 100);
    let t = 200;
    ms.submit(MemRequest::load(2, 9, 0)).unwrap();
    for cycle in t..t + 100 {
        let (resps, _) = step(&mut ms, cycle);
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 2) {
            assert!(r.value.is_pointer(), "tag lost through memory");
            assert_eq!(r.value.pointer().unwrap(), ptr);
            return;
        }
    }
    panic!("load incomplete");
}

#[test]
fn ecc_double_error_returns_errval_and_event() {
    let mut ms = booted();
    let pa = ms.translate(8).unwrap();
    ms.poke_phys(pa, MemWord::new(Word::from_u64(0xFF)));
    ms.sdram_mut().inject_bit_flip(pa, 1);
    ms.sdram_mut().inject_bit_flip(pa, 2);
    ms.submit(MemRequest::load(1, 8, 0)).unwrap();
    for cycle in 0..100 {
        let (resps, events) = step(&mut ms, cycle);
        for e in &events {
            assert_eq!(e.kind, MemEventKind::EccError);
        }
        if let Some(r) = resps.into_iter().find(|r| r.req.id == 1) {
            assert!(r.value.is_pointer());
            assert_eq!(r.value.pointer().unwrap().perm(), mm_isa::Perm::ErrVal);
            assert_eq!(ms.stats().ecc_events, 1);
            return;
        }
    }
    panic!("no ECC response");
}

#[test]
fn access_kind_and_helpers() {
    let r = MemRequest::load(1, 2, 3);
    assert_eq!(r.kind, AccessKind::Load);
    let s = MemRequest::store(1, 2, Word::from_u64(4), 3);
    assert_eq!(s.kind, AccessKind::Store);
    assert!(!s.data_ptr_tag);
}

#[test]
fn memsys_state_round_trips_mid_flight() {
    use mm_faults::{Dec, Enc};

    // Build up interesting state: a warm cache line, pending misses,
    // staged responses, and a raised event — then checkpoint mid-flight.
    let mut ms = booted();
    ms.submit(MemRequest::load(1, 8, 0)).unwrap();
    for cycle in 0..30 {
        let _ = step(&mut ms, cycle);
    }
    ms.submit(MemRequest::store(2, 8, Word::from_u64(77), 0))
        .unwrap();
    ms.submit(MemRequest::load(3, 128, 0)).unwrap(); // miss in flight
    ms.submit(MemRequest::load(4, 9 * PAGE_WORDS, 0)).unwrap(); // LTLB miss event
    let _ = step(&mut ms, 30);
    let _ = step(&mut ms, 31);

    let mut e = Enc::default();
    ms.save_state(&mut e);
    let bytes = e.finish();

    let mut restored = MemorySystem::new(MemConfig::default());
    let mut d = Dec::new(&bytes);
    restored.load_state(&mut d).unwrap();
    assert_eq!(d.remaining(), 0);

    // Re-save must be byte-identical (covers every private field the
    // codec touches).
    let mut e2 = Enc::default();
    restored.save_state(&mut e2);
    assert_eq!(e2.finish(), bytes, "re-saved checkpoint differs");

    // Running both forward produces identical responses and events.
    for cycle in 32..200 {
        let (r1, v1) = step(&mut ms, cycle);
        let (r2, v2) = step(&mut restored, cycle);
        assert_eq!(r1, r2, "responses diverge at cycle {cycle}");
        assert_eq!(v1, v2, "events diverge at cycle {cycle}");
    }
    assert_eq!(ms.stats().responses, restored.stats().responses);
    assert!(ms.is_idle() && restored.is_idle());

    // A differently-configured target refuses the checkpoint.
    let mut wrong = MemorySystem::new(MemConfig {
        ltlb_entries: 8,
        ..MemConfig::default()
    });
    assert!(wrong.load_state(&mut Dec::new(&bytes)).is_err());
}
