//! The boot image: event-handler programs in MAP assembly, the per-node
//! memory map, and the boot procedure.
//!
//! The paper's runtime is "a prototype runtime system consisting of
//! primitive message and event handlers" (§5). This module provides those
//! handlers, written in this reproduction's MAP assembly and permanently
//! resident in the event V-Thread exactly as §3.3 assigns them:
//!
//! * cluster 1 — the LTLB-miss handler: walks the LPT for local pages, or
//!   converts the access into a remote read/write message (§4.2);
//! * cluster 2 — the priority-0 message dispatcher with the remote-read
//!   and remote-write handlers (Fig. 7's code);
//! * cluster 3 — the priority-1 dispatcher with the read-reply handler
//!   that "decodes the original load destination register and writes the
//!   data directly there" via `wrreg` (§4.2).
//!
//! ## Physical memory map (per node)
//!
//! | words | contents |
//! |-------|----------|
//! | 0..1024 | reserved (vectors, scratch counters at 512..) |
//! | 1024..1024+4·slots | the LPT |
//! | 4096.. | allocatable page frames |
//!
//! ## Virtual layout
//!
//! One cyclic GDT entry maps global page *p* (1024 words) to node
//! *p mod N* across the whole machine, so node *i* owns pages
//! `i, i+N, i+2N, …` — its *k*-th local page sits at
//! `va = (i + k·N) · 1024`.

use mm_isa::asm::assemble;
use mm_isa::instr::Program;
use mm_isa::pointer::{GuardedPointer, Perm, ADDR_BITS};
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::lpt::{Lpt, ENTRY_WORDS};
use mm_mem::ltlb::{BlockStatus, LtlbEntry, PAGE_WORDS};
use mm_net::gtlb::{GdtEntry, GLOBAL_PAGE_WORDS};
use mm_net::message::NodeCoord;
use mm_sim::{Node, EVENT_SLOT};
use std::sync::{Arc, OnceLock};

/// Physical word address of the LPT.
pub const LPT_BASE: u64 = 1024;

/// The LPT's physical placement for a table of `lpt_slots` entries:
/// `(base_word, end_word)`. Guarded-pointer segments are naturally
/// aligned blocks, so a table larger than [`LPT_BASE`] words must sit
/// at its own size; the default 256-slot table stays exactly at
/// [`LPT_BASE`]. Shared by `boot_node` and by benches that size SDRAM
/// around the boot layout.
#[must_use]
pub fn lpt_layout(lpt_slots: u64) -> (u64, u64) {
    let base = LPT_BASE.max(lpt_slots * 4);
    (base, base + lpt_slots * 4)
}

/// The first page frame [`boot_node`] hands out: past both the fixed
/// reserved area and the LPT itself — a machine-sized LPT (large
/// meshes) must not be overwritten by its own page frames.
fn first_frame_ppn(lpt_slots: u64) -> u64 {
    let (_, lpt_end) = lpt_layout(lpt_slots);
    FIRST_FRAME_PPN.max(lpt_end.div_ceil(PAGE_WORDS))
}

/// Physical word address of the handler scratch counters.
pub const SCRATCH_BASE: u64 = 512;
/// First allocatable physical page number.
pub const FIRST_FRAME_PPN: u64 = 8;

/// Boot-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct BootSpec {
    /// Mesh dimensions (all powers of two).
    pub dims: (u8, u8, u8),
    /// Global (1024-word) pages owned by each node (a power of two).
    pub local_pages: u64,
    /// LPT slots (a power of two).
    pub lpt_slots: u64,
}

impl Default for BootSpec {
    fn default() -> BootSpec {
        BootSpec {
            dims: (2, 1, 1),
            local_pages: 8,
            lpt_slots: 256,
        }
    }
}

impl BootSpec {
    /// Total nodes in the machine.
    #[must_use]
    pub fn total_nodes(&self) -> u64 {
        u64::from(self.dims.0) * u64::from(self.dims.1) * u64::from(self.dims.2)
    }

    /// The virtual address of node `index`'s `k`-th local global page.
    #[must_use]
    pub fn home_va(&self, index: u64, k: u64) -> u64 {
        (index + k * self.total_nodes()) * GLOBAL_PAGE_WORDS
    }

    /// A user data pointer covering node `index`'s `k`-th local page.
    ///
    /// # Panics
    ///
    /// Panics if the computed address exceeds 54 bits (unreachable for
    /// sane specs).
    #[must_use]
    pub fn data_ptr(&self, index: u64, k: u64) -> GuardedPointer {
        GuardedPointer::new(Perm::ReadWrite, 10, self.home_va(index, k)).expect("home address fits")
    }

    /// Check that [`boot_node`] can lay this spec out on nodes with
    /// `sdram_words` of physical memory each.
    ///
    /// # Errors
    ///
    /// A description of the first constraint the spec breaks: sizes that
    /// are not powers of two, an LPT without a slot for both 512-word
    /// halves of every local page, an LPT or page frames past the end of
    /// the SDRAM, home addresses past the 54-bit virtual space.
    pub fn validate(&self, sdram_words: u64) -> Result<(), String> {
        let n = self.total_nodes();
        // A product is a power of two only if every factor is.
        if !n.is_power_of_two() {
            return Err(format!(
                "mesh dimensions {:?} must be non-zero powers of two",
                self.dims
            ));
        }
        if !self.local_pages.is_power_of_two() || !self.lpt_slots.is_power_of_two() {
            return Err("local_pages and lpt_slots must be powers of two".into());
        }
        // Physical pointers carry 54 address bits like any other, so a
        // larger array adds nothing; the cap also keeps the sums below
        // in range.
        let sdram_words = sdram_words.min(1 << ADDR_BITS);
        let mappings = self.local_pages.saturating_mul(2);
        if mappings > self.lpt_slots {
            return Err(format!(
                "lpt_slots = {} cannot map local_pages = {} ({mappings} entries)",
                self.lpt_slots, self.local_pages
            ));
        }
        if self.lpt_slots > sdram_words / (2 * ENTRY_WORDS)
            || (first_frame_ppn(self.lpt_slots) + mappings) * PAGE_WORDS > sdram_words
        {
            return Err(format!(
                "a {}-slot LPT and {mappings} page frames do not fit {sdram_words} words of SDRAM",
                self.lpt_slots
            ));
        }
        let va_bits = n.trailing_zeros()
            + self.local_pages.trailing_zeros()
            + GLOBAL_PAGE_WORDS.trailing_zeros();
        if va_bits > ADDR_BITS {
            return Err(format!(
                "{n} nodes of {} pages exceed the {ADDR_BITS}-bit address space",
                self.local_pages
            ));
        }
        Ok(())
    }

    /// Linear node index from mesh coordinates (x fastest — matching the
    /// GDT entry's region order).
    #[must_use]
    pub fn linear_index(&self, c: NodeCoord) -> u64 {
        u64::from(c.x)
            + u64::from(self.dims.0) * (u64::from(c.y) + u64::from(self.dims.1) * u64::from(c.z))
    }
}

/// The LTLB-miss handler (event V-Thread, cluster 1).
///
/// Register conventions (preloaded at boot):
/// `r11` = remote-write DIP, `r12` = remote-read DIP, `r13` = LPT slot
/// mask, `r14` = physical pointer to the LPT, `r15` = this node's reply
/// pointer (a VA homed here, carried in read requests so the reply routes
/// back).
pub const LTLB_MISS_HANDLER: &str = "\
ltlb_loop:
    mov evq, r4                 ; descriptor
    mov evq, r5                 ; faulting virtual address
    mov evq, r6                 ; store data
    ld [r10], r1                ; bookkeeping: event count
    ld [r10+#2], r2             ; LPT descriptor: slot mask
    ld [r10+#3], r3             ; LPT descriptor: generation tag
    shr r5, #9, r9              ; vpn (512-word pages)
    add r1, #1, r1
    st r1, [r10]
    brf r3, badlpt              ; descriptor sanity
    ; \"Software accesses the local page table (LPT), probes the GTLB\"
    ; (section 4.2) - the LPT search runs first, as in the paper.
    and r9, r2, r2              ; slot = vpn & mask
    shl r2, #2, r2              ; 4 words per entry
    lea r14, r2, r3
probe:
    ld [r3], r1                 ; entry word 0
    brf r1, notfound
    shl r1, #1, r2              ; strip the valid bit
    shr r2, #1, r2
    eq r2, r9, r1
    brt r1, found
    lea r3, #4, r3
    br probe
found:
    ld [r3+#1], r1              ; fetch the whole entry, as the miss
    ld [r3+#2], r2              ; handler must before installing it
    ld [r3+#3], r7
    add r1, #0, r0              ; entry sanity checks
    add r2, #0, r0
    add r7, #0, r0
    tlbwr r3                    ; install the entry
    mrestart r4, r5, r6         ; replay the faulted access (section 3.3)
    br ltlb_loop
notfound:
    ; Verify with a second-hash probe before declaring the page remote.
    shr r9, #4, r2
    xor r2, r9, r2
    and r2, r13, r2
    shl r2, #2, r2
    lea r14, r2, r3
    ld [r3], r1
    brf r1, remote
    shl r1, #1, r2
    shr r2, #1, r2
    eq r2, r9, r1
    brt r1, found
remote:
    ; Not in the LPT: ask the GTLB where the page lives.
    gprobe r5, r7
    nodeid r8
    eq r7, r8, r9
    brt r9, unmapped            ; local but unmapped: fatal
    setptr #2, #0, r5, r2       ; capability for the remote address
    and r4, #16, r9             ; descriptor bit 4 = store
    brt r9, rwrite
    mov r15, mc1                ; reply address (capability)
    mov r4, mc2                 ; descriptor (carries the dest register)
    send r2, r12, #2            ; remote READ request
    br ltlb_loop
rwrite:
    mov r6, mc1                 ; the data
    send r2, r11, #1            ; remote WRITE request (Fig. 7a)
    br ltlb_loop
unmapped:
    halt
badlpt:
    halt
";

/// The priority-0 message dispatcher and handlers (event V-Thread,
/// cluster 2). `r12` = reply DIP, `r14` = physical scratch pointer.
///
/// The remote-write handler is Fig. 7(b) verbatim: jump through the DIP,
/// move the address off the queue, store the body word.
pub const MSG_P0_HANDLER: &str = "\
dispatch0:
    jmp rnet                    ; wait for a message, jump through its DIP
remote_read:
    mov rnet, r1                ; target address (capability)
    mov rnet, r2                ; reply address (capability)
    mov rnet, r3                ; descriptor
    ld [r14], r4                ; bookkeeping: message count
    lea r1, #0, r5              ; bounds-check the target capability
    shr r3, #12, r6             ; descriptor sanity: register address
    and r6, r13, r6
    ld [r14+#1], r7             ; bookkeeping: requests in progress
    ld [r1], mc1                ; fetch the requested word
    mov r3, mc2
    add r4, #1, r4
    add r7, #1, r7
    st r4, [r14]
    st r7, [r14+#1]
    send.p1 r2, r12, #2         ; reply at priority 1 (deadlock avoidance)
    br dispatch0
remote_write:
    mov rnet, r1                ; move virtual address into r1
    st rnet, [r1]               ; store the body word of the message
    br dispatch0
remote_write_sync:
    mov rnet, r1
    st.af rnet, [r1]            ; store and set the word full (producer)
    br dispatch0
";

/// The priority-1 (reply) dispatcher (event V-Thread, cluster 3).
/// `r13` = register-address mask, `r14` = physical scratch pointer.
pub const MSG_P1_HANDLER: &str = "\
dispatch1:
    jmp rnet
reply_read:
    mov rnet, r1                ; reply address (ignored; routing only)
    mov rnet, r2                ; the data
    mov rnet, r3                ; descriptor
    ld [r14], r5                ; bookkeeping: reply count
    shr r3, #12, r4             ; decode the destination register address
    and r4, r13, r4
    shr r4, #16, r6             ; V-Thread slot of the faulting load
    and r6, #15, r6
    lea r15, r6, r7             ; index the resident-thread table
    ld [r7], r8                 ; is that V-Thread still resident?
    shr r4, #12, r9             ; cluster field (validated)
    and r9, #15, r9
    add r5, #1, r5
    st r5, [r14]
    brf r8, drop                ; swapped out: drop (section 4.2 discusses
    wrreg r4, r2                ; this case) else write the data there
    br dispatch1
drop:
    br dispatch1
";

/// Mint an ENTER capability for instruction index `pc` — a §3.2
/// protected entry point: the holder may jump to exactly this address
/// but can neither read nor write through it, nor derive any other
/// code address from it. This is how the image builder makes DIPs, and
/// how workloads hand task bodies to untrusting workers.
///
/// # Panics
///
/// Never in practice (every `u32` PC fits the 54-bit address field).
#[must_use]
pub fn enter_capability(pc: u32) -> Word {
    Word::from_pointer(
        GuardedPointer::new(Perm::Enter, 0, u64::from(pc)).expect("PC fits the address field"),
    )
}

/// The assembled runtime: one program per event-handler cluster, plus
/// the DIP capabilities senders need.
///
/// There is one image per process. The handler sources are constants,
/// `Program`s are immutable once assembled and nodes only ever read them
/// through their `Arc`, so every machine shares the same three programs;
/// [`RuntimeImage::build`] hands out another handle to them.
#[derive(Debug, Clone)]
pub struct RuntimeImage {
    /// Cluster 1's LTLB-miss handler.
    pub ltlb_handler: Arc<Program>,
    /// Cluster 2's priority-0 dispatcher.
    pub p0_handler: Arc<Program>,
    /// Cluster 3's priority-1 dispatcher.
    pub p1_handler: Arc<Program>,
    /// DIP for remote read requests.
    pub read_dip: Word,
    /// DIP for remote write requests (Fig. 7).
    pub write_dip: Word,
    /// DIP for read replies.
    pub reply_dip: Word,
    /// DIP for synchronizing remote writes (store + set-full), used by
    /// user-level message protocols like the ping-pong example.
    pub write_sync_dip: Word,
}

impl RuntimeImage {
    /// The runtime image: the handlers are assembled and the DIP
    /// capabilities derived on the first call in the process; every call
    /// returns handles to those same programs.
    ///
    /// # Panics
    ///
    /// Panics if the built-in handler sources fail to assemble (a bug).
    #[must_use]
    pub fn build() -> RuntimeImage {
        static IMAGE: OnceLock<RuntimeImage> = OnceLock::new();
        IMAGE.get_or_init(RuntimeImage::assemble).clone()
    }

    fn assemble() -> RuntimeImage {
        let ltlb_handler = Arc::new(assemble(LTLB_MISS_HANDLER).expect("LTLB handler assembles"));
        let p0_handler = Arc::new(assemble(MSG_P0_HANDLER).expect("P0 handler assembles"));
        let p1_handler = Arc::new(assemble(MSG_P1_HANDLER).expect("P1 handler assembles"));
        let dip = |prog: &Program, label: &str| {
            let idx = prog.entry(label).expect("handler label");
            enter_capability(idx)
        };
        let read_dip = dip(&p0_handler, "remote_read");
        let write_dip = dip(&p0_handler, "remote_write");
        let reply_dip = dip(&p1_handler, "reply_read");
        let write_sync_dip = dip(&p0_handler, "remote_write_sync");
        RuntimeImage {
            ltlb_handler,
            p0_handler,
            p1_handler,
            read_dip,
            write_dip,
            reply_dip,
            write_sync_dip,
        }
    }
}

/// What boot leaves behind for the experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct BootInfo {
    /// This node's linear index.
    pub index: u64,
    /// DIP for remote read requests.
    pub read_dip: Word,
    /// DIP for remote write requests.
    pub write_dip: Word,
    /// This node's reply capability.
    pub reply_ptr: Word,
}

/// Boot one node: build its LPT, install the machine-wide GDT entry,
/// load the event-handler programs and preload their registers.
///
/// The LTLB deliberately starts **empty** — first touches take the
/// LTLB-miss path, exactly the scenario Table 1's software rows measure.
///
/// # Panics
///
/// Panics on a spec [`BootSpec::validate`] rejects for this node's SDRAM.
pub fn boot_node(node: &mut Node, index: u64, spec: &BootSpec, image: &RuntimeImage) -> BootInfo {
    let n = spec.total_nodes();
    assert!(n.is_power_of_two(), "node count must be a power of two");
    assert!(
        spec.local_pages.is_power_of_two(),
        "local pages must be a power of two"
    );

    // The LPT (see `lpt_layout` for the alignment rule: the handler's
    // `lea` walks would escape an unaligned guarded-pointer segment).
    let (lpt_base, _) = lpt_layout(spec.lpt_slots);
    let lpt = Lpt::new(lpt_base, spec.lpt_slots);
    node.mem.set_lpt(lpt);

    // Map this node's local pages: global page g = index + k·N covers
    // local vpns 2g and 2g+1.
    let mut next_ppn = first_frame_ppn(spec.lpt_slots);
    for k in 0..spec.local_pages {
        let g = index + k * n;
        for half in 0..2 {
            let vpn = 2 * g + half;
            let entry = LtlbEntry::uniform(vpn, next_ppn, BlockStatus::ReadWrite, 0);
            lpt.insert(node.mem.sdram_mut(), &entry)
                .expect("LPT has room for the boot mapping");
            next_ppn += 1;
        }
    }

    // The machine-wide cyclic GDT entry: page p → region node p mod N.
    let group_log2 = n.trailing_zeros() as u8 + spec.local_pages.trailing_zeros() as u8;
    let entry = GdtEntry::new(
        0,
        NodeCoord::new(0, 0, 0),
        (
            spec.dims.0.trailing_zeros() as u8,
            spec.dims.1.trailing_zeros() as u8,
            spec.dims.2.trailing_zeros() as u8,
        ),
        group_log2,
        0,
    );
    node.net.gtlb_mut().add_entry(entry);

    // Event-handler programs (§3.3's cluster assignment).
    node.load_program(1, EVENT_SLOT, image.ltlb_handler.clone(), 0);
    node.load_program(2, EVENT_SLOT, image.p0_handler.clone(), 0);
    node.load_program(3, EVENT_SLOT, image.p1_handler.clone(), 0);

    // Handler register conventions.
    let lpt_ptr = GuardedPointer::new(
        Perm::Physical,
        (spec.lpt_slots * 4).trailing_zeros() as u8,
        lpt_base,
    )
    .expect("LPT pointer fits");
    let reply_ptr = Word::from_pointer(
        GuardedPointer::new(Perm::ReadWrite, 0, spec.home_va(index, 0)).expect("reply VA fits"),
    );
    // Eight scratch words per handler cluster, plus the resident-thread
    // table the reply handler consults.
    let scratch = |c: u64| {
        Word::from_pointer(
            GuardedPointer::new(Perm::Physical, 3, SCRATCH_BASE + 8 * c).expect("scratch fits"),
        )
    };
    let thread_table_base = SCRATCH_BASE + 32;
    for slot in 0..8 {
        node.mem.poke_phys(
            thread_table_base + slot,
            mm_mem::MemWord::new(Word::from_u64(1)), // every slot resident
        );
    }
    let thread_table = Word::from_pointer(
        GuardedPointer::new(Perm::Physical, 3, thread_table_base).expect("table fits"),
    );
    // The LPT descriptor the miss handler loads: slot mask + generation.
    node.mem.poke_phys(
        SCRATCH_BASE + 8 + 2,
        mm_mem::MemWord::new(Word::from_u64(spec.lpt_slots - 1)),
    );
    node.mem.poke_phys(
        SCRATCH_BASE + 8 + 3,
        mm_mem::MemWord::new(Word::from_u64(1)),
    );

    node.write_reg(1, EVENT_SLOT, Reg::Int(10), scratch(1));
    node.write_reg(1, EVENT_SLOT, Reg::Int(11), image.write_dip);
    node.write_reg(1, EVENT_SLOT, Reg::Int(12), image.read_dip);
    node.write_reg(
        1,
        EVENT_SLOT,
        Reg::Int(13),
        Word::from_u64(spec.lpt_slots - 1),
    );
    node.write_reg(1, EVENT_SLOT, Reg::Int(14), Word::from_pointer(lpt_ptr));
    node.write_reg(1, EVENT_SLOT, Reg::Int(15), reply_ptr);

    node.write_reg(2, EVENT_SLOT, Reg::Int(12), image.reply_dip);
    node.write_reg(2, EVENT_SLOT, Reg::Int(13), Word::from_u64(0xF_FFFF));
    node.write_reg(2, EVENT_SLOT, Reg::Int(14), scratch(2));

    node.write_reg(3, EVENT_SLOT, Reg::Int(13), Word::from_u64(0xF_FFFF));
    node.write_reg(3, EVENT_SLOT, Reg::Int(14), scratch(3));
    node.write_reg(3, EVENT_SLOT, Reg::Int(15), thread_table);

    BootInfo {
        index,
        read_dip: image.read_dip,
        write_dip: image.write_dip,
        reply_ptr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handlers_assemble_and_export_labels() {
        let img = RuntimeImage::build();
        assert!(img.ltlb_handler.entry("ltlb_loop").is_some());
        assert!(img.ltlb_handler.entry("probe").is_some());
        assert!(img.p0_handler.entry("remote_read").is_some());
        assert!(img.p0_handler.entry("remote_write").is_some());
        assert!(img.p1_handler.entry("reply_read").is_some());
        assert!(img.read_dip.is_pointer());
        assert_eq!(img.read_dip.pointer().unwrap().perm(), Perm::Enter);
    }

    #[test]
    fn home_va_layout_is_cyclic() {
        let spec = BootSpec {
            dims: (2, 2, 1),
            local_pages: 4,
            lpt_slots: 64,
        };
        assert_eq!(spec.total_nodes(), 4);
        assert_eq!(spec.home_va(0, 0), 0);
        assert_eq!(spec.home_va(1, 0), 1024);
        assert_eq!(spec.home_va(0, 1), 4 * 1024);
        assert_eq!(spec.home_va(3, 2), 11 * 1024);
    }

    #[test]
    fn linear_index_matches_region_order() {
        let spec = BootSpec {
            dims: (2, 2, 2),
            local_pages: 1,
            lpt_slots: 64,
        };
        assert_eq!(spec.linear_index(NodeCoord::new(0, 0, 0)), 0);
        assert_eq!(spec.linear_index(NodeCoord::new(1, 0, 0)), 1);
        assert_eq!(spec.linear_index(NodeCoord::new(0, 1, 0)), 2);
        assert_eq!(spec.linear_index(NodeCoord::new(0, 0, 1)), 4);
        assert_eq!(spec.linear_index(NodeCoord::new(1, 1, 1)), 7);
    }

    #[test]
    fn boot_maps_pages_and_loads_handlers() {
        let img = RuntimeImage::build();
        let spec = BootSpec::default();
        let mut node = Node::new(mm_sim::NodeConfig::default(), NodeCoord::new(0, 0, 0));
        let info = boot_node(&mut node, 0, &spec, &img);
        assert_eq!(info.index, 0);
        // Page 0 (vpns 0 and 1) must be in the LPT, not the LTLB.
        assert!(node.mem.ltlb_probe(0).is_none());
        assert!(node.mem.translate(0).is_some(), "LPT fallback works");
        assert!(node.mem.translate(512).is_some());
        // The GTLB resolves home nodes.
        assert_eq!(node.net.gtlb_mut().probe(0), Some(NodeCoord::new(0, 0, 0)));
        assert_eq!(
            node.net.gtlb_mut().probe(1024),
            Some(NodeCoord::new(1, 0, 0))
        );
        assert_eq!(node.thread_state(1, EVENT_SLOT), mm_sim::HState::Running);
    }
}
