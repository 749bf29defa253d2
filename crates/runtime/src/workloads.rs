//! Workload suite v1: four classic multicomputer kernels plus a
//! synthetic fabric traffic generator, all compiled to MAP assembly.
//!
//! Each generator returns per-node [`Program`]s against a documented
//! image layout (offsets into the node's home pages); the host side —
//! poking inputs, minting pointers, reading results back — lives with
//! the differential tests (`crates/core/tests/workloads.rs`) and the
//! bench scenarios (`mm-bench::workloads`, `mm-bench::traffic`).
//! Which paper mechanism each kernel exercises:
//!
//! * **sample-sort** — all-to-all key exchange over the LTLB-miss
//!   remote-access handlers (Fig. 7 messages), counts published last
//!   as `count + 1` sentinels so receivers spin on plain loads;
//! * **blocked matmul** — remote reads of a shared operand (the B
//!   matrix lives on node 0 only) interleaved with local FP work;
//! * **SpMV** — pointers-as-data: the column index array holds guarded
//!   pointers straight to `x[col]`, local or remote (§3's global
//!   address space, no software translation);
//! * **task queue** — work-stealing deques built on full/empty bits
//!   (§2: the count word of each stripe doubles as its lock) with every
//!   task body entered through an ENTER-capability protected call
//!   (§3.2) and left the same way;
//! * **traffic** — raw SEND pressure in uniform / hotspot / transpose
//!   permutations at a configurable injection gap, for charting
//!   saturation throughput and return-to-sender backoff (§4.1).
//!
//! A deliberate limitation, documented here because the sort kernel is
//! shaped by it: the LTLB-miss handler's remote-*write* path carries no
//! sync postcondition (a user `st.af` to an uncached remote page loses
//! its set-full), so kernels needing remote synchronization either use
//! plain-store sentinels (sort) or run on coherently mapped pages where
//! synchronizing accesses stay local (task queue).

use crate::image::enter_capability;
use mm_isa::asm::assemble;
use mm_isa::instr::Program;
use mm_isa::word::Word;
use std::fmt::Write as _;
use std::sync::Arc;

fn must_assemble(what: &str, src: &str) -> Arc<Program> {
    Arc::new(assemble(src).unwrap_or_else(|e| panic!("{what} codegen bug: {e}\n{src}")))
}

// ---------------------------------------------------------------------------
// Parallel sample-sort
// ---------------------------------------------------------------------------

/// Word offsets inside each node's home page 0 (data) and home page 1
/// (the pointer table) for the sample-sort kernel.
///
/// Page 0: `keys[0..k]` at [`SortLayout::KEYS_OFF`]; one receive region
/// per source node (a `count + 1` sentinel word then up to `k` keys);
/// the sorted output (count word, then up to `p·k` keys). Page 1:
/// `p` guarded pointers, entry `d` aimed at *node d's* receive region
/// for keys from this node — minted by the host, unforgeable by the
/// kernel (§3 protection: a node can only reach the regions it was
/// handed capabilities for).
#[derive(Debug, Clone, Copy)]
pub struct SortLayout {
    /// Participating nodes.
    pub p: usize,
    /// Keys per node.
    pub k: usize,
}

impl SortLayout {
    /// Where the node's unsorted keys start on page 0.
    pub const KEYS_OFF: usize = 0;

    /// First receive region's offset (fixed headroom above the keys).
    pub const RECV_OFF: usize = 16;

    /// The receive region for keys arriving from `src`.
    #[must_use]
    pub fn recv_off(&self, src: usize) -> usize {
        Self::RECV_OFF + src * (self.k + 1)
    }

    /// The sorted-output count word.
    #[must_use]
    pub fn out_count_off(&self) -> usize {
        Self::RECV_OFF + self.p * (self.k + 1)
    }

    /// The sorted-output key array (worst case `p·k` long).
    #[must_use]
    pub fn out_keys_off(&self) -> usize {
        self.out_count_off() + 1
    }

    /// Words of page 0 the kernel uses (must fit one global page).
    #[must_use]
    pub fn page_words(&self) -> usize {
        self.out_keys_off() + self.p * self.k
    }
}

/// Generate the sample-sort program for `p` nodes with `layout.k` keys
/// each, bucketed by `splitters` (length `p - 1`, strictly increasing,
/// baked in as immediates). Every node runs the same program: which
/// keys and regions are its own comes from the pointers it is handed in
/// `r1` and `r9`.
///
/// Scatter: for each destination bucket, scan the local keys, forward
/// matches through the page-1 capability with a `lea`-advanced cursor,
/// then publish `count + 1` to the region's sentinel word — the `+ 1`
/// keeps zero distinguishable from "not yet arrived" without needing a
/// remote sync postcondition. Gather: spin on each sentinel, copy keys
/// in, then insertion-sort the bucket in place and publish its length.
///
/// # Panics
///
/// Panics on malformed splitters, a layout that overflows the page, or
/// a codegen bug (generated text failing to assemble).
#[must_use]
pub fn sample_sort_node(layout: &SortLayout, splitters: &[i64]) -> Arc<Program> {
    let (p, k) = (layout.p, layout.k);
    assert_eq!(splitters.len(), p - 1, "p - 1 splitters");
    assert!(
        splitters.windows(2).all(|w| w[0] < w[1]),
        "sorted splitters"
    );
    assert!(
        k <= SortLayout::RECV_OFF,
        "keys fit below the receive regions"
    );
    assert!(layout.page_words() <= 1024, "layout fits one global page");

    let mut s = String::new();
    // --- Scatter: r1 = page 0, r9 = page 1 (capability table). ---
    for d in 0..p {
        let _ = writeln!(s, "ld [r9+#{d}], r10");
        let _ = writeln!(s, "mov #1, r5"); // cursor; word 0 is the sentinel
        for kk in 0..k {
            let _ = writeln!(s, "ld [r1+#{}], r2", SortLayout::KEYS_OFF + kk);
            // Bucket membership test against the splitter fence.
            if d == 0 {
                let _ = writeln!(s, "lt r2, #{}, r3", splitters[0]);
            } else if d == p - 1 {
                let _ = writeln!(s, "ge r2, #{}, r3", splitters[p - 2]);
            } else {
                let _ = writeln!(s, "ge r2, #{}, r3", splitters[d - 1]);
                let _ = writeln!(s, "lt r2, #{}, r4", splitters[d]);
                let _ = writeln!(s, "and r3, r4, r3");
            }
            let _ = writeln!(s, "brf r3, skip_{d}_{kk}");
            let _ = writeln!(s, "lea r10, r5, r6");
            let _ = writeln!(s, "st r2, [r6]");
            let _ = writeln!(s, "add r5, #1, r5");
            let _ = writeln!(s, "skip_{d}_{kk}:");
        }
        // Publish after the keys: same source→dest handler path, so the
        // sentinel cannot overtake the data.
        let _ = writeln!(s, "st r5, [r10]");
    }
    // --- Gather: r7 = output cursor. ---
    let out_keys = layout.out_keys_off();
    let _ = writeln!(s, "mov #{out_keys}, r7");
    for src in 0..p {
        let cnt = layout.recv_off(src);
        let _ = writeln!(s, "spin_{src}:");
        let _ = writeln!(s, "ld [r1+#{cnt}], r5");
        let _ = writeln!(s, "brf r5, spin_{src}");
        let _ = writeln!(s, "sub r5, #1, r5");
        let _ = writeln!(s, "mov #{}, r6", cnt + 1);
        let _ = writeln!(s, "copy_{src}:");
        let _ = writeln!(s, "brf r5, done_{src}");
        let _ = writeln!(s, "lea r1, r6, r3");
        let _ = writeln!(s, "ld [r3], r2");
        let _ = writeln!(s, "lea r1, r7, r4");
        let _ = writeln!(s, "st r2, [r4]");
        let _ = writeln!(s, "add r6, #1, r6");
        let _ = writeln!(s, "add r7, #1, r7");
        let _ = writeln!(s, "sub r5, #1, r5");
        let _ = writeln!(s, "br copy_{src}");
        let _ = writeln!(s, "done_{src}:");
    }
    // --- In-place insertion sort of out[0..n), n = r7 - out_keys. ---
    let _ = writeln!(s, "sub r7, #{out_keys}, r8");
    let _ = writeln!(s, "mov #1, r5");
    let _ = writeln!(s, "sort_outer:");
    let _ = writeln!(s, "lt r5, r8, r3");
    let _ = writeln!(s, "brf r3, sort_done");
    let _ = writeln!(s, "add r5, #{out_keys}, r6");
    let _ = writeln!(s, "lea r1, r6, r3");
    let _ = writeln!(s, "ld [r3], r2"); // the key being inserted
    let _ = writeln!(s, "mov r5, r9");
    let _ = writeln!(s, "sort_inner:");
    let _ = writeln!(s, "brf r9, insert");
    let _ = writeln!(s, "add r9, #{}, r6", out_keys - 1);
    let _ = writeln!(s, "lea r1, r6, r3");
    let _ = writeln!(s, "ld [r3], r4");
    let _ = writeln!(s, "le r4, r2, r10");
    let _ = writeln!(s, "brt r10, insert");
    let _ = writeln!(s, "add r9, #{out_keys}, r6");
    let _ = writeln!(s, "lea r1, r6, r3");
    let _ = writeln!(s, "st r4, [r3]"); // shift out[j-1] up to out[j]
    let _ = writeln!(s, "sub r9, #1, r9");
    let _ = writeln!(s, "br sort_inner");
    let _ = writeln!(s, "insert:");
    let _ = writeln!(s, "add r9, #{out_keys}, r6");
    let _ = writeln!(s, "lea r1, r6, r3");
    let _ = writeln!(s, "st r2, [r3]");
    let _ = writeln!(s, "add r5, #1, r5");
    let _ = writeln!(s, "br sort_outer");
    let _ = writeln!(s, "sort_done:");
    let _ = writeln!(s, "st r8, [r1+#{}]", layout.out_count_off());
    let _ = writeln!(s, "halt");
    must_assemble("sample_sort", &s)
}

// ---------------------------------------------------------------------------
// Blocked matrix multiply
// ---------------------------------------------------------------------------

/// Matrix dimension of the blocked matmul (fixed: 4×4 in 2×2 blocks —
/// one C block per node of a 4-node mesh).
pub const MATMUL_N: usize = 4;
/// Block size.
pub const MATMUL_BS: usize = 2;
/// Page-0 offset of the node's 2×4 local A row slice (row-major).
pub const MATMUL_A_OFF: usize = 0;
/// Page-0 offset of the node's 2×2 C block (row-major).
pub const MATMUL_C_OFF: usize = 64;

/// Generate the program for the nodes owning the C blocks in block
/// column `bj` of the 4×4 blocked matmul. The block row does not enter
/// the code: each node reads its own A rows through `r1`.
///
/// `r1` = own page 0 (the 2×4 A row slice at [`MATMUL_A_OFF`], the C
/// block written to [`MATMUL_C_OFF`]); `r2` = the shared B matrix (node
/// 0's page 1 — a *remote* operand for every other node, so each B
/// element arrives through the Fig. 7 remote-read path). B elements are
/// register-blocked: each 2×2 B block is loaded once and reused across
/// both local A rows, halving remote traffic versus the naive order.
/// Remote loads land in integer registers and are `mov`ed to FP regs
/// bit-exactly, keeping one code shape for local and remote operands.
///
/// # Panics
///
/// Panics for an out-of-range block column or on a codegen bug.
#[must_use]
pub fn matmul_block(bj: usize) -> Arc<Program> {
    let blocks = MATMUL_N / MATMUL_BS;
    assert!(bj < blocks, "block column in range");
    let mut s = String::new();
    // Accumulators: f9..f12 = C(0,0), C(0,1), C(1,0), C(1,1).
    for acc in 9..=12 {
        let _ = writeln!(s, "mov #0, f{acc}");
    }
    for kb in 0..blocks {
        // Load the 2×2 B block (possibly remote) once: f1..f4.
        for (i, (dk, dj)) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            let off = (MATMUL_BS * kb + dk) * MATMUL_N + MATMUL_BS * bj + dj;
            let _ = writeln!(s, "ld [r2+#{off}], r3");
            let _ = writeln!(s, "mov r3, f{}", 1 + i);
        }
        for r in 0..MATMUL_BS {
            // This row's A pair for the k-block: f5, f6 (local loads).
            let a0 = MATMUL_A_OFF + r * MATMUL_N + MATMUL_BS * kb;
            let _ = writeln!(s, "ld [r1+#{a0}], f5");
            let _ = writeln!(s, "ld [r1+#{}], f6", a0 + 1);
            let acc0 = 9 + 2 * r; // C(r, 0)
            let _ = writeln!(s, "fmul f5, f1, f7");
            let _ = writeln!(s, "fadd f{acc0}, f7, f{acc0}");
            let _ = writeln!(s, "fmul f6, f3, f7");
            let _ = writeln!(s, "fadd f{acc0}, f7, f{acc0}");
            let acc1 = acc0 + 1; // C(r, 1)
            let _ = writeln!(s, "fmul f5, f2, f7");
            let _ = writeln!(s, "fadd f{acc1}, f7, f{acc1}");
            let _ = writeln!(s, "fmul f6, f4, f7");
            let _ = writeln!(s, "fadd f{acc1}, f7, f{acc1}");
        }
    }
    for (i, acc) in (9..=12).enumerate() {
        let _ = writeln!(s, "st f{acc}, [r1+#{}]", MATMUL_C_OFF + i);
    }
    let _ = writeln!(s, "halt");
    must_assemble("matmul", &s)
}

/// The reference C block `(bi, bj)` in the kernel's exact accumulation
/// order, so float results compare bit-identically.
#[must_use]
pub fn matmul_reference_block(
    a: &[[f64; 4]; 4],
    b: &[[f64; 4]; 4],
    bi: usize,
    bj: usize,
) -> [f64; 4] {
    let mut c = [0.0f64; 4];
    let blocks = MATMUL_N / MATMUL_BS;
    for kb in 0..blocks {
        for r in 0..MATMUL_BS {
            for j in 0..MATMUL_BS {
                let row = MATMUL_BS * bi + r;
                let col = MATMUL_BS * bj + j;
                let e = &mut c[r * MATMUL_BS + j];
                *e += a[row][MATMUL_BS * kb] * b[MATMUL_BS * kb][col];
                *e += a[row][MATMUL_BS * kb + 1] * b[MATMUL_BS * kb + 1][col];
            }
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Sparse matrix–vector product (CSR, fixed row degree)
// ---------------------------------------------------------------------------

/// Page-0 layout for the SpMV kernel: `rows·nnz` matrix values, then
/// `rows·nnz` *guarded pointers* to the referenced `x` entries (the
/// column "indices" — §3's single address space lets the index array
/// hold capabilities straight to local or remote vector words), then
/// the `rows` output words, then this node's own `x` slice.
#[derive(Debug, Clone, Copy)]
pub struct SpmvLayout {
    /// Rows per node.
    pub rows: usize,
    /// Nonzeros per row (fixed degree).
    pub nnz: usize,
}

impl SpmvLayout {
    /// Matrix values (f64), row-major `rows × nnz`.
    pub const VALS_OFF: usize = 0;

    /// The column-pointer array's offset.
    #[must_use]
    pub fn cols_off(&self) -> usize {
        self.rows * self.nnz
    }

    /// The output vector `y`'s offset.
    #[must_use]
    pub fn y_off(&self) -> usize {
        2 * self.rows * self.nnz
    }

    /// This node's slice of the input vector `x`.
    #[must_use]
    pub fn x_off(&self) -> usize {
        self.y_off() + self.rows
    }
}

/// Generate the SpMV program (shared by every node — node identity
/// lives entirely in the data: each node's column pointers aim at its
/// own neighbours). Computes `y = A·x` `sweeps` times over (`x` is
/// constant, so every sweep rewrites the same result — the repetition
/// exists for steady-state measurements: allocation probes and bench
/// timing).
///
/// # Panics
///
/// Panics if the layout overflows a page or on a codegen bug.
#[must_use]
pub fn spmv_node(layout: &SpmvLayout, sweeps: u64) -> Arc<Program> {
    assert!(layout.x_off() + layout.rows <= 1024, "layout fits a page");
    assert!(sweeps >= 1, "at least one sweep");
    let mut s = String::new();
    let _ = writeln!(s, "mov #0, r5");
    let _ = writeln!(s, "sweep:");
    for r in 0..layout.rows {
        let _ = writeln!(s, "mov #0, f9");
        for e in 0..layout.nnz {
            let col = layout.cols_off() + r * layout.nnz + e;
            let val = SpmvLayout::VALS_OFF + r * layout.nnz + e;
            let _ = writeln!(s, "ld [r1+#{col}], r3"); // capability to x[col]
            let _ = writeln!(s, "ld [r3], r4"); // x[col] itself (maybe remote)
            let _ = writeln!(s, "mov r4, f1");
            let _ = writeln!(s, "ld [r1+#{val}], f2");
            let _ = writeln!(s, "fmul f1, f2, f3");
            let _ = writeln!(s, "fadd f9, f3, f9");
        }
        let _ = writeln!(s, "st f9, [r1+#{}]", layout.y_off() + r);
    }
    let _ = writeln!(s, "add r5, #1, r5");
    let _ = writeln!(s, "lt r5, #{sweeps}, r6");
    let _ = writeln!(s, "brt r6, sweep");
    let _ = writeln!(s, "halt");
    must_assemble("spmv", &s)
}

// ---------------------------------------------------------------------------
// Work-stealing task queue (full/empty bits + protected calls)
// ---------------------------------------------------------------------------

/// Words per task-queue stripe — one coherence block, so lock handoffs
/// ride single block migrations.
pub const TASKQ_STRIPE_WORDS: usize = 8;

/// The shared-page word count for `p` participants.
#[must_use]
pub fn taskq_page_words(p: usize) -> usize {
    p * TASKQ_STRIPE_WORDS
}

/// Generate the work-stealing task-queue program, shared by all `p`
/// nodes (`tasks` tasks per stripe, `tasks + 1 <`
/// [`TASKQ_STRIPE_WORDS`]).
///
/// The shared queue page holds one stripe per node; a stripe's word 0
/// is its **count word**, which doubles as the stripe lock through its
/// full/empty bit (§2). Memory boots empty, so the producer's `st.af`
/// publish is the word's *first* fill; until it lands, every would-be
/// consumer's `ld.fe` sync-faults and the coherence firmware retries
/// it — arrival ordering costs no flag words and no spinning code.
/// After production, `ld.fe` takes the count (leaving the word empty,
/// so a competing taker sync-faults), `st.af` releases it updated.
/// Count encoding: `c` = remaining tasks `+ 1`, so a drained stripe
/// reads `1`, never colliding with the empty-word "unproduced" state.
///
/// Every node first publishes its own stripe (plain-stores the task
/// payloads, then `st.af`s the count to make them visible), then scans
/// all stripes round-robin starting at its *successor's*, claiming
/// tasks wherever it finds them — stealing from every other node's
/// stripe as naturally as from its own. Each claimed task's payload is
/// processed by jumping through the ENTER capability in `r12` to
/// `task_body`, which accumulates into `r4` and returns through the
/// ENTER capability in `r13` (§3.2: the worker cannot read, write, or
/// forge the task-body code address — both directions are protected
/// calls). A node halts after seeing `p` consecutive drained stripes.
///
/// Host conventions: `r1` = queue-page capability, `r7` = own stripe's
/// word offset, `r2` = the scan start offset (the successor stripe),
/// `r10` = this node's payload base, `r12`/`r13` = ENTER capabilities
/// for `task_body` / `body_ret` (mint with [`task_queue_entries`]);
/// the page must be coherently mapped on every non-home node. On halt
/// `r4` holds the node's accumulated payload sum and `r14 == p`.
///
/// # Panics
///
/// Panics if `tasks` overflows a stripe or on a codegen bug.
#[must_use]
pub fn task_queue(p: usize, tasks: usize) -> Arc<Program> {
    // A stripe holds the count word plus the task payloads.
    assert!(
        (1..TASKQ_STRIPE_WORDS).contains(&tasks),
        "tasks fit a stripe"
    );
    let total = taskq_page_words(p);
    let mut s = String::new();
    // --- Produce the own stripe: payloads r10, r10+1, … then publish. ---
    let _ = writeln!(s, "lea r1, r7, r3");
    for t in 0..tasks {
        let _ = writeln!(s, "st r10, [r3+#{}]", t + 1);
        if t + 1 < tasks {
            let _ = writeln!(s, "add r10, #1, r10");
        }
    }
    // Publish: the count word boots empty, so this `st.af` is its first
    // fill — consumers' `ld.fe`s sync-fault-retry until it lands.
    let _ = writeln!(s, "mov #{}, r5", tasks + 1);
    let _ = writeln!(s, "st.af r5, [r3]");
    // --- Claim loop. ---
    let _ = writeln!(s, "claim:");
    let _ = writeln!(s, "lea r1, r2, r3");
    let _ = writeln!(s, "ld.fe [r3], r5"); // take (faults while held/unborn)
    let _ = writeln!(s, "eq r5, #1, r6");
    let _ = writeln!(s, "brt r6, drained");
    let _ = writeln!(s, "sub r5, #1, r5");
    let _ = writeln!(s, "st.af r5, [r3]"); // release early, then work
    let _ = writeln!(s, "add r2, r5, r6"); // task word = stripe + new count
    let _ = writeln!(s, "lea r1, r6, r8");
    let _ = writeln!(s, "ld [r8], r9");
    let _ = writeln!(s, "jmp r12"); // protected call into the task body
    let _ = writeln!(s, "body_ret:");
    let _ = writeln!(s, "mov #0, r14");
    let _ = writeln!(s, "br claim");
    let _ = writeln!(s, "drained:");
    let _ = writeln!(s, "st.af r5, [r3]");
    let _ = writeln!(s, "add r14, #1, r14");
    let _ = writeln!(s, "eq r14, #{p}, r6");
    let _ = writeln!(s, "brt r6, done");
    let _ = writeln!(s, "advance:");
    let _ = writeln!(s, "add r2, #{TASKQ_STRIPE_WORDS}, r2");
    let _ = writeln!(s, "lt r2, #{total}, r6");
    let _ = writeln!(s, "brt r6, claim");
    let _ = writeln!(s, "mov #0, r2");
    let _ = writeln!(s, "br claim");
    let _ = writeln!(s, "done:");
    let _ = writeln!(s, "halt");
    let _ = writeln!(s, "task_body:");
    let _ = writeln!(s, "add r4, r9, r4");
    let _ = writeln!(s, "jmp r13");
    must_assemble("task_queue", &s)
}

/// The two ENTER capabilities a task-queue worker needs: `(task_body,
/// body_ret)` — entry into the body and the protected return.
///
/// # Panics
///
/// Panics if the program lacks the labels (not a [`task_queue`]
/// program).
#[must_use]
pub fn task_queue_entries(prog: &Program) -> (Word, Word) {
    let body = prog.entry("task_body").expect("task_body label");
    let ret = prog.entry("body_ret").expect("body_ret label");
    (enter_capability(body), enter_capability(ret))
}

/// The payload sum every [`task_queue`] run must produce in aggregate:
/// node `i` publishes `tasks` payloads `base(i), base(i)+1, …`.
#[must_use]
pub fn task_queue_expected_sum(p: usize, tasks: usize, base: impl Fn(usize) -> i64) -> i64 {
    (0..p)
        .map(|i| (0..tasks as i64).map(|t| base(i) + t).sum::<i64>())
        .sum()
}

// ---------------------------------------------------------------------------
// Synthetic traffic generator
// ---------------------------------------------------------------------------

/// Destination discipline for the traffic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficDest {
    /// Every message to one fixed node (hotspot / transpose patterns —
    /// the caller picks the permutation).
    Fixed(usize),
    /// Round-robin over all `p` nodes starting at `start` (uniform
    /// pattern when each node starts at its own index).
    RoundRobin {
        /// First destination index.
        start: usize,
    },
}

/// Generate one node's traffic program: `count` single-word SENDs with
/// `gap` delay-loop iterations between injections.
///
/// `r1` = this node's destination capability table (page 1: `p`
/// pointers, entry `d` aimed at a word on node `d` that only this
/// sender writes), `r11` = the runtime's write DIP. Payload = the
/// iteration number. Injection throttling is the fabric's own: a SEND
/// with no credit stalls the thread (§4.1), and messages bounced off a
/// full destination queue count as return-to-sender backoff in the
/// interface stats.
///
/// # Panics
///
/// Panics on a zero count, an out-of-range fixed destination, or a
/// codegen bug.
#[must_use]
pub fn traffic_node(dest: TrafficDest, p: usize, gap: u32, count: u64) -> Arc<Program> {
    assert!(count >= 1, "at least one message");
    let mut s = String::new();
    match dest {
        TrafficDest::Fixed(d) => {
            assert!(d < p, "destination in range");
            let _ = writeln!(s, "mov #{d}, r7");
        }
        TrafficDest::RoundRobin { start } => {
            assert!(start < p, "start in range");
            let _ = writeln!(s, "mov #{start}, r7");
        }
    }
    let _ = writeln!(s, "mov #0, r5");
    let _ = writeln!(s, "loop:");
    let _ = writeln!(s, "lea r1, r7, r3");
    let _ = writeln!(s, "ld [r3], r10");
    let _ = writeln!(s, "mov r5, mc1");
    let _ = writeln!(s, "send r10, r11, #1");
    if gap > 0 {
        let _ = writeln!(s, "mov #{gap}, r4");
        let _ = writeln!(s, "delay:");
        let _ = writeln!(s, "brf r4, delay_done");
        let _ = writeln!(s, "sub r4, #1, r4");
        let _ = writeln!(s, "br delay");
        let _ = writeln!(s, "delay_done:");
    }
    if let TrafficDest::RoundRobin { .. } = dest {
        let _ = writeln!(s, "add r7, #1, r7");
        let _ = writeln!(s, "lt r7, #{p}, r6");
        let _ = writeln!(s, "brt r6, next");
        let _ = writeln!(s, "mov #0, r7");
        let _ = writeln!(s, "next:");
    }
    let _ = writeln!(s, "add r5, #1, r5");
    let _ = writeln!(s, "lt r5, #{count}, r6");
    let _ = writeln!(s, "brt r6, loop");
    let _ = writeln!(s, "halt");
    must_assemble("traffic", &s)
}

/// The page-0 word on the destination that `src`'s traffic lands in —
/// one word per sender, so no two flows ever write the same address.
#[must_use]
pub fn traffic_sink_off(src: usize) -> u64 {
    128 + src as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_programs_assemble_for_every_node() {
        let layout = SortLayout { p: 4, k: 4 };
        let prog = sample_sort_node(&layout, &[25, 50, 75]);
        assert!(prog.len() > 40);
        assert!(layout.page_words() <= 1024);
        assert_eq!(layout.recv_off(0), 16);
        assert_eq!(layout.out_count_off(), 16 + 4 * 5);
    }

    #[test]
    #[should_panic(expected = "sorted splitters")]
    fn sort_rejects_unsorted_splitters() {
        let layout = SortLayout { p: 3, k: 2 };
        let _ = sample_sort_node(&layout, &[50, 25]);
    }

    #[test]
    fn matmul_blocks_assemble_and_reference_matches_identity() {
        let mut a = [[0.0f64; 4]; 4];
        let mut b = [[0.0f64; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                a[i][j] = (i * 4 + j + 1) as f64;
                b[i][j] = f64::from(u8::from(i == j)); // identity
            }
        }
        for bi in 0..2 {
            for bj in 0..2 {
                let prog = matmul_block(bj);
                assert!(prog.len() > 30);
                let c = matmul_reference_block(&a, &b, bi, bj);
                for r in 0..2 {
                    for j in 0..2 {
                        assert_eq!(c[r * 2 + j], a[2 * bi + r][2 * bj + j]);
                    }
                }
            }
        }
    }

    #[test]
    fn spmv_assembles_and_layout_is_disjoint() {
        let layout = SpmvLayout { rows: 4, nnz: 3 };
        let prog = spmv_node(&layout, 2);
        assert!(prog.len() > 20);
        assert!(layout.cols_off() > SpmvLayout::VALS_OFF);
        assert!(layout.y_off() >= layout.cols_off() + layout.rows * layout.nnz);
        assert!(layout.x_off() >= layout.y_off() + layout.rows);
    }

    #[test]
    fn task_queue_has_protected_entries() {
        let prog = task_queue(4, 3);
        let (body, ret) = task_queue_entries(&prog);
        let b = body.pointer().unwrap();
        let r = ret.pointer().unwrap();
        assert_eq!(b.perm(), mm_isa::pointer::Perm::Enter);
        assert_eq!(r.perm(), mm_isa::pointer::Perm::Enter);
        assert_ne!(b.addr(), r.addr());
        assert_eq!(task_queue_expected_sum(2, 3, |i| 10 * i as i64), 3 + 30 + 3);
    }

    #[test]
    fn traffic_variants_assemble() {
        for dest in [
            TrafficDest::Fixed(0),
            TrafficDest::Fixed(3),
            TrafficDest::RoundRobin { start: 2 },
        ] {
            for gap in [0u32, 8] {
                let prog = traffic_node(dest, 4, gap, 6);
                assert!(prog.len() > 8);
            }
        }
        assert_ne!(traffic_sink_off(0), traffic_sink_off(1));
    }
}
