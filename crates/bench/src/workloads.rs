//! Workload-suite bench scenarios: the four classic multicomputer
//! kernels of [`mm_runtime::workloads`] on a 4-node mesh, each run
//! under the serial and the parallel engine with results verified
//! against an independent host-side reference and the two engines'
//! [`MachineStats`] diffed.
//!
//! These are the benchmark-facing builds of the same kernels the
//! differential tests pin (`crates/core/tests/workloads.rs`): bigger
//! inputs, `trace` off; `benchmark/`'s `kernel_suite_4` workload times
//! them and checks every timed pass against [`run_workload`]'s counts.
//! The task-queue row additionally reports the §3.2 protected-call
//! count and the §2 full/empty sync-retry count — the two paper
//! mechanisms that workload exists to exercise.

use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::MemWord;
use mm_runtime::workloads::{
    matmul_block, matmul_reference_block, sample_sort_node, spmv_node, task_queue,
    task_queue_entries, task_queue_expected_sum, SortLayout, SpmvLayout, MATMUL_A_OFF,
    MATMUL_C_OFF, MATMUL_N, TASKQ_STRIPE_WORDS,
};

/// Mesh every workload scenario runs on (matmul's block grid fixes the
/// node count at four; the others simply match it).
pub const WORKLOAD_DIMS: (u8, u8, u8) = (2, 2, 1);
const NODES: usize = 4;

/// Cycle budget for one workload run.
pub const RUN_LIMIT: u64 = 2_000_000;

/// Keys per node in the bench sample-sort (larger than the test's, but
/// still below [`SortLayout::RECV_OFF`]).
const SORT_KEYS: usize = 8;
const SPLITTERS: [i64; 3] = [25, 50, 75];
const SORT_LAYOUT: SortLayout = SortLayout {
    p: NODES,
    k: SORT_KEYS,
};

const SPMV_LAYOUT: SpmvLayout = SpmvLayout { rows: 8, nnz: 4 };
const SPMV_SWEEPS: u64 = 8;

const TASKQ_TASKS: usize = 6;

/// The four kernels, in BENCH row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Parallel sample-sort (all-to-all key exchange + local sort).
    SampleSort,
    /// 4×4 blocked matmul with the B operand remote on node 0.
    Matmul,
    /// Fixed-degree CSR SpMV with guarded-pointer column indices.
    Spmv,
    /// Work-stealing task queue on full/empty bits + protected calls.
    TaskQueue,
}

impl WorkloadKind {
    /// All kernels, in row order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::SampleSort,
        WorkloadKind::Matmul,
        WorkloadKind::Spmv,
        WorkloadKind::TaskQueue,
    ];

    /// The BENCH row label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SampleSort => "sample_sort",
            WorkloadKind::Matmul => "matmul",
            WorkloadKind::Spmv => "spmv",
            WorkloadKind::TaskQueue => "task_queue",
        }
    }
}

/// One kernel's checked run.
#[derive(Debug, Clone)]
pub struct WorkloadPoint {
    /// Which kernel.
    pub kind: WorkloadKind,
    /// Mesh dimensions.
    pub dims: (u8, u8, u8),
    /// Node count.
    pub nodes: usize,
    /// Cycles to halt (identical across engines when `stats_match`).
    pub cycles: u64,
    /// Did serial and parallel produce identical [`MachineStats`]?
    pub stats_match: bool,
    /// User messages that crossed the fabric.
    pub messages: u64,
    /// §3.2 protected calls taken — the task queue's entry/return
    /// discipline, plus one guarded dispatch entry per received message
    /// on the kernels that communicate by SEND.
    pub protected_calls: u64,
    /// §2 synchronizing-fault retries (task queue; 0 elsewhere).
    pub sync_retries: u64,
}

fn base_machine(workers: Option<usize>) -> MMachine {
    let mut cfg = MachineConfig::with_dims(WORKLOAD_DIMS.0, WORKLOAD_DIMS.1, WORKLOAD_DIMS.2);
    cfg.engine.workers = workers;
    cfg.trace = false;
    MMachine::build(cfg).expect("valid config")
}

fn poke(m: &mut MMachine, node: usize, va: u64, w: Word) {
    assert!(
        m.node_mut(node).mem.poke_va(va, MemWord::new(w)),
        "poke at unmapped va {va:#x} on node {node}"
    );
}

fn peek(m: &MMachine, node: usize, va: u64) -> Word {
    m.node(node).mem.peek_va(va).expect("mapped").word
}

fn sort_keys(node: usize) -> Vec<i64> {
    (0..SORT_KEYS)
        .map(|j| (7 + 31 * node as i64 + 13 * j as i64) % 97)
        .collect()
}

fn bucket_of(key: i64) -> usize {
    SPLITTERS.iter().position(|&s| key < s).unwrap_or(NODES - 1)
}

fn matmul_inputs() -> ([[f64; 4]; 4], [[f64; 4]; 4]) {
    let mut a = [[0.0f64; 4]; 4];
    let mut b = [[0.0f64; 4]; 4];
    for i in 0..MATMUL_N {
        for j in 0..MATMUL_N {
            a[i][j] = (i * MATMUL_N + j + 1) as f64;
            b[i][j] = ((i * 2 + j * 5) % 7 + 1) as f64;
        }
    }
    (a, b)
}

fn spmv_entry(g: usize, e: usize) -> (usize, f64) {
    let n = NODES * SPMV_LAYOUT.rows;
    ((g * SPMV_LAYOUT.nnz + e * 5) % n, ((g + e) % 5 + 1) as f64)
}

fn spmv_x(g: usize) -> f64 {
    (g + 1) as f64
}

fn taskq_payload_base(node: usize) -> i64 {
    100 + 10 * node as i64
}

/// Build one kernel's machine, inputs poked and registers pinned.
///
/// # Panics
///
/// Panics if a program fails to load or an input lands on an unmapped
/// address (layout bug).
#[must_use]
pub fn build_workload(kind: WorkloadKind, workers: Option<usize>) -> MMachine {
    let mut m = base_machine(workers);
    match kind {
        WorkloadKind::SampleSort => {
            for me in 0..NODES {
                let prog = sample_sort_node(&SORT_LAYOUT, me, &SPLITTERS);
                m.load_user_program(me, 0, &prog).unwrap();
                let keys_base = m.home_va(me, 0);
                for (j, key) in sort_keys(me).iter().enumerate() {
                    poke(
                        &mut m,
                        me,
                        keys_base + (SortLayout::KEYS_OFF + j) as u64,
                        Word::from_i64(*key),
                    );
                }
                for d in 0..NODES {
                    let region = m.home_va(d, 0) + SORT_LAYOUT.recv_off(me) as u64;
                    let cap = m.make_ptr(Perm::ReadWrite, 10, region).expect("region cap");
                    let slot = m.home_va(me, 1) + d as u64;
                    poke(&mut m, me, slot, cap);
                }
                m.set_user_reg(me, 0, 0, Reg::Int(1), m.home_ptr(me, 0));
                m.set_user_reg(me, 0, 0, Reg::Int(9), m.home_ptr(me, 1));
            }
        }
        WorkloadKind::Matmul => {
            let (a, b) = matmul_inputs();
            let b_base = m.home_va(0, 1);
            for (i, row) in b.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    poke(
                        &mut m,
                        0,
                        b_base + (i * MATMUL_N + j) as u64,
                        Word::from_f64(v),
                    );
                }
            }
            for me in 0..NODES {
                let (bi, bj) = (me / 2, me % 2);
                m.load_user_program(me, 0, &matmul_block(bi, bj)).unwrap();
                let a_base = m.home_va(me, 0);
                for r in 0..2 {
                    for (k, &v) in a[2 * bi + r].iter().enumerate() {
                        poke(
                            &mut m,
                            me,
                            a_base + (MATMUL_A_OFF + r * MATMUL_N + k) as u64,
                            Word::from_f64(v),
                        );
                    }
                }
                m.set_user_reg(me, 0, 0, Reg::Int(1), m.home_ptr(me, 0));
                m.set_user_reg(me, 0, 0, Reg::Int(2), m.home_ptr(0, 1));
            }
        }
        WorkloadKind::Spmv => {
            let prog = spmv_node(&SPMV_LAYOUT, SPMV_SWEEPS);
            for me in 0..NODES {
                m.load_user_program(me, 0, &prog).unwrap();
                let base = m.home_va(me, 0);
                for r in 0..SPMV_LAYOUT.rows {
                    let g = me * SPMV_LAYOUT.rows + r;
                    poke(
                        &mut m,
                        me,
                        base + (SPMV_LAYOUT.x_off() + r) as u64,
                        Word::from_f64(spmv_x(g)),
                    );
                    for e in 0..SPMV_LAYOUT.nnz {
                        let (col, val) = spmv_entry(g, e);
                        poke(
                            &mut m,
                            me,
                            base + (SpmvLayout::VALS_OFF + r * SPMV_LAYOUT.nnz + e) as u64,
                            Word::from_f64(val),
                        );
                        let owner = col / SPMV_LAYOUT.rows;
                        let xva = m.home_va(owner, 0)
                            + (SPMV_LAYOUT.x_off() + col % SPMV_LAYOUT.rows) as u64;
                        let cap = m.make_ptr(Perm::ReadWrite, 0, xva).expect("x cap");
                        poke(
                            &mut m,
                            me,
                            base + (SPMV_LAYOUT.cols_off() + r * SPMV_LAYOUT.nnz + e) as u64,
                            cap,
                        );
                    }
                }
                m.set_user_reg(me, 0, 0, Reg::Int(1), m.home_ptr(me, 0));
            }
        }
        WorkloadKind::TaskQueue => {
            let prog = task_queue(NODES, TASKQ_TASKS);
            let (body, ret) = task_queue_entries(&prog);
            let queue_va = m.home_va(0, 2);
            let queue_ptr = m.home_ptr(0, 2);
            for me in 0..NODES {
                if me != 0 {
                    m.map_coherent_page(me, queue_va);
                }
                m.load_user_program(me, 0, &prog).unwrap();
                m.set_user_reg(me, 0, 0, Reg::Int(1), queue_ptr);
                let own = (me * TASKQ_STRIPE_WORDS) as i64;
                let next = (((me + 1) % NODES) * TASKQ_STRIPE_WORDS) as i64;
                m.set_user_reg(me, 0, 0, Reg::Int(7), Word::from_i64(own));
                m.set_user_reg(me, 0, 0, Reg::Int(2), Word::from_i64(next));
                m.set_user_reg(
                    me,
                    0,
                    0,
                    Reg::Int(10),
                    Word::from_i64(taskq_payload_base(me)),
                );
                m.set_user_reg(me, 0, 0, Reg::Int(12), body);
                m.set_user_reg(me, 0, 0, Reg::Int(13), ret);
            }
        }
    }
    m
}

/// Verify one finished run against the host-side reference.
fn verify(kind: WorkloadKind, m: &MMachine) {
    match kind {
        WorkloadKind::SampleSort => {
            let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); NODES];
            for node in 0..NODES {
                for key in sort_keys(node) {
                    buckets[bucket_of(key)].push(key);
                }
            }
            for b in &mut buckets {
                b.sort_unstable();
            }
            for (d, bucket) in buckets.iter().enumerate() {
                let base = m.home_va(d, 0);
                let count = peek(m, d, base + SORT_LAYOUT.out_count_off() as u64).as_i64();
                assert_eq!(count as usize, bucket.len(), "bucket {d} size");
                for (i, want) in bucket.iter().enumerate() {
                    let got = peek(m, d, base + (SORT_LAYOUT.out_keys_off() + i) as u64).as_i64();
                    assert_eq!(got, *want, "bucket {d} position {i}");
                }
            }
        }
        WorkloadKind::Matmul => {
            let (a, b) = matmul_inputs();
            for me in 0..NODES {
                let (bi, bj) = (me / 2, me % 2);
                let want = matmul_reference_block(&a, &b, bi, bj);
                for (e, &w) in want.iter().enumerate() {
                    let got = peek(m, me, m.home_va(me, 0) + (MATMUL_C_OFF + e) as u64);
                    assert_eq!(
                        got.bits(),
                        Word::from_f64(w).bits(),
                        "C block ({bi},{bj}) element {e}"
                    );
                }
            }
        }
        WorkloadKind::Spmv => {
            for me in 0..NODES {
                for r in 0..SPMV_LAYOUT.rows {
                    let g = me * SPMV_LAYOUT.rows + r;
                    let mut y = 0.0f64;
                    for e in 0..SPMV_LAYOUT.nnz {
                        let (col, val) = spmv_entry(g, e);
                        y += spmv_x(col) * val;
                    }
                    let got = peek(m, me, m.home_va(me, 0) + (SPMV_LAYOUT.y_off() + r) as u64);
                    assert_eq!(got.bits(), Word::from_f64(y).bits(), "y[{g}]");
                }
            }
        }
        WorkloadKind::TaskQueue => {
            let total: i64 = (0..NODES)
                .map(|i| m.user_reg(i, 0, 0, 4).unwrap().as_i64())
                .sum();
            assert_eq!(
                total,
                task_queue_expected_sum(NODES, TASKQ_TASKS, taskq_payload_base),
                "claimed payload sum"
            );
            let protected: u64 = (0..NODES).map(|i| m.node(i).stats().protected_calls).sum();
            assert_eq!(
                protected,
                2 * (NODES * TASKQ_TASKS) as u64,
                "protected calls: entry + return per task"
            );
        }
    }
}

fn run_checked(kind: WorkloadKind, mut m: MMachine) -> (MachineStats, u64, u64) {
    m.run_until_halt(RUN_LIMIT).expect("workload completes");
    m.run_cycles(256); // drain in-flight protocol traffic
    assert!(
        m.faulted_threads().is_empty(),
        "{}: faulted threads {:?}",
        kind.name(),
        m.faulted_threads()
    );
    verify(kind, &m);
    let protected: u64 = (0..NODES).map(|i| m.node(i).stats().protected_calls).sum();
    let stats = m.stats();
    assert_eq!(stats.coherence.unknown_events, 0, "dropped event records");
    let sync_retries = stats.coherence.sync_retries;
    (stats, protected, sync_retries)
}

/// Run one kernel under the serial and the parallel engine, verify both
/// results, and diff their stats.
///
/// # Panics
///
/// Panics if a run exceeds [`RUN_LIMIT`] cycles, a thread faults, or a
/// result diverges from the host-side reference.
#[must_use]
pub fn run_workload(kind: WorkloadKind, workers: Option<usize>) -> WorkloadPoint {
    let serial = build_workload(kind, Some(1));
    let nodes = serial.node_count();
    let (serial_stats, protected, sync_retries) = run_checked(kind, serial);
    let (parallel_stats, _, _) = run_checked(kind, build_workload(kind, workers));
    WorkloadPoint {
        kind,
        dims: WORKLOAD_DIMS,
        nodes,
        cycles: serial_stats.cycles,
        stats_match: serial_stats == parallel_stats,
        messages: serial_stats.messages,
        protected_calls: protected,
        sync_retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_point_is_engine_invariant_and_verified() {
        for kind in WorkloadKind::ALL {
            let p = run_workload(kind, Some(2));
            assert_eq!(p.nodes, NODES);
            assert!(p.stats_match, "{} engines disagreed", kind.name());
            assert!(p.cycles > 0);
            if kind == WorkloadKind::TaskQueue {
                assert!(p.protected_calls > 0, "no §3.2 protected call fired");
                assert!(p.sync_retries > 0, "no §2 full/empty contention");
            }
        }
    }
}
