//! One H-Thread slot's record: control state and register file.
//!
//! The issue stage reads, for every running thread it visits, the
//! thread's control words (PC, run state, branch deadline, memoized
//! issue-block proof) and its scoreboard — and, when the thread issues,
//! its register values. Kept as two arrays, those would be two cache
//! lines at least, in blocks kilobytes apart; here each slot is one
//! 384-byte record whose first 64 bytes hold the control words, the
//! scoreboard, the mutation counter and the pointer tags, with the
//! integer registers in the next 128.

use super::{HState, IssueBlock};
use crate::regfile::ThreadRegs;
use mm_isa::instr::Program;
use std::sync::Arc;

/// One H-Thread's control state.
#[derive(Debug, Clone)]
#[repr(C)]
pub(super) struct HThread {
    pub(super) program: Option<Arc<Program>>,
    /// First cycle at which the thread may issue again (absolute; a
    /// taken branch's fetch bubble). Absolute deadlines — rather than a
    /// per-cycle countdown — keep the thread's wake-up time meaningful
    /// when the engine skips the node over provably idle cycles.
    pub(super) stall_until: u64,
    /// Cached issue-block proof (see [`IssueBlock`]).
    pub(super) blocked: Option<IssueBlock>,
    pub(super) pc: u32,
    pub(super) state: HState,
}

impl HThread {
    pub(super) fn idle() -> HThread {
        HThread {
            program: None,
            stall_until: 0,
            blocked: None,
            pc: 0,
            state: HState::Idle,
        }
    }
}

/// One thread slot: control state, then the register file whose header
/// (scoreboard, mutation counter, tags) completes the first 64 bytes.
#[derive(Debug, Clone)]
#[repr(C)]
pub(super) struct Thread {
    pub(super) ctl: HThread,
    pub(super) regs: ThreadRegs,
}

// Control and register header share the record's first 64 bytes.
const _: () = assert!(std::mem::size_of::<HThread>() <= 40);
const _: () = assert!(std::mem::size_of::<Thread>() <= 384);

impl Thread {
    /// An idle slot with full, zero registers.
    pub(super) fn new() -> Thread {
        Thread {
            ctl: HThread::idle(),
            regs: ThreadRegs::new(),
        }
    }
}
