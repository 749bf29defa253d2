//! # mm-sim — the cycle-level MAP node simulator
//!
//! One M-Machine node: four 3-issue execution clusters with scoreboarded
//! register files ([`regfile`]), six resident V-Thread slots interleaved
//! cycle-by-cycle by the synchronization stage, the M-/C-Switch plumbing,
//! asynchronous event queues ([`event`]) and the privileged operations
//! system software uses (`tlbwr`, `gprobe`, `wrreg`, `mrestart`) —
//! §§2–3 of *The M-Machine Multicomputer*. The memory system comes from
//! [`mm_mem`] and the network interface from [`mm_net`].
//!
//! ```
//! use mm_sim::{Node, NodeConfig, StepScratch};
//! use mm_net::message::NodeCoord;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut node = Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
//! let prog = Arc::new(mm_isa::assemble("add r1, #20, r2\n add r2, #22, r2\n halt\n")?);
//! node.load_program(0, 0, prog, 0);
//! let mut scratch = StepScratch::new();
//! for cycle in 0..100 {
//!     node.step_with(cycle, &mut scratch);
//!     if node.user_threads_done() {
//!         break;
//!     }
//! }
//! assert_eq!(node.read_reg(0, 0, mm_isa::Reg::Int(2)).as_i64(), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event;
pub mod node;
pub mod regfile;

pub use config::{NodeConfig, EVENT_SLOT, EXCEPTION_SLOT, NUM_CLUSTERS, NUM_SLOTS, USER_SLOTS};
pub use event::EventKind;
pub use node::{Fault, HState, Node, NodeInspect, NodeStats, StepScratch};
pub use regfile::ThreadRegs;
