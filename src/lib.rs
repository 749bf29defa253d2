//! # m-machine
//!
//! A Rust reproduction of *The M-Machine Multicomputer* (Fillo, Keckler,
//! Dally, Carter, Chang, Gurevich, Lee — MIT AI Memo 1532 / MICRO 1995).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`isa`] — words, guarded pointers, the MAP instruction set and assembler
//! * [`mem`] — SDRAM + SECDED, the 4-bank cache, LTLB/LPT and block status
//! * [`net`] — the 3-D mesh, GTLB/GDT and throttling
//! * [`sim`] — the cycle-level MAP node simulator
//! * [`runtime`] — boot image, event/message handlers, kernels
//! * [`machine`] — the multi-node `MMachine` public API
//! * [`model`] — the analytical area/performance model of the paper's §1
//!
//! ## Quickstart
//!
//! ```
//! use m_machine::machine::{MMachine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = MMachine::build(MachineConfig::small())?;
//! let node = 0;
//! let prog = std::sync::Arc::new(m_machine::isa::assemble(
//!     "start: add r0, #7, r1\n halt\n",
//! )?);
//! m.load_user_program(node, 0, &prog)?;
//! m.run_until_halt(10_000)?;
//! assert_eq!(m.user_reg(node, 0, 0, 1)?.bits(), 7);
//! # Ok(())
//! # }
//! ```

pub use mm_core as machine;
pub use mm_isa as isa;
pub use mm_mem as mem;
pub use mm_model as model;
pub use mm_net as net;
pub use mm_runtime as runtime;
pub use mm_sim as sim;
