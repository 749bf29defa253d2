//! # mm-core — the M-Machine multicomputer
//!
//! The top of the reproduction: [`machine::MMachine`] wires MAP nodes
//! ([`mm_sim`]) into a bidirectional 3-D mesh ([`mm_net`]), boots the
//! runtime handlers ([`mm_runtime`]) on every node, pumps the network
//! each cycle, runs the §4.3 software-coherence firmware
//! ([`coherence`]), and records Fig.-9-style phase timelines
//! ([`timeline`]).
//!
//! ```
//! use mm_core::machine::{MMachine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = MMachine::build(MachineConfig::small())?;
//! let prog = std::sync::Arc::new(mm_isa::assemble("add r0, #7, r1\n halt\n")?);
//! m.load_user_program(0, 0, &prog)?;
//! m.run_until_halt(10_000)?;
//! assert_eq!(m.user_reg(0, 0, 0, 1)?.bits(), 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod coherence;
pub mod error;
pub mod machine;
mod shard;
pub mod snapshot;
pub mod timeline;

pub use coherence::{CohInspect, CoherenceConfig, CoherenceEngine, CoherenceStats};
pub use error::MachineError;
pub use machine::{MMachine, MachineConfig, MachineStats};
pub use timeline::{PacketKind, Phase, Timeline};
