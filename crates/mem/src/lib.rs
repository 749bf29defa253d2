//! # mm-mem — the M-Machine node memory system
//!
//! The MAP chip's memory subsystem as described in §2 of *The M-Machine
//! Multicomputer*: a four-bank word-interleaved virtually-addressed cache
//! ([`cache`]), an external SDRAM with page-mode timing and SECDED error
//! control ([`dram`], [`secded`]), the LTLB with per-block status bits
//! ([`ltlb`]) backed by an in-memory local page table ([`lpt`]), a
//! synchronization bit on every memory word, and the event-generating
//! pipeline that ties them together ([`memsys`]).
//!
//! ```
//! use mm_mem::memsys::{MemConfig, MemorySystem, MemRequest};
//! use mm_mem::lpt::Lpt;
//! use mm_mem::ltlb::{BlockStatus, LtlbEntry};
//!
//! # fn main() {
//! let mut ms = MemorySystem::new(MemConfig::default());
//! ms.set_lpt(Lpt::new(1024, 64));
//! // Map virtual page 0 at physical page 16, all blocks READ/WRITE.
//! let lpt = ms.lpt().unwrap();
//! let entry = LtlbEntry::uniform(0, 16, BlockStatus::ReadWrite, 0);
//! let slot = lpt.insert(ms.sdram_mut(), &entry).unwrap();
//! assert!(ms.tlb_install(slot));
//!
//! ms.submit(MemRequest::load(1, 8, 0)).unwrap();
//! let (mut resps, mut events) = (Vec::new(), Vec::new());
//! let mut cycle = 0;
//! loop {
//!     ms.step_into(cycle, &mut resps, &mut events);
//!     if let Some(r) = resps.first() {
//!         assert_eq!(r.value.bits(), 0);
//!         break;
//!     }
//!     cycle += 1;
//! }
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod lpt;
pub mod ltlb;
mod memo;
pub mod memsys;
pub mod secded;

pub use cache::{Cache, CacheConfig, LINE_WORDS};
pub use dram::{Block, MemWord, Sdram, SdramConfig};
pub use lpt::Lpt;
pub use ltlb::{BlockStatus, Ltlb, LtlbEntry, BLOCKS_PER_PAGE, BLOCK_WORDS, PAGE_WORDS};
pub use memsys::{
    AccessKind, MemConfig, MemEvent, MemEventKind, MemInspect, MemRequest, MemResponse,
    MemorySystem,
};
