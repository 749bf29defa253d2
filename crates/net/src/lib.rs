//! # mm-net — the M-Machine communication substrate
//!
//! The 3-D mesh interconnect and its node interfaces, as described in §2
//! and §4.1 of *The M-Machine Multicomputer*:
//!
//! * [`message`] — messages (`[DIP, dest-VA, body…]` on delivery), node
//!   coordinates, and the control packets of the throttling protocol.
//! * [`gtlb`] — the Global Translation Lookaside Buffer / Global
//!   Destination Table mapping *page-groups* of the shared virtual address
//!   space onto 3-D sub-regions of nodes (Fig. 8 bit layout).
//! * [`fabric`] — the bidirectional dimension-order mesh with two
//!   priorities and virtual cut-through timing (≈5 cycles to a neighbour
//!   for a 3-word message, §4.2).
//! * [`iface`] — the per-node register-mapped message queues, GTLB probe
//!   on SEND, and the return-to-sender credit counter.
//!
//! ```
//! use mm_net::fabric::{Fabric, FabricConfig};
//! use mm_net::gtlb::GdtEntry;
//! use mm_net::iface::{IfaceConfig, NodeNet, SendOutcome};
//! use mm_net::message::NodeCoord;
//! use mm_isa::op::Priority;
//! use mm_isa::word::Word;
//!
//! # fn main() {
//! let mut fabric = Fabric::new(FabricConfig { dims: (2, 1, 1), ..FabricConfig::default() });
//! let mut a = NodeNet::new(NodeCoord::new(0, 0, 0), IfaceConfig::default());
//! let mut b = NodeNet::new(NodeCoord::new(1, 0, 0), IfaceConfig::default());
//! // Page 0 lives on node (1,0,0).
//! a.gtlb_mut().add_entry(GdtEntry::new(0, NodeCoord::new(1, 0, 0), (0, 0, 0), 1, 0));
//!
//! assert!(matches!(
//!     a.send(Word::from_u64(7), Word::ZERO, 0, [Word::from_u64(42)].into(), Priority::P0),
//!     SendOutcome::Sent(_)
//! ));
//! let mut staged = Vec::new();
//! a.drain_outbox_into(&mut staged);
//! for p in &staged {
//!     fabric.inject(0, p);
//! }
//! let mut arrived = Vec::new();
//! fabric.deliveries_into(100, &mut arrived);
//! for p in &arrived {
//!     b.deliver(p);
//! }
//! assert_eq!(b.pop_word(Priority::P0).unwrap().bits(), 7); // the DIP
//! # }
//! ```

#![warn(missing_docs)]

pub mod fabric;
pub mod gtlb;
pub mod iface;
pub mod message;

pub use fabric::{Dir, Fabric, FabricConfig, FabricStats};
pub use gtlb::{GdtEntry, Gtlb, GLOBAL_PAGE_WORDS};
pub use iface::{IfaceConfig, IfaceStats, NodeNet, SendOutcome};
pub use message::{Message, MsgBody, NodeCoord, Packet, WireMeta, MAX_BODY_WORDS};
