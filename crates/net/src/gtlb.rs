//! The Global Translation Lookaside Buffer and Global Destination Table.
//!
//! "With a single GTLB entry, a range of virtual addresses (called a
//! page-group) is mapped across a region of processors. In order to
//! simplify encoding, the page-group must be a power of 2 pages in size,
//! where each page is 1024 words. The mapped processors must be in a
//! contiguous 3-D rectangular region with a power of 2 number of nodes on
//! a side" (§4.1). Entries are packed exactly as Fig. 8:
//!
//! ```text
//! | virtual page (42) | starting node (16) | extent Z,Y,X (3 each) |
//! | page-group length (6) | pages/node (6) |
//! ```
//!
//! The length fields hold log₂ values, giving the "spectrum of block and
//! cyclic interleavings".

use crate::message::NodeCoord;
use mm_faults::{ckpt_struct, Ckpt, CkptError, Dec, Enc};

/// Words per *global* page (distinct from the 512-word local page).
pub const GLOBAL_PAGE_WORDS: u64 = 1024;

/// One GDT (and GTLB) entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GdtEntry {
    /// First virtual page of the page-group (`va / 1024`).
    pub vpage: u64,
    /// Origin of the 3-D processor region.
    pub start: NodeCoord,
    /// Log₂ of the region's X extent in nodes (0..=7).
    pub ext_x: u8,
    /// Log₂ of the region's Y extent.
    pub ext_y: u8,
    /// Log₂ of the region's Z extent.
    pub ext_z: u8,
    /// Log₂ of the page-group length in pages.
    pub group_len_log2: u8,
    /// Log₂ of the consecutive pages placed per node.
    pub pages_per_node_log2: u8,
}

impl GdtEntry {
    /// Map one page-group of `2^group_len_log2` pages starting at `vpage`
    /// across the region of `2^(ext_x+ext_y+ext_z)` nodes at `start`.
    #[must_use]
    pub fn new(
        vpage: u64,
        start: NodeCoord,
        (ext_x, ext_y, ext_z): (u8, u8, u8),
        group_len_log2: u8,
        pages_per_node_log2: u8,
    ) -> GdtEntry {
        GdtEntry {
            vpage: vpage & ((1 << 42) - 1),
            start,
            ext_x: ext_x & 7,
            ext_y: ext_y & 7,
            ext_z: ext_z & 7,
            group_len_log2: group_len_log2 & 63,
            pages_per_node_log2: pages_per_node_log2 & 63,
        }
    }

    /// Pages in the group.
    #[must_use]
    pub fn group_pages(&self) -> u64 {
        1 << self.group_len_log2
    }

    /// Nodes in the region.
    #[must_use]
    pub fn region_nodes(&self) -> u64 {
        1u64 << (self.ext_x + self.ext_y + self.ext_z)
    }

    /// Does this entry's page-group contain virtual address `va`?
    #[must_use]
    pub fn contains(&self, va: u64) -> bool {
        let page = va / GLOBAL_PAGE_WORDS;
        page >= self.vpage && page - self.vpage < self.group_pages()
    }

    /// Translate a virtual address to its home node.
    ///
    /// Consecutive runs of `2^pages_per_node_log2` pages land on
    /// consecutive nodes of the region (X varying fastest), wrapping
    /// cyclically when the group is longer than one sweep of the region.
    #[must_use]
    pub fn translate(&self, va: u64) -> Option<NodeCoord> {
        if !self.contains(va) {
            return None;
        }
        let page = va / GLOBAL_PAGE_WORDS - self.vpage;
        let chunk = page >> self.pages_per_node_log2;
        let index = chunk % self.region_nodes();
        let xmask = (1u64 << self.ext_x) - 1;
        let ymask = (1u64 << self.ext_y) - 1;
        let x = index & xmask;
        let y = (index >> self.ext_x) & ymask;
        let z = index >> (self.ext_x + self.ext_y);
        #[allow(clippy::cast_possible_truncation)]
        Some(NodeCoord {
            x: self.start.x + x as u8,
            y: self.start.y + y as u8,
            z: self.start.z + z as u8,
        })
    }

    /// Pack into the 79-bit Fig. 8 layout (low bits of a `u128`):
    /// `[vpage:42][start:16][ext_z:3][ext_y:3][ext_x:3][group_len:6][pages_per_node:6]`
    /// with `vpage` in the most significant position.
    #[must_use]
    pub fn encode(&self) -> u128 {
        let mut bits: u128 = 0;
        bits |= u128::from(self.vpage & ((1 << 42) - 1)) << 37;
        bits |= u128::from(self.start.encode() & 0xFFFF) << 21;
        bits |= u128::from(self.ext_z & 7) << 18;
        bits |= u128::from(self.ext_y & 7) << 15;
        bits |= u128::from(self.ext_x & 7) << 12;
        bits |= u128::from(self.group_len_log2 & 63) << 6;
        bits |= u128::from(self.pages_per_node_log2 & 63);
        bits
    }

    /// Unpack from the Fig. 8 layout.
    #[must_use]
    pub fn decode(bits: u128) -> GdtEntry {
        GdtEntry {
            vpage: ((bits >> 37) & ((1 << 42) - 1)) as u64,
            start: NodeCoord::decode(((bits >> 21) & 0xFFFF) as u64),
            ext_z: ((bits >> 18) & 7) as u8,
            ext_y: ((bits >> 15) & 7) as u8,
            ext_x: ((bits >> 12) & 7) as u8,
            group_len_log2: ((bits >> 6) & 63) as u8,
            pages_per_node_log2: (bits & 63) as u8,
        }
    }
}

/// GTLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GtlbStats {
    /// Probe hits.
    pub hits: u64,
    /// Probe misses (refilled from the GDT).
    pub misses: u64,
    /// Probes that found no mapping at all.
    pub unmapped: u64,
}

ckpt_struct! { GtlbStats { hits, misses, unmapped } }

/// Checkpoint format: the packed [`GdtEntry::encode`] form, low word
/// first.
impl Ckpt for GdtEntry {
    fn save(&self, e: &mut Enc) {
        let bits = self.encode();
        #[allow(clippy::cast_possible_truncation)]
        (bits as u64, (bits >> 64) as u64).save(e);
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let (lo, hi) = <(u64, u64)>::load(d)?;
        Ok(GdtEntry::decode(u128::from(lo) | u128::from(hi) << 64))
    }
}

/// The GTLB: a small fully-associative cache over the software GDT.
///
/// A miss refills from the GDT transparently (the simulator charges the
/// extra latency); a probe for an address in no page-group returns `None`,
/// which faults the sending thread ("a program may only send messages to
/// virtual addresses within its own address space", §4.1).
#[derive(Debug, Clone, Default)]
pub struct Gtlb {
    gdt: Vec<GdtEntry>,
    cached: Vec<GdtEntry>,
    capacity: usize,
    stats: GtlbStats,
}

impl Gtlb {
    /// An empty GTLB with room for `capacity` cached entries.
    #[must_use]
    pub fn new(capacity: usize) -> Gtlb {
        Gtlb {
            gdt: Vec::new(),
            cached: Vec::new(),
            capacity: capacity.max(1),
            stats: GtlbStats::default(),
        }
    }

    /// Install a GDT entry (system software, "mappings may be changed by
    /// system software").
    pub fn add_entry(&mut self, entry: GdtEntry) {
        self.gdt.push(entry);
        self.cached.clear(); // conservative shoot-down
    }

    /// All GDT entries.
    #[must_use]
    pub fn entries(&self) -> &[GdtEntry] {
        &self.gdt
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> GtlbStats {
        self.stats
    }

    /// Translate `va` to its home node, counting hit/miss, refilling the
    /// cached set FIFO-style on miss.
    pub fn probe(&mut self, va: u64) -> Option<NodeCoord> {
        if let Some(e) = self.cached.iter().find(|e| e.contains(va)) {
            self.stats.hits += 1;
            return e.translate(va);
        }
        if let Some(e) = self.gdt.iter().copied().find(|e| e.contains(va)) {
            self.stats.misses += 1;
            if self.cached.len() == self.capacity {
                self.cached.remove(0);
            }
            self.cached.push(e);
            return e.translate(va);
        }
        self.stats.unmapped += 1;
        None
    }

    /// Translate without touching the cache or stats.
    #[must_use]
    pub fn translate_quiet(&self, va: u64) -> Option<NodeCoord> {
        self.gdt
            .iter()
            .find(|e| e.contains(va))
            .and_then(|e| e.translate(va))
    }

    /// Serialize the GDT, the cached set (FIFO order) and the statistics
    /// into a checkpoint stream. The capacity comes from configuration.
    pub fn save_state(&self, e: &mut Enc) {
        self.gdt.save(e);
        self.cached.save(e);
        self.stats.save(e);
    }

    /// Restore state saved by [`Gtlb::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated or malformed input.
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        (self.gdt, self.cached, self.stats) = Ckpt::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let e = GdtEntry::new(0x2_0000_0001, NodeCoord::new(3, 1, 2), (2, 1, 0), 10, 2);
        assert_eq!(GdtEntry::decode(e.encode()), e);
    }

    #[test]
    fn fig8_field_positions() {
        // All-ones in each field lands where Fig. 8 says.
        let e = GdtEntry::new((1 << 42) - 1, NodeCoord::decode(0x7FFF), (7, 7, 7), 63, 63);
        let bits = e.encode();
        assert_eq!(bits >> 37 & ((1 << 42) - 1), (1 << 42) - 1);
        assert_eq!(bits & 63, 63);
        assert_eq!((bits >> 6) & 63, 63);
        // Total width is 79 bits.
        assert!(bits < (1u128 << 79));
    }

    #[test]
    fn block_interleaving() {
        // 8 pages over 2 nodes in X, 4 pages per node: pages 0..4 on node
        // (0,0,0), pages 4..8 on node (1,0,0).
        let e = GdtEntry::new(0, NodeCoord::new(0, 0, 0), (1, 0, 0), 3, 2);
        assert_eq!(e.translate(0).unwrap(), NodeCoord::new(0, 0, 0));
        assert_eq!(
            e.translate(3 * GLOBAL_PAGE_WORDS).unwrap(),
            NodeCoord::new(0, 0, 0)
        );
        assert_eq!(
            e.translate(4 * GLOBAL_PAGE_WORDS).unwrap(),
            NodeCoord::new(1, 0, 0)
        );
        assert_eq!(
            e.translate(7 * GLOBAL_PAGE_WORDS + 1023).unwrap(),
            NodeCoord::new(1, 0, 0)
        );
        assert_eq!(e.translate(8 * GLOBAL_PAGE_WORDS), None);
    }

    #[test]
    fn cyclic_interleaving_wraps() {
        // 8 pages, 2 nodes, 1 page per node: pages alternate and wrap.
        let e = GdtEntry::new(0, NodeCoord::new(0, 0, 0), (1, 0, 0), 3, 0);
        for page in 0..8u64 {
            let expect = NodeCoord::new((page % 2) as u8, 0, 0);
            assert_eq!(
                e.translate(page * GLOBAL_PAGE_WORDS).unwrap(),
                expect,
                "page {page}"
            );
        }
    }

    #[test]
    fn three_d_region_order() {
        // 2x2x2 region, 1 page per node: x fastest, then y, then z.
        let e = GdtEntry::new(0, NodeCoord::new(1, 1, 1), (1, 1, 1), 3, 0);
        let expected = [
            (1, 1, 1),
            (2, 1, 1),
            (1, 2, 1),
            (2, 2, 1),
            (1, 1, 2),
            (2, 1, 2),
            (1, 2, 2),
            (2, 2, 2),
        ];
        for (page, &(x, y, z)) in expected.iter().enumerate() {
            assert_eq!(
                e.translate(page as u64 * GLOBAL_PAGE_WORDS).unwrap(),
                NodeCoord::new(x, y, z),
                "page {page}"
            );
        }
    }

    #[test]
    fn gtlb_hit_miss_unmapped() {
        let mut g = Gtlb::new(2);
        g.add_entry(GdtEntry::new(0, NodeCoord::new(0, 0, 0), (0, 0, 0), 4, 0));
        assert!(g.probe(100).is_some()); // miss + refill
        assert!(g.probe(101).is_some()); // hit
        assert!(g.probe(64 * GLOBAL_PAGE_WORDS).is_none()); // unmapped
        let s = g.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.unmapped, 1);
    }

    #[test]
    fn translate_quiet_no_stats() {
        let mut g = Gtlb::new(2);
        g.add_entry(GdtEntry::new(0, NodeCoord::new(2, 0, 0), (0, 0, 0), 1, 0));
        assert_eq!(g.translate_quiet(0).unwrap(), NodeCoord::new(2, 0, 0));
        assert_eq!(g.stats(), GtlbStats::default());
    }
}
