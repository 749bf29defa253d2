//! Deterministic fault injection plans and the checkpoint byte codec.
//!
//! The M-Machine paper builds robustness into the hardware — SECDED
//! memory words (§2) and return-to-sender message backoff (§4.1) — and
//! this crate provides the *adversary* that exercises those paths end to
//! end: a seeded [`FaultPlan`] whose every decision is a pure function of
//! `(seed, cycle, location)`, so the dense loop, the serial engine and
//! the parallel engine at any worker count inject byte-identical fault
//! sequences.
//!
//! Two kinds of decision live here:
//!
//! * **Scheduled events** ([`FaultPlan::events`]): DRAM bit flips and
//!   node issue-stall windows, pre-generated from the seed at plan build
//!   time and sorted by cycle. The machine folds the next event's cycle
//!   into its quiescence scheduler and applies due events exactly once —
//!   a cursor, serialized with checkpoints, tracks how far the plan has
//!   been consumed.
//! * **Per-packet decisions** ([`FaultPlan::packet_fault`]): fabric
//!   corruption / drop / delay rolls, evaluated at injection time from
//!   the pure hash — no cursor, no state.
//!
//! The crate also owns the little-endian binary [`Enc`]/[`Dec`] codec
//! that every simulator crate serializes its checkpoint state through,
//! and the [`Ckpt`] trait with which each type declares its byte format
//! once (it is dependency-free and sits at the bottom of the workspace
//! DAG, so `mm-isa`, `mm-sched`, `mm-mem`, `mm-net`, `mm-sim` and
//! `mm-core` can all reach it).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

// ---------------------------------------------------------------------
// Deterministic hashing
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: the one-way mixer behind every plan decision.
#[must_use]
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mix an arbitrary word list into one decision hash. Order-sensitive.
#[must_use]
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x4D4D_4641_554C_5453u64; // "MMFAULTS"
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// The per-message checksum the network interface seals into outgoing
/// messages when fault injection is armed (a stand-in for the per-flit
/// CRC real fabrics carry). 32 bits of the mixed word stream.
#[must_use]
pub fn checksum(words: &[u64]) -> u32 {
    #[allow(clippy::cast_possible_truncation)]
    {
        mix(words) as u32
    }
}

// ---------------------------------------------------------------------
// Fault plan configuration
// ---------------------------------------------------------------------

/// A window of DRAM bit-flip injections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramFaultConfig {
    /// Total single-event upsets to schedule inside the window.
    pub flips: u32,
    /// Every `double_every`-th flip (1-based) upsets *two* bits of the
    /// same word — the uncorrectable SECDED double-error path. 0 never.
    pub double_every: u32,
    /// Cycle window `[start, end)` the flips land in.
    pub window: (u64, u64),
    /// Physical word-address range `[lo, hi)` targeted on each node.
    pub addr: (u64, u64),
}

/// A window of fabric packet faults at the sending network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFaultConfig {
    /// Cycle window `[start, end)` the faults are armed in.
    pub window: (u64, u64),
    /// Percent of user packets injected in-window that get one payload
    /// bit flipped in flight (CRC mismatch at the receiver).
    pub corrupt_pct: u8,
    /// Percent that lose a flit in flight (truncation; also a CRC
    /// mismatch — the paper's fabric never silently loses *messages*).
    pub drop_pct: u8,
    /// Percent that are delayed `delay_cycles` in the router.
    pub delay_pct: u8,
    /// Extra delivery latency for delayed packets.
    pub delay_cycles: u64,
}

/// A node issue-stall window (clock-gate of the issue stage only: the
/// memory pipeline and network interface keep draining, threads just
/// stop issuing until the window closes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallFaultConfig {
    /// Linear node index.
    pub node: u32,
    /// Cycle window `[start, end)`. `end == u64::MAX` never lifts — the
    /// "fatal fault" the crash-recovery scenario uses.
    pub window: (u64, u64),
}

/// Everything a fault campaign configures. Deterministic: two plans
/// built from equal configs (and node counts) are identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlanConfig {
    /// The campaign seed every decision derives from.
    pub seed: u64,
    /// DRAM upset windows.
    pub dram: Vec<DramFaultConfig>,
    /// Fabric fault windows.
    pub links: Vec<LinkFaultConfig>,
    /// Node stall windows.
    pub stalls: Vec<StallFaultConfig>,
}

// ---------------------------------------------------------------------
// The built plan
// ---------------------------------------------------------------------

/// One scheduled fault, applied by the machine at exactly `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The cycle the fault lands on.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The scheduled fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip `bit` (and, for a double error, `second_bit`) of the stored
    /// word at physical address `addr` on node `node`.
    DramFlip {
        /// Linear node index.
        node: u32,
        /// Physical word address.
        addr: u64,
        /// First upset bit (0..64).
        bit: u8,
        /// Second upset bit for uncorrectable double errors.
        second_bit: Option<u8>,
    },
    /// Gate node `node`'s issue stage until cycle `until`.
    StallIssue {
        /// Linear node index.
        node: u32,
        /// First cycle the node may issue again.
        until: u64,
    },
}

/// The per-packet injection-time decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFault {
    /// Deliver untouched.
    None,
    /// Flip one payload bit in flight.
    Corrupt,
    /// Lose one flit in flight (truncate the payload).
    Drop,
    /// Deliver late by the given number of cycles.
    Delay(u64),
}

/// A built fault plan: the sorted event schedule plus the pure
/// packet-decision function. Stateless — the machine owns the cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    events: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Build the plan for a `nodes`-node machine. Pure: equal inputs
    /// yield equal plans.
    #[must_use]
    pub fn build(cfg: FaultPlanConfig, nodes: u32) -> FaultPlan {
        let mut events = Vec::new();
        let n = u64::from(nodes.max(1));
        for (wi, d) in cfg.dram.iter().enumerate() {
            let (start, end) = d.window;
            let span = end.saturating_sub(start).max(1);
            let (lo, hi) = d.addr;
            let arange = hi.saturating_sub(lo).max(1);
            for k in 0..u64::from(d.flips) {
                let h = mix(&[cfg.seed, 1, wi as u64, k]);
                let at = start + mix(&[h, 0]) % span;
                let node = mix(&[h, 1]) % n;
                let addr = lo + mix(&[h, 2]) % arange;
                let bit = (mix(&[h, 3]) % 64) as u8;
                let second_bit = if d.double_every > 0 && (k + 1) % u64::from(d.double_every) == 0 {
                    // A distinct second bit of the same word.
                    Some(((u64::from(bit) + 1 + mix(&[h, 4]) % 63) % 64) as u8)
                } else {
                    None
                };
                #[allow(clippy::cast_possible_truncation)]
                events.push(ScheduledFault {
                    at,
                    kind: FaultKind::DramFlip {
                        node: node as u32,
                        addr,
                        bit,
                        second_bit,
                    },
                });
            }
        }
        for s in &cfg.stalls {
            events.push(ScheduledFault {
                at: s.window.0,
                kind: FaultKind::StallIssue {
                    node: s.node,
                    until: s.window.1,
                },
            });
        }
        // Total order: cycle, then a stable encoding of the event, so
        // equal configs sort identically on every host.
        events.sort_by_key(|e| (e.at, event_sort_key(&e.kind)));
        FaultPlan { cfg, events }
    }

    /// The configuration the plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// The full sorted event schedule.
    #[must_use]
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Does any link-fault window exist at all? (Lets the machine skip
    /// sealing checksums when the plan can never corrupt a packet.)
    #[must_use]
    pub fn has_link_faults(&self) -> bool {
        !self.cfg.links.is_empty()
    }

    /// The injection-time decision for the `nth` packet injected by
    /// node `src` during cycle `cycle`. Pure.
    #[must_use]
    pub fn packet_fault(&self, cycle: u64, src: u32, nth: u32) -> PacketFault {
        for (wi, l) in self.cfg.links.iter().enumerate() {
            if cycle < l.window.0 || cycle >= l.window.1 {
                continue;
            }
            let roll = (mix(&[
                self.cfg.seed,
                2,
                wi as u64,
                cycle,
                u64::from(src),
                u64::from(nth),
            ]) % 100) as u8;
            let c = l.corrupt_pct;
            let d = c.saturating_add(l.drop_pct);
            let y = d.saturating_add(l.delay_pct);
            if roll < c {
                return PacketFault::Corrupt;
            } else if roll < d {
                return PacketFault::Drop;
            } else if roll < y {
                return PacketFault::Delay(l.delay_cycles);
            }
        }
        PacketFault::None
    }

    /// Which payload bit a [`PacketFault::Corrupt`] decision flips, for
    /// a packet whose payload spans `words` words. Returns
    /// `(word_index, bit)`. Pure.
    #[must_use]
    pub fn corrupt_site(&self, cycle: u64, src: u32, nth: u32, words: u32) -> (u32, u8) {
        let h = mix(&[self.cfg.seed, 3, cycle, u64::from(src), u64::from(nth)]);
        #[allow(clippy::cast_possible_truncation)]
        (
            (h % u64::from(words.max(1))) as u32,
            ((h >> 32) % 54) as u8, // stay inside guarded-pointer address bits
        )
    }
}

fn event_sort_key(k: &FaultKind) -> (u8, u64, u64, u64) {
    match *k {
        FaultKind::DramFlip {
            node, addr, bit, ..
        } => (0, u64::from(node), addr, u64::from(bit)),
        FaultKind::StallIssue { node, until } => (1, u64::from(node), until, 0),
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------

/// Error from decoding a checkpoint byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError(pub String);

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint decode: {}", self.0)
    }
}

impl std::error::Error for CkptError {}

/// Little-endian byte encoder for checkpoint state.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh encoder.
    #[must_use]
    pub fn new() -> Enc {
        Enc {
            buf: Vec::with_capacity(4096),
        }
    }

    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte decoder for checkpoint state.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Read the next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let Some(bytes) = rest.first_chunk::<N>() else {
            return Err(CkptError(format!(
                "truncated: wanted {N} bytes at offset {}, have {}",
                self.pos,
                rest.len()
            )));
        };
        self.pos += N;
        Ok(*bytes)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        self.array().map(|[b]| b)
    }

    /// Read a bool byte.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError(format!("bad bool byte {b}"))),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a u64 and narrow it to usize.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError("usize overflow".into()))
    }

    /// Unread bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a slot holding a copy of `what`, a value the restorer
    /// derives itself, and refuse the image unless it equals `derived`.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncation or a copy that disagrees.
    pub fn copy_of<T: Ckpt + PartialEq + fmt::Debug>(
        &mut self,
        what: &str,
        derived: T,
    ) -> Result<(), CkptError> {
        let stored = T::load(self)?;
        if stored != derived {
            return Err(CkptError(format!(
                "stored {what} {stored:?} disagrees with {derived:?}"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Declared checkpoint formats
// ---------------------------------------------------------------------

/// A type with one declared checkpoint byte format: [`Ckpt::save`]
/// writes it and [`Ckpt::load`] reads the same bytes back.
///
/// Integers are little-endian and a `bool` is one byte (a `usize` is
/// written as a `u64`); an [`Option`] is a 0/1 byte, then the value; a
/// [`Vec`], [`VecDeque`] or [`BTreeMap`] is a `usize` length, then the
/// items; arrays and tuples are their items in order. A struct whose
/// format is its fields in order declares it with [`ckpt_struct!`], an
/// enum written as a `u8` tag and the variant's fields with
/// [`ckpt_enum!`].
///
/// The implementations here and those the macros generate are
/// `#[cold]`: checkpoints are rare, and kept out of line their many
/// monomorphized copies stay small. Inlined, they grew the release
/// binary's text by tens of KiB, and with it the file-backed share of
/// a small workload's peak RSS.
pub trait Ckpt: Sized {
    /// Append the value's bytes.
    fn save(&self, e: &mut Enc);

    /// Read a value back.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated or malformed input.
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError>;
}

macro_rules! ckpt_primitive {
    ($($t:ident),*) => {$(
        impl Ckpt for $t {
            #[cold]
            fn save(&self, e: &mut Enc) {
                e.$t(*self);
            }

            #[cold]
            fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
                d.$t()
            }
        }
    )*};
}

ckpt_primitive!(u8, u16, u32, u64, bool, usize);

impl<T: Ckpt + Default, const N: usize> Ckpt for [T; N] {
    #[cold]
    fn save(&self, e: &mut Enc) {
        self.iter().for_each(|v| v.save(e));
    }

    #[cold]
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut a: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut a {
            *v = T::load(d)?;
        }
        Ok(a)
    }
}

macro_rules! ckpt_tuple {
    ($($t:ident),+) => {
        impl<$($t: Ckpt),+> Ckpt for ($($t,)+) {
            #[allow(non_snake_case)]
            #[cold]
            fn save(&self, e: &mut Enc) {
                let ($($t,)+) = self;
                $($t.save(e);)+
            }

            #[cold]
            fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
                Ok(($($t::load(d)?,)+))
            }
        }
    };
}

ckpt_tuple!(A, B);
ckpt_tuple!(A, B, C);
ckpt_tuple!(A, B, C, D);

impl<T: Ckpt> Ckpt for Option<T> {
    #[cold]
    fn save(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.save(e);
        }
    }

    #[cold]
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        match d.u8()? {
            0 => Ok(None),
            1 => T::load(d).map(Some),
            t => Err(CkptError(format!("bad option tag {t}"))),
        }
    }
}

impl<T: Ckpt> Ckpt for Vec<T> {
    #[cold]
    fn save(&self, e: &mut Enc) {
        e.usize(self.len());
        self.iter().for_each(|v| v.save(e));
    }

    /// Every item takes at least one byte, so a length past what is
    /// left of the stream fails at the first missing item without
    /// reserving room for the rest.
    #[cold]
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = d.usize()?;
        let mut v = Vec::with_capacity(n.min(d.remaining()));
        for _ in 0..n {
            v.push(T::load(d)?);
        }
        Ok(v)
    }
}

impl<T: Ckpt> Ckpt for VecDeque<T> {
    #[cold]
    fn save(&self, e: &mut Enc) {
        e.usize(self.len());
        self.iter().for_each(|v| v.save(e));
    }

    #[cold]
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        Vec::load(d).map(VecDeque::from)
    }
}

impl<K: Ckpt + Ord, V: Ckpt> Ckpt for BTreeMap<K, V> {
    #[cold]
    fn save(&self, e: &mut Enc) {
        e.usize(self.len());
        for (k, v) in self {
            k.save(e);
            v.save(e);
        }
    }

    #[cold]
    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut map = BTreeMap::new();
        for _ in 0..d.usize()? {
            let (k, v) = Ckpt::load(d)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Declare each listed struct's checkpoint format as its fields in
/// order: one list gives both directions of [`Ckpt`].
///
/// ```
/// # use mm_faults::{ckpt_struct, Ckpt, Dec, Enc};
/// #[derive(Debug, PartialEq)]
/// struct Span { start: u64, len: u32 }
/// ckpt_struct!(Span { start, len });
///
/// let mut e = Enc::new();
/// Span { start: 7, len: 2 }.save(&mut e);
/// let bytes = e.finish();
/// assert_eq!(bytes.len(), 12);
/// assert_eq!(Span::load(&mut Dec::new(&bytes)), Ok(Span { start: 7, len: 2 }));
/// ```
#[macro_export]
macro_rules! ckpt_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::Ckpt for $ty {
            #[cold]
            fn save(&self, e: &mut $crate::Enc) {
                $($crate::Ckpt::save(&self.$field, e);)+
            }

            #[cold]
            fn load(d: &mut $crate::Dec<'_>) -> Result<Self, $crate::CkptError> {
                Ok($ty { $($field: $crate::Ckpt::load(d)?),+ })
            }
        }
    )+};
}

/// Declare an enum's checkpoint format as a tag table: each variant is
/// its `u8` tag, then its fields in order. A tag the table does not list
/// loads as the error `bad <what> tag <t>`.
///
/// `ckpt_enum!(Type, "what" { rows })` implements [`Ckpt`];
/// `ckpt_enum!(tags Type { rows })` gives only the two halves it is
/// built from, for an enum with a row written by hand:
/// `save_tagged(&self, e) -> bool` writes a listed variant and returns
/// `false` (writing nothing) for any other, and
/// `load_tagged(tag, d) -> Result<Option<Self>, CkptError>` reads the
/// fields of a listed tag's row, or returns `None` for any other.
///
/// ```
/// # use mm_faults::{ckpt_enum, Ckpt, Dec, Enc};
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Line(u32), Box { w: u32, h: u32 } }
/// ckpt_enum!(Shape, "shape" { 0 => Dot, 1 => Line(len), 2 => Box { w, h } });
///
/// let mut e = Enc::new();
/// Shape::Box { w: 3, h: 4 }.save(&mut e);
/// let bytes = e.finish();
/// assert_eq!(bytes[0], 2);
/// assert_eq!(Shape::load(&mut Dec::new(&bytes)), Ok(Shape::Box { w: 3, h: 4 }));
/// let err = Shape::load(&mut Dec::new(&[9])).unwrap_err();
/// assert_eq!(err.0, "bad shape tag 9");
/// ```
#[macro_export]
macro_rules! ckpt_enum {
    (tags $ty:ident {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $ty {
            #[allow(unreachable_patterns)]
            #[cold]
            fn save_tagged(&self, e: &mut $crate::Enc) -> bool {
                match self {
                    $($ty::$var $(($($t),+))? $({ $($f),+ })? => {
                        e.u8($tag);
                        $($($crate::Ckpt::save($t, e);)+)?
                        $($($crate::Ckpt::save($f, e);)+)?
                    })+
                    _ => return false,
                }
                true
            }

            #[cold]
            fn load_tagged(
                tag: u8,
                d: &mut $crate::Dec<'_>,
            ) -> Result<Option<Self>, $crate::CkptError> {
                Ok(Some(match tag {
                    $($tag => $ty::$var
                        $(($({ let $t = $crate::Ckpt::load(d)?; $t }),+))?
                        $({ $($f: $crate::Ckpt::load(d)?),+ })?,)+
                    _ => return Ok(None),
                }))
            }
        }
    };
    ($ty:ident, $what:literal { $($rows:tt)+ }) => {
        $crate::ckpt_enum!(tags $ty { $($rows)+ });

        impl $crate::Ckpt for $ty {
            #[cold]
            fn save(&self, e: &mut $crate::Enc) {
                self.save_tagged(e);
            }

            #[cold]
            fn load(d: &mut $crate::Dec<'_>) -> Result<Self, $crate::CkptError> {
                let tag = d.u8()?;
                Self::load_tagged(tag, d)?.ok_or_else(|| {
                    $crate::CkptError(format!(concat!("bad ", $what, " tag {}"), tag))
                })
            }
        }
    };
}

ckpt_struct! {
    FaultPlanConfig { seed, dram, links, stalls }
    DramFaultConfig { flips, double_every, window, addr }
    LinkFaultConfig { window, corrupt_pct, drop_pct, delay_pct, delay_cycles }
    StallFaultConfig { node, window }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.usize(99);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.usize().unwrap(), 99);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn decoder_flags_truncation() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn plan_is_deterministic() {
        let cfg = FaultPlanConfig {
            seed: 1234,
            dram: vec![DramFaultConfig {
                flips: 50,
                double_every: 5,
                window: (1000, 9000),
                addr: (4096, 8192),
            }],
            links: vec![LinkFaultConfig {
                window: (0, 100_000),
                corrupt_pct: 10,
                drop_pct: 5,
                delay_pct: 5,
                delay_cycles: 64,
            }],
            stalls: vec![StallFaultConfig {
                node: 1,
                window: (500, 700),
            }],
        };
        let a = FaultPlan::build(cfg.clone(), 4);
        let b = FaultPlan::build(cfg, 4);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 51);
        // Events are sorted and in-window.
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for ev in a.events() {
            match ev.kind {
                FaultKind::DramFlip {
                    node, addr, bit, ..
                } => {
                    assert!(node < 4);
                    assert!((4096..8192).contains(&addr));
                    assert!(bit < 64);
                    assert!((1000..9000).contains(&ev.at));
                }
                FaultKind::StallIssue { node, until } => {
                    assert_eq!(node, 1);
                    assert_eq!(until, 700);
                }
            }
        }
        // Double errors appear at the configured rate.
        let doubles = a
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::DramFlip {
                        second_bit: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(doubles, 10);
        // Packet decisions are pure.
        assert_eq!(a.packet_fault(50, 0, 0), a.packet_fault(50, 0, 0));
        assert_eq!(a.packet_fault(200_000, 0, 0), PacketFault::None);
    }

    #[test]
    fn double_flip_bits_differ() {
        let cfg = FaultPlanConfig {
            seed: 7,
            dram: vec![DramFaultConfig {
                flips: 200,
                double_every: 1,
                window: (0, 100),
                addr: (0, 64),
            }],
            ..FaultPlanConfig::default()
        };
        for ev in FaultPlan::build(cfg, 2).events() {
            if let FaultKind::DramFlip {
                bit,
                second_bit: Some(b2),
                ..
            } = ev.kind
            {
                assert_ne!(bit, b2);
                assert!(b2 < 64);
            }
        }
    }

    #[test]
    fn plan_codec_round_trip() {
        let cfg = FaultPlanConfig {
            seed: 99,
            dram: vec![DramFaultConfig {
                flips: 3,
                double_every: 2,
                window: (10, 20),
                addr: (0, 100),
            }],
            links: vec![LinkFaultConfig {
                window: (5, 50),
                corrupt_pct: 1,
                drop_pct: 2,
                delay_pct: 3,
                delay_cycles: 9,
            }],
            stalls: vec![StallFaultConfig {
                node: 0,
                window: (1, u64::MAX),
            }],
        };
        let mut e = Enc::new();
        cfg.save(&mut e);
        let bytes = e.finish();
        assert_eq!(FaultPlanConfig::load(&mut Dec::new(&bytes)), Ok(cfg));
    }

    /// A length prefix of `u64::MAX`, or one far past the bytes left,
    /// fails at the first missing item; reserving room for it would
    /// abort the process instead.
    #[test]
    fn huge_length_prefix_fails_without_allocating() {
        for n in [u64::MAX, 1 << 40] {
            let mut e = Enc::new();
            e.u64(n);
            e.u64(5);
            let bytes = e.finish();
            assert!(Vec::<u64>::load(&mut Dec::new(&bytes)).is_err());
            assert!(VecDeque::<[u64; 4]>::load(&mut Dec::new(&bytes)).is_err());
        }
    }

    #[test]
    fn corrupt_site_in_bounds() {
        let plan = FaultPlan::build(FaultPlanConfig::default(), 1);
        for n in 0..100 {
            let (w, b) = plan.corrupt_site(n, 0, 0, 11);
            assert!(w < 11);
            assert!(b < 54);
        }
    }
}
