//! The column table: every counter and rate the stream reports,
//! declared once, in JSONL order between the fixed header (`v`,
//! `epoch`, `start_cycle`, `end_cycle`, `wall_ns`) and the
//! `shard_steps` tail.
//!
//! A `counter NAME: "help";` row is a cumulative `u64` in
//! [`CounterSnapshot`] and a per-epoch delta in [`EpochSample`]. A
//! `rate NAME(PRECISION): "help" = |s, cur| FORMULA;` row is an `f64`
//! in [`EpochSample`] only, computed from the sample `s` (header and
//! deltas) and the snapshot `cur` that closed the epoch, and written
//! with PRECISION decimals. The table generates both structs' column
//! fields, [`COLUMNS`], the `counters()` accessors, the rates and the
//! JSONL columns; the help string is each field's doc and each
//! Prometheus family's `# HELP`.

use crate::MAX_SHARDS;
use std::fmt::Write as _;

/// Whether a column is counted or derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Cumulative `u64` in the snapshot, per-epoch delta in the sample.
    Counter,
    /// `f64` derived per epoch; only the sample carries it.
    Rate,
}

/// One row of the column table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// JSONL key and struct field name.
    pub name: &'static str,
    /// Counter or rate.
    pub kind: ColumnKind,
    /// One-line description.
    pub help: &'static str,
}

/// A rate row's formula.
type Formula = fn(&EpochSample, &CounterSnapshot) -> f64;

/// `num / den`, or `empty` when `den` is zero.
#[allow(clippy::cast_precision_loss)]
fn ratio(num: f64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num / den as f64
    }
}

/// Sorts the rows into the counter list, the rate list and the list of
/// every column, then generates from the three lists.
macro_rules! column_table {
    (@split [$($c:tt)*] [$($r:tt)*] [$($all:tt)*]
        counter $name:ident: $help:literal; $($rest:tt)*) => {
        column_table! { @split
            [$($c)* ($name $help)]
            [$($r)*]
            [$($all)* ($name Counter $help u64 ["{}"])]
            $($rest)*
        }
    };
    (@split [$($c:tt)*] [$($r:tt)*] [$($all:tt)*]
        rate $name:ident($prec:literal): $help:literal = $f:expr; $($rest:tt)*) => {
        column_table! { @split
            [$($c)*]
            [$($r)* ($name $f)]
            [$($all)* ($name Rate $help f64 ["{:.", $prec, "}"])]
            $($rest)*
        }
    };
    (@split
        [$(($c:ident $chelp:literal))*]
        [$(($r:ident $f:expr))*]
        [$(($name:ident $kind:ident $help:literal $ty:ident [$($fmt:tt)*]))*]
    ) => {
        /// One flat reading of every counter the stream reports, taken
        /// at an epoch boundary: cumulative totals since boot, which
        /// [`Telemetry::sample`](crate::Telemetry::sample) turns into
        /// deltas. `Copy` and fixed-size, so gathering one never
        /// allocates.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            /// Simulated cycles since boot.
            pub cycles: u64,
            $(#[doc = $chelp] pub $c: u64,)*
            /// Directed mesh links (constant per machine).
            pub links: u64,
            /// Shards the node phase is split into (1 = serial).
            pub shards: u32,
            /// Node steps per shard (first `shards` entries; shard
            /// `MAX_SHARDS-1` absorbs any wider split).
            pub shard_steps: [u64; MAX_SHARDS],
        }

        /// One epoch — the unit of the stream, the ring and the JSONL
        /// schema. Counter columns hold the epoch's delta; rate columns
        /// are computed over the epoch.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct EpochSample {
            /// Epoch index (0-based, strictly increasing along a stream).
            pub epoch: u64,
            /// First cycle covered (== previous sample's `end_cycle`).
            pub start_cycle: u64,
            /// One past the last cycle covered: a fast-forwarded clock
            /// or a flush may make the epoch wider or narrower.
            pub end_cycle: u64,
            /// Host wall-clock nanoseconds the epoch took.
            pub wall_ns: u64,
            $(#[doc = $help] pub $name: $ty,)*
            /// Shards reported in `shard_steps`.
            pub shards: u32,
            /// Per-shard node-step deltas (first `shards` entries).
            pub shard_steps: [u64; MAX_SHARDS],
        }

        /// Every column, in JSONL order.
        pub const COLUMNS: [Column; [$(stringify!($name)),*].len()] = [$(
            Column { name: stringify!($name), kind: ColumnKind::$kind, help: $help },
        )*];

        /// Number of counter columns.
        pub const N_COUNTERS: usize = [$(stringify!($c)),*].len();

        impl CounterSnapshot {
            /// Every counter column, in table order.
            #[must_use]
            pub fn counters(&self) -> [u64; N_COUNTERS] {
                [$(self.$c),*]
            }
        }

        impl EpochSample {
            /// Every counter column, in table order.
            #[must_use]
            pub fn counters(&self) -> [u64; N_COUNTERS] {
                [$(self.$c),*]
            }

            /// This sample with its counter columns set to `values`, in
            /// table order.
            #[cfg(test)]
            pub(crate) fn with_counters(mut self, values: [u64; N_COUNTERS]) -> Self {
                let [$($c),*] = values;
                $(self.$c = $c;)*
                self
            }

            /// Set every counter column to its delta from `prev` to `cur`.
            pub(crate) fn set_deltas(&mut self, prev: &CounterSnapshot, cur: &CounterSnapshot) {
                $(self.$c = cur.$c - prev.$c;)*
            }

            /// Compute the rate columns from the header, the counter
            /// deltas and `cur`, the snapshot that closed the epoch.
            #[allow(clippy::cast_precision_loss)]
            pub(crate) fn derive_rates(&mut self, cur: &CounterSnapshot) {
                $(self.$r = ($f as Formula)(self, cur);)*
            }

            /// Append `,"name":value` for every column, in table order.
            pub(crate) fn write_columns(&self, out: &mut String) {
                $(let _ = write!(out, concat!(",\"", stringify!($name), "\":", $($fmt)*), self.$name);)*
            }
        }
    };
    ($($rows:tt)*) => {
        column_table! { @split [] [] [] $($rows)* }
    };
}

column_table! {
    // Zero when the clock resolution swallowed the epoch.
    rate cycles_per_sec(1): "Simulated cycles per wall second" =
        |s, _| ratio((s.end_cycle - s.start_cycle) as f64 * 1e9, s.wall_ns, 0.0);
    counter instructions: "Instructions issued";
    counter issue_probes: "Issue-stage candidates probed";
    // One when nothing was probed.
    rate issue_hit_rate(6): "Issue-stage hit rate" =
        |s, _| ratio(s.instructions as f64, s.issue_probes, 1.0);
    counter node_steps: "Node steps executed";
    counter messages: "User messages sent";
    counter fabric_packets: "Fabric packets injected";
    // Loopback excluded.
    counter flit_hops: "Flit-hops carried by mesh links";
    // The mean fraction of link·cycles carrying a flit.
    rate link_occupancy(6): "Mean fabric link occupancy" =
        |s, cur| ratio(s.flit_hops as f64, (s.end_cycle - s.start_cycle) * cur.links, 0.0);
    // A subset of fabric_packets.
    counter coh_packets: "Coherence protocol packets";
    counter coh_misses: "Coherence block fetches";
    counter coh_invalidations: "Sharer copies invalidated";
    counter coh_writebacks: "Dirty blocks written back";
    counter sync_retries: "Synchronizing-fault retries";
    counter ecc_corrected: "SECDED single-bit corrections";
    counter ecc_double_errors: "Uncorrectable SECDED double-bit errors";
    counter crc_nacks: "Messages NACKed on checksum mismatch";
    // By the idempotent-receive window.
    counter dup_drops: "Duplicate retransmissions dropped";
    counter retransmits: "Pristine-copy retransmissions";
    // §4.1: returned to the sender on receive-queue overflow.
    counter bounces: "Queue-full message bounces";
}
