//! # mm-telemetry — streaming per-epoch metrics for the cycle engine
//!
//! Stats used to be end-of-run structs printed by binaries; this crate
//! is the ROADMAP's observability layer. The machine samples a
//! [`CounterSnapshot`] of its architectural and host-side counters once
//! per *epoch* (a configurable number of simulated cycles, default
//! [`DEFAULT_EPOCH_CYCLES`]); [`Telemetry`] turns consecutive snapshots
//! into per-epoch deltas ([`EpochSample`]), stores them in a
//! pre-allocated [`MetricsRing`], and — when a stream sink is
//! configured — appends one JSON-lines record per epoch.
//!
//! ## Allocation discipline
//!
//! Sampling is on the warm path of every run loop, so it obeys the
//! repo's hot-path contract (`tests/zero_alloc.rs` pins it): the ring
//! is a fixed `Box<[EpochSample]>` allocated at init, the snapshot is a
//! flat `Copy` struct (per-shard counts live in a fixed
//! [`MAX_SHARDS`]-wide array, not a `Vec`), and the JSONL line is
//! formatted into a `String` whose capacity is reserved at init
//! (`core::fmt` writes integers and floats without heap allocation).
//! Re-serializing the whole ring ([`Telemetry::ring_jsonl`]) allocates
//! freely — that is a cold, end-of-run path.
//!
//! ## Determinism
//!
//! Telemetry only *reads* counters. Every simulated observable —
//! `MachineStats`, halt cycles, `reproduce` output — is bit-identical
//! with telemetry on or off, at any epoch, at any worker count; the
//! `crates/core/tests/telemetry.rs` harness asserts exactly that, plus
//! the stronger stream property that per-epoch deltas sum to the
//! end-of-run totals.

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod schema;

use std::io::Write as _;
use std::time::Instant;

/// Default epoch width in simulated cycles.
pub const DEFAULT_EPOCH_CYCLES: u64 = 4096;

/// Default ring capacity in epochs (once full, the oldest sample is
/// overwritten; the stream sink, when configured, still carries every
/// epoch).
pub const DEFAULT_RING_EPOCHS: usize = 1024;

/// Per-shard node-step counts are reported for at most this many
/// shards; a machine sharded wider folds the excess into the last
/// bucket. Flat array (not `Vec`) so sampling stays allocation-free.
pub const MAX_SHARDS: usize = 16;

/// Version tag stamped into every JSONL record (`"v"`), bumped on any
/// schema change together with `docs/telemetry.schema.json`.
/// v2 added the fault/recovery counters (`ecc_corrected`,
/// `ecc_double_errors`, `crc_nacks`, `dup_drops`, `retransmits`,
/// `bounces`).
pub const STREAM_VERSION: u64 = 2;

/// Telemetry configuration. Disabled by default: a disabled machine
/// carries no ring, no buffers, and pays one branch per processed
/// cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Enable sampling.
    pub enabled: bool,
    /// Epoch width in simulated cycles (`0` = [`DEFAULT_EPOCH_CYCLES`]).
    pub epoch_cycles: u64,
    /// Ring capacity in epochs (`0` = [`DEFAULT_RING_EPOCHS`]).
    pub ring_epochs: usize,
    /// Stream each epoch as one JSON line appended to this file
    /// (created/truncated at init). `None` keeps samples in the ring
    /// only.
    pub stream_path: Option<std::path::PathBuf>,
}

impl TelemetryConfig {
    /// An enabled config at the default epoch, ring-only.
    #[must_use]
    pub fn enabled() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// An enabled config streaming JSONL to `path`.
    #[must_use]
    pub fn streaming(path: impl Into<std::path::PathBuf>) -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            stream_path: Some(path.into()),
            ..TelemetryConfig::default()
        }
    }

    /// The effective epoch width.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        if self.epoch_cycles == 0 {
            DEFAULT_EPOCH_CYCLES
        } else {
            self.epoch_cycles
        }
    }

    /// The effective ring capacity.
    #[must_use]
    pub fn ring(&self) -> usize {
        if self.ring_epochs == 0 {
            DEFAULT_RING_EPOCHS
        } else {
            self.ring_epochs
        }
    }
}

/// One flat reading of every counter the stream reports, taken by the
/// machine at an epoch boundary. All fields are *cumulative* totals
/// since boot; [`Telemetry::sample`] turns consecutive snapshots into
/// deltas. `Copy` and fixed-size by design — gathering one must not
/// allocate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Simulated cycles since boot.
    pub cycles: u64,
    /// Instructions issued machine-wide.
    pub instructions: u64,
    /// Issue-stage candidates probed (host counter).
    pub issue_probes: u64,
    /// Node steps executed (host counter).
    pub node_steps: u64,
    /// User messages sent.
    pub messages: u64,
    /// Fabric packets injected.
    pub fabric_packets: u64,
    /// Flit·hop products carried by mesh links (loopback excluded) —
    /// the numerator of link occupancy.
    pub flit_hops: u64,
    /// Directed mesh links (the occupancy denominator; constant per
    /// machine).
    pub links: u64,
    /// Coherence protocol packets (subset of `fabric_packets`).
    pub coh_packets: u64,
    /// Coherence block fetches serviced (protocol misses).
    pub coh_misses: u64,
    /// Sharer copies invalidated.
    pub coh_invalidations: u64,
    /// Dirty blocks written back on recall.
    pub coh_writebacks: u64,
    /// Synchronizing-fault retries.
    pub sync_retries: u64,
    /// SECDED single-bit errors corrected in DRAM.
    pub ecc_corrected: u64,
    /// Uncorrectable SECDED double-bit errors observed.
    pub ecc_double_errors: u64,
    /// Messages NACKed back to senders on checksum mismatch.
    pub crc_nacks: u64,
    /// Duplicate retransmissions dropped by idempotent receive.
    pub dup_drops: u64,
    /// Pristine-copy retransmissions after a NACK.
    pub retransmits: u64,
    /// Messages bounced back to senders on queue overflow (§4.1).
    pub bounces: u64,
    /// Shards the node phase is split into (1 = serial).
    pub shards: u32,
    /// Node steps per shard (first `shards` entries; shard
    /// `MAX_SHARDS-1` absorbs any wider split).
    pub shard_steps: [u64; MAX_SHARDS],
}

/// One epoch's deltas plus derived rates — the unit of the stream, the
/// ring, and the JSONL schema.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSample {
    /// Epoch index (0-based, strictly increasing along a stream).
    pub epoch: u64,
    /// First cycle covered (== previous sample's `end_cycle`).
    pub start_cycle: u64,
    /// One past the last cycle covered. Normally `start_cycle +
    /// epoch_cycles`, but a fast-forwarded clock may jump several
    /// epochs (one wider sample is emitted) and a flush may close a
    /// partial epoch early.
    pub end_cycle: u64,
    /// Host wall-clock nanoseconds the epoch took.
    pub wall_ns: u64,
    /// Simulated cycles per wall second over the epoch (0 when the
    /// clock resolution swallowed the epoch).
    pub cycles_per_sec: f64,
    /// Instructions issued this epoch.
    pub instructions: u64,
    /// Issue-stage candidates probed this epoch.
    pub issue_probes: u64,
    /// `instructions / issue_probes` (1.0 when nothing was probed).
    pub issue_hit_rate: f64,
    /// Node steps executed this epoch.
    pub node_steps: u64,
    /// User messages sent this epoch.
    pub messages: u64,
    /// Fabric packets injected this epoch.
    pub fabric_packets: u64,
    /// Flit·hops carried this epoch.
    pub flit_hops: u64,
    /// `flit_hops / (cycles × links)` — mean fraction of link·cycles
    /// carrying a flit.
    pub link_occupancy: f64,
    /// Coherence packets this epoch.
    pub coh_packets: u64,
    /// Coherence misses (block fetches) this epoch.
    pub coh_misses: u64,
    /// Invalidations this epoch.
    pub coh_invalidations: u64,
    /// Writebacks this epoch.
    pub coh_writebacks: u64,
    /// Sync-fault retries this epoch.
    pub sync_retries: u64,
    /// SECDED single-bit corrections this epoch.
    pub ecc_corrected: u64,
    /// Uncorrectable SECDED double-bit errors this epoch.
    pub ecc_double_errors: u64,
    /// Messages NACKed on checksum mismatch this epoch.
    pub crc_nacks: u64,
    /// Duplicate retransmissions dropped by the idempotent-receive
    /// window this epoch.
    pub dup_drops: u64,
    /// Pristine-copy retransmissions this epoch.
    pub retransmits: u64,
    /// Queue-full §4.1 bounces this epoch.
    pub bounces: u64,
    /// Shards reported in `shard_steps`.
    pub shards: u32,
    /// Per-shard node-step deltas (first `shards` entries meaningful).
    pub shard_steps: [u64; MAX_SHARDS],
}

/// Fixed-capacity ring of the most recent epochs. Pushing past capacity
/// overwrites the oldest sample (`dropped` counts how many).
#[derive(Debug)]
pub struct MetricsRing {
    buf: Box<[EpochSample]>,
    /// Next write position.
    head: usize,
    /// Live samples (≤ capacity).
    len: usize,
    /// Samples overwritten since init.
    dropped: u64,
}

impl MetricsRing {
    /// An empty ring holding up to `capacity` epochs.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    // analyze: cold (ring construction; sampling writes into this storage)
    #[must_use]
    pub fn new(capacity: usize) -> MetricsRing {
        assert!(capacity > 0, "a telemetry ring needs capacity");
        MetricsRing {
            buf: vec![EpochSample::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Store a sample, overwriting the oldest when full. No allocation.
    pub fn push(&mut self, s: EpochSample) {
        if self.len == self.buf.len() {
            self.dropped += 1;
        } else {
            self.len += 1;
        }
        self.buf[self.head] = s;
        self.head = (self.head + 1) % self.buf.len();
    }

    /// Live samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the ring empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in epochs.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Samples overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &EpochSample> {
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |k| &self.buf[(start + k) % cap])
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<&EpochSample> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[(self.head + self.buf.len() - 1) % self.buf.len()])
        }
    }
}

impl<'a> IntoIterator for &'a MetricsRing {
    type Item = &'a EpochSample;
    type IntoIter = Box<dyn Iterator<Item = &'a EpochSample> + 'a>;
    // analyze: cold (diagnostic iteration; sampling never iterates the ring)
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Capacity reserved for one JSONL line. A full record with 16 shard
/// entries measures ~500 bytes at realistic values; the worst case
/// (every counter at `u64::MAX`) stays under this bound (the
/// `jsonl_line_fits_preallocated_capacity` test pins it), so the line
/// buffer never reallocates mid-run.
pub(crate) const LINE_CAPACITY: usize = 1536;

/// The sampler: owns the ring, the previous snapshot, the pre-allocated
/// line buffer and the optional stream sink. Driven by the machine —
/// this crate never touches simulator state itself.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    ring: MetricsRing,
    prev: CounterSnapshot,
    /// Cycle at/after which the next sample is due.
    next_due: u64,
    epoch_index: u64,
    last_wall: Instant,
    line: String,
    sink: Option<std::fs::File>,
}

impl Telemetry {
    /// Build a sampler (opens and truncates the stream sink if one is
    /// configured).
    ///
    /// # Errors
    ///
    /// Any I/O error opening the stream path.
    // analyze: cold (sampler construction; the line buffer is reused per epoch)
    pub fn new(cfg: TelemetryConfig) -> std::io::Result<Telemetry> {
        let sink = match &cfg.stream_path {
            Some(p) => Some(std::fs::File::create(p)?),
            None => None,
        };
        Ok(Telemetry {
            ring: MetricsRing::new(cfg.ring()),
            prev: CounterSnapshot::default(),
            next_due: cfg.epoch(),
            epoch_index: 0,
            last_wall: Instant::now(),
            line: String::with_capacity(LINE_CAPACITY),
            sink,
            cfg,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Cycle at/after which the machine should take the next sample.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// The sample ring (oldest → newest via [`MetricsRing::iter`]).
    #[must_use]
    pub fn ring(&self) -> &MetricsRing {
        &self.ring
    }

    /// Close one epoch: turn `cur` (cumulative totals) into deltas
    /// against the previous snapshot, derive rates, push the sample,
    /// and append one JSONL line to the sink when streaming.
    /// Allocation-free in steady state.
    pub fn sample(&mut self, cur: &CounterSnapshot) {
        let wall = self.last_wall.elapsed();
        self.last_wall = Instant::now();
        let dc = cur.cycles - self.prev.cycles;
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let d_instr = cur.instructions - self.prev.instructions;
        let d_probes = cur.issue_probes - self.prev.issue_probes;
        let d_flit_hops = cur.flit_hops - self.prev.flit_hops;
        let mut shard_steps = [0u64; MAX_SHARDS];
        for (d, (c, p)) in shard_steps
            .iter_mut()
            .zip(cur.shard_steps.iter().zip(self.prev.shard_steps.iter()))
        {
            *d = c - p;
        }
        #[allow(clippy::cast_precision_loss)]
        let s = EpochSample {
            epoch: self.epoch_index,
            start_cycle: self.prev.cycles,
            end_cycle: cur.cycles,
            wall_ns,
            cycles_per_sec: if wall_ns == 0 {
                0.0
            } else {
                dc as f64 * 1e9 / wall_ns as f64
            },
            instructions: d_instr,
            issue_probes: d_probes,
            issue_hit_rate: if d_probes == 0 {
                1.0
            } else {
                d_instr as f64 / d_probes as f64
            },
            node_steps: cur.node_steps - self.prev.node_steps,
            messages: cur.messages - self.prev.messages,
            fabric_packets: cur.fabric_packets - self.prev.fabric_packets,
            flit_hops: d_flit_hops,
            link_occupancy: if dc == 0 || cur.links == 0 {
                0.0
            } else {
                d_flit_hops as f64 / (dc * cur.links) as f64
            },
            coh_packets: cur.coh_packets - self.prev.coh_packets,
            coh_misses: cur.coh_misses - self.prev.coh_misses,
            coh_invalidations: cur.coh_invalidations - self.prev.coh_invalidations,
            coh_writebacks: cur.coh_writebacks - self.prev.coh_writebacks,
            sync_retries: cur.sync_retries - self.prev.sync_retries,
            ecc_corrected: cur.ecc_corrected - self.prev.ecc_corrected,
            ecc_double_errors: cur.ecc_double_errors - self.prev.ecc_double_errors,
            crc_nacks: cur.crc_nacks - self.prev.crc_nacks,
            dup_drops: cur.dup_drops - self.prev.dup_drops,
            retransmits: cur.retransmits - self.prev.retransmits,
            bounces: cur.bounces - self.prev.bounces,
            shards: cur.shards,
            shard_steps,
        };
        self.prev = *cur;
        self.epoch_index += 1;
        // Next boundary: the first multiple of the epoch width past the
        // current clock (a fast-forwarded clock may have jumped several
        // boundaries; they collapse into the one sample above).
        let e = self.cfg.epoch();
        self.next_due = (cur.cycles / e + 1) * e;
        if self.sink.is_some() {
            self.line.clear();
            export::write_jsonl_line(&s, &mut self.line);
            if let Some(f) = &mut self.sink {
                // Stream write failure must not kill a simulation run;
                // drop the sink and keep sampling into the ring.
                if f.write_all(self.line.as_bytes()).is_err() {
                    self.sink = None;
                }
            }
        }
        self.ring.push(s);
    }

    /// Close the partial epoch in progress, if any cycles have elapsed
    /// since the last boundary. Call at end of run so stream totals
    /// match end-of-run stats exactly.
    pub fn flush(&mut self, cur: &CounterSnapshot) {
        if cur.cycles > self.prev.cycles {
            self.sample(cur);
        }
        if let Some(f) = &mut self.sink {
            let _ = f.flush();
        }
    }

    /// Re-serialize the whole ring as JSONL (cold path, allocates).
    // analyze: cold (end-of-run rendering for mmctl/tests)
    #[must_use]
    pub fn ring_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.ring.iter() {
            export::write_jsonl_line(s, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycles: u64, instr: u64) -> CounterSnapshot {
        CounterSnapshot {
            cycles,
            instructions: instr,
            issue_probes: instr * 2,
            node_steps: cycles,
            links: 4,
            flit_hops: cycles / 2,
            shards: 1,
            shard_steps: {
                let mut s = [0; MAX_SHARDS];
                s[0] = cycles;
                s
            },
            ..CounterSnapshot::default()
        }
    }

    #[test]
    fn deltas_and_rates() {
        let mut t = Telemetry::new(TelemetryConfig::enabled()).unwrap();
        assert_eq!(t.next_due(), DEFAULT_EPOCH_CYCLES);
        t.sample(&snap(4096, 1000));
        t.sample(&snap(8192, 1600));
        let samples: Vec<_> = t.ring().iter().copied().collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].epoch, 0);
        assert_eq!(samples[0].start_cycle, 0);
        assert_eq!(samples[0].end_cycle, 4096);
        assert_eq!(samples[0].instructions, 1000);
        assert_eq!(samples[1].epoch, 1);
        assert_eq!(samples[1].start_cycle, 4096);
        assert_eq!(samples[1].instructions, 600);
        assert!((samples[1].issue_hit_rate - 0.5).abs() < 1e-12);
        // flit_hops delta 2048 over 4096 cycles × 4 links.
        assert!((samples[1].link_occupancy - 2048.0 / (4096.0 * 4.0)).abs() < 1e-12);
        assert_eq!(t.next_due(), 3 * DEFAULT_EPOCH_CYCLES);
    }

    #[test]
    fn fast_forward_collapses_epochs() {
        let mut t = Telemetry::new(TelemetryConfig::enabled()).unwrap();
        // The clock jumped 10 epochs: one wide sample, next_due on the
        // next boundary after the jump.
        t.sample(&snap(10 * 4096 + 5, 7));
        assert_eq!(t.ring().len(), 1);
        let s = *t.ring().last().unwrap();
        assert_eq!(s.end_cycle, 10 * 4096 + 5);
        assert_eq!(t.next_due(), 11 * 4096);
    }

    #[test]
    fn flush_closes_partial_epochs_only() {
        let mut t = Telemetry::new(TelemetryConfig::enabled()).unwrap();
        t.sample(&snap(4096, 10));
        t.flush(&snap(4096, 10)); // nothing elapsed — no sample
        assert_eq!(t.ring().len(), 1);
        t.flush(&snap(5000, 12));
        assert_eq!(t.ring().len(), 2);
        assert_eq!(t.ring().last().unwrap().end_cycle, 5000);
        assert_eq!(t.ring().last().unwrap().instructions, 2);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = MetricsRing::new(3);
        for k in 0..5u64 {
            r.push(EpochSample {
                epoch: k,
                ..EpochSample::default()
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let epochs: Vec<u64> = r.iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4]);
        assert_eq!(r.last().unwrap().epoch, 4);
    }

    #[test]
    fn custom_epoch_and_ring() {
        let cfg = TelemetryConfig {
            enabled: true,
            epoch_cycles: 100,
            ring_epochs: 2,
            stream_path: None,
        };
        let t = Telemetry::new(cfg).unwrap();
        assert_eq!(t.next_due(), 100);
        assert_eq!(t.ring().capacity(), 2);
    }
}
