//! `mmctl` — operator inspector for the M-Machine simulator.
//!
//! ```text
//! mmctl analyze [--root DIR] [--json] [--output report.json]
//! mmctl check <stream.jsonl> [--schema docs/telemetry.schema.json]
//! mmctl tail <stream.jsonl> [-n 10] [--follow]
//! mmctl snapshot <snapshot.json>
//! mmctl snapshot --save <ckpt.bin> [--at N] [scenario flags]
//! mmctl snapshot --restore <ckpt.bin> [scenario flags]
//! mmctl prom <stream.jsonl>
//! mmctl run [--dims 2x2x1] [--iters 64] [--epoch 64]
//!           [--faults plan.json] [--out run.jsonl]
//!           [--snapshot-out snap.json] [--prom]
//! mmctl campaign [--seed 7] [--out BENCH_faults.json]
//! ```
//!
//! `check` validates every JSONL record against the committed schema
//! plus the cross-line invariants (epoch monotonicity, contiguous cycle
//! coverage) — CI's telemetry smoke runs exactly this; a stream cut off
//! mid-record by a killed writer is tolerated and noted. `snapshot`
//! renders a dumped [`mm_core::machine::MMachine::snapshot_json`]
//! document as a per-node pipeline/queue/directory table and a per-link
//! fabric heatmap; `--save`/`--restore` round-trip a binary machine
//! checkpoint of the busy scenario through disk. `run` attaches the
//! whole pipeline to an in-process sim run of the busy-traffic
//! scenario, optionally with a fault campaign armed from a plan file.
//! `campaign` runs the seeded fault campaign twice and the
//! crash-recovery round trip, and writes their counts as a
//! host-independent JSON record (CI byte-diffs the committed
//! `BENCH_faults.json` against it).
//!
//! Exit codes: 0 success, 1 check/render/run failure, 2 usage
//! (including a flag the subcommand does not know and a mesh the busy
//! scenario cannot be built on). Everything
//! `mmctl` prints goes through one writer (`out!`/`outln!`): when
//! the reader goes away (`mmctl run | head -1`) it stops quietly with
//! exit 0 instead of panicking.

use mm_telemetry::json::parse;
use mm_telemetry::TelemetryConfig;
use mm_tools::plan::plan_from_json;
use mm_tools::render::{epoch_brief, prometheus_from_stream, render_snapshot};
use mm_tools::stream::check_stream;

const USAGE: &str = "usage: mmctl <analyze|check|tail|snapshot|prom|run|campaign> [args]
  analyze [--root <dir>] [--json] [--output <report.json>]
                                                  run the mm-analyze static pass
  check <stream.jsonl> [--schema <schema.json>]   validate a telemetry stream
  tail <stream.jsonl> [-n N] [--follow]           show the last N epochs
  snapshot <snapshot.json>                        render node table + link heatmap
  snapshot --save <ckpt.bin> [--at N] [--dims XxYxZ] [--iters N]
           [--faults <plan.json>]                 checkpoint the busy scenario at cycle N
  snapshot --restore <ckpt.bin> [--dims XxYxZ] [--iters N]
           [--faults <plan.json>]                 restore and run to completion
  prom <stream.jsonl>                             convert JSONL to Prometheus text
  run [--dims XxYxZ] [--iters N] [--epoch N] [--faults <plan.json>]
      [--out <stream.jsonl>] [--snapshot-out <snap.json>] [--prom]
                                                  run the busy scenario in-process
  campaign [--seed N] [--out <faults.json>]
                                                  seeded fault campaign + crash recovery";

/// A usage-class failure: printed with the usage text, exit code 2.
type UsageError = String;

/// A subcommand's flags, each with whether it takes a value.
type Flags<'a> = &'a [(&'a str, bool)];

/// A subcommand: its arguments in, its exit code out.
type Subcommand = fn(&[String]) -> Result<i32, UsageError>;

/// Write to stdout — the one path every line of output takes. A reader
/// that has gone away (a closed pipe) ends the run quietly with exit 0;
/// any other write error is exit 1.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("mmctl: stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through `emit`.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through `emit`.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Refuse any `--` argument that is not one of `flags`, so a typo or a
/// retired flag is a usage error instead of a silently applied default.
/// A value-taking flag's value is skipped, whatever it looks like.
fn refuse_unknown_flags(args: &[String], flags: Flags) -> Result<(), UsageError> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match flags.iter().find(|(f, _)| f == a) {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            None => {}
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, UsageError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(k) => args
            .get(k + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} takes a value")),
    }
}

fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
    what: &str,
) -> Result<T, UsageError> {
    flag_value(args, flag)?.map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{flag} takes {what}"))
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn parse_dims(s: &str) -> Result<(u8, u8, u8), UsageError> {
    let parts: Vec<u8> = s.split('x').filter_map(|p| p.parse().ok()).collect();
    if parts.len() != 3 || s.split('x').count() != 3 {
        return Err(format!("--dims takes XxYxZ, got {s:?}"));
    }
    Ok((parts[0], parts[1], parts[2]))
}

/// The busy-scenario knobs shared by `run` and `snapshot --save/--restore`.
/// Restore rebuilds the machine from the same flags, so the checkpoint's
/// config/plan validation catches a mismatched invocation.
struct Scenario {
    dims: (u8, u8, u8),
    iters: u64,
    faults: Option<mm_faults::FaultPlanConfig>,
}

impl Scenario {
    fn from_args(args: &[String]) -> Result<Scenario, UsageError> {
        let dims = match flag_value(args, "--dims")? {
            Some(v) => parse_dims(&v)?,
            None => (2, 2, 1),
        };
        let faults = match flag_value(args, "--faults")? {
            Some(p) => {
                let text = read(&p)?;
                Some(plan_from_json(&text).map_err(|e| format!("{p}: {e}"))?)
            }
            None => None,
        };
        Ok(Scenario {
            dims,
            iters: parsed_flag(args, "--iters", 64, "a count")?,
            faults,
        })
    }

    /// Build the busy scenario; a mesh it cannot run on (one that does
    /// not build, or an odd node count) is a usage error.
    fn build(&self, telemetry: TelemetryConfig) -> Result<mm_core::machine::MMachine, UsageError> {
        mm_bench::scaling::build_busy_scenario_full(
            self.dims,
            self.iters,
            telemetry,
            self.faults.clone(),
        )
        .map_err(|e| {
            format!(
                "--dims {}x{}x{}: {e}",
                self.dims.0, self.dims.1, self.dims.2
            )
        })
    }
}

fn cmd_check(args: &[String]) -> Result<i32, UsageError> {
    let Some(path) = args.first() else {
        return Err("check needs a stream path".into());
    };
    let schema = match flag_value(args, "--schema")? {
        Some(p) => {
            let text = read(&p)?;
            Some(parse(&text).map_err(|e| format!("schema {p}: {e}"))?)
        }
        None => None,
    };
    let report = check_stream(&read(path)?, schema.as_ref());
    outln!(
        "{path}: {} epochs, {} cycles, {} instructions",
        report.lines,
        report.cycles,
        report.instructions
    );
    if report.truncated {
        outln!("note: stream ends in a truncated partial record (tolerated)");
    }
    if report.lines == 0 {
        eprintln!("mmctl: {path}: stream is empty");
        return Ok(1);
    }
    if report.is_ok() {
        outln!("ok: schema and stream invariants hold");
        Ok(0)
    } else {
        for e in &report.errors {
            eprintln!("error: {e}");
        }
        eprintln!("mmctl: {} violation(s)", report.errors.len());
        Ok(1)
    }
}

/// Print the last `n` complete epochs of `text` and return the byte
/// offset past the last complete line — a partial trailing line (a
/// writer mid-record) is left for the next poll.
fn print_tail(text: &str, n: usize) -> usize {
    let complete = if text.ends_with('\n') {
        text.len()
    } else {
        text.rfind('\n').map_or(0, |k| k + 1)
    };
    let lines: Vec<&str> = text[..complete]
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let start = lines.len().saturating_sub(n);
    for l in &lines[start..] {
        outln!("{}", epoch_brief(l));
    }
    complete
}

fn cmd_tail(args: &[String]) -> Result<i32, UsageError> {
    let Some(path) = args.first() else {
        return Err("tail needs a stream path".into());
    };
    let n: usize = parsed_flag(args, "-n", 10, "a count")?;
    let follow = args.iter().any(|a| a == "--follow");
    let mut seen = print_tail(&read(path)?, n);
    if follow {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let text = std::fs::read_to_string(path).unwrap_or_default();
            if text.len() < seen {
                // Truncated/rotated underneath us: start over.
                seen = 0;
            }
            seen += print_tail(&text[seen..], usize::MAX);
        }
    }
    Ok(0)
}

fn cmd_snapshot(args: &[String]) -> Result<i32, UsageError> {
    if let Some(path) = flag_value(args, "--save")? {
        return snapshot_save(args, &path);
    }
    if let Some(path) = flag_value(args, "--restore")? {
        return snapshot_restore(args, &path);
    }
    let Some(path) = args.first() else {
        return Err("snapshot needs a snapshot path (or --save/--restore)".into());
    };
    match render_snapshot(&read(path)?) {
        Ok(s) => {
            out!("{s}");
            Ok(0)
        }
        Err(e) => {
            eprintln!("mmctl: {path}: {e}");
            Ok(1)
        }
    }
}

fn snapshot_save(args: &[String], path: &str) -> Result<i32, UsageError> {
    let scenario = Scenario::from_args(args)?;
    let at: u64 = parsed_flag(args, "--at", 1_000, "a cycle count")?;
    let mut m = scenario.build(TelemetryConfig::default())?;
    m.run_cycles(at);
    let ckpt = m.checkpoint();
    if let Err(e) = std::fs::write(path, &ckpt) {
        eprintln!("mmctl: write {path}: {e}");
        return Ok(1);
    }
    outln!(
        "checkpointed busy {}x{}x{} at cycle {} -> {path} ({} bytes)",
        scenario.dims.0,
        scenario.dims.1,
        scenario.dims.2,
        m.cycle(),
        ckpt.len()
    );
    Ok(0)
}

fn snapshot_restore(args: &[String], path: &str) -> Result<i32, UsageError> {
    let scenario = Scenario::from_args(args)?;
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mmctl: read {path}: {e}");
            return Ok(1);
        }
    };
    let mut m = scenario.build(TelemetryConfig::default())?;
    if let Err(e) = m.restore(&bytes) {
        eprintln!("mmctl: restore {path}: {e}");
        eprintln!("mmctl: (the scenario flags must match the ones used with --save)");
        return Ok(1);
    }
    outln!("restored {path} at cycle {}", m.cycle());
    if let Err(e) = m.run_until_halt(mm_bench::scaling::RUN_LIMIT) {
        eprintln!("mmctl: restored run did not complete: {e}");
        if let Some(d) = m.last_diagnostic() {
            eprintln!("{d}");
        }
        return Ok(1);
    }
    print_run_summary(&m, scenario.dims, scenario.iters);
    Ok(0)
}

fn print_run_summary(m: &mm_core::machine::MMachine, dims: (u8, u8, u8), iters: u64) {
    let stats = m.stats();
    outln!(
        "ran busy {}x{}x{} ({} iters/node): {} cycles, {} instructions, {} messages",
        dims.0,
        dims.1,
        dims.2,
        iters,
        stats.cycles,
        stats.instructions,
        stats.messages
    );
    if let Some(r) = m.fault_report() {
        let snap = m.counter_snapshot();
        outln!(
            "faults: {} corrupted, {} dropped, {} delayed, {} dram flips | \
             recovery: {} crc-nacks, {} retransmits, {} dup-drops, {} ecc-corrected, \
             {} ecc-double",
            r.packets_corrupted,
            r.packets_dropped,
            r.packets_delayed,
            r.dram_flips,
            snap.crc_nacks,
            snap.retransmits,
            snap.dup_drops,
            snap.ecc_corrected,
            snap.ecc_double_errors
        );
    }
}

/// `mmctl analyze` — the same pass as `cargo run -p mm-analyze`, so an
/// operator who already has mmctl on hand can vet a tree without the
/// second binary. Reads `analyze.toml` from `--root` (default: walk up
/// from the current directory).
fn cmd_analyze(args: &[String]) -> Result<i32, UsageError> {
    let root = match flag_value(args, "--root")? {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            mm_analyze::find_root(&cwd)
                .ok_or("no analyze.toml found between here and filesystem root (use --root)")?
        }
    };
    let report = match mm_analyze::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mmctl: analyze: {e}");
            return Ok(1);
        }
    };
    if let Some(out) = flag_value(args, "--output")? {
        if let Err(e) = std::fs::write(&out, mm_analyze::report::to_json(&report)) {
            eprintln!("mmctl: write {out}: {e}");
            return Ok(1);
        }
    }
    if args.iter().any(|a| a == "--json") {
        out!("{}", mm_analyze::report::to_json(&report));
    } else {
        out!("{}", mm_analyze::report::to_text(&report));
    }
    Ok(i32::from(!report.is_clean()))
}

fn cmd_prom(args: &[String]) -> Result<i32, UsageError> {
    let Some(path) = args.first() else {
        return Err("prom needs a stream path".into());
    };
    match prometheus_from_stream(&read(path)?) {
        Ok(s) => {
            out!("{s}");
            Ok(0)
        }
        Err(e) => {
            eprintln!("mmctl: {path}: {e}");
            Ok(1)
        }
    }
}

fn cmd_run(args: &[String]) -> Result<i32, UsageError> {
    let scenario = Scenario::from_args(args)?;
    let epoch: u64 = parsed_flag(args, "--epoch", 64, "a cycle count")?;
    let out = flag_value(args, "--out")?;
    let snapshot_out = flag_value(args, "--snapshot-out")?;
    let want_prom = args.iter().any(|a| a == "--prom");

    let tel = TelemetryConfig {
        enabled: true,
        epoch_cycles: epoch,
        ring_epochs: 0,
        stream_path: out.clone().map(Into::into),
    };
    let mut m = scenario.build(tel)?;
    if let Err(e) = m.run_until_halt(mm_bench::scaling::RUN_LIMIT) {
        eprintln!("mmctl: run did not complete: {e}");
        if let Some(d) = m.last_diagnostic() {
            eprintln!("{d}");
        }
        return Ok(1);
    }
    m.telemetry_flush();

    print_run_summary(&m, scenario.dims, scenario.iters);
    let Some(telemetry) = m.telemetry() else {
        eprintln!("mmctl: telemetry unexpectedly disabled");
        return Ok(1);
    };
    outln!("--- last epochs ---");
    print_tail(&telemetry.ring_jsonl(), 5);
    if let Some(p) = &out {
        outln!("wrote {p}");
    }
    if want_prom {
        match prometheus_from_stream(&telemetry.ring_jsonl()) {
            Ok(p) => out!("{p}"),
            Err(e) => {
                eprintln!("mmctl: --prom: {e}");
                return Ok(1);
            }
        }
    }
    if let Some(p) = snapshot_out {
        if let Err(e) = std::fs::write(&p, m.snapshot_json()) {
            eprintln!("mmctl: write {p}: {e}");
            return Ok(1);
        }
        outln!("wrote {p}");
    }
    outln!("--- snapshot ---");
    match render_snapshot(&m.snapshot_json()) {
        Ok(s) => {
            out!("{s}");
            Ok(0)
        }
        Err(e) => {
            eprintln!("mmctl: snapshot render: {e}");
            Ok(1)
        }
    }
}

/// `mmctl campaign`: the seeded fault campaign over the busy 2×2×1
/// scenario, run twice, plus the crash-recovery round trip on 2×1×1,
/// written to `--out`. Exit 1 if any check fails.
fn cmd_campaign(args: &[String]) -> Result<i32, UsageError> {
    use mm_bench::faults::{
        campaign_failures, campaign_json, run_crash_recovery, run_fault_campaign,
    };
    let seed: u64 = parsed_flag(args, "--seed", 7, "an integer")?;
    let out = flag_value(args, "--out")?.unwrap_or_else(|| "BENCH_faults.json".into());
    let fail = |what: &str, e: mm_core::MachineError| match e {
        mm_core::MachineError::BadConfig(_) => Err(format!("{what}: {e}")),
        _ => {
            eprintln!("mmctl: {what}: {e}");
            Ok(1)
        }
    };

    outln!("== fault campaign: seeded injection over busy traffic (seed {seed}) ==");
    let p = match run_fault_campaign((2, 2, 1), 24, seed) {
        Ok(p) => p,
        Err(e) => return fail("fault campaign", e),
    };
    outln!(
        "2x2x1: {} cycles, corrupted {}, dropped {}, delayed {}, dram flips {}, \
         scheduled events {}",
        p.cycles,
        p.report.packets_corrupted,
        p.report.packets_dropped,
        p.report.packets_delayed,
        p.report.dram_flips,
        p.report.events_applied
    );
    outln!(
        "recovery: {} crc-nacks, {} retransmits, {} dup-drops, {} ecc-corrected, \
         {} ecc-double",
        p.counters.crc_nacks,
        p.report.retransmits,
        p.counters.dup_drops,
        p.counters.ecc_corrected,
        p.counters.ecc_double_errors
    );
    outln!(
        "deterministic across two runs: {}   completed despite faults: {}",
        p.stats_match,
        p.completed
    );

    outln!("\n== crash recovery: watchdog trip -> checkpoint restore -> completion ==");
    let r = match run_crash_recovery((2, 1, 1), 1_000) {
        Ok(r) => r,
        Err(e) => return fail("crash recovery", e),
    };
    outln!(
        "checkpoint at cycle {} ({} bytes); watchdog tripped at {}; diagnostic {}",
        r.checkpoint_at,
        r.checkpoint_bytes,
        r.tripped_at
            .map_or_else(|| "never".to_owned(), |t| t.to_string()),
        if r.diagnostic_captured {
            "captured"
        } else {
            "MISSING"
        }
    );
    outln!(
        "restored run completed: {}   bit-identical to uninterrupted run: {}",
        r.recovered,
        r.stats_match
    );

    if let Err(e) = std::fs::write(&out, campaign_json(&p, &r)) {
        eprintln!("mmctl: write {out}: {e}");
        return Ok(1);
    }
    outln!("wrote {out}");
    let failures = campaign_failures(&p, &r);
    for f in &failures {
        eprintln!("error: {f}");
    }
    Ok(i32::from(!failures.is_empty()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every flag `run` and `snapshot` read through `Scenario::from_args`
    // appears in both lists.
    let (cmd, flags): (Subcommand, Flags<'_>) = match args.first().map(String::as_str) {
        Some("analyze") => (
            cmd_analyze,
            &[("--root", true), ("--json", false), ("--output", true)],
        ),
        Some("check") => (cmd_check, &[("--schema", true)]),
        Some("tail") => (cmd_tail, &[("-n", true), ("--follow", false)]),
        Some("snapshot") => (
            cmd_snapshot,
            &[
                ("--save", true),
                ("--restore", true),
                ("--at", true),
                ("--dims", true),
                ("--iters", true),
                ("--faults", true),
            ],
        ),
        Some("prom") => (cmd_prom, &[]),
        Some("run") => (
            cmd_run,
            &[
                ("--dims", true),
                ("--iters", true),
                ("--faults", true),
                ("--epoch", true),
                ("--out", true),
                ("--snapshot-out", true),
                ("--prom", false),
            ],
        ),
        Some("campaign") => (cmd_campaign, &[("--seed", true), ("--out", true)]),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let args = &args[1..];
    let result = refuse_unknown_flags(args, flags).and_then(|()| cmd(args));
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mmctl: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
