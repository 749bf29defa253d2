//! `mm-benchmark` — the repo's one repeatable benchmark. See README.md.
//!
//! `run --workload W` measures one workload in this process and ends
//! its stdout with the one-line JSON object the PR driver reads; `run`
//! without a workload re-executes this binary once per workload (so
//! set-up time and peak RSS are per workload and first-touch effects
//! repeat) and writes one JSON result; `compare` and `selfcheck` judge
//! result files against the bounds in [`metrics::END_TO_END`].

// `alloc` is the one module allowed to lift this (see its header).
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod golden;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use layers::Effort;
use metrics::{TracedRun, END_TO_END, PER_LAYER};
use report::{json_num, json_str, MetricResult, WorkloadResult};
use spans::Tracer;
use stats::{summarize, Summary};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Fingerprint, Plan, Rep, Trace, Workload};

/// Counts heap allocations for `core.engine.allocs_per_kcycle`.
#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: mm-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                        [--quick] [--out FILE] [--trace-out FILE] [--write-golden]
       mm-benchmark compare BASE.json NEW.json
       mm-benchmark selfcheck [--seed N] [--seconds S] [--out FILE]
       mm-benchmark manifest";

/// Seconds one workload measures for when `--seconds` is not given
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;

/// Wall-clock budget of a whole suite pass per workload, beyond the
/// measuring time: process start, the last repetition's overshoot, the
/// checks. The runner warns when a pass goes over.
const OVERHEAD_BUDGET_S: f64 = 3.0;

/// glibc malloc settings this binary measures under: nothing below
/// 32 MiB is `mmap`ped and the heap is never trimmed, so memory a
/// dropped machine frees is reused by the next build. Left to its
/// dynamic thresholds, glibc falls into either that regime or one where
/// every build page-faults its SDRAM arrays in afresh, depending on
/// incidental allocation order: `kernel_suite_4` set up in 0.08 s or in
/// 0.53 s for identical inputs, and a ten-run median flipped between
/// the two from one hour to the next. The variables must be in the
/// environment when the process starts, hence the re-execution.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "2147483647"),
];

/// Run this binary again with [`MALLOC_ENV`] set, unless it already is;
/// returns the child's exit code when it did.
fn rerun_with_pinned_malloc() -> Result<Option<ExitCode>, String> {
    if MALLOC_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
    {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(&exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let code = status
        .code()
        .and_then(|c| u8::try_from(c).ok())
        .unwrap_or(1);
    Ok(Some(ExitCode::from(code)))
}

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    write_golden: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: None,
        trace_out: None,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_owned());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--write-golden" => a.write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn metric(name: &str, unit: &str, summary: Option<Summary>) -> MetricResult {
    MetricResult {
        name: name.to_owned(),
        unit: unit.to_owned(),
        summary,
    }
}

/// Operation accounting; one operation is one repetition. A repetition
/// fails on its own failure, or when its simulated statistics differ
/// from the first repetition's (same seed, same input — the simulator
/// is deterministic). Only the first fingerprint is kept: retaining one
/// per repetition let the benchmark's own heap use grow with the run
/// and fragment the heap the machines are built in (`kernel_suite_4`'s
/// peak RSS then read 101 or 125 MiB from one run to the next).
#[derive(Default)]
struct Tally {
    fingerprint: Fingerprint,
    attempted: u64,
    failed: Vec<String>,
}

impl Tally {
    fn record(&mut self, rep: &Rep) {
        let i = self.attempted;
        self.attempted += 1;
        if i == 0 {
            self.fingerprint.clone_from(&rep.fingerprint);
        }
        if let Some(f) = &rep.failure {
            self.failed.push(format!("repetition {i}: {f}"));
        } else if rep.fingerprint != self.fingerprint {
            self.failed.push(format!(
                "repetition {i}: simulated statistics differ from repetition 0"
            ));
        }
    }
}

/// Measure one workload in this process.
fn run_workload(w: Workload, a: &RunArgs) -> Result<WorkloadResult, String> {
    let plan = w.plan(a.seed, a.quick);
    println!(
        "# mm-benchmark run: workload={} seed={} trace={} {}",
        w.name(),
        a.seed,
        u8::from(a.traced),
        plan.describe()
    );
    println!(
        "# closed loop: one machine run at a time, fixed input size, serial engine \
         (workers=1), one thread"
    );
    println!("# caches and LTLBs start empty; statistics cover the whole run, boot included");
    println!("# host allocator: glibc malloc pinned to no trimming, no mmap below 32 MiB");
    println!("# sim_cycles_per_op: one op = {}", w.op_unit());

    let (tally, metrics) = if a.traced {
        run_traced(&plan, a)?
    } else {
        run_untraced(&plan, a)
    };
    let Tally {
        fingerprint,
        attempted,
        failed,
    } = &tally;
    for f in failed {
        println!("# FAILED {f}");
    }
    let golden = (a.seed == 1)
        .then(|| golden::matches(w, a.quick, fingerprint))
        .flatten();
    let result = WorkloadResult {
        name: w.name().to_owned(),
        seed: a.seed,
        traced: a.traced,
        ops_attempted: *attempted,
        ops_failed: failed.len() as u64,
        sim_fingerprint_match: golden,
        metrics,
    };
    print!("{}", result.rows());
    println!(
        "# verdict: simulated statistics {} across {} repetitions; seed-1 golden: {}",
        if failed.is_empty() {
            "identical"
        } else {
            "NOT identical"
        },
        attempted,
        match golden {
            Some(true) => "match",
            Some(false) => "MISMATCH (the simulated machine changed)",
            None => "not checked",
        }
    );
    if a.write_golden {
        if a.seed != 1 || !failed.is_empty() {
            return Err("goldens are pinned from a clean seed-1 run".to_owned());
        }
        let path = golden::write(w, a.quick, fingerprint).map_err(|e| e.to_string())?;
        println!("# wrote {} (rebuild to compile it in)", path.display());
    }
    if let Some(out) = &a.out {
        std::fs::write(out, result.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(result)
}

/// Samples one end-to-end value is the median of.
const SAMPLES: usize = 5;

/// Repetitions of each batch of the traced pass.
const TRACED_BATCH: usize = 3;

/// The end-to-end pass, tracing off: repetitions back to back until
/// `--seconds` have gone by. Repetition `i` belongs to sample
/// `i % SAMPLES`, so every sample spans the whole run; a sample's value
/// is its best repetition — interference on a shared host only ever
/// slows a repetition down, and a slow phase has to last the whole run
/// to reach every member of a sample — and the reported value is the
/// median over samples.
fn run_untraced(plan: &Plan, a: &RunArgs) -> (Tally, Vec<MetricResult>) {
    let min_reps = if a.quick { 2 } else { SAMPLES };
    let start = Instant::now();
    let mut tally = Tally::default();
    // (cycles per second, set-up seconds) of each repetition; room for
    // any run so the vector never moves while machines come and go.
    let mut timings: Vec<(f64, f64)> = Vec::with_capacity(1 << 12);
    let mut cycles_per_op = 0.0;
    while timings.len() < min_reps || start.elapsed().as_secs_f64() < a.seconds {
        let rep = plan.repetition(None, None);
        tally.record(&rep);
        timings.push((rep.sim_cycles as f64 / rep.run_s, rep.setup_s));
        cycles_per_op = rep.cycles_per_op;
    }
    let samples = SAMPLES.min(timings.len());
    let best = |of: fn(&(f64, f64)) -> f64, pick: fn(f64, f64) -> f64| -> Vec<f64> {
        (0..samples)
            .map(|s| {
                let members = timings.iter().skip(s).step_by(samples).map(of);
                members.reduce(pick).expect("every sample has a repetition")
            })
            .collect()
    };
    let values = [
        Some(summarize(&best(|t| t.0, f64::max))),
        Some(summarize(&best(|t| t.1, f64::min))),
        peak_rss_mib().map(Summary::single),
        Some(Summary::single(cycles_per_op)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| metric(m.name, m.unit, v))
        .collect();
    (tally, metrics)
}

/// The per-layer pass: one untraced batch for reference, one traced
/// batch (spans and windows; the fastest repetition of each batch is
/// the one reported), then the isolated layer drivers.
fn run_traced(plan: &Plan, a: &RunArgs) -> Result<(Tally, Vec<MetricResult>), String> {
    let batch = if a.quick { 1 } else { TRACED_BATCH };
    let fastest = |reps: &[Rep]| {
        let best = reps.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min);
        reps.iter()
            .position(|r| r.run_s == best)
            .expect("batch is not empty")
    };
    let mut reps: Vec<Rep> = (0..batch).map(|_| plan.repetition(None, None)).collect();
    let reference_run_s = reps[fastest(&reps)].run_s;
    let halt_cycles = plan.single_machine().then_some(reps[0].sim_cycles);

    let mut trace = Trace {
        tracer: Tracer::with_capacity(4096),
        windows: Vec::with_capacity(1024),
    };
    let workload_span = trace.tracer.open("workload", 0);
    let mut window_ends = Vec::new();
    for i in 0..batch {
        let rep_span = trace.tracer.open("repetition", i as u32);
        reps.push(plan.repetition(Some(&mut trace), halt_cycles));
        trace.tracer.close(rep_span);
        window_ends.push(trace.windows.len());
    }
    trace.tracer.close(workload_span);
    let best = fastest(&reps[batch..]);
    let traced = &reps[batch + best];
    let first_window = if best == 0 { 0 } else { window_ends[best - 1] };

    let effort = if a.quick { Effort::QUICK } else { Effort::FULL };
    let drivers = layers::run_all(effort, &mut trace);

    let values = metrics::per_layer(&TracedRun {
        counts: &traced.counts,
        windows: &trace.windows[first_window..window_ends[best]],
        run_s: traced.run_s,
        untraced_run_s: reference_run_s,
        machine_visible: !matches!(plan, Plan::Artifacts { .. }),
        drivers: &drivers,
        window_coverage: spans::min_child_coverage(trace.tracer.spans(), "repetition"),
    });
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit, _), (_, v))| metric(name, unit, v.map(Summary::single)))
        .collect();
    if let Some(path) = &a.trace_out {
        std::fs::write(path, trace.tracer.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut tally = Tally::default();
    reps.iter().for_each(|r| tally.record(r));
    Ok((tally, metrics))
}

/// `nproc`, CPU model, compiler and profile: what a reader needs to
/// place a result file.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let profile = if cfg!(debug_assertions) {
        "dev (not for measurement)"
    } else {
        "release lto=true codegen-units=1"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"profile\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(profile)
    )
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run every workload, each in its own child process of this binary,
/// and return the suite's JSON result. The children's own result and
/// span files go to `benchmark/out/`.
fn run_suite(a: &RunArgs) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let suffix = if a.traced { "-traced" } else { "" };
    let start = Instant::now();
    let mut results = Vec::new();
    for w in Workload::ALL {
        let out = dir.join(format!("{}{suffix}.json", w.name()));
        let mut cmd = Command::new(&exe);
        cmd.envs(MALLOC_ENV)
            .args(["run", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&out);
        if a.traced {
            cmd.arg("--trace-out")
                .arg(dir.join(format!("{}.spans.json", w.name())));
        }
        if a.quick {
            cmd.arg("--quick");
        }
        if a.write_golden {
            cmd.arg("--write-golden");
        }
        // The child inherits stdout: its rows appear as they are made.
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name()));
        }
        let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        results.push(text.trim_end().to_owned());
        println!();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let budget = Workload::ALL.len() as f64 * (a.seconds + OVERHEAD_BUDGET_S);
    println!("# suite elapsed {elapsed:.1} s (budget {budget:.0} s)");
    if elapsed > budget && !a.quick {
        println!(
            "# WARNING: over budget — the host is slower than the reference or a workload grew"
        );
    }
    Ok(format!(
        "{{\"schema\":\"mm-benchmark/1\",\"seed\":{},\"traced\":{},\"seconds\":{},\"quick\":{},\
         \"elapsed_s\":{},\"host\":{},\n\"workloads\":[\n{}\n]}}",
        a.seed,
        a.traced,
        json_num(a.seconds),
        a.quick,
        json_num(elapsed),
        host_json(),
        results.join(",\n")
    ))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    if let Some(w) = a.workload {
        if let Some(code) = rerun_with_pinned_malloc()? {
            return Ok(code);
        }
        let result = run_workload(w, &a)?;
        // Last line of stdout: the PR driver's object.
        println!("{}", result.contract_line());
        return Ok(ExitCode::SUCCESS);
    }
    let out = a.out.clone().unwrap_or_else(|| {
        out_dir().join(if a.traced {
            "result-traced.json"
        } else {
            "result.json"
        })
    });
    let suite = run_suite(&a)?;
    write_file(&out, &(suite.clone() + "\n"))?;
    let failed: u64 = report::parse_results(&suite)?
        .iter()
        .map(|r| r.ops_failed)
        .sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("# {failed} operations failed");
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes two result files".to_owned());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::parse_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    let c = compare::compare(&load(base)?, &load(new)?);
    print!("{c}");
    Ok(if c.acceptable() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two untraced suite passes of the same code, back to back, compared:
/// the measured noise floor behind the bounds. Fails unless every pair
/// is `same`.
fn cmd_selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    if a.workload.is_some() || a.traced {
        return Err("selfcheck runs the whole untraced suite".to_owned());
    }
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("selfcheck-seed{}.json", a.seed)));
    let first = run_suite(&a)?;
    let second = run_suite(&a)?;
    let c = compare::compare(
        &report::parse_results(&first)?,
        &report::parse_results(&second)?,
    );
    print!("{c}");
    let verdicts: Vec<String> = c.verdicts.iter().map(|v| json_str(v.as_str())).collect();
    write_file(
        &out,
        &format!(
            "{{\"schema\":\"mm-benchmark-selfcheck/1\",\"all_same\":{},\"verdicts\":[{}],\n\
             \"first\":{first},\n\"second\":{second}}}\n",
            c.all_same(),
            verdicts.join(",")
        ),
    )?;
    Ok(if c.all_same() {
        println!("# selfcheck: every workload x metric pair is `same`");
        ExitCode::SUCCESS
    } else {
        println!("# selfcheck FAILED: two runs of the same code disagree beyond the bounds");
        ExitCode::FAILURE
    })
}

/// The repo-root `BENCHMARK.json`, generated from the tables in
/// [`metrics`] and [`workloads`] so the declaration cannot drift from
/// what the runner emits (the integration test compares the two).
fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}",
        DEFAULT_SECONDS,
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mm-benchmark: {e}");
        ExitCode::from(2)
    })
}
