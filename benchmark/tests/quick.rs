//! Drives the built binary at `--quick` size (every workload at about
//! 1/20 of its length, ten-odd seconds in all): the names it emits are
//! exactly the names `BENCHMARK.json` declares, no orphan in either
//! direction; the seed-1 goldens match; and the traced pass writes a
//! span file whose children account for their repetition.

use mm_telemetry::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mm-benchmark");

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn declared() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn names(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// The contract line: last line of stdout, exactly four keys, every
/// metric a number. Returns (metric names, units) and checks the run
/// reported no failure.
fn contract_line(stdout: &str) -> Vec<(String, String)> {
    let v = parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let JsonValue::Object(members) = &v else {
        panic!("last line is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(v.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    let JsonValue::Object(metrics) = v.get("metrics").expect("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} is not a number");
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn declared_metrics(key: &str) -> Vec<(String, String)> {
    declared()
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let generated = parse(&run(&["manifest"])).expect("manifest is JSON");
    assert_eq!(
        generated,
        declared(),
        "BENCHMARK.json is stale: regenerate it with `mm-benchmark manifest`"
    );
    assert_eq!(names(&generated, "workloads").len(), 7);
}

#[test]
fn untraced_runs_emit_the_declared_end_to_end_metrics_and_match_the_goldens() {
    let want = declared_metrics("end_to_end");
    for workload in names(&declared(), "workloads") {
        let out = run(&[
            "run",
            "--workload",
            &workload,
            "--quick",
            "--seconds",
            "0",
            "--trace",
            "0",
        ]);
        assert_eq!(contract_line(&out), want, "{workload}");
        assert!(
            out.lines()
                .any(|l| l.starts_with("sim_fingerprint_match") && l.ends_with("true")),
            "{workload}: seed-1 golden does not match\n{out}"
        );
        for (name, unit) in &want {
            assert!(
                out.lines()
                    .any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
                "{workload}: no text row for {name} [{unit}]"
            );
        }
    }
}

#[test]
fn traced_runs_emit_the_declared_per_layer_metrics_and_account_for_their_spans() {
    let want = declared_metrics("per_layer");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in names(&declared(), "workloads") {
        let spans_path = tmp.join(format!("{workload}.spans.json"));
        let out = run(&[
            "run",
            "--workload",
            &workload,
            "--quick",
            "--trace",
            "1",
            "--trace-out",
            spans_path.to_str().expect("UTF-8 path"),
        ]);
        assert_eq!(contract_line(&out), want, "{workload}");

        // Span file: every repetition's direct children (setup, window,
        // check) sum to within 2 % of the repetition itself.
        let spans = parse(&std::fs::read_to_string(&spans_path).expect("span file")).expect("JSON");
        let spans = spans.as_array().expect("span array");
        let num = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_u64).expect("number");
        let mut windows = 0;
        for (id, rep) in spans.iter().enumerate() {
            if rep.get("name").and_then(JsonValue::as_str) != Some("repetition") {
                continue;
            }
            let children: u64 = spans
                .iter()
                .filter(|s| s.get("parent").and_then(JsonValue::as_u64) == Some(id as u64))
                .inspect(|s| {
                    windows +=
                        u64::from(s.get("name").and_then(JsonValue::as_str) == Some("window"))
                })
                .map(|s| num(s, "end_ns") - num(s, "start_ns"))
                .sum();
            let whole = num(rep, "end_ns") - num(rep, "start_ns");
            assert!(
                children as f64 >= 0.98 * whole as f64 && children <= whole,
                "{workload}: children cover {children} of {whole} ns"
            );
        }
        assert!(windows >= 4, "{workload}: only {windows} window spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(JsonValue::as_str) == Some("case")));
    }
}

#[test]
fn a_second_seed_changes_the_input_and_still_passes() {
    let out = run(&[
        "run",
        "--workload",
        "busy_mesh_64",
        "--quick",
        "--seconds",
        "0",
        "--seed",
        "2",
    ]);
    contract_line(&out);
    assert!(out.contains("seed=2"));
    assert!(out
        .lines()
        .any(|l| l.starts_with("sim_fingerprint_match") && l.ends_with("null")));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
