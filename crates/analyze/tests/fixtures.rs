//! Fixture tests: each rule is pinned by one bad and one clean fixture
//! file under `tests/fixtures/` (excluded from the workspace scan by
//! the `/fixtures/` path filter), with exact-findings assertions —
//! rule, line, and message prefix must all match.

use mm_analyze::{analyze_sources, config, Report};

const DET_BAD: &str = include_str!("fixtures/det_bad.rs");
const DET_CLEAN: &str = include_str!("fixtures/det_clean.rs");
const UNSAFE_BAD: &str = include_str!("fixtures/unsafe_bad.rs");
const UNSAFE_CLEAN: &str = include_str!("fixtures/unsafe_clean.rs");
const ALLOC_BAD: &str = include_str!("fixtures/alloc_bad.rs");
const ALLOC_CLEAN: &str = include_str!("fixtures/alloc_clean.rs");
const ALLOC_STALE_CFG: &str = include_str!("fixtures/alloc_stale.toml");
const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/panic_clean.rs");

fn run(path: &str, text: &str, cfg_text: &str) -> Report {
    let cfg = config::parse(cfg_text).expect("fixture config parses");
    analyze_sources(&[(path.to_string(), text.to_string())], &cfg)
}

/// Assert the findings are exactly `want`: (line, message-prefix)
/// pairs in report order, all carrying `rule`.
fn assert_findings(report: &Report, rule: &str, want: &[(u32, &str)]) {
    let got: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert_eq!(
        report.findings.len(),
        want.len(),
        "expected {} findings, got:\n{}",
        want.len(),
        got.join("\n")
    );
    for (f, (line, prefix)) in report.findings.iter().zip(want) {
        assert_eq!(f.rule, rule, "{got:?}");
        assert_eq!(f.line, *line, "{got:?}");
        assert!(
            f.message.starts_with(prefix),
            "expected prefix {prefix:?}, got {:?}",
            f.message
        );
    }
}

const DET_CFG: &str = "[determinism]\nenabled = true\ncrates = [\"core\"]\n";

#[test]
fn determinism_bad_fixture_fires_every_sub_check() {
    let report = run("crates/core/src/det_bad.rs", DET_BAD, DET_CFG);
    assert_findings(
        &report,
        "determinism",
        &[
            (4, "hash-container: `HashMap`"),
            (7, "hash-container: `HashMap`"),
            (11, "hash-iteration: `.keys()` on hash container `routes`"),
            (16, "hash-iteration: for-loop over hash container `routes`"),
            (23, "wall-clock: `std::time`"),
            (23, "wall-clock: `Instant`"),
            (28, "rng: `rand`"),
            (32, "ptr-value: pointer cast to `usize`"),
            (36, "ptr-value: `{:p}`"),
        ],
    );
}

#[test]
fn determinism_clean_fixture_passes() {
    let report = run("crates/core/src/det_clean.rs", DET_CLEAN, DET_CFG);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert!(report.allowed.is_empty());
}

#[test]
fn determinism_ignores_files_outside_registered_crates() {
    let report = run("crates/tools/src/det_bad.rs", DET_BAD, DET_CFG);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn unsafe_bad_fixture_flags_each_undocumented_site() {
    let cfg = "[unsafe_hygiene]\nenabled = true\n\
               baseline = [\"crates/sim/src/unsafe_bad.rs:4\"]\n";
    let report = run("crates/sim/src/unsafe_bad.rs", UNSAFE_BAD, cfg);
    assert_findings(
        &report,
        "unsafe_hygiene",
        &[
            (5, "undocumented: `unsafe block`"),
            (9, "undocumented: `unsafe fn`"),
            (10, "undocumented: `unsafe block`"),
            (17, "undocumented: `unsafe block`"),
        ],
    );
    let kinds: Vec<&str> = report.unsafe_inventory.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, ["block", "fn", "block", "block"]);
}

#[test]
fn unsafe_baseline_mismatch_is_a_finding_even_when_documented() {
    let cfg = "[unsafe_hygiene]\nenabled = true\n\
               baseline = [\"crates/sim/src/unsafe_clean.rs:3\"]\n";
    let report = run("crates/sim/src/unsafe_clean.rs", UNSAFE_CLEAN, cfg);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0]
        .message
        .starts_with("baseline: 4 unsafe site(s)"));
}

#[test]
fn unsafe_stale_baseline_entry_is_a_finding() {
    let cfg = "[unsafe_hygiene]\nenabled = true\n\
               baseline = [\"crates/sim/src/gone.rs:2\"]\n";
    let report = run("crates/tools/src/panic_clean.rs", PANIC_CLEAN, cfg);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0]
        .message
        .starts_with("baseline: stale entry"));
}

#[test]
fn unsafe_clean_fixture_passes_with_matching_baseline() {
    let cfg = "[unsafe_hygiene]\nenabled = true\n\
               baseline = [\"crates/sim/src/unsafe_clean.rs:4\"]\n";
    let report = run("crates/sim/src/unsafe_clean.rs", UNSAFE_CLEAN, cfg);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.unsafe_inventory.len(), 4);
    for site in &report.unsafe_inventory {
        assert!(
            !site.justification.is_empty(),
            "{}:{} lacks SAFETY text",
            site.file,
            site.line
        );
    }
}

const ALLOC_CFG: &str = "[hot_alloc]\nenabled = true\n\
                         modules = [\"crates/net/src/alloc_bad.rs\", \
                                    \"crates/net/src/alloc_clean.rs\"]\n";

/// The two hot-alloc fixtures as `(path, text)` sources: `ALLOC_BAD` at
/// `bad` and `ALLOC_CLEAN` at its registered path, so no module entry
/// the tests register is stale.
fn alloc_sources(bad: &str) -> Vec<(String, String)> {
    vec![
        (bad.to_string(), ALLOC_BAD.to_string()),
        (
            "crates/net/src/alloc_clean.rs".to_string(),
            ALLOC_CLEAN.to_string(),
        ),
    ]
}

#[test]
fn alloc_bad_fixture_flags_each_allocating_call() {
    let cfg = config::parse(ALLOC_CFG).expect("fixture config parses");
    let report = analyze_sources(&alloc_sources("crates/net/src/alloc_bad.rs"), &cfg);
    assert_findings(
        &report,
        "hot_alloc",
        &[
            (5, "alloc: `Vec::new`"),
            (7, "alloc: `format!`"),
            (8, "alloc: `.to_vec()`"),
        ],
    );
}

#[test]
fn alloc_clean_fixture_cold_and_test_scopes_are_exempt() {
    let cfg = "[hot_alloc]\nenabled = true\nmodules = [\"crates/net/src/alloc_clean.rs\"]\n";
    let report = run("crates/net/src/alloc_clean.rs", ALLOC_CLEAN, cfg);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn alloc_rule_only_applies_to_registered_modules() {
    let cfg = "[hot_alloc]\nenabled = true\nmodules = [\"crates/net/src/alloc_clean.rs\"]\n";
    let cfg = config::parse(cfg).expect("fixture config parses");
    let report = analyze_sources(&alloc_sources("crates/net/src/other.rs"), &cfg);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn alloc_stale_module_entry_is_a_finding() {
    let report = run(
        "crates/net/src/alloc_clean.rs",
        ALLOC_CLEAN,
        ALLOC_STALE_CFG,
    );
    assert_findings(
        &report,
        "hot_alloc",
        &[(
            0,
            "stale module: [hot_alloc] modules entry \"crates/net/src/renamed.rs\"",
        )],
    );
    assert_eq!(report.findings[0].file, "analyze.toml");
}

const PANIC_CFG: &str = "[panic_discipline]\nenabled = true\ncrates = [\"tools\"]\n";

#[test]
fn panic_bad_fixture_flags_each_aborting_call() {
    let report = run("crates/tools/src/panic_bad.rs", PANIC_BAD, PANIC_CFG);
    assert_findings(
        &report,
        "panic_discipline",
        &[
            (5, "panic: `.unwrap()`"),
            (6, "panic: `.expect()`"),
            (8, "panic: `panic!`"),
        ],
    );
}

#[test]
fn panic_clean_fixture_passes() {
    let report = run("crates/tools/src/panic_clean.rs", PANIC_CLEAN, PANIC_CFG);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn allowlist_silences_exactly_the_matching_finding() {
    let cfg = "[determinism]\nenabled = true\ncrates = [\"core\"]\n\
               [[determinism.allow]]\n\
               file = \"crates/core/src/det_bad.rs\"\n\
               pattern = \"rng: `rand`\"\n\
               reason = \"fixture: pretend this one is justified\"\n";
    let report = run("crates/core/src/det_bad.rs", DET_BAD, cfg);
    assert_eq!(report.findings.len(), 8, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.starts_with("rng:")));
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(
        report.allowed[0].reason,
        "fixture: pretend this one is justified"
    );
}

#[test]
fn unused_allowlist_entry_is_itself_a_finding() {
    let cfg = "[determinism]\nenabled = true\ncrates = [\"core\"]\n\
               [[determinism.allow]]\n\
               file = \"crates/core/src/det_clean.rs\"\n\
               pattern = \"rng: `rand`\"\n\
               reason = \"nothing matches this any more\"\n";
    let report = run("crates/core/src/det_clean.rs", DET_CLEAN, cfg);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "allowlist");
    assert!(report.findings[0].message.contains("unused"));
}

#[test]
fn json_report_carries_verdict_and_locations() {
    let report = run("crates/tools/src/panic_bad.rs", PANIC_BAD, PANIC_CFG);
    let json = mm_analyze::report::to_json(&report);
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("crates/tools/src/panic_bad.rs"));
    assert!(json.contains("\"line\": 5"));
    assert!(json.ends_with('\n'));
}
