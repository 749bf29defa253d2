//! mm-analyze — determinism & soundness static analysis for the
//! M-Machine workspace.
//!
//! Every guarantee the simulator advertises (bit-identical
//! serial/1/2/4-worker differentials, byte-stable `reproduce`,
//! zero-alloc busy windows, replayable fault campaigns) is enforced
//! dynamically by tests that must happen to exercise the offending
//! code. This crate checks the underlying invariants *statically*: a
//! dependency-free hand-rolled Rust lexer (no `syn` — the workspace
//! vendors only the proptest shim) feeds a small rule
//! engine, configured and allowlisted by the committed `analyze.toml`:
//!
//! 1. **determinism** — hash-container declaration/iteration,
//!    wall-clock time, `rand`, and pointer-value leaks in the
//!    cycle-path crates (core/sim/mem/net/sched/faults);
//! 2. **unsafe_hygiene** — every `unsafe` block/fn/impl needs an
//!    immediately preceding `// SAFETY:` comment, with the full
//!    inventory emitted and diffed against a committed baseline;
//! 3. **hot_alloc** — modules registered allocation-free may not call
//!    allocating constructors outside `#[cfg(test)]`/cold functions;
//! 4. **panic_discipline** — `unwrap`/`expect`/`panic!` forbidden in
//!    the registered panic-free crates.
//!
//! Run as `cargo run -p mm-analyze` or `mmctl analyze`; exit status 0
//! means the committed tree is clean (every remaining site is
//! allowlisted with a written justification).

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::AnalyzeConfig;
use rules::{Finding, UnsafeSite};
use scan::SourceFile;

/// A finding that matched an allowlist entry (reported, non-fatal).
#[derive(Debug, Clone)]
pub struct AllowedFinding {
    pub finding: Finding,
    pub reason: String,
}

/// The complete analysis result.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations. Non-empty ⇒ the run fails.
    pub findings: Vec<Finding>,
    /// Violations silenced by `analyze.toml`, with their justification.
    pub allowed: Vec<AllowedFinding>,
    /// Advisory notes (never fatal).
    pub notes: Vec<String>,
    /// Every unsafe site in the tree, documented or not.
    pub unsafe_inventory: Vec<UnsafeSite>,
    pub files_scanned: usize,
}

impl Report {
    /// Clean ⇔ zero un-allowlisted findings.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Locate the workspace root by walking up from `start` to the first
/// directory containing `analyze.toml`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("analyze.toml").is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Should `rel` (repo-relative, forward slashes) be scanned?
fn wanted(rel: &str) -> bool {
    rel.ends_with(".rs")
        && !rel.starts_with("vendor/")
        && !rel.starts_with("target/")
        && !rel.contains("/fixtures/")
}

/// Collect the workspace's Rust sources (sorted, so reports and JSON
/// artifacts are byte-stable run to run).
fn collect_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), root, &mut paths)?;
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for rel in paths {
        let text =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        out.push((rel, text));
    }
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // optional top-level dir (e.g. no examples/)
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, root, out)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("relativize {}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            if wanted(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Analyze in-memory sources (the unit the fixture tests drive
/// directly): runs every rule on every file, applies the allowlist,
/// and cross-checks the unsafe baseline.
#[must_use]
pub fn analyze_sources(sources: &[(String, String)], cfg: &AnalyzeConfig) -> Report {
    let mut raw = Vec::new();
    let mut inventory = Vec::new();
    for (path, text) in sources {
        let file = SourceFile::new(path.clone(), text);
        rules::determinism(&file, cfg, &mut raw);
        rules::unsafe_hygiene(&file, cfg, &mut raw, &mut inventory);
        rules::hot_alloc(&file, cfg, &mut raw);
        rules::panic_discipline(&file, cfg, &mut raw);
    }

    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };

    // Unsafe baseline: per-file site counts must match analyze.toml
    // exactly — a new site (even a documented one) fails until a human
    // reviews it and updates the baseline; a removed site fails until
    // the baseline is shrunk, so the committed inventory never rots.
    match cfg.unsafe_baseline() {
        Err(e) => raw.push(Finding {
            rule: "unsafe_hygiene",
            file: "analyze.toml".into(),
            line: 0,
            message: format!("baseline: {e}"),
        }),
        Ok(baseline) => {
            if cfg.rule("unsafe_hygiene").enabled {
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for site in &inventory {
                    *counts.entry(site.file.as_str()).or_default() += 1;
                }
                for (file, n) in &counts {
                    let want = baseline.get(*file).copied().unwrap_or(0);
                    if *n != want {
                        raw.push(Finding {
                            rule: "unsafe_hygiene",
                            file: (*file).to_string(),
                            line: 0,
                            message: format!(
                                "baseline: {n} unsafe site(s) but committed baseline \
                                 says {want} — review the new/removed sites and update \
                                 analyze.toml"
                            ),
                        });
                    }
                }
                for (file, want) in &baseline {
                    if !counts.contains_key(file.as_str()) {
                        raw.push(Finding {
                            rule: "unsafe_hygiene",
                            file: file.clone(),
                            line: 0,
                            message: format!(
                                "baseline: stale entry — file has no unsafe sites \
                                 (baseline says {want}); remove it from analyze.toml"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Allowlist: a finding is silenced by an entry of its own rule with
    // a matching file and message substring. Unused entries are
    // themselves findings, so the allowlist cannot rot either.
    let mut used = BTreeMap::new();
    for f in raw {
        let rc = cfg.rule(f.rule);
        let hit = rc
            .allow
            .iter()
            .find(|a| a.file == f.file && f.message.contains(&a.pattern));
        match hit {
            Some(a) => {
                used.insert((f.rule, a.file.clone(), a.pattern.clone()), ());
                report.allowed.push(AllowedFinding {
                    finding: f,
                    reason: a.reason.clone(),
                });
            }
            None => report.findings.push(f),
        }
    }
    for name in config::RULE_NAMES {
        for a in &cfg.rule(name).allow {
            if !used.contains_key(&(name, a.file.clone(), a.pattern.clone())) {
                report.findings.push(Finding {
                    rule: "allowlist",
                    file: "analyze.toml".into(),
                    line: 0,
                    message: format!(
                        "allowlist: unused [[{name}.allow]] entry (file {:?}, pattern \
                         {:?}) — the finding it silenced is gone; remove the entry",
                        a.file, a.pattern
                    ),
                });
            }
        }
    }

    // A registered hot module that matches no scanned file (renamed or
    // deleted) would silently leave the rule's coverage: report it the
    // way unused allowlist entries are reported.
    let hot = cfg.rule("hot_alloc");
    if hot.enabled {
        for m in &hot.modules {
            if !sources.iter().any(|(path, _)| path == m) {
                report.findings.push(Finding {
                    rule: "hot_alloc",
                    file: "analyze.toml".into(),
                    line: 0,
                    message: format!(
                        "stale module: [hot_alloc] modules entry {m:?} matches no scanned \
                         file — rename or remove the entry"
                    ),
                });
            }
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allowed
        .sort_by(|a, b| (&a.finding.file, a.finding.line).cmp(&(&b.finding.file, b.finding.line)));
    inventory.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.unsafe_inventory = inventory;
    report
}

/// Analyze the workspace at `root` with the given config.
pub fn analyze_workspace(root: &Path, cfg: &AnalyzeConfig) -> Result<Report, String> {
    let sources = collect_files(root)?;
    Ok(analyze_sources(&sources, cfg))
}

/// Load `analyze.toml` from `root` and analyze the workspace — the
/// entry point shared by the `mm-analyze` binary and `mmctl analyze`.
pub fn analyze_root(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("analyze.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&text).map_err(|e| format!("analyze.toml: {e}"))?;
    analyze_workspace(root, &cfg)
}
