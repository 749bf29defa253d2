//! Telemetry stream checking: per-line schema validation plus the
//! cross-line invariants (epoch monotonicity, contiguous cycle
//! coverage) that no per-record schema can express. `mmctl check`
//! and the CI telemetry-smoke job both run through here.

use mm_telemetry::json::{parse, JsonValue};
use mm_telemetry::schema::validate;

/// Outcome of checking a JSONL stream.
#[derive(Debug, Default)]
pub struct StreamReport {
    /// Number of non-empty lines examined.
    pub lines: usize,
    /// Total simulated cycles covered by the stream.
    pub cycles: u64,
    /// Total instructions over the stream.
    pub instructions: u64,
    /// All violations found, each prefixed with its 1-based line number.
    pub errors: Vec<String>,
    /// The stream ends in an unparseable partial line with no trailing
    /// newline — a writer killed mid-record (watchdog abort, crash).
    /// Tolerated: the partial line is excluded from every count and
    /// invariant instead of reported as a violation.
    pub truncated: bool,
}

impl StreamReport {
    /// True when every line parsed, validated, and chained correctly.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Check every line of `text` against `schema` (when given) and the
/// stream invariants:
///
/// - `epoch` starts at 0 and increases by exactly 1 per record
/// - `start_cycle` equals the previous record's `end_cycle`
/// - `end_cycle` is strictly greater than `start_cycle`
///
/// A final line that fails to parse *and* lacks a trailing newline is
/// treated as a truncated partial write (`StreamReport::truncated`),
/// not a violation: a stream cut off mid-record by a crash or watchdog
/// abort must still check clean up to the cut.
pub fn check_stream(text: &str, schema: Option<&JsonValue>) -> StreamReport {
    // Only the very last line can be a partial write, and only when the
    // writer never got its newline out.
    let has_partial_tail = !text.is_empty() && !text.ends_with('\n');
    let last_idx = text.lines().count().saturating_sub(1);
    let mut report = StreamReport::default();
    let mut prev_epoch: Option<u64> = None;
    let mut prev_end: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let partial = has_partial_tail && idx == last_idx;
        let v = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                if partial {
                    report.truncated = true;
                } else {
                    report.lines += 1;
                    report.errors.push(format!("line {lineno}: not JSON: {e}"));
                }
                continue;
            }
        };
        report.lines += 1;
        if let Some(schema) = schema {
            for e in validate(schema, &v) {
                report.errors.push(format!("line {lineno}: {e}"));
            }
        }
        let epoch = v.get("epoch").and_then(JsonValue::as_u64);
        let start = v.get("start_cycle").and_then(JsonValue::as_u64);
        let end = v.get("end_cycle").and_then(JsonValue::as_u64);
        match (epoch, prev_epoch) {
            (Some(e), None) if e != 0 => {
                report
                    .errors
                    .push(format!("line {lineno}: first epoch is {e}, expected 0"));
            }
            (Some(e), Some(p)) if e != p + 1 => {
                report.errors.push(format!(
                    "line {lineno}: epoch {e} does not follow {p} (+1 expected)"
                ));
            }
            _ => {}
        }
        if let (Some(s), Some(p)) = (start, prev_end) {
            if s != p {
                report.errors.push(format!(
                    "line {lineno}: start_cycle {s} != previous end_cycle {p}"
                ));
            }
        }
        if let (Some(s), Some(e)) = (start, end) {
            if e <= s {
                report
                    .errors
                    .push(format!("line {lineno}: end_cycle {e} <= start_cycle {s}"));
            } else {
                report.cycles += e - s;
            }
        }
        if let Some(n) = v.get("instructions").and_then(JsonValue::as_u64) {
            report.instructions += n;
        }
        prev_epoch = epoch.or(prev_epoch);
        prev_end = end.or(prev_end);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_telemetry::export::write_jsonl_line;
    use mm_telemetry::EpochSample;

    const SCHEMA: &str = include_str!("../../../docs/telemetry.schema.json");

    /// A one-shard record carrying 5 instructions.
    fn line(epoch: u64, start: u64, end: u64) -> String {
        let mut s = EpochSample {
            epoch,
            start_cycle: start,
            end_cycle: end,
            wall_ns: 10,
            instructions: 5,
            shards: 1,
            ..EpochSample::default()
        };
        s.shard_steps[0] = 8;
        let mut line = String::new();
        write_jsonl_line(&s, &mut line);
        line
    }

    #[test]
    fn clean_stream_passes() {
        let schema = parse(SCHEMA).unwrap();
        let text = format!(
            "{}{}{}",
            line(0, 0, 4096),
            line(1, 4096, 8192),
            line(2, 8192, 9000)
        );
        let r = check_stream(&text, Some(&schema));
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.lines, 3);
        assert_eq!(r.cycles, 9000);
        assert_eq!(r.instructions, 15);
    }

    #[test]
    fn flags_epoch_gap_and_cycle_discontinuity() {
        let text = format!("{}{}", line(0, 0, 4096), line(2, 5000, 8192));
        let r = check_stream(&text, None);
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("epoch 2 does not follow 0")));
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("start_cycle 5000 != previous end_cycle 4096")));
    }

    #[test]
    fn flags_nonzero_first_epoch_and_empty_epoch_span() {
        let text = format!("{}{}", line(3, 0, 4096), line(4, 4096, 4096));
        let r = check_stream(&text, None);
        assert!(r.errors.iter().any(|e| e.contains("first epoch is 3")));
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("end_cycle 4096 <= start_cycle 4096")));
    }

    #[test]
    fn tolerates_a_truncated_final_line() {
        let schema = parse(SCHEMA).unwrap();
        let full = format!("{}{}", line(0, 0, 4096), line(1, 4096, 8192));
        // Cut the stream mid-record, as a killed writer would.
        let cut = &full[..full.len() - 40];
        assert!(!cut.ends_with('\n'));
        let r = check_stream(cut, Some(&schema));
        assert!(r.is_ok(), "{:?}", r.errors);
        assert!(r.truncated);
        assert_eq!(r.lines, 1, "partial line excluded from counts");
        assert_eq!(r.cycles, 4096);

        // The same garbage WITH its newline is a real violation.
        let mut terminated = cut.to_owned();
        terminated.push('\n');
        let r = check_stream(&terminated, Some(&schema));
        assert!(!r.is_ok());
        assert!(!r.truncated);
        assert_eq!(r.lines, 2);
    }

    #[test]
    fn flags_schema_violations_with_line_numbers() {
        let schema = parse(SCHEMA).unwrap();
        let text = "{\"v\":2,\"epoch\":0}\nnot json\n";
        let r = check_stream(text, Some(&schema));
        assert!(!r.is_ok());
        assert!(r.errors.iter().any(|e| e.starts_with("line 1:")));
        assert!(r.errors.iter().any(|e| e.starts_with("line 2: not JSON")));
    }
}
