//! Spans recorded by the benchmark around its own calls into the
//! simulator (the traced pass only): name, start, end and the span that
//! caused it. They live in one pre-allocated `Vec` — opening or closing
//! a span never allocates, so the allocation probe stays clean — and
//! are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) interval. `index` distinguishes siblings
/// of the same name (repetition 2, window 17) without a formatted name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: a stack of open spans over the flat span list.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, index: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"index\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.index, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of each `parent_name` span's duration covered by its direct
/// children, minimum over all such spans (1.0 when there are none).
pub fn min_child_coverage(spans: &[Span], parent_name: &str) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == parent_name && s.duration_ns() > 0)
        .map(|(s, self_ns)| 1.0 - self_ns as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            index: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("workload", 0, 1000, NO_PARENT),
            span("repetition", 100, 900, 0),
            span("setup", 100, 300, 1),
            span("window", 300, 600, 1),
            span("window", 600, 880, 1),
        ];
        // workload: 1000 − 800; repetition: 800 − (200 + 300 + 280);
        // grandchildren are not subtracted from the workload twice.
        assert_eq!(self_times(&spans), vec![200, 20, 200, 300, 280]);
        let cover = min_child_coverage(&spans, "repetition");
        assert!((cover - 0.975).abs() < 1e-12);
        assert_eq!(min_child_coverage(&spans, "absent"), 1.0);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::with_capacity(8);
        let w = t.open("workload", 0);
        let r = t.open("repetition", 3);
        t.close(r);
        t.close(w);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[1].index), (NO_PARENT, 0, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = mm_telemetry::json::parse(&t.to_json()).expect("span file is JSON");
        let arr = json.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[1].get("name").and_then(|v| v.as_str()),
            Some("repetition")
        );
        assert_eq!(arr[1].get("parent").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::with_capacity(4);
        let a = t.open("a", 0);
        let _b = t.open("b", 0);
        t.close(a);
    }
}
