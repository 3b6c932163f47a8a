//! Harness-side spans around every call into a layer.
//!
//! The tracer records from *outside*: the harness wraps its own calls
//! (`stage`, `load_program`, `run`, `serve`, read-back, verify, …) and
//! nothing inside the `vip-*` crates knows it exists. Spans live in a
//! pre-allocated vector and are written out as Chrome-trace JSON when
//! the run ends. A disabled tracer records nothing, so the untraced
//! pass pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::clock::{self, Sample};

/// Iteration tag of spans recorded outside any iteration (set-up,
/// reference passes, the micro ledger).
pub const NO_ITER: i64 = -1;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Workload iteration the span belongs to ([`NO_ITER`] outside).
    pub iter: i64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: i64,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: NO_ITER,
        }
    }

    /// A recording tracer with room for `capacity` spans before it
    /// reallocates.
    #[must_use]
    pub fn recording(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            ..Self::disabled()
        }
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Tags subsequent spans with workload iteration `iter`.
    pub fn set_iter(&mut self, iter: i64) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` on the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as a clock-scaled timed call inside a span called
    /// `name`. The two clock probes get a span of their own around it
    /// (`harness.clock`), so their time is in the ledger too.
    pub fn timed_span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Sample) {
        self.span("harness.clock", |tr| clock::timed(|| tr.span(name, f)))
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children run sequentially on one thread, so the
/// covered part is the plain sum of their durations.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Per-iteration ledger of a traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Traced iterations (root spans found).
    pub iterations: usize,
    /// Mean self milliseconds per iteration, by span name (the root
    /// included, under its own name).
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Σ self times below the roots ÷ Σ root durations × 100.
    pub coverage_pct: f64,
}

/// Folds the spans of every iteration rooted at a span called `root`
/// into mean self times per name.
#[must_use]
pub fn ledger(spans: &[Span], root: &'static str) -> Ledger {
    let own = self_times_ns(spans);
    let mut out = Ledger::default();
    let (mut root_total, mut root_self) = (0u64, 0u64);
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.iter == NO_ITER {
            continue;
        }
        if span.name == root && span.parent.is_none() {
            out.iterations += 1;
            root_total += span.dur_ns();
            root_self += own_ns;
        }
        *sums.entry(span.name).or_default() += own_ns;
    }
    if out.iterations == 0 || root_total == 0 {
        return out;
    }
    let per_iter = out.iterations as f64 * 1e6;
    out.self_ms = sums
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / per_iter))
        .collect();
    out.coverage_pct = (root_total - root_self) as f64 / root_total as f64 * 100.0;
    out
}

/// Chrome-trace / Perfetto JSON (`ph: "X"` complete events,
/// microsecond timestamps) for `spans`.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"iter\":{}}}}}",
            span.name,
            span.name.split('.').next().unwrap_or(span.name),
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.iter,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        iter: i64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // iter [0,100): stage [10,30), run [30,90) with a nested
        // probe [40,50); 20 ns of the root are its own.
        let spans = [
            span("iter", 0, 100, None, 0),
            span("stage", 10, 30, Some(0), 0),
            span("run", 30, 90, Some(0), 0),
            span("probe", 40, 50, Some(2), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn ledger_averages_over_iterations_and_skips_setup_spans() {
        let spans = [
            span("setup", 0, 1_000_000, None, NO_ITER),
            span("iter", 0, 4_000_000, None, 0),
            span("run", 0, 3_000_000, Some(1), 0),
            span("iter", 5_000_000, 7_000_000, None, 1),
            span("run", 5_000_000, 7_000_000, Some(3), 1),
        ];
        let l = ledger(&spans, "iter");
        assert_eq!(l.iterations, 2);
        assert_eq!(l.self_ms["run"], 2.5);
        assert_eq!(l.self_ms["iter"], 0.5);
        assert!(!l.self_ms.contains_key("setup"));
        // 5 of 6 ms sit below the roots.
        assert!((l.coverage_pct - 500.0 / 6.0).abs() < 1e-9);
        assert_eq!(ledger(&[], "iter"), Ledger::default());
    }

    #[test]
    fn recorder_nests_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::recording(8);
        tr.set_iter(3);
        let got = tr.span("outer", |tr| {
            tr.span("inner", |_| 7) + tr.span("inner", |_| 1)
        });
        assert_eq!(got, 8);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }

    /// A minimal JSON well-formedness check: balanced structure
    /// outside strings, no trailing commas, and the expected keys.
    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut tr = Tracer::recording(4);
        tr.span("core.run", |tr| tr.span("mem.read_back", |_| ()));
        let json = chrome_trace_json(tr.spans());
        let mut depth: Vec<char> = Vec::new();
        let mut prev = ' ';
        let mut in_str = false;
        for c in json.chars() {
            if in_str {
                in_str = c != '"';
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth.push(c),
                '}' => assert_eq!(depth.pop(), Some('{')),
                ']' => assert_eq!(depth.pop(), Some('[')),
                _ => {}
            }
            if matches!(c, '}' | ']') {
                assert_ne!(prev, ',', "trailing comma");
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert!(depth.is_empty() && !in_str);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"mem.read_back\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
    }
}
