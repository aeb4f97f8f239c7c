//! Host-time spans for the traced run.
//!
//! Every call the traced repetition makes into a crate gets a [`Span`]:
//! name (`<crate>.<call>`), start, end and parent, kept in memory and
//! written out at the end as a Chrome `trace_event` document in the same
//! shape `easeio_trace::chrome` writes. A span's *self time* is its
//! duration minus the part of it its child spans cover, so a crate's share
//! of a repetition is the sum of its spans' self times.

use easeio_trace::Value;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`, e.g. `mcu-emu.restore`.
    pub name: &'static str,
    /// Which pass recorded it: the workload's own work or a layer probe.
    pub pass: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls the span covers: 1, or N for a timed loop of N identical calls.
    pub calls: u64,
}

impl Span {
    /// The crate the span is charged to: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }

    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: &'static str,
    on: bool,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: "workload",
            on: true,
        }
    }

    /// A recorder that reads no clock and keeps no span: a pass run
    /// through it is the untraced twin the tracing overhead compares with.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Tags the spans recorded from now on.
    pub fn set_pass(&mut self, pass: &'static str) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Runs `f` `calls` times inside one span that counts `calls` calls.
    pub fn repeat(&mut self, name: &'static str, calls: u64, mut f: impl FnMut(u64)) {
        let id = self.begin(name);
        for i in 0..calls {
            f(i);
        }
        self.end(id);
        if self.on {
            self.spans[id].calls = calls;
        }
    }

    /// The spans recorded so far, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take() with spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span in ns: its duration minus the union of its
/// children's intervals (clipped to the span), so nested grandchildren
/// are charged once and adjacent or overlapping children are not
/// double-counted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as a Chrome `trace_event` document: one complete (`"X"`)
/// event per span, one thread row per pass.
pub fn chrome_doc(spans: &[Span], process_name: &str) -> Value {
    let meta = |name: &str, tid: Option<u64>, value: &str| {
        let mut pairs = vec![
            ("name".to_string(), Value::str(name)),
            ("ph".to_string(), Value::str("M")),
            ("pid".to_string(), Value::u64(1)),
        ];
        if let Some(t) = tid {
            pairs.push(("tid".to_string(), Value::u64(t)));
        }
        pairs.push((
            "args".to_string(),
            Value::Obj(vec![("name".to_string(), Value::str(value))]),
        ));
        Value::Obj(pairs)
    };
    let mut passes: Vec<&'static str> = Vec::new();
    for s in spans {
        if !passes.contains(&s.pass) {
            passes.push(s.pass);
        }
    }
    let mut records = vec![meta("process_name", None, process_name)];
    for (tid, pass) in passes.iter().enumerate() {
        records.push(meta("thread_name", Some(tid as u64), pass));
    }
    let self_ns = self_times(spans);
    for (s, self_ns) in spans.iter().zip(self_ns) {
        let tid = passes.iter().position(|p| *p == s.pass).unwrap_or(0);
        records.push(Value::Obj(vec![
            ("name".to_string(), Value::str(s.name)),
            ("cat".to_string(), Value::str(s.layer())),
            ("ph".to_string(), Value::str("X")),
            ("ts".to_string(), Value::Num(s.start_ns as f64 / 1e3)),
            ("dur".to_string(), Value::Num(s.dur_ns() as f64 / 1e3)),
            ("pid".to_string(), Value::u64(1)),
            ("tid".to_string(), Value::u64(tid as u64)),
            (
                "args".to_string(),
                Value::Obj(vec![
                    ("calls".to_string(), Value::u64(s.calls)),
                    ("self_us".to_string(), Value::Num(self_ns as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(records)),
        ("displayTimeUnit".to_string(), Value::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            pass: "workload",
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn nested_children_are_charged_to_their_direct_parent_only() {
        let spans = [
            span("exec.outer", 0, 100, None),
            span("crashcheck.mid", 10, 60, Some(0)),
            span("mcu-emu.inner", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn adjacent_children_are_each_subtracted_once() {
        let spans = [
            span("fleet.device", 0, 100, None),
            span("mcu-emu.restore", 0, 30, Some(0)),
            span("kernel.run_app", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 30, 60]);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_their_union() {
        let spans = [
            span("a.p", 10, 100, None),
            span("b.c1", 0, 40, Some(0)),
            span("b.c2", 30, 50, Some(0)),
            span("b.c3", 90, 120, Some(0)),
        ];
        // Covered inside [10, 100): [10, 50) and [90, 100) = 50 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_by_open_scope_and_counts_repeats() {
        let mut rec = Recorder::new();
        rec.scope("exec.outer", |rec| {
            rec.scope("apps.build", |_| ());
            rec.set_pass("probe");
            rec.repeat("core.flag_check", 7, |_| ());
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].calls, 7);
        assert_eq!(spans[2].pass, "probe");
        assert_eq!(spans[1].layer(), "apps");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn an_off_recorder_runs_the_calls_but_keeps_no_span() {
        let mut rec = Recorder::off();
        let mut ran = 0;
        rec.scope("exec.outer", |rec| {
            rec.scope("apps.build", |_| ran += 1);
            rec.repeat("core.flag_check", 7, |_| ran += 1);
        });
        assert_eq!(ran, 8);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn chrome_doc_parses_back_with_one_event_per_span() {
        let spans = [
            span("exec.outer", 0, 2_000, None),
            span("kernel.run_app", 500, 1_500, Some(0)),
        ];
        let text = chrome_doc(&spans, "perfbench").to_compact();
        let doc = easeio_trace::parse_json(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1].get("dur").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            complete[0]
                .get("args")
                .and_then(|a| a.get("self_us"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
