//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in a
//! vector and written out with the results file when the run ends. A
//! disabled tracer records nothing, so the untraced runs pay one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or simulation sample) this span belongs to.
    pub request: u64,
}

/// Open-span handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Spans nest strictly (single-threaded call sites).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `on` is true and does nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Turns recording on or off between spans (the traced run
    /// alternates traced and untraced samples to measure overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Self time of every span in milliseconds (its duration minus the
    /// part its children cover), grouped by span name in call order.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// JSON array of the spans (for the results file).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[\"{}\",{},{},{},{}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n    "))
    }
}
