//! In-memory spans and counters for the traced run.
//!
//! The traced run calls each layer's public function itself and wraps every
//! call in a span (name, start, end, parent, request id). Spans and counters
//! stay in memory until the run ends; [`Trace::write_json`] then writes them
//! out and [`Trace`]'s queries turn them into the per-layer metrics.

use std::fmt::Write as _;
use std::time::Instant;

/// Who a span or counter belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// The workload's set-up.
    Setup,
    /// Request `i` of the workload's request stream.
    Request(u64),
}

/// One timed call.
#[derive(Clone, Debug)]
struct Span {
    /// Layer (or `request` for a whole request).
    name: &'static str,
    /// Nanoseconds since the trace epoch.
    start_ns: u64,
    /// Nanoseconds since the trace epoch.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The set-up or request the span belongs to.
    owner: Owner,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One counter reading, taken at a layer boundary.
#[derive(Clone, Debug)]
struct Counter {
    /// `layer.counter`.
    name: &'static str,
    /// The reading.
    value: f64,
    /// The set-up or request the reading belongs to.
    owner: Owner,
}

/// Records the spans and counters of one thread of the traced run.
pub struct Tracer {
    epoch: Instant,
    owner: Owner,
    open: Vec<usize>,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    last_ms: f64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by every
    /// thread of one run, so merged spans share a time axis).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            owner: Owner::Setup,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
            last_ms: 0.0,
        }
    }

    /// Attribute the following spans and counters to `owner`.
    pub fn set_owner(&mut self, owner: Owner) {
        self.owner = owner;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            owner: self.owner,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        self.last_ms = self.spans[index].duration_ns() as f64 / 1e6;
        out
    }

    /// Wall time (ms) of the span that closed last.
    pub fn last_ms(&self) -> f64 {
        self.last_ms
    }

    /// Record a counter reading.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push(Counter {
            name,
            value,
            owner: self.owner,
        });
    }
}

/// The merged spans and counters of a traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Trace {
    /// Append one thread's recording.
    pub fn absorb(&mut self, tracer: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counters.extend(tracer.counters);
    }

    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        covered
    }

    /// Wall time (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The request index and wall time (ms) of every `request` span.
    pub fn request_ms(&self) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter_map(|s| match s.owner {
                Owner::Request(i) if s.name == "request" => Some((i, s.duration_ns() as f64 / 1e6)),
                _ => None,
            })
            .collect()
    }

    /// The share of each `request` span covered by layer spans: the summed
    /// self time of its descendants (that is, its duration minus its own
    /// self time) over its duration.
    pub fn coverage(&self) -> Vec<f64> {
        let covered = self.children_ns();
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == "request" && s.duration_ns() > 0)
            .map(|(s, c)| *c as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// Every reading of counter `name`, in recording order.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// The whole recording as JSON (`meta` is a pre-rendered JSON object).
    pub fn write_json(&self, meta: &str) -> String {
        let owner = |o: Owner| match o {
            Owner::Setup => "\"setup\"".to_owned(),
            Owner::Request(i) => i.to_string(),
        };
        let mut out = format!("{{\n\"meta\": {meta},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                owner(s.owner),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("],\n\"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"value\": {}, \"request\": {}}}{}",
                c.name,
                c.value,
                owner(c.owner),
                if i + 1 == self.counters.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coverage_is_the_share_of_a_request_its_child_spans_cover() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        tracer.set_owner(Owner::Request(0));
        tracer.span("request", |t| {
            std::thread::sleep(Duration::from_millis(3));
            t.span("chase", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("answer", |t| {
                t.span("topk", |_| std::thread::sleep(Duration::from_millis(1)));
            });
        });
        tracer.count("chase.nodes", 7.0);
        // A second thread's recording of the next request.
        let mut other = Tracer::new(epoch);
        other.set_owner(Owner::Request(1));
        other.span("request", |t| t.span("json", |_| ()));
        let mut trace = Trace::default();
        trace.absorb(tracer);
        trace.absorb(other);

        let ms = |name| trace.durations_ms(name)[0];
        assert!(ms("answer") >= ms("topk"));
        let covered = (ms("chase") + ms("answer")) / ms("request");
        let coverage = trace.coverage();
        assert_eq!(coverage.len(), 2);
        assert!(
            (coverage[0] - covered).abs() < 1e-9,
            "{coverage:?} vs {covered}"
        );
        assert!(coverage[0] < 1.0, "the request's own sleep is uncovered");
        assert_eq!(trace.counter("chase.nodes"), vec![7.0]);

        let json = trace.write_json("{}");
        assert!(json.contains("\"id\": 3, \"name\": \"topk\""));
        assert!(json.contains("\"parent\": 2, \"request\": 0"));
        // The absorbed thread's parent links are offset past the first's.
        assert!(json.contains("\"id\": 5, \"name\": \"json\""));
        assert!(json.contains("\"parent\": 4, \"request\": 1"));
    }
}
