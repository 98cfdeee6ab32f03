//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! repository's public functions, kept in memory, and written out once the
//! run ends. A disabled recorder ignores every call, so the untraced run
//! pays one branch per boundary.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or phase name, e.g. `fpvm.compile` or `sweep.exact`.
    pub name: &'static str,
    /// Index of the suite program the span belongs to, if any.
    pub program: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the parts covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records.
    pub fn on() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that ignores every call.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    /// Turns recording on or off; spans already open stay open.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, program: Option<usize>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            program,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        program: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, program);
        let value = f();
        self.exit();
        value
    }

    /// Count, total and self time of every span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(*children);
        }
        layers
    }

    /// Count, total and self time of one span name.
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layer_times().get(name).copied().unwrap_or_default()
    }

    /// The spans and the per-layer totals as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{\"run\": {header}, \"layers\": {{");
        for (i, (name, t)) in self.layer_times().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json::string(name),
                t.count,
                t.total_ns,
                t.self_ns
            ));
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "[{}, {}, {}, {}, {}]",
                json::string(s.name),
                s.program.map_or("null".to_string(), |p| p.to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::on();
        spans.enter("outer", None);
        spans.time("inner", Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit();
        let outer = spans.layer("outer");
        let inner = spans.layer("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(spans.spans[1].program, Some(3));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::off();
        spans.time("layer", None, || ());
        assert!(spans.spans.is_empty());
    }
}
