//! In-memory spans for the traced run. A span has a name, a start and end
//! (nanoseconds from its phase start), a parent and the id of the request
//! it belongs to. Spans are recorded by the benchmark around its calls into
//! each layer and written out as JSON lines when the run ends; a span's
//! self time is its duration minus the time its children cover.

use std::collections::HashMap;
use std::io::Write;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    /// Index of the parent within the same log, if any.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// A per-thread span log; recording is a no-op when disabled.
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index (children name it as parent).
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                request,
                parent,
                start,
                end,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Sets the end of an open span (a parent whose children are recorded
    /// before it closes).
    pub fn close(&mut self, index: usize, end: u64) {
        if let Some(span) = self.spans.get_mut(index).filter(|_| self.enabled) {
            span.end = end;
        }
    }

    /// The driver's three spans of one request: the client-observed span
    /// from due to done, the driver's wait before sending, and the call into
    /// the tier under test.
    pub fn request(&mut self, request: u64, tier: &'static str, due: u64, sent: u64, done: u64) {
        let root = self.push("client.request", request, None, due, done);
        self.push("driver.wait", request, Some(root), due, sent);
        self.push(tier, request, Some(root), sent, done);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time (ns) of every span: duration minus the children's durations
/// (children of one parent never overlap here: the benchmark calls layers
/// one after another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, c)| (s.end - s.start).saturating_sub(*c))
        .collect()
}

/// Self times (µs) grouped by span name, each list sorted.
pub fn self_times_by_name(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    for v in out.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    out
}

/// Writes spans as JSON lines, tagged with the pass they came from.
pub fn write_jsonl(out: &mut impl Write, pass: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true);
        log.request(1, "tier", 0, 10, 100);
        let times = self_times(&log.into_spans());
        assert_eq!(times, vec![0, 10, 90]);
    }
}
