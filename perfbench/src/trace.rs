//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), the PE that made the call, the op
//! it belongs to, its start and end, and the span that caused it.  Spans
//! stay in memory until the run ends; [`write_jsonl`] then writes one JSON
//! object per line plus a closing line with every layer's self time: a
//! span's duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.  `parent` indexes the same PE's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pe: usize,
    pub op: usize,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }

    /// The layer a span belongs to: its name without the final `.call`.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// The span recorder of one PE (or of the calling thread).  When disabled
/// it records nothing and reads no clock.
#[derive(Debug)]
pub struct PeTrace {
    on: bool,
    pe: usize,
    op: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl PeTrace {
    pub fn new(on: bool, pe: usize) -> Self {
        PeTrace {
            on,
            pe,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            pe: self.pe,
            op: self.op,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = Instant::now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of every PE, each list with PE-local parent indexes and the name
/// of the run it was recorded in.
#[derive(Debug, Default)]
pub struct Trace {
    lists: Vec<(&'static str, Vec<Span>)>,
}

impl Trace {
    pub fn add(&mut self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.lists.push(("", spans));
        }
    }

    /// Move `other`'s spans in, labelled with the run they came from.
    pub fn absorb(&mut self, run: &'static str, other: Trace) {
        self.lists
            .extend(other.lists.into_iter().map(|(_, spans)| (run, spans)));
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.lists.iter().flat_map(|(_, spans)| spans)
    }

    /// Durations in microseconds of every span named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Total self time per layer, in milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (_, list) in &self.lists {
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); list.len()];
            for (i, s) in list.iter().enumerate() {
                if let Some(p) = s.parent {
                    children[p].push(i);
                }
            }
            for (i, s) in list.iter().enumerate() {
                let mut kids: Vec<(Instant, Instant)> = children[i]
                    .iter()
                    .map(|&c| (list[c].start, list[c].end))
                    .collect();
                kids.sort();
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b.duration_since(a).as_secs_f64();
                        reach = b;
                    }
                }
                let total = s.end.duration_since(s.start).as_secs_f64();
                *out.entry(s.layer()).or_insert(0.0) += (total - covered).max(0.0) * 1e3;
            }
        }
        out
    }
}

/// Render the spans as JSON lines (times in microseconds since `epoch`,
/// span ids unique across PEs and runs), closed by a `self_ms` line per
/// layer.
pub fn write_jsonl(trace: &Trace, epoch: Instant) -> String {
    let mut out = String::new();
    let mut base = 0usize;
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    for (run, list) in &trace.lists {
        for (i, s) in list.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"run\":\"{run}\",\"name\":\"{}\",\"pe\":{},\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{}}}",
                base + i,
                s.name,
                s.pe,
                s.op,
                us(s.start),
                us(s.end),
                parent
            );
        }
        base += list.len();
    }
    out.push_str(&self_time_line(trace));
    out.push('\n');
    out
}

/// `{"self_ms": {"<layer>": ms, ...}}` on one line.
pub fn self_time_line(trace: &Trace) -> String {
    let fields: Vec<String> = trace
        .self_ms_by_layer()
        .into_iter()
        .map(|(layer, ms)| format!("\"{layer}\":{ms:.3}"))
        .collect();
    format!("{{\"self_ms\":{{{}}}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |name, start, end, parent| Span {
            name,
            pe: 0,
            op: 0,
            start: at(start),
            end: at(end),
            parent,
        };
        let mut trace = Trace::default();
        trace.add(vec![
            span("bench.op", 0, 10, None),
            span("topk.unsorted.select", 1, 5, Some(0)),
            span("topk.unsorted.select", 4, 7, Some(0)),
        ]);
        let self_ms = trace.self_ms_by_layer();
        assert!((self_ms["bench"] - 4.0).abs() < 1e-9);
        assert!((self_ms["topk.unsorted"] - 7.0).abs() < 1e-9);
    }
}
