//! In-memory spans recorded at the benchmark's own call boundaries, and
//! the self-time arithmetic over them.
//!
//! Spans stay in a `Vec` while a traced pass runs and are written out as
//! JSON lines when the run ends. A span's parent is the span that caused
//! it; spans of one flow share the flow index.

use std::io::Write;
use std::time::Instant;

/// `flow` value of spans that belong to no single flow.
pub const NO_FLOW: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub flow: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// A tracer on another's clock, to record on another thread.
    pub fn starting_at(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Takes over the spans of a tracer on the same clock, keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from this tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stores a finished span and returns its index, for children to name
    /// as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        flow: u32,
    ) -> u32 {
        self.spans.push(Span { name, start_ns, end_ns, parent, flow });
        (self.spans.len() - 1) as u32
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let flow =
                if span.flow == NO_FLOW { "null".to_string() } else { span.flow.to_string() };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"flow\":{flow}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child never counts for more than it overlaps the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Cost of reading the clock once, the overhead every span boundary
/// adds: median over batches of back-to-back reads.
pub fn timer_overhead_ns() -> f64 {
    let mut per_read = Vec::with_capacity(9);
    for _ in 0..9 {
        let reads = 20_000u32;
        let start = Instant::now();
        let mut last = start;
        for _ in 0..reads {
            last = std::hint::black_box(Instant::now());
        }
        per_read.push(last.duration_since(start).as_nanos() as f64 / f64::from(reads));
    }
    crate::stats::median(&per_read)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, flow: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // child a
            span(50, 70, Some(0)), // child b
            span(15, 25, Some(1)), // grandchild: counts against a, not the root
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let spans = [
            span(100, 200, None),
            span(120, 160, Some(0)),
            span(150, 180, Some(0)), // overlaps the first child by 10
            span(190, 250, Some(0)), // hangs over the parent's end by 50
            span(10, 50, Some(0)),   // entirely outside the parent
        ];
        // Covered: 120..180 (60) + 190..200 (10) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn absorbed_spans_keep_pointing_at_their_own_parents() {
        let mut main = Tracer::new();
        main.record("a", 0, 10, None, 0);
        let mut other = Tracer::starting_at(main.epoch());
        let root = other.record("b", 20, 30, None, 1);
        other.record("c", 22, 25, Some(root), 1);
        main.absorb(other);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(self_times_ns(&main.spans), vec![10, 7, 3]);
    }

    #[test]
    fn span_lines_are_json_objects_with_null_for_absent_fields() {
        let mut tracer = Tracer::new();
        let root = tracer.record("gen.write", 5, 9, None, NO_FLOW);
        tracer.record("serve.verdict", 6, 20, Some(root), 7);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"name":"gen.write","start_ns":5,"end_ns":9,"parent":null,"flow":null}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"serve.verdict","start_ns":6,"end_ns":20,"parent":0,"flow":7}"#
        );
        for line in lines {
            serde_json::parse_value(line).expect("each span line parses as JSON");
        }
    }
}
