//! In-memory spans recorded around calls into the layers.
//!
//! Spans live only in the benchmark's own code: a span opens just before
//! a call into a layer's public function and closes just after it. They
//! stay in memory and are written out once, when the run ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Request the span belongs to (spans of one request share it).
    pub req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a root span when `traced`; `None` otherwise, which every
    /// later call on it treats as "not traced".
    pub fn root(
        &mut self,
        traced: bool,
        name: &'static str,
        req: u64,
        start_ns: u64,
    ) -> Option<SpanId> {
        traced.then(|| self.push(name, req, None, start_ns))
    }

    /// Opens a child of `parent` now, if the parent is traced.
    pub fn child(&mut self, parent: Option<SpanId>, name: &'static str) -> Option<SpanId> {
        let parent = parent?;
        let req = self.spans[parent].req;
        let now = self.now_ns();
        Some(self.push(name, req, Some(parent), now))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes every span, one per line with its self time, as
    /// tab-separated values.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            // Overlapping children count once.
            span("wait", 20, 60, Some(0)),
            // A child running past its parent is clipped.
            span("verify", 90, 120, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn untraced_roots_record_nothing() {
        let mut t = Tracer::new(Instant::now());
        let root = t.root(false, "request", 1, 0);
        let child = t.child(root, "submit");
        t.close(child);
        t.close(root);
        assert!(t.spans().is_empty());

        let root = t.root(true, "request", 2, 0);
        let child = t.child(root, "submit");
        t.close(child);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 2);
    }
}
