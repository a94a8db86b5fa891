//! Host-time spans recorded by the traced run.
//!
//! A span is a name, start and end (ns since the run's epoch), a parent
//! and the id of the operation it belongs to. Spans stay in memory; each
//! worker thread fills its own [`Recorder`] and the run merges them and
//! writes the file once, when it ends. Nothing here runs inside the
//! simulator: the benchmark wraps public calls from the outside.

use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.enter(name, op, parent);
        let out = f();
        self.exit(id);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another thread's spans in, keeping parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Call count and total host ns of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Mean host ns per span named `name` (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Self time of the spans named `name`: each span's duration minus
    /// the time its direct children cover, summed.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent op` (`-` for no parent).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(Instant::now());
        r.spans = vec![
            span("encode", 0, 100, None),
            span("compress", 10, 70, Some(0)),
            span("tokenize", 20, 50, Some(1)),
            span("encode", 200, 250, None),
        ];
        assert_eq!(r.self_ns("encode"), 40 + 50);
        assert_eq!(r.self_ns("compress"), 30);
        assert_eq!(r.total("encode"), (2, 150));
        assert_eq!(r.mean_ns("encode"), 75.0);
        assert_eq!(r.mean_ns("missing"), 0.0);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let (_, p) = a.time("x", 1, None, || ());
        a.time("y", 1, Some(p), || ());
        let mut b = Recorder::new(epoch);
        let (_, q) = b.time("x", 2, None, || ());
        b.time("y", 2, Some(q), || ());
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].op, 2);
    }
}
