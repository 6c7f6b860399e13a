//! Spans recorded around the benchmark's own calls into each layer,
//! plus the small statistics helpers every workload shares.
//!
//! A [`Tracer`] keeps its spans in memory (name, start, end, parent,
//! sequence or stream id) and writes them out once, when the traced run
//! ends. A disabled tracer records nothing: the timed pass and the
//! traced pass run the same code, and only the traced pass pays for the
//! clock reads and the span vector.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded layer boundary.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Sequence index (batch) or stream index (fleet); `u64::MAX` when
    /// the span belongs to no single sequence or stream.
    id: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_s: f64,
    /// Duration minus the part covered by child spans.
    pub self_s: f64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span (and any span left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Add a finished span measured elsewhere, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as CSV: `index,name,start_ns,end_ns,parent,id`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index,name,start_ns,end_ns,parent,id")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let id = if s.id == u64::MAX {
                String::new()
            } else {
                s.id.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{id}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A tracer shared between the drive loop and the source/sink wrappers
/// the pipeline owns (all on the drive thread).
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median over consecutive chunks of at least `chunk_s` seconds of the
/// chunk's rate, `work / seconds`, from `(work, seconds)` samples in
/// time order. A burst of machine noise slows a few chunks and leaves
/// the median alone. Falls back to the overall rate with fewer than
/// three chunks.
pub fn chunked_rate(samples: &[(f64, f64)], chunk_s: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut work, mut secs) = (0.0, 0.0);
    for &(w, s) in samples {
        work += w;
        secs += s;
        if secs >= chunk_s {
            rates.push(work / secs);
            (work, secs) = (0.0, 0.0);
        }
    }
    if rates.len() < 3 {
        let (w, s) = samples
            .iter()
            .fold((0.0, 0.0), |a, x| (a.0 + x.0, a.1 + x.1));
        return w / s.max(1e-12);
    }
    median(&rates)
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
