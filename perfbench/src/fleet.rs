//! The fleet workload's plumbing: a `Pipeline` driven the way `serve`
//! drives it, with timing wrappers around every `Source` and
//! `Sink`, and the output checks on what the sinks received.

use crate::compute::{layer_metrics, same_point, Recomposer};
use crate::data::{self, BagShape};
use crate::report::Report;
use crate::trace::{quantile, secs_since, Open, SharedTracer, Tracer};
use crate::Args;
use bagcpd::{Bag, BootstrapConfig, Detector, DetectorConfig, ScorePoint, SignatureMethod};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::ingest::{Source, SourceError, SourceItem, SourceStatus, StreamCursor};
use stream::telemetry::MetricsRegistry;
use stream::{
    CheckpointPolicy, CsvSchema, CsvSink, Event, Pipeline, PipelineSummary, ScoreLogReader,
    ScoreLogSink, Sink,
};

/// How long the drive loop sleeps when a step did nothing (as
/// `Pipeline::run` does).
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Streams rebuilt and checked against a standalone `Detector::analyze`
/// (and, in the traced pass, recomposed layer by layer).
const SAMPLE_STREAMS: usize = 8;

/// One fleet workload's shape.
pub struct Fleet {
    pub streams: usize,
    pub shape: BagShape,
    pub signature: SignatureMethod,
    pub replicates: usize,
    /// Bags per stream already scored by the checkpoint the timed
    /// session resumes from.
    pub warm: usize,
    pub checkpoint_bags: u64,
}

impl Fleet {
    pub fn config(&self) -> DetectorConfig {
        DetectorConfig {
            tau: 5,
            tau_prime: 5,
            signature: self.signature.clone(),
            bootstrap: BootstrapConfig {
                replicates: self.replicates,
                ..BootstrapConfig::default()
            },
            ..DetectorConfig::default()
        }
    }

    pub fn name(s: usize) -> String {
        format!("s{s:04}")
    }
}

/// Everything the wrappers observe, shared with the drive loop.
#[derive(Default)]
pub struct Probe {
    pub polls: u64,
    pub poll_s: f64,
    pub bags_in: u64,
    pub empty_polls: u64,
    /// When each bag was handed to the pipeline, by `(stream, time)`
    /// (kept only when the workload times points from ingest).
    pub ingested: Option<HashMap<(Arc<str>, i64), Instant>>,
    pub deliver_csv_s: f64,
    pub deliver_log_s: f64,
    pub flush_s: f64,
    pub events: u64,
    /// Every delivered point with its delivery time, in order.
    pub points: Vec<(Arc<str>, ScorePoint, Instant)>,
    /// Stream errors and quarantines seen at the sink.
    pub stream_failures: Vec<String>,
    /// Bytes of each committed checkpoint.
    pub checkpoints: Vec<usize>,
    /// When the last durable flush ended: a checkpoint is written after
    /// the flush that makes its events durable and before its
    /// announcement is delivered.
    pub last_flush_end: Option<Instant>,
    /// Checkpoint writes not yet handed to the tracer, as
    /// `(start, end)`.
    pub pending_checkpoints: Vec<(Instant, Instant)>,
    /// Duration of every checkpoint write, in ms.
    pub checkpoint_ms: Vec<f64>,
}

pub type SharedProbe = Rc<RefCell<Probe>>;

/// Times every poll of the wrapped source.
pub struct TimedSource<S> {
    inner: S,
    probe: SharedProbe,
    tracer: SharedTracer,
}

impl<S: Source> TimedSource<S> {
    pub fn new(inner: S, probe: &SharedProbe, tracer: &SharedTracer) -> Self {
        TimedSource {
            inner,
            probe: probe.clone(),
            tracer: tracer.clone(),
        }
    }
}

impl<S: Source> Source for TimedSource<S> {
    fn origin(&self) -> &str {
        self.inner.origin()
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        let before = out.len();
        let span = self.tracer.borrow_mut().begin("ingest", u64::MAX);
        let t0 = Instant::now();
        let status = self.inner.poll(out);
        let now = Instant::now();
        self.tracer.borrow_mut().end(span);
        let mut probe = self.probe.borrow_mut();
        probe.polls += 1;
        probe.poll_s += (now - t0).as_secs_f64();
        if out.len() == before {
            probe.empty_polls += 1;
        }
        for item in &out[before..] {
            if let SourceItem::Bag { stream, time, .. } = item {
                probe.bags_in += 1;
                if let Some(seen) = probe.ingested.as_mut() {
                    seen.insert((stream.clone(), *time), now);
                }
            }
        }
        status
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        self.inner.cursors(out);
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        self.inner.restore(cursors);
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        self.inner.finish(out)
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.inner.attach_telemetry(registry);
    }

    fn pressure(&mut self, load: f64) {
        self.inner.pressure(load);
    }
}

/// Which egress a [`TimedSink`] wraps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Egress {
    /// CSV rows to a file; also records what was delivered, and when.
    Csv,
    ScoreLog,
}

/// Times every delivery and durable flush of the wrapped sink.
pub struct TimedSink<K> {
    inner: K,
    which: Egress,
    probe: SharedProbe,
    tracer: SharedTracer,
}

impl<K: Sink> TimedSink<K> {
    pub fn new(inner: K, which: Egress, probe: &SharedProbe, tracer: &SharedTracer) -> Self {
        TimedSink {
            inner,
            which,
            probe: probe.clone(),
            tracer: tracer.clone(),
        }
    }
}

impl<K: Sink> Sink for TimedSink<K> {
    fn deliver(&mut self, events: &[Event]) -> std::io::Result<()> {
        let name = match self.which {
            Egress::Csv => "egress.csv",
            Egress::ScoreLog => "egress.scorelog",
        };
        let t0 = Instant::now();
        if self.which == Egress::Csv {
            let mut probe = self.probe.borrow_mut();
            for event in events {
                if let Event::CheckpointWritten { bytes, .. } = event {
                    probe.checkpoints.push(*bytes);
                    if let Some(start) = probe.last_flush_end {
                        probe.checkpoint_ms.push((t0 - start).as_secs_f64() * 1e3);
                        probe.pending_checkpoints.push((start, t0));
                    }
                }
            }
        }
        let span = self.tracer.borrow_mut().begin(name, u64::MAX);
        let result = self.inner.deliver(events);
        let now = Instant::now();
        self.tracer.borrow_mut().end(span);
        let mut probe = self.probe.borrow_mut();
        let took = (now - t0).as_secs_f64();
        match self.which {
            Egress::ScoreLog => probe.deliver_log_s += took,
            Egress::Csv => {
                probe.deliver_csv_s += took;
                probe.events += events.len() as u64;
                for event in events {
                    match event {
                        Event::Point { stream, point } => {
                            probe.points.push((stream.clone(), *point, now))
                        }
                        Event::StreamError { stream, message } => probe
                            .stream_failures
                            .push(format!("stream {stream}: {message}")),
                        Event::Quarantine(q) => probe
                            .stream_failures
                            .push(format!("stream {} quarantined: {}", q.stream, q.error)),
                        _ => {}
                    }
                }
            }
        }
        result
    }

    fn flush_durable(&mut self) -> std::io::Result<()> {
        let span = self.tracer.borrow_mut().begin("egress.flush", u64::MAX);
        let t0 = Instant::now();
        let result = self.inner.flush_durable();
        self.tracer.borrow_mut().end(span);
        let mut probe = self.probe.borrow_mut();
        probe.flush_s += secs_since(t0);
        probe.last_flush_end = Some(Instant::now());
        result
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// The files one session writes.
pub struct SessionPaths {
    pub state: PathBuf,
    pub csv: PathBuf,
    pub log: PathBuf,
}

impl SessionPaths {
    pub fn in_dir(dir: &Path) -> Self {
        SessionPaths {
            state: dir.join("state.ckpt"),
            csv: dir.join("points.csv"),
            log: dir.join("scores.log"),
        }
    }

    /// Remove the egress files of a previous session (not the state).
    pub fn clear_egress(&self) {
        let _ = std::fs::remove_file(&self.csv);
        let _ = std::fs::remove_file(&self.log);
    }
}

/// Build the pipeline a session runs: the fleet's detector, a shared
/// registry, CSV egress to a file and a score log (both timed), delivery-
/// acked checkpoints to `paths.state` (restored when it exists).
#[allow(clippy::too_many_arguments)]
pub fn build_pipeline(
    fleet: &Fleet,
    seed: u64,
    workers: usize,
    source: Box<dyn Source>,
    paths: &SessionPaths,
    registry: &MetricsRegistry,
    probe: &SharedProbe,
    tracer: &SharedTracer,
) -> Result<Pipeline, String> {
    let csv = File::create(&paths.csv).map_err(|e| format!("{}: {e}", paths.csv.display()))?;
    let log = ScoreLogSink::open(&paths.log)
        .map_err(|e| format!("{}: {e}", paths.log.display()))?
        .with_metrics(registry);
    Pipeline::builder(fleet.config())
        .seed(seed)
        .workers(workers)
        .metrics(registry.clone())
        .checkpoint(
            CheckpointPolicy {
                every_bags: Some(fleet.checkpoint_bags),
                every_ticks: None,
            },
            &paths.state,
        )
        .source_boxed(source)
        .sink(TimedSink::new(
            CsvSink::with_schema(BufWriter::new(csv), CsvSchema::canonical()),
            Egress::Csv,
            probe,
            tracer,
        ))
        .sink(TimedSink::new(log, Egress::ScoreLog, probe, tracer))
        .build()
        .map_err(|e| format!("pipeline build: {e}"))
}

/// What the drive loop observed.
#[derive(Default)]
pub struct DriveStats {
    pub steps: u64,
    pub idle_steps: u64,
    pub load_max: f64,
    pub load_sum: f64,
    pub wall_s: f64,
}

/// Step the pipeline until its sources are exhausted, sleeping when
/// idle (as `Pipeline::run` does), sampling the engine's queue load
/// after every step; then finish it.
pub fn drive(
    mut pipeline: Pipeline,
    probe: &SharedProbe,
    tracer: &SharedTracer,
    stats: &mut DriveStats,
) -> Result<PipelineSummary, String> {
    let t0 = Instant::now();
    loop {
        let span = tracer.borrow_mut().begin("pipeline.step", u64::MAX);
        let step = pipeline.step().map_err(|e| format!("pipeline step: {e}"))?;
        close_with_checkpoints(probe, tracer, span);
        let load = pipeline.engine_mut().queue_load();
        stats.steps += 1;
        stats.load_max = stats.load_max.max(load);
        stats.load_sum += load;
        if step.done {
            break;
        }
        if step.idle {
            stats.idle_steps += 1;
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    let span = tracer.borrow_mut().begin("pipeline.finish", u64::MAX);
    let summary = pipeline
        .finish()
        .map_err(|e| format!("pipeline finish: {e}"));
    close_with_checkpoints(probe, tracer, span);
    stats.wall_s += secs_since(t0);
    summary
}

/// Close a step (or finish) span, first adding the checkpoint writes it
/// carried as its children.
fn close_with_checkpoints(probe: &SharedProbe, tracer: &SharedTracer, span: Open) {
    let mut tr = tracer.borrow_mut();
    for (start, end) in probe.borrow_mut().pending_checkpoints.drain(..) {
        tr.record("checkpoint", start, end, u64::MAX);
    }
    tr.end(span);
}

/// One registry sample by key (0 when absent).
pub fn sample(summary: &PipelineSummary, key: &str) -> f64 {
    summary
        .metrics
        .iter()
        .find(|s| s.key == key)
        .map_or(0.0, |s| s.value)
}

/// Exactly-once delivery: every stream's points `first..=last` once
/// each, and nothing else.
pub fn check_exactly_once(
    report: &mut Report,
    fleet: &Fleet,
    points: &[(Arc<str>, ScorePoint, Instant)],
    (first, last): (usize, usize),
) {
    let mut seen: HashMap<&str, HashMap<usize, u32>> = HashMap::new();
    for (stream, p, _) in points {
        *seen.entry(stream).or_default().entry(p.t).or_default() += 1;
    }
    let (mut missing, mut duplicate, mut unexpected) = (0u64, 0u64, 0u64);
    for s in 0..fleet.streams {
        let mut counts = seen.remove(Fleet::name(s).as_str()).unwrap_or_default();
        for t in first..=last {
            match counts.remove(&t).unwrap_or(0) {
                0 => missing += 1,
                1 => {}
                n => duplicate += u64::from(n - 1),
            }
        }
        unexpected += counts.values().map(|&n| u64::from(n)).sum::<u64>();
    }
    // Points of streams that should not exist.
    unexpected += seen
        .values()
        .flat_map(HashMap::values)
        .map(|&n| u64::from(n))
        .sum::<u64>();
    if missing > 0 {
        report.fail(
            missing,
            format!("{missing} expected point(s) never delivered"),
        );
    }
    if duplicate > 0 {
        report.fail(duplicate, format!("{duplicate} point(s) delivered twice"));
    }
    if unexpected > 0 {
        report.fail(
            unexpected,
            format!("{unexpected} unexpected point(s) delivered"),
        );
    }
}

/// The score log, read back, must hold exactly the delivered points.
pub fn check_score_log(
    report: &mut Report,
    log: &Path,
    points: &[(Arc<str>, ScorePoint, Instant)],
) {
    let events = match ScoreLogReader::read_all(log) {
        Ok(e) => e,
        Err(e) => {
            report.fail(
                points.len() as u64,
                format!("score log {}: {e}", log.display()),
            );
            return;
        }
    };
    let logged: Vec<(&str, &ScorePoint)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Point { stream, point } => Some((&**stream, point)),
            _ => None,
        })
        .collect();
    let differ = logged.len().abs_diff(points.len())
        + logged
            .iter()
            .zip(points)
            .filter(|((ls, lp), (s, p, _))| *ls != &**s || !same_point(lp, p))
            .count();
    if differ > 0 {
        report.fail(
            differ as u64,
            format!(
                "score log holds {} point(s), {differ} differ from the {} delivered",
                logged.len(),
                points.len()
            ),
        );
    }
}

/// Streams checked against a standalone detector: evenly spaced.
pub fn sample_streams(streams: usize) -> Vec<usize> {
    let n = SAMPLE_STREAMS.min(streams);
    (0..n).map(|i| i * streams / n).collect()
}

/// Delivered points of one stream, by `t`.
pub fn points_of<'a>(
    points: &'a [(Arc<str>, ScorePoint, Instant)],
    stream: &str,
) -> HashMap<usize, &'a ScorePoint> {
    points
        .iter()
        .filter(|(s, ..)| &**s == stream)
        .map(|(_, p, _)| (p.t, p))
        .collect()
}

/// Rebuild each sampled stream's completed bags (`0..bags`), score it
/// with a standalone `Detector::analyze` under the stream's derived
/// seed, and compare with what the fleet delivered. The traced pass
/// also recomposes each stream layer by layer and reports the compute
/// layers from those spans. The fleet's master seed is `args.seed`.
pub fn check_against_standalone(
    report: &mut Report,
    args: &Args,
    fleet: &Fleet,
    changes: &dyn Fn(usize) -> Vec<usize>,
    bags: usize,
    points: &[(Arc<str>, ScorePoint, Instant)],
) {
    let det = Detector::new(fleet.config()).expect("valid workload config");
    let mut tracer = Tracer::new(args.trace);
    let mut recomposer = Recomposer::default();
    let (mut analyze_s, mut recompose_s) = (0.0, 0.0);
    let mut checked = 0u64;
    for s in sample_streams(fleet.streams) {
        let name = Fleet::name(s);
        let seq: Vec<Bag> = (0..bags)
            .map(|b| data::bag(args.seed, s as u64, b, &fleet.shape, &changes(s)))
            .collect();
        let seed = stream::derive_stream_seed(args.seed, &name);
        let delivered = points_of(points, &name);
        let t0 = Instant::now();
        let batch = det.analyze(&seq, seed);
        analyze_s += secs_since(t0);
        let batch = match batch {
            Ok(d) => d.points,
            Err(e) => {
                report.fail(delivered.len() as u64, format!("{name}: analyze: {e}"));
                continue;
            }
        };
        let mut reference = vec![("Detector::analyze", batch)];
        if args.trace {
            let t0 = Instant::now();
            let layered = recomposer.run(&det, &seq, seed, &mut tracer, s as u64);
            recompose_s += secs_since(t0);
            match layered {
                Ok(p) => reference.push(("the layer recomposition", p)),
                Err(e) => report.fail(delivered.len() as u64, format!("{name}: {e}")),
            }
        }
        for (what, expect) in &reference {
            let differ = delivered
                .values()
                .filter(|p| {
                    expect
                        .iter()
                        .find(|q| q.t == p.t)
                        .is_none_or(|q| !same_point(p, q))
                })
                .count();
            if differ > 0 {
                report.fail(
                    differ as u64,
                    format!("{name}: {differ} delivered point(s) differ from {what}"),
                );
            }
        }
        checked += delivered.len() as u64;
    }
    report.env_num("standalone_checked_points", checked);
    if args.trace {
        let totals = tracer.totals();
        layer_metrics(
            report,
            &tracer,
            &totals,
            recomposer.pivots(),
            fleet.replicates,
        );
        report.set("trace.overhead_frac", recompose_s / analyze_s - 1.0);
        crate::write_spans(args, &tracer, "compute-spans.csv");
    }
}

/// Detection counts over the delivered points: per stream, alerts in
/// the delivered range against that stream's planted changes.
pub fn detection_counts(
    report: &mut Report,
    fleet: &Fleet,
    points: &[(Arc<str>, ScorePoint, Instant)],
    changes: &dyn Fn(usize) -> Vec<usize>,
) {
    let mut alerts: HashMap<&str, Vec<usize>> = HashMap::new();
    for (stream, p, _) in points {
        if p.alert {
            alerts.entry(stream).or_default().push(p.t);
        }
    }
    let mut total = data::DetectCounts::default();
    for s in 0..fleet.streams {
        let name = Fleet::name(s);
        let a = alerts.get(name.as_str()).map_or(&[][..], Vec::as_slice);
        total.add(data::DetectCounts::score(
            a,
            &changes(s),
            fleet.config().tau_prime,
        ));
    }
    report.set("detect.planted", total.planted as f64);
    report.set("detect.recall", total.detected as f64);
    report.set("detect.false_alerts", total.false_alerts as f64);
}

/// Layer metrics of the session itself (drive thread): ingest, egress,
/// checkpoints, steps and the engine's own counters.
pub fn session_metrics(
    report: &mut Report,
    probe: &Probe,
    tracer: &Tracer,
    drive: &DriveStats,
    registry_samples: &[(f64, f64, f64)],
) {
    let totals = tracer.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    report.set("ingest.polls", probe.polls as f64);
    report.set("ingest.busy_s", probe.poll_s);
    report.set("ingest.bags", probe.bags_in as f64);
    report.set(
        "ingest.empty_poll_ratio",
        probe.empty_polls as f64 / probe.polls.max(1) as f64,
    );
    report.set("engine.queue_load_max", drive.load_max);
    report.set(
        "engine.queue_load_mean",
        drive.load_sum / drive.steps.max(1) as f64,
    );
    let (ticks, solve_s, log_bytes) = registry_samples
        .iter()
        .fold((0.0, 0.0, 0.0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2));
    report.set("engine.ticks", ticks);
    report.set("engine.solve_s", solve_s);
    report.set("pipeline.steps", drive.steps as f64);
    report.set(
        "pipeline.idle_ratio",
        drive.idle_steps as f64 / drive.steps.max(1) as f64,
    );
    report.set("pipeline.step_self_s", get("pipeline.step").self_s);
    report.set("egress.csv.deliver_s", probe.deliver_csv_s);
    report.set("egress.scorelog.deliver_s", probe.deliver_log_s);
    report.set("egress.flush_s", probe.flush_s);
    report.set("egress.events", probe.events as f64);
    report.set("egress.scorelog.bytes", log_bytes);
    report.set("checkpoint.count", probe.checkpoints.len() as f64);
    report.set(
        "checkpoint.bytes",
        probe.checkpoints.iter().map(|&b| b as f64).sum(),
    );
    report.set("checkpoint.ms_p50", quantile(&probe.checkpoint_ms, 0.5));
    report.set("session.wall_s", drive.wall_s);
    let io = probe.poll_s
        + probe.deliver_csv_s
        + probe.deliver_log_s
        + probe.flush_s
        + probe.checkpoint_ms.iter().sum::<f64>() * 1e-3;
    report.set("io.share", io / drive.wall_s.max(1e-9));
}

/// The registry numbers a session contributes: engine ticks, solver
/// seconds and score-log bytes.
pub fn registry_numbers(summary: &PipelineSummary) -> (f64, f64, f64) {
    (
        sample(summary, "bagscpd_engine_ticks_total"),
        sample(summary, "bagscpd_solver_solve_seconds_sum"),
        sample(summary, "bagscpd_scorelog_bytes_total"),
    )
}

/// Record stream errors and quarantines as failures.
pub fn check_stream_failures(report: &mut Report, probe: &Probe, summary: &PipelineSummary) {
    for f in &probe.stream_failures {
        report.fail(1, f.clone());
    }
    let extra = summary
        .quarantined_total
        .saturating_sub(probe.stream_failures.len() as u64);
    if extra > 0 {
        report.fail(extra, format!("{extra} stream(s) quarantined"));
    }
}

/// A shared tracer for a session.
pub fn shared_tracer(enabled: bool) -> SharedTracer {
    Rc::new(RefCell::new(Tracer::new(enabled)))
}
