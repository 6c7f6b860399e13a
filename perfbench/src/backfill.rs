//! `fleet_backfill`: a closed-loop backfill. A `DirSource` drains one
//! seeded CSV file per stream as fast as the pipeline takes it, resuming
//! every stream from a checkpoint of its history, with frequent
//! checkpoints, a score log and CSV egress. Each round repeats the same
//! resumed drain from the same checkpoint.

use crate::data::{self, BagShape};
use crate::fleet::{self, DriveStats, Fleet, Probe, SessionPaths, SharedProbe, TimedSource};
use crate::report::Report;
use crate::trace::{median, quantile, secs_since, Tracer};
use crate::Args;
use bagcpd::SignatureMethod;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use stream::ingest::DirSource;
use stream::telemetry::MetricsRegistry;

pub const FLEET_BACKFILL: Fleet = Fleet {
    streams: 1024,
    shape: BagShape {
        dim: 1,
        m: 50,
        shift: 2.0,
    },
    signature: SignatureMethod::Histogram { width: 0.5 },
    replicates: 50,
    warm: 10,
    checkpoint_bags: 2048,
};

/// Bags per stream file; the first `warm` are scored before the rounds.
const BAGS: usize = 26;

/// Rounds every run makes at least; `bags_per_s` is the median of their
/// drain rates.
const MIN_ROUNDS: usize = 3;

/// Pipeline builds per run; `setup_s` is their median.
const SETUPS: usize = 9;

const TAU_PRIME: usize = 5;

/// Planted changes: even streams shift once, inside the range every
/// round delivers with its whole `±τ'` neighbourhood; odd streams never
/// change.
fn changes(s: usize) -> Vec<usize> {
    if s.is_multiple_of(2) {
        vec![FLEET_BACKFILL.warm + (s / 2) % 6]
    } else {
        Vec::new()
    }
}

/// Write stream `s`'s first `bags` bags as `t,x` rows.
fn write_stream(path: &Path, seed: u64, s: usize, bags: usize) -> std::io::Result<()> {
    let fleet = &FLEET_BACKFILL;
    let mut buf = Vec::with_capacity(bags * fleet.shape.m * 12);
    for b in 0..bags {
        let millis = data::bag_millis(seed, s as u64, b, &fleet.shape, &changes(s));
        data::write_bag_lines(&mut buf, b, &millis, fleet.shape.dim);
    }
    std::fs::write(path, buf)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let fleet = &FLEET_BACKFILL;
    // The drive thread parses, delivers and checkpoints while the
    // workers score: one CPU is left to it, so no thread of the program
    // waits for a CPU another of its threads holds.
    let workers = crate::nproc().saturating_sub(1).max(1);
    let io = |e: std::io::Error| e.to_string();

    // Untimed prep: the stream files, each file's history prefix, and a
    // checkpoint of the fleet after draining the prefixes.
    let history = args.work.join("history");
    let full = args.work.join("full");
    std::fs::create_dir_all(&history).map_err(io)?;
    std::fs::create_dir_all(&full).map_err(io)?;
    for s in 0..fleet.streams {
        let file = format!("{}.csv", Fleet::name(s));
        write_stream(&history.join(&file), args.seed, s, fleet.warm).map_err(io)?;
        write_stream(&full.join(&file), args.seed, s, BAGS).map_err(io)?;
    }
    let warm_paths = SessionPaths::in_dir(&history);
    {
        let off = fleet::shared_tracer(false);
        let probe: SharedProbe = Rc::default();
        let pipeline = fleet::build_pipeline(
            fleet,
            args.seed,
            workers,
            Box::new(DirSource::new(history.to_string_lossy(), false)),
            &SessionPaths {
                state: args.work.join("warm.ckpt"),
                ..warm_paths
            },
            &MetricsRegistry::new(),
            &probe,
            &off,
        )?;
        fleet::drive(pipeline, &probe, &off, &mut DriveStats::default())?;
    }

    let paths = SessionPaths::in_dir(&args.work);
    let tracer = fleet::shared_tracer(args.trace);
    let mut drive = DriveStats::default();
    let mut total = Probe::default();
    let mut setups = Vec::new();
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut registry_numbers = Vec::new();
    let first_t = fleet.warm - TAU_PRIME;
    let last_t = BAGS - 1 - TAU_PRIME;
    // Set-up: restore the fleet from the checkpoint, several times.
    std::fs::copy(args.work.join("warm.ckpt"), &paths.state).map_err(io)?;
    for _ in 0..SETUPS {
        paths.clear_egress();
        let probe: SharedProbe = Rc::default();
        let t0 = Instant::now();
        let pipeline = fleet::build_pipeline(
            fleet,
            args.seed,
            workers,
            Box::new(DirSource::new(full.to_string_lossy(), false)),
            &paths,
            &MetricsRegistry::new(),
            &probe,
            &tracer,
        )?;
        setups.push(secs_since(t0));
        drop(pipeline);
    }
    *tracer.borrow_mut() = Tracer::new(args.trace);

    // Rounds: restore, drain, finish, check.
    let t_run = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || secs_since(t_run) < args.seconds {
        paths.clear_egress();
        std::fs::copy(args.work.join("warm.ckpt"), &paths.state).map_err(io)?;
        let probe: SharedProbe = Rc::new(RefCell::new(Probe {
            ingested: Some(HashMap::new()),
            ..Probe::default()
        }));
        let registry = MetricsRegistry::new();
        let pipeline = fleet::build_pipeline(
            fleet,
            args.seed,
            workers,
            Box::new(TimedSource::new(
                DirSource::new(full.to_string_lossy(), false),
                &probe,
                &tracer,
            )),
            &paths,
            &registry,
            &probe,
            &tracer,
        )?;
        // The build's priming flush is set-up, not drain.
        probe.borrow_mut().flush_s = 0.0;
        let t0 = Instant::now();
        let cpu0 = crate::cpu::process_s();
        let summary = fleet::drive(pipeline, &probe, &tracer, &mut drive)?;
        let bags = probe.borrow().bags_in as f64;
        rates.push(bags / secs_since(t0));
        cpu_ms.push((crate::cpu::process_s() - cpu0) * 1e3 / bags.max(1.0));
        if round == 0 {
            report.set("peak_rss_mb", crate::peak_rss_mb());
        }
        registry_numbers.push(fleet::registry_numbers(&summary));

        let mut probe = probe.borrow_mut();
        let ingested = probe.ingested.take().unwrap_or_default();
        // Due when the poll handed over the bag completing the point's
        // test window.
        latency_ms.extend(probe.points.iter().filter_map(|(stream, p, at)| {
            let seen = ingested.get(&(stream.clone(), (p.t + TAU_PRIME - 1) as i64))?;
            Some(at.saturating_duration_since(*seen).as_secs_f64() * 1e3)
        }));
        report.attempted += (fleet.streams * (last_t + 1 - first_t)) as u64;
        fleet::check_exactly_once(report, fleet, &probe.points, (first_t, last_t));
        fleet::check_stream_failures(report, &probe, &summary);
        fleet::check_score_log(report, &paths.log, &probe.points);
        if round == 0 {
            fleet::check_against_standalone(report, args, fleet, &changes, BAGS - 1, &probe.points);
            fleet::detection_counts(report, fleet, &probe.points, &changes);
        }
        total.polls += probe.polls;
        total.poll_s += probe.poll_s;
        total.bags_in += probe.bags_in;
        total.empty_polls += probe.empty_polls;
        total.deliver_csv_s += probe.deliver_csv_s;
        total.deliver_log_s += probe.deliver_log_s;
        total.flush_s += probe.flush_s;
        total.events += probe.events;
        total.checkpoints.append(&mut probe.checkpoints);
        total.checkpoint_ms.append(&mut probe.checkpoint_ms);
        round += 1;
    }
    report.set("setup_s", quantile(&setups, 0.5));
    // The median over rounds: one round slowed by a burst of load from
    // another tenant of the host does not decide the run.
    report.set("bags_per_s", median(&rates));
    report.set("cpu_ms_per_bag", median(&cpu_ms));
    report.latency(
        &latency_ms,
        "one score point, from the poll that completed its test window to CSV delivery",
    );
    report.env_num("streams", fleet.streams);
    report.env_num("rounds", round);
    report.env_num("bags_per_round", total.bags_in / round as u64);
    report.env_num("engine_workers", workers);
    report.env_num("setup_samples", setups.len());
    if args.trace {
        let tracer = tracer.borrow();
        fleet::session_metrics(report, &total, &tracer, &drive, &registry_numbers);
        crate::write_spans(args, &tracer, "session-spans.csv");
    }
    Ok(())
}
