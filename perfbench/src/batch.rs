//! `analyze_boot` and `analyze_emd`: single-threaded
//! `Detector::analyze` over seeded bag sequences, one call per sequence.

use crate::compute::{layer_metrics, same_point, Recomposer};
use crate::data::{self, BagShape};
use crate::report::Report;
use crate::trace::{chunked_rate, quantile, secs_since, Tracer};
use crate::Args;
use bagcpd::{
    derive_seed, Bag, BootstrapConfig, Detection, Detector, DetectorConfig, SignatureMethod,
};
use std::time::Instant;

/// One batch workload's shape.
pub struct Batch {
    pub shape: BagShape,
    pub signature: SignatureMethod,
    pub replicates: usize,
    /// Bags per sequence (one `analyze` call each).
    pub len: usize,
    /// Planted change indices of every sequence.
    pub changes: &'static [usize],
}

/// Bootstrap-bound: 1-D bags, histogram signatures, R = 1000.
pub const ANALYZE_BOOT: Batch = Batch {
    shape: BagShape {
        dim: 1,
        m: 100,
        shift: 1.0,
    },
    signature: SignatureMethod::Histogram { width: 0.5 },
    replicates: 1000,
    len: 40,
    changes: &[15, 28],
};

/// EMD-bound: 4-D bags, k-means k = 32, R = 50.
pub const ANALYZE_EMD: Batch = Batch {
    shape: BagShape {
        dim: 4,
        m: 200,
        shift: 1.0,
    },
    signature: SignatureMethod::KMeans { k: 32 },
    replicates: 50,
    len: 16,
    // The Eq. 20 rule needs the interval one test window back, so the
    // first point that can alert is t = 2τ = 10 (inspection points run
    // 5..=11 here).
    changes: &[11],
};

/// Sequences every run analyzes at least, whatever `--seconds` says:
/// the detection counts are taken over exactly these, so they repeat
/// run to run.
const MIN_SEQS: usize = 12;

/// `bags_per_s` is the median rate over chunks of calls this long (s).
const CHUNK_S: f64 = 1.0;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The timed pass checks every this many sequences against the
/// layer-by-layer recomposition (the traced pass checks all of them).
const CHECK_EVERY: usize = 8;

impl Batch {
    fn config(&self) -> DetectorConfig {
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

    fn sequence(&self, seed: u64, idx: usize, len: usize) -> Vec<Bag> {
        (0..len)
            .map(|b| data::bag(seed, idx as u64, b, &self.shape, self.changes))
            .collect()
    }

    pub fn run(&self, args: &Args, report: &mut Report) {
        let cfg = self.config();
        let points_per_seq = (self.len + 1 - cfg.tau - cfg.tau_prime) as u64;

        // Set-up: build the detector and let its first-call set-up
        // finish on a minimal sequence.
        let warm = self.sequence(args.seed ^ 0x5e7u64, usize::MAX, cfg.tau + cfg.tau_prime);
        let mut setups = Vec::with_capacity(SETUPS);
        let mut detector = None;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let det = Detector::new(cfg.clone()).expect("valid workload config");
            let warmed = det.analyze(&warm, args.seed);
            setups.push(secs_since(t0));
            if let Err(e) = warmed {
                report.fail(1, format!("warm-up analyze: {e}"));
            }
            detector = Some(det);
        }
        let det = detector.expect("at least one setup");
        report.set("setup_s", quantile(&setups, 0.5));

        let mut tracer = Tracer::new(args.trace);
        let mut recomposer = Recomposer::default();
        let mut seq_s = Vec::new();
        let mut recompose_s = 0.0;
        let mut cpu_s = 0.0;
        let mut detect = data::DetectCounts::default();
        let t_run = Instant::now();
        let mut idx = 0usize;
        while idx < MIN_SEQS || secs_since(t_run) < args.seconds {
            let seq = self.sequence(args.seed, idx, self.len);
            let seed = derive_seed(args.seed, idx as u64);
            let (t0, c0) = (Instant::now(), crate::cpu::thread_s());
            let out = det.analyze(&seq, seed);
            seq_s.push(secs_since(t0));
            cpu_s += crate::cpu::thread_s() - c0;
            report.attempted += points_per_seq;
            let detection = match out {
                Ok(d) => d,
                Err(e) => {
                    report.fail(points_per_seq, format!("sequence {idx}: analyze: {e}"));
                    idx += 1;
                    continue;
                }
            };
            if idx < MIN_SEQS {
                detect.add(data::DetectCounts::score(
                    &detection.alerts(),
                    self.changes,
                    cfg.tau_prime,
                ));
            }
            if args.trace || idx.is_multiple_of(CHECK_EVERY) {
                let t0 = Instant::now();
                let layered = recomposer.run(&det, &seq, seed, &mut tracer, idx as u64);
                recompose_s += secs_since(t0);
                check(report, idx, &detection, layered, points_per_seq);
            }
            idx += 1;
        }
        let analyze_s: f64 = seq_s.iter().sum();
        let seq_ms: Vec<f64> = seq_s.iter().map(|s| s * 1e3).collect();
        let per_call: Vec<(f64, f64)> = seq_s.iter().map(|&s| (self.len as f64, s)).collect();
        report.set("bags_per_s", chunked_rate(&per_call, CHUNK_S));
        report.set(
            "cpu_ms_per_bag",
            cpu_s * 1e3 / (seq_s.len() * self.len) as f64,
        );
        report.latency(&seq_ms, "one Detector::analyze call");
        report.set("detect.planted", detect.planted as f64);
        report.set("detect.recall", detect.detected as f64);
        report.set("detect.false_alerts", detect.false_alerts as f64);
        report.env_num("sequences", seq_s.len());
        report.env_num("bags_per_sequence", self.len);
        report.env_num("setup_samples", setups.len());
        if args.trace {
            let totals = tracer.totals();
            layer_metrics(
                report,
                &tracer,
                &totals,
                recomposer.pivots(),
                self.replicates,
            );
            // Same sequences, same results: the recomposition costs the
            // analyze time plus the spans.
            report.set("trace.overhead_frac", recompose_s / analyze_s - 1.0);
            crate::write_spans(args, &tracer, "spans.csv");
        }
    }
}

/// The layer-by-layer result must equal `Detector::analyze` bit for bit.
fn check(
    report: &mut Report,
    idx: usize,
    detection: &Detection,
    layered: Result<Vec<bagcpd::ScorePoint>, String>,
    expected: u64,
) {
    match layered {
        Err(e) => report.fail(expected, format!("sequence {idx}: recomposition: {e}")),
        Ok(points) => {
            let diverged = if points.len() != detection.points.len() {
                expected
            } else {
                points
                    .iter()
                    .zip(&detection.points)
                    .filter(|(a, b)| !same_point(a, b))
                    .count() as u64
            };
            if diverged > 0 {
                report.fail(
                    diverged,
                    format!(
                        "sequence {idx}: {diverged} point(s) differ from the layer recomposition"
                    ),
                );
            }
            if detection.points.len() as u64 != expected {
                report.fail(
                    expected.abs_diff(detection.points.len() as u64),
                    format!(
                        "sequence {idx}: {} points, expected {expected}",
                        detection.points.len()
                    ),
                );
            }
        }
    }
}
