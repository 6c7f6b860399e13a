//! The detector's compute layers called one by one, with a span around
//! each call: quantize (`signature_at_with`, §3.1), banded EMD
//! (`EmdSolver::distance_with`, §3.2), the symmetrized-KL score
//! (`WindowScorer::score`, §3.3) and the Dirichlet bootstrap
//! (`bootstrap_ci_with`, §4.2), then the Eq. 18/20 alert rule.
//!
//! The result must equal `Detector::analyze` bit for bit; the workloads
//! check that, so the per-layer times describe the same computation the
//! end-to-end numbers time.

use crate::report::Report;
use crate::trace::{LayerTotals, Tracer};
use bagcpd::window::window_weights_into;
use bagcpd::{
    bootstrap_ci_with, bootstrap_seed, signature_at_with, Bag, BootstrapScratch, Detector,
    ScorePoint, SignatureScratch, SolverScratch, WindowScorer,
};
use infoest::DistanceMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Span names of the compute layers.
pub const QUANTIZE: &str = "quantize";
pub const EMD: &str = "emd";
pub const INFOEST: &str = "infoest";
pub const BOOTSTRAP: &str = "bootstrap";
/// One whole sequence recomposed; its self time is `detector.other_s`.
pub const DETECTOR: &str = "detector";

/// Buffers reused across recomposed sequences, as the engine's workers
/// reuse theirs.
#[derive(Default)]
pub struct Recomposer {
    sig: SignatureScratch,
    solver: SolverScratch,
    boot: BootstrapScratch,
    ref_w: Vec<f64>,
    test_w: Vec<f64>,
}

impl Recomposer {
    /// Stepping-stone pivots over every solve so far.
    pub fn pivots(&self) -> u64 {
        self.solver.stats().pivots
    }

    /// Score `bags` layer by layer, as `det.analyze(bags, seed)` does.
    pub fn run(
        &mut self,
        det: &Detector,
        bags: &[Bag],
        seed: u64,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<Vec<ScorePoint>, String> {
        let cfg = det.config();
        let layout = det.layout();
        let n = bags.len();
        let width = cfg.tau + cfg.tau_prime;
        let Some(last) = layout.last_t(n) else {
            return Err(format!("sequence of {n} bags is shorter than {width}"));
        };
        let whole = tr.begin(DETECTOR, id);
        let mut sigs = Vec::with_capacity(n);
        for (i, bag) in bags.iter().enumerate() {
            let span = tr.begin(QUANTIZE, id);
            sigs.push(signature_at_with(
                bag,
                &cfg.signature,
                seed,
                i as u64,
                &mut self.sig,
            ));
            tr.end(span);
        }
        // Only pairs inside one window are ever read (the banded sweep).
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..(i + width).min(n) {
                let span = tr.begin(EMD, id);
                let d = cfg
                    .solver
                    .distance_with(&sigs[i], &sigs[j], &cfg.metric, &mut self.solver);
                tr.end(span);
                let d = d.map_err(|e| format!("emd({i},{j}): {e}"))?;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        let band = DistanceMatrix::from_vec(n, n, data);
        let first = layout.first_t();
        let mut points: Vec<ScorePoint> = Vec::with_capacity(last + 1 - first);
        for t in first..=last {
            let lo = t - cfg.tau;
            let hi = t + cfg.tau_prime;
            let scorer = WindowScorer::from_distances(
                band.block(lo..hi, lo..hi),
                cfg.tau,
                cfg.tau_prime,
                cfg.estimator,
            );
            window_weights_into(cfg.weighting, t, layout.ref_range(t), true, &mut self.ref_w);
            window_weights_into(
                cfg.weighting,
                t,
                layout.test_range(t),
                false,
                &mut self.test_w,
            );
            let span = tr.begin(INFOEST, id);
            let score = scorer.score(cfg.score, &self.ref_w, &self.test_w);
            tr.end(span);
            let span = tr.begin(BOOTSTRAP, id);
            let mut rng = StdRng::seed_from_u64(bootstrap_seed(seed, t));
            let ci = bootstrap_ci_with(
                &scorer,
                cfg.score,
                &self.ref_w,
                &self.test_w,
                &cfg.bootstrap,
                &mut rng,
                &mut self.boot,
            );
            tr.end(span);
            // Eq. 20 against the interval one test window back; Eq. 18
            // alerts when it is positive.
            let xi = t
                .checked_sub(cfg.tau_prime)
                .filter(|prev| *prev >= first)
                .map(|prev| ci.lo - points[prev - first].ci.up);
            points.push(ScorePoint {
                t,
                score,
                ci,
                xi,
                alert: xi.is_some_and(|x| x > 0.0),
            });
        }
        tr.end(whole);
        Ok(points)
    }
}

/// Bit-for-bit equality of two score points.
pub fn same_point(a: &ScorePoint, b: &ScorePoint) -> bool {
    a.t == b.t
        && a.score.to_bits() == b.score.to_bits()
        && a.ci.lo.to_bits() == b.ci.lo.to_bits()
        && a.ci.up.to_bits() == b.ci.up.to_bits()
        && a.xi.map(f64::to_bits) == b.xi.map(f64::to_bits)
        && a.alert == b.alert
}

/// Fill the compute-layer metrics from the spans of a recomposition
/// pass (`replicates` bootstrap replicates per inspection point).
pub fn layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    totals: &BTreeMap<&'static str, LayerTotals>,
    pivots: u64,
    replicates: usize,
) {
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (q, e, i, b, d) = (
        get(QUANTIZE),
        get(EMD),
        get(INFOEST),
        get(BOOTSTRAP),
        get(DETECTOR),
    );
    let wall = d.total_s;
    let share = |s: f64| if wall > 0.0 { s / wall } else { 0.0 };
    report.set("quantize.calls", q.calls as f64);
    report.set("quantize.self_s", q.self_s);
    report.set("quantize.share", share(q.self_s));
    report.set("emd.solves", e.calls as f64);
    report.set("emd.self_s", e.self_s);
    report.set("emd.share", share(e.self_s));
    report.set("emd.pivots", pivots as f64);
    let solve_us: Vec<f64> = tr.durations_s(EMD).iter().map(|s| s * 1e6).collect();
    report.set("emd.us_per_solve_p50", crate::trace::median(&solve_us));
    report.set("infoest.calls", i.calls as f64);
    report.set("infoest.self_s", i.self_s);
    report.set("bootstrap.calls", b.calls as f64);
    report.set("bootstrap.replicates", (b.calls * replicates as u64) as f64);
    report.set("bootstrap.self_s", b.self_s);
    report.set("bootstrap.share", share(b.self_s));
    report.set("detector.other_s", d.self_s);
    report.set("compute.wall_s", wall);
}
