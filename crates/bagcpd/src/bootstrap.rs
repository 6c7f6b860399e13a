//! Bayesian-bootstrap confidence intervals for change-point scores
//! (§4.2, Eqs. 19, 21–22).
//!
//! At each inspection point the window weights are resampled `T` times
//! from the Dirichlet posteriors
//! `{ψ_{t-τ}, …} ~ Dir(τ ψ_{t-τ}, …)` and `{ψ_t, …} ~ Dir(τ' ψ_t, …)`
//! (Appendix B; for equal weights these are the flat `Dir(1, …, 1)` of
//! Appendix A). The score is recomputed for each replicate, and the
//! `α/2` and `1-α/2` empirical quantiles form the confidence interval.
//!
//! The EMD matrix is fixed across replicates, so its floored logs are
//! taken once per inspection point into a log-distance block, and every
//! replicate reads that block rather than the raw EMD matrix: no `ln`,
//! no allocation once the scratch is warm. One batch kernel scores any
//! run of replicate seeds; `threads > 1` splits the seeds across scoped
//! threads that each run it.

use crate::score::{ScoreKind, WindowScorer};
use infoest::LogBlock;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use stats::descriptive::quantile_sorted;
use stats::Dirichlet;

/// Configuration of the Bayesian bootstrap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates `T`.
    pub replicates: usize,
    /// Significance level `α` (the CI covers `1 - α`).
    pub alpha: f64,
    /// Number of worker threads for replicate evaluation. `1` runs
    /// serially; values above 1 use `std::thread` scoped threads. Results
    /// are identical regardless (per-replicate RNG streams are derived
    /// from the master seed, not from thread scheduling).
    pub threads: usize,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            replicates: 200,
            alpha: 0.05,
            threads: 1,
        }
    }
}

impl BootstrapConfig {
    /// Check parameters.
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicates < 2 {
            return Err("bootstrap replicates must be >= 2".into());
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err("alpha must be in (0, 1)".into());
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        Ok(())
    }
}

/// A change-point score with its bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound `θ_lo` (the `α/2` quantile).
    pub lo: f64,
    /// Upper bound `θ_up` (the `1 - α/2` quantile).
    pub up: f64,
}

/// Reusable buffers for bootstrap replicate evaluation: per-replicate
/// seeds, the window's log-distance block, resampled Dirichlet weights,
/// and the replicate score accumulator.
///
/// One scratch reused across inspection points — and across *streams*,
/// as the worker tick in `crates/stream` does — makes the bootstrap hot
/// path allocation-free after warm-up. Results are bit-identical to the
/// allocating [`bootstrap_ci`] path: the scratch changes where replicate
/// values are stored, never how they are drawn.
#[derive(Debug, Clone, Default)]
pub struct BootstrapScratch {
    /// Per-replicate RNG seeds.
    seeds: Vec<u64>,
    /// Replicate scores (sorted in place for the quantiles).
    scores: Vec<f64>,
    /// Dirichlet concentrations of the reference-window posterior.
    alpha_ref: Vec<f64>,
    /// Dirichlet concentrations of the test-window posterior.
    alpha_test: Vec<f64>,
    /// Floored log distances of the window, taken once per call.
    logs: LogBlock,
    /// Replicate buffers, one per worker thread (the serial path uses
    /// the first).
    workers: Vec<ReplicateScratch>,
}

/// The buffers one run of [`Replicates::score_into`] works in.
#[derive(Debug, Clone, Default)]
struct ReplicateScratch {
    /// Per-replicate RNG streams for the batched draws.
    rngs: Vec<StdRng>,
    /// Resampled reference-window weights, one row per replicate.
    weights_ref: Vec<f64>,
    /// Resampled test-window weights, one row per replicate.
    weights_test: Vec<f64>,
    /// One replicate's normalized reference weights.
    psi_ref: Vec<f64>,
    /// One replicate's normalized test weights.
    psi_test: Vec<f64>,
}

impl BootstrapScratch {
    /// Empty scratch; buffers grow to the bootstrap's shape on first use.
    pub fn new() -> Self {
        BootstrapScratch::default()
    }
}

/// Compute the bootstrap CI of the score at one inspection point.
///
/// `ref_weights` / `test_weights` are the nominal window weights ψ; the
/// Dirichlet posteriors of Appendix B are parameterized from them
/// (`Dir(n·ψ)`), which reduces to the flat Dirichlet for equal weights.
///
/// The base RNG only seeds the per-replicate streams, so results are
/// reproducible and independent of `cfg.threads`.
pub fn bootstrap_ci(
    scorer: &WindowScorer,
    kind: ScoreKind,
    ref_weights: &[f64],
    test_weights: &[f64],
    cfg: &BootstrapConfig,
    rng: &mut impl Rng,
) -> ConfidenceInterval {
    bootstrap_ci_with(
        scorer,
        kind,
        ref_weights,
        test_weights,
        cfg,
        rng,
        &mut BootstrapScratch::new(),
    )
}

/// As [`bootstrap_ci`], but drawing every buffer from `scratch` instead
/// of allocating — the form the per-tick batched evaluation in
/// `crates/stream` uses, with one scratch shared across all streams of a
/// worker. Bit-identical to [`bootstrap_ci`].
pub fn bootstrap_ci_with(
    scorer: &WindowScorer,
    kind: ScoreKind,
    ref_weights: &[f64],
    test_weights: &[f64],
    cfg: &BootstrapConfig,
    rng: &mut impl Rng,
    scratch: &mut BootstrapScratch,
) -> ConfidenceInterval {
    cfg.validate().expect("invalid bootstrap config");
    // The Appendix-B posteriors are fully described by their
    // concentration vectors; keep them in scratch instead of building
    // `Dirichlet` values (this function runs once per inspection point
    // on the streaming hot path and must not allocate once warm).
    Dirichlet::alpha_from_weights(ref_weights, &mut scratch.alpha_ref);
    Dirichlet::alpha_from_weights(test_weights, &mut scratch.alpha_test);

    // Derive one seed per replicate up front (thread-count independent).
    scratch.seeds.clear();
    scratch
        .seeds
        .extend((0..cfg.replicates).map(|_| rng.gen::<u64>()));

    // Only the weights change between replicates: take the logs once.
    scorer.log_block_into(&mut scratch.logs);
    let batch = Replicates {
        scorer,
        kind,
        logs: &scratch.logs,
        alpha_ref: &scratch.alpha_ref,
        alpha_test: &scratch.alpha_test,
    };
    let chunk = cfg.replicates.div_ceil(cfg.threads);
    let workers = cfg.replicates.div_ceil(chunk);
    if scratch.workers.len() < workers {
        scratch.workers.resize_with(workers, Default::default);
    }
    scratch.scores.clear();
    scratch.scores.resize(cfg.replicates, 0.0);
    if workers == 1 {
        batch.score_into(&scratch.seeds, &mut scratch.workers[0], &mut scratch.scores);
    } else {
        // Each thread scores one contiguous run of seeds into its own
        // run of `scores`, so the order matches the serial path.
        std::thread::scope(|s| {
            let runs = scratch
                .seeds
                .chunks(chunk)
                .zip(scratch.scores.chunks_mut(chunk))
                .zip(&mut scratch.workers);
            for ((seeds, out), bufs) in runs {
                let batch = &batch;
                s.spawn(move || batch.score_into(seeds, bufs, out));
            }
        });
    }

    // Unstable sort: no merge buffer, and equal keys are identical f64
    // bit patterns, so the sorted sequence (and thus the quantiles) is
    // exactly what the stable sort produced.
    scratch
        .scores
        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
    ConfidenceInterval {
        lo: quantile_sorted(&scratch.scores, cfg.alpha / 2.0),
        up: quantile_sorted(&scratch.scores, 1.0 - cfg.alpha / 2.0),
    }
}

/// What every replicate of one inspection point shares: the scorer, its
/// log-distance block, and the two Dirichlet posteriors.
struct Replicates<'a> {
    scorer: &'a WindowScorer,
    kind: ScoreKind,
    logs: &'a LogBlock,
    alpha_ref: &'a [f64],
    alpha_test: &'a [f64],
}

impl Replicates<'_> {
    /// The batch kernel: score the replicate of each seed into the
    /// matching slot of `out`.
    ///
    /// All weight rows are drawn first, in two component-major sweeps
    /// (one per window) over per-replicate RNG streams. Each replicate's
    /// RNG sees the same stream as a per-replicate draw of the reference
    /// weights then the test weights, so a replicate's score depends
    /// only on its seed, never on which run of seeds it was batched in.
    fn score_into(&self, seeds: &[u64], bufs: &mut ReplicateScratch, out: &mut [f64]) {
        debug_assert_eq!(seeds.len(), out.len());
        let nr = self.alpha_ref.len();
        let nt = self.alpha_test.len();
        bufs.rngs.clear();
        bufs.rngs
            .extend(seeds.iter().map(|&seed| StdRng::seed_from_u64(seed)));
        bufs.weights_ref.clear();
        bufs.weights_ref.resize(seeds.len() * nr, 0.0);
        bufs.weights_test.clear();
        bufs.weights_test.resize(seeds.len() * nt, 0.0);
        Dirichlet::sample_alpha_batch_into(self.alpha_ref, &mut bufs.rngs, &mut bufs.weights_ref);
        Dirichlet::sample_alpha_batch_into(self.alpha_test, &mut bufs.rngs, &mut bufs.weights_test);
        let rows = bufs
            .weights_ref
            .chunks(nr)
            .zip(bufs.weights_test.chunks(nt));
        for ((wr, wt), slot) in rows.zip(out) {
            *slot = self.scorer.score_logs_with(
                self.kind,
                self.logs,
                wr,
                wt,
                &mut bufs.psi_ref,
                &mut bufs.psi_test,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature_builder::GroundMetric;
    use crate::window::equal_weights;
    use emd::Signature;
    use infoest::EstimatorConfig;
    use rand::rngs::StdRng;

    fn scorer(positions: &[f64], tau: usize, tau_prime: usize) -> WindowScorer {
        let sigs: Vec<Signature> = positions
            .iter()
            .map(|&p| Signature::new(vec![vec![p], vec![p + 0.3]], vec![1.0, 1.0]).unwrap())
            .collect();
        WindowScorer::new(
            &sigs,
            tau,
            tau_prime,
            &GroundMetric::Euclidean,
            EstimatorConfig::default(),
        )
        .unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn ci_is_ordered_and_finite() {
        let s = scorer(&[0.0, 0.2, 0.4, 5.0, 5.2, 5.4], 3, 3);
        let w = equal_weights(3);
        let ci = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig::default(),
            &mut rng(1),
        );
        assert!(ci.lo.is_finite() && ci.up.is_finite());
        assert!(ci.lo <= ci.up);
    }

    #[test]
    fn ci_brackets_point_score() {
        // The nominal-weight score should normally lie inside a 95% CI.
        let s = scorer(&[0.0, 0.2, 0.4, 3.0, 3.2, 3.4], 3, 3);
        let w = equal_weights(3);
        let point = s.score_kl(&w, &w);
        let ci = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                replicates: 500,
                ..Default::default()
            },
            &mut rng(2),
        );
        assert!(
            ci.lo <= point && point <= ci.up,
            "point {point} outside CI [{}, {}]",
            ci.lo,
            ci.up
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = scorer(&[0.0, 0.1, 0.2, 1.0, 1.1, 1.2], 3, 3);
        let w = equal_weights(3);
        let cfg = BootstrapConfig::default();
        let a = bootstrap_ci(&s, ScoreKind::SymmetrizedKl, &w, &w, &cfg, &mut rng(7));
        let b = bootstrap_ci(&s, ScoreKind::SymmetrizedKl, &w, &w, &cfg, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial() {
        let s = scorer(&[0.0, 0.1, 0.2, 1.0, 1.1, 1.2], 3, 3);
        let w = equal_weights(3);
        let serial = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                threads: 1,
                ..Default::default()
            },
            &mut rng(11),
        );
        let parallel = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                threads: 4,
                ..Default::default()
            },
            &mut rng(11),
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn reused_scratch_is_bit_identical_across_shapes() {
        // One scratch driven across inspection points of different
        // window shapes (as a stream worker reuses it across streams)
        // must reproduce the allocating path exactly.
        let mut scratch = BootstrapScratch::new();
        let cfg = BootstrapConfig::default();
        for (tau, tau_prime, seed) in [(3, 3, 7u64), (2, 4, 8), (4, 2, 9), (3, 3, 10)] {
            let positions: Vec<f64> = (0..tau + tau_prime).map(|i| i as f64 * 0.4).collect();
            let s = scorer(&positions, tau, tau_prime);
            let (wr, wt) = (equal_weights(tau), equal_weights(tau_prime));
            let fresh = bootstrap_ci(&s, ScoreKind::SymmetrizedKl, &wr, &wt, &cfg, &mut rng(seed));
            let reused = bootstrap_ci_with(
                &s,
                ScoreKind::SymmetrizedKl,
                &wr,
                &wt,
                &cfg,
                &mut rng(seed),
                &mut scratch,
            );
            assert_eq!(fresh, reused, "tau {tau} tau' {tau_prime}");
        }
    }

    #[test]
    fn batched_replicates_match_per_replicate_draws_bitwise() {
        // The batch kernel (batched draws, cached logs, hoisted weight
        // normalization) must reproduce, bit for bit, one replicate at a
        // time: draw its weights from its own RNG, then score them with
        // the distance form. Split runs of seeds (the threaded path)
        // must give the same bits too.
        for kind in [ScoreKind::SymmetrizedKl, ScoreKind::LikelihoodRatio] {
            let s = scorer(&[0.0, 0.3, 0.6, 2.0, 2.3, 2.6], 3, 3);
            let (wr, wt) = (equal_weights(3), vec![0.5, 0.3, 0.2]);
            let mut alpha_ref = Vec::new();
            let mut alpha_test = Vec::new();
            Dirichlet::alpha_from_weights(&wr, &mut alpha_ref);
            Dirichlet::alpha_from_weights(&wt, &mut alpha_test);
            let seeds: Vec<u64> = (0..64).map(|i| 1000 + i * 17).collect();

            let per_replicate: Vec<f64> = seeds
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut r = vec![0.0; 3];
                    let mut t = vec![0.0; 3];
                    Dirichlet::sample_alpha_into(&alpha_ref, &mut rng, &mut r);
                    Dirichlet::sample_alpha_into(&alpha_test, &mut rng, &mut t);
                    s.score(kind, &r, &t)
                })
                .collect();

            let mut logs = LogBlock::new();
            s.log_block_into(&mut logs);
            let batch = Replicates {
                scorer: &s,
                kind,
                logs: &logs,
                alpha_ref: &alpha_ref,
                alpha_test: &alpha_test,
            };
            let mut whole = vec![0.0; seeds.len()];
            batch.score_into(&seeds, &mut ReplicateScratch::default(), &mut whole);
            let mut split = vec![0.0; seeds.len()];
            let mut bufs = ReplicateScratch::default();
            for (run, out) in seeds.chunks(23).zip(split.chunks_mut(23)) {
                batch.score_into(run, &mut bufs, out);
            }
            for (i, a) in per_replicate.iter().enumerate() {
                assert_eq!(a.to_bits(), whole[i].to_bits(), "{kind:?} replicate {i}");
                assert_eq!(a.to_bits(), split[i].to_bits(), "{kind:?} replicate {i}");
            }
        }
    }

    #[test]
    fn wider_alpha_gives_narrower_interval() {
        let s = scorer(&[0.0, 0.5, 1.0, 2.0, 2.5, 3.0], 3, 3);
        let w = equal_weights(3);
        let narrow = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                alpha: 0.5,
                replicates: 400,
                ..Default::default()
            },
            &mut rng(3),
        );
        let wide = bootstrap_ci(
            &s,
            ScoreKind::SymmetrizedKl,
            &w,
            &w,
            &BootstrapConfig {
                alpha: 0.05,
                replicates: 400,
                ..Default::default()
            },
            &mut rng(3),
        );
        assert!(wide.up - wide.lo >= narrow.up - narrow.lo);
    }

    #[test]
    fn lr_score_bootstraps_too() {
        let s = scorer(&[0.0, 0.1, 0.2, 4.0, 4.1, 4.2], 3, 3);
        let w = equal_weights(3);
        let ci = bootstrap_ci(
            &s,
            ScoreKind::LikelihoodRatio,
            &w,
            &w,
            &BootstrapConfig::default(),
            &mut rng(5),
        );
        assert!(ci.lo <= ci.up);
    }

    #[test]
    fn config_validation() {
        assert!(BootstrapConfig {
            replicates: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BootstrapConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BootstrapConfig {
            threads: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BootstrapConfig::default().validate().is_ok());
    }
}
