//! Change-point scores (§3.3, Eqs. 16–17).
//!
//! Both scores are functions of (a) the pairwise EMDs among the window's
//! signatures and (b) the window weights. The Bayesian bootstrap of §4.2
//! resamples only the weights, so [`WindowScorer`] caches the distance
//! matrix once per inspection point. The bootstrap takes its floored
//! logs once more (`WindowScorer::log_block_into`), and every replicate
//! is scored from that log-distance block, not from the raw EMD matrix
//! — bit-identical to [`WindowScorer::score`].

use crate::error::DetectError;
use crate::signature_builder::GroundMetric;
use emd::{
    centroid_lower_bound_with, emd_with, feasible_upper_bound, projected_lower_bound_with,
    sinkhorn_emd_with, Bracket, LadderScratch, Signature, SinkhornConfig, SinkhornScratch,
    TransportScratch,
};
use infoest::{
    auto_entropy_block, auto_entropy_logs, cross_entropy_block, cross_entropy_logs,
    information_content, information_content_logs, DistanceMatrix, EstimatorConfig, LogBlock,
    Normalized,
};

/// Which optimal-transport solver computes the signature distances.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EmdSolver {
    /// Exact transportation simplex (Eqs. 7–12) — the paper's EMD and
    /// the default.
    #[default]
    Exact,
    /// Entropy-regularized Sinkhorn iteration — an `O(K^2)`-per-sweep
    /// approximation; distances are those of the *normalized*
    /// signatures. Useful for large signatures (see the ablation
    /// bench).
    Sinkhorn(SinkhornConfig),
    /// Bound-ladder solver: cheap lower/upper bounds (centroid ground
    /// distance, projected 1-D EMD, northwest-corner feasible flow)
    /// decide what they can before the exact simplex runs. See
    /// [`TieredConfig`] for the two modes.
    Tiered(TieredConfig),
}

/// Configuration of [`EmdSolver::Tiered`]'s bound ladder.
///
/// **Exact mode** (`epsilon: None`, the default): every *value* request
/// ([`EmdSolver::distance_with`]) is answered by the exact simplex —
/// bit-identical to [`EmdSolver::Exact`] — and the ladder prunes only
/// provably decidable work, i.e. candidates in
/// [`EmdSolver::nearest_with`] whose lower bound already exceeds the
/// current k-th neighbor distance.
///
/// **Bounded-error mode** (`epsilon: Some(eps)`): a value request may be
/// answered from the bound bracket alone once `ub - lb <= eps`, walking
/// the ladder centroid → projection → Sinkhorn estimate and falling
/// through to the exact simplex only when no tier decides. The returned
/// value is then within `eps` of the exact EMD (up to the Sinkhorn
/// marginal tolerance, ~1e-9 relative).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TieredConfig {
    /// `None` = exact mode; `Some(eps)` = bounded-error mode accepting
    /// any value bracketed within `eps` of exact. Must be finite and
    /// positive when set ([`crate::DetectorConfig::validate`] enforces
    /// this).
    pub epsilon: Option<f64>,
    /// Sinkhorn settings for the estimate tier of bounded-error mode
    /// (unused in exact mode).
    pub estimate: SinkhornConfig,
}

/// Reusable solver state covering either [`EmdSolver`] variant: the
/// transportation-simplex tableau for the exact path and the Sinkhorn
/// iteration buffers for the approximate one. A long-lived caller (the
/// batch detector's banded sweep, a stream worker's tick loop) keeps one
/// and threads it through every [`EmdSolver::distance_with`] call, so
/// pairwise distances are solved with no heap allocation in steady
/// state.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// Exact transportation-simplex buffers.
    transport: TransportScratch,
    /// Sinkhorn iteration buffers.
    sinkhorn: SinkhornScratch,
    /// Bound-ladder buffers (centroids, 1-D event list).
    ladder: LadderScratch,
    /// Which ladder tier decided each tiered request (cumulative).
    tiers: TierCounts,
}

/// Cumulative ladder decisions carried by a [`SolverScratch`].
#[derive(Debug, Clone, Copy, Default)]
struct TierCounts {
    centroid: u64,
    projection: u64,
    estimate: u64,
    exact: u64,
}

impl SolverScratch {
    /// Empty scratch; buffers grow to the signatures' shape on first use.
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Cumulative counters of the solver work this scratch has carried,
    /// across both variants. Counters only grow; telemetry consumers
    /// snapshot and difference to get per-interval rates.
    pub fn stats(&self) -> SolverStats {
        let t = self.transport.stats();
        let s = self.sinkhorn.stats();
        SolverStats {
            exact_solves: t.solves,
            pivots: t.pivots,
            sinkhorn_solves: s.solves,
            sinkhorn_sweeps: s.sweeps,
            tier_centroid: self.tiers.centroid,
            tier_projection: self.tiers.projection,
            tier_estimate: self.tiers.estimate,
            tier_exact: self.tiers.exact,
        }
    }
}

/// Cumulative counters of a [`SolverScratch`]'s lifetime work: exact
/// simplex solves and their pivots, Sinkhorn solves and their sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Exact transportation-simplex solves that reached optimality.
    pub exact_solves: u64,
    /// Stepping-stone pivots across all exact solves.
    pub pivots: u64,
    /// Sinkhorn solves completed.
    pub sinkhorn_solves: u64,
    /// Potential-update sweeps across all Sinkhorn solves.
    pub sinkhorn_sweeps: u64,
    /// Tiered requests decided by the centroid lower bound.
    pub tier_centroid: u64,
    /// Tiered requests decided by the projected 1-D lower bound.
    pub tier_projection: u64,
    /// Tiered requests decided by the Sinkhorn estimate tier.
    pub tier_estimate: u64,
    /// Tiered requests that fell through to the exact simplex.
    pub tier_exact: u64,
}

impl SolverStats {
    /// Fraction of tiered requests decided without an exact simplex
    /// solve; `0.0` when no tiered request has run.
    pub fn pruned_ratio(&self) -> f64 {
        let pruned = self.tier_centroid + self.tier_projection + self.tier_estimate;
        let total = pruned + self.tier_exact;
        if total == 0 {
            return 0.0;
        }
        pruned as f64 / total as f64
    }
}

impl EmdSolver {
    /// Distance between two signatures under this solver.
    ///
    /// Equivalent to [`EmdSolver::distance_with`] with a fresh
    /// [`SolverScratch`].
    ///
    /// # Errors
    /// Propagates the underlying solver's failures.
    pub fn distance(
        &self,
        a: &Signature,
        b: &Signature,
        metric: &GroundMetric,
    ) -> Result<f64, emd::EmdError> {
        self.distance_with(a, b, metric, &mut SolverScratch::new())
    }

    /// As [`EmdSolver::distance`], reusing a caller-kept scratch —
    /// allocation-free once warm, bit-identical results.
    ///
    /// # Errors
    /// As [`EmdSolver::distance`].
    pub fn distance_with(
        &self,
        a: &Signature,
        b: &Signature,
        metric: &GroundMetric,
        scratch: &mut SolverScratch,
    ) -> Result<f64, emd::EmdError> {
        match self {
            EmdSolver::Exact => emd_with(a, b, metric, &mut scratch.transport),
            EmdSolver::Sinkhorn(cfg) => sinkhorn_emd_with(a, b, metric, cfg, &mut scratch.sinkhorn),
            EmdSolver::Tiered(cfg) => match cfg.epsilon {
                // Exact mode: value requests bypass the ladder entirely
                // so results (scores, snapshots) stay bit-identical to
                // `EmdSolver::Exact`; pruning lives in `nearest_with`.
                None => {
                    scratch.tiers.exact += 1;
                    emd_with(a, b, metric, &mut scratch.transport)
                }
                Some(eps) => tiered_bounded(a, b, metric, eps, &cfg.estimate, scratch),
            },
        }
    }

    /// Indices and distances of the `k` nearest `candidates` to `query`
    /// under this solver, ascending by `(distance, index)`, appended to
    /// the cleared `out` (allocation-free once `out`'s capacity covers
    /// `k + 1`).
    ///
    /// For [`EmdSolver::Tiered`] the ladder's lower bounds prune
    /// candidates that provably cannot enter the result — a candidate is
    /// skipped only when its bound *strictly* exceeds the current k-th
    /// distance, and surviving candidates are solved exactly, so the
    /// returned set is identical to [`EmdSolver::Exact`]'s in either
    /// tiered mode. The [`EmdSolver::Sinkhorn`] variant ranks by its
    /// approximate distances, consistent with its
    /// [`EmdSolver::distance_with`].
    ///
    /// # Errors
    /// Propagates the underlying solver's failures.
    pub fn nearest_with(
        &self,
        query: &Signature,
        candidates: &[Signature],
        k: usize,
        metric: &GroundMetric,
        scratch: &mut SolverScratch,
        out: &mut Vec<(f64, usize)>,
    ) -> Result<(), emd::EmdError> {
        out.clear();
        if k == 0 {
            return Ok(());
        }
        let prune = matches!(self, EmdSolver::Tiered(_));
        for (idx, cand) in candidates.iter().enumerate() {
            if prune && out.len() == k {
                // Ties between equal distances break by index, and every
                // pruned candidate's index is ahead of nothing it could
                // displace — only a *strictly* larger lower bound is
                // decisive, which keeps the pruning lossless.
                let kth = out[k - 1].0;
                if let Some(lb) =
                    centroid_lower_bound_with(query, cand, metric, &mut scratch.ladder)
                {
                    if lb > kth {
                        scratch.tiers.centroid += 1;
                        continue;
                    }
                    if let Some(plb) = projected_lower_bound_with(query, cand, &mut scratch.ladder)
                    {
                        if plb > kth {
                            scratch.tiers.projection += 1;
                            continue;
                        }
                    }
                }
            }
            let d = match self {
                // Exact values regardless of mode: the pruned k-NN set
                // must match the exact solver's.
                EmdSolver::Tiered(_) => {
                    scratch.tiers.exact += 1;
                    emd_with(query, cand, metric, &mut scratch.transport)?
                }
                _ => self.distance_with(query, cand, metric, scratch)?,
            };
            let pos = out
                .iter()
                .position(|&(od, oi)| (d, idx) < (od, oi))
                .unwrap_or(out.len());
            if pos < k {
                out.insert(pos, (d, idx));
                out.truncate(k);
            }
        }
        Ok(())
    }
}

/// Smallest cost-matrix size (`|a| * |b|`, exclusive) at which the
/// bounded ladder's Sinkhorn estimate tier is allowed to run — see the
/// comment at its call site in [`tiered_bounded`].
const ESTIMATE_MIN_CELLS: usize = 64;

/// Bounded-error ladder walk (`epsilon = Some(eps)`): centroid bracket →
/// projection bracket → convergence-gated Sinkhorn upper bound → exact
/// simplex. Each accepting tier returns a value inside a proven
/// `[lb, ub]` bracket of width `<= eps`.
fn tiered_bounded(
    a: &Signature,
    b: &Signature,
    metric: &GroundMetric,
    eps: f64,
    estimate: &SinkhornConfig,
    scratch: &mut SolverScratch,
) -> Result<f64, emd::EmdError> {
    // Inputs the ladder cannot certify (dimension mismatch, zero mass)
    // go straight to the exact solver, which owns input validation and
    // error reporting — the bounded path must fail exactly like Exact.
    if a.dim() != b.dim() || a.total_weight() <= 0.0 || b.total_weight() <= 0.0 {
        scratch.tiers.exact += 1;
        return emd_with(a, b, metric, &mut scratch.transport);
    }
    let ub = feasible_upper_bound(a, b, metric);
    let centroid_lb = centroid_lower_bound_with(a, b, metric, &mut scratch.ladder);
    let mut bracket = Bracket {
        lb: centroid_lb.unwrap_or(0.0),
        ub,
    };
    if bracket.width() <= eps {
        scratch.tiers.centroid += 1;
        return Ok(bracket.midpoint());
    }
    if let Some(plb) = projected_lower_bound_with(a, b, &mut scratch.ladder) {
        bracket.lb = bracket.lb.max(plb);
        if bracket.width() <= eps {
            scratch.tiers.projection += 1;
            return Ok(bracket.midpoint());
        }
    }
    // Sinkhorn estimate tier: only meaningful for equal total masses
    // (the lower bounds returned Some) — Sinkhorn normalizes both sides,
    // so for unequal masses its value estimates a different quantity.
    // Its transport cost upper-bounds the exact EMD only when the final
    // plan is feasible up to the configured tolerance, hence the
    // convergence gate on the marginal violation. The size gate keeps
    // the tier out of the regime where it can only lose: below ~64 cost
    // cells a small exact simplex solve is cheaper than a converged
    // Sinkhorn run, and an *unconverged* run wastes `max_iters` sweeps
    // and falls through to the simplex anyway (measured in the
    // `emd_tiered` bench; the engine's compact histogram signatures sit
    // squarely in that regime).
    if centroid_lb.is_some() && a.len() * b.len() > ESTIMATE_MIN_CELLS {
        if let Ok(v) = sinkhorn_emd_with(a, b, metric, estimate, &mut scratch.sinkhorn) {
            if scratch.sinkhorn.last_marginal_violation() < estimate.tol {
                bracket.ub = bracket.ub.min(v).max(bracket.lb);
                if bracket.width() <= eps {
                    scratch.tiers.estimate += 1;
                    return Ok(bracket.clamp(v));
                }
            }
        }
    }
    scratch.tiers.exact += 1;
    emd_with(a, b, metric, &mut scratch.transport)
}

/// Which change-point score to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Log-likelihood-ratio score (Eq. 16): sensitive to small changes,
    /// jumpier.
    LikelihoodRatio,
    /// Symmetrized-KL score (Eq. 17): conservative and robust, less
    /// sensitive to minor changes. The paper's default in §5.
    #[default]
    SymmetrizedKl,
}

/// Cached scorer for one inspection point.
///
/// Window layout: signature indices `0..tau` are the reference set,
/// `tau..tau+tau_prime` the test set; the inspection signature `S_t` is
/// index `tau`.
#[derive(Debug, Clone)]
pub struct WindowScorer {
    dist: DistanceMatrix,
    tau: usize,
    tau_prime: usize,
    est: EstimatorConfig,
}

impl WindowScorer {
    /// Build the scorer by computing all pairwise EMDs among the window's
    /// signatures.
    ///
    /// # Errors
    /// Propagates EMD failures (zero-mass signatures etc.).
    pub fn new(
        signatures: &[Signature],
        tau: usize,
        tau_prime: usize,
        metric: &GroundMetric,
        est: EstimatorConfig,
    ) -> Result<Self, DetectError> {
        assert_eq!(
            signatures.len(),
            tau + tau_prime,
            "WindowScorer: expected tau + tau' signatures"
        );
        let w = signatures.len();
        let mut scratch = SolverScratch::new();
        let mut data = vec![0.0; w * w];
        for i in 0..w {
            for j in (i + 1)..w {
                let d = emd_with(
                    &signatures[i],
                    &signatures[j],
                    metric,
                    &mut scratch.transport,
                )?;
                data[i * w + j] = d;
                data[j * w + i] = d;
            }
        }
        Ok(WindowScorer {
            dist: DistanceMatrix::from_vec(w, w, data),
            tau,
            tau_prime,
            est,
        })
    }

    /// Build from a precomputed distance matrix over the window (used by
    /// the detector, which maintains one global matrix).
    ///
    /// # Panics
    /// Panics if the matrix is not `(tau+tau') x (tau+tau')`.
    pub fn from_distances(
        dist: DistanceMatrix,
        tau: usize,
        tau_prime: usize,
        est: EstimatorConfig,
    ) -> Self {
        assert_eq!(dist.rows(), tau + tau_prime, "from_distances: shape");
        assert_eq!(dist.cols(), tau + tau_prime, "from_distances: shape");
        WindowScorer {
            dist,
            tau,
            tau_prime,
            est,
        }
    }

    /// Reference window length.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Test window length.
    pub fn tau_prime(&self) -> usize {
        self.tau_prime
    }

    /// The cached distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Consume the scorer, returning the distance matrix — so a hot
    /// loop building one scorer per inspection point can recycle the
    /// matrix storage (`DistanceMatrix::into_vec`) instead of
    /// re-allocating it every time.
    pub fn into_distances(self) -> DistanceMatrix {
        self.dist
    }

    /// Evaluate the chosen score with the given window weights.
    ///
    /// `ref_weights` has length `tau`, `test_weights` length `tau_prime`;
    /// each is normalized internally.
    pub fn score(&self, kind: ScoreKind, ref_weights: &[f64], test_weights: &[f64]) -> f64 {
        match kind {
            ScoreKind::LikelihoodRatio => self.score_lr(ref_weights, test_weights),
            ScoreKind::SymmetrizedKl => self.score_kl(ref_weights, test_weights),
        }
    }

    /// Eq. (16): `score_LR(S_t) = I(S_t; S_ref) - I(S_t; S_test \ S_t)`.
    ///
    /// # Panics
    /// Panics if `tau_prime < 2` (the leave-`S_t`-out test set would be
    /// empty); the detector validates this up front.
    pub fn score_lr(&self, ref_weights: &[f64], test_weights: &[f64]) -> f64 {
        self.check_shape(ScoreKind::LikelihoodRatio, ref_weights, test_weights);
        let t_idx = self.tau; // S_t is the first test signature
        let trow = self.dist.row(t_idx);

        // I(S_t; S_ref): distances from each reference signature to S_t.
        let i_ref = information_content(&trow[..self.tau], ref_weights, &self.est);

        // I(S_t; S_test \ S_t): the remaining test signatures, with their
        // weights renormalized (information_content normalizes). Both
        // the distances and the weights are direct sub-slices — nothing
        // is copied on this per-replicate path.
        let i_test = information_content(
            &trow[self.tau + 1..self.tau + self.tau_prime],
            &test_weights[1..],
            &self.est,
        );

        i_ref - i_test
    }

    /// Eq. (17): symmetrized KL divergence between the two windows,
    /// `H(S_ref, S_test) - (H(S_ref) + H(S_test)) / 2`.
    pub fn score_kl(&self, ref_weights: &[f64], test_weights: &[f64]) -> f64 {
        self.check_shape(ScoreKind::SymmetrizedKl, ref_weights, test_weights);
        let w = self.tau + self.tau_prime;
        // Evaluate every term directly against the cached window matrix
        // (no block extraction): this method runs once per bootstrap
        // replicate, so it must not allocate.
        let h_cross = cross_entropy_block(
            &self.dist,
            0..self.tau,
            self.tau..w,
            ref_weights,
            test_weights,
            &self.est,
        );
        let h_ref = auto_entropy_block(&self.dist, 0..self.tau, ref_weights, &self.est);
        let h_test = auto_entropy_block(&self.dist, self.tau..w, test_weights, &self.est);
        h_cross - 0.5 * (h_ref + h_test)
    }

    /// Fill `out` with the floored logs of this window's distances: the
    /// block [`WindowScorer::score_logs_with`] reads. Allocation-free
    /// once `out` has held a window of this shape.
    pub(crate) fn log_block_into(&self, out: &mut LogBlock) {
        self.est.log_block_into(&self.dist, out);
    }

    /// [`WindowScorer::score`] of one bootstrap replicate, read from
    /// `logs` (this window's [`WindowScorer::log_block_into`]) with each
    /// weight vector normalized once into `psi_ref` / `psi_test`.
    /// Bit-identical to [`WindowScorer::score`], and allocation-free once
    /// the buffers are warm.
    ///
    /// # Panics
    /// As [`WindowScorer::score`], or if `logs` is not window-shaped.
    pub(crate) fn score_logs_with(
        &self,
        kind: ScoreKind,
        logs: &LogBlock,
        ref_weights: &[f64],
        test_weights: &[f64],
        psi_ref: &mut Vec<f64>,
        psi_test: &mut Vec<f64>,
    ) -> f64 {
        self.check_shape(kind, ref_weights, test_weights);
        let w = self.tau + self.tau_prime;
        assert!(
            logs.rows() == w && logs.cols() == w,
            "score_logs_with: log block shape"
        );
        let wr = Normalized::new_into(ref_weights, psi_ref);
        match kind {
            ScoreKind::LikelihoodRatio => {
                // Eq. (16) as in `score_lr`: row `tau` holds S_t's logs.
                let wt = Normalized::new_into(&test_weights[1..], psi_test);
                let i_ref = information_content_logs(logs, self.tau, 0..self.tau, wr);
                let i_test = information_content_logs(logs, self.tau, self.tau + 1..w, wt);
                i_ref - i_test
            }
            ScoreKind::SymmetrizedKl => {
                // Eq. (17) as in `score_kl`.
                let wt = Normalized::new_into(test_weights, psi_test);
                let h_cross = cross_entropy_logs(logs, 0..self.tau, self.tau..w, wr, wt);
                let h_ref = auto_entropy_logs(logs, 0..self.tau, wr);
                let h_test = auto_entropy_logs(logs, self.tau..w, wt);
                h_cross - 0.5 * (h_ref + h_test)
            }
        }
    }

    /// The weight-shape checks shared by every form of both scores.
    fn check_shape(&self, kind: ScoreKind, ref_weights: &[f64], test_weights: &[f64]) {
        let what = match kind {
            ScoreKind::LikelihoodRatio => {
                assert!(
                    self.tau_prime >= 2,
                    "score_lr requires tau' >= 2 (S_test \\ S_t must be non-empty)"
                );
                "score_lr"
            }
            ScoreKind::SymmetrizedKl => "score_kl",
        };
        assert_eq!(ref_weights.len(), self.tau, "{what}: ref weights length");
        assert_eq!(
            test_weights.len(),
            self.tau_prime,
            "{what}: test weights length"
        );
    }
}

/// Free-function form of Eq. (16) on a precomputed window distance
/// matrix.
pub fn score_lr(
    dist: &DistanceMatrix,
    tau: usize,
    tau_prime: usize,
    ref_weights: &[f64],
    test_weights: &[f64],
    est: &EstimatorConfig,
) -> f64 {
    WindowScorer::from_distances(dist.clone(), tau, tau_prime, *est)
        .score_lr(ref_weights, test_weights)
}

/// Free-function form of Eq. (17) on a precomputed window distance
/// matrix.
pub fn score_kl(
    dist: &DistanceMatrix,
    tau: usize,
    tau_prime: usize,
    ref_weights: &[f64],
    test_weights: &[f64],
    est: &EstimatorConfig,
) -> f64 {
    WindowScorer::from_distances(dist.clone(), tau, tau_prime, *est)
        .score_kl(ref_weights, test_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::equal_weights;

    /// Signatures at scalar positions with unit mass.
    fn sigs_at(positions: &[f64]) -> Vec<Signature> {
        positions
            .iter()
            .map(|&p| Signature::new(vec![vec![p]], vec![1.0]).unwrap())
            .collect()
    }

    fn scorer(positions: &[f64], tau: usize, tau_prime: usize) -> WindowScorer {
        WindowScorer::new(
            &sigs_at(positions),
            tau,
            tau_prime,
            &GroundMetric::Euclidean,
            EstimatorConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn kl_score_larger_for_separated_windows() {
        // Homogeneous: all signatures near zero.
        let homog = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.15, 0.05, 0.1], 4, 4);
        // Separated: test window far from reference window.
        let sep = scorer(&[0.0, 0.1, 0.2, 0.1, 10.0, 10.1, 10.2, 10.05], 4, 4);
        let w = equal_weights(4);
        let s_homog = homog.score_kl(&w, &w);
        let s_sep = sep.score_kl(&w, &w);
        assert!(
            s_sep > s_homog + 1.0,
            "separated {s_sep} vs homogeneous {s_homog}"
        );
    }

    #[test]
    fn lr_score_larger_for_separated_windows() {
        let homog = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.15, 0.05, 0.1], 4, 4);
        let sep = scorer(&[0.0, 0.1, 0.2, 0.1, 10.0, 10.1, 10.2, 10.05], 4, 4);
        let w = equal_weights(4);
        assert!(sep.score_lr(&w, &w) > homog.score_lr(&w, &w) + 1.0);
    }

    #[test]
    fn kl_score_near_zero_for_matching_windows() {
        // Both windows drawn from the same configuration (jittered so no
        // two signatures coincide exactly — exact duplicates are a
        // measure-zero case where the log floor dominates): cross-entropy
        // ~ auto-entropies, so the score is near zero.
        let s = scorer(&[0.0, 1.0, 2.0, 3.0, 0.04, 1.03, 2.02, 3.01], 4, 4);
        let w = equal_weights(4);
        let v = s.score_kl(&w, &w);
        assert!(v.abs() < 1.5, "score for matching windows: {v}");
    }

    #[test]
    fn kl_is_symmetric_in_window_exchange() {
        // Swapping ref and test windows leaves Eq. 17 unchanged (the
        // symmetrization). Use equal window sizes.
        let pos_a = [0.0, 0.5, 1.0, 5.0, 5.5, 6.0];
        let pos_b = [5.0, 5.5, 6.0, 0.0, 0.5, 1.0];
        let sa = scorer(&pos_a, 3, 3);
        let sb = scorer(&pos_b, 3, 3);
        let w = equal_weights(3);
        assert!((sa.score_kl(&w, &w) - sb.score_kl(&w, &w)).abs() < 1e-9);
    }

    #[test]
    fn scores_respond_to_weights() {
        // Shifting all test weight onto the far outlier raises the KL
        // score relative to weighting the matching signatures.
        let s = scorer(&[0.0, 0.1, 0.2, 0.1, 0.0, 0.1, 30.0], 4, 3);
        let wr = equal_weights(4);
        let balanced = s.score_kl(&wr, &equal_weights(3));
        let outlier_heavy = s.score_kl(&wr, &[0.05, 0.05, 0.9]);
        assert!(outlier_heavy > balanced);
    }

    #[test]
    fn free_functions_match_methods() {
        let s = scorer(&[0.0, 1.0, 2.0, 5.0, 6.0, 7.0], 3, 3);
        let w = equal_weights(3);
        let est = EstimatorConfig::default();
        assert_eq!(
            s.score_kl(&w, &w),
            score_kl(s.distances(), 3, 3, &w, &w, &est)
        );
        assert_eq!(
            s.score_lr(&w, &w),
            score_lr(s.distances(), 3, 3, &w, &w, &est)
        );
    }

    #[test]
    #[should_panic(expected = "tau' >= 2")]
    fn lr_with_tau_prime_one_panics() {
        let s = scorer(&[0.0, 1.0, 2.0, 5.0], 3, 1);
        s.score_lr(&equal_weights(3), &equal_weights(1));
    }

    /// Deterministic multi-point 2-D signatures in two clusters (around
    /// 0 and around 8), all with equal total mass so the ladder's lower
    /// bounds apply.
    fn rich_sigs() -> Vec<Signature> {
        (0..12)
            .map(|i| {
                let base = if i < 6 { 0.0 } else { 8.0 };
                let t = i as f64;
                Signature::new(
                    vec![
                        vec![base + 0.07 * t, base - 0.11 * t],
                        vec![base + 1.0, base + 0.13 * t],
                        vec![base - 0.5, base + 1.0 + 0.05 * t],
                    ],
                    vec![1.0, 0.5, 2.0],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn tiered_exact_mode_is_bit_identical_to_exact() {
        let sigs = rich_sigs();
        let tiered = EmdSolver::Tiered(TieredConfig::default());
        let mut st = SolverScratch::new();
        let mut se = SolverScratch::new();
        let mut pairs = 0u64;
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                let dt = tiered
                    .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut st)
                    .unwrap();
                let de = EmdSolver::Exact
                    .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut se)
                    .unwrap();
                assert_eq!(dt.to_bits(), de.to_bits(), "pair ({i}, {j})");
                pairs += 1;
            }
        }
        let stats = st.stats();
        assert_eq!(stats.tier_exact, pairs);
        assert_eq!(stats.exact_solves, pairs);
        assert_eq!(stats.pruned_ratio(), 0.0);
    }

    #[test]
    fn tiered_bounded_mode_stays_within_epsilon() {
        let sigs = rich_sigs();
        let mut exact_scratch = SolverScratch::new();
        for eps in [1e-3, 0.1, 2.0] {
            let solver = EmdSolver::Tiered(TieredConfig {
                epsilon: Some(eps),
                ..TieredConfig::default()
            });
            let mut scratch = SolverScratch::new();
            for metric in [
                GroundMetric::Euclidean,
                GroundMetric::Manhattan,
                GroundMetric::Chebyshev,
            ] {
                for i in 0..sigs.len() {
                    for j in (i + 1)..sigs.len() {
                        let v = solver
                            .distance_with(&sigs[i], &sigs[j], &metric, &mut scratch)
                            .unwrap();
                        let exact = EmdSolver::Exact
                            .distance_with(&sigs[i], &sigs[j], &metric, &mut exact_scratch)
                            .unwrap();
                        // Slack covers the Sinkhorn tier's marginal
                        // tolerance (~1e-9 relative).
                        assert!(
                            (v - exact).abs() <= eps + 1e-6,
                            "eps {eps} metric {metric:?} pair ({i}, {j}): {v} vs {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiered_bounded_mode_prunes_wide_epsilon() {
        // With a generous epsilon, in-cluster pairs (tiny true distance,
        // tight bracket) must be decided without the simplex.
        let sigs = rich_sigs();
        let solver = EmdSolver::Tiered(TieredConfig {
            epsilon: Some(1.0),
            ..TieredConfig::default()
        });
        let mut scratch = SolverScratch::new();
        for i in 0..6 {
            for j in (i + 1)..6 {
                solver
                    .distance_with(&sigs[i], &sigs[j], &GroundMetric::Euclidean, &mut scratch)
                    .unwrap();
            }
        }
        let stats = scratch.stats();
        assert!(
            stats.tier_centroid + stats.tier_projection + stats.tier_estimate > 0,
            "no tier ever decided: {stats:?}"
        );
        assert!(stats.pruned_ratio() > 0.0);
    }

    #[test]
    fn tiered_bounded_mode_estimate_tier_decides_above_the_size_gate() {
        // Two 9-point clusters (81 cost cells, above ESTIMATE_MIN_CELLS)
        // with different intra-cluster layouts: the centroid bound is
        // loose (it sees only the means), the greedy upper bound is
        // loose (index-order pairing), but a converged Sinkhorn plan
        // narrows the bracket below epsilon. The estimate config uses a
        // milder regularization than the default so the marginal
        // tolerance is reachable on these wide clusters (a feasible
        // plan's cost is a valid upper bound however regularized). Sweep
        // a few jitter patterns; at least one pair must be decided by
        // the estimate tier, and every value must stay within epsilon
        // of exact.
        let eps = 0.5;
        let solver = EmdSolver::Tiered(TieredConfig {
            epsilon: Some(eps),
            estimate: SinkhornConfig {
                epsilon: 0.3,
                max_iters: 5000,
                tol: 1e-8,
            },
        });
        let mut scratch = SolverScratch::new();
        let mut exact_scratch = SolverScratch::new();
        let cluster = |cx: f64, cy: f64, phase: u64| {
            let pts: Vec<Vec<f64>> = (0..9u64)
                .map(|i| {
                    let jx = (((i * 7 + phase * 3) % 11) as f64 - 5.0) * 0.8;
                    let jy = (((i * 5 + phase * 9) % 13) as f64 - 6.0) * 0.8;
                    vec![cx + jx, cy + jy]
                })
                .collect();
            Signature::new(pts, vec![1.0; 9]).unwrap()
        };
        for phase in 0..12u64 {
            let a = cluster(0.0, 0.0, phase);
            let b = cluster(4.0, 2.0, phase + 1);
            let v = solver
                .distance_with(&a, &b, &GroundMetric::Euclidean, &mut scratch)
                .unwrap();
            let exact = EmdSolver::Exact
                .distance_with(&a, &b, &GroundMetric::Euclidean, &mut exact_scratch)
                .unwrap();
            assert!(
                (v - exact).abs() <= eps + 1e-6,
                "phase {phase}: {v} vs {exact}"
            );
        }
        let stats = scratch.stats();
        assert!(
            stats.tier_estimate > 0,
            "the estimate tier never decided: {stats:?}"
        );
    }

    #[test]
    fn tiered_bounded_mode_matches_exact_error_on_zero_mass() {
        let a = Signature::new(vec![vec![0.0]], vec![0.0]).unwrap();
        let b = Signature::new(vec![vec![1.0]], vec![1.0]).unwrap();
        let solver = EmdSolver::Tiered(TieredConfig {
            epsilon: Some(0.5),
            ..TieredConfig::default()
        });
        let mut scratch = SolverScratch::new();
        let tiered_err = solver
            .distance_with(&a, &b, &GroundMetric::Euclidean, &mut scratch)
            .unwrap_err();
        let exact_err = EmdSolver::Exact
            .distance_with(&a, &b, &GroundMetric::Euclidean, &mut scratch)
            .unwrap_err();
        assert_eq!(tiered_err, exact_err);
    }

    #[test]
    fn tiered_nearest_matches_exact_and_prunes() {
        let sigs = rich_sigs();
        let (query, candidates) = sigs.split_first().unwrap();
        let metric = GroundMetric::Euclidean;
        let mut exact_out = Vec::new();
        EmdSolver::Exact
            .nearest_with(
                query,
                candidates,
                3,
                &metric,
                &mut SolverScratch::new(),
                &mut exact_out,
            )
            .unwrap();
        for cfg in [
            TieredConfig::default(),
            TieredConfig {
                epsilon: Some(0.25),
                ..TieredConfig::default()
            },
        ] {
            let mut scratch = SolverScratch::new();
            let mut tiered_out = Vec::new();
            EmdSolver::Tiered(cfg)
                .nearest_with(query, candidates, 3, &metric, &mut scratch, &mut tiered_out)
                .unwrap();
            assert_eq!(exact_out.len(), tiered_out.len());
            for (e, t) in exact_out.iter().zip(&tiered_out) {
                assert_eq!(e.1, t.1);
                assert_eq!(e.0.to_bits(), t.0.to_bits());
            }
            // The far cluster must have been excluded by a bound, not by
            // solving: fewer exact solves than candidates.
            let stats = scratch.stats();
            assert!(
                stats.tier_centroid + stats.tier_projection > 0,
                "no k-NN pruning happened: {stats:?}"
            );
            assert!(stats.exact_solves < candidates.len() as u64);
        }
    }

    #[test]
    fn nearest_orders_by_distance_then_index() {
        // Duplicate candidates force distance ties; indices break them.
        let q = Signature::new(vec![vec![0.0]], vec![1.0]).unwrap();
        let c = Signature::new(vec![vec![1.0]], vec![1.0]).unwrap();
        let candidates = vec![c.clone(), c.clone(), c];
        let mut out = Vec::new();
        EmdSolver::Exact
            .nearest_with(
                &q,
                &candidates,
                2,
                &GroundMetric::Euclidean,
                &mut SolverScratch::new(),
                &mut out,
            )
            .unwrap();
        assert_eq!(out.iter().map(|&(_, i)| i).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn estimator_constants_cancel() {
        // c and d shift/scale both terms of each score identically up to
        // the score's own structure; for score_KL the offset cancels
        // exactly: (c + dX) - ((c + dY) + (c + dZ))/2 = d(X - (Y+Z)/2)
        // requires checking: c - c = 0. Verify numerically.
        let positions = [0.0, 0.3, 0.7, 4.0, 4.2, 4.9];
        let base = WindowScorer::new(
            &sigs_at(&positions),
            3,
            3,
            &GroundMetric::Euclidean,
            EstimatorConfig::default(),
        )
        .unwrap();
        let shifted = WindowScorer::new(
            &sigs_at(&positions),
            3,
            3,
            &GroundMetric::Euclidean,
            EstimatorConfig {
                offset: 7.0,
                scale: 1.0,
                dist_floor: 1e-12,
            },
        )
        .unwrap();
        let w = equal_weights(3);
        assert!((base.score_kl(&w, &w) - shifted.score_kl(&w, &w)).abs() < 1e-9);
        assert!((base.score_lr(&w, &w) - shifted.score_lr(&w, &w)).abs() < 1e-9);
    }
}
