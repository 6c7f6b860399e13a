//! The three weighted information estimators.
//!
//! Each estimator has one body, evaluated in up to three forms:
//!
//! - the plain form over a whole [`DistanceMatrix`] (or distance slice);
//! - a `_block` form over a rectangular sub-block of a larger matrix,
//!   read *in place* — no block extraction, no allocation;
//! - a `_logs` form over a [`LogBlock`], the floored log distances of a
//!   matrix taken once, with [`Normalized`] weights divided by their sum
//!   once.
//!
//! The change-point scores in `bagcpd` evaluate thousands of Bayesian
//! bootstrap replicates per inspection point. Only the weights change
//! between replicates, so each replicate reads the `_logs` form: no
//! `ln`, no per-term weight division, no heap. The forms share the body,
//! so they agree bit for bit.

use crate::matrix::DistanceMatrix;
use std::ops::Range;

/// Configuration shared by the estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Additive constant `c` of the estimators. Cancels in change-point
    /// scores; default 0.
    pub offset: f64,
    /// Multiplicative constant `d` (effective embedding dimension).
    /// Cancels in change-point scores; default 1.
    pub scale: f64,
    /// Distances are clamped below at this floor before taking logs, so
    /// coincident signatures (distance 0) contribute a large-but-finite
    /// negative term instead of `-inf`.
    pub dist_floor: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            offset: 0.0,
            scale: 1.0,
            dist_floor: 1e-12,
        }
    }
}

impl EstimatorConfig {
    #[inline]
    fn log_dist(&self, d: f64) -> f64 {
        d.max(self.dist_floor).ln()
    }

    /// Fill `out` with the floored log of every entry of `dist`, reusing
    /// its storage — allocation-free once `out` has held a matrix of
    /// this size.
    pub fn log_block_into(&self, dist: &DistanceMatrix, out: &mut LogBlock) {
        out.rows = dist.rows();
        out.cols = dist.cols();
        out.cfg = *self;
        out.logs.clear();
        for i in 0..dist.rows() {
            out.logs
                .extend(dist.row(i).iter().map(|&d| self.log_dist(d)));
        }
    }
}

/// The floored log distances `ln max(d, dist_floor)` of a
/// [`DistanceMatrix`], row-major, with the [`EstimatorConfig`] that took
/// them. Filled by [`EstimatorConfig::log_block_into`] and read by the
/// `_logs` estimator forms, which take `offset` and `scale` from the
/// same config.
#[derive(Debug, Clone, Default)]
pub struct LogBlock {
    rows: usize,
    cols: usize,
    logs: Vec<f64>,
    cfg: EstimatorConfig,
}

impl LogBlock {
    /// Empty block; storage grows on the first fill.
    pub fn new() -> Self {
        LogBlock::default()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` of logs.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.logs[i * self.cols..(i + 1) * self.cols]
    }

    /// The estimator constants the logs were taken with.
    pub(crate) fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }
}

/// Validate a weight vector and return its sum.
fn check_weights(weights: &[f64], what: &str) -> f64 {
    assert!(!weights.is_empty(), "{what}: empty weights");
    let sum: f64 = weights.iter().sum();
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0) && sum > 0.0,
        "{what}: weights must be finite, >= 0, with positive sum"
    );
    sum
}

/// A weight vector validated once and normalized once, `ψ_j = w_j / Σw`:
/// the weights of the `_logs` estimator forms, so that several
/// estimators evaluated on the same weights share one normalization.
#[derive(Debug, Clone, Copy)]
pub struct Normalized<'a> {
    raw: &'a [f64],
    psi: &'a [f64],
}

impl<'a> Normalized<'a> {
    /// Check `weights` as every estimator does and write their
    /// normalized values into `buf` (allocation-free once `buf`'s
    /// capacity covers them).
    ///
    /// # Panics
    /// Panics on empty or invalid weights.
    pub fn new_into(weights: &'a [f64], buf: &'a mut Vec<f64>) -> Self {
        let sum = check_weights(weights, "normalized");
        buf.clear();
        buf.extend(weights.iter().map(|&w| w / sum));
        Normalized {
            raw: weights,
            psi: buf,
        }
    }
}

/// The weights an estimator body reads: `ψ_j` divided out per term from
/// the raw weights (distance forms), or read from a [`Normalized`]
/// buffer (log forms). Both give the same bits.
trait Psi: Copy {
    /// The raw weights; their length is the set size.
    fn weights(&self) -> &[f64];
    /// `ψ_j = w_j / Σw`.
    fn norm(&self, j: usize) -> f64;
}

/// Raw weights with their sum, normalized term by term.
#[derive(Clone, Copy)]
struct PerTerm<'a> {
    raw: &'a [f64],
    sum: f64,
}

impl Psi for PerTerm<'_> {
    fn weights(&self) -> &[f64] {
        self.raw
    }

    #[inline]
    fn norm(&self, j: usize) -> f64 {
        self.raw[j] / self.sum
    }
}

impl Psi for Normalized<'_> {
    fn weights(&self) -> &[f64] {
        self.raw
    }

    #[inline]
    fn norm(&self, j: usize) -> f64 {
        self.psi[j]
    }
}

/// Information content `I(S; S') = c + d Σ_j ψ'_j log dist(S'_j, S)`.
///
/// `dists` are the distances from each element of `S'` to the signature
/// `S`; `weights` are the ψ'_j (normalized internally).
///
/// # Panics
/// Panics on empty or invalid weights, or a length mismatch.
pub fn information_content(dists: &[f64], weights: &[f64], cfg: &EstimatorConfig) -> f64 {
    assert_eq!(
        dists.len(),
        weights.len(),
        "information_content: dists/weights length mismatch"
    );
    let sum = check_weights(weights, "information_content");
    information_content_in(
        dists,
        |d| cfg.log_dist(d),
        PerTerm { raw: weights, sum },
        cfg,
    )
}

/// [`information_content`] of the entries `cols` of row `row` of a
/// [`LogBlock`]. Bit-identical to the distance form on the same
/// distances and weights.
///
/// # Panics
/// Panics if the entries exceed the block or the weights length does
/// not match.
pub fn information_content_logs(
    logs: &LogBlock,
    row: usize,
    cols: Range<usize>,
    weights: Normalized,
) -> f64 {
    assert!(
        row < logs.rows() && cols.end <= logs.cols(),
        "information_content: block out of range"
    );
    assert_eq!(
        cols.len(),
        weights.raw.len(),
        "information_content: dists/weights length mismatch"
    );
    information_content_in(&logs.row(row)[cols], |v| v, weights, logs.config())
}

/// The one body of [`information_content`]: `log` turns an entry of
/// `row` into its log distance.
#[inline]
fn information_content_in(
    row: &[f64],
    log: impl Fn(f64) -> f64,
    weights: impl Psi,
    cfg: &EstimatorConfig,
) -> f64 {
    let acc: f64 = row
        .iter()
        .enumerate()
        .map(|(j, &d)| weights.norm(j) * log(d))
        .sum();
    cfg.offset + cfg.scale * acc
}

/// k-NN-truncated information content: [`information_content`]
/// restricted to the `k` elements of `S'` nearest to `S`, with their
/// weights renormalized.
///
/// Equivalent to [`information_content_knn_with`] with a fresh order
/// buffer.
///
/// # Panics
/// As [`information_content_knn_with`].
pub fn information_content_knn(
    dists: &[f64],
    weights: &[f64],
    k: usize,
    cfg: &EstimatorConfig,
) -> f64 {
    information_content_knn_with(dists, weights, k, cfg, &mut Vec::new())
}

/// As [`information_content_knn`], reusing a caller-kept index buffer —
/// allocation-free once `order`'s capacity covers the slice length.
///
/// Selection is deterministic: the `k` smallest by `(distance, index)`.
/// With `k >= dists.len()` this reproduces [`information_content`] bit
/// for bit (the accumulation runs in index order either way). The
/// truncated form pairs with the tiered solver's pruned k-NN search in
/// `bagcpd`, which produces exactly this neighbor set without solving
/// every pair.
///
/// # Panics
/// Panics on `k == 0`, empty or invalid weights, a length mismatch, or
/// when the selected neighbors carry zero total weight.
pub fn information_content_knn_with(
    dists: &[f64],
    weights: &[f64],
    k: usize,
    cfg: &EstimatorConfig,
    order: &mut Vec<usize>,
) -> f64 {
    assert_eq!(
        dists.len(),
        weights.len(),
        "information_content_knn: dists/weights length mismatch"
    );
    assert!(k >= 1, "information_content_knn: k must be >= 1");
    check_weights(weights, "information_content_knn");
    let k = k.min(dists.len());
    order.clear();
    order.extend(0..dists.len());
    // Full sort by (distance, index): selection must be deterministic
    // under distance ties (select_nth_unstable would not order ties
    // across the pivot deterministically).
    order.sort_unstable_by(|&i, &j| dists[i].total_cmp(&dists[j]).then(i.cmp(&j)));
    order.truncate(k);
    // Accumulate in index order so `k = n` reproduces
    // `information_content` bit for bit.
    order.sort_unstable();
    let sum: f64 = order.iter().map(|&i| weights[i]).sum();
    assert!(
        sum > 0.0,
        "information_content_knn: selected neighbors carry zero weight"
    );
    let acc: f64 = order
        .iter()
        .map(|&i| (weights[i] / sum) * cfg.log_dist(dists[i]))
        .sum();
    cfg.offset + cfg.scale * acc
}

/// Auto-entropy
/// `H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) log dist(S_i, S_j)`.
///
/// `dist` must be a square matrix over the elements of `S`; the diagonal
/// is ignored. The `1/(1 - ψ_i)` factor renormalizes the remaining
/// weights after leaving item `i` out.
///
/// # Panics
/// Panics if the matrix is not square, the weights length does not match,
/// or weights are invalid. A single-element set has no leave-one-out
/// structure; its auto-entropy is defined as `c` (the log term vanishes).
pub fn auto_entropy(dist: &DistanceMatrix, weights: &[f64], cfg: &EstimatorConfig) -> f64 {
    assert_eq!(
        dist.rows(),
        dist.cols(),
        "auto_entropy: matrix must be square"
    );
    auto_entropy_block(dist, 0..dist.rows(), weights, cfg)
}

/// [`auto_entropy`] of the square diagonal sub-block `at x at` of a
/// larger matrix, evaluated in place (no block is extracted).
/// Bit-identical to extracting the block first.
///
/// # Panics
/// As [`auto_entropy`], or if `at` exceeds the matrix.
pub fn auto_entropy_block(
    dist: &DistanceMatrix,
    at: Range<usize>,
    weights: &[f64],
    cfg: &EstimatorConfig,
) -> f64 {
    assert!(
        at.end <= dist.rows() && at.end <= dist.cols(),
        "auto_entropy: block out of range"
    );
    assert_eq!(
        at.len(),
        weights.len(),
        "auto_entropy: weights length mismatch"
    );
    let sum = check_weights(weights, "auto_entropy");
    auto_entropy_in(
        |i| dist.row(i),
        at,
        |d| cfg.log_dist(d),
        PerTerm { raw: weights, sum },
        cfg,
    )
}

/// [`auto_entropy_block`] read from a [`LogBlock`]. Bit-identical to the
/// distance form on the same distances and weights.
///
/// # Panics
/// Panics if `at` exceeds the block or the weights length does not
/// match.
pub fn auto_entropy_logs(logs: &LogBlock, at: Range<usize>, weights: Normalized) -> f64 {
    assert!(
        at.end <= logs.rows() && at.end <= logs.cols(),
        "auto_entropy: block out of range"
    );
    assert_eq!(
        at.len(),
        weights.raw.len(),
        "auto_entropy: weights length mismatch"
    );
    auto_entropy_in(|i| logs.row(i), at, |v| v, weights, logs.config())
}

/// The one body of [`auto_entropy`]: `row(i)` is row `i` of the whole
/// matrix, and `log` turns one of its entries into a log distance.
#[inline]
fn auto_entropy_in<'a>(
    row: impl Fn(usize) -> &'a [f64],
    at: Range<usize>,
    log: impl Fn(f64) -> f64,
    weights: impl Psi,
    cfg: &EstimatorConfig,
) -> f64 {
    let n = weights.weights().len();
    if n == 1 {
        return cfg.offset;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let wi = weights.norm(i);
        if wi >= 1.0 {
            // Degenerate: all mass on one item; leave-one-out undefined,
            // and every other term has ψ_j = 0. Contributes nothing.
            continue;
        }
        let row = &row(at.start + i)[at.start..at.end];
        let mut inner = 0.0;
        for (j, &d) in row.iter().enumerate() {
            if j == i {
                continue;
            }
            let wj = weights.norm(j);
            if wj == 0.0 {
                continue;
            }
            inner += wj * log(d);
        }
        acc += wi * inner / (1.0 - wi);
    }
    cfg.offset + cfg.scale * acc
}

/// Cross-entropy `H(S, S') = c + d Σ_i Σ_j ψ_i ψ'_j log dist(S_i, S'_j)`.
///
/// `dist` is rectangular: rows index `S`, columns index `S'`.
///
/// # Panics
/// Panics on dimension mismatches or invalid weights.
pub fn cross_entropy(
    dist: &DistanceMatrix,
    weights_s: &[f64],
    weights_t: &[f64],
    cfg: &EstimatorConfig,
) -> f64 {
    cross_entropy_block(
        dist,
        0..dist.rows(),
        0..dist.cols(),
        weights_s,
        weights_t,
        cfg,
    )
}

/// [`cross_entropy`] of the rectangular sub-block `rows x cols` of a
/// larger matrix, evaluated in place (no block is extracted).
/// Bit-identical to extracting the block first.
///
/// # Panics
/// As [`cross_entropy`], or if the ranges exceed the matrix.
pub fn cross_entropy_block(
    dist: &DistanceMatrix,
    rows: Range<usize>,
    cols: Range<usize>,
    weights_s: &[f64],
    weights_t: &[f64],
    cfg: &EstimatorConfig,
) -> f64 {
    assert!(
        rows.end <= dist.rows() && cols.end <= dist.cols(),
        "cross_entropy: block out of range"
    );
    assert_eq!(
        rows.len(),
        weights_s.len(),
        "cross_entropy: row weights length mismatch"
    );
    assert_eq!(
        cols.len(),
        weights_t.len(),
        "cross_entropy: col weights length mismatch"
    );
    let sum_s = check_weights(weights_s, "cross_entropy");
    let sum_t = check_weights(weights_t, "cross_entropy");
    cross_entropy_in(
        |i| dist.row(i),
        rows,
        cols,
        |d| cfg.log_dist(d),
        PerTerm {
            raw: weights_s,
            sum: sum_s,
        },
        PerTerm {
            raw: weights_t,
            sum: sum_t,
        },
        cfg,
    )
}

/// [`cross_entropy_block`] read from a [`LogBlock`]. Bit-identical to
/// the distance form on the same distances and weights.
///
/// # Panics
/// Panics if the ranges exceed the block or a weights length does not
/// match.
pub fn cross_entropy_logs(
    logs: &LogBlock,
    rows: Range<usize>,
    cols: Range<usize>,
    weights_s: Normalized,
    weights_t: Normalized,
) -> f64 {
    assert!(
        rows.end <= logs.rows() && cols.end <= logs.cols(),
        "cross_entropy: block out of range"
    );
    assert_eq!(
        rows.len(),
        weights_s.raw.len(),
        "cross_entropy: row weights length mismatch"
    );
    assert_eq!(
        cols.len(),
        weights_t.raw.len(),
        "cross_entropy: col weights length mismatch"
    );
    cross_entropy_in(
        |i| logs.row(i),
        rows,
        cols,
        |v| v,
        weights_s,
        weights_t,
        logs.config(),
    )
}

/// The one body of [`cross_entropy`]: `row(i)` is row `i` of the whole
/// matrix, and `log` turns one of its entries into a log distance. Zero
/// weights are skipped on their raw values.
#[inline]
fn cross_entropy_in<'a>(
    row: impl Fn(usize) -> &'a [f64],
    rows: Range<usize>,
    cols: Range<usize>,
    log: impl Fn(f64) -> f64,
    weights_s: impl Psi,
    weights_t: impl Psi,
    cfg: &EstimatorConfig,
) -> f64 {
    let mut acc = 0.0;
    for (i, &wi) in weights_s.weights().iter().enumerate() {
        if wi == 0.0 {
            continue;
        }
        let row = &row(rows.start + i)[cols.start..cols.end];
        let mut inner = 0.0;
        for (j, (&wj, &d)) in weights_t.weights().iter().zip(row).enumerate() {
            if wj == 0.0 {
                continue;
            }
            inner += weights_t.norm(j) * log(d);
        }
        acc += weights_s.norm(i) * inner;
    }
    cfg.offset + cfg.scale * acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EstimatorConfig {
        EstimatorConfig::default()
    }

    #[test]
    fn information_content_equal_weights() {
        // I = mean of log distances when weights are equal.
        let dists = [
            1.0,
            std::f64::consts::E,
            std::f64::consts::E * std::f64::consts::E,
        ];
        let i = information_content(&dists, &[1.0, 1.0, 1.0], &cfg());
        assert!((i - 1.0).abs() < 1e-12, "{i}"); // (0 + 1 + 2)/3
    }

    #[test]
    fn information_content_weighting() {
        // All mass on the second element -> log of its distance.
        let i = information_content(&[1.0, std::f64::consts::E], &[0.0, 5.0], &cfg());
        assert!((i - 1.0).abs() < 1e-12);
    }

    #[test]
    fn information_content_offset_scale() {
        let c = EstimatorConfig {
            offset: 10.0,
            scale: 2.0,
            dist_floor: 1e-12,
        };
        let i = information_content(&[std::f64::consts::E], &[1.0], &c);
        assert!((i - 12.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_clamped_not_infinite() {
        let i = information_content(&[0.0], &[1.0], &cfg());
        assert!(i.is_finite());
        assert!(i < -20.0, "floor of 1e-12 gives ln ~ -27.6, got {i}");
    }

    #[test]
    fn knn_with_full_k_matches_information_content_bitwise() {
        let dists = [3.0, 0.5, 2.0, 0.9];
        let weights = [0.4, 1.1, 0.2, 0.8];
        let full = information_content(&dists, &weights, &cfg());
        for k in [4, 10] {
            let knn = information_content_knn(&dists, &weights, k, &cfg());
            assert_eq!(full.to_bits(), knn.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn knn_truncates_to_nearest() {
        // k = 2 keeps the two smallest distances (0.5 at index 1,
        // 0.9 at index 3) with weights renormalized.
        let dists = [3.0, 0.5, 2.0, 0.9];
        let weights = [0.4, 1.0, 0.2, 1.0];
        let knn = information_content_knn(&dists, &weights, 2, &cfg());
        let expected = information_content(&[0.5, 0.9], &[1.0, 1.0], &cfg());
        assert!((knn - expected).abs() < 1e-12, "{knn} vs {expected}");
    }

    #[test]
    fn knn_ties_break_by_index() {
        // Equal distances: indices 0 and 1 are kept, not 2.
        let dists = [1.0, 1.0, 1.0];
        let weights = [1.0, 1.0, 100.0];
        let knn = information_content_knn(&dists, &weights, 2, &cfg());
        let expected = information_content(&[1.0, 1.0], &[1.0, 1.0], &cfg());
        assert!((knn - expected).abs() < 1e-12);
    }

    #[test]
    fn knn_warm_buffer_matches_fresh() {
        let dists = [3.0, 0.5, 2.0, 0.9];
        let weights = [0.4, 1.1, 0.2, 0.8];
        let mut order = Vec::new();
        // Dirty the buffer with a different-length call first.
        information_content_knn_with(&[1.0, 2.0], &[1.0, 1.0], 1, &cfg(), &mut order);
        let warm = information_content_knn_with(&dists, &weights, 3, &cfg(), &mut order);
        let fresh = information_content_knn(&dists, &weights, 3, &cfg());
        assert_eq!(warm.to_bits(), fresh.to_bits());
    }

    #[test]
    #[should_panic(expected = "zero weight")]
    fn knn_zero_weight_selection_panics() {
        // The nearest neighbor carries no weight and k = 1 keeps only it.
        information_content_knn(&[0.5, 2.0], &[0.0, 1.0], 1, &cfg());
    }

    #[test]
    fn auto_entropy_two_points() {
        // Two items, equal weights 1/2: H = sum_i (1/2)(1/2)/(1/2) log d
        // = 2 * (1/2) log d = log d.
        let d = DistanceMatrix::symmetric_from_fn(2, |_, _| std::f64::consts::E);
        let h = auto_entropy(&d, &[1.0, 1.0], &cfg());
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn auto_entropy_ignores_diagonal() {
        let mut data = vec![0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                data[i * 3 + j] = if i == j { 0.0 } else { std::f64::consts::E };
            }
        }
        let d = DistanceMatrix::from_vec(3, 3, data);
        let h = auto_entropy(&d, &[1.0, 1.0, 1.0], &cfg());
        // all off-diagonal log distances = 1 -> weighted sum = 1.
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn auto_entropy_singleton_is_offset() {
        let d = DistanceMatrix::from_vec(1, 1, vec![0.0]);
        let c = EstimatorConfig {
            offset: 3.0,
            ..cfg()
        };
        assert_eq!(auto_entropy(&d, &[1.0], &c), 3.0);
    }

    #[test]
    fn auto_entropy_leave_one_out_renormalization() {
        // Three items with weights (1/2, 1/4, 1/4), distances all e.
        // H = sum_i psi_i * [sum_{j!=i} psi_j log e] / (1 - psi_i)
        //   = sum_i psi_i * (1 - psi_i)/(1 - psi_i) = sum_i psi_i = 1.
        let d = DistanceMatrix::symmetric_from_fn(3, |_, _| std::f64::consts::E);
        let h = auto_entropy(&d, &[2.0, 1.0, 1.0], &cfg());
        assert!((h - 1.0).abs() < 1e-12, "{h}");
    }

    #[test]
    fn cross_entropy_uniform() {
        let d = DistanceMatrix::from_fn(2, 3, |_, _| std::f64::consts::E);
        let h = cross_entropy(&d, &[1.0, 1.0], &[1.0, 1.0, 1.0], &cfg());
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_respects_both_weightings() {
        // Mass concentrated on (row 0, col 1) -> log of that distance.
        let d = DistanceMatrix::from_fn(2, 2, |i, j| {
            if i == 0 && j == 1 {
                (2.0f64).exp()
            } else {
                1.0
            }
        });
        let h = cross_entropy(&d, &[1.0, 0.0], &[0.0, 1.0], &cfg());
        assert!((h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_symmetric_under_transpose() {
        let d = DistanceMatrix::from_fn(2, 3, |i, j| 1.0 + (i + 2 * j) as f64);
        let dt = DistanceMatrix::from_fn(3, 2, |j, i| 1.0 + (i + 2 * j) as f64);
        let ws = [0.3, 0.7];
        let wt = [0.2, 0.5, 0.3];
        let h1 = cross_entropy(&d, &ws, &wt, &cfg());
        let h2 = cross_entropy(&dt, &wt, &ws, &cfg());
        assert!((h1 - h2).abs() < 1e-12);
    }

    #[test]
    fn unnormalized_weights_equal_normalized() {
        let d = DistanceMatrix::from_fn(2, 2, |i, j| 1.0 + (i * 2 + j) as f64);
        let h1 = cross_entropy(&d, &[1.0, 3.0], &[2.0, 2.0], &cfg());
        let h2 = cross_entropy(&d, &[0.25, 0.75], &[0.5, 0.5], &cfg());
        assert!((h1 - h2).abs() < 1e-12);
    }

    #[test]
    fn block_forms_match_extracted_blocks_bit_for_bit() {
        // The in-place block estimators must equal extracting the block
        // first, to the last bit — the change-point scores rely on it.
        let parent = DistanceMatrix::from_fn(6, 6, |i, j| {
            if i == j {
                0.0
            } else {
                1.0 + ((i * 5 + j * 3) % 7) as f64 * 0.37
            }
        });
        let ws = [0.4, 1.1, 0.0];
        let wt = [2.0, 0.5, 1.3];
        let c = cfg();

        let cross = parent.block(0..3, 3..6);
        assert_eq!(
            cross_entropy(&cross, &ws, &wt, &c).to_bits(),
            cross_entropy_block(&parent, 0..3, 3..6, &ws, &wt, &c).to_bits()
        );

        let diag = parent.block(3..6, 3..6);
        assert_eq!(
            auto_entropy(&diag, &wt, &c).to_bits(),
            auto_entropy_block(&parent, 3..6, &wt, &c).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn auto_entropy_block_out_of_range_panics() {
        let d = DistanceMatrix::from_fn(3, 3, |_, _| 1.0);
        auto_entropy_block(&d, 1..4, &[1.0, 1.0, 1.0], &cfg());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn information_content_length_mismatch_panics() {
        information_content(&[1.0], &[1.0, 1.0], &cfg());
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn zero_weights_panic() {
        information_content(&[1.0], &[0.0], &cfg());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn auto_entropy_rect_panics() {
        let d = DistanceMatrix::from_fn(2, 3, |_, _| 1.0);
        auto_entropy(&d, &[1.0, 1.0], &cfg());
    }
}
