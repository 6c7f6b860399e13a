//! Property-based tests for the weighted information estimators.

use infoest::{
    auto_entropy, auto_entropy_block, auto_entropy_logs, cross_entropy, cross_entropy_block,
    cross_entropy_logs, information_content, information_content_logs, DistanceMatrix,
    EstimatorConfig, LogBlock, Normalized,
};
use proptest::prelude::*;

fn cfg() -> EstimatorConfig {
    EstimatorConfig::default()
}

/// Strategy: positive distances.
fn distances(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..100.0f64, n..=n)
}

/// Strategy: positive weights.
fn weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..10.0f64, n..=n)
}

/// Strategy: a symmetric distance matrix with zero diagonal.
fn sym_matrix(n: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec(0.01..100.0f64, n * (n - 1) / 2).prop_map(move |upper| {
        let mut it = upper.into_iter();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = it.next().expect("sized exactly");
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix::from_vec(n, n, data)
    })
}

/// Strategy: a distance that is 0, below the log floor, or ordinary.
fn edge_distance() -> impl Strategy<Value = f64> {
    (0usize..4, 0.01..100.0f64).prop_map(|(kind, d)| match kind {
        0 => 0.0,
        1 => d * 1e-16,
        _ => d,
    })
}

/// Strategy: a symmetric `n x n` window matrix with zero diagonal and
/// edge-case distances.
fn edge_matrix(n: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec(edge_distance(), n * n).prop_map(move |draws| {
        DistanceMatrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => draws[i * n + j],
            std::cmp::Ordering::Greater => draws[j * n + i],
            std::cmp::Ordering::Equal => 0.0,
        })
    })
}

/// Strategy: `n` weights, about a third of them zero. Past the first
/// entry at least one is positive, so both the vector and its tail
/// `[1..]` (the likelihood-ratio test set) have a positive sum.
fn zero_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0usize..3, 0.01..10.0f64).prop_map(|(kind, w)| if kind == 0 { 0.0 } else { w }),
        n,
    )
    .prop_map(|mut w| {
        let tail = w.len().min(2) - 1;
        if w[tail..].iter().all(|&x| x == 0.0) {
            let last = w.len() - 1;
            w[last] = 1.0;
        }
        w
    })
}

/// Strategy: a window shape `(τ, τ')`, its matrix, both weight vectors,
/// and estimator constants with one of two log floors.
#[allow(clippy::type_complexity)]
fn window_case() -> impl Strategy<
    Value = (
        (usize, usize),
        DistanceMatrix,
        Vec<f64>,
        Vec<f64>,
        EstimatorConfig,
    ),
> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(tau, tau_prime)| {
        (
            Just((tau, tau_prime)),
            edge_matrix(tau + tau_prime),
            zero_weights(tau),
            zero_weights(tau_prime),
            (0usize..2, -5.0..5.0f64, 0.1..4.0f64).prop_map(|(floor, offset, scale)| {
                EstimatorConfig {
                    offset,
                    scale,
                    dist_floor: if floor == 0 { 1e-12 } else { 0.05 },
                }
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every estimator read from a cached log block, with weights
    /// normalized once, equals its distance form bit for bit — on zero
    /// distances, distances below the floor, and zero weights.
    #[test]
    fn log_block_forms_match_distance_forms_bitwise(case in window_case()) {
        let ((tau, tau_prime), m, wr, wt, c) = case;
        let w = tau + tau_prime;
        let mut logs = LogBlock::new();
        c.log_block_into(&m, &mut logs);
        let (mut pr, mut pt, mut pt1) = (Vec::new(), Vec::new(), Vec::new());
        let nr = Normalized::new_into(&wr, &mut pr);
        let nt = Normalized::new_into(&wt, &mut pt);

        let cross = cross_entropy_block(&m, 0..tau, tau..w, &wr, &wt, &c);
        let cross_logs = cross_entropy_logs(&logs, 0..tau, tau..w, nr, nt);
        prop_assert_eq!(cross.to_bits(), cross_logs.to_bits());

        let auto_ref = auto_entropy_block(&m, 0..tau, &wr, &c);
        prop_assert_eq!(auto_ref.to_bits(), auto_entropy_logs(&logs, 0..tau, nr).to_bits());
        let auto_test = auto_entropy_block(&m, tau..w, &wt, &c);
        prop_assert_eq!(auto_test.to_bits(), auto_entropy_logs(&logs, tau..w, nt).to_bits());

        // The likelihood-ratio terms read row `tau` (S_t).
        let row = m.row(tau);
        let i_ref = information_content(&row[..tau], &wr, &c);
        let i_ref_logs = information_content_logs(&logs, tau, 0..tau, nr);
        prop_assert_eq!(i_ref.to_bits(), i_ref_logs.to_bits());
        if tau_prime >= 2 {
            let nt1 = Normalized::new_into(&wt[1..], &mut pt1);
            let i_test = information_content(&row[tau + 1..w], &wt[1..], &c);
            let i_test_logs = information_content_logs(&logs, tau, tau + 1..w, nt1);
            prop_assert_eq!(i_test.to_bits(), i_test_logs.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three estimators produce finite values on positive distances.
    #[test]
    fn estimators_finite(
        m in sym_matrix(6),
        w in weights(6),
    ) {
        prop_assert!(auto_entropy(&m, &w, &cfg()).is_finite());
        let cross = m.block(0..3, 3..6);
        prop_assert!(cross_entropy(&cross, &w[..3], &w[3..], &cfg()).is_finite());
        prop_assert!(information_content(m.row(0), &w, &cfg()).is_finite());
    }

    /// Weight-scale invariance: the estimators normalize internally.
    #[test]
    fn weight_scale_invariance(
        d in distances(5),
        w in weights(5),
        scale in 0.1..100.0f64,
    ) {
        let scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let a = information_content(&d, &w, &cfg());
        let b = information_content(&d, &scaled, &cfg());
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// Information content is monotone: uniformly larger distances give a
    /// larger value.
    #[test]
    fn information_monotone_in_distances(
        d in distances(5),
        w in weights(5),
        factor in 1.1..10.0f64,
    ) {
        let larger: Vec<f64> = d.iter().map(|x| x * factor).collect();
        let a = information_content(&d, &w, &cfg());
        let b = information_content(&larger, &w, &cfg());
        // log(factor * d) = log factor + log d, so b - a = log factor.
        prop_assert!((b - a - factor.ln()).abs() < 1e-9);
    }

    /// Cross-entropy equals the transpose with swapped weight vectors.
    #[test]
    fn cross_entropy_transpose_identity(
        m in sym_matrix(6),
        w in weights(6),
    ) {
        let ab = m.block(0..2, 2..6);
        let ba = m.block(2..6, 0..2);
        let h1 = cross_entropy(&ab, &w[..2], &w[2..], &cfg());
        let h2 = cross_entropy(&ba, &w[2..], &w[..2], &cfg());
        prop_assert!((h1 - h2).abs() < 1e-9 * (1.0 + h1.abs()));
    }

    /// Auto-entropy is permutation invariant (relabeling the items).
    #[test]
    fn auto_entropy_permutation_invariant(
        m in sym_matrix(5),
        w in weights(5),
    ) {
        let n = 5;
        // Reverse permutation.
        let perm: Vec<usize> = (0..n).rev().collect();
        let pm = DistanceMatrix::from_fn(n, n, |i, j| m.get(perm[i], perm[j]));
        let pw: Vec<f64> = perm.iter().map(|&i| w[i]).collect();
        let a = auto_entropy(&m, &w, &cfg());
        let b = auto_entropy(&pm, &pw, &cfg());
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// The offset constant shifts every estimator by exactly c, and the
    /// scale multiplies the data term — the structure that makes them
    /// cancel in the paper's score differences.
    #[test]
    fn offset_and_scale_structure(
        d in distances(4),
        w in weights(4),
        c in -10.0..10.0f64,
        s in 0.1..10.0f64,
    ) {
        let base = information_content(&d, &w, &cfg());
        let shifted = information_content(
            &d,
            &w,
            &EstimatorConfig { offset: c, scale: s, dist_floor: 1e-12 },
        );
        prop_assert!((shifted - (c + s * base)).abs() < 1e-9 * (1.0 + shifted.abs()));
    }
}
