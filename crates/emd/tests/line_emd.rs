//! The closed-form 1-D EMD against the transportation simplex.
//!
//! For equal masses on a line with `d(x, y) = |x − y|`, the EMD of
//! Eqs. 7–12 is the L1 gap between the two CDFs divided by the common
//! mass. Two regimes are pinned:
//!
//! * **Dyadic histograms** — bin centres `(b + ½)·w` with origin 0,
//!   widths `w = 2⁻ᵏ`, integer counts. Every distance, product and
//!   partial sum of either method is then exact, and both divide the
//!   same total by the same mass, so the results agree bit for bit.
//! * **Real-valued pairs** — arbitrary positions and weights (zero
//!   weights and single points included). Both methods round
//!   differently, and the simplex stops within its `1e-10` pricing
//!   tolerance, so they agree only to `1e-9` relative.
//!
//! Both the oracle `emd_1d` and the scratch entry `emd_line_with` are
//! held to this, and `emd_line_with` must decline (`None`) every pair
//! the simplex does not solve as a balanced 1-D problem.

use emd::{
    emd_1d, emd_line_with, emd_with, Chebyshev, Euclidean, Manhattan, Signature, TransportScratch,
    TransportStats,
};

/// SplitMix64: a self-contained generator, so the inputs do not depend
/// on any library RNG stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Bins a histogram side may occupy: `-BINS..BINS`, so two sides of up
/// to 40 bins share many centres.
const BINS: i64 = 25;

/// `n` distinct bin indices in first-seen (unsorted) order.
fn bins(rng: &mut SplitMix, n: usize) -> Vec<i64> {
    let mut all: Vec<i64> = (-BINS..BINS).collect();
    for i in 0..n {
        let j = i + rng.range(0, (all.len() - 1 - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// Move integer counts between the two sides until their totals agree,
/// keeping every count in `1..=100`.
fn balance_counts(rng: &mut SplitMix, a: &mut [u64], b: &mut [u64]) {
    loop {
        let (sa, sb): (u64, u64) = (a.iter().sum(), b.iter().sum());
        let (low, high) = match sa.cmp(&sb) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => (&mut *a, &mut *b),
            std::cmp::Ordering::Greater => (&mut *b, &mut *a),
        };
        // Raise a count on the lighter side, else lower one on the
        // heavier side; one of them always has room.
        let start = rng.range(0, low.len() as u64 - 1) as usize;
        if let Some(i) = (0..low.len())
            .map(|k| (start + k) % low.len())
            .find(|&i| low[i] < 100)
        {
            low[i] += 1;
        } else {
            let start = rng.range(0, high.len() as u64 - 1) as usize;
            let i = (0..high.len())
                .map(|k| (start + k) % high.len())
                .find(|&i| high[i] > 1)
                .expect("the heavier side has a count above 1");
            high[i] -= 1;
        }
    }
}

/// A 1-D signature plus the same data as `(position, weight)` pairs.
fn line(positions: &[f64], weights: &[f64]) -> (Signature, Vec<(f64, f64)>) {
    let sig = Signature::new(
        positions.iter().map(|&x| vec![x]).collect(),
        weights.to_vec(),
    )
    .unwrap();
    let pairs = positions
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    (sig, pairs)
}

/// A pair of equal-mass dyadic histograms at width `2^-k`.
fn dyadic_pair(rng: &mut SplitMix, k: i32) -> [(Signature, Vec<(f64, f64)>); 2] {
    let width = 2f64.powi(-k);
    let (na, nb) = (rng.range(1, 40) as usize, rng.range(1, 40) as usize);
    let mut ca: Vec<u64> = (0..na).map(|_| rng.range(1, 100)).collect();
    let mut cb: Vec<u64> = (0..nb).map(|_| rng.range(1, 100)).collect();
    balance_counts(rng, &mut ca, &mut cb);
    let side = |rng: &mut SplitMix, counts: &[u64]| {
        let centres: Vec<f64> = bins(rng, counts.len())
            .into_iter()
            .map(|b| 0.0 + (b as f64 + 0.5) * width)
            .collect();
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        line(&centres, &weights)
    };
    [side(rng, &ca), side(rng, &cb)]
}

/// A pair of real-valued 1-D signatures of equal mass (to rounding):
/// sizes 1..=40 (a single point on a side one time in eight), a third
/// of the pairs with some zero weights.
fn real_pair(rng: &mut SplitMix) -> [(Signature, Vec<(f64, f64)>); 2] {
    let zeros = rng.range(0, 2) == 0;
    let mut size = || match rng.range(0, 7) {
        0 => 1,
        _ => rng.range(1, 40) as usize,
    };
    let (na, nb) = (size(), size());
    let mut side = |n: usize| {
        let positions: Vec<f64> = (0..n).map(|_| 6.0 * rng.unit() - 3.0).collect();
        let mut weights: Vec<f64> = (0..n)
            .map(|_| {
                if zeros && rng.range(0, 2) == 0 {
                    0.0
                } else {
                    1.0 - rng.unit()
                }
            })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        (positions, weights)
    };
    let (pa, wa) = side(na);
    let (pb, mut wb) = side(nb);
    let scale = wa.iter().sum::<f64>() / wb.iter().sum::<f64>();
    for w in &mut wb {
        *w *= scale;
    }
    [line(&pa, &wa), line(&pb, &wb)]
}

/// The line solve through `scratch`, checking that it counts as one
/// solve with no pivots.
fn line_solve(a: &Signature, b: &Signature, scratch: &mut TransportScratch) -> f64 {
    let before = scratch.stats();
    let d = emd_line_with(a, b, scratch).expect("a balanced 1-D pair");
    let after = scratch.stats();
    assert_eq!(
        (after.solves - before.solves, after.pivots - before.pivots),
        (1, 0)
    );
    d
}

#[test]
fn closed_form_is_bit_equal_to_the_simplex_on_dyadic_histograms() {
    let mut rng = SplitMix(0x11e_d1ad);
    let mut scratch = TransportScratch::new();
    let mut line = TransportScratch::new();
    for k in 0..=4 {
        for _ in 0..150 {
            let [(a, pa), (b, pb)] = dyadic_pair(&mut rng, k);
            let oracle = emd_1d(&pa, &pb).unwrap();
            let closed = line_solve(&a, &b, &mut line);
            assert_eq!(oracle.to_bits(), closed.to_bits());
            for simplex in [
                emd_with(&a, &b, &Euclidean, &mut scratch),
                emd_with(&a, &b, &Manhattan, &mut scratch),
                emd_with(&a, &b, &Chebyshev, &mut scratch),
            ] {
                assert_eq!(
                    closed.to_bits(),
                    simplex.unwrap().to_bits(),
                    "width 2^-{k}: {pa:?} vs {pb:?}"
                );
            }
        }
    }
}

#[test]
fn closed_form_matches_the_simplex_on_real_valued_pairs() {
    let mut rng = SplitMix(0x7ea1_1e55);
    let mut scratch = TransportScratch::new();
    let mut line = TransportScratch::new();
    for _ in 0..600 {
        let [(a, pa), (b, pb)] = real_pair(&mut rng);
        let simplex = emd_with(&a, &b, &Euclidean, &mut scratch).unwrap();
        for closed in [emd_1d(&pa, &pb).unwrap(), line_solve(&a, &b, &mut line)] {
            assert!(
                (closed - simplex).abs() <= 1e-9 * simplex.abs().max(1.0),
                "{closed} vs {simplex}: {pa:?} vs {pb:?}"
            );
        }
    }
}

#[test]
fn line_solve_declines_every_pair_the_simplex_does_not_balance() {
    let sig = |points: Vec<Vec<f64>>, weights: Vec<f64>| Signature::new(points, weights).unwrap();
    let line = |xs: &[f64], ws: &[f64]| sig(xs.iter().map(|&x| vec![x]).collect(), ws.to_vec());
    let a = line(&[0.5, 1.5], &[2.0, 1.0]);
    let declined = [
        // Unequal masses: partial matching, a slack node in the simplex.
        (a.clone(), line(&[0.5, 2.5], &[2.0, 2.0])),
        // A gap far below emd_1d's 1e-9 but above the simplex's 1e-12.
        (a.clone(), line(&[1.0], &[3.0 * (1.0 + 1e-11)])),
        // Zero mass on either side.
        (a.clone(), line(&[1.0, 2.0], &[0.0, 0.0])),
        (line(&[1.0], &[0.0]), a.clone()),
        // Not 1-D, on one side or both.
        (a.clone(), sig(vec![vec![1.0, 0.0]], vec![3.0])),
        (
            sig(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![1.0, 2.0]),
            sig(vec![vec![1.0, 0.0]], vec![3.0]),
        ),
    ];
    let mut scratch = TransportScratch::new();
    for (x, y) in &declined {
        assert_eq!(emd_line_with(x, y, &mut scratch), None, "{x:?} vs {y:?}");
    }
    assert_eq!(scratch.stats(), TransportStats::default());

    // A gap inside the simplex's balance test is still one balanced
    // problem, so the line solve takes it.
    let b = line(&[1.0], &[3.0 * (1.0 + 1e-13)]);
    let closed = line_solve(&a, &b, &mut scratch);
    let simplex = emd_with(&a, &b, &Euclidean, &mut TransportScratch::new()).unwrap();
    assert!((closed - simplex).abs() <= 1e-12, "{closed} vs {simplex}");
}
