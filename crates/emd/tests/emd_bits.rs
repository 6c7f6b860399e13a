//! Pins the exact bits of the transportation simplex.
//!
//! Every `emd_with` result and every optimal flow plan over a seeded
//! grid of signature pairs is folded into one FNV-1a hash, together
//! with the final solve and pivot counters of the shared scratch. The
//! grid covers dimensions 1, 2 and 4, every side size from 1 to 40,
//! integer and real weights, unequal total masses (a slack row or a
//! slack column), zero weights, coordinates snapped to a coarse grid
//! (many tied costs, heavily degenerate pivots) and 4-D 32×32 pairs,
//! the shape of k-means signatures with k = 32. Any change to the
//! pivot sequence, the basis order or the summation order of the
//! totals shows up here, so the solver's bookkeeping can be rewritten
//! only if it keeps every pivot.

use emd::{emd_with, emd_with_flow_with, Euclidean, Signature, TransportScratch, TransportStats};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a signature's points and weights are drawn.
#[derive(Clone, Copy)]
enum Mode {
    /// Weights 1..=5, coordinates uniform in [-2, 2).
    Integer,
    /// Weights uniform in (0, 1].
    Real,
    /// Real weights, about a third of them exactly zero.
    Zeros,
    /// Integer weights on coordinates snapped to {0, 1, 2}: tied costs.
    Grid,
}

const MODES: [Mode; 4] = [Mode::Integer, Mode::Real, Mode::Zeros, Mode::Grid];

fn signature(rng: &mut SplitMix, k: usize, dim: usize, mode: Mode, mass: f64) -> Signature {
    let points = (0..k)
        .map(|_| {
            (0..dim)
                .map(|_| match mode {
                    Mode::Grid => rng.below(3) as f64,
                    _ => 4.0 * rng.unit() - 2.0,
                })
                .collect()
        })
        .collect();
    let mut weights: Vec<f64> = (0..k)
        .map(|_| match mode {
            Mode::Integer | Mode::Grid => (1 + rng.below(5)) as f64,
            Mode::Real => 1.0 - rng.unit(),
            Mode::Zeros => {
                if rng.below(3) == 0 {
                    0.0
                } else {
                    1.0 - rng.unit()
                }
            }
        })
        .collect();
    // A signature needs some mass; keep the first weight positive.
    if weights.iter().all(|&w| w == 0.0) {
        weights[0] = 1.0;
    }
    for w in &mut weights {
        *w *= mass;
    }
    Signature::new(points, weights).unwrap()
}

/// Solve one pair through both scratch entry points and fold the
/// distance bits and the flow plan into `h`.
fn fold_pair(h: &mut Fnv, a: &Signature, b: &Signature, scratch: &mut TransportScratch) {
    match emd_with(a, b, &Euclidean, scratch) {
        Ok(d) => h.word(d.to_bits()),
        Err(_) => h.word(u64::MAX),
    }
    match emd_with_flow_with(a, b, &Euclidean, scratch) {
        Ok((d, plan)) => {
            h.word(d.to_bits());
            h.word(plan.total_cost().to_bits());
            h.word(plan.total_flow().to_bits());
            h.word(plan.flows().len() as u64);
            for &(i, j, f) in plan.flows() {
                h.word(i as u64);
                h.word(j as u64);
                h.word(f.to_bits());
            }
        }
        Err(_) => h.word(u64::MAX - 1),
    }
}

/// The hash over the whole grid and the scratch's final counters.
fn grid_hash() -> (u64, TransportStats) {
    let mut h = Fnv::new();
    let mut scratch = TransportScratch::new();
    let mut rng = SplitMix(0x5eed_0e3d);
    let sizes = 1..=40usize;
    for dim in [1usize, 2, 4] {
        for ka in sizes.clone() {
            // Every side size meets a spread of partners: a fixed
            // stride through 1..=40 keeps the grid small but still
            // pairs small with large, square with skinny.
            for kb in sizes.clone().filter(|kb| (kb + 3 * ka + dim) % 7 == 0) {
                let mode = MODES[rng.below(MODES.len() as u64) as usize];
                // Unequal masses a third of the time, on either side.
                let (ma, mb) = match rng.below(3) {
                    0 => (1.0, 1.0),
                    1 => (1.7, 1.0),
                    _ => (1.0, 2.3),
                };
                let a = signature(&mut rng, ka, dim, mode, ma);
                let b = signature(&mut rng, kb, dim, mode, mb);
                fold_pair(&mut h, &a, &b, &mut scratch);
            }
        }
    }
    // The k-means shape of the EMD-bound workload: 4-D, 32 × 32.
    for pair in 0..12 {
        let mode = if pair % 2 == 0 {
            Mode::Integer
        } else {
            Mode::Real
        };
        let a = signature(&mut rng, 32, 4, mode, 1.0);
        let b = signature(&mut rng, 32, 4, mode, 1.0);
        fold_pair(&mut h, &a, &b, &mut scratch);
    }
    let stats = scratch.stats();
    h.word(stats.solves);
    h.word(stats.pivots);
    (h.0, stats)
}

#[test]
fn emd_output_bits_and_pivot_counts_are_pinned() {
    let (hash, stats) = grid_hash();
    assert_eq!(
        (stats.solves, stats.pivots),
        (1396, 59496),
        "solve/pivot totals moved"
    );
    assert_eq!(hash, 16_888_232_345_434_139_192);
}
