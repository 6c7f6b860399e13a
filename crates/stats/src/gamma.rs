//! Gamma sampling: an exact exponential draw for shape 1, the
//! Marsaglia–Tsang squeeze method for every other shape.
//!
//! The Dirichlet sampler of the Bayesian bootstrap (§4.2 of the paper)
//! normalizes independent Gamma draws, so this is on the hot path of the
//! confidence-interval computation. Under equal window weights (the
//! paper's §5 setting) every concentration is exactly 1, the flat
//! `Dir(1, …, 1)` of Rubin's Bayesian bootstrap (Appendix A), and
//! `Gamma(1, 1)` is `Exp(1)`: one uniform and one logarithm,
//! `−ln U` (Devroye, *Non-Uniform Random Variate Generation*, 1986,
//! ch. V), instead of a rejection loop around a polar normal. Shape 1 is
//! matched exactly, so any other shape — the discounted weights'
//! concentrations, or a shape a few ulps off 1 — keeps Marsaglia–Tsang
//! and its draws bit for bit.

use crate::normal::sample_standard_normal;
use rand::Rng;

/// Gamma distribution with shape `alpha` and scale `theta` (mean
/// `alpha * theta`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    theta: f64,
}

impl Gamma {
    /// Construct from shape and scale.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and strictly positive.
    pub fn new(alpha: f64, theta: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "Gamma: shape must be > 0");
        assert!(theta.is_finite() && theta > 0.0, "Gamma: scale must be > 0");
        Gamma { alpha, theta }
    }

    /// Shape parameter.
    pub fn shape(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter.
    pub fn scale(&self) -> f64 {
        self.theta
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.theta * sample_gamma_shape(self.alpha, rng)
    }
}

/// Sample `Gamma(alpha, 1)`: `−ln U` for `alpha == 1`, otherwise
/// Marsaglia–Tsang (2000).
///
/// For `alpha < 1` the standard boost is used:
/// `Gamma(alpha) = Gamma(alpha + 1) * U^(1/alpha)`.
pub fn sample_gamma_shape(alpha: f64, rng: &mut impl Rng) -> f64 {
    GammaShape::new(alpha).sample(rng)
}

/// The sampler for one fixed shape, set up once: for shape 1 the
/// exponential draw; otherwise the Marsaglia–Tsang constants
/// `d = alpha' - 1/3`, `c = 1/sqrt(9 d)` (with `alpha' = alpha + 1`
/// under the small-shape boost), and the boost exponent `1/alpha` when
/// `alpha < 1`.
///
/// Batched callers — the bootstrap draws `replicates × dim` Gamma
/// variates per evaluation with the same shape down each column — hoist
/// [`GammaShape::new`] out of the replicate loop instead of redoing the
/// divisions and square root on every draw. Draws consume the RNG in
/// exactly the order of [`sample_gamma_shape`] and perform the same
/// float operations, so results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaShape(Sampler);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sampler {
    /// Shape exactly 1: `Exp(1)` as `−ln U`.
    Exponential,
    /// Any other shape: Marsaglia–Tsang.
    Squeeze {
        d: f64,
        c: f64,
        /// `1/alpha` when the shape is below 1 (the boost exponent).
        boost_inv_alpha: Option<f64>,
    },
}

impl GammaShape {
    /// Set up the sampler for shape `alpha`.
    pub fn new(alpha: f64) -> GammaShape {
        debug_assert!(alpha > 0.0);
        if alpha == 1.0 {
            return GammaShape(Sampler::Exponential);
        }
        let (effective, boost_inv_alpha) = if alpha < 1.0 {
            (alpha + 1.0, Some(1.0 / alpha))
        } else {
            (alpha, None)
        };
        let d = effective - 1.0 / 3.0;
        GammaShape(Sampler::Squeeze {
            d,
            c: 1.0 / (9.0 * d).sqrt(),
            boost_inv_alpha,
        })
    }

    /// Draw one `Gamma(alpha, 1)` sample — bit-identical to
    /// [`sample_gamma_shape`] from the same RNG state.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        match self.0 {
            Sampler::Exponential => sample_exp1(rng),
            Sampler::Squeeze {
                d,
                c,
                boost_inv_alpha,
            } => sample_squeeze(d, c, boost_inv_alpha, rng),
        }
    }
}

/// `Exp(1)` as `−ln U`, with `U = (k + 1/2)·2⁻⁵²` for the top 52 bits
/// `k` of one `next_u64`: `U` lies strictly inside (0, 1) and every sum
/// is exact, so each draw is finite and positive (at most ≈ 36.7).
fn sample_exp1(rng: &mut impl Rng) -> f64 {
    let k = (rng.next_u64() >> 12) as f64;
    -((k + 0.5) * (1.0 / (1u64 << 52) as f64)).ln()
}

/// One Marsaglia–Tsang draw with precomputed constants.
fn sample_squeeze(d: f64, c: f64, boost_inv_alpha: Option<f64>, rng: &mut impl Rng) -> f64 {
    let core = loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen();
        // Squeeze test first (cheap), then the full log test.
        if u < 1.0 - 0.0331 * (x * x) * (x * x) {
            break d * v3;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            break d * v3;
        }
    };
    match boost_inv_alpha {
        // U in (0,1]; `1 - gen::<f64>()` avoids U = 0 exactly.
        Some(inv_alpha) => core * (1.0 - rng.gen::<f64>()).powf(inv_alpha),
        None => core,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::descriptive::{mean, sample_var};
    use crate::rng::seeded_rng;

    fn draw(alpha: f64, theta: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        let g = Gamma::new(alpha, theta);
        (0..n).map(|_| g.sample(&mut rng)).collect()
    }

    #[test]
    fn moments_shape_above_one() {
        let xs = draw(3.0, 2.0, 100_000, 11);
        // mean = alpha*theta = 6, var = alpha*theta^2 = 12
        assert!((mean(&xs) - 6.0).abs() < 0.1, "mean {}", mean(&xs));
        assert!(
            (sample_var(&xs) - 12.0).abs() < 0.6,
            "var {}",
            sample_var(&xs)
        );
    }

    #[test]
    fn moments_shape_below_one() {
        let xs = draw(0.5, 1.0, 200_000, 12);
        assert!((mean(&xs) - 0.5).abs() < 0.02);
        assert!((sample_var(&xs) - 0.5).abs() < 0.05);
    }

    #[test]
    fn moments_shape_one_is_exponential() {
        // Shape 1 draws Exp(1) directly: mean θ, variance θ², and
        // P(X > θ) = 1/e (tolerances ≈ 5 standard errors).
        let xs = draw(1.0, 3.0, 100_000, 13);
        assert!(xs.iter().all(|&x| x.is_finite() && x > 0.0));
        assert!((mean(&xs) - 3.0).abs() < 0.08);
        assert!((sample_var(&xs) - 9.0).abs() < 0.6);
        let tail = xs.iter().filter(|&&x| x > 3.0).count() as f64 / xs.len() as f64;
        assert!((tail - (-1.0f64).exp()).abs() < 0.008, "P(X > 3) = {tail}");
    }

    #[test]
    fn samples_are_positive() {
        for seed in 0..5 {
            for &alpha in &[0.2, 0.9, 1.0, 5.0, 50.0] {
                let xs = draw(alpha, 1.0, 1000, 100 + seed);
                assert!(xs.iter().all(|&x| x > 0.0 && x.is_finite()));
            }
        }
    }

    /// The pre-`GammaShape` sampler, verbatim: the recursive
    /// Marsaglia–Tsang reference that the precomputed form must
    /// reproduce bit-for-bit on every shape but exactly 1.
    pub(crate) fn reference_sample(alpha: f64, rng: &mut impl Rng) -> f64 {
        if alpha < 1.0 {
            let boost = reference_sample(alpha + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>();
            return boost * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = sample_standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen();
            if u < 1.0 - 0.0331 * (x * x) * (x * x) {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }

    #[test]
    fn precomputed_shape_is_bit_identical_to_reference() {
        // Shape 1 takes the exponential draw; its neighbours one ulp
        // away on either side must not.
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let above_one = f64::from_bits(1.0f64.to_bits() + 1);
        for &alpha in &[0.05, 0.2, 0.9, below_one, above_one, 1.3, 5.0, 50.0] {
            let shape = GammaShape::new(alpha);
            let mut a = seeded_rng(alpha.to_bits());
            let mut b = seeded_rng(alpha.to_bits());
            for i in 0..2000 {
                assert_eq!(
                    shape.sample(&mut a).to_bits(),
                    reference_sample(alpha, &mut b).to_bits(),
                    "alpha {alpha}, draw {i}"
                );
            }
        }
    }

    /// A generator that returns one fixed word and counts the calls.
    struct Fixed {
        word: u64,
        calls: usize,
    }

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            self.word
        }
    }

    #[test]
    fn shape_one_draws_are_finite_and_positive_at_the_extreme_words() {
        let shape = GammaShape::new(1.0);
        for word in [0, 1, 1 << 12, u64::MAX >> 1, u64::MAX - (1 << 12), u64::MAX] {
            let mut rng = Fixed { word, calls: 0 };
            let x = shape.sample(&mut rng);
            assert!(x.is_finite() && x > 0.0, "word {word:#x} drew {x}");
            assert_eq!(rng.calls, 1, "one word per draw");
        }
        // The extremes: U = 2^-53 and U = 1 - 2^-53.
        let mut rng = Fixed { word: 0, calls: 0 };
        assert_eq!(shape.sample(&mut rng), 53.0 * std::f64::consts::LN_2);
        let mut rng = Fixed {
            word: u64::MAX,
            calls: 0,
        };
        assert_eq!(shape.sample(&mut rng), -(1.0 - 2f64.powi(-53)).ln());
    }

    #[test]
    #[should_panic(expected = "shape must be > 0")]
    fn zero_shape_panics() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "scale must be > 0")]
    fn zero_scale_panics() {
        Gamma::new(1.0, 0.0);
    }
}
