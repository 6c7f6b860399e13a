//! The paper's statistical contract, checked as distributions rather
//! than as bits: false alarms stay controlled under no change, and a
//! real change is detected.
//!
//! **False alarms.** Under no change, the scores at `t` and at `t − τ'`
//! estimate the same value θ. The alert `θ_lo(t) > θ_up(t − τ')`
//! (Eqs. 18 and 20) implies `θ_lo(t) > θ` or `θ_up(t − τ') < θ`; if the
//! bootstrap interval is valid, each has probability at most `α/2`, so
//! the per-point false-alarm rate is at most `α`. The gate counts alerts
//! over `N` stationary points and requires the count to stay within `α`
//! plus three binomial standard deviations, `N·α + 3·sqrt(N·α·(1 − α))`:
//! a detector whose rate is exactly `α` exceeds that with probability
//! ≈ 0.1%.
//!
//! Overlapping windows make neighbouring points of one sequence
//! strongly dependent, so every counted point comes from its own
//! sequence. A sequence holds exactly `τ + 2τ'` bags, the bags the
//! alert at its last inspection point reads; no two counted points
//! share a bag, a signature seed or a bootstrap seed, and the `N`
//! indicators are independent.
//!
//! **Power.** The §5.1 Dataset-4 template (the generator of the
//! `exp_power` experiment) at jump magnitude 6, where the paper's
//! Fig. 6 alerts: the alert must land within ±1 of the jump in nearly
//! every replication.
//!
//! **Runtime.** Under the debug profile of `cargo test` the false-alarm
//! gate runs 1000 sequences on two threads in about 14 s on a 2-core
//! x86-64 machine and the power check takes about 2 s; a release build
//! runs both in about 1.3 s.
//!
//! A CI that is too narrow fails the gate: computing the interval at
//! `α = 0.5` while the contract still claims 0.05 gave 115 false alerts
//! in 1000 points (71 with histogram signatures, 44 with k-means), a
//! rate of 0.115 against the bound of 0.0707. At the claimed `α` the
//! detector is conservative: 1 alert in 1000.

use bags_cpd::stats::{seeded_rng, MultivariateNormal, Normal, Poisson};
use bags_cpd::{Bag, BootstrapConfig, Detector, DetectorConfig, SignatureMethod};

/// The claimed significance level of every interval in this file.
const ALPHA: f64 = 0.05;
/// Bootstrap replicates per inspection point.
const REPLICATES: usize = 200;
/// Window lengths: the paper's §5 setting.
const TAU: usize = 5;
const TAU_PRIME: usize = 5;
/// Independent stationary points per signature method.
const POINTS_PER_METHOD: u64 = 500;

fn detector(signature: SignatureMethod) -> Detector {
    Detector::new(DetectorConfig {
        tau: TAU,
        tau_prime: TAU_PRIME,
        signature,
        bootstrap: BootstrapConfig {
            replicates: REPLICATES,
            alpha: ALPHA,
            ..Default::default()
        },
        ..DetectorConfig::default()
    })
    .expect("valid config")
}

/// `n` stationary 1-D bags: standard normal points, sizes `~ Poisson(50)`
/// as in the paper's synthetic datasets.
fn stationary_bags(n: usize, seed: u64) -> Vec<Bag> {
    let mut rng = seeded_rng(seed);
    let sizes = Poisson::new(50.0);
    let noise = Normal::new(0.0, 1.0);
    (0..n)
        .map(|_| {
            let k = sizes.sample(&mut rng).max(2) as usize;
            Bag::from_scalars((0..k).map(|_| noise.sample(&mut rng)))
        })
        .collect()
}

/// Alerts over `POINTS_PER_METHOD` independent stationary points, one
/// per sequence of `τ + 2τ'` bags (the last inspection point of such a
/// sequence is the only one with an interval one test window back).
fn false_alerts(signature: SignatureMethod, seed_base: u64) -> u64 {
    let det = detector(signature);
    let mut alerts = 0;
    for i in 0..POINTS_PER_METHOD {
        let bags = stationary_bags(TAU + 2 * TAU_PRIME, seed_base + i);
        let out = det
            .analyze(&bags, seed_base + i)
            .expect("analysis succeeds");
        let eligible: Vec<_> = out.points.iter().filter(|p| p.xi.is_some()).collect();
        assert_eq!(eligible.len(), 1, "one alert-eligible point per sequence");
        alerts += u64::from(eligible[0].alert);
    }
    alerts
}

#[test]
fn false_alarm_rate_stays_within_alpha_under_no_change() {
    let (hist, kmeans) = std::thread::scope(|s| {
        let hist = s.spawn(|| false_alerts(SignatureMethod::Histogram { width: 0.5 }, 100_000));
        let kmeans = s.spawn(|| false_alerts(SignatureMethod::KMeans { k: 8 }, 200_000));
        (hist.join().unwrap(), kmeans.join().unwrap())
    });
    let n = 2 * POINTS_PER_METHOD;
    let nf = n as f64;
    let bound = nf * ALPHA + 3.0 * (nf * ALPHA * (1.0 - ALPHA)).sqrt();
    let alerts = hist + kmeans;
    assert!(
        alerts as f64 <= bound,
        "{alerts} false alerts over {n} stationary points (histogram {hist}, k-means {kmeans}): \
         rate {:.4} exceeds alpha {ALPHA} + 3 binomial sd = {:.4}",
        alerts as f64 / nf,
        bound / nf
    );
}

/// The §5.1 Dataset-4 template with a mean jump of `magnitude` at
/// t = 10: 20 bags of 2-D unit Gaussians, sizes `~ Poisson(50)`.
fn jump_bags(magnitude: f64, seed: u64) -> Vec<Bag> {
    let mut rng = seeded_rng(seed);
    let sizes = Poisson::new(50.0);
    (0..20)
        .map(|t| {
            let x = if t < 10 {
                magnitude / 2.0
            } else {
                -magnitude / 2.0
            };
            let d = MultivariateNormal::isotropic(vec![x, 0.0], 1.0);
            let n = sizes.sample(&mut rng).max(2) as usize;
            Bag::new(d.sample_n(n, &mut rng))
        })
        .collect()
}

#[test]
fn dataset4_jump_of_six_is_detected_within_one_bag() {
    const REPS: u64 = 30;
    const MIN_DETECTED: u64 = 28;
    let det = detector(SignatureMethod::KMeans { k: 8 });
    let detected = (0..REPS)
        .filter(|rep| {
            let out = det
                .analyze(&jump_bags(6.0, 10_000 + rep), 20_000 + rep)
                .expect("analysis succeeds");
            out.alerts().iter().any(|&t| t.abs_diff(10) <= 1)
        })
        .count() as u64;
    assert!(
        detected >= MIN_DETECTED,
        "jump of 6 detected within one bag in {detected}/{REPS} replications \
         (need {MIN_DETECTED})"
    );
}
