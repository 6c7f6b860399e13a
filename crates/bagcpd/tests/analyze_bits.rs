//! Pins the exact bits of `Detector::analyze` output.
//!
//! Every score, interval bound, ξ and alert flag over a fixed grid of
//! inputs (seeds × window shapes × score kinds × weightings × bootstrap
//! thread counts) is folded into one FNV-1a hash. Any change to the
//! values or to the summation order of the estimators, the bootstrap or
//! the EMD shows up as a different hash. The pinned constant was
//! captured before the bootstrap started reading a cached log-distance
//! block, so it also proves that change kept the output bit-identical.

use bagcpd::{
    Bag, BootstrapConfig, Detection, Detector, DetectorConfig, ScoreKind, SignatureMethod,
    Weighting,
};

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

    fn detection(&mut self, det: &Detection) {
        self.word(det.points.len() as u64);
        for p in &det.points {
            self.word(p.t as u64);
            self.word(p.score.to_bits());
            self.word(p.ci.lo.to_bits());
            self.word(p.ci.up.to_bits());
            self.word(p.xi.map_or(u64::MAX, f64::to_bits));
            self.word(u64::from(p.alert));
        }
    }
}

/// SplitMix64: a self-contained generator, so the input bags do not
/// depend on any library RNG stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 28 one-dimensional bags with a mean shift at bag 14. Bags 4 and 5
/// are copies, so their EMD is 0 and the estimators hit the log floor.
fn bags(seed: u64) -> Vec<Bag> {
    let mut state = seed;
    let mut out: Vec<Bag> = (0..28)
        .map(|t| {
            let shift = if t < 14 { 0.0 } else { 2.5 };
            Bag::from_scalars((0..30).map(|_| {
                let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                shift + 4.0 * (u - 0.5)
            }))
        })
        .collect();
    out[5] = out[4].clone();
    out
}

fn analyze_hash() -> u64 {
    let mut h = Fnv::new();
    for seed in [3u64, 17, 2024] {
        let data = bags(seed);
        for (tau, tau_prime) in [(5, 5), (3, 4), (4, 2)] {
            for score in [ScoreKind::SymmetrizedKl, ScoreKind::LikelihoodRatio] {
                for weighting in [Weighting::Equal, Weighting::Discounted] {
                    for threads in [1, 3] {
                        let det = Detector::new(DetectorConfig {
                            tau,
                            tau_prime,
                            score,
                            weighting,
                            signature: SignatureMethod::Histogram { width: 0.5 },
                            bootstrap: BootstrapConfig {
                                replicates: 64,
                                threads,
                                ..Default::default()
                            },
                            ..Default::default()
                        })
                        .expect("valid config");
                        let out = det.analyze(&data, seed).expect("analyze succeeds");
                        h.detection(&out);
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn analyze_output_bits_are_pinned() {
    assert_eq!(analyze_hash(), 18_064_378_787_385_694_085);
}
