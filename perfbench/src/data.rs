//! Seeded inputs: bags of Gaussian points whose mean shifts at planted
//! bag indices.
//!
//! Every value is a pure function of `(seed, sequence or stream, bag
//! index, row, coordinate)`, so any bag can be rebuilt on demand — the
//! CSV writer and the output checks see the same numbers without
//! keeping the whole input in memory. Coordinates
//! are whole thousandths: the CSV text `-1.234` parses to exactly
//! `-1234.0 / 1000.0`, so bags rebuilt here equal the bags the program
//! parsed from its input, bit for bit.

use bagcpd::{derive_seed, Bag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;

/// Shape of one bag stream.
#[derive(Debug, Clone, Copy)]
pub struct BagShape {
    /// Coordinates per point.
    pub dim: usize,
    /// Points per bag.
    pub m: usize,
    /// Size of each mean shift, in noise standard deviations.
    pub shift: f64,
}

/// Level of bag `b` given the planted change indices: each change
/// toggles the mean between 0 and `shift`.
fn level(b: usize, changes: &[usize], shift: f64) -> f64 {
    let crossed = changes.iter().filter(|&&c| c <= b).count();
    if crossed % 2 == 1 {
        shift
    } else {
        0.0
    }
}

/// Standard normal draw (Box–Muller, one value per call).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bag `b` of sequence/stream `key` as whole thousandths, row-major
/// (`m * dim` values).
pub fn bag_millis(seed: u64, key: u64, b: usize, shape: &BagShape, changes: &[usize]) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(derive_seed(seed, key), b as u64));
    let mu = level(b, changes, shape.shift);
    (0..shape.m * shape.dim)
        .map(|_| ((mu + normal(&mut rng)) * 1000.0).round() as i64)
        .collect()
}

/// Bag `b` of `key` as the program sees it after parsing.
pub fn bag(seed: u64, key: u64, b: usize, shape: &BagShape, changes: &[usize]) -> Bag {
    Bag::new(
        bag_millis(seed, key, b, shape, changes)
            .chunks(shape.dim)
            .map(|row| row.iter().map(|&v| v as f64 / 1000.0).collect())
            .collect(),
    )
}

/// Append `v / 1000` in plain decimal (`-1.234`).
pub fn write_milli(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let a = v.unsigned_abs();
    let _ = write!(out, "{}.{:03}", a / 1000, a % 1000);
}

/// Append the CSV lines of one bag: `t,x1,...,xd\n` per point.
pub fn write_bag_lines(out: &mut Vec<u8>, t: usize, millis: &[i64], dim: usize) {
    for row in millis.chunks(dim) {
        let _ = write!(out, "{t}");
        for &v in row {
            out.push(b',');
            write_milli(out, v);
        }
        out.push(b'\n');
    }
}

/// Recall and false alerts against planted changes: a change counts as
/// detected when some alert lies within `tau_prime` bags of it, and an
/// alert counts as false when no change lies within `tau_prime` of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectCounts {
    pub planted: u64,
    pub detected: u64,
    pub false_alerts: u64,
}

impl DetectCounts {
    pub fn add(&mut self, other: DetectCounts) {
        self.planted += other.planted;
        self.detected += other.detected;
        self.false_alerts += other.false_alerts;
    }

    pub fn score(alerts: &[usize], changes: &[usize], tau_prime: usize) -> DetectCounts {
        let near = |a: usize, c: usize| a.abs_diff(c) <= tau_prime;
        DetectCounts {
            planted: changes.len() as u64,
            detected: changes
                .iter()
                .filter(|&&c| alerts.iter().any(|&a| near(a, c)))
                .count() as u64,
            false_alerts: alerts
                .iter()
                .filter(|&&a| !changes.iter().any(|&c| near(a, c)))
                .count() as u64,
        }
    }
}
