//! Exact 1-D Earth Mover's Distance (equal-mass case).
//!
//! For two distributions on the line with equal total mass and
//! `d(x, y) = |x - y|`, the EMD equals the L1 distance between the CDFs:
//! `EMD = ∫ |F_a(x) - F_b(x)| dx / W` where `W` is the common mass.
//! [`emd_1d`] is an independent oracle the property tests compare the
//! general solver against.
//!
//! [`emd_line_with`] is the fast path (`O(n log n)` vs simplex): it
//! answers a signature pair in closed form exactly when the simplex
//! would solve a balanced 1-D problem — both sides 1-D, both masses
//! positive, and the masses equal under the simplex's own balance test.
//! Any other pair (bags of different size, i.e. partial matching;
//! higher dimensions) gets `None` and belongs to the simplex.
//!
//! **Bits.** The sweep and the simplex add up the same cost in different
//! orders, so in general they agree only to rounding (and to the
//! simplex's `1e-10` pricing tolerance). On the paper's 1-D signature —
//! a fixed-width histogram with origin 0, centres `(b + ½)·w` — with a
//! dyadic width (`w = 2⁻ᵏ`, e.g. 0.5) and integer counts, every
//! distance, product and partial sum of both methods is exact, and both
//! divide that exact total by the same mass: the results are
//! bit-identical. `tests/line_emd.rs` pins both regimes.

use crate::error::EmdError;
use crate::signature::Signature;
use crate::transport::TransportScratch;

/// The simplex's balance test: masses within this relative gap are
/// solved as one balanced problem (`solve_core` snaps the gap away);
/// wider gaps get a slack node, i.e. partial matching.
const BALANCE_TOL: f64 = 1e-12;

/// Exact 1-D EMD between weighted point sets of equal total mass.
///
/// Inputs are `(position, weight)` pairs in any order; weights must be
/// non-negative and the two total masses must agree to within a relative
/// `1e-9`. Returns cost per unit mass, matching Eq. (12).
///
/// # Errors
/// [`EmdError::NonFiniteInput`] for bad values, [`EmdError::ZeroMass`]
/// for empty/zero-mass input, and [`EmdError::InvalidSignature`] when the
/// masses differ (use the general solver for partial matches).
pub fn emd_1d(a: &[(f64, f64)], b: &[(f64, f64)]) -> Result<f64, EmdError> {
    for &(x, w) in a.iter().chain(b) {
        if !x.is_finite() || !w.is_finite() || w < 0.0 {
            return Err(EmdError::NonFiniteInput);
        }
    }
    let wa: f64 = a.iter().map(|&(_, w)| w).sum();
    let wb: f64 = b.iter().map(|&(_, w)| w).sum();
    if wa <= 0.0 || wb <= 0.0 {
        return Err(EmdError::ZeroMass);
    }
    if (wa - wb).abs() > 1e-9 * wa.max(wb) {
        return Err(EmdError::InvalidSignature(
            "emd_1d requires equal total mass",
        ));
    }

    // Sweep the merged event list accumulating |F_a - F_b| between
    // consecutive positions. Signs: +w for a-events, -w for b-events.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(a.len() + b.len());
    events.extend(a.iter().copied());
    events.extend(b.iter().map(|&(x, w)| (x, -w)));
    Ok(emd_1d_events(&mut events, wa))
}

/// CDF-sweep core of [`emd_1d`] over a pre-merged, pre-validated event
/// list: `(position, signed weight)` pairs (`+w` for side a, `-w` for
/// side b) with `common_mass` the (equal) total mass of either side.
/// Sorts `events` in place and allocates nothing — the bound ladder in
/// [`crate::bounds`] runs this per coordinate on a scratch buffer.
///
/// The caller is responsible for the [`emd_1d`] preconditions: finite
/// positions, finite weights, positive equal masses.
pub fn emd_1d_events(events: &mut [(f64, f64)], common_mass: f64) -> f64 {
    debug_assert!(!events.is_empty() && common_mass > 0.0);
    events.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));

    let mut cost = 0.0;
    let mut cdf_gap: f64 = 0.0; // F_a(x) - F_b(x), unnormalized
    let mut prev_x = events[0].0;
    for &(x, signed_w) in events.iter() {
        cost += cdf_gap.abs() * (x - prev_x);
        cdf_gap += signed_w;
        prev_x = x;
    }
    cost / common_mass
}

/// Closed-form EMD (Eq. 12) of a balanced 1-D signature pair under
/// `d(x, y) = |x − y|` — the Euclidean, Manhattan and Chebyshev ground
/// distances all reduce to it on a line.
///
/// Returns `Some` exactly when both signatures are 1-D, both masses
/// are positive, and `|Σa − Σb| <= 1e-12 · max(Σa, Σb)` (the simplex's
/// own balance test). The signed event list is built in `scratch`, the
/// CDF gap is swept by [`emd_1d_events`], and the cost is divided by
/// `Σa`, the flow the simplex ships on a balanced problem. Counts as
/// one solve with zero pivots in [`TransportScratch::stats`]; allocates
/// nothing once the scratch has seen a pair of this size.
///
/// Any other pair gets `None` without touching the counters: solve it
/// with the simplex ([`crate::emd_with`]), which also reports the
/// errors (dimension mismatch, zero mass).
pub fn emd_line_with(a: &Signature, b: &Signature, scratch: &mut TransportScratch) -> Option<f64> {
    if a.dim() != 1 || b.dim() != 1 {
        return None;
    }
    let wa = a.total_weight();
    let wb = b.total_weight();
    if wa <= 0.0 || wb <= 0.0 || (wa - wb).abs() > BALANCE_TOL * wa.max(wb) {
        return None;
    }
    // Zero weights are dropped, as the simplex filters them out.
    let events = &mut scratch.events;
    events.clear();
    events.extend(a.iter().filter(|&(_, w)| w > 0.0).map(|(p, w)| (p[0], w)));
    events.extend(b.iter().filter(|&(_, w)| w > 0.0).map(|(q, w)| (q[0], -w)));
    let d = emd_1d_events(events, wa);
    scratch.solves += 1;
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_masses() {
        let d = emd_1d(&[(0.0, 1.0)], &[(4.0, 1.0)]).unwrap();
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn identical_distributions() {
        let a = [(0.0, 1.0), (2.0, 3.0), (5.0, 0.5)];
        assert!(emd_1d(&a, &a).unwrap().abs() < 1e-12);
    }

    #[test]
    fn translation_shifts_by_delta() {
        let a = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)];
        let b = [(0.7, 1.0), (1.7, 1.0), (2.7, 1.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 0.7).abs() < 1e-12, "translation invariance: {d}");
    }

    #[test]
    fn split_mass() {
        // Unit mass at 0 vs half at -1 and half at +1: each half moves 1.
        let d = emd_1d(&[(0.0, 2.0)], &[(-1.0, 1.0), (1.0, 1.0)]).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_accepted() {
        let a = [(5.0, 1.0), (0.0, 1.0)];
        let b = [(1.0, 1.0), (4.0, 1.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = [(0.0, 1.0), (3.0, 2.0)];
        let b = [(1.0, 2.0), (2.0, 1.0)];
        assert!((emd_1d(&a, &b).unwrap() - emd_1d(&b, &a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance_of_weights() {
        // EMD is cost per unit mass: scaling all weights leaves it fixed.
        let a = [(0.0, 1.0), (2.0, 1.0)];
        let b = [(1.0, 1.0), (3.0, 1.0)];
        let a10 = [(0.0, 10.0), (2.0, 10.0)];
        let b10 = [(1.0, 10.0), (3.0, 10.0)];
        assert!((emd_1d(&a, &b).unwrap() - emd_1d(&a10, &b10).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn rejects_mass_mismatch() {
        assert!(matches!(
            emd_1d(&[(0.0, 1.0)], &[(0.0, 2.0)]),
            Err(EmdError::InvalidSignature(_))
        ));
    }

    #[test]
    fn rejects_zero_mass_and_nan() {
        assert_eq!(emd_1d(&[], &[(0.0, 1.0)]), Err(EmdError::ZeroMass));
        assert_eq!(
            emd_1d(&[(f64::NAN, 1.0)], &[(0.0, 1.0)]),
            Err(EmdError::NonFiniteInput)
        );
        assert_eq!(
            emd_1d(&[(0.0, -1.0)], &[(0.0, 1.0)]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn events_core_matches_wrapper() {
        let a = [(0.3, 1.5), (2.0, 0.5), (-1.0, 1.0)];
        let b = [(1.0, 2.0), (4.0, 1.0)];
        let via_wrapper = emd_1d(&a, &b).unwrap();
        let mut events: Vec<(f64, f64)> = a.to_vec();
        events.extend(b.iter().map(|&(x, w)| (x, -w)));
        let via_core = emd_1d_events(&mut events, 3.0);
        assert_eq!(via_wrapper.to_bits(), via_core.to_bits());
    }

    #[test]
    fn coincident_points_with_different_weights() {
        let a = [(0.0, 1.0), (0.0, 1.0)]; // mass 2 at origin
        let b = [(1.0, 2.0)];
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }
}
