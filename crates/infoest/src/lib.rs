//! Distance-based information estimators for weighted observations
//! (Hino & Murata, *Neural Networks* 2013), as used in §3.3 of the
//! paper.
//!
//! Given weighted sets `S = {(S_i, ψ_i)}` and `S' = {(S'_j, ψ'_j)}`
//! embedded in a metric space with pairwise distances available, the
//! three estimators are
//!
//! - information content `I(S; S') = c + d Σ_j ψ'_j log dist(S'_j, S)`,
//! - auto-entropy `H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) · log dist(S_i, S_j)`,
//! - cross-entropy `H(S, S') = c + d Σ_i Σ_j ψ_i ψ'_j log dist(S_i, S'_j)`.
//!
//! The constants `c` and `d` (the effective embedding dimension) cancel
//! in the change-point scores of Eqs. (16)–(17), which are differences of
//! these quantities; the defaults are therefore `c = 0`, `d = 1`. They
//! remain configurable for uses where absolute entropy estimates matter.
//!
//! This crate is deliberately metric-agnostic: it consumes plain distance
//! slices/matrices, so the caller decides whether distances are EMDs
//! between signatures (as in the paper) or anything else.
//!
//! Every estimator also has a `_logs` form that reads a [`LogBlock`]:
//! the floored log distances of a matrix, taken once. A Bayesian
//! bootstrap re-weights one fixed matrix many times, so its replicates
//! read the cached logs instead of the raw distances and never call
//! `ln`. Both forms share one body and agree bit for bit.

pub mod estimators;
pub mod matrix;

pub use estimators::{
    auto_entropy, auto_entropy_block, auto_entropy_logs, cross_entropy, cross_entropy_block,
    cross_entropy_logs, information_content, information_content_knn, information_content_knn_with,
    information_content_logs, EstimatorConfig, LogBlock, Normalized,
};
pub use matrix::DistanceMatrix;
