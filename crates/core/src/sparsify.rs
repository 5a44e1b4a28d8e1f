//! Sparsification primitives: channel-wise and vector-wise (row) pruning of
//! coefficient matrices (Step 3 of Algorithm 1).
//!
//! The paper enforces two granularities simultaneously:
//!
//! * **channel-wise** — whole input channels (groups of `R` consecutive rows
//!   of the reshaped weight matrix) are pruned once, up front, driven by a
//!   per-channel saliency (the paper uses batch-norm scaling factors; with
//!   synthetic weights we use the channel's L2 norm — see DESIGN.md);
//! * **vector-wise** — individual rows (length-`S` weight vectors) are
//!   zeroed by magnitude, which is the structured sparsity the accelerator's
//!   index selector exploits.

use crate::VectorSparsity;
use se_tensor::Mat;

/// Root-mean-square of a slice (0 for empty).
fn rms(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / xs.len() as f64).sqrt() as f32
}

/// Applies the vector-wise sparsification policy in place, zeroing whole
/// rows of `ce`. Returns the number of rows that are zero afterwards
/// (including rows that were already zero).
///
/// # Examples
///
/// ```
/// use se_core::{sparsify, VectorSparsity};
/// use se_tensor::Mat;
///
/// let mut ce = Mat::from_rows(&[&[1.0, 1.0], &[0.001, 0.0], &[0.5, 0.5]]).unwrap();
/// let zeroed = sparsify::vector_sparsify(&mut ce, VectorSparsity::Threshold(0.01));
/// assert_eq!(zeroed, 1);
/// assert_eq!(ce.row(1), &[0.0, 0.0]);
/// ```
pub fn vector_sparsify(ce: &mut Mat, policy: VectorSparsity) -> usize {
    let rows = ce.rows();
    match policy {
        VectorSparsity::None => (0..rows).filter(|&i| rms(ce.row(i)) == 0.0).count(),
        VectorSparsity::Threshold(theta) => {
            let norms = row_norms(ce);
            zero_rows_below(ce, &norms, theta)
        }
        VectorSparsity::KeepFraction(frac) => {
            let keep = (((rows as f64) * f64::from(frac)).round() as usize).min(rows);
            let mut norms: Vec<(usize, f32)> = (0..rows).map(|i| (i, rms(ce.row(i)))).collect();
            // Sort by descending norm; stable on ties so results are
            // deterministic.
            norms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite norms"));
            for &(i, _) in norms.iter().skip(keep) {
                ce.row_mut(i).fill(0.0);
            }
            (0..rows).filter(|&i| ce.row(i).iter().all(|&x| x == 0.0)).count()
        }
        VectorSparsity::RelativeThreshold(frac) => {
            let norms = row_norms(ce);
            // Mean over the live (non-zero) rows, summed in row order.
            let (sum, live) = norms
                .iter()
                .filter(|&&n| n > 0.0)
                .fold((0.0f32, 0usize), |(sum, live), &n| (sum + n, live + 1));
            if live == 0 {
                return rows;
            }
            zero_rows_below(ce, &norms, frac * (sum / live as f32))
        }
    }
}

/// The RMS of every row of `ce`.
fn row_norms(ce: &Mat) -> Vec<f32> {
    (0..ce.rows()).map(|i| rms(ce.row(i))).collect()
}

/// Zeros every row of `ce` whose norm is below `theta`, returning the
/// number of rows that are all zero afterwards.
fn zero_rows_below(ce: &mut Mat, norms: &[f32], theta: f32) -> usize {
    let mut zeroed = 0;
    for (i, &n) in norms.iter().enumerate() {
        let prune = n < theta;
        let mut all_zero = true;
        for v in ce.row_mut(i) {
            // A select, not a branch: which rows fall below `theta`
            // follows no pattern the branch predictor could learn.
            *v = if prune { 0.0 } else { *v };
            all_zero &= *v == 0.0;
        }
        zeroed += usize::from(all_zero);
    }
    zeroed
}

/// Computes a per-channel keep mask for a reshaped weight matrix whose rows
/// come in consecutive groups of `group_rows` (one group per input channel).
///
/// A channel is pruned (`false`) when its saliency — the RMS of its rows —
/// falls below `rel_threshold ×` the mean channel saliency. This mirrors the
/// paper's batch-norm-scale criterion with the norm standing in for the
/// unavailable BN statistics.
///
/// Returns one flag per channel. If `group_rows` is zero or does not divide
/// the row count, every channel is kept (no pruning is better than wrong
/// pruning).
pub fn channel_mask(w: &Mat, group_rows: usize, rel_threshold: f32) -> Vec<bool> {
    if group_rows == 0 || w.rows() % group_rows != 0 {
        return vec![true; w.rows().checked_div(group_rows).unwrap_or(0)];
    }
    let channels = w.rows() / group_rows;
    let saliency: Vec<f32> = (0..channels)
        .map(|c| {
            let start = c * group_rows;
            let elems: Vec<f32> =
                (start..start + group_rows).flat_map(|r| w.row(r).iter().copied()).collect();
            rms(&elems)
        })
        .collect();
    let mean = saliency.iter().sum::<f32>() / channels.max(1) as f32;
    saliency.iter().map(|&s| s >= rel_threshold * mean).collect()
}

/// Zeros every row belonging to a pruned channel (mask `false`), in place.
///
/// Rows are grouped as in [`channel_mask`]. Group/row mismatches leave the
/// matrix untouched.
pub fn apply_channel_mask(ce: &mut Mat, mask: &[bool], group_rows: usize) {
    if group_rows == 0 || ce.rows() != mask.len() * group_rows {
        return;
    }
    for (c, &keep) in mask.iter().enumerate() {
        if keep {
            continue;
        }
        for r in c * group_rows..(c + 1) * group_rows {
            ce.row_mut(r).fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_zeroes_small_rows() {
        let mut ce = Mat::from_rows(&[&[0.002, 0.001], &[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::Threshold(0.01));
        assert_eq!(zeroed, 2); // the small row and the already-zero row
        assert_eq!(ce.row(0), &[0.0, 0.0]);
        assert_eq!(ce.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn none_policy_only_counts() {
        let mut ce = Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::None);
        assert_eq!(zeroed, 1);
        assert_eq!(ce.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn keep_fraction_exact_count() {
        let mut ce = Mat::from_rows(&[&[4.0, 0.0], &[1.0, 0.0], &[3.0, 0.0], &[2.0, 0.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(0.5));
        assert_eq!(zeroed, 2);
        // Largest two rows (4.0 and 3.0) survive.
        assert_eq!(ce.row(0), &[4.0, 0.0]);
        assert_eq!(ce.row(1), &[0.0, 0.0]);
        assert_eq!(ce.row(2), &[3.0, 0.0]);
        assert_eq!(ce.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn keep_fraction_one_keeps_everything() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(1.0));
        assert_eq!(zeroed, 0);
    }

    #[test]
    fn keep_fraction_zero_zeroes_everything() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let zeroed = vector_sparsify(&mut ce, VectorSparsity::KeepFraction(0.0));
        assert_eq!(zeroed, 2);
        assert_eq!(ce.sparsity(), 1.0);
    }

    #[test]
    fn channel_mask_prunes_weak_channels() {
        // 3 channels of 2 rows; channel 1 is tiny.
        let w = Mat::from_rows(&[
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[0.001, 0.0],
            &[0.0, 0.001],
            &[2.0, 2.0],
            &[2.0, 2.0],
        ])
        .unwrap();
        let mask = channel_mask(&w, 2, 0.1);
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn apply_channel_mask_zeroes_groups() {
        let mut ce = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]).unwrap();
        apply_channel_mask(&mut ce, &[false, true], 2);
        assert_eq!(ce.row(0), &[0.0]);
        assert_eq!(ce.row(1), &[0.0]);
        assert_eq!(ce.row(2), &[3.0]);
    }

    #[test]
    fn mismatched_groups_are_noops() {
        let w = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        // 2 does not divide 3: everything kept.
        assert!(channel_mask(&w, 2, 10.0).iter().all(|&b| b));
        let mut ce = w.clone();
        apply_channel_mask(&mut ce, &[false], 2);
        assert_eq!(ce, w);
    }
}
