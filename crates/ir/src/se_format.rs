//! The SmartExchange weight form: per layer, slices of a sparse
//! coefficient matrix `Ce` and a small basis `B`, with `W ≈ Ce · B`.
//!
//! `Ce` is held the way the paper stores it (§III) and the trace format
//! writes it: one [`Po2Set`] code per coefficient, never as floats. Each
//! slice also counts its non-zero coefficients per row once, when it is
//! built, so sparsity, storage and the simulator's row masks read counts
//! instead of scanning coefficients. Values come back only where they are
//! needed, through the alphabet's value table ([`Po2Set::values`]):
//! rebuilding weights, and [`SeSlice::ce_values`].

use crate::{IrError, Po2Set, Result};
use se_tensor::{Mat, Tensor};

/// One decomposed unit: a sparse power-of-2 coefficient matrix `Ce`
/// (`rows × r`) and its small basis matrix `B` (`r × n`), with
/// `W_slice ≈ Ce · B` (Eq. 1 of the paper).
///
/// `Ce` is stored as row-major [`Po2Set`] codes of the slice's alphabet,
/// every one of them in range — enforced at construction — with the
/// per-row non-zero counts beside them.
#[derive(Debug, Clone, PartialEq)]
pub struct SeSlice {
    po2: Po2Set,
    cols: usize,
    codes: Vec<u16>,
    row_nnz: Vec<u16>,
    basis: Mat,
}

impl SeSlice {
    /// Creates a slice from coefficient values, validating shapes and
    /// encoding each value into `po2` once.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if `ce.cols() != basis.rows()`,
    /// or `ce` has rows but no columns or more than `u16::MAX` columns, or
    /// [`IrError::InvalidPo2`] if any `ce` entry is not in `po2`.
    pub fn new(ce: Mat, basis: Mat, po2: &Po2Set) -> Result<Self> {
        check_shape(ce.rows(), ce.cols(), &basis)?;
        // Sized up front: a collect through `Result` would grow by doubling
        // and keep up to twice the bytes for the slice's lifetime.
        let mut codes = Vec::with_capacity(ce.data().len());
        for (i, &v) in ce.data().iter().enumerate() {
            codes.push(po2.encode(v).map_err(|_| IrError::InvalidPo2 {
                reason: format!("Ce element {i} = {v} is not in Ω_P"),
            })?);
        }
        Ok(SeSlice::counted(*po2, ce.cols(), codes, basis))
    }

    /// Creates a `rows × cols` slice from row-major `po2` codes, checking
    /// each against [`Po2Set::code_count`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if `codes` does not hold
    /// `rows · cols` entries or the shape fails the checks of
    /// [`SeSlice::new`], or [`IrError::InvalidPo2`] naming the first
    /// out-of-range code.
    pub fn from_codes(
        rows: usize,
        cols: usize,
        codes: Vec<u16>,
        basis: Mat,
        po2: &Po2Set,
    ) -> Result<Self> {
        if rows.checked_mul(cols) != Some(codes.len()) {
            return Err(IrError::LayoutMismatch {
                reason: format!("{} codes do not fill a {rows}x{cols} Ce", codes.len()),
            });
        }
        check_shape(rows, cols, &basis)?;
        let limit = po2.code_count();
        // One branch-free pass for the maximum; the offending code is
        // searched for only on failure.
        if codes.iter().copied().max().is_some_and(|max| u32::from(max) >= limit) {
            let (i, code) =
                codes.iter().enumerate().find(|&(_, &c)| u32::from(c) >= limit).expect("max");
            return Err(IrError::InvalidPo2 {
                reason: format!("Ce element {i}: code {code} out of range (codes < {limit})"),
            });
        }
        Ok(SeSlice::counted(*po2, cols, codes, basis))
    }

    /// Wraps validated codes, counting each row's non-zeros.
    fn counted(po2: Po2Set, cols: usize, codes: Vec<u16>, basis: Mat) -> Self {
        let row_nnz = codes
            .chunks_exact(cols.max(1))
            .map(|row| row.iter().map(|&c| u16::from(c != 0)).sum())
            .collect();
        SeSlice { po2, cols, codes, row_nnz, basis }
    }

    /// The alphabet the codes belong to.
    pub fn po2(&self) -> &Po2Set {
        &self.po2
    }

    /// Rows of `Ce`.
    pub fn rows(&self) -> usize {
        self.row_nnz.len()
    }

    /// Columns of `Ce` (the rows of the basis).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `Ce` codes, row-major.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// The codes of `Ce` row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn code_row(&self, r: usize) -> &[u16] {
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Non-zero coefficients per `Ce` row.
    pub fn row_nnz(&self) -> &[u16] {
        &self.row_nnz
    }

    /// `Ce` as values, through the alphabet's value table.
    pub fn ce_values(&self) -> Mat {
        let values = self.po2.values();
        let data = self.codes.iter().map(|&c| values[usize::from(c)]).collect();
        Mat::from_vec(data, self.rows(), self.cols).expect("shape validated at construction")
    }

    /// The basis matrix `B`.
    pub fn basis(&self) -> &Mat {
        &self.basis
    }

    /// Rebuilds the dense slice `Ce · B`.
    pub fn reconstruct(&self) -> Mat {
        let mut data = Vec::with_capacity(self.rows() * self.basis.cols());
        self.reconstruct_into(&self.po2.values(), &mut data);
        Mat::from_vec(data, self.rows(), self.basis.cols()).expect("shapes validated")
    }

    /// Appends `Ce · B` row by row, looking codes up in `values`. Same
    /// order of operations as [`Mat::matmul`], which skips zero
    /// coefficients, so the result is bit-identical to it.
    fn reconstruct_into(&self, values: &[f32], out: &mut Vec<f32>) {
        let n = self.basis.cols();
        for row in self.codes.chunks_exact(self.cols.max(1)) {
            let at = out.len();
            out.resize(at + n, 0.0);
            let out_row = &mut out[at..];
            for (k, &c) in row.iter().enumerate().filter(|&(_, &c)| c != 0) {
                let a = values[usize::from(c)];
                for (o, &b) in out_row.iter_mut().zip(self.basis.row(k)) {
                    *o += a * b;
                }
            }
        }
    }

    /// Per-row mask: `true` where the `Ce` row has at least one non-zero.
    ///
    /// This is exactly the 1-bit direct index the accelerator stores to skip
    /// zero weight vectors (Section IV-B, "Coefficient matrix indexing").
    pub fn row_nonzero_mask(&self) -> Vec<bool> {
        self.row_nnz.iter().map(|&n| n > 0).collect()
    }

    /// Number of rows with at least one non-zero coefficient.
    pub fn nonzero_rows(&self) -> usize {
        self.row_nnz.iter().filter(|&&n| n > 0).count()
    }

    /// Total non-zero coefficients.
    pub fn nnz(&self) -> usize {
        self.row_nnz.iter().map(|&n| usize::from(n)).sum()
    }

    /// Total number of shift-and-add operations needed to rebuild this
    /// slice's weights (one per non-zero coefficient per basis column).
    pub fn rebuild_ops(&self) -> u64 {
        self.nnz() as u64 * self.basis.cols() as u64
    }
}

/// `Ce` is `rows × cols` against `basis`: the inner dimensions agree, a
/// row holds at least one code (so the row count is the code count over
/// `cols`), and a row's non-zero count fits its `u16`.
fn check_shape(rows: usize, cols: usize, basis: &Mat) -> Result<()> {
    let cols_ok = (1..=usize::from(u16::MAX)).contains(&cols) || rows == 0;
    if cols != basis.rows() || !cols_ok {
        return Err(IrError::LayoutMismatch {
            reason: format!(
                "Ce is {rows}x{cols} but basis is {}x{} (Ce rows need 1..={} columns)",
                basis.rows(),
                basis.cols(),
                u16::MAX
            ),
        });
    }
    Ok(())
}

/// How a sequence of [`SeSlice`]s maps back onto a layer's weight tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeLayout {
    /// CONV with `R = S = kernel > 1` (Section III-C, Case 1): each of the
    /// `out_channels` filters is reshaped to a `(in_channels·kernel) × kernel`
    /// matrix and decomposed independently, possibly split into
    /// `slices_per_filter` consecutive row chunks.
    ConvPerFilter {
        /// Output channels (`M`).
        out_channels: usize,
        /// Input channels (`C`); `1` for depth-wise CONV.
        in_channels: usize,
        /// Kernel side (`R = S`).
        kernel: usize,
        /// Row chunks per filter.
        slices_per_filter: usize,
    },
    /// FC layers and 1×1 CONV (Section III-C, Case 2): each of the
    /// `out_features` weight rows (length `in_features`, zero-padded to a
    /// multiple of `width`) is reshaped to `(padded/width) × width` and
    /// decomposed, possibly split into `slices_per_row` row chunks.
    FcPerRow {
        /// Output features / output channels (`M`).
        out_features: usize,
        /// Input features / input channels (`C`).
        in_features: usize,
        /// Reshape width (`S`).
        width: usize,
        /// Row chunks per reshaped row-matrix.
        slices_per_row: usize,
    },
}

impl SeLayout {
    /// Number of slices the layout expects.
    pub fn expected_slices(&self) -> usize {
        match *self {
            SeLayout::ConvPerFilter { out_channels, slices_per_filter, .. } => {
                out_channels * slices_per_filter
            }
            SeLayout::FcPerRow { out_features, slices_per_row, .. } => {
                out_features * slices_per_row
            }
        }
    }

    /// Rows of the full reshaped matrix per decomposition unit
    /// (filter or FC row).
    pub fn rows_per_unit(&self) -> usize {
        match *self {
            SeLayout::ConvPerFilter { in_channels, kernel, .. } => in_channels * kernel,
            SeLayout::FcPerRow { in_features, width, .. } => in_features.div_ceil(width),
        }
    }
}

/// A layer's weights in SmartExchange form: an ordered list of slices plus
/// the layout that maps them back to the dense weight tensor.
///
/// # Examples
///
/// Rebuilding a 1-filter 3×3 CONV layer from its SE form:
///
/// ```
/// use se_ir::{Po2Set, SeLayer, SeLayout, SeSlice};
/// use se_tensor::Mat;
///
/// # fn main() -> Result<(), se_ir::IrError> {
/// let po2 = Po2Set::default();
/// let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.5, 0.0], &[0.0, 0.0, 0.25]])?;
/// let basis = Mat::identity(3);
/// let slice = SeSlice::new(ce, basis, &po2)?;
/// let layer = SeLayer::new(
///     SeLayout::ConvPerFilter { out_channels: 1, in_channels: 1, kernel: 3, slices_per_filter: 1 },
///     po2,
///     vec![slice],
/// )?;
/// let w = layer.reconstruct_weights()?;
/// assert_eq!(w.shape(), &[1, 1, 3, 3]);
/// assert_eq!(w.at(&[0, 0, 1, 1]), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeLayer {
    layout: SeLayout,
    po2: Po2Set,
    slices: Vec<SeSlice>,
}

impl SeLayer {
    /// Creates a compressed layer, validating the slice inventory against
    /// the layout.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LayoutMismatch`] if the slice count differs from
    /// the layout's expectation or the per-unit row counts do not add up,
    /// or [`IrError::InvalidPo2`] if a slice's codes belong to another
    /// alphabet.
    pub fn new(layout: SeLayout, po2: Po2Set, slices: Vec<SeSlice>) -> Result<Self> {
        if let Some(i) = slices.iter().position(|s| *s.po2() != po2) {
            return Err(IrError::InvalidPo2 {
                reason: format!(
                    "slice {i} is coded in {:?}, the layer in {po2:?}",
                    slices[i].po2()
                ),
            });
        }
        if let SeLayout::FcPerRow { width: 0, .. } = layout {
            return Err(IrError::LayoutMismatch { reason: "FC reshape width is 0".into() });
        }
        if slices.len() != layout.expected_slices() {
            return Err(IrError::LayoutMismatch {
                reason: format!(
                    "layout expects {} slices, found {}",
                    layout.expected_slices(),
                    slices.len()
                ),
            });
        }
        let per_unit = match layout {
            SeLayout::ConvPerFilter { slices_per_filter, .. } => slices_per_filter,
            SeLayout::FcPerRow { slices_per_row, .. } => slices_per_row,
        };
        let rows_per_unit = layout.rows_per_unit();
        for unit in slices.chunks(per_unit.max(1)) {
            let rows: usize = unit.iter().map(SeSlice::rows).sum();
            if rows != rows_per_unit {
                return Err(IrError::LayoutMismatch {
                    reason: format!("unit rows {rows} do not match layout's {rows_per_unit}"),
                });
            }
        }
        Ok(SeLayer { layout, po2, slices })
    }

    /// The layout mapping slices to the weight tensor.
    pub fn layout(&self) -> &SeLayout {
        &self.layout
    }

    /// The power-of-2 alphabet the coefficients use.
    pub fn po2(&self) -> &Po2Set {
        &self.po2
    }

    /// The decomposed slices in layout order.
    pub fn slices(&self) -> &[SeSlice] {
        &self.slices
    }

    /// Rebuilds the dense weight tensor (`(M, C, R, S)` for CONV layouts,
    /// `(M, C)` for FC layouts).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Tensor`] if an internal reshape fails (cannot
    /// happen for layouts validated at construction).
    pub fn reconstruct_weights(&self) -> Result<Tensor> {
        match self.layout {
            SeLayout::ConvPerFilter { out_channels, in_channels, kernel, .. } => {
                let values = self.po2.values();
                let mut data = Vec::with_capacity(out_channels * in_channels * kernel * kernel);
                for slice in &self.slices {
                    slice.reconstruct_into(&values, &mut data);
                }
                Ok(Tensor::from_vec(data, &[out_channels, in_channels, kernel, kernel])?)
            }
            SeLayout::FcPerRow { out_features, in_features, width, slices_per_row } => {
                let values = self.po2.values();
                let padded = in_features.div_ceil(width) * width;
                let mut data = Vec::with_capacity(out_features * in_features);
                for unit in self.slices.chunks(slices_per_row.max(1)) {
                    let mut row = Vec::with_capacity(padded);
                    for slice in unit {
                        slice.reconstruct_into(&values, &mut row);
                    }
                    row.truncate(in_features);
                    data.extend_from_slice(&row);
                }
                Ok(Tensor::from_vec(data, &[out_features, in_features])?)
            }
        }
    }

    /// Total non-zero coefficients across slices.
    pub fn nnz(&self) -> usize {
        self.slices.iter().map(SeSlice::nnz).sum()
    }

    /// Total `Ce` rows across slices.
    pub fn total_rows(&self) -> usize {
        self.slices.iter().map(SeSlice::rows).sum()
    }

    /// Total rows with at least one non-zero (the rows the accelerator
    /// actually fetches and computes on).
    pub fn total_nonzero_rows(&self) -> usize {
        self.slices.iter().map(SeSlice::nonzero_rows).sum()
    }

    /// Vector-wise sparsity: fraction of all-zero `Ce` rows, in `[0, 1]`.
    pub fn vector_sparsity(&self) -> f32 {
        let total = self.total_rows();
        if total == 0 {
            return 0.0;
        }
        (total - self.total_nonzero_rows()) as f32 / total as f32
    }

    /// Total shift-and-add operations to rebuild all weights once.
    pub fn rebuild_ops(&self) -> u64 {
        self.slices.iter().map(SeSlice::rebuild_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn po2() -> Po2Set {
        Po2Set::default()
    }

    fn slice(rows: usize, diag: f32) -> SeSlice {
        let mut ce = Mat::zeros(rows, 3);
        for i in 0..rows.min(3) {
            ce.set(i, i, diag);
        }
        SeSlice::new(ce, Mat::identity(3), &po2()).unwrap()
    }

    #[test]
    fn slice_rejects_non_po2() {
        let ce = Mat::from_rows(&[&[0.3, 0.0, 0.0]]).unwrap();
        assert!(matches!(
            SeSlice::new(ce, Mat::identity(3), &po2()),
            Err(IrError::InvalidPo2 { .. })
        ));
    }

    #[test]
    fn slice_rejects_shape_mismatch() {
        let ce = Mat::zeros(4, 2);
        assert!(matches!(
            SeSlice::new(ce, Mat::identity(3), &po2()),
            Err(IrError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn slice_from_codes_checks_shape_and_range() {
        let basis = Mat::identity(3);
        let codes = vec![1, 0, 0, 0, 0, 0, 4, 2, 13];
        let s = SeSlice::from_codes(3, 3, codes.clone(), basis.clone(), &po2()).unwrap();
        assert_eq!(s.row_nnz(), &[1, 0, 3]);
        assert_eq!(s.code_row(2), &[4, 2, 13]);
        let by_value = SeSlice::new(s.ce_values(), basis.clone(), &po2()).unwrap();
        assert_eq!(by_value, s);
        // Too few codes, a row with no columns, and the first code past
        // the default alphabet's 15.
        assert!(matches!(
            SeSlice::from_codes(3, 3, codes[..8].to_vec(), basis.clone(), &po2()),
            Err(IrError::LayoutMismatch { .. })
        ));
        assert!(matches!(
            SeSlice::from_codes(2, 0, vec![], Mat::zeros(0, 3), &po2()),
            Err(IrError::LayoutMismatch { .. })
        ));
        let mut bad = codes;
        bad[7] = 15;
        let err = SeSlice::from_codes(3, 3, bad, basis, &po2()).unwrap_err();
        assert!(err.to_string().contains("Ce element 7: code 15 "), "{err}");
    }

    #[test]
    fn zero_width_or_zero_chunk_layouts_are_errors_not_panics() {
        let fc = |width, slices_per_row| SeLayout::FcPerRow {
            out_features: 0,
            in_features: 3,
            width,
            slices_per_row,
        };
        assert!(matches!(
            SeLayer::new(fc(0, 1), po2(), vec![]),
            Err(IrError::LayoutMismatch { .. })
        ));
        let empty = SeLayer::new(fc(3, 0), po2(), vec![]).unwrap();
        assert_eq!(empty.reconstruct_weights().unwrap().shape(), &[0, 3]);
        let conv = SeLayout::ConvPerFilter {
            out_channels: 0,
            in_channels: 1,
            kernel: 3,
            slices_per_filter: 0,
        };
        assert_eq!(SeLayer::new(conv, po2(), vec![]).unwrap().total_rows(), 0);
    }

    #[test]
    fn layer_rejects_slices_of_another_alphabet() {
        let other = Po2Set::new(0, 3).unwrap();
        let s = SeSlice::new(Mat::identity(3), Mat::identity(3), &other).unwrap();
        let layout = SeLayout::ConvPerFilter {
            out_channels: 1,
            in_channels: 1,
            kernel: 3,
            slices_per_filter: 1,
        };
        assert!(matches!(SeLayer::new(layout, po2(), vec![s]), Err(IrError::InvalidPo2 { .. })));
    }

    #[test]
    fn slice_row_stats() {
        let ce = Mat::from_rows(&[&[0.5, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.25, -0.5, 0.0]]).unwrap();
        let s = SeSlice::new(ce, Mat::identity(3), &po2()).unwrap();
        assert_eq!(s.row_nonzero_mask(), vec![true, false, true]);
        assert_eq!(s.nonzero_rows(), 2);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.rebuild_ops(), 9);
    }

    #[test]
    fn conv_layer_reconstruction() {
        // 2 filters, C=1, 3x3 kernel; each filter one slice of 3 rows.
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 2,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0), slice(3, 0.5)],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[2, 1, 3, 3]);
        assert_eq!(w.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(w.at(&[1, 0, 1, 1]), 0.5);
        assert_eq!(w.at(&[1, 0, 0, 1]), 0.0);
    }

    #[test]
    fn fc_layer_reconstruction_with_padding() {
        // 1 output row, 7 inputs, width 3 -> padded to 9, 3x3 reshaped.
        let ce = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let basis = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f32 / 8.0);
        let s = SeSlice::new(ce, basis.clone(), &po2()).unwrap();
        let layer = SeLayer::new(
            SeLayout::FcPerRow { out_features: 1, in_features: 7, width: 3, slices_per_row: 1 },
            po2(),
            vec![s],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[1, 7]);
        // Identity Ce means the row is just the basis flattened, truncated to 7.
        assert_eq!(w.at(&[0, 4]), basis.get(1, 1));
    }

    #[test]
    fn layer_validates_slice_count() {
        let r = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 2,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0)],
        );
        assert!(matches!(r, Err(IrError::LayoutMismatch { .. })));
    }

    #[test]
    fn layer_validates_row_totals() {
        let r = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 2,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![slice(3, 1.0)], // needs 6 rows
        );
        assert!(matches!(r, Err(IrError::LayoutMismatch { .. })));
    }

    #[test]
    fn vector_sparsity_aggregation() {
        let ce = Mat::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]).unwrap();
        let s = SeSlice::new(ce, Mat::identity(3), &po2()).unwrap();
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2(),
            vec![s],
        )
        .unwrap();
        assert!((layer.vector_sparsity() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(layer.total_nonzero_rows(), 1);
    }

    #[test]
    fn multi_slice_filters() {
        // One filter with C=2, kernel=3 (6 rows) split into two 3-row slices.
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 2,
                kernel: 3,
                slices_per_filter: 2,
            },
            po2(),
            vec![slice(3, 1.0), slice(3, 0.25)],
        )
        .unwrap();
        let w = layer.reconstruct_weights().unwrap();
        assert_eq!(w.shape(), &[1, 2, 3, 3]);
        assert_eq!(w.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(w.at(&[0, 1, 0, 0]), 0.25);
    }
}
