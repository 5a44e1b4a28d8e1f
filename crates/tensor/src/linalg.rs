//! Linear-algebra kernels: Cholesky factorisation, least squares, and a
//! one-sided Jacobi SVD.
//!
//! The SmartExchange fitting steps (Section III-B, Step 2 of Algorithm 1)
//! are two unconstrained least-squares problems:
//!
//! * `B  = argmin_B  ||W - Ce B||_F`  → solved by [`lstsq_left`], and
//! * `Ce = argmin_Ce ||W - Ce B||_F`  → solved by [`lstsq_right`].
//!
//! Both reduce to small symmetric positive (semi-)definite systems
//! (`r × r` with `r = S`, typically 3), solved via Cholesky with optional
//! ridge regularisation for rank-deficient cases.
//!
//! [`svd`] provides the low-rank-decomposition *baseline* the paper compares
//! against (decomposition-alone compression).

use crate::{Mat, Result, TensorError};

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular `L` with `A = L Lᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a` is not square and
/// [`TensorError::Singular`] if a non-positive pivot is encountered
/// (matrix not positive definite within `f64` round-off).
///
/// # Examples
///
/// ```
/// use se_tensor::{Mat, linalg};
/// # fn main() -> Result<(), se_tensor::TensorError> {
/// let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let l = linalg::cholesky(&a)?;
/// let recon = l.matmul(&l.transpose())?;
/// assert!((recon.get(0, 0) - 4.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn cholesky(a: &Mat) -> Result<Mat> {
    check_square(a)?;
    let n = a.rows();
    let l = cholesky_f64(a.data(), n)?;
    Mat::from_vec(l.iter().map(|&v| v as f32).collect(), n, n)
}

fn check_square(a: &Mat) -> Result<()> {
    if a.cols() != a.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "cholesky",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![a.rows(), a.rows()],
        });
    }
    Ok(())
}

/// Factors the row-major `n × n` matrix `a` (only its lower triangle is
/// read) in `f64`, the inputs being `f32` data.
fn cholesky_f64(a: &[f32], n: usize) -> Result<Vec<f64>> {
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j] as f64;
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(TensorError::Singular);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(l)
}

/// The Cholesky factor the substitutions use: [`cholesky`]'s `f32`
/// entries, widened back to `f64`.
fn stored_factor(a: &[f32], n: usize) -> Result<Vec<f64>> {
    let mut l = cholesky_f64(a, n)?;
    for v in &mut l {
        *v = *v as f32 as f64;
    }
    Ok(l)
}

/// Right-hand sides solved together: lane `c` of every row is one
/// independent system, so the dependent `f64` divisions of [`LANES`]
/// systems overlap (and vectorize) without changing any lane's operation
/// order.
const LANES: usize = 4;

/// Solves `L Lᵀ x = b` in place for [`LANES`] right-hand sides: `x[i]` holds
/// row `i` of every lane's `b` on entry and of its `x` on exit. Forward then
/// back substitution in `f64`, each lane exactly as a scalar solve would.
#[inline(always)]
fn substitute(l: &[f64], x: &mut [[f64; LANES]]) {
    let n = x.len();
    for i in 0..n {
        let (solved, rest) = x.split_at_mut(i);
        let xi = &mut rest[0];
        for (&lik, xk) in l[i * n..i * n + i].iter().zip(solved.iter()) {
            for (v, &y) in xi.iter_mut().zip(xk) {
                *v -= lik * y;
            }
        }
        let d = l[i * n + i];
        for v in xi.iter_mut() {
            *v /= d;
        }
    }
    for i in (0..n).rev() {
        let (head, solved) = x.split_at_mut(i + 1);
        let xi = &mut head[i];
        for (k, xk) in solved.iter().enumerate() {
            let lki = l[(i + 1 + k) * n + i];
            for (v, &y) in xi.iter_mut().zip(xk) {
                *v -= lki * y;
            }
        }
        let d = l[i * n + i];
        for v in xi.iter_mut() {
            *v /= d;
        }
    }
}

/// Solves `(L Lᵀ) X = B` for the row-major `n × m` right-hand side `b`,
/// writing `X` (same layout) to `out`.
fn solve_columns(l: &[f64], n: usize, b: &[f32], m: usize, out: &mut [f32]) {
    let mut x = vec![[0.0f64; LANES]; n];
    for c0 in (0..m).step_by(LANES) {
        let lanes = LANES.min(m - c0);
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = [0.0; LANES];
            for (v, &bv) in xi.iter_mut().zip(&b[i * m + c0..i * m + c0 + lanes]) {
                *v = bv as f64;
            }
        }
        substitute(l, &mut x);
        for (i, xi) in x.iter().enumerate() {
            for (o, &v) in out[i * m + c0..i * m + c0 + lanes].iter_mut().zip(xi) {
                *o = v as f32;
            }
        }
    }
}

/// Solves `A X = B` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates [`cholesky`] errors; also returns
/// [`TensorError::ShapeMismatch`] if `b.rows() != a.rows()`.
pub fn solve_spd(a: &Mat, b: &Mat) -> Result<Mat> {
    if b.rows() != a.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "solve_spd",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    check_square(a)?;
    let (n, m) = (a.rows(), b.cols());
    let l = stored_factor(a.data(), n)?;
    let mut x = Mat::zeros(n, m);
    solve_columns(&l, n, b.data(), m, x.data_mut());
    Ok(x)
}

/// Adds `ridge · (1 + mean(diag))` to the diagonal of the row-major `n × n`
/// Gram matrix so the regularisation stays meaningful across scales (an
/// absolute `1e-8` would vanish in `f32` next to a diagonal of order 1).
fn add_relative_ridge(gram: &mut [f32], n: usize, ridge: f32) {
    if ridge <= 0.0 {
        return;
    }
    let mean_diag = (0..n).map(|i| gram[i * n + i]).sum::<f32>() / n.max(1) as f32;
    let eff = ridge * (1.0 + mean_diag);
    for i in 0..n {
        gram[i * n + i] += eff;
    }
}

/// `a · b`, or `+0.0` when `a == 0.0` — the term [`Mat::matmul`] skips.
///
/// Adding `+0.0` leaves every sum that starts at `+0.0` unchanged (such a
/// sum is never `-0.0`), so this is bit-identical to the skip, without a
/// branch on the sparse coefficient pattern.
#[inline(always)]
fn product_unless_zero(a: f32, b: f32) -> f32 {
    let keep = 0u32.wrapping_sub(u32::from(a != 0.0));
    f32::from_bits((a * b).to_bits() & keep)
}

/// The rank SmartExchange decomposes at (3×3 kernels, FC width 3). The
/// kernels below take their dimensions as arguments and are always
/// inlined, so the call site passing this literal gets a fully unrolled
/// copy; every other shape runs the same code with runtime bounds.
const HOT_RANK: usize = 3;

/// Accumulates the lower triangle of `CᵀC` into `gram` (`r × r`) and `CᵀW`
/// into `rhs` (`r × n`) in one pass over the `m` rows of `c` (`m × r`) and
/// `w` (`m × n`), each element summed in row order.
#[inline(always)]
fn accumulate_normal(
    c: &[f32],
    w: &[f32],
    m: usize,
    r: usize,
    n: usize,
    gram: &mut [f32],
    rhs: &mut [f32],
) {
    for k in 0..m {
        let c_row = &c[k * r..(k + 1) * r];
        if c_row.iter().all(|&a| a == 0.0) {
            continue; // every term of a zero row is skipped
        }
        let w_row = &w[k * n..(k + 1) * n];
        for (i, &a) in c_row.iter().enumerate() {
            for (g, &b) in gram[i * r..=i * r + i].iter_mut().zip(c_row) {
                *g += product_unless_zero(a, b);
            }
            for (o, &b) in rhs[i * n..(i + 1) * n].iter_mut().zip(w_row) {
                *o += product_unless_zero(a, b);
            }
        }
    }
}

/// Least squares for the *left* factor position:
/// `B = argmin_B ||W - C B||_F`, solved as `(CᵀC + ridge·I) B = CᵀW`.
///
/// `ridge >= 0` adds Tikhonov regularisation; pass a small positive value
/// (e.g. `1e-6`) when `C` may have zero columns (fully-pruned coefficient
/// columns produce an exactly singular normal matrix).
///
/// `CᵀC` and `CᵀW` accumulate in one pass over the rows of `C` and `W`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `c.rows() != w.rows()`, or
/// [`TensorError::Singular`] if the (regularised) normal matrix is still
/// singular.
pub fn lstsq_left(c: &Mat, w: &Mat, ridge: f32) -> Result<Mat> {
    if c.rows() != w.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "lstsq_left",
            lhs: vec![c.rows(), c.cols()],
            rhs: vec![w.rows(), w.cols()],
        });
    }
    let (m, r, n) = (c.rows(), c.cols(), w.cols());
    let mut gram = vec![0.0f32; r * r];
    let mut rhs = vec![0.0f32; r * n];
    if (r, n) == (HOT_RANK, HOT_RANK) {
        let mut g = [0.0f32; HOT_RANK * HOT_RANK];
        let mut h = [0.0f32; HOT_RANK * HOT_RANK];
        accumulate_normal(c.data(), w.data(), m, HOT_RANK, HOT_RANK, &mut g, &mut h);
        gram.copy_from_slice(&g);
        rhs.copy_from_slice(&h);
    } else {
        accumulate_normal(c.data(), w.data(), m, r, n, &mut gram, &mut rhs);
    }
    add_relative_ridge(&mut gram, r, ridge);
    let l = stored_factor(&gram, r)?;
    let mut b = Mat::zeros(r, n);
    solve_columns(&l, r, &rhs, n, b.data_mut());
    Ok(b)
}

/// Solves every row of `C` (`m × r`, zero on entry) in `C (B Bᵀ) = W Bᵀ`
/// given the Cholesky factor `l` of `B Bᵀ`, [`LANES`] rows of `W`
/// (`m × n`) at a time; `x` is the `r`-row scratch.
///
/// An all-zero row of `W` has an all-`+0.0` right-hand side, which solves
/// to all `+0.0` whenever `B` and `l` are finite and `l`'s pivots are
/// positive: such rows are left as they are instead of being solved.
#[inline(always)]
fn solve_rows(
    l: &[f64],
    b: &[f32],
    w: &[f32],
    m: usize,
    n: usize,
    c: &mut [f32],
    x: &mut [[f64; LANES]],
) {
    let r = x.len();
    let skip_zero_rows = b.iter().all(|v| v.is_finite())
        && l.iter().all(|v| v.is_finite())
        && (0..r).all(|i| l[i * r + i] > 0.0);
    let mut lane_rows = [0usize; LANES];
    let mut lanes = 0;
    for j in 0..m {
        if skip_zero_rows && w[j * n..(j + 1) * n].iter().all(|&v| v == 0.0) {
            continue;
        }
        lane_rows[lanes] = j;
        lanes += 1;
        if lanes == LANES {
            solve_lanes(l, b, w, n, c, x, &lane_rows);
            lanes = 0;
        }
    }
    solve_lanes(l, b, w, n, c, x, &lane_rows[..lanes]);
}

/// [`solve_rows`] for the rows of `W` listed in `rows`, one lane each.
#[inline(always)]
fn solve_lanes(
    l: &[f64],
    b: &[f32],
    w: &[f32],
    n: usize,
    c: &mut [f32],
    x: &mut [[f64; LANES]],
    rows: &[usize],
) {
    if rows.is_empty() {
        return;
    }
    let r = x.len();
    // Row i of the right-hand side is (B Wᵀ)[i], one lane per W row.
    for (i, xi) in x.iter_mut().enumerate() {
        let mut acc = [0.0f32; LANES];
        for (k, &a) in b[i * n..(i + 1) * n].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (v, &j) in acc.iter_mut().zip(rows) {
                *v += a * w[j * n + k];
            }
        }
        *xi = acc.map(f64::from);
    }
    substitute(l, x);
    for (lane, &j) in rows.iter().enumerate() {
        for (o, xi) in c[j * r..(j + 1) * r].iter_mut().zip(x.iter()) {
            *o = xi[lane] as f32;
        }
    }
}

/// Least squares for the *right* factor position:
/// `C = argmin_C ||W - C B||_F`, solved as `C = W Bᵀ (B Bᵀ + ridge·I)⁻¹`.
///
/// Each row of `C` is an independent `r × r` solve against the same
/// Cholesky factor, fed straight from the matching row of `W`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `w.cols() != b.cols()`, or
/// [`TensorError::Singular`] if the (regularised) Gram matrix is singular.
pub fn lstsq_right(w: &Mat, b: &Mat, ridge: f32) -> Result<Mat> {
    if w.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "lstsq_right",
            lhs: vec![w.rows(), w.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let (m, n, r) = (w.rows(), w.cols(), b.rows());
    let mut gram = vec![0.0f32; r * r];
    for i in 0..r {
        for (k, &a) in b.row(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for j in 0..=i {
                gram[i * r + j] += a * b.get(j, k);
            }
        }
    }
    add_relative_ridge(&mut gram, r, ridge);
    let l = stored_factor(&gram, r)?;
    let mut c = Mat::zeros(m, r);
    if (r, n) == (HOT_RANK, HOT_RANK) {
        let x = &mut [[0.0f64; LANES]; HOT_RANK];
        solve_rows(&l, b.data(), w.data(), m, HOT_RANK, c.data_mut(), x);
    } else {
        solve_rows(&l, b.data(), w.data(), m, n, c.data_mut(), &mut vec![[0.0; LANES]; r]);
    }
    Ok(c)
}

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, `m × k` with orthonormal columns.
    pub u: Mat,
    /// Singular values in non-increasing order, length `k = min(m, n)`.
    pub sigma: Vec<f32>,
    /// Right singular vectors, `n × k` with orthonormal columns.
    pub v: Mat,
}

impl Svd {
    /// Reconstructs the best rank-`r` approximation `U_r Σ_r V_rᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `r` exceeds the number of
    /// singular values.
    pub fn truncate(&self, r: usize) -> Result<Mat> {
        if r > self.sigma.len() {
            return Err(TensorError::InvalidShape {
                reason: format!("rank {r} exceeds {} singular values", self.sigma.len()),
            });
        }
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Mat::zeros(m, n);
        for k in 0..r {
            let s = self.sigma[k];
            for i in 0..m {
                let uis = self.u.get(i, k) * s;
                if uis == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = out.get(i, j) + uis * self.v.get(j, k);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }
}

/// One-sided Jacobi SVD of `a` (`m × n`, any aspect ratio).
///
/// Orthogonalises the columns of `A` by Jacobi rotations; suitable for the
/// moderate matrix sizes used in the low-rank compression baseline.
///
/// # Errors
///
/// Returns [`TensorError::NoConvergence`] if off-diagonal mass remains after
/// the sweep budget (does not happen for well-scaled inputs).
///
/// # Examples
///
/// ```
/// use se_tensor::{Mat, linalg};
/// # fn main() -> Result<(), se_tensor::TensorError> {
/// let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
/// let svd = linalg::svd(&a)?;
/// assert!((svd.sigma[0] - 3.0).abs() < 1e-4);
/// assert!((svd.sigma[1] - 2.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn svd(a: &Mat) -> Result<Svd> {
    // Work on the tall orientation; transpose back at the end if needed.
    if a.rows() < a.cols() {
        let s = svd(&a.transpose())?;
        return Ok(Svd { u: s.v, sigma: s.sigma, v: s.u });
    }
    let m = a.rows();
    let n = a.cols();
    // u starts as a copy of A in f64; v accumulates rotations.
    let mut u: Vec<f64> = a.data().iter().map(|&x| x as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let max_sweeps = 60;
    let eps = 1e-12_f64;
    let mut converged = false;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column inner products.
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let up = u[i * n + p];
                    let uq = u[i * n + q];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                off += apq * apq;
                if apq.abs() <= eps * (app * aqq).sqrt().max(1e-300) {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) entry of AᵀA.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[i * n + p];
                    let uq = u[i * n + q];
                    u[i * n + p] = c * up - s * uq;
                    u[i * n + q] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[i * n + p];
                    let vq = v[i * n + q];
                    v[i * n + p] = c * vp - s * vq;
                    v[i * n + q] = s * vp + c * vq;
                }
            }
        }
        if off.sqrt() <= 1e-10 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(TensorError::NoConvergence { routine: "svd", iterations: max_sweeps });
    }
    // Column norms are the singular values; normalise U's columns.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigmas = vec![0.0f64; n];
    for (j, s) in sigmas.iter_mut().enumerate() {
        *s = (0..m).map(|i| u[i * n + j] * u[i * n + j]).sum::<f64>().sqrt();
    }
    order.sort_by(|&x, &y| sigmas[y].partial_cmp(&sigmas[x]).expect("finite singular values"));

    let mut u_out = Mat::zeros(m, n);
    let mut v_out = Mat::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (k, &j) in order.iter().enumerate() {
        let s = sigmas[j];
        sigma.push(s as f32);
        let inv = if s > 1e-30 { 1.0 / s } else { 0.0 };
        for i in 0..m {
            u_out.set(i, k, (u[i * n + j] * inv) as f32);
        }
        for i in 0..n {
            v_out.set(i, k, v[i * n + j] as f32);
        }
    }
    Ok(Svd { u: u_out, sigma, v: v_out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn cholesky_known() {
        let a =
            Mat::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap();
        let l = cholesky(&a).unwrap();
        assert_close(l.get(0, 0), 5.0, 1e-5);
        assert_close(l.get(1, 0), 3.0, 1e-5);
        assert_close(l.get(1, 1), 3.0, 1e-5);
        assert_close(l.get(2, 0), -1.0, 1e-5);
        assert_close(l.get(2, 2), 3.0, 1e-4);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(cholesky(&a), Err(TensorError::Singular));
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(cholesky(&a), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn solve_spd_identity_rhs() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve_spd(&a, &Mat::identity(2)).unwrap();
        // x should be A^{-1}: check A * x = I.
        let prod = a.matmul(&x).unwrap();
        assert_close(prod.get(0, 0), 1.0, 1e-5);
        assert_close(prod.get(0, 1), 0.0, 1e-5);
        assert_close(prod.get(1, 1), 1.0, 1e-5);
    }

    #[test]
    fn lstsq_left_exact_system() {
        // C is square invertible: B must satisfy W = C B exactly.
        let c = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let w = Mat::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]).unwrap();
        let b = lstsq_left(&c, &w, 0.0).unwrap();
        assert_close(b.get(0, 0), 1.0, 1e-5);
        assert_close(b.get(0, 1), 2.0, 1e-5);
        assert_close(b.get(1, 0), 2.0, 1e-5);
        assert_close(b.get(1, 1), 3.0, 1e-5);
    }

    #[test]
    fn lstsq_right_exact_system() {
        let b = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let c_true = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let w = c_true.matmul(&b).unwrap();
        let c = lstsq_right(&w, &b, 0.0).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert_close(c.get(i, j), c_true.get(i, j), 1e-4);
            }
        }
    }

    #[test]
    fn lstsq_left_overdetermined_reduces_residual() {
        // Random-ish overdetermined system: residual of LS solution must be
        // no worse than residual of any other candidate (here: zero).
        let c = Mat::from_rows(&[&[1.0, 0.5], &[0.2, 1.0], &[1.0, 1.0], &[0.3, 0.7]]).unwrap();
        let w = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[0.5]]).unwrap();
        let b = lstsq_left(&c, &w, 0.0).unwrap();
        let resid = w.sub(&c.matmul(&b).unwrap()).unwrap().frobenius_norm();
        assert!(resid < w.frobenius_norm());
    }

    /// The least-squares fits written as plain matrix products
    /// (transposed copies, `Mat::matmul` with its zero skips, one dense
    /// solve): the fused kernels must reproduce them bit for bit.
    fn reference_left(c: &Mat, w: &Mat, ridge: f32) -> Result<Mat> {
        let ct = c.transpose();
        let mut gram = ct.matmul(c)?;
        add_relative_ridge(gram.data_mut(), c.cols(), ridge);
        solve_spd(&gram, &ct.matmul(w)?)
    }

    fn reference_right(w: &Mat, b: &Mat, ridge: f32) -> Result<Mat> {
        let mut gram = b.matmul(&b.transpose())?;
        add_relative_ridge(gram.data_mut(), b.rows(), ridge);
        Ok(solve_spd(&gram, &b.matmul(&w.transpose())?)?.transpose())
    }

    /// A seeded `rows × cols` matrix with the sparsity SmartExchange
    /// produces: whole zero rows, scattered zeros, and some `-0.0`s.
    fn sparse_mat(seed: u64, rows: usize, cols: usize) -> Mat {
        let mut r = crate::rng::seeded(seed);
        let mut m = crate::rng::normal_mat(&mut r, rows, cols, 0.1);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            match (i / cols % 3, i % 7) {
                (0, _) => *v = 0.0,
                (_, 0) => *v = -0.0,
                (_, 3) => *v = 0.0,
                _ => {}
            }
        }
        m
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_fits_match_the_matrix_product_formulation_bit_for_bit() {
        // (rows, r, n): the unrolled rank-3 path and the general one.
        for (seed, (m, r, n)) in
            [(1, 3, 3), (5, 3, 3), (22, 3, 3), (64, 3, 3), (9, 4, 4), (30, 2, 3), (17, 3, 5)]
                .into_iter()
                .enumerate()
        {
            let w = sparse_mat(seed as u64, m, n);
            let c = sparse_mat(seed as u64 + 100, m, r);
            for ridge in [1e-6, 1e-2] {
                let b = lstsq_left(&c, &w, ridge).unwrap();
                assert_eq!(bits(&b), bits(&reference_left(&c, &w, ridge).unwrap()), "{m}x{r}");
                let fit = lstsq_right(&w, &b, ridge).unwrap();
                let want = reference_right(&w, &b, ridge).unwrap();
                assert_eq!(bits(&fit), bits(&want), "{m}x{n} rows");
            }
        }
    }

    #[test]
    fn zero_rows_of_w_solve_to_positive_zero() {
        let w = sparse_mat(3, 12, 3);
        let b = Mat::from_rows(&[&[1.0, 0.5, 0.0], &[0.0, 2.0, 1.0], &[0.5, 0.0, 1.0]]).unwrap();
        let c = lstsq_right(&w, &b, 1e-6).unwrap();
        for i in (0..12).step_by(3) {
            assert!(c.row(i).iter().all(|v| v.to_bits() == 0), "row {i}: {:?}", c.row(i));
        }
        // A non-finite basis falls back to solving every row.
        let mut inf = b.clone();
        inf.set(0, 0, f32::INFINITY);
        let c = lstsq_right(&w, &inf, 1e-6).unwrap();
        let want = reference_right(&w, &inf, 1e-6).unwrap();
        assert_eq!(bits(&c), bits(&want));
    }

    #[test]
    fn ridge_rescues_singular_gram() {
        // C has an all-zero column -> CᵀC singular without ridge.
        let c = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]).unwrap();
        let w = Mat::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert_eq!(lstsq_left(&c, &w, 0.0), Err(TensorError::Singular));
        let b = lstsq_left(&c, &w, 1e-6).unwrap();
        assert_close(b.get(0, 0), 1.0, 1e-3);
    }

    #[test]
    fn svd_diagonal() {
        let a = Mat::from_rows(&[&[0.0, 2.0], &[3.0, 0.0], &[0.0, 0.0]]).unwrap();
        let s = svd(&a).unwrap();
        assert_close(s.sigma[0], 3.0, 1e-4);
        assert_close(s.sigma[1], 2.0, 1e-4);
    }

    #[test]
    fn svd_reconstructs() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[1.0, 0.0, -1.0],
        ])
        .unwrap();
        let s = svd(&a).unwrap();
        let full = s.truncate(3).unwrap();
        let err = a.sub(&full).unwrap().frobenius_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn svd_truncation_is_best_low_rank() {
        let a = Mat::from_rows(&[&[10.0, 0.0], &[0.0, 1.0]]).unwrap();
        let s = svd(&a).unwrap();
        let r1 = s.truncate(1).unwrap();
        // Best rank-1 approximation keeps the sigma=10 direction.
        assert_close(r1.get(0, 0), 10.0, 1e-4);
        assert_close(r1.get(1, 1), 0.0, 1e-4);
        assert!(s.truncate(5).is_err());
    }

    #[test]
    fn svd_wide_matrix() {
        let a = Mat::from_rows(&[&[1.0, 0.0, 0.0, 2.0], &[0.0, 3.0, 0.0, 0.0]]).unwrap();
        let s = svd(&a).unwrap();
        assert_eq!(s.u.rows(), 2);
        assert_eq!(s.v.rows(), 4);
        let recon = s.truncate(2).unwrap();
        assert_close(recon.get(0, 3), 2.0, 1e-4);
        assert_close(recon.get(1, 1), 3.0, 1e-4);
    }

    #[test]
    fn svd_singular_values_nonincreasing() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f32 - 2.0);
        let s = svd(&a).unwrap();
        for w in s.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }
}
