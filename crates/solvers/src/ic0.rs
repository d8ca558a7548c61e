//! The IC(0) incomplete-Cholesky preconditioner.
//!
//! The zero-fill incomplete Cholesky factorization keeps exactly the
//! sparsity pattern of the lower triangle of `A` and computes
//!
//! ```text
//! l_ij = (a_ij − Σ_k l_ik · l_jk) / l_jj   (k over common columns < j)
//! l_ii = sqrt(a_ii − Σ_k l_ik²)
//! ```
//!
//! The preconditioner application solves `L Lᵀ z = r` with one forward
//! and one backward triangular sweep. Both the factorization and the
//! solves are strictly sequential with a fixed traversal order (rows
//! ascending, columns ascending; backward sweep rows descending), so the
//! scheme is deterministic on every machine and thread count — the same
//! rule every kernel in the workspace obeys.
//!
//! Compared to Jacobi, IC(0) couples neighbouring unknowns and cuts the
//! iteration count of the paper's stencil/banded model problems by
//! multiples; the ablation bench (`cargo bench -p rsls-bench`) measures
//! the reduction. Each iteration costs one extra triangular-solve pass
//! (≈ one SpMV of work), so it wins end-to-end when it saves more than
//! about half the iterations.

use rsls_sparse::vector::dot;
use rsls_sparse::{CsrMatrix, LinalgError};

use crate::cg::Preconditioner;

/// A zero-fill incomplete Cholesky factor `L` (lower triangular, same
/// sparsity as the lower triangle of `A`, diagonal included).
#[derive(Debug, Clone)]
pub struct Ic0 {
    n: usize,
    /// CSR-style row starts into `cols` / `vals` (`n + 1` entries). Each
    /// row holds its strictly-lower entries ascending, then the diagonal.
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// `1 / l_ii` per row (division is costlier than multiplication in
    /// the inner solve loops).
    inv_diag: Vec<f64>,
}

impl Ic0 {
    /// Factors the lower triangle of a square SPD matrix.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when a pivot `a_ii − Σ l_ik²`
    /// is not strictly positive — the matrix is not SPD (or IC(0)
    /// breaks down on it, which the zero-fill variant can for matrices
    /// that are only barely SPD).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn factor(a: &CsrMatrix) -> Result<Ic0, LinalgError> {
        assert_eq!(a.nrows(), a.ncols(), "IC(0) requires a square matrix");
        let n = a.nrows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut cols: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut inv_diag = vec![0.0f64; n];

        for i in 0..n {
            let a_cols = a.row_cols(i);
            let a_vals = a.row_vals(i);
            let lower_end = a_cols.partition_point(|&c| c < i);
            for k in 0..lower_end {
                let j = a_cols[k];
                // s = a_ij − Σ l_ik l_jk over common columns k < j: a
                // two-pointer sweep of L's (ascending) rows i and j.
                let mut s = a_vals[k];
                let (mut pi, mut pj) = (row_ptr[i], row_ptr[j]);
                let (ei, ej) = (cols.len(), row_ptr[j + 1]);
                while pi < ei && pj < ej {
                    let (ci, cj) = (cols[pi], cols[pj]);
                    if ci >= j || cj >= j {
                        break;
                    }
                    match ci.cmp(&cj) {
                        std::cmp::Ordering::Less => pi += 1,
                        std::cmp::Ordering::Greater => pj += 1,
                        std::cmp::Ordering::Equal => {
                            s -= vals[pi] * vals[pj];
                            pi += 1;
                            pj += 1;
                        }
                    }
                }
                cols.push(j);
                vals.push(s * inv_diag[j]);
            }
            // Pivot: a_ii − Σ l_ik² over this row's strictly-lower part.
            let mut s = if lower_end < a_cols.len() && a_cols[lower_end] == i {
                a_vals[lower_end]
            } else {
                0.0
            };
            for v in &vals[row_ptr[i]..] {
                s -= v * v;
            }
            if s <= 0.0 || !s.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            let l_ii = s.sqrt();
            cols.push(i);
            vals.push(l_ii);
            inv_diag[i] = 1.0 / l_ii;
            row_ptr.push(cols.len());
        }

        Ok(Ic0 {
            n,
            row_ptr,
            cols,
            vals,
            inv_diag,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries of `L` (strictly-lower plus diagonal).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The factor as a [`CsrMatrix`] (tests and inspection).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_raw_parts(
            self.n,
            self.n,
            self.row_ptr.clone(),
            self.cols.clone(),
            self.vals.clone(),
        )
        // rsls-lint: allow(no-unwrap) -- the factorization stores each row's strictly-lower columns ascending then the diagonal, so the CSR invariants hold by construction
        .expect("IC(0) factor rows are ascending with in-bounds columns")
    }
}

impl Preconditioner for Ic0 {
    /// Solves `L Lᵀ z = r` with one forward and one backward sweep, both
    /// in `z`. Strictly sequential, and allocation-free once `z` has
    /// length `n`.
    ///
    /// # Panics
    /// Panics on an `r` length mismatch.
    fn apply(&mut self, r: &[f64], z: &mut Vec<f64>) -> Option<f64> {
        assert_eq!(r.len(), self.n, "ic0 apply: r length mismatch");
        z.resize(self.n, 0.0);
        // Forward: L z = r, rows ascending (diagonal is each row's last).
        for i in 0..self.n {
            let mut s = r[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] - 1 {
                s -= self.vals[k] * z[self.cols[k]];
            }
            z[i] = s * self.inv_diag[i];
        }
        // Backward: Lᵀ z = z via column sweeps of L, rows descending.
        for i in (0..self.n).rev() {
            let zi = z[i] * self.inv_diag[i];
            z[i] = zi;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] - 1 {
                z[self.cols[k]] -= self.vals[k] * zi;
            }
        }
        Some(dot(r, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::assert_tracked_residual_is_exact;
    use crate::{Cg, CgConfig, Jacobi};
    use rsls_sparse::generators::{banded_spd, stencil_2d, tridiagonal, BandedConfig};
    use rsls_sparse::vector::dist2;

    fn zero(a: &CsrMatrix) -> Vec<f64> {
        vec![0.0; a.nrows()]
    }

    #[test]
    fn ic0_of_tridiagonal_is_exact_cholesky() {
        // Tridiagonal SPD has no fill-in, so IC(0) == complete Cholesky
        // and L Lᵀ reproduces A exactly.
        let a = tridiagonal(40, 2.5);
        let l = Ic0::factor(&a).unwrap().to_csr();
        let lt = l.transpose();
        for i in 0..40 {
            for j in 0..40 {
                let mut s = 0.0;
                for k in 0..40 {
                    s += l.get(i, k) * lt.get(k, j);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j}): {s}");
            }
        }
    }

    #[test]
    fn ic0_apply_solves_the_factored_system() {
        let a = tridiagonal(50, 3.0);
        let mut ic0 = Ic0::factor(&a).unwrap();
        let r: Vec<f64> = (0..50).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
        let mut z = Vec::new();
        let rz = ic0.apply(&r, &mut z);
        assert_eq!(rz.map(f64::to_bits), Some(dot(&r, &z).to_bits()));
        // For the no-fill case, A z must equal r.
        let mut az = vec![0.0; 50];
        a.spmv(&z, &mut az);
        assert!(dist2(&az, &r) < 1e-9, "{}", dist2(&az, &r));
    }

    #[test]
    fn ic0_rejects_indefinite_matrix() {
        use rsls_sparse::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push_sym(0, 1, 2.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(matches!(
            Ic0::factor(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn ic0_pcg_solves_spd_system() {
        let a = banded_spd(&BandedConfig::regular(120, 5, 0.1, 6));
        let b = vec![1.0; 120];
        let mut pcg = Cg::with_preconditioner(&a, &b, zero(&a), Ic0::factor(&a).unwrap());
        let (_, ok) = pcg.solve(&CgConfig::default());
        assert!(ok);
        let mut ax = vec![0.0; 120];
        a.spmv(pcg.x(), &mut ax);
        assert!(dist2(&ax, &b) < 1e-8);
    }

    #[test]
    fn ic0_pcg_cuts_iterations_vs_jacobi_on_stencil() {
        let a = stencil_2d(24, 24);
        let b = vec![1.0; a.nrows()];
        let cfg = CgConfig {
            tolerance: 1e-10,
            max_iterations: 10_000,
        };
        let ic0 = Ic0::factor(&a).unwrap();
        let ic0_iters = Cg::with_preconditioner(&a, &b, zero(&a), ic0).solve(&cfg).0;
        let jacobi_iters = Cg::with_preconditioner(&a, &b, zero(&a), Jacobi::new(&a))
            .solve(&cfg)
            .0;
        assert!(
            3 * ic0_iters <= 2 * jacobi_iters,
            "IC(0) ({ic0_iters}) should cut Jacobi ({jacobi_iters}) by at least 1.5x on the stencil"
        );
    }

    #[test]
    fn tracked_residual_matches_recomputed_dot() {
        let a = stencil_2d(9, 9);
        let b: Vec<f64> = (0..81).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        let ic0 = Ic0::factor(&a).unwrap();
        assert_tracked_residual_is_exact(Cg::with_preconditioner(&a, &b, zero(&a), ic0), 20);
        let banded = banded_spd(&BandedConfig::regular(90, 5, 0.3, 4));
        let banded_b: Vec<f64> = (0..90).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let ic0 = Ic0::factor(&banded).unwrap();
        let pcg = Cg::with_preconditioner(&banded, &banded_b, zero(&banded), ic0);
        assert_tracked_residual_is_exact(pcg, 20);
    }
}
