//! The Jacobi (diagonal) preconditioner.
//!
//! The paper evaluates plain CG; Jacobi-PCG ([`crate::Cg`] with
//! [`Jacobi`]) is included as the natural extension (its related work
//! discusses PCG variants) and is exercised by the ablation benches to
//! show recovery behaviour is not specific to the unpreconditioned
//! method.

use rsls_sparse::vector::jacobi_dot;
use rsls_sparse::CsrMatrix;

use crate::cg::Preconditioner;

/// `M = diag(A)`: `z = D⁻¹ r`.
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Inverts the diagonal of `a`.
    ///
    /// # Panics
    /// Panics if any diagonal entry is zero (Jacobi is undefined then).
    pub fn new(a: &CsrMatrix) -> Jacobi {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| {
                assert!(d != 0.0, "Jacobi preconditioner requires nonzero diagonal");
                1.0 / d
            })
            .collect();
        Jacobi { inv_diag }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&mut self, r: &[f64], z: &mut Vec<f64>) -> Option<f64> {
        z.resize(r.len(), 0.0);
        // Fused preconditioner application + rᵀz, bit-identical to the
        // elementwise z-update followed by dot(r, z).
        Some(jacobi_dot(&self.inv_diag, r, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::assert_tracked_residual_is_exact;
    use crate::{Cg, CgConfig};
    use rsls_sparse::generators::{banded_spd, stencil_2d, BandedConfig};

    fn jacobi_pcg<'a>(a: &'a CsrMatrix, b: &'a [f64]) -> Cg<'a, Jacobi> {
        Cg::with_preconditioner(a, b, vec![0.0; a.nrows()], Jacobi::new(a))
    }

    #[test]
    fn pcg_solves_spd_system() {
        let a = banded_spd(&BandedConfig::regular(120, 5, 0.1, 6));
        let b = vec![1.0; 120];
        let mut pcg = jacobi_pcg(&a, &b);
        let (_, ok) = pcg.solve(&CgConfig::default());
        assert!(ok);
    }

    #[test]
    fn tracked_residual_matches_recomputed_dot() {
        let a = banded_spd(&BandedConfig::regular(90, 5, 0.3, 4));
        let b: Vec<f64> = (0..90).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        assert_tracked_residual_is_exact(jacobi_pcg(&a, &b), 25);
        let s = stencil_2d(9, 9);
        let sb: Vec<f64> = (0..81).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        assert_tracked_residual_is_exact(jacobi_pcg(&s, &sb), 20);
    }

    #[test]
    fn pcg_is_no_slower_than_cg_on_badly_scaled_diagonal() {
        // Scale rows/cols wildly: Jacobi should shine.
        use rsls_sparse::CooMatrix;
        let n = 150;
        let base = banded_spd(&BandedConfig::regular(n, 5, 0.2, 8));
        let scale: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 5) as i32 - 2)).collect();
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in base.iter() {
            coo.push(r, c, v * scale[r] * scale[c]).unwrap();
        }
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            tolerance: 1e-10,
            max_iterations: 20_000,
        };
        let pcg_iters = jacobi_pcg(&a, &b).solve(&cfg).0;
        let cg_iters = Cg::from_zero(&a, &b).solve(&cfg).0;
        assert!(
            pcg_iters <= cg_iters,
            "Jacobi PCG ({pcg_iters}) should beat CG ({cg_iters}) here"
        );
    }
}
