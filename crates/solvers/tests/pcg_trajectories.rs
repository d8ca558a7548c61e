//! Pinned PCG trajectories: FNV-1a digests of the iterate and residual
//! bits after 1 step, after 10 steps and at convergence.
//!
//! The constants were recorded from the dedicated Jacobi- and IC(0)-PCG
//! solvers that `Cg::with_preconditioner` replaced; they pin that the
//! generic recurrence reproduces those runs bit for bit.

use rsls_core::Fnv1a;
use rsls_solvers::{Cg, CgConfig, Ic0, Jacobi, Preconditioner};
use rsls_sparse::generators::{banded_spd, stencil_2d, BandedConfig};
use rsls_sparse::CsrMatrix;

/// `(after 1 step, after 10 steps, at convergence, iterations)`.
type Pin = (u64, u64, u64, usize);

fn digest(x: &[f64], residual: f64) -> u64 {
    let mut h = Fnv1a::new();
    for &v in x {
        h.update_f64(v);
    }
    h.update_f64(residual);
    h.finish()
}

fn trajectory<M: Preconditioner>(a: &CsrMatrix, b: &[f64], m: M) -> Pin {
    let mut s = Cg::with_preconditioner(a, b, vec![0.0; a.nrows()], m);
    s.step();
    let one = digest(s.x(), s.relative_residual());
    for _ in 1..10 {
        s.step();
    }
    let ten = digest(s.x(), s.relative_residual());
    let (iters, ok) = s.solve(&CgConfig::default());
    assert!(ok);
    (one, ten, digest(s.x(), s.relative_residual()), iters)
}

/// `(matrix, Jacobi pin, IC(0) pin)`.
fn cases() -> [(CsrMatrix, Pin, Pin); 2] {
    [
        (
            stencil_2d(24, 24),
            (
                0x923f_fd01_ccfe_1deb,
                0x9c07_76c1_12a8_5965,
                0x87e7_f8b8_6e6e_1818,
                53,
            ),
            (
                0xb06f_b913_0851_0d64,
                0x34fb_74ba_6e09_19dd,
                0xa7bc_b0cf_69f5_9a8f,
                30,
            ),
        ),
        (
            banded_spd(&BandedConfig::regular(120, 5, 0.1, 6)),
            (
                0x9c27_c16e_d370_9b07,
                0x0208_19e4_6ea3_bdfc,
                0x1aeb_319f_a705_4b9d,
                52,
            ),
            (
                0xea08_234c_bbd0_c53f,
                0x126a_16cf_41c9_fd74,
                0x126a_16cf_41c9_fd74,
                10,
            ),
        ),
    ]
}

#[test]
fn jacobi_and_ic0_trajectories_are_pinned() {
    for (a, jacobi, ic0) in cases() {
        let b = vec![1.0; a.nrows()];
        assert_eq!(trajectory(&a, &b, Jacobi::new(&a)), jacobi);
        assert_eq!(trajectory(&a, &b, Ic0::factor(&a).unwrap()), ic0);
    }
}
