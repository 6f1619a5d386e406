//! Answer checks, independent of the solver under test: the residual is
//! recomputed with serial `CsrMatrix::matvec`.

use hpf_sparse::CsrMatrix;

/// `‖b − A x‖ / ‖b‖`; infinite when the shapes disagree or `b = 0`.
pub fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.n_cols() || b.len() != a.n_rows() {
        return f64::INFINITY;
    }
    let Ok(ax) = a.matvec(x) else {
        return f64::INFINITY;
    };
    let r2: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, ai)| (bi - ai) * (bi - ai))
        .sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    if b2 == 0.0 {
        return f64::INFINITY;
    }
    (r2 / b2).sqrt()
}

/// `Ok(residual)` when `x` solves `A x = b` to relative tolerance `tol`,
/// otherwise a message naming the miss.
pub fn check_solution(a: &CsrMatrix, x: &[f64], b: &[f64], tol: f64) -> Result<f64, String> {
    let rel = relative_residual(a, x, b);
    if rel.is_finite() && rel <= tol {
        Ok(rel)
    } else {
        Err(format!(
            "relative residual {rel:e} exceeds tolerance {tol:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_solvers::{cg, StopCriterion};
    use hpf_sparse::gen;

    #[test]
    fn checker_accepts_a_solve_and_rejects_a_corrupted_one() {
        let a = gen::poisson_2d(12, 12);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-8), 1000).unwrap();
        assert!(stats.converged);
        assert!(check_solution(&a, &x, &b, 1e-8).is_ok());
        x[17] += 1e-3;
        assert!(check_solution(&a, &x, &b, 1e-8).is_err());
        x[17] = f64::NAN;
        assert!(check_solution(&a, &x, &b, 1e-8).is_err());
        assert!(check_solution(&a, &x[1..], &b, 1e-8).is_err());
    }
}
