//! Output checks: a timing only counts when the answer is right.

use rlchol_sparse::SymCsc;

/// A solution passes when its scaled residual is at most this.
pub const RESIDUAL_LIMIT: f64 = 1e-10;

/// `‖A‖∞` of a symmetric matrix stored as its lower triangle.
pub fn inf_norm(a: &SymCsc) -> f64 {
    let mut row = vec![0.0f64; a.n()];
    for j in 0..a.n() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            row[i] += v.abs();
            if i != j {
                row[j] += v.abs();
            }
        }
    }
    row.into_iter().fold(0.0, f64::max)
}

fn vec_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Scaled residual `‖Ax−b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`; NaN when `x` holds a
/// non-finite entry, so a poisoned solution can never pass.
pub fn scaled_residual(a: &SymCsc, a_norm: f64, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.matvec(x, &mut ax);
    let r = ax
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    // `f64::max` skips NaN, so the norms above cannot see one.
    if !x.iter().all(|v| v.is_finite()) {
        return f64::NAN;
    }
    r / (a_norm * vec_inf(x) + vec_inf(b))
}

/// `Ok` when the residual is within [`RESIDUAL_LIMIT`], else an
/// "expected/got" line.
pub fn check_residual(
    what: &str,
    a: &SymCsc,
    a_norm: f64,
    x: &[f64],
    b: &[f64],
) -> Result<(), String> {
    residual_within(what, a, a_norm, x, b, RESIDUAL_LIMIT)
}

fn residual_within(
    what: &str,
    a: &SymCsc,
    a_norm: f64,
    x: &[f64],
    b: &[f64],
    limit: f64,
) -> Result<(), String> {
    if x.len() != b.len() {
        return Err(format!(
            "{what}: solution length expected {}, got {}",
            b.len(),
            x.len()
        ));
    }
    let r = scaled_residual(a, a_norm, x, b);
    // Written so that NaN fails.
    if r <= limit {
        Ok(())
    } else {
        Err(format!(
            "{what}: scaled residual expected <= {limit:e}, got {r:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::{grid2d, Stencil};

    #[test]
    fn residual_accepts_the_solution_and_rejects_a_wrong_one() {
        let a = grid2d(6, 6, Stencil::Star5, 1, 3);
        let norm = inf_norm(&a);
        assert!(norm > 0.0);
        let x: Vec<f64> = (0..a.n()).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut b = vec![0.0; a.n()];
        a.matvec(&x, &mut b);
        assert!(check_residual("exact", &a, norm, &x, &b).is_ok());

        let mut wrong = x.clone();
        wrong[5] += 1e-3;
        let err = check_residual("off", &a, norm, &wrong, &b).unwrap_err();
        assert!(err.contains("expected <= 1e-10"), "{err}");

        wrong[5] = f64::NAN;
        assert!(check_residual("nan", &a, norm, &wrong, &b).is_err());
    }

    #[test]
    fn a_zero_limit_fails_even_a_good_solution() {
        // The deliberately broken check of the acceptance criteria: with
        // the threshold at 0 a rounded solution cannot pass.
        let a = grid2d(6, 6, Stencil::Star5, 1, 3);
        let norm = inf_norm(&a);
        let x: Vec<f64> = (0..a.n()).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; a.n()];
        a.matvec(&x, &mut b);
        let nudged: Vec<f64> = x.iter().map(|v| v * (1.0 + 1e-15)).collect();
        assert!(check_residual("ok", &a, norm, &nudged, &b).is_ok());
        assert!(residual_within("zero", &a, norm, &nudged, &b, 0.0).is_err());
    }

    #[test]
    fn inf_norm_counts_both_triangles() {
        let a = grid2d(3, 1, Stencil::Star5, 1, 1);
        // Middle row holds its diagonal and both neighbours.
        let full: f64 = a.get(1, 0).abs() + a.get(1, 1).abs() + a.get(2, 1).abs();
        assert!((inf_norm(&a) - full).abs() < 1e-12);
    }
}
