//! Entropy maximization over a polytope.
//!
//! We maximize `H(p) = -Σ p_a ln p_a` over `{p ∈ Δ : A p ≤ b}`, `Δ` the
//! probability simplex. Entropy is strictly concave, so
//! the maximizer — the paper §6's "maximum-entropy point of `S(KB)`" — is
//! unique whenever the polytope is nonempty.
//!
//! [`maximize_entropy_dual`] minimizes the convex Gibbs dual over the row
//! multipliers by projected Newton and reconstructs the point in closed
//! form, so coordinates at scale `τ²` keep full relative precision. A
//! warm-started step of the τ-sweep takes two to five Newton steps.

/// Failure modes of entropy maximization.
#[derive(Clone, Debug, PartialEq)]
pub enum EntropyError {
    /// The constraint polytope is empty.
    Infeasible,
    /// The solver did not reach its tolerance within the iteration budget
    /// (carries the last point and its optimality gap, the dual's KKT
    /// residual).
    DidNotConverge { point: Vec<f64>, gap: f64 },
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntropyError::Infeasible => write!(f, "constraint polytope is empty"),
            EntropyError::DidNotConverge { gap, .. } => {
                write!(
                    f,
                    "optimality gap {gap:.2e} above tolerance at iteration budget"
                )
            }
        }
    }
}

impl std::error::Error for EntropyError {}

/// Shannon entropy (natural log) of a non-negative vector.
pub fn entropy(p: &[f64]) -> f64 {
    p.iter()
        .map(|&x| if x > 0.0 { -x * x.ln() } else { 0.0 })
        .sum()
}

/// Maximizes entropy over `{p ∈ Δ : rows·p ≤ rhs, p_a = 0 for pinned a}` by
/// solving the *dual* problem in Gibbs form.
///
/// The maximizer of `H(p)` subject to `Σ p = 1` and `A p ≤ b` is
/// `p_a ∝ exp(-(Aᵀλ)_a)` for multipliers `λ ≥ 0` minimizing the convex dual
/// `g(λ) = ln Σ_a exp(-(Aᵀλ)_a) + b·λ`. Because the primal point is
/// reconstructed in closed form from `λ`, coordinates at scale `τ²` (which
/// arise in exceptional-subclass inheritance, paper Example 5.20) come out
/// with full *relative* precision, where an additive optimality-gap bound
/// would be useless. The dual is minimized by projected Newton (see
/// [`maximize_entropy_dual_warm`]).
///
/// `zero` marks atoms pinned to exactly zero (from universal conjuncts);
/// before solving, a closure pass propagates rows of the form
/// `Σ c_a p_a ≤ 0` with `c ≥ 0`, which force further exact zeros that the
/// Gibbs parameterization cannot represent.
pub fn maximize_entropy_dual(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
) -> Result<Vec<f64>, EntropyError> {
    maximize_entropy_dual_warm(rows, zero, n, None).map(|(p, _)| p)
}

/// As [`maximize_entropy_dual`], optionally warm-started from a previous
/// multiplier vector (the τ-sweep reuses multipliers across steps: `λ`
/// changes by `O(ln 1/factor)` per step, so a warm start is a few Newton
/// steps from the next optimum). Returns the point and the final
/// multipliers.
///
/// **Projected Newton.** The gradient of `g` is `b − E_p[A]` and its
/// Hessian is the covariance of the rows under `p` — a dense matrix over a
/// few dozen rows at most. Each step works on the *free* multipliers
/// (`λ_j > 0`, or `λ_j = 0` with the gradient pointing into `λ_j > 0`),
/// solves the Newton system on them by Cholesky with a tiny Levenberg term
/// (the upper and lower rows of one `≈_i` comparison are nearly opposite,
/// which makes the covariance singular when both are free), and
/// backtracks along the projection onto `λ ≥ 0` until the Armijo condition
/// holds. The test for sufficient decrease allows for the rounding error
/// of `g` itself, so the quadratically convergent final steps are never
/// refused for moving `g` by less than an ulp. The solve stops once the
/// KKT residual is below `1e-11`; a solve that has not got there within
/// its step budget is [`EntropyError::DidNotConverge`].
pub fn maximize_entropy_dual_warm(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
    warm: Option<&[f64]>,
) -> Result<(Vec<f64>, Vec<f64>), EntropyError> {
    solve_dual(rows, zero, n, warm).map(|s| (s.point, s.lambda))
}

/// Newton steps allowed per solve. Warm-started sweep solves take a
/// handful and cold solves a few dozen; more means the dual has no
/// minimizer (a polytope whose relative interior the zero closure missed).
const MAX_NEWTON_STEPS: usize = 200;
/// Halvings of the step length before a line search gives up.
const MAX_BACKTRACKS: usize = 60;
/// Stopping tolerance on the KKT residual of the dual.
const KKT_TOL: f64 = 1e-11;
/// Armijo sufficient-decrease fraction.
const ARMIJO: f64 = 1e-4;
/// Levenberg term, relative to the largest diagonal of the Hessian.
const LEVENBERG: f64 = 1e-12;

/// A converged dual solve.
#[derive(Debug)]
pub(crate) struct DualSolution {
    /// The maximum-entropy point (pinned atoms are zero).
    pub point: Vec<f64>,
    /// The multipliers of the live rows.
    pub lambda: Vec<f64>,
    /// Newton steps taken (read by the convergence tests).
    #[allow(dead_code)]
    pub steps: usize,
}

/// [`maximize_entropy_dual_warm`], also reporting the Newton step count.
pub(crate) fn solve_dual(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
    warm: Option<&[f64]>,
) -> Result<DualSolution, EntropyError> {
    solve_dual_capped(rows, zero, n, warm, MAX_NEWTON_STEPS)
}

fn solve_dual_capped(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
    warm: Option<&[f64]>,
    max_steps: usize,
) -> Result<DualSolution, EntropyError> {
    // --- Zero closure -----------------------------------------------------
    let mut pinned = zero.to_vec();
    loop {
        let mut changed = false;
        for (coeffs, rhs) in rows {
            if *rhs > 1e-14 {
                continue;
            }
            let mut all_nonneg = true;
            let mut has_pos = false;
            for (a, &c) in coeffs.iter().enumerate() {
                if pinned[a] {
                    continue;
                }
                if c < -1e-14 {
                    all_nonneg = false;
                    break;
                }
                if c > 1e-14 {
                    has_pos = true;
                }
            }
            if all_nonneg {
                if *rhs < -1e-12 {
                    return Err(EntropyError::Infeasible);
                }
                if has_pos {
                    for (a, &c) in coeffs.iter().enumerate() {
                        if !pinned[a] && c > 1e-14 {
                            pinned[a] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let act: Vec<usize> = (0..n).filter(|&a| !pinned[a]).collect();
    if act.is_empty() {
        return Err(EntropyError::Infeasible);
    }

    // On the simplex a row is at least its smallest active coefficient, so
    // a row whose smallest coefficient exceeds its bound witnesses
    // infeasibility (a row with no support on active atoms: `0 ≤ rhs < 0`).
    for (coeffs, rhs) in rows {
        let floor = act.iter().map(|&a| coeffs[a]).fold(f64::INFINITY, f64::min);
        if floor - rhs > 1e-12 {
            return Err(EntropyError::Infeasible);
        }
    }
    let dual = GibbsDual::new(rows, &act);
    let m = dual.b.len();

    // --- Projected Newton ---------------------------------------------------
    let mut lambda = match warm {
        Some(w) if w.len() == m => w.to_vec(),
        _ => vec![0.0f64; m],
    };
    let mut q = vec![0.0f64; act.len()];
    let mut trial_q = vec![0.0f64; act.len()];
    let mut mean = vec![0.0f64; m];
    let mut grad = vec![0.0f64; m];
    let (mut g, mut slack) = dual.eval(&lambda, &mut q);
    let point = |q: &[f64]| {
        let mut p = vec![0.0f64; n];
        for (&qa, &a) in q.iter().zip(&act) {
            p[a] = qa;
        }
        p
    };
    let mut kkt = f64::INFINITY;
    for steps in 0..=max_steps {
        dual.means(&q, &mut mean);
        kkt = 0.0;
        for j in 0..m {
            grad[j] = dual.b[j] - mean[j];
            let residual = if lambda[j] > 0.0 {
                grad[j].abs()
            } else {
                (-grad[j]).max(0.0)
            };
            kkt = kkt.max(residual);
        }
        if kkt < KKT_TOL {
            return Ok(DualSolution {
                point: point(&q),
                lambda,
                steps,
            });
        }
        if steps == max_steps {
            break;
        }
        let Some(d) = dual.newton_direction(&q, &mean, &grad, &lambda) else {
            break;
        };
        let mut alpha = 1.0f64;
        let mut accepted = false;
        for _ in 0..MAX_BACKTRACKS {
            let trial: Vec<f64> = lambda
                .iter()
                .zip(&d)
                .map(|(&l, &dj)| (l + alpha * dj).max(0.0))
                .collect();
            let decrease: f64 = trial
                .iter()
                .zip(&lambda)
                .zip(&grad)
                .map(|((&t, &l), &gj)| gj * (t - l))
                .sum();
            let (trial_g, trial_slack) = dual.eval(&trial, &mut trial_q);
            if trial_g <= g + ARMIJO * decrease + slack.max(trial_slack) {
                lambda = trial;
                std::mem::swap(&mut q, &mut trial_q);
                (g, slack) = (trial_g, trial_slack);
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            break;
        }
    }
    Err(EntropyError::DidNotConverge {
        point: point(&q),
        gap: kkt,
    })
}

/// The Gibbs dual restricted to the active atoms: `rows` holds the live
/// rows' coefficients on active atoms, row-major (`m × k`).
struct GibbsDual {
    k: usize,
    rows: Vec<f64>,
    b: Vec<f64>,
}

impl GibbsDual {
    /// Keeps the rows with support on some active atom.
    fn new(rows: &[(Vec<f64>, f64)], act: &[usize]) -> GibbsDual {
        let mut dense = Vec::new();
        let mut b = Vec::new();
        for (coeffs, rhs) in rows {
            if act.iter().any(|&a| coeffs[a].abs() > 1e-14) {
                dense.extend(act.iter().map(|&a| coeffs[a]));
                b.push(*rhs);
            }
        }
        GibbsDual {
            k: act.len(),
            rows: dense,
            b,
        }
    }

    fn row(&self, j: usize) -> &[f64] {
        &self.rows[j * self.k..(j + 1) * self.k]
    }

    /// Evaluates `g(λ)`, writing the Gibbs distribution over active atoms
    /// into `q`. Also returns the rounding slack of `g`: a few ulps of the
    /// largest term summed into it.
    fn eval(&self, lambda: &[f64], q: &mut [f64]) -> (f64, f64) {
        q.fill(0.0);
        for (j, &l) in lambda.iter().enumerate() {
            if l != 0.0 {
                for (t, &c) in q.iter_mut().zip(self.row(j)) {
                    *t -= l * c;
                }
            }
        }
        let tmax = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        for t in q.iter_mut() {
            *t = (*t - tmax).exp();
            z += *t;
        }
        for t in q.iter_mut() {
            *t /= z;
        }
        let lz = z.ln();
        let mut g = lz + tmax;
        let mut scale = 1.0 + lz.abs() + tmax.abs();
        for (&l, &rhs) in lambda.iter().zip(&self.b) {
            g += l * rhs;
            scale += (l * rhs).abs();
        }
        (g, 32.0 * f64::EPSILON * scale)
    }

    /// `E_q[row_j]` for every row.
    fn means(&self, q: &[f64], out: &mut [f64]) {
        for (j, e) in out.iter_mut().enumerate() {
            *e = self.row(j).iter().zip(q).map(|(&c, &qa)| c * qa).sum();
        }
    }

    /// The projected Newton direction at `λ` (zero off the free set), or
    /// `None` when the Newton system stays singular after raising the
    /// Levenberg term (only non-finite rows can cause that).
    ///
    /// A multiplier at its bound that the step would push negative leaves
    /// the free set, and the system is solved again without it. The set
    /// never empties: the step is a descent direction on it, so if every
    /// member sat at its bound (gradient negative) some component of the
    /// step would be positive, and members with `λ_j > 0` are never dropped.
    fn newton_direction(
        &self,
        q: &[f64],
        mean: &[f64],
        grad: &[f64],
        lambda: &[f64],
    ) -> Option<Vec<f64>> {
        let mut free: Vec<usize> = (0..self.b.len())
            .filter(|&j| lambda[j] > 0.0 || grad[j] < 0.0)
            .collect();
        loop {
            let f = free.len();
            // The Hessian is Cov_q of the free rows: the q-weighted Gram
            // matrix of the centered rows.
            let centered: Vec<Vec<f64>> = free
                .iter()
                .map(|&j| self.row(j).iter().map(|&c| c - mean[j]).collect())
                .collect();
            let mut h = vec![0.0f64; f * f];
            let mut max_diag = 0.0f64;
            for r in 0..f {
                for c in 0..=r {
                    h[r * f + c] = (0..self.k)
                        .map(|a| q[a] * centered[r][a] * centered[c][a])
                        .sum();
                }
                max_diag = max_diag.max(h[r * f + r]);
            }
            let rhs: Vec<f64> = free.iter().map(|&j| -grad[j]).collect();
            let mut mu = LEVENBERG * max_diag.max(f64::MIN_POSITIVE);
            let step = (0..8).find_map(|_| {
                let x = cholesky_solve(&h, f, mu, &rhs);
                mu *= 100.0;
                x
            })?;
            let blocked = |(&j, &s): (&usize, &f64)| lambda[j] == 0.0 && s < 0.0;
            if !free.iter().zip(&step).any(blocked) {
                let mut d = vec![0.0f64; self.b.len()];
                for (&j, &s) in free.iter().zip(&step) {
                    d[j] = s;
                }
                return Some(d);
            }
            free = free
                .iter()
                .zip(&step)
                .filter(|pair| !blocked(*pair))
                .map(|(&j, _)| j)
                .collect();
        }
    }
}

/// Solves `(H + μI) x = rhs` by Cholesky, reading the lower triangle of
/// the row-major `f × f` matrix `h`; `None` when a pivot is not positive.
fn cholesky_solve(h: &[f64], f: usize, mu: f64, rhs: &[f64]) -> Option<Vec<f64>> {
    let mut l = vec![0.0f64; f * f];
    for i in 0..f {
        for j in 0..=i {
            let mut s = h[i * f + j];
            if i == j {
                s += mu;
            }
            for k in 0..j {
                s -= l[i * f + k] * l[j * f + k];
            }
            if i == j {
                if !(s.is_finite() && s > 0.0) {
                    return None;
                }
                l[i * f + i] = s.sqrt();
            } else {
                l[i * f + j] = s / l[j * f + j];
            }
        }
    }
    let mut y = rhs.to_vec();
    for i in 0..f {
        for k in 0..i {
            y[i] -= l[i * f + k] * y[k];
        }
        y[i] /= l[i * f + i];
    }
    for i in (0..f).rev() {
        for k in i + 1..f {
            y[i] -= l[k * f + i] * y[k];
        }
        y[i] /= l[i * f + i];
    }
    Some(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The maxent point over `{p ∈ Δ : rows}` with no atom pre-pinned.
    fn maxent(n: usize, rows: &[(Vec<f64>, f64)]) -> Result<Vec<f64>, EntropyError> {
        maximize_entropy_dual(rows, &vec![false; n], n)
    }

    #[test]
    fn unconstrained_simplex_is_uniform() {
        for n in [2usize, 4, 8] {
            let p = maxent(n, &[]).unwrap();
            for &x in &p {
                assert!((x - 1.0 / n as f64).abs() < 1e-12, "n={n}: {p:?}");
            }
        }
    }

    #[test]
    fn pinned_coordinate() {
        // Uniform (0.5, 0.5) violates p0 ≤ 0.3, so the bound binds and the
        // optimum is (0.3, 0.7).
        let p = maxent(2, &[(vec![1.0, 0.0], 0.3)]).unwrap();
        assert!((p[0] - 0.3).abs() < 1e-10, "{p:?}");
        assert!((p[1] - 0.7).abs() < 1e-10);
    }

    #[test]
    fn zero_coordinate() {
        let p = maxent(3, &[(vec![0.0, 0.0, 1.0], 0.0)]).unwrap();
        assert_eq!(p[2], 0.0);
        assert!(
            (p[0] - 0.5).abs() < 1e-10 && (p[1] - 0.5).abs() < 1e-10,
            "{p:?}"
        );
    }

    #[test]
    fn conditional_constraint_shape() {
        // The Black-birds example (paper Example 5.29), atoms ordered
        // (B∧Bl, B∧¬Bl, ¬B∧Bl, ¬B∧¬Bl): ||Bird|| = 0.1, ||Black|Bird|| = 0.2
        // → p0+p1 = 0.1, p0 = 0.02 → maxent splits the rest: p2 = p3 = 0.45.
        let p = maxent(
            4,
            &[
                (vec![1.0, 1.0, 0.0, 0.0], 0.1),
                (vec![-1.0, -1.0, 0.0, 0.0], -0.1),
                // p0 = 0.2 (p0 + p1):
                (vec![0.8, -0.2, 0.0, 0.0], 0.0),
                (vec![-0.8, 0.2, 0.0, 0.0], 0.0),
            ],
        )
        .unwrap();
        assert!((p[0] - 0.02).abs() < 1e-10, "{p:?}");
        assert!((p[1] - 0.08).abs() < 1e-10);
        assert!((p[2] - 0.45).abs() < 1e-10);
        assert!((p[3] - 0.45).abs() < 1e-10);
        // Pr(Black(Clyde)) = p0 + p2 = 0.47 — the paper's number.
        assert!((p[0] + p[2] - 0.47).abs() < 1e-10);
    }

    #[test]
    fn infeasible_polytope() {
        // Σ p = 1 but p0 + p1 ≤ 0.5.
        assert_eq!(
            maxent(2, &[(vec![1.0, 1.0], 0.5)]),
            Err(EntropyError::Infeasible)
        );
    }

    #[test]
    fn entropy_value_sanity() {
        assert!((entropy(&[0.5, 0.5]) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    /// `(coeffs, rhs)` rows of `lo ≤ p_S ≤ hi` for the atom set `S`.
    fn band(n: usize, set: &[usize], lo: f64, hi: f64) -> Vec<(Vec<f64>, f64)> {
        let mut up = vec![0.0; n];
        for &a in set {
            up[a] = 1.0;
        }
        let down = up.iter().map(|c| -c).collect();
        vec![(up, hi), (down, -lo)]
    }

    #[test]
    fn dual_newton_matches_closed_forms() {
        // Black birds again, as a band: p0 + p1 ∈ [0.1, 0.1], then
        // p0 = 0.2 (p0 + p1) as two opposite rows.
        let mut rows = band(4, &[0, 1], 0.1, 0.1);
        rows.push((vec![0.8, -0.2, 0.0, 0.0], 0.0));
        rows.push((vec![-0.8, 0.2, 0.0, 0.0], 0.0));
        let s = solve_dual(&rows, &[false; 4], 4, None).unwrap();
        for (x, want) in s.point.iter().zip([0.02, 0.08, 0.45, 0.45]) {
            assert!((x - want).abs() < 1e-10, "{:?}", s.point);
        }
        // A slack band leaves the uniform point alone: no step needed.
        let s = solve_dual(&band(4, &[0], 0.1, 0.4), &[false; 4], 4, None).unwrap();
        assert!(s.point.iter().all(|x| (x - 0.25).abs() < 1e-15));
        assert_eq!(s.steps, 0);
    }

    #[test]
    fn dual_warm_start_returns_the_same_point_in_fewer_steps() {
        let rows = band(4, &[0, 1], 0.7, 0.75);
        let cold = solve_dual(&rows, &[false; 4], 4, None).unwrap();
        let warm = solve_dual(&rows, &[false; 4], 4, Some(&cold.lambda)).unwrap();
        assert!(cold.steps > 0);
        assert_eq!(warm.steps, 0);
        assert_eq!(warm.point, cold.point);
        assert!((cold.point[0] - 0.35).abs() < 1e-12, "{:?}", cold.point);
    }

    #[test]
    fn dual_zero_closure_pins_atoms_exactly() {
        // p2 ≤ 0 pins atom 2; the rest is uniform.
        let rows = vec![(vec![0.0, 0.0, 1.0], 0.0)];
        let p = maximize_entropy_dual(&rows, &[false; 3], 3).unwrap();
        assert_eq!(p[2], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-15 && (p[1] - 0.5).abs() < 1e-15);
        // Pinning everything is infeasible.
        let rows = vec![(vec![1.0, 1.0], 0.0)];
        assert_eq!(
            maximize_entropy_dual(&rows, &[false; 2], 2),
            Err(EntropyError::Infeasible)
        );
    }

    #[test]
    fn dual_step_cap_is_reported_not_returned_as_a_point() {
        // A cold solve of a binding band needs more than one Newton step;
        // cut at one, it must fail rather than pass off an unconverged
        // point as the maximizer.
        let rows = band(4, &[0], 0.02, 0.03);
        match solve_dual_capped(&rows, &[false; 4], 4, None, 1) {
            Err(EntropyError::DidNotConverge { point, gap }) => {
                assert_eq!(point.len(), 4);
                assert!(gap >= KKT_TOL, "{gap}");
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
        assert!(solve_dual_capped(&rows, &[false; 4], 4, None, MAX_NEWTON_STEPS).is_ok());
    }

    #[test]
    fn kl_projection_matches_lagrangian_solution() {
        // max H s.t. p0 + p1 = 0.6 over 4 coords: closed form p0=p1=0.3,
        // p2=p3=0.2.
        let p = maxent(4, &band(4, &[0, 1], 0.6, 0.6)).unwrap();
        for (i, expect) in [0.3, 0.3, 0.2, 0.2].iter().enumerate() {
            assert!((p[i] - expect).abs() < 1e-10, "{p:?}");
        }
    }
}
