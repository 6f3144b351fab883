//! The model builder: variables, constraints, objective.

use crate::expr::{LinExpr, VarId};
use crate::mip::{self, MipOptions};
use crate::simplex;
use crate::solution::{LpError, Solution};
use std::fmt;

/// The optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// The relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Le => write!(f, "<="),
            Relation::Eq => write!(f, "="),
            Relation::Ge => write!(f, ">="),
        }
    }
}

/// A handle to a constraint in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub(crate) name: String,
    pub(crate) lb: f64,
    pub(crate) ub: f64,
    pub(crate) obj: f64,
    pub(crate) integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    pub(crate) expr: LinExpr,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear (or mixed-binary) optimization model.
///
/// Build the model with [`add_var`](Model::add_var) /
/// [`add_constraint`](Model::add_constraint), then call
/// [`solve`](Model::solve) (pure LP) or [`solve_mip`](Model::solve_mip)
/// (branch-and-bound over the binary variables).
///
/// # Examples
///
/// ```
/// use sb_lp::{Model, Sense};
/// # fn main() -> Result<(), sb_lp::LpError> {
/// // min x + y  s.t.  x + 2y >= 3,  3x + y >= 4
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
/// let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
/// m.add_ge(&[(x, 1.0), (y, 2.0)], 3.0);
/// m.add_ge(&[(x, 3.0), (y, 1.0)], 4.0);
/// let sol = m.solve()?;
/// assert!((sol.objective() - 2.0).abs() < 1e-6); // x=1, y=1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimization sense of this model.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with bounds `lb ≤ x ≤ ub` and objective
    /// coefficient `obj`. Use `f64::INFINITY` / `f64::NEG_INFINITY` for
    /// unbounded sides.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarDef {
            name: name.into(),
            lb,
            ub,
            obj,
            integer: false,
        });
        id
    }

    /// Adds a binary variable (`x ∈ {0, 1}` under [`solve_mip`](Model::solve_mip);
    /// relaxed to `0 ≤ x ≤ 1` under [`solve`](Model::solve)).
    pub fn add_binary_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarDef {
            name: name.into(),
            lb: 0.0,
            ub: 1.0,
            obj,
            integer: true,
        });
        id
    }

    /// Overwrites the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn set_objective_coef(&mut self, var: VarId, obj: f64) {
        self.vars[var.index()].obj = obj;
    }

    /// Adds the constraint `expr relation rhs`. The expression is normalized
    /// (duplicate variables merged) on insertion.
    pub fn add_constraint(
        &mut self,
        expr: impl Into<LinExpr>,
        relation: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let id = ConstraintId(u32::try_from(self.constraints.len()).expect("too many rows"));
        self.constraints.push(ConstraintDef {
            expr: expr.into().normalized(),
            relation,
            rhs,
        });
        id
    }

    /// Adds `expr ≤ rhs`.
    pub fn add_le(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(expr, Relation::Le, rhs)
    }

    /// Adds `expr = rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(expr, Relation::Eq, rhs)
    }

    /// Adds `expr ≥ rhs`.
    pub fn add_ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(expr, Relation::Ge, rhs)
    }

    /// Returns the indices of all binary variables.
    #[must_use]
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(u32::try_from(i).expect("checked at insert")))
            .collect()
    }

    /// Checks structural validity: finite objective coefficients, `lb ≤ ub`,
    /// no NaN anywhere, all constraint terms referencing existing variables.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] describing the first defect found.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb.is_nan() || v.ub.is_nan() || v.obj.is_nan() {
                return Err(LpError::InvalidModel(format!("variable {i} has NaN data")));
            }
            if !v.obj.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "variable {i} has non-finite objective coefficient"
                )));
            }
            if v.lb > v.ub {
                return Err(LpError::InvalidModel(format!(
                    "variable {i} ({}) has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
        }
        for (r, con) in self.constraints.iter().enumerate() {
            if con.rhs.is_nan() || !con.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "constraint {r} has non-finite rhs"
                )));
            }
            for &(v, c) in con.expr.terms() {
                if v.index() >= self.vars.len() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {r} references unknown variable {v}"
                    )));
                }
                if c.is_nan() || !c.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {r} has non-finite coefficient for {v}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves the continuous relaxation of the model with two-phase revised
    /// simplex.
    ///
    /// # Errors
    ///
    /// - [`LpError::Infeasible`] when no point satisfies the constraints.
    /// - [`LpError::Unbounded`] when the objective is unbounded.
    /// - [`LpError::InvalidModel`] on malformed input or numerical failure.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.validate()?;
        let bounds: Vec<(f64, f64)> = self.vars.iter().map(|v| (v.lb, v.ub)).collect();
        simplex::solve_with_bounds(self, &bounds)
    }

    /// Solves the model treating binary variables as integral, by best-first
    /// branch-and-bound over LP relaxations.
    ///
    /// # Errors
    ///
    /// - [`LpError::Infeasible`] when no integer-feasible point exists.
    /// - [`LpError::Unbounded`] when the relaxation is unbounded.
    /// - [`LpError::NodeLimit`] when the node limit is exhausted before any
    ///   integer-feasible point is found.
    /// - [`LpError::InvalidModel`] on malformed input.
    pub fn solve_mip(&self, options: &MipOptions) -> Result<Solution, LpError> {
        self.validate()?;
        mip::branch_and_bound(self, options)
    }

    /// Evaluates whether a dense assignment satisfies every constraint and
    /// every variable bound within `tol`.
    #[must_use]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs = c.expr.eval(values);
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }

    /// Evaluates the objective at a dense assignment (in the model's
    /// original sense).
    #[must_use]
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.vars
            .iter()
            .zip(values)
            .map(|(v, &x)| v.obj * x)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_counts_and_names() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("alpha", 0.0, 1.0, 1.0);
        let b = m.add_binary_var("flag", 2.0);
        m.add_le([(x, 1.0), (b, 1.0)], 1.5);
        assert_eq!(m.vars.len(), 2);
        assert_eq!(m.constraints.len(), 1);
        assert_eq!(m.vars[x.index()].name, "alpha");
        assert_eq!(m.binary_vars(), vec![b]);
        assert_eq!(m.sense(), Sense::Minimize);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, 0.0);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_nan_coefficient() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_le([(x, f64::NAN)], 1.0);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_foreign_variable() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        let mut other = Model::new(Sense::Minimize);
        other.add_var("a", 0.0, 1.0, 0.0);
        let foreign = other.add_var("b", 0.0, 1.0, 0.0);
        m.add_le([(x, 1.0), (foreign, 1.0)], 1.0);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn feasibility_checker_respects_relations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_ge([(x, 1.0)], 2.0);
        m.add_le([(x, 1.0)], 5.0);
        m.add_eq([(x, 2.0)], 6.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[1.0], 1e-9)); // violates >=
        assert!(!m.is_feasible(&[5.0], 1e-9)); // violates ==
        assert!(!m.is_feasible(&[], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_matches_manual_dot_product() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 3.0);
        let y = m.add_var("y", 0.0, 1.0, -1.0);
        let _ = (x, y);
        assert!((m.objective_value(&[2.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn relation_display() {
        assert_eq!(Relation::Le.to_string(), "<=");
        assert_eq!(Relation::Eq.to_string(), "=");
        assert_eq!(Relation::Ge.to_string(), ">=");
    }
}
