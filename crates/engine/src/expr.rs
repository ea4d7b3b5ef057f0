//! Bound expressions: name-resolved, index-based expressions ready for
//! evaluation, plus SQL three-valued logic.
//!
//! Binding happens once at plan time against a chain of scopes (the current
//! operator's schema plus any enclosing query scopes, for correlated
//! subqueries). Evaluation is then a cheap index-based tree walk.
//!
//! [`BoundExpr::children`] / [`BoundExpr::children_mut`] are the one
//! description of an expression's shape; traversals that do not compute
//! something per variant (depth analysis, column re-indexing, aggregate
//! slot resolution) are written over them.

use conquer_sql::ast;

use crate::col::ColBatch;
use crate::error::{EngineError, Result};
use crate::exec;
use crate::governor::Governor;
use crate::plan::Plan;
use crate::value::{ArithOp, Value};

/// A resolved expression.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column at `depth` scopes up (0 = current row) and position `index`.
    Column {
        depth: usize,
        index: usize,
    },
    Literal(Value),
    Binary {
        op: ast::BinaryOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    Neg(Box<BoundExpr>),
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
    /// Reference to a computed aggregate slot; only valid above an
    /// `Aggregate` operator whose output lays out group columns first and
    /// aggregate slots after them. Resolved to a plain column index.
    AggRef {
        index: usize,
    },
    /// A subquery evaluated per row (correlated or used as a value).
    Subquery {
        plan: Box<Plan>,
        kind: SubqueryKind,
    },
}

/// How a row-level subquery result is consumed.
#[derive(Debug, Clone)]
pub enum SubqueryKind {
    Exists {
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)` with full SQL NULL semantics.
    In {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    /// Scalar subquery: zero rows yield NULL, more than one row is an error.
    Scalar,
}

/// Scalar (non-aggregate) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Coalesce,
    Least,
    Greatest,
}

impl ScalarFunc {
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "abs" => ScalarFunc::Abs,
            "coalesce" => ScalarFunc::Coalesce,
            "least" => ScalarFunc::Least,
            "greatest" => ScalarFunc::Greatest,
            _ => return None,
        })
    }
}

impl PartialEq for BoundExpr {
    /// Structural equality, used for GROUP BY matching. Subqueries never
    /// compare equal (conservative: they may be correlated or volatile).
    fn eq(&self, other: &BoundExpr) -> bool {
        use BoundExpr::*;
        match (self, other) {
            (
                Column {
                    depth: d1,
                    index: i1,
                },
                Column {
                    depth: d2,
                    index: i2,
                },
            ) => d1 == d2 && i1 == i2,
            (Literal(a), Literal(b)) => a == b,
            (
                Binary {
                    op: o1,
                    left: l1,
                    right: r1,
                },
                Binary {
                    op: o2,
                    left: l2,
                    right: r2,
                },
            ) => o1 == o2 && l1 == l2 && r1 == r2,
            (Not(a), Not(b)) | (Neg(a), Neg(b)) => a == b,
            (
                IsNull {
                    expr: e1,
                    negated: n1,
                },
                IsNull {
                    expr: e2,
                    negated: n2,
                },
            ) => n1 == n2 && e1 == e2,
            (
                InList {
                    expr: e1,
                    list: l1,
                    negated: n1,
                },
                InList {
                    expr: e2,
                    list: l2,
                    negated: n2,
                },
            ) => n1 == n2 && e1 == e2 && l1 == l2,
            (
                Like {
                    expr: e1,
                    pattern: p1,
                    negated: n1,
                },
                Like {
                    expr: e2,
                    pattern: p2,
                    negated: n2,
                },
            ) => n1 == n2 && e1 == e2 && p1 == p2,
            (
                Case {
                    branches: b1,
                    else_expr: e1,
                },
                Case {
                    branches: b2,
                    else_expr: e2,
                },
            ) => b1 == b2 && e1 == e2,
            (Func { func: f1, args: a1 }, Func { func: f2, args: a2 }) => f1 == f2 && a1 == a2,
            (AggRef { index: i1 }, AggRef { index: i2 }) => i1 == i2,
            _ => false,
        }
    }
}

impl BoundExpr {
    pub fn column(index: usize) -> BoundExpr {
        BoundExpr::Column { depth: 0, index }
    }

    /// The direct sub-expressions, in evaluation order. A `Subquery`'s plan
    /// is not among them — its expressions live one scope deeper, so every
    /// traversal handles it as its own case — but an `IN` subquery's needle
    /// is: it is evaluated against the current row.
    pub fn children(&self) -> Vec<&BoundExpr> {
        use BoundExpr::*;
        match self {
            Column { .. } | Literal(_) | AggRef { .. } => Vec::new(),
            Binary { left, right, .. } => vec![left, right],
            Not(e) | Neg(e) | IsNull { expr: e, .. } => vec![e],
            InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Like { expr, pattern, .. } => vec![expr, pattern],
            Case {
                branches,
                else_expr,
            } => branches
                .iter()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref())
                .collect(),
            Func { args, .. } => args.iter().collect(),
            Subquery { kind, .. } => match kind {
                SubqueryKind::In { expr, .. } => vec![expr],
                SubqueryKind::Exists { .. } | SubqueryKind::Scalar => Vec::new(),
            },
        }
    }

    /// [`BoundExpr::children`], mutably and in the same order.
    pub fn children_mut(&mut self) -> Vec<&mut BoundExpr> {
        use BoundExpr::*;
        match self {
            Column { .. } | Literal(_) | AggRef { .. } => Vec::new(),
            Binary { left, right, .. } => vec![left, right],
            Not(e) | Neg(e) | IsNull { expr: e, .. } => vec![e],
            InList { expr, list, .. } => std::iter::once(&mut **expr).chain(list).collect(),
            Like { expr, pattern, .. } => vec![expr, pattern],
            Case {
                branches,
                else_expr,
            } => branches
                .iter_mut()
                .flat_map(|(c, v)| [c, v])
                .chain(else_expr.as_deref_mut())
                .collect(),
            Func { args, .. } => args.iter_mut().collect(),
            Subquery { kind, .. } => match kind {
                SubqueryKind::In { expr, .. } => vec![expr],
                SubqueryKind::Exists { .. } | SubqueryKind::Scalar => Vec::new(),
            },
        }
    }

    /// Maximum scope depth referenced anywhere in the expression (0 when the
    /// expression only touches the current row). Subquery plans track their
    /// own depths relative to their inner scope, which sits one level below,
    /// so a plan referencing depth `d` contributes `d - 1` here.
    pub fn max_depth(&self) -> usize {
        let own = match self {
            BoundExpr::Column { depth, .. } => *depth,
            BoundExpr::Subquery { plan, .. } => plan.max_outer_depth().saturating_sub(1),
            _ => 0,
        };
        self.children()
            .into_iter()
            .map(BoundExpr::max_depth)
            .fold(own, usize::max)
    }
}

/// The current row of a scope: a row of values, or row `i` of a column
/// batch read in place. A batch row is read cell by cell
/// ([`ColumnChunk::value_at`](crate::col::ColumnChunk::value_at)), which
/// gives the value a pivot of the batch would hold, without pivoting it.
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    Values(&'a [Value]),
    At(&'a ColBatch, usize),
}

/// Runtime scope chain: the current row plus enclosing query rows. Carries
/// the enclosing query's resource [`Governor`] so correlated subqueries
/// executed per row stay governed.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    pub row: RowRef<'a>,
    pub parent: Option<&'a Env<'a>>,
    pub gov: Option<&'a Governor>,
}

impl<'a> Env<'a> {
    pub fn root(row: &'a [Value]) -> Env<'a> {
        Env::governed(RowRef::Values(row), None)
    }

    /// A root scope governed by `gov`.
    pub fn governed(row: RowRef<'a>, gov: Option<&'a Governor>) -> Env<'a> {
        Env {
            row,
            parent: None,
            gov,
        }
    }

    pub fn push(row: RowRef<'a>, parent: &'a Env<'a>) -> Env<'a> {
        Env {
            row,
            parent: Some(parent),
            gov: parent.gov,
        }
    }

    fn lookup(&self, depth: usize, index: usize) -> Result<Value> {
        let mut env = self;
        for _ in 0..depth {
            env = env
                .parent
                .ok_or_else(|| EngineError::Execution("scope depth exceeds environment".into()))?;
        }
        let out_of_bounds =
            || EngineError::Execution(format!("column index {index} out of bounds"));
        match env.row {
            RowRef::Values(row) => row.get(index).cloned().ok_or_else(out_of_bounds),
            RowRef::At(batch, i) => Ok(batch
                .cols()
                .get(index)
                .ok_or_else(out_of_bounds)?
                .value_at(i)),
        }
    }
}

/// Three-valued logical AND.
pub fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued logical OR.
pub fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued logical NOT.
pub fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

fn bool_value(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

impl BoundExpr {
    /// Evaluate to a value in the given environment.
    pub fn eval(&self, env: &Env<'_>) -> Result<Value> {
        match self {
            BoundExpr::Column { depth, index } => env.lookup(*depth, *index),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, env),
            BoundExpr::Not(e) => Ok(bool_value(not3(e.eval(env)?.as_bool()?))),
            BoundExpr::Neg(e) => {
                match e.eval(env)? {
                    Value::Null => Ok(Value::Null),
                    Value::Int(v) => Ok(Value::Int(v.checked_neg().ok_or_else(|| {
                        EngineError::Eval("integer overflow in negation".into())
                    })?)),
                    Value::Float(v) => Ok(Value::Float(-v)),
                    other => Err(EngineError::TypeError(format!(
                        "cannot negate {}",
                        other.type_name()
                    ))),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let isnull = expr.eval(env)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval(env)?;
                let mut any_unknown = false;
                let mut found = false;
                for item in list {
                    match needle.sql_eq(&item.eval(env)?)? {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                let raw = if found {
                    Some(true)
                } else if any_unknown {
                    None
                } else {
                    Some(false)
                };
                Ok(bool_value(if *negated { not3(raw) } else { raw }))
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(env)?;
                let p = pattern.eval(env)?;
                match (&v, &p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(p)) => {
                        let m = like_match(s, p);
                        Ok(Value::Bool(m != *negated))
                    }
                    _ => Err(EngineError::TypeError(format!(
                        "LIKE requires strings, got {} and {}",
                        v.type_name(),
                        p.type_name()
                    ))),
                }
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, value) in branches {
                    if cond.eval(env)?.as_bool()? == Some(true) {
                        return value.eval(env);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(env),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Func { func, args } => eval_func(*func, args, env),
            BoundExpr::AggRef { .. } => Err(EngineError::Execution(
                "aggregate reference evaluated outside aggregation context".into(),
            )),
            BoundExpr::Subquery { plan, kind } => eval_subquery(plan, kind, env),
        }
    }

    /// Evaluate as a predicate under three-valued logic.
    pub fn eval_predicate(&self, env: &Env<'_>) -> Result<Option<bool>> {
        // AND/OR need short-circuit three-valued handling rather than
        // strict value evaluation.
        match self {
            BoundExpr::Binary {
                op: ast::BinaryOp::And,
                left,
                right,
            } => {
                let l = left.eval_predicate(env)?;
                if l == Some(false) {
                    return Ok(Some(false));
                }
                Ok(and3(l, right.eval_predicate(env)?))
            }
            BoundExpr::Binary {
                op: ast::BinaryOp::Or,
                left,
                right,
            } => {
                let l = left.eval_predicate(env)?;
                if l == Some(true) {
                    return Ok(Some(true));
                }
                Ok(or3(l, right.eval_predicate(env)?))
            }
            BoundExpr::Not(e) => Ok(not3(e.eval_predicate(env)?)),
            _ => self.eval(env)?.as_bool(),
        }
    }
}

fn eval_binary(
    op: ast::BinaryOp,
    left: &BoundExpr,
    right: &BoundExpr,
    env: &Env<'_>,
) -> Result<Value> {
    use ast::BinaryOp::*;
    match op {
        And => Ok(bool_value(and3(
            left.eval_predicate(env)?,
            right.eval_predicate(env)?,
        ))),
        Or => Ok(bool_value(or3(
            left.eval_predicate(env)?,
            right.eval_predicate(env)?,
        ))),
        Plus | Minus | Multiply | Divide | Modulo => {
            let l = left.eval(env)?;
            let r = right.eval(env)?;
            let aop = match op {
                Plus => ArithOp::Add,
                Minus => ArithOp::Sub,
                Multiply => ArithOp::Mul,
                Divide => ArithOp::Div,
                _ => ArithOp::Mod,
            };
            l.arith(aop, &r)
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let l = left.eval(env)?;
            let r = right.eval(env)?;
            let cmp = l.sql_cmp(&r)?;
            Ok(bool_value(cmp.map(|ord| match op {
                Eq => ord.is_eq(),
                NotEq => !ord.is_eq(),
                Lt => ord.is_lt(),
                LtEq => ord.is_le(),
                Gt => ord.is_gt(),
                // Only comparison ops reach this arm; GtEq is the remainder.
                _ => ord.is_ge(),
            })))
        }
    }
}

fn eval_func(func: ScalarFunc, args: &[BoundExpr], env: &Env<'_>) -> Result<Value> {
    match func {
        ScalarFunc::Abs => {
            let v = args
                .first()
                .ok_or_else(|| EngineError::Execution("abs() requires one argument".into()))?
                .eval(env)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => {
                    Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                        EngineError::Eval("integer overflow in abs()".into())
                    })?))
                }
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(EngineError::TypeError(format!(
                    "abs() expects a number, got {}",
                    other.type_name()
                ))),
            }
        }
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(env)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Least | ScalarFunc::Greatest => {
            let mut best: Option<Value> = None;
            for a in args {
                let v = a.eval(env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b)? {
                            Some(ord) => {
                                if func == ScalarFunc::Least {
                                    ord.is_lt()
                                } else {
                                    ord.is_gt()
                                }
                            }
                            None => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

fn eval_subquery(plan: &Plan, kind: &SubqueryKind, env: &Env<'_>) -> Result<Value> {
    match kind {
        SubqueryKind::Exists { negated } => {
            let rows = exec::execute(plan, Some(env))?;
            Ok(Value::Bool(rows.rows.is_empty() == *negated))
        }
        SubqueryKind::In { expr, negated } => {
            let needle = expr.eval(env)?;
            let rows = exec::execute(plan, Some(env))?;
            if rows.schema.len() != 1 {
                return Err(EngineError::Execution(
                    "IN subquery must return exactly one column".into(),
                ));
            }
            let mut any_unknown = false;
            let mut found = false;
            for row in &rows.rows {
                match needle.sql_eq(&row[0])? {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => any_unknown = true,
                }
            }
            let raw = if found {
                Some(true)
            } else if any_unknown {
                None
            } else {
                Some(false)
            };
            Ok(bool_value(if *negated { not3(raw) } else { raw }))
        }
        SubqueryKind::Scalar => {
            let rows = exec::execute(plan, Some(env))?;
            if rows.schema.len() != 1 {
                return Err(EngineError::Execution(
                    "scalar subquery must return exactly one column".into(),
                ));
            }
            match rows.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rows.rows[0][0].clone()),
                n => Err(EngineError::Execution(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
    }
}

/// SQL `LIKE` pattern matching: `%` matches any sequence, `_` any single
/// character. Matching is over Unicode scalar values.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer algorithm with backtracking on the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            pi = sp + 1;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_row(row: &[Value]) -> Env<'_> {
        Env::root(row)
    }

    #[test]
    fn three_valued_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(not3(None), None);
    }

    #[test]
    fn column_lookup_across_scopes() {
        let outer_row = vec![Value::Int(42)];
        let inner_row = vec![Value::Int(7)];
        let outer = Env::root(&outer_row);
        let inner = Env::push(RowRef::Values(&inner_row), &outer);
        let e0 = BoundExpr::Column { depth: 0, index: 0 };
        let e1 = BoundExpr::Column { depth: 1, index: 0 };
        assert_eq!(e0.eval(&inner).unwrap(), Value::Int(7));
        assert_eq!(e1.eval(&inner).unwrap(), Value::Int(42));
        assert!(e1.eval(&outer).is_err());
    }

    #[test]
    fn a_batch_row_reads_in_place_what_its_pivot_holds() {
        use crate::schema::{Column, DataType, Schema};
        let schema = Schema::new(vec![
            Column::new(None, "i", DataType::Integer),
            Column::new(None, "s", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Null, Value::Null],
        ];
        let batch = ColBatch::from_rows(&schema, rows);
        let outer_row = vec![Value::Int(42)];
        let outer = Env::root(&outer_row);
        for i in 0..batch.len() {
            let env = Env::push(RowRef::At(&batch, i), &outer);
            for (c, want) in batch.row_at(i).into_iter().enumerate() {
                assert_eq!(BoundExpr::column(c).eval(&env).unwrap(), want);
            }
            let e1 = BoundExpr::Column { depth: 1, index: 0 };
            assert_eq!(e1.eval(&env).unwrap(), Value::Int(42));
            assert!(BoundExpr::column(2).eval(&env).is_err());
        }
    }

    #[test]
    fn case_falls_through_to_else_and_null() {
        let row = vec![Value::Int(5)];
        let case = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Binary {
                    op: ast::BinaryOp::Gt,
                    left: Box::new(BoundExpr::column(0)),
                    right: Box::new(BoundExpr::Literal(Value::Int(10))),
                },
                BoundExpr::Literal(Value::Int(1)),
            )],
            else_expr: Some(Box::new(BoundExpr::Literal(Value::Int(0)))),
        };
        assert_eq!(case.eval(&env_row(&row)).unwrap(), Value::Int(0));
        let no_else = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Literal(Value::Bool(false)),
                BoundExpr::Literal(Value::Int(1)),
            )],
            else_expr: None,
        };
        assert_eq!(no_else.eval(&env_row(&row)).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_null_semantics() {
        let row = vec![Value::Int(1), Value::Null];
        // 1 IN (2, NULL) is unknown.
        let e = BoundExpr::InList {
            expr: Box::new(BoundExpr::column(0)),
            list: vec![
                BoundExpr::Literal(Value::Int(2)),
                BoundExpr::Literal(Value::Null),
            ],
            negated: false,
        };
        assert_eq!(e.eval(&env_row(&row)).unwrap(), Value::Null);
        // 1 IN (1, NULL) is true.
        let e = BoundExpr::InList {
            expr: Box::new(BoundExpr::column(0)),
            list: vec![
                BoundExpr::Literal(Value::Int(1)),
                BoundExpr::Literal(Value::Null),
            ],
            negated: false,
        };
        assert_eq!(e.eval(&env_row(&row)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("BUILDING", "BUILD%"));
        assert!(like_match("green apple", "%green%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("xxayyybzzz", "%a%b%"));
    }

    #[test]
    fn comparison_with_null_is_unknown() {
        let row = vec![Value::Null];
        let e = BoundExpr::Binary {
            op: ast::BinaryOp::Gt,
            left: Box::new(BoundExpr::column(0)),
            right: Box::new(BoundExpr::Literal(Value::Int(10))),
        };
        assert_eq!(e.eval_predicate(&env_row(&row)).unwrap(), None);
    }

    #[test]
    fn coalesce_and_least_greatest() {
        let row: Vec<Value> = vec![];
        let env = env_row(&row);
        let c = BoundExpr::Func {
            func: ScalarFunc::Coalesce,
            args: vec![
                BoundExpr::Literal(Value::Null),
                BoundExpr::Literal(Value::Int(3)),
            ],
        };
        assert_eq!(c.eval(&env).unwrap(), Value::Int(3));
        let l = BoundExpr::Func {
            func: ScalarFunc::Least,
            args: vec![
                BoundExpr::Literal(Value::Int(3)),
                BoundExpr::Literal(Value::Int(-2)),
            ],
        };
        assert_eq!(l.eval(&env).unwrap(), Value::Int(-2));
        let g = BoundExpr::Func {
            func: ScalarFunc::Greatest,
            args: vec![
                BoundExpr::Literal(Value::Float(1.5)),
                BoundExpr::Literal(Value::Int(2)),
            ],
        };
        assert_eq!(g.eval(&env).unwrap(), Value::Int(2));
    }

    /// A marker sub-expression no other slot of the same expression holds.
    fn m(n: i64) -> Box<BoundExpr> {
        Box::new(BoundExpr::Literal(Value::Int(n)))
    }

    fn subquery(kind: SubqueryKind) -> BoundExpr {
        BoundExpr::Subquery {
            plan: Box::new(Plan::Unit),
            kind,
        }
    }

    #[test]
    fn children_list_every_sub_expression_in_evaluation_order() {
        // Position of a variant in the enum. No wildcard: a new variant
        // fails to compile here until it is listed, and then fails the
        // count below until a specimen is added.
        fn variant(e: &BoundExpr) -> usize {
            match e {
                BoundExpr::Column { .. } => 0,
                BoundExpr::Literal(_) => 1,
                BoundExpr::Binary { .. } => 2,
                BoundExpr::Not(_) => 3,
                BoundExpr::Neg(_) => 4,
                BoundExpr::IsNull { .. } => 5,
                BoundExpr::InList { .. } => 6,
                BoundExpr::Like { .. } => 7,
                BoundExpr::Case { .. } => 8,
                BoundExpr::Func { .. } => 9,
                BoundExpr::AggRef { .. } => 10,
                BoundExpr::Subquery { .. } => 11,
            }
        }
        let specimens: Vec<(BoundExpr, Vec<i64>)> = vec![
            (BoundExpr::column(3), vec![]),
            (*m(0), vec![]),
            (
                BoundExpr::Binary {
                    op: ast::BinaryOp::Plus,
                    left: m(1),
                    right: m(2),
                },
                vec![1, 2],
            ),
            (BoundExpr::Not(m(1)), vec![1]),
            (BoundExpr::Neg(m(1)), vec![1]),
            (
                BoundExpr::IsNull {
                    expr: m(1),
                    negated: true,
                },
                vec![1],
            ),
            (
                BoundExpr::InList {
                    expr: m(1),
                    list: vec![*m(2), *m(3)],
                    negated: false,
                },
                vec![1, 2, 3],
            ),
            (
                BoundExpr::Like {
                    expr: m(1),
                    pattern: m(2),
                    negated: false,
                },
                vec![1, 2],
            ),
            (
                BoundExpr::Case {
                    branches: vec![(*m(1), *m(2)), (*m(3), *m(4))],
                    else_expr: Some(m(5)),
                },
                vec![1, 2, 3, 4, 5],
            ),
            (
                BoundExpr::Func {
                    func: ScalarFunc::Coalesce,
                    args: vec![*m(1), *m(2)],
                },
                vec![1, 2],
            ),
            (BoundExpr::AggRef { index: 0 }, vec![]),
            (subquery(SubqueryKind::Exists { negated: false }), vec![]),
            (subquery(SubqueryKind::Scalar), vec![]),
            (
                subquery(SubqueryKind::In {
                    expr: m(1),
                    negated: false,
                }),
                vec![1],
            ),
        ];
        let mut variants: Vec<usize> = specimens.iter().map(|(e, _)| variant(e)).collect();
        variants.dedup();
        assert_eq!(variants, (0..12).collect::<Vec<_>>(), "one per variant");
        for (mut e, markers) in specimens {
            let expected: Vec<BoundExpr> = markers.into_iter().map(|n| *m(n)).collect();
            let by_ref: Vec<BoundExpr> = e.children().into_iter().cloned().collect();
            assert_eq!(by_ref, expected, "children of {e:?}");
            let by_mut: Vec<BoundExpr> = e.children_mut().into_iter().map(|c| c.clone()).collect();
            assert_eq!(by_mut, expected, "children_mut of {e:?}");
        }
    }

    /// `needle IN (SELECT … WHERE EXISTS (SELECT … WHERE x = <outer>))`
    /// with the outer reference `depth` scopes above the innermost row.
    fn in_over_exists(depth: usize, needle: BoundExpr) -> (BoundExpr, Plan, Plan) {
        let innermost = Plan::Filter {
            input: Box::new(Plan::Unit),
            predicate: BoundExpr::Binary {
                op: ast::BinaryOp::Eq,
                left: Box::new(BoundExpr::column(0)),
                right: Box::new(BoundExpr::Column { depth, index: 0 }),
            },
        };
        let middle = Plan::Filter {
            input: Box::new(Plan::Unit),
            predicate: BoundExpr::Subquery {
                plan: Box::new(innermost.clone()),
                kind: SubqueryKind::Exists { negated: false },
            },
        };
        let outer = BoundExpr::Subquery {
            plan: Box::new(middle.clone()),
            kind: SubqueryKind::In {
                expr: Box::new(needle),
                negated: false,
            },
        };
        (outer, middle, innermost)
    }

    /// Depths through two subquery levels: each level an expression sits
    /// below the scope it names takes one off.
    #[test]
    fn depths_through_two_levels_of_correlated_subqueries() {
        // Depth 2 from the innermost plan is the row the IN is evaluated
        // against: correlated all the way down, closed at the top.
        let (e, middle, innermost) = in_over_exists(2, BoundExpr::column(1));
        assert_eq!(innermost.max_outer_depth(), 2);
        assert_eq!(middle.max_outer_depth(), 1);
        assert_eq!(e.max_depth(), 0);
        // One scope further out escapes the IN's own row too.
        let (e, middle, innermost) = in_over_exists(3, BoundExpr::column(1));
        assert_eq!(innermost.max_outer_depth(), 3);
        assert_eq!(middle.max_outer_depth(), 2);
        assert_eq!(e.max_depth(), 1);
        // The needle is evaluated in the IN's scope, not the subquery's.
        let (e, _, _) = in_over_exists(2, BoundExpr::Column { depth: 2, index: 0 });
        assert_eq!(e.max_depth(), 2);
    }
}
