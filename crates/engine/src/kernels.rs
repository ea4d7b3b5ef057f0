//! Vectorized predicate and projection kernels over [`ColBatch`].
//!
//! A bound predicate is *compiled* against a specific batch (column chunk
//! layouts are runtime properties — a demoted `Any` column compiles to
//! nothing) into a small tree of typed comparison nodes. Evaluation runs
//! tight per-column loops producing a three-state mask — true / null /
//! error bits packed in `u64` words — and the filter turns the true bits
//! into a selection vector of row indices.
//!
//! Semantics are bit-identical to the row-at-a-time path, including
//! errors: AND/OR reproduce SQL short-circuit reachability (a row whose
//! left conjunct is `false` never observes an error in the right
//! conjunct), and when an error bit survives to the top the original
//! expression is re-evaluated on that single pivoted row so the error
//! message is the row path's own. Compilation returns `None` for any
//! shape it can't reproduce exactly — subqueries, arithmetic, `Any`
//! columns, cross-type comparisons — and the executor falls back to rows.
//!
//! Projections compile the same way ([`compile_projection`]): lists made
//! of columns, literals, `+ - *` over numeric columns, `COALESCE(e, lit)`
//! and `CASE WHEN <leaf predicate> THEN e ELSE e END` evaluate column at a
//! time into fresh chunks (plain columns are shared, not copied). Their
//! error rule is coarser than the predicates': any value-level error
//! (integer overflow, a NaN in a CASE condition) makes [`Projection::eval`]
//! return `None`, and the executor discards the attempt and replays the
//! whole projection on the row path, whose row-major scan owns the error.
//!
//! The projection's arithmetic, COALESCE and CASE run typed slice loops:
//! the operator and the two operands' layouts ([`Lane`]: a column, read as
//! a slice cut to the batch's length, or one scalar for every row) are
//! matched outside the element loop, so each pair of layouts gets a loop of
//! its own with no per-element dispatch. Integer arithmetic wraps and notes
//! overflow in the loop; only when some row overflowed is each row checked
//! again — an overflow under a NULL is that row's placeholder, any other is
//! `None`. Float arithmetic is IEEE's, NaN, ±inf and `-0.0` included, as
//! the row path computes it.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use conquer_sql::ast::BinaryOp;

use crate::col::{Bitmap, ColBatch, ColumnChunk, ColumnData, TextDict};
use crate::error::{EngineError, Result};
use crate::expr::{like_match, BoundExpr, Env, RowRef, ScalarFunc};
use crate::value::{cmp_i64_f64, ArithOp, Value};

/// Extract plain current-row column indices from expressions, or `None`
/// if any expression is not a depth-0 column reference. Used to route
/// projections, join keys, and aggregate arguments to columnar paths.
pub fn column_indices<'e>(exprs: impl IntoIterator<Item = &'e BoundExpr>) -> Option<Vec<usize>> {
    exprs
        .into_iter()
        .map(|e| match e {
            BoundExpr::Column { depth: 0, index } => Some(*index),
            _ => None,
        })
        .collect()
}

/// A comparison operator normalized to `column op literal` form.
#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_ast(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::Ne,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::Le,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::Ge,
            _ => return None,
        })
    }

    /// Mirror the operator across the comparison (`lit op col` becomes
    /// `col flip(op) lit`).
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    fn passes(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// Compiled predicate node. Every variant's evaluation is either
/// infallible or records failures as error bits with row-path parity.
#[derive(Debug)]
enum Node {
    /// A bare boolean column used as the predicate.
    BoolCol {
        col: usize,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    /// Int column vs int literal.
    CmpII {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    /// Int column vs (non-NaN) float literal.
    CmpIF {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// Float column vs (non-NaN) float literal; NaN cells error.
    CmpFF {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// Float column vs int literal; NaN cells error.
    CmpFI {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    CmpDD {
        col: usize,
        op: CmpOp,
        lit: i32,
    },
    CmpBB {
        col: usize,
        op: CmpOp,
        lit: bool,
    },
    /// Text column: per-dictionary-code verdicts precomputed at compile
    /// time (covers comparisons and LIKE). NULL cells stay null.
    TextPass {
        col: usize,
        pass: Vec<bool>,
    },
    /// `col [NOT] IN (int literals)`.
    InInt {
        col: usize,
        items: Vec<i64>,
        has_null: bool,
        negated: bool,
    },
    /// `col [NOT] IN (date literals)`.
    InDate {
        col: usize,
        items: Vec<i32>,
        has_null: bool,
        negated: bool,
    },
    /// `col [NOT] IN (text literals)` with per-code membership.
    InText {
        col: usize,
        pass: Vec<bool>,
        has_null: bool,
        negated: bool,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

/// Three-state result mask over a row range: `t` = predicate true,
/// `n` = unknown (NULL), `e` = evaluation error reached this row. Bits
/// not covered by `t | n | e` mean false. Bit `k` is row `start + k`.
struct TriMask {
    t: Vec<u64>,
    n: Vec<u64>,
    e: Vec<u64>,
    len: usize,
}

impl TriMask {
    fn new(len: usize) -> TriMask {
        let words = len.div_ceil(64);
        TriMask {
            t: vec![0; words],
            n: vec![0; words],
            e: vec![0; words],
            len,
        }
    }

    #[inline]
    fn set_t(&mut self, k: usize) {
        self.t[k / 64] |= 1 << (k % 64);
    }

    #[inline]
    fn set_n(&mut self, k: usize) {
        self.n[k / 64] |= 1 << (k % 64);
    }

    #[inline]
    fn set_e(&mut self, k: usize) {
        self.e[k / 64] |= 1 << (k % 64);
    }

    /// All-ones mask for word `w` restricted to valid bit positions.
    #[inline]
    fn word_mask(&self, w: usize) -> u64 {
        let last = self.len.div_ceil(64).saturating_sub(1);
        if w == last && !self.len.is_multiple_of(64) {
            (1u64 << (self.len % 64)) - 1
        } else {
            u64::MAX
        }
    }

    /// SQL three-valued AND with short-circuit error reachability: a row
    /// whose left side is `false` (or already failed) never reaches the
    /// right side.
    fn and(mut self, r: TriMask) -> TriMask {
        for w in 0..self.t.len() {
            let (tl, nl, el) = (self.t[w], self.n[w], self.e[w]);
            let (tr, nr, er) = (r.t[w], r.n[w], r.e[w]);
            let reach_r = (tl | nl) & !el;
            let e = el | (reach_r & er);
            self.e[w] = e;
            self.t[w] = tl & tr & !e;
            self.n[w] = ((nl & (nr | tr)) | (tl & nr)) & !e;
        }
        self
    }

    /// SQL three-valued OR; a row whose left side is `true` never
    /// reaches the right side.
    fn or(mut self, r: TriMask) -> TriMask {
        for w in 0..self.t.len() {
            let (tl, nl, el) = (self.t[w], self.n[w], self.e[w]);
            let (tr, nr, er) = (r.t[w], r.n[w], r.e[w]);
            let reach_r = !tl & !el & self.word_mask(w);
            let e = el | (reach_r & er);
            self.e[w] = e;
            let t = (tl | (reach_r & tr)) & !e;
            self.t[w] = t;
            self.n[w] = (nl | nr) & !t & !e & self.word_mask(w);
        }
        self
    }

    fn not(mut self) -> TriMask {
        for w in 0..self.t.len() {
            let mask = self.word_mask(w);
            let f = !self.t[w] & !self.n[w] & !self.e[w] & mask;
            self.t[w] = f;
        }
        self
    }

    #[inline]
    fn get(&self, words: &[u64], k: usize) -> bool {
        words[k / 64] & (1 << (k % 64)) != 0
    }
}

/// A predicate compiled for one specific batch. Holds the source
/// expression so error rows can be re-evaluated for exact messages.
pub struct Pred<'a> {
    root: Node,
    expr: &'a BoundExpr,
}

/// Compile `expr` against `batch`'s column layout. `None` means the
/// expression (or the data it touches) can't be vectorized faithfully.
pub fn compile_predicate<'a>(expr: &'a BoundExpr, batch: &ColBatch) -> Option<Pred<'a>> {
    compile_node(expr, batch).map(|root| Pred { root, expr })
}

fn col_index(e: &BoundExpr) -> Option<usize> {
    match e {
        BoundExpr::Column { depth: 0, index } => Some(*index),
        _ => None,
    }
}

fn literal(e: &BoundExpr) -> Option<&Value> {
    match e {
        BoundExpr::Literal(v) => Some(v),
        _ => None,
    }
}

fn compile_node(e: &BoundExpr, batch: &ColBatch) -> Option<Node> {
    match e {
        BoundExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => Some(Node::And(
            Box::new(compile_node(left, batch)?),
            Box::new(compile_node(right, batch)?),
        )),
        BoundExpr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => Some(Node::Or(
            Box::new(compile_node(left, batch)?),
            Box::new(compile_node(right, batch)?),
        )),
        BoundExpr::Not(inner) => Some(Node::Not(Box::new(compile_node(inner, batch)?))),
        BoundExpr::Binary { op, left, right } => {
            let op = CmpOp::from_ast(*op)?;
            // Normalize to `col op lit`.
            let (col, lit, op) = if let (Some(c), Some(l)) = (col_index(left), literal(right)) {
                (c, l, op)
            } else if let (Some(c), Some(l)) = (col_index(right), literal(left)) {
                (c, l, op.flip())
            } else {
                return None;
            };
            compile_cmp(col, op, lit, batch)
        }
        BoundExpr::IsNull { expr, negated } => {
            let col = col_index(expr)?;
            if matches!(batch.col(col).data, ColumnData::Any(_)) {
                return None;
            }
            Some(Node::IsNull {
                col,
                negated: *negated,
            })
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let col = col_index(expr)?;
            compile_in_list(col, list, *negated, batch)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let col = col_index(expr)?;
            let Value::Str(pat) = literal(pattern)? else {
                return None;
            };
            let ColumnData::Text { dict, .. } = &batch.col(col).data else {
                return None;
            };
            let pass = dict
                .strings()
                .iter()
                .map(|s| like_match(s, pat) != *negated)
                .collect();
            Some(Node::TextPass { col, pass })
        }
        BoundExpr::Column { depth: 0, index } => {
            // A boolean column used directly as the predicate.
            if matches!(batch.col(*index).data, ColumnData::Bool(_)) {
                Some(Node::BoolCol { col: *index })
            } else {
                None
            }
        }
        _ => None,
    }
}

fn compile_cmp(col: usize, op: CmpOp, lit: &Value, batch: &ColBatch) -> Option<Node> {
    match (&batch.col(col).data, lit) {
        (ColumnData::Int(_), Value::Int(x)) => Some(Node::CmpII { col, op, lit: *x }),
        (ColumnData::Int(_), Value::Float(x)) if !x.is_nan() => {
            Some(Node::CmpIF { col, op, lit: *x })
        }
        (ColumnData::Float(_), Value::Float(x)) if !x.is_nan() => {
            Some(Node::CmpFF { col, op, lit: *x })
        }
        (ColumnData::Float(_), Value::Int(x)) => Some(Node::CmpFI { col, op, lit: *x }),
        (ColumnData::Date(_), Value::Date(x)) => Some(Node::CmpDD { col, op, lit: *x }),
        (ColumnData::Bool(_), Value::Bool(x)) => Some(Node::CmpBB { col, op, lit: *x }),
        (ColumnData::Text { dict, .. }, Value::Str(lit)) => {
            let pass = dict
                .strings()
                .iter()
                .map(|s| op.passes(s.as_ref().cmp(lit.as_ref())))
                .collect();
            Some(Node::TextPass { col, pass })
        }
        // NULL literals, NaN literals, and cross-type comparisons keep
        // their row-path semantics via fallback.
        _ => None,
    }
}

fn compile_in_list(
    col: usize,
    list: &[BoundExpr],
    negated: bool,
    batch: &ColBatch,
) -> Option<Node> {
    let mut has_null = false;
    let mut values: Vec<&Value> = Vec::with_capacity(list.len());
    for item in list {
        match literal(item)? {
            Value::Null => has_null = true,
            v => values.push(v),
        }
    }
    match &batch.col(col).data {
        ColumnData::Int(_) => {
            let items: Option<Vec<i64>> = values
                .iter()
                .map(|v| match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                })
                .collect();
            Some(Node::InInt {
                col,
                items: items?,
                has_null,
                negated,
            })
        }
        ColumnData::Date(_) => {
            let items: Option<Vec<i32>> = values
                .iter()
                .map(|v| match v {
                    Value::Date(x) => Some(*x),
                    _ => None,
                })
                .collect();
            Some(Node::InDate {
                col,
                items: items?,
                has_null,
                negated,
            })
        }
        ColumnData::Text { dict, .. } => {
            let strs: Option<Vec<&Arc<str>>> = values
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
            let strs = strs?;
            let pass = dict
                .strings()
                .iter()
                .map(|s| strs.iter().any(|item| item.as_ref() == s.as_ref()))
                .collect();
            Some(Node::InText {
                col,
                pass,
                has_null,
                negated,
            })
        }
        _ => None,
    }
}

/// Fold IN-list three-valued semantics (found / unknown / not found)
/// plus negation into (t, n) bits.
#[inline]
fn in_verdict(found: bool, has_null: bool, negated: bool) -> (bool, bool) {
    let raw = if found {
        Some(true)
    } else if has_null {
        None
    } else {
        Some(false)
    };
    let v = if negated { raw.map(|b| !b) } else { raw };
    (v == Some(true), v.is_none())
}

impl Node {
    /// Evaluate over the range. `None` means the batch's chunk layout
    /// did not match the compiled node (cannot happen for a batch the
    /// predicate was compiled against; kept panic-free regardless), and
    /// the caller falls back to row-at-a-time evaluation.
    fn eval(&self, batch: &ColBatch, range: Range<usize>) -> Option<TriMask> {
        let len = range.len();
        let mut m = TriMask::new(len);
        match self {
            Node::And(l, r) => {
                return Some(l.eval(batch, range.clone())?.and(r.eval(batch, range)?))
            }
            Node::Or(l, r) => return Some(l.eval(batch, range.clone())?.or(r.eval(batch, range)?)),
            Node::Not(x) => return Some(x.eval(batch, range)?.not()),
            Node::BoolCol { col } => {
                let chunk = batch.col(*col);
                if let ColumnData::Bool(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else if xs[i] {
                            m.set_t(k);
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::IsNull { col, negated } => {
                let chunk = batch.col(*col);
                for (k, i) in range.enumerate() {
                    if chunk.is_null(i) != *negated {
                        m.set_t(k);
                    }
                }
            }
            Node::CmpII { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Int(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else if op.passes(xs[i].cmp(lit)) {
                            m.set_t(k);
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::CmpIF { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Int(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            // lit is non-NaN, so this cannot fail.
                            match cmp_i64_f64(xs[i], *lit) {
                                Ok(ord) if op.passes(ord) => m.set_t(k),
                                Ok(_) => {}
                                Err(_) => m.set_e(k),
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::CmpFF { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Float(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            match xs[i].partial_cmp(lit) {
                                Some(ord) if op.passes(ord) => m.set_t(k),
                                Some(_) => {}
                                None => m.set_e(k), // NaN cell
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::CmpFI { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Float(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            match cmp_i64_f64(*lit, xs[i]) {
                                Ok(ord) if op.passes(ord.reverse()) => m.set_t(k),
                                Ok(_) => {}
                                Err(_) => m.set_e(k), // NaN cell
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::CmpDD { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Date(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else if op.passes(xs[i].cmp(lit)) {
                            m.set_t(k);
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::CmpBB { col, op, lit } => {
                let chunk = batch.col(*col);
                if let ColumnData::Bool(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else if op.passes(xs[i].cmp(lit)) {
                            m.set_t(k);
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::TextPass { col, pass } => {
                let chunk = batch.col(*col);
                if let ColumnData::Text { codes, .. } = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else if pass[codes[i] as usize] {
                            m.set_t(k);
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::InInt {
                col,
                items,
                has_null,
                negated,
            } => {
                let chunk = batch.col(*col);
                if let ColumnData::Int(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            let found = items.contains(&xs[i]);
                            let (t, n) = in_verdict(found, *has_null, *negated);
                            if t {
                                m.set_t(k);
                            } else if n {
                                m.set_n(k);
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::InDate {
                col,
                items,
                has_null,
                negated,
            } => {
                let chunk = batch.col(*col);
                if let ColumnData::Date(xs) = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            let found = items.contains(&xs[i]);
                            let (t, n) = in_verdict(found, *has_null, *negated);
                            if t {
                                m.set_t(k);
                            } else if n {
                                m.set_n(k);
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
            Node::InText {
                col,
                pass,
                has_null,
                negated,
            } => {
                let chunk = batch.col(*col);
                if let ColumnData::Text { codes, .. } = &chunk.data {
                    for (k, i) in range.enumerate() {
                        if chunk.is_null(i) {
                            m.set_n(k);
                        } else {
                            let found = pass[codes[i] as usize];
                            let (t, n) = in_verdict(found, *has_null, *negated);
                            if t {
                                m.set_t(k);
                            } else if n {
                                m.set_n(k);
                            }
                        }
                    }
                } else {
                    return None;
                }
            }
        }
        Some(m)
    }
}

impl<'a> Pred<'a> {
    /// Evaluate over `[range)` and append the passing row indices
    /// (absolute, ascending) to `out`. On the first row whose evaluation
    /// the row path would abort on, returns that row's exact error.
    pub fn select_into(
        &self,
        batch: &ColBatch,
        range: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let start = range.start;
        let Some(m) = self.root.eval(batch, range.clone()) else {
            // Layout mismatch (defensive): exact row-at-a-time fallback,
            // reading each row in place.
            for i in range {
                let env = Env::governed(RowRef::At(batch, i), None);
                if self.expr.eval_predicate(&env)? == Some(true) {
                    out.push(i as u32);
                }
            }
            return Ok(());
        };
        for k in 0..m.len {
            if m.get(&m.e, k) {
                return Err(self.row_error(batch, start + k));
            }
            if m.get(&m.t, k) {
                out.push((start + k) as u32);
            }
        }
        Ok(())
    }

    /// Reproduce the row path's error for row `i` by evaluating the
    /// original expression on that row, read in place.
    fn row_error(&self, batch: &ColBatch, i: usize) -> EngineError {
        let env = Env::governed(RowRef::At(batch, i), None);
        match self.expr.eval_predicate(&env) {
            Err(e) => e,
            Ok(_) => EngineError::Execution(
                "vectorized predicate flagged an error the row path does not reproduce".into(),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Projection kernels
// ---------------------------------------------------------------------------

/// One projection expression compiled for a specific batch.
enum ColExpr {
    Col(usize),
    Lit(Value),
    /// `+ - *` over numeric operands.
    Arith {
        op: ArithOp,
        left: Box<ColExpr>,
        right: Box<ColExpr>,
    },
    /// `COALESCE(expr, default)`.
    Coalesce {
        expr: Box<ColExpr>,
        default: Value,
    },
    /// `CASE WHEN cond THEN then ELSE otherwise END`; several branches
    /// nest through `otherwise`.
    Case {
        cond: Node,
        then: Box<ColExpr>,
        otherwise: Box<ColExpr>,
    },
}

/// A projection list compiled for one batch.
pub struct Projection {
    exprs: Vec<ColExpr>,
}

/// Compile a projection list against `batch`'s column layout, or `None`
/// if any expression is outside the shapes listed in the module docs.
pub fn compile_projection<'e>(
    exprs: impl IntoIterator<Item = &'e BoundExpr>,
    batch: &ColBatch,
) -> Option<Projection> {
    let exprs = exprs
        .into_iter()
        .map(|e| compile_col_expr(e, batch))
        .collect::<Option<Vec<_>>>()?;
    Some(Projection { exprs })
}

fn compile_col_expr(e: &BoundExpr, batch: &ColBatch) -> Option<ColExpr> {
    match e {
        BoundExpr::Column { depth: 0, index } => Some(ColExpr::Col(*index)),
        BoundExpr::Literal(v) => Some(ColExpr::Lit(v.clone())),
        BoundExpr::Binary { op, left, right } => {
            let op = match op {
                BinaryOp::Plus => ArithOp::Add,
                BinaryOp::Minus => ArithOp::Sub,
                BinaryOp::Multiply => ArithOp::Mul,
                _ => return None,
            };
            let left = compile_col_expr(left, batch)?;
            let right = compile_col_expr(right, batch)?;
            (is_numeric(&left, batch) && is_numeric(&right, batch)).then(|| ColExpr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        BoundExpr::Func {
            func: ScalarFunc::Coalesce,
            args,
        } => match args.as_slice() {
            [expr, BoundExpr::Literal(default)] => Some(ColExpr::Coalesce {
                expr: Box::new(compile_col_expr(expr, batch)?),
                default: default.clone(),
            }),
            _ => None,
        },
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            let mut out = match else_expr {
                Some(e) => compile_col_expr(e, batch)?,
                None => ColExpr::Lit(Value::Null),
            };
            for (cond, value) in branches.iter().rev() {
                // The row path evaluates a CASE condition as a *value*,
                // where AND/OR do not short-circuit past errors the way
                // the predicate kernels do; only leaf predicates (one
                // comparison, IS NULL, IN, LIKE) mean the same both ways.
                if matches!(
                    cond,
                    BoundExpr::Not(_)
                        | BoundExpr::Binary {
                            op: BinaryOp::And | BinaryOp::Or,
                            ..
                        }
                ) {
                    return None;
                }
                out = ColExpr::Case {
                    cond: compile_node(cond, batch)?,
                    then: Box::new(compile_col_expr(value, batch)?),
                    otherwise: Box::new(out),
                };
            }
            Some(out)
        }
        _ => None,
    }
}

/// Can `e` be an arithmetic operand: does it evaluate to integers or
/// floats (NULLs aside)?
fn is_numeric(e: &ColExpr, batch: &ColBatch) -> bool {
    match e {
        ColExpr::Col(i) => matches!(
            batch.col(*i).data,
            ColumnData::Int(_) | ColumnData::Float(_)
        ),
        ColExpr::Lit(v) => matches!(v, Value::Int(_) | Value::Float(_)),
        ColExpr::Arith { .. } => true,
        ColExpr::Coalesce { expr, default } => {
            is_numeric(expr, batch)
                && matches!(default, Value::Int(_) | Value::Float(_) | Value::Null)
        }
        ColExpr::Case { .. } => false,
    }
}

/// An evaluated expression: a column, or one value standing for all rows.
enum Evaluated {
    Chunk(Arc<ColumnChunk>),
    Scalar(Value),
}

/// A numeric operand viewed without copying.
#[derive(Clone, Copy)]
enum Num<'a> {
    Ints(&'a [i64]),
    Floats(&'a [f64]),
    Int(i64),
    Float(f64),
}

impl<'a> Num<'a> {
    fn is_int(self) -> bool {
        matches!(self, Num::Ints(_) | Num::Int(_))
    }

    /// As integers; only asked of an [`is_int`](Num::is_int) operand.
    fn ints(self) -> Lane<'a, i64> {
        match self {
            Num::Ints(xs) => Lane::Col(Cow::Borrowed(xs)),
            Num::Int(x) => Lane::One(x),
            Num::Floats(_) | Num::Float(_) => unreachable!("an integer operand"),
        }
    }

    /// As floats: an integer column is converted once, up front.
    fn floats(self) -> Lane<'a, f64> {
        match self {
            Num::Ints(xs) => Lane::Col(Cow::Owned(xs.iter().map(|&x| x as f64).collect())),
            Num::Floats(xs) => Lane::Col(Cow::Borrowed(xs)),
            Num::Int(x) => Lane::One(x as f64),
            Num::Float(x) => Lane::One(x),
        }
    }
}

/// One typed operand of an element loop: a column, or one value for
/// every row.
enum Lane<'a, T: Clone> {
    Col(Cow<'a, [T]>),
    One(T),
}

/// Evaluate `$body` with `$x` and `$y` bound to accessors `usize -> T` of
/// the two [`Lane`]s, once per pair of layouts: the loop in `$body` is
/// monomorphized for each, a column read from a slice cut to `$n` rows (so
/// its bounds checks fold away) and a scalar hoisted out of the loop.
macro_rules! with_lanes {
    ($a:expr, $b:expr, $n:expr, |$x:ident, $y:ident| $body:expr) => {{
        let n = $n;
        match (&$a, &$b) {
            (Lane::Col(xs), Lane::Col(ys)) => {
                let (xs, ys) = (&xs[..n], &ys[..n]);
                let ($x, $y) = (|i: usize| xs[i], |i: usize| ys[i]);
                $body
            }
            (Lane::Col(xs), &Lane::One(y)) => {
                let xs = &xs[..n];
                let ($x, $y) = (|i: usize| xs[i], |_: usize| y);
                $body
            }
            (&Lane::One(x), Lane::Col(ys)) => {
                let ys = &ys[..n];
                let ($x, $y) = (|_: usize| x, |i: usize| ys[i]);
                $body
            }
            (&Lane::One(x), &Lane::One(y)) => {
                let ($x, $y) = (|_: usize| x, |_: usize| y);
                $body
            }
        }
    }};
}

/// `a op b` over `n` rows of integers, the operator matched outside the
/// element loop. Adds wrap and note overflow; only when some row
/// overflowed is each row checked again: an overflow under a NULL is that
/// row's placeholder, 0, and any other is `None` (replay on the row path).
fn int_arith(
    op: ArithOp,
    a: Lane<'_, i64>,
    b: Lane<'_, i64>,
    n: usize,
    validity: Option<&Bitmap>,
) -> Option<Vec<i64>> {
    let step: fn(i64, i64) -> (i64, bool) = match op {
        ArithOp::Add => i64::overflowing_add,
        ArithOp::Sub => i64::overflowing_sub,
        _ => i64::overflowing_mul,
    };
    let (mut out, overflow) = match op {
        ArithOp::Add => with_lanes!(a, b, n, |x, y| wrapping(n, |i| x(i).overflowing_add(y(i)))),
        ArithOp::Sub => with_lanes!(a, b, n, |x, y| wrapping(n, |i| x(i).overflowing_sub(y(i)))),
        _ => with_lanes!(a, b, n, |x, y| wrapping(n, |i| x(i).overflowing_mul(y(i)))),
    };
    if overflow {
        with_lanes!(a, b, n, |x, y| {
            for (i, v) in out.iter_mut().enumerate() {
                if step(x(i), y(i)).1 {
                    if validity.is_none_or(|bm| bm.get(i)) {
                        return None;
                    }
                    *v = 0;
                }
            }
        });
    }
    Some(out)
}

/// The wrapped results of `f` over rows `0..n`, and whether any
/// overflowed.
#[inline(always)]
fn wrapping(n: usize, f: impl Fn(usize) -> (i64, bool)) -> (Vec<i64>, bool) {
    let mut overflow = false;
    let out = (0..n)
        .map(|i| {
            let (v, o) = f(i);
            overflow |= o;
            v
        })
        .collect();
    (out, overflow)
}

/// `a op b` over `n` rows of floats, the operator matched outside the
/// element loop.
fn float_arith(op: ArithOp, a: Lane<'_, f64>, b: Lane<'_, f64>, n: usize) -> Vec<f64> {
    match op {
        ArithOp::Add => with_lanes!(a, b, n, |x, y| (0..n).map(|i| x(i) + y(i)).collect()),
        ArithOp::Sub => with_lanes!(a, b, n, |x, y| (0..n).map(|i| x(i) - y(i)).collect()),
        _ => with_lanes!(a, b, n, |x, y| (0..n).map(|i| x(i) * y(i)).collect()),
    }
}

/// Row `i` of `then` where bit `i` of `mask` is set, of `otherwise`
/// elsewhere, over `n` rows.
fn select<T: Copy>(mask: &[u64], then: Lane<'_, T>, otherwise: Lane<'_, T>, n: usize) -> Vec<T> {
    with_lanes!(then, otherwise, n, |x, y| (0..n)
        .map(|i| if mask[i / 64] >> (i % 64) & 1 != 0 {
            x(i)
        } else {
            y(i)
        })
        .collect())
}

/// `xs` with each NULL row (clear in `valid`) replaced by `default`.
fn fill<T: Copy>(xs: &[T], valid: &Bitmap, default: T) -> Vec<T> {
    let words = valid.words();
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            if words[i / 64] >> (i % 64) & 1 != 0 {
                x
            } else {
                default
            }
        })
        .collect()
}

impl Evaluated {
    /// The numeric view and validity of this operand, if it is numeric.
    fn num(&self) -> Option<(Num<'_>, Option<&Bitmap>)> {
        match self {
            Evaluated::Scalar(Value::Int(x)) => Some((Num::Int(*x), None)),
            Evaluated::Scalar(Value::Float(x)) => Some((Num::Float(*x), None)),
            Evaluated::Scalar(_) => None,
            Evaluated::Chunk(c) => match &c.data {
                ColumnData::Int(xs) => Some((Num::Ints(xs), c.validity.as_ref())),
                ColumnData::Float(xs) => Some((Num::Floats(xs), c.validity.as_ref())),
                _ => None,
            },
        }
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            Evaluated::Chunk(c) => c.value_at(i),
            Evaluated::Scalar(v) => v.clone(),
        }
    }

    /// As a column of `n` rows.
    fn into_chunk(self, n: usize) -> Arc<ColumnChunk> {
        let data = match self {
            Evaluated::Chunk(c) => return c,
            Evaluated::Scalar(Value::Int(x)) => ColumnData::Int(vec![x; n]),
            Evaluated::Scalar(Value::Float(x)) => ColumnData::Float(vec![x; n]),
            Evaluated::Scalar(Value::Date(x)) => ColumnData::Date(vec![x; n]),
            Evaluated::Scalar(Value::Bool(x)) => ColumnData::Bool(vec![x; n]),
            Evaluated::Scalar(Value::Str(s)) => {
                let mut dict = TextDict::new();
                let code = dict.intern(s);
                ColumnData::Text {
                    codes: vec![code; n],
                    dict: Arc::new(dict),
                }
            }
            Evaluated::Scalar(Value::Null) => ColumnData::Any(vec![Value::Null; n]),
        };
        Arc::new(ColumnChunk {
            data,
            validity: None,
        })
    }
}

/// Row-wise AND of two optional validity bitmaps over `n` rows.
fn and_validity(a: Option<&Bitmap>, b: Option<&Bitmap>, n: usize) -> Option<Bitmap> {
    if a.is_none() && b.is_none() {
        return None;
    }
    let mut out = Bitmap::with_capacity(n);
    for i in 0..n {
        out.push(a.is_none_or(|bm| bm.get(i)) && b.is_none_or(|bm| bm.get(i)));
    }
    Some(out)
}

impl Projection {
    /// Evaluate every expression over the whole batch. `None` means a
    /// value-level error (or a layout only visible at run time, such as a
    /// COALESCE that had to mix types inside arithmetic): discard and
    /// replay on the row path.
    pub fn eval(&self, batch: &ColBatch) -> Option<Vec<Arc<ColumnChunk>>> {
        let n = batch.len();
        self.exprs
            .iter()
            .map(|e| Some(eval_col_expr(e, batch)?.into_chunk(n)))
            .collect()
    }
}

fn eval_col_expr(e: &ColExpr, batch: &ColBatch) -> Option<Evaluated> {
    let n = batch.len();
    match e {
        ColExpr::Col(i) => Some(Evaluated::Chunk(Arc::clone(&batch.cols()[*i]))),
        ColExpr::Lit(v) => Some(Evaluated::Scalar(v.clone())),
        ColExpr::Arith { op, left, right } => {
            let (l, r) = (eval_col_expr(left, batch)?, eval_col_expr(right, batch)?);
            if let (Evaluated::Scalar(a), Evaluated::Scalar(b)) = (&l, &r) {
                return Some(Evaluated::Scalar(a.arith(*op, b).ok()?));
            }
            let ((a, va), (b, vb)) = (l.num()?, r.num()?);
            let validity = and_validity(va, vb, n);
            let data = if a.is_int() && b.is_int() {
                ColumnData::Int(int_arith(*op, a.ints(), b.ints(), n, validity.as_ref())?)
            } else {
                ColumnData::Float(float_arith(*op, a.floats(), b.floats(), n))
            };
            Some(Evaluated::Chunk(Arc::new(ColumnChunk { data, validity })))
        }
        ColExpr::Coalesce { expr, default } => {
            let chunk = match eval_col_expr(expr, batch)? {
                Evaluated::Scalar(Value::Null) => return Some(Evaluated::Scalar(default.clone())),
                scalar @ Evaluated::Scalar(_) => return Some(scalar),
                Evaluated::Chunk(c) => c,
            };
            if default.is_null() || chunk.null_count_range(0, n) == 0 {
                return Some(Evaluated::Chunk(chunk));
            }
            let no_nulls = |data| ColumnChunk {
                data,
                validity: None,
            };
            let filled = match (&chunk.data, chunk.validity.as_ref(), default) {
                (ColumnData::Int(xs), Some(bm), Value::Int(d)) => {
                    no_nulls(ColumnData::Int(fill(xs, bm, *d)))
                }
                (ColumnData::Float(xs), Some(bm), Value::Float(d)) => {
                    no_nulls(ColumnData::Float(fill(xs, bm, *d)))
                }
                (ColumnData::Date(xs), Some(bm), Value::Date(d)) => {
                    no_nulls(ColumnData::Date(fill(xs, bm, *d)))
                }
                (ColumnData::Bool(xs), Some(bm), Value::Bool(d)) => {
                    no_nulls(ColumnData::Bool(fill(xs, bm, *d)))
                }
                // The default is of another type than the column: keep
                // each value exact.
                _ => ColumnChunk::from_values((0..n).map(|i| match chunk.value_at(i) {
                    Value::Null => default.clone(),
                    v => v,
                })),
            };
            Some(Evaluated::Chunk(Arc::new(filled)))
        }
        ColExpr::Case {
            cond,
            then,
            otherwise,
        } => {
            let mask = cond.eval(batch, 0..n)?;
            if mask.e.iter().any(|&w| w != 0) {
                return None;
            }
            let (t, o) = (
                eval_col_expr(then, batch)?,
                eval_col_expr(otherwise, batch)?,
            );
            let pick = |i: usize| if mask.get(&mask.t, i) { &t } else { &o };
            let chunk = match (t.num(), o.num()) {
                (Some((a, va)), Some((b, vb))) if a.is_int() == b.is_int() => {
                    let validity = if va.is_none() && vb.is_none() {
                        None
                    } else {
                        let valid: Vec<bool> = (0..n)
                            .map(|i| {
                                let v = if mask.get(&mask.t, i) { va } else { vb };
                                v.is_none_or(|bm| bm.get(i))
                            })
                            .collect();
                        Bitmap::from_flags(&valid)
                    };
                    let data = if a.is_int() {
                        ColumnData::Int(select(&mask.t, a.ints(), b.ints(), n))
                    } else {
                        ColumnData::Float(select(&mask.t, a.floats(), b.floats(), n))
                    };
                    ColumnChunk { data, validity }
                }
                // Branches of different types (or non-numeric ones): pick
                // value by value, keeping each exact.
                _ => ColumnChunk::from_values((0..n).map(|i| pick(i).value_at(i))),
            };
            Some(Evaluated::Chunk(Arc::new(chunk)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Row;

    fn schema(tys: &[DataType]) -> Schema {
        Schema::new(
            tys.iter()
                .enumerate()
                .map(|(i, &ty)| Column::bare(&format!("c{i}"), ty))
                .collect(),
        )
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::column(i)
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Literal(v)
    }

    fn cmp(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Row-path reference: indices where eval_predicate == Some(true),
    /// or the first error in row order.
    fn row_reference(expr: &BoundExpr, rows: &[Row]) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if expr.eval_predicate(&Env::root(row))? == Some(true) {
                out.push(i as u32);
            }
        }
        Ok(out)
    }

    /// Assert the kernel agrees with the row path on `expr` over `rows`
    /// (same selection, or same error message). Panics if the predicate
    /// does not compile.
    fn assert_kernel_matches(expr: &BoundExpr, sch: &Schema, rows: Vec<Row>) {
        let batch = ColBatch::from_rows(sch, rows.clone());
        let pred = compile_predicate(expr, &batch).expect("predicate should compile");
        let mut got = Vec::new();
        let kernel = pred
            .select_into(&batch, 0..batch.len(), &mut got)
            .map(|()| got);
        let reference = row_reference(expr, &rows);
        match (kernel, reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("kernel {a:?} vs row path {b:?}"),
        }
    }

    fn int_rows() -> (Schema, Vec<Row>) {
        let s = schema(&[DataType::Integer]);
        let rows = (0..200)
            .map(|i| {
                vec![if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i - 100)
                }]
            })
            .collect();
        (s, rows)
    }

    #[test]
    fn int_comparisons_match_row_path() {
        let (s, rows) = int_rows();
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            let e = cmp(op, col(0), lit(Value::Int(3)));
            assert_kernel_matches(&e, &s, rows.clone());
            // Literal on the left flips the operator.
            let e = cmp(op, lit(Value::Int(3)), col(0));
            assert_kernel_matches(&e, &s, rows.clone());
            // Int column vs float literal.
            let e = cmp(op, col(0), lit(Value::Float(2.5)));
            assert_kernel_matches(&e, &s, rows.clone());
        }
    }

    #[test]
    fn float_comparisons_and_nan_error_parity() {
        let s = schema(&[DataType::Float]);
        let rows: Vec<Row> = vec![
            vec![Value::Float(1.5)],
            vec![Value::Null],
            vec![Value::Float(-0.0)],
            vec![Value::Float(100.25)],
        ];
        let e = cmp(BinaryOp::Lt, col(0), lit(Value::Float(1.0)));
        assert_kernel_matches(&e, &s, rows.clone());
        let e = cmp(BinaryOp::GtEq, col(0), lit(Value::Int(1)));
        assert_kernel_matches(&e, &s, rows);

        // A NaN cell must produce the row path's exact error.
        let rows = vec![vec![Value::Float(0.5)], vec![Value::Float(f64::NAN)]];
        let e = cmp(BinaryOp::Lt, col(0), lit(Value::Float(1.0)));
        assert_kernel_matches(&e, &s, rows);
    }

    #[test]
    fn short_circuit_suppresses_right_side_errors() {
        // WHERE a < 0 AND b < 1.0 — rows where a >= 0 must not observe
        // the NaN in b, exactly like the row path's short-circuit.
        let s = schema(&[DataType::Integer, DataType::Float]);
        let rows = vec![
            vec![Value::Int(5), Value::Float(f64::NAN)], // a<0 false: NaN skipped
            vec![Value::Int(-1), Value::Float(0.5)],
        ];
        let e = cmp(
            BinaryOp::And,
            cmp(BinaryOp::Lt, col(0), lit(Value::Int(0))),
            cmp(BinaryOp::Lt, col(1), lit(Value::Float(1.0))),
        );
        assert_kernel_matches(&e, &s, rows);

        // And the error shows when the left side passes.
        let rows = vec![vec![Value::Int(-2), Value::Float(f64::NAN)]];
        let e = cmp(
            BinaryOp::And,
            cmp(BinaryOp::Lt, col(0), lit(Value::Int(0))),
            cmp(BinaryOp::Lt, col(1), lit(Value::Float(1.0))),
        );
        assert_kernel_matches(&e, &s, rows);

        // OR: a true left side skips the right.
        let rows = vec![
            vec![Value::Int(-3), Value::Float(f64::NAN)], // true OR err → true
            vec![Value::Int(9), Value::Float(2.0)],
        ];
        let e = cmp(
            BinaryOp::Or,
            cmp(BinaryOp::Lt, col(0), lit(Value::Int(0))),
            cmp(BinaryOp::Lt, col(1), lit(Value::Float(1.0))),
        );
        assert_kernel_matches(&e, &s, rows);
    }

    #[test]
    fn three_valued_and_or_not() {
        let s = schema(&[DataType::Integer, DataType::Integer]);
        let mut rows = Vec::new();
        for a in [Some(1i64), Some(5), None] {
            for b in [Some(2i64), Some(9), None] {
                rows.push(vec![
                    a.map_or(Value::Null, Value::Int),
                    b.map_or(Value::Null, Value::Int),
                ]);
            }
        }
        let left = cmp(BinaryOp::Lt, col(0), lit(Value::Int(3)));
        let right = cmp(BinaryOp::Gt, col(1), lit(Value::Int(5)));
        for e in [
            cmp(BinaryOp::And, left.clone(), right.clone()),
            cmp(BinaryOp::Or, left.clone(), right.clone()),
            BoundExpr::Not(Box::new(cmp(BinaryOp::And, left.clone(), right.clone()))),
            BoundExpr::Not(Box::new(left.clone())),
        ] {
            assert_kernel_matches(&e, &s, rows.clone());
        }
    }

    #[test]
    fn text_compare_like_and_in() {
        let s = schema(&[DataType::Text]);
        let words = ["BUILDING", "AUTOMOBILE", "FURNITURE", "building"];
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                vec![if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::str(words[i % words.len()])
                }]
            })
            .collect();
        let e = cmp(BinaryOp::Eq, col(0), lit(Value::str("BUILDING")));
        assert_kernel_matches(&e, &s, rows.clone());
        let e = cmp(BinaryOp::Lt, col(0), lit(Value::str("C")));
        assert_kernel_matches(&e, &s, rows.clone());
        for negated in [false, true] {
            let e = BoundExpr::Like {
                expr: Box::new(col(0)),
                pattern: Box::new(lit(Value::str("%BUILD%"))),
                negated,
            };
            assert_kernel_matches(&e, &s, rows.clone());
            let e = BoundExpr::InList {
                expr: Box::new(col(0)),
                list: vec![lit(Value::str("FURNITURE")), lit(Value::str("nope"))],
                negated,
            };
            assert_kernel_matches(&e, &s, rows.clone());
            // NULL in the IN list makes misses unknown.
            let e = BoundExpr::InList {
                expr: Box::new(col(0)),
                list: vec![lit(Value::str("FURNITURE")), lit(Value::Null)],
                negated,
            };
            assert_kernel_matches(&e, &s, rows.clone());
        }
    }

    #[test]
    fn int_date_in_list_and_is_null() {
        let (s, rows) = int_rows();
        for negated in [false, true] {
            let e = BoundExpr::InList {
                expr: Box::new(col(0)),
                list: vec![
                    lit(Value::Int(-99)),
                    lit(Value::Int(0)),
                    lit(Value::Int(42)),
                ],
                negated,
            };
            assert_kernel_matches(&e, &s, rows.clone());
            let e = BoundExpr::IsNull {
                expr: Box::new(col(0)),
                negated,
            };
            assert_kernel_matches(&e, &s, rows.clone());
        }
        let s = schema(&[DataType::Date]);
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                vec![if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Date(i)
                }]
            })
            .collect();
        let e = cmp(BinaryOp::LtEq, col(0), lit(Value::Date(11)));
        assert_kernel_matches(&e, &s, rows.clone());
        let e = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![lit(Value::Date(3)), lit(Value::Date(7))],
            negated: false,
        };
        assert_kernel_matches(&e, &s, rows);
    }

    #[test]
    fn bool_columns_as_predicates() {
        let s = schema(&[DataType::Boolean]);
        let rows: Vec<Row> = vec![
            vec![Value::Bool(true)],
            vec![Value::Bool(false)],
            vec![Value::Null],
        ];
        assert_kernel_matches(&col(0), &s, rows.clone());
        let e = cmp(BinaryOp::Eq, col(0), lit(Value::Bool(false)));
        assert_kernel_matches(&e, &s, rows);
    }

    #[test]
    fn empty_and_all_filtered_batches() {
        let s = schema(&[DataType::Integer]);
        let e = cmp(BinaryOp::Gt, col(0), lit(Value::Int(1000)));
        assert_kernel_matches(&e, &s, vec![]);
        let rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        assert_kernel_matches(&e, &s, rows); // nothing passes
    }

    #[test]
    fn uncompilable_shapes_fall_back() {
        let s = schema(&[DataType::Integer, DataType::Integer]);
        let rows = vec![vec![Value::Int(1), Value::Int(2)]];
        let batch = ColBatch::from_rows(&s, rows);
        // Column-vs-column comparison: not vectorized.
        assert!(compile_predicate(&cmp(BinaryOp::Lt, col(0), col(1)), &batch).is_none());
        // NULL literal comparison: not vectorized.
        assert!(compile_predicate(&cmp(BinaryOp::Eq, col(0), lit(Value::Null)), &batch).is_none());
        // Arithmetic inside a comparison: not vectorized.
        let arith = BoundExpr::Binary {
            op: BinaryOp::Plus,
            left: Box::new(col(0)),
            right: Box::new(lit(Value::Int(1))),
        };
        assert!(compile_predicate(&cmp(BinaryOp::Eq, arith, lit(Value::Int(2))), &batch).is_none());
        // An Any column (demoted) is not vectorized.
        let s = schema(&[DataType::Any]);
        let batch = ColBatch::from_rows(&s, vec![vec![Value::Int(1)]]);
        assert!(
            compile_predicate(&cmp(BinaryOp::Eq, col(0), lit(Value::Int(1))), &batch).is_none()
        );
    }

    /// Exact identity: same variant, floats bit for bit.
    fn same_value(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Null, Value::Null) => true,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Date(x), Value::Date(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            _ => false,
        }
    }

    /// Assert the compiled projection agrees with row-at-a-time `eval`:
    /// the same values exactly, or `None` where the row path errors.
    fn assert_projection_matches(exprs: &[BoundExpr], sch: &Schema, rows: Vec<Row>) {
        let batch = ColBatch::from_rows(sch, rows.clone());
        let projection = compile_projection(exprs, &batch).expect("projection should compile");
        let reference: Result<Vec<Row>> = rows
            .iter()
            .map(|row| exprs.iter().map(|e| e.eval(&Env::root(row))).collect())
            .collect();
        match (projection.eval(&batch), reference) {
            (Some(chunks), Ok(expected)) => {
                assert_eq!(chunks.len(), exprs.len());
                // A plain column is the input's chunk, not a copy of it.
                for (e, chunk) in exprs.iter().zip(&chunks) {
                    if let Some(i) = col_index(e) {
                        assert!(Arc::ptr_eq(chunk, &batch.cols()[i]));
                    }
                }
                for (r, row) in expected.iter().enumerate() {
                    for (c, want) in row.iter().enumerate() {
                        let got = chunks[c].value_at(r);
                        assert!(
                            same_value(&got, want),
                            "row {r} expr {c}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
            (None, Err(_)) => {}
            (got, want) => panic!("kernel {:?} vs row path {want:?}", got.map(|c| c.len())),
        }
    }

    fn arith(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        cmp(op, l, r)
    }

    fn coalesce(e: BoundExpr, default: Value) -> BoundExpr {
        BoundExpr::Func {
            func: ScalarFunc::Coalesce,
            args: vec![e, lit(default)],
        }
    }

    fn case(cond: BoundExpr, then: BoundExpr, otherwise: Option<BoundExpr>) -> BoundExpr {
        BoundExpr::Case {
            branches: vec![(cond, then)],
            else_expr: otherwise.map(Box::new),
        }
    }

    fn numeric_rows() -> (Schema, Vec<Row>) {
        let s = schema(&[DataType::Integer, DataType::Float, DataType::Float]);
        let rows = (0..150)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i - 70)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 4.0 - 9.0)
                    },
                    Value::Float(if i == 3 { -0.0 } else { 0.01 * i as f64 }),
                ]
            })
            .collect();
        (s, rows)
    }

    #[test]
    fn projection_arithmetic_coalesce_and_case_match_row_path() {
        let (s, rows) = numeric_rows();
        // The whole of the rewritings' `conq_base` list, and then some.
        let price_disc = arith(
            BinaryOp::Multiply,
            col(1),
            arith(BinaryOp::Minus, lit(Value::Int(1)), col(2)),
        );
        let is_null = |c| BoundExpr::IsNull {
            expr: Box::new(col(c)),
            negated: false,
        };
        let exprs = vec![
            col(0),
            lit(Value::Int(1)),
            lit(Value::str("tag")),
            lit(Value::Null),
            arith(BinaryOp::Plus, col(0), col(0)),
            arith(BinaryOp::Minus, col(0), lit(Value::Float(0.5))),
            arith(BinaryOp::Multiply, col(0), col(1)),
            arith(BinaryOp::Plus, lit(Value::Int(2)), lit(Value::Int(3))),
            price_disc.clone(),
            arith(
                BinaryOp::Multiply,
                price_disc.clone(),
                arith(BinaryOp::Plus, lit(Value::Int(1)), col(2)),
            ),
            // Same type as the column, another type, no NULLs to fill.
            coalesce(col(0), Value::Int(0)),
            coalesce(col(1), Value::Int(0)),
            coalesce(col(1), Value::Float(0.0)),
            coalesce(col(2), Value::Int(0)),
            coalesce(col(0), Value::Null),
            coalesce(price_disc, Value::Int(0)),
            coalesce(lit(Value::Null), Value::Int(4)),
            case(is_null(1), lit(Value::Int(0)), Some(lit(Value::Int(1)))),
            case(is_null(0), lit(Value::Int(0)), None),
            // The shape of `conq_filtered`: an integer branch against a
            // float column, picked value by value.
            case(
                cmp(BinaryOp::Gt, col(1), lit(Value::Int(0))),
                lit(Value::Int(0)),
                Some(col(1)),
            ),
            case(
                cmp(BinaryOp::Lt, col(0), lit(Value::Int(0))),
                col(0),
                Some(arith(BinaryOp::Multiply, col(0), lit(Value::Int(2)))),
            ),
            BoundExpr::Case {
                branches: vec![
                    (
                        cmp(BinaryOp::Lt, col(0), lit(Value::Int(-10))),
                        lit(Value::str("low")),
                    ),
                    (
                        cmp(BinaryOp::Lt, col(0), lit(Value::Int(10))),
                        lit(Value::str("mid")),
                    ),
                ],
                else_expr: None,
            },
        ];
        assert_projection_matches(&exprs, &s, rows);
        assert_projection_matches(&exprs, &s, vec![]);
    }

    #[test]
    fn projection_errors_ask_for_replay() {
        let s = schema(&[DataType::Integer, DataType::Float]);
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(i64::MAX), Value::Float(f64::NAN)],
        ];
        // Integer overflow, and a NaN reaching a CASE condition.
        let overflow = arith(BinaryOp::Plus, col(0), lit(Value::Int(1)));
        assert_projection_matches(&[overflow], &s, rows.clone());
        let nan_cond = case(
            cmp(BinaryOp::Gt, col(1), lit(Value::Int(0))),
            lit(Value::Int(0)),
            Some(col(1)),
        );
        assert_projection_matches(&[nan_cond], &s, rows.clone());
        // An overflow under a NULL is no error on either path.
        let rows = vec![vec![Value::Null, Value::Float(1.0)]];
        let times = arith(BinaryOp::Multiply, col(0), lit(Value::Int(i64::MAX)));
        assert_projection_matches(&[times], &s, rows);
    }

    #[test]
    fn uncompilable_projections_fall_back() {
        let s = schema(&[DataType::Integer, DataType::Date, DataType::Text]);
        let batch = ColBatch::from_rows(
            &s,
            vec![vec![Value::Int(1), Value::Date(3), Value::str("x")]],
        );
        let rejected = [
            // Division can fail per value; dates and text are not numeric.
            arith(BinaryOp::Divide, col(0), lit(Value::Int(2))),
            arith(BinaryOp::Plus, col(1), lit(Value::Int(2))),
            arith(BinaryOp::Plus, col(2), lit(Value::Int(2))),
            arith(BinaryOp::Plus, col(0), lit(Value::Null)),
            // A CASE condition that is not a leaf predicate evaluates
            // without short-circuit on the row path.
            case(
                cmp(
                    BinaryOp::And,
                    cmp(BinaryOp::Gt, col(0), lit(Value::Int(0))),
                    cmp(BinaryOp::Lt, col(0), lit(Value::Int(9))),
                ),
                lit(Value::Int(1)),
                None,
            ),
            BoundExpr::Neg(Box::new(col(0))),
            BoundExpr::Column { depth: 1, index: 0 },
        ];
        for e in rejected {
            assert!(
                compile_projection(std::slice::from_ref(&e), &batch).is_none(),
                "{e:?} should not compile"
            );
        }
    }

    #[test]
    fn selection_over_offset_ranges() {
        let s = schema(&[DataType::Integer]);
        let rows: Vec<Row> = (0..300).map(|i| vec![Value::Int(i % 10)]).collect();
        let batch = ColBatch::from_rows(&s, rows.clone());
        let e = cmp(BinaryOp::Eq, col(0), lit(Value::Int(3)));
        let pred = compile_predicate(&e, &batch).unwrap();
        // Morsel-style disjoint ranges concatenate to the full result.
        let mut all = Vec::new();
        for start in (0..300).step_by(70) {
            let end = (start + 70).min(300);
            pred.select_into(&batch, start..end, &mut all).unwrap();
        }
        assert_eq!(all, row_reference(&e, &rows).unwrap());
    }
}
