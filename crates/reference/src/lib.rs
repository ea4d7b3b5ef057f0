//! A naive evaluator for the SQL of the figure statements, straight off the
//! syntax tree over a [`Database`]'s stored rows (`Table::row_at`): the
//! answer oracle of the engine's differential suites, sharing nothing with
//! the engine's binder, planner, optimizer or operators. FROM items join by
//! nested loops in written order (an inner `JOIN` is its two sides, its `ON`
//! more `WHERE` conjuncts); a conjunct naming one item filters that item's
//! rows first, one naming several is tested at the first loop level binding
//! them all, one holding a subquery at the innermost. A `LEFT JOIN` tests
//! its `ON` on every pair of rows. Groups and `DISTINCT` are found by linear
//! search, first-seen first; subqueries run again per row; nothing is
//! hashed. Value semantics come only from `Value::{sql_eq, sql_cmp, arith,
//! total_cmp}`, `and3` / `or3` / `not3`, `like_match` and [`ExactSum`] (SUM
//! and AVG are correctly rounded). Syntax outside this dialect is an error,
//! never an answer.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;

use conquer_engine::expr::{and3, like_match, not3, or3};
use conquer_engine::fsum::ExactSum;
use conquer_engine::value::ArithOp;
use conquer_engine::{Column, DataType, Database, EngineError, Result, Row, Rows, Schema, Value};
use conquer_sql::ast::{
    is_aggregate_function, BinaryOp, ColumnRef, Expr, JoinKind, OrderByItem, Query, Select,
    SelectItem, SetExpr, TableRef, UnaryOp,
};

/// Evaluate `query` over `db`'s stored tables.
pub fn evaluate(db: &Database, query: &Query) -> Result<Rows> {
    Evaluator(db, RefCell::default(), RefCell::default()).query(query, None)
}

/// [`evaluate`] on SQL text.
pub fn evaluate_sql(db: &Database, sql: &str) -> Result<Rows> {
    evaluate(db, &conquer_sql::parse_query(sql)?)
}

/// Where `got` differs from `expected`, or `None` when both hold the same
/// rows (in the same order when `ordered`, as bags otherwise), variant for
/// variant (`Int(2)` is not `Float(2.0)`) and float bit for bit.
pub fn diff(expected: &Rows, got: &Rows, ordered: bool) -> Option<String> {
    let (mut a, mut b): (Vec<&Row>, Vec<&Row>) =
        (expected.rows.iter().collect(), got.rows.iter().collect());
    if !ordered {
        a.sort_by_cached_key(|row| cells(row));
        b.sort_by_cached_key(|row| cells(row));
    }
    if a.len() != b.len() {
        return Some(format!("{} rows expected, {} got", a.len(), b.len()));
    }
    let i = a.iter().zip(&b).position(|(x, y)| cells(x) != cells(y))?;
    Some(format!("row {i}: expected {:?}, got {:?}", a[i], b[i]))
}

/// Each value as its variant and exact payload: equal exactly if identical.
fn cells(row: &[Value]) -> Vec<(u8, u64, &str)> {
    let cell = |v| match v {
        &Value::Null => (0, 0, ""),
        &Value::Bool(b) => (1, u64::from(b), ""),
        &Value::Int(i) => (2, i as u64, ""),
        &Value::Float(f) => (3, f.to_bits(), ""),
        Value::Str(s) => (4, 0, &s[..]),
        &Value::Date(d) => (5, d as u64, ""),
    };
    row.iter().map(cell).collect()
}

/// Named relations (a schema naming their rows' cells), the latest last.
type Named = RefCell<Vec<(String, Relation)>>;
type Relation = (Schema, Rc<Vec<Row>>);

/// The database, the CTEs in scope (a later one shadows an earlier one and
/// every base table), and the base tables read so far, each once.
struct Evaluator<'d>(&'d Database, Named, Named);

/// A bound row; a nested loop's item, its filtered rows and the conjuncts
/// due once it is bound; the enclosing query's scope.
type Frame<'a> = (&'a Schema, &'a [Value]);
type Loop<'r, 'q> = (&'r Schema, Vec<&'r Row>, &'q [&'q Expr]);
type Outer<'o> = Option<&'o Scope<'o>>;

/// What an expression can name: one row per FROM item bound at this level
/// (or the one row a later stage works on); while HAVING and a grouped SELECT
/// list are evaluated, the GROUP BY list and the rows of the group that row
/// stands for; and the enclosing query's scope, for correlated references.
#[derive(Clone, Copy)]
struct Scope<'a> {
    frames: &'a [Frame<'a>],
    group: Option<(&'a [Expr], &'a [&'a Row])>,
    outer: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    fn new(frames: &'a [Frame<'a>], outer: Option<&'a Scope<'a>>) -> Scope<'a> {
        Scope {
            frames,
            group: None,
            outer,
        }
    }

    /// Where `c` is bound at this level, as (frame, column); two is an error.
    fn position(&self, c: &ColumnRef) -> Result<Option<(usize, usize)>> {
        let mut found = None;
        for (f, (schema, _)) in self.frames.iter().enumerate() {
            for (i, col) in schema.columns.iter().enumerate() {
                if answers(col, c) && found.replace((f, i)).is_some() {
                    return Err(EngineError::AmbiguousColumn(c.to_string()));
                }
            }
        }
        Ok(found)
    }

    /// The value `c` names, from the innermost scope that binds it.
    fn lookup(&self, c: &ColumnRef) -> Result<Value> {
        let mut scope = Some(self);
        while let Some(s) = scope {
            if let Some((f, i)) = s.position(c)? {
                let unbound = || EngineError::Execution(format!("no row binds `{c}`"));
                return s.frames[f].1.get(i).cloned().ok_or_else(unbound);
            }
            scope = s.outer;
        }
        Err(EngineError::UnknownColumn(c.to_string()))
    }
}

impl Evaluator<'_> {
    fn query(&self, q: &Query, outer: Outer) -> Result<Rows> {
        let in_scope = self.1.borrow().len();
        let out = self.query_in_scope(q, outer);
        self.1.borrow_mut().truncate(in_scope);
        out
    }

    fn query_in_scope(&self, q: &Query, outer: Outer) -> Result<Rows> {
        for cte in &q.ctes {
            // A CTE sees the ones before it, never an enclosing row.
            let Rows { schema, rows } = self.query(&cte.query, None)?;
            let relation = (schema, Rc::new(rows));
            self.1.borrow_mut().push((cte.name.clone(), relation));
        }
        let mut out = self.set_expr(&q.body, outer)?;
        let mut keyed = Vec::with_capacity(out.rows.len());
        for row in std::mem::take(&mut out.rows) {
            // ORDER BY names output columns.
            let frames = [(&out.schema, &row[..])];
            let key = |item: &OrderByItem| match &item.expr {
                Expr::Literal(_) => Err(EngineError::Unsupported("ORDER BY a position".into())),
                e => self.eval(e, &Scope::new(&frames, outer)),
            };
            keyed.push((q.order_by.iter().map(key).collect::<Result<Row>>()?, row));
        }
        // `sort_by` is stable: ties keep their order.
        keyed.sort_by(|(a, _), (b, _)| order(a, b, &q.order_by));
        keyed.truncate(q.limit.map_or(usize::MAX, |n| n as usize));
        out.rows = keyed.into_iter().map(|(_, row)| row).collect();
        Ok(out)
    }

    fn set_expr(&self, body: &SetExpr, outer: Outer) -> Result<Rows> {
        let (mut l, r) = match body {
            SetExpr::Select(select) => return self.select(select, outer),
            SetExpr::UnionAll(l, r) => (self.set_expr(l, outer)?, self.set_expr(r, outer)?),
        };
        if l.schema.len() != r.schema.len() {
            return Err(EngineError::Execution("UNION ALL arity mismatch".into()));
        }
        l.rows.extend(r.rows);
        Ok(l)
    }

    fn select(&self, sel: &Select, outer: Outer) -> Result<Rows> {
        // An inner or cross join is its two sides, its ON more conjuncts.
        let (mut items, mut conjuncts) = (Vec::new(), Vec::new());
        conjuncts.extend(sel.selection.iter().flat_map(Expr::split_conjuncts));
        let mut from: Vec<&TableRef> = sel.from.iter().rev().collect();
        while let Some(t) = from.pop() {
            match t {
                TableRef::Join {
                    left,
                    kind: JoinKind::Inner | JoinKind::Cross,
                    right,
                    on,
                } => {
                    from.extend([&**right, &**left]);
                    conjuncts.extend(on.iter().flat_map(Expr::split_conjuncts));
                }
                _ => items.push(self.item(t, outer)?),
            }
        }
        if items.is_empty() {
            // No FROM is one item of one empty row.
            items.push((Schema::default(), Rc::new(vec![Vec::new()])));
        }
        // Per item, the conjuncts that name it alone (its filter) and those
        // it is the last named of (tested in the loops).
        let last = items.len() - 1;
        let (mut filters, mut levels) = (vec![Vec::new(); last + 1], vec![Vec::new(); last + 1]);
        for c in conjuncts {
            let binds = |s: &Schema, c: &ColumnRef| s.columns.iter().any(|col| answers(col, c));
            let bound_by = |c: &ColumnRef| items.iter().rposition(|(schema, _)| binds(schema, c));
            let named: Vec<usize> = c.column_refs().into_iter().filter_map(bound_by).collect();
            let hi = named.iter().max().map_or(0, |&i| i);
            match named.iter().min() {
                _ if c.contains_subquery() => levels[last].push(c),
                Some(&lo) if lo < hi => levels[hi].push(c),
                _ => filters[hi].push(c),
            }
        }
        let mut loops = Vec::with_capacity(items.len());
        for (((schema, rows), filter), level) in items.iter().zip(&filters).zip(&levels) {
            let mut passed = Vec::new();
            for row in rows.iter() {
                if self.all_true(filter, &Scope::new(&[(schema, row)], outer))? {
                    passed.push(row);
                }
            }
            loops.push((schema, passed, &level[..]));
        }
        let input = self.join(&loops, &mut Vec::new(), outer)?;
        let schema = items.iter().fold(Schema::default(), |s, i| s.join(&i.0));

        let aggregates = |i: &SelectItem| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate());
        let grouped = !sel.group_by.is_empty()
            || sel.having.is_some()
            || sel.projection.iter().any(aggregates);
        let mut rows = Vec::new();
        if !grouped {
            for row in &input {
                rows.push(self.project(sel, &Scope::new(&[(&schema, row)], outer))?);
            }
        } else {
            // Without GROUP BY, one group of every row, even of none.
            let key = |row: &Row| {
                let frames = [(&schema, &row[..])];
                sel.group_by
                    .iter()
                    .map(|e| self.eval(e, &Scope::new(&frames, outer)))
                    .collect()
            };
            let mut groups = first_seen(&input, key)?;
            if groups.is_empty() && sel.group_by.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            for (_, members) in &groups {
                // The group's scope binds its first row (none when it is empty).
                let frames = [(&schema, members.first().map_or(&[][..], |r| &r[..]))];
                let scope = Scope {
                    group: Some((&sel.group_by, members)),
                    ..Scope::new(&frames, outer)
                };
                if self.all_true(sel.having.as_slice(), &scope)? {
                    rows.push(self.project(sel, &scope)?);
                }
            }
        }
        if sel.distinct {
            let distinct = first_seen(&rows, |row| Ok(row.clone()))?;
            rows = distinct.into_iter().map(|(row, _)| row).collect();
        }
        let schema = output_schema(&sel.projection, &schema);
        Ok(Rows { schema, rows })
    }

    /// The nested loops: bind a row of the next item, test the conjuncts due
    /// then, go one deeper. A row bound at every level is one joined row.
    fn join<'r>(
        &self,
        loops: &[Loop<'r, '_>],
        bound: &mut Vec<Frame<'r>>,
        outer: Outer,
    ) -> Result<Vec<Row>> {
        let Some((schema, rows, conjuncts)) = loops.get(bound.len()) else {
            return Ok(vec![bound.iter().flat_map(|f| f.1.to_vec()).collect()]);
        };
        let mut out = Vec::new();
        for row in rows {
            bound.push((schema, row));
            if self.all_true(conjuncts, &Scope::new(bound, outer))? {
                out.extend(self.join(loops, bound, outer)?);
            }
            bound.pop();
        }
        Ok(out)
    }

    /// Whether every conjunct is true (not false, not unknown).
    fn all_true(&self, conjuncts: &[impl Borrow<Expr>], s: &Scope<'_>) -> Result<bool> {
        for c in conjuncts {
            if self.eval(c.borrow(), s)?.as_bool()? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn project(&self, sel: &Select, s: &Scope<'_>) -> Result<Row> {
        let mut out = Vec::new();
        for item in &sel.projection {
            match item {
                SelectItem::Expr { expr, .. } => out.push(self.eval(expr, s)?),
                SelectItem::Wildcard if s.group.is_none() => out.extend_from_slice(s.frames[0].1),
                _ => return Err(EngineError::Unsupported(format!("{item:?}"))),
            }
        }
        Ok(out)
    }

    /// A table, a derived table, or a join whose `ON` is tested on every pair.
    fn item(&self, t: &TableRef, outer: Outer) -> Result<Relation> {
        let ((schema, rows), name) = match t {
            TableRef::Table { name: n, alias } => (self.relation(n)?, alias.as_ref().unwrap_or(n)),
            TableRef::Subquery { query, alias } => {
                let Rows { schema, rows } = self.query(query, None)?;
                ((schema, Rc::new(rows)), alias)
            }
            TableRef::Join {
                left,
                kind,
                right,
                on,
            } => {
                let ((ls, lrows), (rs, rrows)) =
                    (self.item(left, outer)?, self.item(right, outer)?);
                let (mut rows, nulls) = (Vec::new(), vec![Value::Null; rs.len()]);
                for l in lrows.iter() {
                    let before = rows.len();
                    for r in rrows.iter() {
                        let pair = [(&ls, &l[..]), (&rs, &r[..])];
                        if self.all_true(on.as_slice(), &Scope::new(&pair, outer))? {
                            rows.push([&l[..], r].concat());
                        }
                    }
                    if *kind == JoinKind::LeftOuter && rows.len() == before {
                        rows.push([&l[..], &nulls].concat());
                    }
                }
                return Ok((ls.join(&rs), Rc::new(rows)));
            }
        };
        Ok((schema.qualified(name), rows))
    }

    /// A CTE in scope by that name, or else the base table.
    fn relation(&self, name: &str) -> Result<Relation> {
        for named in [&self.1, &self.2] {
            if let Some((_, relation)) = named.borrow().iter().rev().find(|e| e.0 == name) {
                return Ok(relation.clone());
            }
        }
        let table = self.0.table(name)?;
        let rows = (0..table.len()).map(|i| table.row_at(i)).collect();
        let relation = (table.schema().clone(), Rc::new(rows));
        self.2.borrow_mut().push((name.into(), relation.clone()));
        Ok(relation)
    }

    fn eval(&self, e: &Expr, s: &Scope<'_>) -> Result<Value> {
        // Over a group, a GROUP BY column is read off the group's first row.
        if let Some((by, _)) = s.group {
            match e {
                Expr::Function {
                    name,
                    args,
                    distinct,
                } if is_aggregate_function(name) => {
                    return self.aggregate(name, args, *distinct, s);
                }
                Expr::Column(c) if !is_group_key(c, by, s)? => {
                    return Err(EngineError::Unsupported(format!("`{e}` over groups")));
                }
                _ if e.contains_subquery() => {
                    return Err(EngineError::Unsupported(format!("`{e}` over groups")));
                }
                _ => {}
            }
        }
        let eval = |x: &Expr| self.eval(x, s);
        let truth = |x: &Expr| self.eval(x, s)?.as_bool();
        let negate = |b, negated: bool| Ok(truth_value(if negated { not3(b) } else { b }));
        match e {
            Expr::Column(c) => s.lookup(c),
            Expr::Literal(l) => Ok(Value::from(l)),
            Expr::BinaryOp { left, op, right } => {
                let arith = match op {
                    // AND and OR stop at a side that decides them.
                    BinaryOp::And | BinaryOp::Or => {
                        let (l, and) = (truth(left)?, *op == BinaryOp::And);
                        if l == Some(!and) {
                            return Ok(truth_value(l));
                        }
                        let r = truth(right)?;
                        return Ok(truth_value(if and { and3(l, r) } else { or3(l, r) }));
                    }
                    BinaryOp::Plus => ArithOp::Add,
                    BinaryOp::Minus => ArithOp::Sub,
                    BinaryOp::Multiply => ArithOp::Mul,
                    BinaryOp::Divide => ArithOp::Div,
                    BinaryOp::Modulo => ArithOp::Mod,
                    _ => {
                        let o = eval(left)?.sql_cmp(&eval(right)?)?;
                        return Ok(truth_value(o.map(|o| compares(*op, o))));
                    }
                };
                eval(left)?.arith(arith, &eval(right)?)
            }
            Expr::UnaryOp {
                op: UnaryOp::Not,
                expr,
            } => negate(truth(expr)?, true),
            // Negation is multiplication by -1: exact for integers and
            // floats alike, `-0.0` included.
            Expr::UnaryOp { expr, .. } => eval(expr)?.arith(ArithOp::Mul, &Value::Int(-1)),
            Expr::IsNull { expr, negated } => Ok(Value::Bool(eval(expr)?.is_null() != *negated)),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = eval(expr)?;
                let ge = v.sql_cmp(&eval(low)?)?.map(Ordering::is_ge);
                let le = v.sql_cmp(&eval(high)?)?.map(Ordering::is_le);
                negate(and3(ge, le), *negated)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = eval(expr)?;
                let list = list.iter().map(eval).collect::<Result<Row>>()?;
                negate(member(&needle, &list)?, *negated)
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let (needle, rows) = (eval(expr)?, self.query(subquery, Some(s))?);
                if rows.schema.len() != 1 {
                    return Err(EngineError::Unsupported(
                        "IN subquery of many columns".into(),
                    ));
                }
                negate(member(&needle, &rows.rows.concat())?, *negated)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => match (eval(expr)?, eval(pattern)?) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(v), Value::Str(p)) => negate(Some(like_match(&v, &p)), *negated),
                _ => Err(EngineError::TypeError("LIKE over a non-string".into())),
            },
            Expr::Exists { subquery, negated } => negate(
                Some(!self.query(subquery, Some(s))?.rows.is_empty()),
                *negated,
            ),
            Expr::ScalarSubquery(subquery) => {
                let Rows { schema, rows } = self.query(subquery, Some(s))?;
                match (schema.len(), &rows[..]) {
                    (1, []) => Ok(Value::Null),
                    (1, [row]) => Ok(row[0].clone()),
                    (w, rows) => Err(EngineError::Execution(format!(
                        "scalar subquery returned {} rows of {w} columns",
                        rows.len()
                    ))),
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (when, then) in branches {
                    if truth(when)? == Some(true) {
                        return eval(then);
                    }
                }
                else_expr.as_deref().map_or(Ok(Value::Null), eval)
            }
            Expr::Function {
                name,
                args,
                distinct: false,
            } if matches!(&name[..], "coalesce" | "least" | "greatest") => {
                let values = args.iter().map(eval).collect::<Result<Row>>()?;
                let first = values.iter().find(|v| !v.is_null());
                match &name[..] {
                    "coalesce" => Ok(first.cloned().unwrap_or(Value::Null)),
                    _ if values.iter().any(Value::is_null) => Ok(Value::Null),
                    "least" => extreme(&values, Ordering::Less),
                    _ => extreme(&values, Ordering::Greater),
                }
            }
            Expr::Function { .. } | Expr::Wildcard => Err(EngineError::Unsupported(e.to_string())),
        }
    }

    /// An aggregate over the group: NULLs skipped, DISTINCT keeps first ones.
    fn aggregate(&self, name: &str, args: &[Expr], distinct: bool, s: &Scope<'_>) -> Result<Value> {
        let rows = s.group.map_or(&[][..], |(_, rows)| rows);
        let arg = match args {
            [Expr::Wildcard] if name == "count" && !distinct => {
                return Ok(Value::Int(rows.len() as i64))
            }
            [arg] if !arg.contains_aggregate() => arg,
            _ => return Err(EngineError::Unsupported(format!("{name} over {args:?}"))),
        };
        let mut values = Vec::new();
        for row in rows {
            let v = self.eval(arg, &Scope::new(&[(s.frames[0].0, row)], s.outer))?;
            if !(v.is_null() || distinct && values.iter().any(|seen| same_group((seen, &v)))) {
                values.push(v);
            }
        }
        let mut exact = ExactSum::new();
        match name {
            "count" => Ok(Value::Int(values.len() as i64)),
            "sum" => sum(&values),
            "avg" if values.is_empty() => Ok(Value::Null),
            "avg" => {
                for v in &values {
                    match v {
                        Value::Int(i) => exact.add_i64(*i),
                        other => exact.add(other.as_f64()?.unwrap_or(0.0)),
                    }
                }
                Ok(Value::Float(exact.to_f64() / values.len() as f64))
            }
            "min" => extreme(&values, Ordering::Less),
            _ => extreme(&values, Ordering::Greater),
        }
    }
}

/// `rows` grouped by `key`, first-seen first, by linear search per row.
fn first_seen(rows: &[Row], key: impl Fn(&Row) -> Result<Row>) -> Result<Vec<(Row, Vec<&Row>)>> {
    let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
    for row in rows {
        let key = key(row)?;
        let same = |k: &Row| k.len() == key.len() && k.iter().zip(&key).all(same_group);
        match groups.iter_mut().find(|(k, _)| same(k)) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    Ok(groups)
}

/// Whether `c` names the column of a GROUP BY column.
fn is_group_key(c: &ColumnRef, by: &[Expr], s: &Scope<'_>) -> Result<bool> {
    let Some(at) = s.position(c)? else {
        return Ok(false);
    };
    let same = |k: &Expr| matches!(k, Expr::Column(k) if s.position(k).ok() == Some(Some(at)));
    Ok(by.iter().any(same))
}

/// SUM: integers add exactly, overflowing being an error, until the first
/// float; with a float among them, the correctly rounded sum of them all.
fn sum(values: &[Value]) -> Result<Value> {
    let (mut exact, mut int) = (ExactSum::new(), Some(0i64));
    for v in values {
        match v {
            Value::Int(i) => exact.add_i64(*i),
            Value::Float(f) => exact.add(*f),
            other => {
                let what = other.type_name();
                return Err(EngineError::TypeError(format!("SUM over {what}")));
            }
        }
        let overflow = || EngineError::Eval("integer overflow in SUM".into());
        int = match (int, v) {
            (Some(s), Value::Int(i)) => Some(s.checked_add(*i).ok_or_else(overflow)?),
            _ => None,
        };
    }
    Ok(match (values.is_empty(), int) {
        (true, _) => Value::Null,
        (false, Some(int)) => Value::Int(int),
        (false, None) => Value::Float(exact.to_f64()),
    })
}

/// The first value no later one is strictly `beyond`; NULL for none.
fn extreme(values: &[Value], beyond: Ordering) -> Result<Value> {
    let mut best: Option<&Value> = None;
    for v in values {
        if best.map_or(Ok(true), |b| v.sql_cmp(b).map(|o| o == Some(beyond)))? {
            best = Some(v);
        }
    }
    Ok(best.cloned().unwrap_or(Value::Null))
}

/// `needle IN (list)`: true on an equal item, else unknown on an unknown.
fn member(needle: &Value, list: &[Value]) -> Result<Option<bool>> {
    let step = |found, item| {
        Ok(if found == Some(true) {
            found
        } else {
            or3(found, needle.sql_eq(item)?)
        })
    };
    list.iter().try_fold(Some(false), step)
}

/// Whether two values fall in one group (GROUP BY, DISTINCT): NULL with
/// NULL, a NaN only with its own bit pattern, and otherwise values SQL
/// equality holds for (values it cannot compare never).
fn same_group((a, b): (&Value, &Value)) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if x.is_nan() || y.is_nan() => x.total_cmp(y).is_eq(),
        _ => a.is_null() && b.is_null() || a.sql_eq(b) == Ok(Some(true)),
    }
}

/// ORDER BY's order: `total_cmp` (NULL last), reversed for DESC but for NULL.
fn order(a: &[Value], b: &[Value], items: &[OrderByItem]) -> Ordering {
    let key = |((x, y), item): ((&Value, &Value), &OrderByItem)| match x.is_null() || y.is_null() {
        false if item.desc => y.total_cmp(x),
        _ => x.total_cmp(y),
    };
    let keys = a.iter().zip(b).zip(items).map(key);
    keys.fold(Ordering::Equal, Ordering::then)
}

/// Whether comparison `op` holds of two values ordered `o`.
fn compares(op: BinaryOp, o: Ordering) -> bool {
    use {BinaryOp::*, Ordering::*};
    matches!(
        (op, o),
        (Eq | LtEq | GtEq, Equal) | (NotEq | Lt | LtEq, Less) | (NotEq | Gt | GtEq, Greater)
    )
}

/// Whether `col` answers to the reference `c`.
fn answers(col: &Column, c: &ColumnRef) -> bool {
    col.name == c.name && (c.qualifier.is_none() || col.qualifier == c.qualifier)
}

/// The output columns of a SELECT list: a column keeps its name and
/// qualifier unless aliased; anything else is its alias or its position.
fn output_schema(items: &[SelectItem], input: &Schema) -> Schema {
    let column = |(i, item): (usize, &SelectItem)| match item {
        SelectItem::Expr { expr, alias } => vec![match (alias, expr) {
            (Some(alias), _) => Column::bare(alias, DataType::Any),
            (None, Expr::Column(c)) => Column::new(c.qualifier.as_deref(), &c.name, DataType::Any),
            (None, _) => Column::bare(&format!("_col{}", i + 1), DataType::Any),
        }],
        _ => input.columns.clone(),
    };
    Schema::new(items.iter().enumerate().flat_map(column).collect())
}

fn truth_value(b: Option<bool>) -> Value {
    b.map_or(Value::Null, Value::Bool)
}
