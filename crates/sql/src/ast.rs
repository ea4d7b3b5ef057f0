//! Abstract syntax tree for the ConQuer SQL dialect.
//!
//! The tree is deliberately close to the grammar of the paper's Figures 3–8:
//! queries with `WITH` clauses, select blocks combined by `UNION ALL`,
//! comma- and `JOIN`-style `FROM` clauses, and expressions covering the
//! predicates of tree queries plus everything the rewritings emit
//! (`NOT EXISTS`, `IS NULL`, `CASE`, aggregate calls).
//!
//! All identifiers are stored lower-cased (SQL identifiers are
//! case-insensitive in this dialect; quoted identifiers preserve case).

use crate::dates;

/// A literal value appearing in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Boolean(bool),
    /// Integer literal; also used for exact money-style values scaled by the caller.
    Integer(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal.
    String(String),
    /// `DATE 'YYYY-MM-DD'`, stored as days since 1970-01-01.
    Date(i32),
}

impl Literal {
    /// Convenience constructor parsing a `YYYY-MM-DD` date string.
    ///
    /// # Panics
    /// Panics when the string is not a valid date; intended for trusted
    /// (programmatic) construction sites such as tests and the rewriter.
    pub fn date(s: &str) -> Literal {
        Literal::Date(dates::parse_date(s).unwrap_or_else(|| panic!("invalid date literal {s:?}")))
    }
}

/// A possibly-qualified column reference such as `c.custkey` or `acctbal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table name or alias qualifier, when written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColumnRef {
    pub fn new(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    pub fn bare(name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }
}

/// Binary operators, in SQL surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | NotEq | Lt | LtEq | Gt | GtEq)
    }

    /// The comparison with reversed truth value, e.g. `<` becomes `>=`.
    ///
    /// Used by the rewriter to build `NSC`, the negation of the selection
    /// conditions (Figure 5 of the paper). Returns `None` for non-comparison
    /// operators.
    pub fn negated_comparison(self) -> Option<BinaryOp> {
        use BinaryOp::*;
        Some(match self {
            Eq => NotEq,
            NotEq => Eq,
            Lt => GtEq,
            LtEq => Gt,
            Gt => LtEq,
            GtEq => Lt,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Literal),
    /// Binary operation (arithmetic, comparison, `AND`/`OR`).
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation (`NOT`, unary minus).
    UnaryOp { op: UnaryOp, expr: Box<Expr> },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Query>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (pattern is `%`/`_` wildcards).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists { subquery: Box<Query>, negated: bool },
    /// Scalar subquery `(select ...)` used as a value.
    ScalarSubquery(Box<Query>),
    /// Searched `CASE WHEN c THEN v ... [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Function call: aggregates (`SUM`, `MIN`, `MAX`, `COUNT`, `AVG`) and
    /// scalar functions (`ABS`, `COALESCE`, ...).
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `*` — only valid inside `COUNT(*)` or `SELECT *`/`EXISTS(SELECT *)`.
    Wildcard,
}

impl Expr {
    pub fn col(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(qualifier, name))
    }

    pub fn bare_col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    pub fn lit(l: Literal) -> Expr {
        Expr::Literal(l)
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    pub fn string(s: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(s.into()))
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Eq, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Or, right)
    }

    /// Logical negation (named `not` to mirror SQL; distinct from `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(expr: Expr) -> Expr {
        Expr::UnaryOp {
            op: UnaryOp::Not,
            expr: Box::new(expr),
        }
    }

    pub fn is_null(expr: Expr) -> Expr {
        Expr::IsNull {
            expr: Box::new(expr),
            negated: false,
        }
    }

    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Function {
            name: name.into(),
            args,
            distinct: false,
        }
    }

    pub fn count_star() -> Expr {
        Expr::func("count", vec![Expr::Wildcard])
    }

    pub fn exists(q: Query) -> Expr {
        Expr::Exists {
            subquery: Box::new(q),
            negated: false,
        }
    }

    pub fn not_exists(q: Query) -> Expr {
        Expr::Exists {
            subquery: Box::new(q),
            negated: true,
        }
    }

    /// Conjoin all expressions with `AND`; `None` when the input is empty.
    pub fn conjoin(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Disjoin all expressions with `OR`; `None` when the input is empty.
    pub fn disjoin(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::or)
    }

    /// Split a conjunction into its top-level conjuncts.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// The direct sub-expressions, in evaluation order. A subquery's body is
    /// not among them — its expressions belong to an inner scope, so every
    /// traversal handles it as its own case — but an `IN (SELECT ...)`
    /// needle is: it is evaluated in this scope. (An iterator rather than a
    /// `Vec`: the planner folds over whole rewritings, and a `Vec` per node
    /// would be an allocation per node.)
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        // Every variant's children are some leading operands, then a list,
        // then `CASE` branch pairs, then an `ELSE`.
        let none: [Option<&Expr>; 3] = [None; 3];
        let (lead, list, branches, last): (_, &[Expr], &[(Expr, Expr)], _) = match self {
            Expr::Column(_)
            | Expr::Literal(_)
            | Expr::Wildcard
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => (none, &[], &[], None),
            Expr::BinaryOp { left, right, .. } => ([Some(left), Some(right), None], &[], &[], None),
            Expr::UnaryOp { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => ([Some(expr), None, None], &[], &[], None),
            Expr::Between {
                expr, low, high, ..
            } => ([Some(expr), Some(low), Some(high)], &[], &[], None),
            Expr::InList { expr, list, .. } => ([Some(expr), None, None], list, &[], None),
            Expr::Like { expr, pattern, .. } => ([Some(expr), Some(pattern), None], &[], &[], None),
            Expr::Case {
                branches,
                else_expr,
            } => (none, &[], branches, else_expr.as_deref()),
            Expr::Function { args, .. } => (none, args, &[], None),
        };
        lead.into_iter()
            .flatten()
            .chain(list)
            .chain(branches.iter().flat_map(|(c, v)| [c, v]))
            .chain(last)
    }

    /// All column references in the expression, in source order, without
    /// descending into subqueries (their columns belong to an inner scope).
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a ColumnRef>) {
            if let Expr::Column(c) = e {
                out.push(c);
            }
            for child in e.children() {
                walk(child, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// `true` when the expression holds a subquery (`EXISTS`, `IN (SELECT
    /// ...)`, a scalar subquery) at any depth.
    pub fn contains_subquery(&self) -> bool {
        matches!(
            self,
            Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
        ) || self.children().any(Expr::contains_subquery)
    }

    /// `true` when the expression contains an aggregate function call at any
    /// depth outside of subqueries.
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Function { name, .. } if is_aggregate_function(name))
            || self.children().any(Expr::contains_aggregate)
    }
}

/// Keywords that cannot be used as bare identifiers (aliases, column or
/// table names); quote them with `"..."` instead. Shared by the parser
/// (alias/expression disambiguation) and the printer (quoting decisions).
pub const RESERVED_WORDS: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "union", "on", "join", "left",
    "right", "full", "inner", "outer", "cross", "and", "or", "not", "as", "by", "distinct",
    "exists", "in", "is", "null", "between", "like", "case", "when", "then", "else", "end", "with",
    "values", "insert", "create", "into", "all", "asc", "desc",
];

/// `true` when `word` (already lower-cased) is a reserved keyword.
pub fn is_reserved_word(word: &str) -> bool {
    RESERVED_WORDS.contains(&word)
}

/// `true` for the aggregate function names this dialect recognises.
pub fn is_aggregate_function(name: &str) -> bool {
    matches!(name, "sum" | "min" | "max" | "count" | "avg")
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
}

impl SelectItem {
    pub fn expr(expr: Expr) -> SelectItem {
        SelectItem::Expr { expr, alias: None }
    }

    pub fn aliased(expr: Expr, alias: impl Into<String>) -> SelectItem {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

/// Join flavour. `Cross` models the comma in `FROM a, b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    Cross,
}

/// An element of the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE reference, optionally aliased.
    Table { name: String, alias: Option<String> },
    /// Derived table `(subquery) AS alias`.
    Subquery { query: Box<Query>, alias: String },
    /// `left JOIN right ON cond` (or LEFT OUTER / CROSS variants).
    Join {
        left: Box<TableRef>,
        kind: JoinKind,
        right: Box<TableRef>,
        on: Option<Expr>,
    },
}

impl TableRef {
    pub fn table(name: impl Into<String>) -> TableRef {
        TableRef::Table {
            name: name.into(),
            alias: None,
        }
    }

    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> TableRef {
        TableRef::Table {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    pub fn join(self, right: TableRef, on: Expr) -> TableRef {
        TableRef::Join {
            left: Box::new(self),
            kind: JoinKind::Inner,
            right: Box::new(right),
            on: Some(on),
        }
    }

    pub fn left_outer_join(self, right: TableRef, on: Expr) -> TableRef {
        TableRef::Join {
            left: Box::new(self),
            kind: JoinKind::LeftOuter,
            right: Box::new(right),
            on: Some(on),
        }
    }
}

/// A `SELECT` block (one operand of a set expression).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// Body of a query: a select block or a `UNION ALL` of bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    UnionAll(Box<SetExpr>, Box<SetExpr>),
}

impl SetExpr {
    /// Iterate over the select blocks of this body, left to right.
    pub fn selects(&self) -> Vec<&Select> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a SetExpr, out: &mut Vec<&'a Select>) {
            match e {
                SetExpr::Select(s) => out.push(s),
                SetExpr::UnionAll(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }
}

/// Sort direction of one `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub query: Query,
}

/// A complete query: `WITH` clause, body, `ORDER BY`, `LIMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// Wrap a single select block into a query with no CTEs or ordering.
    pub fn from_select(select: Select) -> Query {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The single select block of a simple query, if the body is not a union.
    pub fn as_select(&self) -> Option<&Select> {
        match &self.body {
            SetExpr::Select(s) => Some(s),
            SetExpr::UnionAll(..) => None,
        }
    }
}

/// Column type in `CREATE TABLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    Integer,
    Float,
    Text,
    Date,
    Boolean,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: TypeName,
}

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), (…)` .
    Insert {
        table: String,
        columns: Vec<String>,
        rows: Vec<Vec<Expr>>,
    },
    /// `DROP TABLE name`.
    DropTable {
        name: String,
    },
    /// `CREATE INDEX ON name (col, ...)` — declare a secondary index over
    /// the listed columns (column order matters for multi-column probes).
    CreateIndex {
        table: String,
        columns: Vec<String>,
    },
}
