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

    /// All column references in the expression, in source order, without
    /// descending into subqueries (their columns belong to an inner scope).
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) | Expr::Wildcard => {}
            Expr::BinaryOp { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.visit_columns(f),
            Expr::Like { expr, pattern, .. } => {
                expr.visit_columns(f);
                pattern.visit_columns(f);
            }
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.visit_columns(f);
                    v.visit_columns(f);
                }
                if let Some(e) = else_expr {
                    e.visit_columns(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// `true` when the expression holds a subquery (`EXISTS`, `IN (SELECT
    /// ...)`, a scalar subquery) at any depth.
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => true,
            Expr::BinaryOp { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_subquery(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_subquery() || low.contains_subquery() || high.contains_subquery(),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(Expr::contains_subquery)
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .any(|(c, v)| c.contains_subquery() || v.contains_subquery())
                    || else_expr.as_ref().is_some_and(|e| e.contains_subquery())
            }
            Expr::Function { args, .. } => args.iter().any(Expr::contains_subquery),
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => false,
        }
    }

    /// `true` when the expression contains an aggregate function call at any
    /// depth outside of subqueries.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                is_aggregate_function(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::BinaryOp { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .any(|(c, v)| c.contains_aggregate() || v.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            _ => false,
        }
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
