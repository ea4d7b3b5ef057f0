//! `Expr::children` is the one description of the SQL expression tree's
//! shape: every fold over it (column references, subquery and aggregate
//! detection, the engine's binder) is only as right as this list.

use conquer_sql::ast::{BinaryOp, Expr, Query, SelectItem, UnaryOp};
use conquer_sql::parse_query;

/// A marker expression no other slot of the same specimen carries.
fn m(n: i64) -> Expr {
    Expr::int(n)
}

fn b(n: i64) -> Box<Expr> {
    Box::new(m(n))
}

/// A subquery body holding a marker of its own, which must not be listed:
/// its expressions belong to an inner scope.
fn body() -> Box<Query> {
    Box::new(parse_query("select 99 from t where 98 = 97").expect("subquery body parses"))
}

#[test]
fn children_list_every_sub_expression_in_evaluation_order() {
    // Position of a variant in the enum. No wildcard: a new variant fails
    // to compile here until it is listed, and then fails the count below
    // until a specimen is added.
    fn variant(e: &Expr) -> usize {
        match e {
            Expr::Column(_) => 0,
            Expr::Literal(_) => 1,
            Expr::BinaryOp { .. } => 2,
            Expr::UnaryOp { .. } => 3,
            Expr::IsNull { .. } => 4,
            Expr::Between { .. } => 5,
            Expr::InList { .. } => 6,
            Expr::InSubquery { .. } => 7,
            Expr::Like { .. } => 8,
            Expr::Exists { .. } => 9,
            Expr::ScalarSubquery(_) => 10,
            Expr::Case { .. } => 11,
            Expr::Function { .. } => 12,
            Expr::Wildcard => 13,
        }
    }
    let specimens: Vec<(Expr, Vec<i64>)> = vec![
        (Expr::col("t", "a"), vec![]),
        (m(0), vec![]),
        (Expr::binary(m(1), BinaryOp::Minus, m(2)), vec![1, 2]),
        (
            Expr::UnaryOp {
                op: UnaryOp::Neg,
                expr: b(1),
            },
            vec![1],
        ),
        (
            Expr::IsNull {
                expr: b(1),
                negated: true,
            },
            vec![1],
        ),
        (
            Expr::Between {
                expr: b(1),
                low: b(2),
                high: b(3),
                negated: false,
            },
            vec![1, 2, 3],
        ),
        (
            Expr::InList {
                expr: b(1),
                list: vec![m(2), m(3)],
                negated: false,
            },
            vec![1, 2, 3],
        ),
        (
            Expr::InSubquery {
                expr: b(1),
                subquery: body(),
                negated: true,
            },
            vec![1],
        ),
        (
            Expr::Like {
                expr: b(1),
                pattern: b(2),
                negated: false,
            },
            vec![1, 2],
        ),
        (
            Expr::Exists {
                subquery: body(),
                negated: false,
            },
            vec![],
        ),
        (Expr::ScalarSubquery(body()), vec![]),
        (
            Expr::Case {
                branches: vec![(m(1), m(2)), (m(3), m(4))],
                else_expr: Some(b(5)),
            },
            vec![1, 2, 3, 4, 5],
        ),
        (
            Expr::Function {
                name: "coalesce".into(),
                args: vec![m(1), m(2)],
                distinct: true,
            },
            vec![1, 2],
        ),
        (Expr::Wildcard, vec![]),
    ];
    let variants: Vec<usize> = specimens.iter().map(|(e, _)| variant(e)).collect();
    assert_eq!(variants, (0..14).collect::<Vec<_>>(), "one per variant");
    for (e, markers) in specimens {
        let expected: Vec<Expr> = markers.into_iter().map(m).collect();
        let children: Vec<Expr> = e.children().cloned().collect();
        assert_eq!(children, expected, "children of {e:?}");
    }
}

#[test]
fn folds_stop_at_subquery_bodies_but_read_the_in_needle() {
    let q = parse_query(
        "select a + max(b) from t \
         where c in (select d from u where e = sum(f)) and exists (select g from v)",
    )
    .expect("parses");
    let select = q.as_select().expect("one select block");
    let SelectItem::Expr { expr: item, .. } = &select.projection[0] else {
        panic!("an expression item");
    };
    let names =
        |e: &Expr| -> Vec<String> { e.column_refs().iter().map(|c| c.name.clone()).collect() };
    assert_eq!(names(item), ["a", "b"]);
    assert!(item.contains_aggregate());
    assert!(!item.contains_subquery());

    let w = select.selection.as_ref().expect("a WHERE clause");
    // The IN needle `c` is read; the subquery's `d`, `e`, `f`, `g` are not,
    // and the aggregate inside the subquery is the subquery's own.
    assert_eq!(names(w), ["c"]);
    assert!(w.contains_subquery());
    assert!(!w.contains_aggregate());
}
