//! Parser tests: structure checks plus print/parse round-trips, including
//! the literal rewritten queries from Figures 3 and 4 of the paper.

use conquer_sql::{
    parse_expr, parse_query, parse_statement, parse_statements, BinaryOp, Expr, JoinKind, Literal,
    SelectItem, SetExpr, Statement, TableRef,
};

/// Parse, print, re-parse, and require identical ASTs.
fn roundtrip(sql: &str) -> String {
    let q1 = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
    let printed = q1.to_string();
    let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("re-parse {printed:?}: {e}"));
    assert_eq!(q1, q2, "round trip changed the AST for {sql:?}");
    printed
}

#[test]
fn parses_paper_query_q1() {
    let q = parse_query("select custkey from customer where acctbal > 1000").unwrap();
    let s = q.as_select().unwrap();
    assert_eq!(s.projection.len(), 1);
    assert_eq!(s.from, vec![TableRef::table("customer")]);
    let Some(Expr::BinaryOp { op, .. }) = &s.selection else {
        panic!()
    };
    assert_eq!(*op, BinaryOp::Gt);
}

#[test]
fn parses_paper_rewriting_qc1() {
    // The rewriting of q1 from Section 1 of the paper.
    let sql = "select distinct custkey from customer c \
               where acctbal > 1000 and not exists (select * from customer c2 \
               where c2.custkey = c.custkey and c2.acctbal <= 1000)";
    let q = parse_query(sql).unwrap();
    let s = q.as_select().unwrap();
    assert!(s.distinct);
    let conjuncts = s.selection.as_ref().unwrap().split_conjuncts().len();
    assert_eq!(conjuncts, 2);
    roundtrip(sql);
}

#[test]
fn parses_paper_rewriting_qc2_figure3() {
    let sql = "with candidates as (\
                 select distinct o.orderkey from customer c, \"order\" o \
                 where c.acctbal > 1000 and o.custfk = c.custkey), \
               filter as (\
                 select o.orderkey from candidates cand \
                 join \"order\" o on cand.orderkey = o.orderkey \
                 left outer join customer c on o.custfk = c.custkey \
                 where c.custkey is null or c.acctbal <= 1000) \
               select orderkey from candidates cand \
               where not exists (select * from filter f where cand.orderkey = f.orderkey)";
    let q = parse_query(sql).unwrap();
    assert_eq!(q.ctes.len(), 2);
    assert_eq!(q.ctes[0].name, "candidates");
    assert_eq!(q.ctes[1].name, "filter");
    roundtrip(sql);
}

#[test]
fn parses_paper_rewriting_qc3_figure4_with_union_all() {
    let sql = "with candidates as (\
                 select distinct o.orderkey, o.clerk from customer c, orders o \
                 where c.acctbal > 1000 and o.custfk = c.custkey), \
               filter as (\
                 select o.orderkey from candidates cand \
                 join orders o on cand.orderkey = o.orderkey \
                 left outer join customer c on o.custfk = c.custkey \
                 where c.custkey is null or c.acctbal <= 1000 \
                 union all \
                 select orderkey from candidates cand group by orderkey having count(*) > 1) \
               select clerk from candidates cand \
               where not exists (select * from filter f where cand.orderkey = f.orderkey)";
    let q = parse_query(sql).unwrap();
    let filter = &q.ctes[1].query;
    assert!(matches!(filter.body, SetExpr::UnionAll(..)));
    assert_eq!(filter.body.selects().len(), 2);
    roundtrip(sql);
}

#[test]
fn parses_aggregation_with_group_by_and_case() {
    let sql = "select custkey, nationkey, \
                 case when min(acctbal) > 0 then 0 else min(acctbal) end as minbal, \
                 case when max(acctbal) > 0 then max(acctbal) else 0 end as maxbal \
               from customer c where mktsegment = 'building' \
               group by custkey, nationkey";
    let q = parse_query(sql).unwrap();
    let s = q.as_select().unwrap();
    assert_eq!(s.group_by.len(), 2);
    let SelectItem::Expr {
        expr: Expr::Case {
            branches,
            else_expr,
        },
        alias,
    } = &s.projection[2]
    else {
        panic!()
    };
    assert_eq!(alias.as_deref(), Some("minbal"));
    assert_eq!(branches.len(), 1);
    assert!(else_expr.is_some());
    roundtrip(sql);
}

#[test]
fn parses_joins_left_outer_chain() {
    let sql = "select a.x from t1 a join t2 b on a.k = b.k \
               left outer join t3 c on b.fk = c.k \
               left outer join t4 d on c.fk = d.k where d.k is null";
    let q = parse_query(sql).unwrap();
    let s = q.as_select().unwrap();
    let TableRef::Join { kind, .. } = &s.from[0] else {
        panic!()
    };
    assert_eq!(*kind, JoinKind::LeftOuter);
    roundtrip(sql);
}

#[test]
fn parses_order_by_and_limit() {
    let sql = "select a, b from t order by a desc, b limit 10";
    let q = parse_query(sql).unwrap();
    assert_eq!(q.order_by.len(), 2);
    assert!(q.order_by[0].desc);
    assert!(!q.order_by[1].desc);
    assert_eq!(q.limit, Some(10));
    roundtrip(sql);
}

#[test]
fn parses_date_literals_and_arithmetic() {
    let e = parse_expr("shipdate <= date '1998-09-02'").unwrap();
    let Expr::BinaryOp { right, .. } = e else {
        panic!()
    };
    assert_eq!(*right, Expr::Literal(Literal::date("1998-09-02")));
    roundtrip(
        "select 1 from lineitem where shipdate between date '1994-01-01' and date '1994-12-31'",
    );
}

#[test]
fn rejects_invalid_date_literal() {
    let err = parse_expr("d = date '1995-02-30'").unwrap_err();
    assert!(err.message().contains("invalid date"));
}

#[test]
fn parses_in_list_and_in_subquery() {
    roundtrip("select 1 from orders where orderpriority in ('1-URGENT', '2-HIGH')");
    roundtrip("select 1 from orders where orderkey not in (select orderkey from filter)");
    let e = parse_expr("x not in (1, 2, 3)").unwrap();
    assert!(matches!(e, Expr::InList { negated: true, .. }));
}

#[test]
fn parses_between_like_isnull() {
    roundtrip("select 1 from lineitem where discount between 0.05 and 0.07");
    roundtrip("select 1 from part where name like '%green%'");
    roundtrip("select 1 from t where x is not null and y is null");
}

#[test]
fn parses_arith_precedence() {
    let e = parse_expr("a + b * c - d / e").unwrap();
    // ((a + (b*c)) - (d/e))
    let Expr::BinaryOp {
        op: BinaryOp::Minus,
        left,
        right,
    } = e
    else {
        panic!()
    };
    assert!(matches!(
        *left,
        Expr::BinaryOp {
            op: BinaryOp::Plus,
            ..
        }
    ));
    assert!(matches!(
        *right,
        Expr::BinaryOp {
            op: BinaryOp::Divide,
            ..
        }
    ));
}

#[test]
fn parses_boolean_precedence() {
    let e = parse_expr("a = 1 or b = 2 and c = 3").unwrap();
    let Expr::BinaryOp {
        op: BinaryOp::Or,
        right,
        ..
    } = e
    else {
        panic!()
    };
    assert!(matches!(
        *right,
        Expr::BinaryOp {
            op: BinaryOp::And,
            ..
        }
    ));
}

#[test]
fn printer_parenthesizes_mixed_and_or() {
    let e = Expr::and(
        Expr::or(Expr::bare_col("a"), Expr::bare_col("b")),
        Expr::bare_col("c"),
    );
    assert_eq!(e.to_string(), "(a OR b) AND c");
    assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
}

#[test]
fn printer_preserves_nonassociative_subtraction() {
    let e = Expr::binary(
        Expr::bare_col("a"),
        BinaryOp::Minus,
        Expr::binary(Expr::bare_col("b"), BinaryOp::Minus, Expr::bare_col("c")),
    );
    assert_eq!(e.to_string(), "a - (b - c)");
    assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
}

#[test]
fn parses_count_star_and_distinct_aggregates() {
    let e = parse_expr("count(*)").unwrap();
    assert_eq!(e, Expr::count_star());
    let e = parse_expr("count(distinct clerk)").unwrap();
    assert!(matches!(e, Expr::Function { distinct: true, .. }));
}

#[test]
fn parses_create_table_and_insert() {
    let s = parse_statement(
        "create table customer (custkey integer, name varchar(25), acctbal decimal(15, 2), \
         mktsegment text, since date)",
    )
    .unwrap();
    let Statement::CreateTable { name, columns } = s else {
        panic!()
    };
    assert_eq!(name, "customer");
    assert_eq!(columns.len(), 5);

    let s = parse_statement("insert into customer (custkey, acctbal) values (1, 100.5), (2, -3)")
        .unwrap();
    let Statement::Insert { rows, .. } = s else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1][1], Expr::Literal(Literal::Integer(-3)));
}

#[test]
fn parses_statement_sequence() {
    let stmts =
        parse_statements("create table t (a integer); insert into t values (1); select a from t;")
            .unwrap();
    assert_eq!(stmts.len(), 3);
}

#[test]
fn parses_ddl_statements() {
    let s = parse_statement("drop table customer").unwrap();
    assert_eq!(
        s,
        Statement::DropTable {
            name: "customer".into()
        }
    );
    assert_eq!(s.to_string(), "DROP TABLE customer");

    let s = parse_statement("create index on orders (o_orderkey, o_custkey)").unwrap();
    let Statement::CreateIndex { table, columns } = &s else {
        panic!("expected CreateIndex, got {s:?}")
    };
    assert_eq!(table, "orders");
    assert_eq!(columns, &["o_orderkey", "o_custkey"]);
    assert_eq!(
        s.to_string(),
        "CREATE INDEX ON orders (o_orderkey, o_custkey)"
    );

    // `create` alone still means CREATE TABLE; a bare `drop` needs `table`.
    assert!(parse_statement("drop customer").is_err());
    assert!(parse_statement("create index on t").is_err());
}

#[test]
fn parses_derived_table() {
    roundtrip("select s.total from (select sum(x) as total from t) s where s.total > 0");
}

#[test]
fn parses_qualified_wildcard() {
    let q = parse_query("select f.* from filter f").unwrap();
    let s = q.as_select().unwrap();
    assert_eq!(
        s.projection,
        vec![SelectItem::QualifiedWildcard("f".into())]
    );
    roundtrip("select f.* from filter f");
}

#[test]
fn error_messages_carry_position() {
    let err = parse_query("select from t").unwrap_err();
    assert!(err.message().contains("expected expression"), "{err}");
    let err = parse_query("select a from t where").unwrap_err();
    assert!(err.offset() > 0);
    let err = parse_query("select a from t join u").unwrap_err();
    assert!(err.message().contains("expected `on`"), "{err}");
}

#[test]
fn trailing_garbage_is_rejected() {
    assert!(parse_query("select 1 from t bogus extra tokens").is_err());
    assert!(parse_query("select 1; select 2").is_err());
}

#[test]
fn keywords_usable_as_quoted_identifiers() {
    roundtrip("select \"order\".\"select\" from \"order\"");
}

#[test]
fn case_insensitivity() {
    let a = parse_query("SELECT CustKey FROM Customer WHERE AcctBal > 1000").unwrap();
    let b = parse_query("select custkey from customer where acctbal > 1000").unwrap();
    assert_eq!(a, b);
}

#[test]
fn roundtrip_union_all_with_order_by() {
    roundtrip("select a from t union all select b from u order by 1");
}

#[test]
fn roundtrip_exists_forms() {
    roundtrip("select a from t where exists (select * from u where u.k = t.k)");
    roundtrip("select a from t where not exists (select * from u where u.k = t.k)");
}

#[test]
fn not_binds_looser_than_comparison() {
    let e = parse_expr("not a = b").unwrap();
    let Expr::UnaryOp { expr, .. } = e else {
        panic!()
    };
    assert!(matches!(
        *expr,
        Expr::BinaryOp {
            op: BinaryOp::Eq,
            ..
        }
    ));
}

#[test]
fn split_conjuncts_flattens_nested_ands() {
    let e = parse_expr("a = 1 and b = 2 and c = 3 and d = 4").unwrap();
    assert_eq!(e.split_conjuncts().len(), 4);
}
