//! Differential suite for the compiled projection (`engine::kernels`):
//! `compile_projection(..).eval(..)` against row-at-a-time
//! `BoundExpr::eval` on the same batch, row by row.
//!
//! Values must agree variant for variant and float bit for bit (`-0.0` is
//! not `0.0`, NaN is compared by its bits), and the kernel returns `None`
//! exactly where the row path errs: an integer overflow or a NaN in a CASE
//! condition. Batches are seeded and built column by column over every
//! operand layout the typed loops specialize on — a column without NULLs,
//! a NULL-heavy column whose NULL rows hold arbitrary placeholders (so an
//! overflow under a NULL is met), a scalar on either side — over `Int` and
//! `Float`, with NaN, ±inf, `-0.0` and values near `i64`'s ends mixed in,
//! at sizes around the 64-row bitmap word.

use conquer_engine::col::{Bitmap, ColBatch, ColumnChunk, ColumnData};
use conquer_engine::expr::{BoundExpr, Env, ScalarFunc};
use conquer_engine::kernels::compile_projection;
use conquer_engine::Value;
use conquer_sql::ast::BinaryOp;
use std::sync::Arc;

/// Batch sizes: empty, one row, around a bitmap word, several words.
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 300];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn int(&mut self) -> i64 {
        match self.next() % 10 {
            0 => i64::MAX - (self.next() % 3) as i64,
            1 => i64::MIN + (self.next() % 3) as i64,
            2 => 0,
            _ => self.next() as i64 % 2000 - 1000,
        }
    }

    fn float(&mut self) -> f64 {
        match self.next() % 12 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => (self.next() % 20_000) as f64 / 8.0 - 1000.0,
        }
    }
}

/// How the NULLs of a generated column fall.
#[derive(Clone, Copy, Debug)]
enum Nulls {
    /// No validity bitmap at all.
    None,
    /// About two rows in three NULL, each holding a random placeholder.
    Heavy,
}

fn validity(rng: &mut Lcg, n: usize, nulls: Nulls) -> Option<Bitmap> {
    match nulls {
        Nulls::None => None,
        Nulls::Heavy => Bitmap::from_flags(
            &(0..n)
                .map(|_| rng.next().is_multiple_of(3))
                .collect::<Vec<_>>(),
        ),
    }
}

/// Four columns of `n` rows: Int and Float without NULLs, then Int and
/// Float NULL-heavy (placeholders under NULL drawn like values, so an
/// `i64::MAX` can sit under a NULL).
fn batch(seed: u64, n: usize) -> ColBatch {
    let mut rng = Lcg(seed);
    let mut cols = Vec::new();
    for nulls in [Nulls::None, Nulls::Heavy] {
        let ints = (0..n).map(|_| rng.int()).collect();
        let validity_i = validity(&mut rng, n, nulls);
        cols.push(Arc::new(ColumnChunk {
            data: ColumnData::Int(ints),
            validity: validity_i,
        }));
        let floats = (0..n).map(|_| rng.float()).collect();
        let validity_f = validity(&mut rng, n, nulls);
        cols.push(Arc::new(ColumnChunk {
            data: ColumnData::Float(floats),
            validity: validity_f,
        }));
    }
    ColBatch::from_chunks(n, cols)
}

const INT: usize = 0;
const FLOAT: usize = 1;
const INT_NULLS: usize = 2;
const FLOAT_NULLS: usize = 3;

fn col(i: usize) -> BoundExpr {
    BoundExpr::column(i)
}

fn lit(v: Value) -> BoundExpr {
    BoundExpr::Literal(v)
}

fn bin(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
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

fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

/// The compiled projection of `e` against row-at-a-time evaluation, on
/// every size, over two seeds each.
fn check(e: &BoundExpr) {
    for (k, &n) in SIZES.iter().enumerate() {
        for seed in [k as u64, 1000 + k as u64] {
            let b = batch(seed, n);
            let projection = compile_projection(std::slice::from_ref(e), &b)
                .unwrap_or_else(|| panic!("does not compile: {e:?}"));
            let rows: Vec<_> = (0..n).map(|i| b.row_at(i)).collect();
            let reference: Result<Vec<Value>, _> =
                rows.iter().map(|r| e.eval(&Env::root(r))).collect();
            match (projection.eval(&b), reference) {
                (Some(chunks), Ok(want)) => {
                    assert_eq!(chunks[0].len(), n, "{e:?}");
                    for (i, w) in want.iter().enumerate() {
                        let got = chunks[0].value_at(i);
                        assert!(
                            same(&got, w),
                            "seed {seed} n {n} row {i}: {got:?} vs {w:?} for {e:?}"
                        );
                    }
                }
                (None, Err(_)) => {}
                (got, want) => panic!(
                    "seed {seed} n {n}: kernel {:?} vs row path {:?} for {e:?}",
                    got.is_some(),
                    want.map(|_| ())
                ),
            }
        }
    }
}

/// Every operand layout pair over Int and Float, with or without NULLs.
fn operands() -> Vec<BoundExpr> {
    vec![
        col(INT),
        col(FLOAT),
        col(INT_NULLS),
        col(FLOAT_NULLS),
        lit(Value::Int(1)),
        lit(Value::Int(-7)),
        lit(Value::Int(i64::MIN)),
        lit(Value::Float(2.5)),
        lit(Value::Float(-0.0)),
        lit(Value::Float(f64::INFINITY)),
    ]
}

#[test]
fn arithmetic_matches_row_path_over_every_layout() {
    for op in [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Multiply] {
        for l in operands() {
            for r in operands() {
                if matches!((&l, &r), (BoundExpr::Literal(_), BoundExpr::Literal(_))) {
                    continue;
                }
                check(&bin(op, l.clone(), r));
            }
        }
    }
}

/// Integer overflow under a NULL is that row's placeholder, not an error;
/// anywhere else it is the row path's error. Pinned on fixed columns so
/// both outcomes are met whatever the seeds draw.
#[test]
fn integer_overflow_under_null_is_a_placeholder() {
    let valid = Bitmap::from_flags(&[true, false, true]);
    let b = ColBatch::from_chunks(
        3,
        vec![
            Arc::new(ColumnChunk {
                data: ColumnData::Int(vec![1, i64::MAX, 2]),
                validity: valid,
            }),
            Arc::new(ColumnChunk {
                data: ColumnData::Int(vec![1, i64::MAX, i64::MAX]),
                validity: None,
            }),
        ],
    );
    let eval = |e: BoundExpr| {
        let projection = compile_projection(std::slice::from_ref(&e), &b).unwrap();
        projection
            .eval(&b)
            .map(|c| (0..3).map(|i| c[0].value_at(i)).collect::<Vec<_>>())
    };
    // Row 1 overflows under its NULL: NULL. Row 2 overflows for real.
    assert_eq!(
        eval(bin(BinaryOp::Plus, col(0), lit(Value::Int(i64::MAX)))),
        None
    );
    let under_null = bin(BinaryOp::Multiply, col(0), lit(Value::Int(2)));
    assert_eq!(
        eval(under_null),
        Some(vec![Value::Int(2), Value::Null, Value::Int(4)])
    );
    assert_eq!(eval(bin(BinaryOp::Plus, col(0), col(1))), None);
}

#[test]
fn coalesce_matches_row_path_over_every_layout() {
    let defaults = [
        Value::Int(0),
        Value::Int(-3),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Null,
    ];
    for c in [INT, FLOAT, INT_NULLS, FLOAT_NULLS] {
        for d in &defaults {
            check(&coalesce(col(c), d.clone()));
        }
    }
    // Q1's `conq_base` shape: arithmetic under COALESCE.
    let price = bin(
        BinaryOp::Multiply,
        col(FLOAT_NULLS),
        bin(BinaryOp::Minus, lit(Value::Int(1)), col(FLOAT)),
    );
    check(&coalesce(price.clone(), Value::Int(0)));
    check(&coalesce(
        bin(
            BinaryOp::Multiply,
            price,
            bin(BinaryOp::Plus, lit(Value::Int(1)), col(FLOAT_NULLS)),
        ),
        Value::Int(0),
    ));
}

#[test]
fn case_matches_row_path_over_every_layout() {
    let conds = [
        BoundExpr::IsNull {
            expr: Box::new(col(INT_NULLS)),
            negated: false,
        },
        BoundExpr::IsNull {
            expr: Box::new(col(FLOAT_NULLS)),
            negated: true,
        },
        bin(BinaryOp::Gt, col(INT_NULLS), lit(Value::Int(0))),
        // NaNs in the condition's column: the row path's error.
        bin(BinaryOp::LtEq, col(FLOAT), lit(Value::Float(1.5))),
    ];
    let arms = operands();
    for cond in &conds {
        for then in &arms {
            for otherwise in &arms {
                check(&case(cond.clone(), then.clone(), Some(otherwise.clone())));
            }
            check(&case(cond.clone(), then.clone(), None));
        }
    }
}

/// Rewritten Q1's whole `conq_base` list in one projection.
#[test]
fn a_projection_list_evaluates_each_expression_alone() {
    let exprs = vec![
        col(INT),
        coalesce(col(FLOAT_NULLS), Value::Int(0)),
        coalesce(
            bin(
                BinaryOp::Multiply,
                col(FLOAT),
                bin(BinaryOp::Minus, lit(Value::Int(1)), col(FLOAT_NULLS)),
            ),
            Value::Int(0),
        ),
        case(
            BoundExpr::IsNull {
                expr: Box::new(col(FLOAT_NULLS)),
                negated: false,
            },
            lit(Value::Int(0)),
            Some(lit(Value::Int(1))),
        ),
        lit(Value::Int(1)),
    ];
    for n in SIZES {
        let b = batch(7, n);
        let chunks = compile_projection(&exprs, &b).unwrap().eval(&b).unwrap();
        for (e, chunk) in exprs.iter().zip(&chunks) {
            for i in 0..n {
                let want = e.eval(&Env::root(&b.row_at(i))).unwrap();
                assert!(same(&chunk.value_at(i), &want), "row {i}: {e:?}");
            }
        }
    }
}
