//! Runtime values with SQL semantics: NULL propagation, numeric coercion
//! between integers and floats, and a normalized form for hashing (group-by
//! and join keys).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use conquer_sql::ast::Literal;
use conquer_sql::dates;

use crate::error::{EngineError, Result};

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct a date value from a `YYYY-MM-DD` string.
    ///
    /// # Panics
    /// Panics on invalid dates; intended for trusted construction sites
    /// (test fixtures, generators). The query path never calls this on user
    /// input — SQL date literals go through the parser, which reports
    /// malformed dates as parse errors.
    pub fn date(s: &str) -> Value {
        match dates::parse_date(s) {
            Some(d) => Value::Date(d),
            None => panic!("invalid date {s:?}"),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as a nullable boolean (SQL three-valued logic).
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(EngineError::TypeError(format!(
                "expected boolean, got {other}"
            ))),
        }
    }

    /// The value as f64 for numeric computation; `None` for NULL.
    pub fn as_f64(&self) -> Result<Option<f64>> {
        match self {
            Value::Null => Ok(None),
            Value::Int(v) => Ok(Some(*v as f64)),
            Value::Float(v) => Ok(Some(*v)),
            other => Err(EngineError::TypeError(format!(
                "expected number, got {other}"
            ))),
        }
    }

    /// The name of the value's runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Date(_) => "date",
        }
    }

    /// SQL equality: NULL compares as unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Result<Option<bool>> {
        match self.sql_cmp(other)? {
            None => Ok(None),
            Some(ord) => Ok(Some(ord == Ordering::Equal)),
        }
    }

    /// SQL comparison: `None` when either side is NULL, error on
    /// incomparable types.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        use Value::*;
        Ok(Some(match (self, other) {
            (Null, _) | (_, Null) => return Ok(None),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a
                .partial_cmp(b)
                .ok_or_else(|| EngineError::TypeError("NaN comparison".into()))?,
            (Int(a), Float(b)) => cmp_i64_f64(*a, *b)?,
            (Float(a), Int(b)) => cmp_i64_f64(*b, *a)?.reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => {
                return Err(EngineError::TypeError(format!(
                    "cannot compare {} with {}",
                    a.type_name(),
                    b.type_name()
                )))
            }
        }))
    }

    /// Total order used by ORDER BY: NULLs sort last, numerics compare
    /// across Int/Float, and distinct types order by type name (the engine
    /// never mixes non-numeric types in one column, but the order must be
    /// total for stable sorting).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            _ => self
                .sql_cmp(other)
                .ok()
                .flatten()
                .unwrap_or_else(|| self.type_name().cmp(other.type_name())),
        }
    }

    /// Arithmetic with NULL propagation. Integer arithmetic stays integral;
    /// any float operand promotes to float. Integer division truncates;
    /// division by zero is an error.
    pub fn arith(&self, op: ArithOp, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => arith_int(*a, op, *b),
            (Date(a), Int(b)) if op == ArithOp::Add => date_shift(*a, *b, false),
            (Date(a), Int(b)) if op == ArithOp::Sub => date_shift(*a, *b, true),
            (Date(a), Date(b)) if op == ArithOp::Sub => Ok(Int(i64::from(*a) - i64::from(*b))),
            _ => {
                let (Some(a), Some(b)) = (self.as_f64()?, other.as_f64()?) else {
                    return Ok(Null); // unreachable: NULLs handled above
                };
                let r = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(EngineError::Eval("division by zero".into()));
                        }
                        a / b
                    }
                    ArithOp::Mod => {
                        if b == 0.0 {
                            return Err(EngineError::Eval("division by zero".into()));
                        }
                        a % b
                    }
                };
                Ok(Float(r))
            }
        }
    }
}

/// An AST literal as a runtime value.
impl From<&Literal> for Value {
    fn from(l: &Literal) -> Value {
        match l {
            Literal::Null => Value::Null,
            Literal::Boolean(b) => Value::Bool(*b),
            Literal::Integer(v) => Value::Int(*v),
            Literal::Float(v) => Value::Float(*v),
            Literal::String(s) => Value::str(s),
            Literal::Date(d) => Value::Date(*d),
        }
    }
}

/// Shift a date (days since epoch) by an integer day count with overflow
/// checking.
fn date_shift(days: i32, by: i64, negate: bool) -> Result<Value> {
    let overflow = || EngineError::Eval("date arithmetic overflow".into());
    let by = i32::try_from(by).map_err(|_| overflow())?;
    let shifted = if negate {
        days.checked_sub(by)
    } else {
        days.checked_add(by)
    };
    Ok(Value::Date(shifted.ok_or_else(overflow)?))
}

/// Compare an i64 with an f64 exactly (no precision loss for large ints).
pub(crate) fn cmp_i64_f64(a: i64, b: f64) -> Result<Ordering> {
    if b.is_nan() {
        return Err(EngineError::TypeError("NaN comparison".into()));
    }
    // Fast path: both fit exactly in f64. (b is non-NaN here, so
    // partial_cmp cannot fail; Equal is a safe defensive fallback.)
    if a.unsigned_abs() < (1 << 52) {
        return Ok((a as f64).partial_cmp(&b).unwrap_or(Ordering::Equal));
    }
    if b >= 9.223_372_036_854_776e18 {
        return Ok(Ordering::Less);
    }
    if b < -9.223_372_036_854_776e18 {
        return Ok(Ordering::Greater);
    }
    let bt = b.trunc();
    match a.cmp(&(bt as i64)) {
        Ordering::Equal => Ok(0.0_f64
            .partial_cmp(&(b - bt))
            .unwrap_or(Ordering::Equal)
            .reverse()),
        other => Ok(other),
    }
}

/// Arithmetic operator selector for [`Value::arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

fn arith_int(a: i64, op: ArithOp, b: i64) -> Result<Value> {
    let overflow = || EngineError::Eval("integer overflow".into());
    Ok(match op {
        ArithOp::Add => Value::Int(a.checked_add(b).ok_or_else(overflow)?),
        ArithOp::Sub => Value::Int(a.checked_sub(b).ok_or_else(overflow)?),
        ArithOp::Mul => Value::Int(a.checked_mul(b).ok_or_else(overflow)?),
        ArithOp::Div => {
            if b == 0 {
                return Err(EngineError::Eval("division by zero".into()));
            }
            // checked_div guards i64::MIN / -1 as well as b == 0.
            Value::Int(a.checked_div(b).ok_or_else(overflow)?)
        }
        ArithOp::Mod => {
            if b == 0 {
                return Err(EngineError::Eval("division by zero".into()));
            }
            Value::Int(a.checked_rem(b).ok_or_else(overflow)?)
        }
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => f.write_str(&dates::format_date(*d)),
        }
    }
}

impl PartialEq for Value {
    /// Structural equality used by tests and result comparison: NULL equals
    /// NULL here (unlike SQL predicate equality — use [`Value::sql_eq`] for
    /// that), and `Int(1) == Float(1.0)`.
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Int(a), Float(b)) | (Float(b), Int(a)) => {
                cmp_i64_f64(*a, *b).is_ok_and(|o| o == Ordering::Equal)
            }
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
        }
    }
}

/// A hashable, equality-comparable wrapper over a value for use in hash
/// tables (join keys, group keys, DISTINCT). Numeric values are normalized
/// so that `Int(2)` and `Float(2.0)` land in the same bucket; NULL is a
/// distinct key that groups with itself (SQL GROUP BY semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyValue {
    Null,
    Bool(bool),
    Int(i64),
    /// A float that is not exactly an i64; stored as raw bits (with -0.0
    /// normalized to 0.0).
    FloatBits(u64),
    Str(Arc<str>),
    Date(i32),
}

impl From<&Value> for KeyValue {
    fn from(v: &Value) -> KeyValue {
        match v {
            Value::Null => KeyValue::Null,
            Value::Bool(b) => KeyValue::Bool(*b),
            Value::Int(i) => KeyValue::Int(*i),
            Value::Float(f) => match float_key(*f) {
                Ok(i) => KeyValue::Int(i),
                Err(bits) => KeyValue::FloatBits(bits),
            },
            Value::Str(s) => KeyValue::Str(Arc::clone(s)),
            Value::Date(d) => KeyValue::Date(*d),
        }
    }
}

/// The key normalization of a float, shared by [`KeyValue`] and the typed
/// group-key kernel ([`crate::groupkey`]) so both agree on which floats are
/// one key: `Ok(i)` when the float is exactly the integer `i` (so it groups
/// with `Int(i)`; `-0.0` is `0`), otherwise `Err` of its raw bits (NaNs
/// group by payload).
#[inline]
pub(crate) fn float_key(f: f64) -> std::result::Result<i64, u64> {
    let norm = if f == 0.0 { 0.0 } else { f };
    if norm.fract() == 0.0 && norm.abs() < 9.2e18 && (norm as i64) as f64 == norm {
        Ok(norm as i64)
    } else {
        Err(norm.to_bits())
    }
}

/// A composite hash key over several values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key(pub Vec<KeyValue>);

impl Key {
    pub fn from_values(values: &[Value]) -> Key {
        Key(values.iter().map(KeyValue::from).collect())
    }

    /// `true` when any component is NULL — such keys never match anything
    /// under SQL join equality.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(|k| matches!(k, KeyValue::Null))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for k in &self.0 {
            k.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null).unwrap(), None);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)).unwrap(),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_eq(&Value::Int(3)).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn large_int_float_comparison_is_exact() {
        let big = (1_i64 << 53) + 1; // not representable as f64
        assert_eq!(
            Value::Int(big)
                .sql_cmp(&Value::Float((1_i64 << 53) as f64))
                .unwrap(),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Int(1).sql_cmp(&Value::str("x")).is_err());
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(
            Value::Int(7).arith(ArithOp::Add, &Value::Int(5)).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            Value::Int(7).arith(ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Float(1.5)
                .arith(ArithOp::Mul, &Value::Int(2))
                .unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Null.arith(ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn date_arithmetic() {
        let d = Value::date("1998-12-01");
        let shifted = d.arith(ArithOp::Sub, &Value::Int(90)).unwrap();
        assert_eq!(shifted, Value::date("1998-09-02"));
        let diff = Value::date("1998-12-01").arith(ArithOp::Sub, &Value::date("1998-09-02"));
        assert_eq!(diff.unwrap(), Value::Int(90));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1).arith(ArithOp::Div, &Value::Int(0)).is_err());
        assert!(Value::Float(1.0)
            .arith(ArithOp::Mod, &Value::Float(0.0))
            .is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX)
            .arith(ArithOp::Add, &Value::Int(1))
            .is_err());
    }

    #[test]
    fn total_order_puts_nulls_last() {
        let mut vals = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2), Value::Null]);
    }

    #[test]
    fn key_normalizes_numeric_types() {
        let a = Key::from_values(&[Value::Int(2)]);
        let b = Key::from_values(&[Value::Float(2.0)]);
        assert_eq!(a, b);
        let c = Key::from_values(&[Value::Float(2.5)]);
        assert_ne!(a, c);
    }

    #[test]
    fn key_detects_nulls() {
        assert!(Key::from_values(&[Value::Int(1), Value::Null]).has_null());
        assert!(!Key::from_values(&[Value::Int(1)]).has_null());
    }

    #[test]
    fn negative_zero_normalizes() {
        let a = Key::from_values(&[Value::Float(0.0)]);
        let b = Key::from_values(&[Value::Float(-0.0)]);
        assert_eq!(a, b);
    }
}
