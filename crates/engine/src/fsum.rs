//! Exact floating-point summation.
//!
//! `ExactSum` is a positional superaccumulator: a fixed-point integer wide
//! enough to hold any finite `f64` (bit 0 has weight 2^-1074, the top limbs
//! reach past 2^1023 with headroom for carries), so adding a float to it is
//! *exact* — no rounding happens until the final `to_f64`. An exact sum is a
//! pure function of the input multiset: it does not depend on the order
//! values arrive, how they are grouped into partial sums, or how partials are
//! merged. That is what makes SUM/AVG bit-identical at any
//! thread count, which compensated (Kahan) schemes cannot guarantee once the
//! morsel→worker assignment is dynamic.
//!
//! Representation: `LIMBS` signed 64-bit limbs, limb `i` holding bits
//! `[32·i, 32·i+32)` of the fixed-point value. Each `add` touches at most
//! three limbs and deposits less than 2^32 per limb, so limbs stay far from
//! `i64` overflow for over 2^30 consecutive adds; a cheap carry-propagation
//! pass (`normalize`) restores every limb to `[0, 2^32)` before that bound
//! is reached. The final rounding is a single round-half-even, matching what
//! IEEE-754 would produce if the whole sum had been computed in one step.

/// Number of 32-bit limbs. Finite doubles need bits up to
/// `1023 + 1074 = 2097`; carries from 2^30 max-magnitude adds reach about
/// bit 2128. 68 limbs cover bit 2175.
const LIMBS: usize = 68;

/// Fixed-point offset: bit index of weight 2^0 (= -(minimum exponent) of a
/// subnormal `f64` LSB).
const BIAS: u32 = 1074;

/// Normalize after this many deposits to keep limbs away from i64 overflow.
const NORMALIZE_EVERY: u32 = 1 << 30;

/// An exact accumulator for `f64` (and `i64`) addition.
///
/// `add` order never affects the result; `merge` of partial accumulators is
/// associative and commutative. Infinities and NaN are tracked out-of-band
/// with IEEE semantics (`+inf + -inf = NaN`, any NaN poisons the sum).
#[derive(Clone)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
    /// Deposits since the last `normalize`.
    pending: u32,
    pos_inf: bool,
    neg_inf: bool,
    nan: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSum")
            .field("value", &self.clone().to_f64())
            .finish()
    }
}

impl ExactSum {
    pub fn new() -> ExactSum {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
            pos_inf: false,
            neg_inf: false,
            nan: false,
        }
    }

    /// Add one `f64` term. Exact for all finite inputs.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nan = true;
            return;
        }
        if x.is_infinite() {
            if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let negative = bits >> 63 != 0;
        let exp_bits = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        // value magnitude = m * 2^(off - BIAS)
        let (m, off) = if exp_bits == 0 {
            (frac, 0)
        } else {
            (frac | (1u64 << 52), exp_bits - 1)
        };
        self.deposit(m, off, negative);
    }

    /// Add one integer term. Always exact (unlike `add(v as f64)`, which
    /// rounds magnitudes past 2^53).
    pub fn add_i64(&mut self, v: i64) {
        if v == 0 {
            return;
        }
        self.deposit(v.unsigned_abs(), BIAS, v < 0);
    }

    /// Deposit `m * 2^(off - BIAS)` with the given sign. `m < 2^64`,
    /// `off <= 2046`.
    fn deposit(&mut self, m: u64, off: u32, negative: bool) {
        let limb = (off / 32) as usize;
        let shift = off % 32;
        // m << shift spans at most 64 + 31 = 95 bits: three 32-bit chunks.
        let t = (m as u128) << shift;
        let c0 = (t & 0xffff_ffff) as i64;
        let c1 = ((t >> 32) & 0xffff_ffff) as i64;
        let c2 = ((t >> 64) & 0xffff_ffff) as i64;
        if negative {
            self.limbs[limb] -= c0;
            self.limbs[limb + 1] -= c1;
            self.limbs[limb + 2] -= c2;
        } else {
            self.limbs[limb] += c0;
            self.limbs[limb + 1] += c1;
            self.limbs[limb + 2] += c2;
        }
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Carry-propagate so every limb below the top is in `[0, 2^32)`.
    /// The top limb keeps the sign of the whole value.
    fn normalize(&mut self) {
        let mut carry: i64 = 0;
        for limb in self.limbs.iter_mut() {
            let v = *limb + carry;
            carry = v >> 32; // arithmetic shift: rounds toward -inf
            *limb = v - (carry << 32);
        }
        // `carry` out of the top limb is always zero: the value magnitude is
        // bounded far below 2^(32·LIMBS).
        self.limbs[LIMBS - 1] += carry << 32;
        self.pending = 0;
    }

    /// Fold another accumulator into this one. Order of merges never affects
    /// the final value.
    pub fn merge(&mut self, other: &ExactSum) {
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.normalize();
        let mut rhs = other.clone();
        rhs.normalize();
        for (a, b) in self.limbs.iter_mut().zip(rhs.limbs.iter()) {
            *a += *b;
        }
        self.pending = 1;
    }

    /// Round the exact sum to the nearest `f64` (ties to even), the same
    /// result IEEE-754 would give for a single-rounding sum.
    pub fn to_f64(&mut self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        self.normalize();
        let negative = self.limbs[LIMBS - 1] < 0;
        let mut mag = self.limbs;
        if negative {
            for limb in mag.iter_mut() {
                *limb = -*limb;
            }
            let mut carry: i64 = 0;
            for limb in mag.iter_mut() {
                let v = *limb + carry;
                carry = v >> 32;
                *limb = v - (carry << 32);
            }
        }
        round_magnitude(&mag, negative)
    }
}

/// Round a normalized non-negative limb array (each limb in `[0, 2^32)`),
/// interpreted as `M * 2^-BIAS`, to the nearest `f64` half-to-even.
fn round_magnitude(mag: &[i64; LIMBS], negative: bool) -> f64 {
    // Highest set bit.
    let mut hb = None;
    for i in (0..LIMBS).rev() {
        if mag[i] != 0 {
            let w = mag[i] as u64;
            hb = Some(i as u32 * 32 + (63 - w.leading_zeros()));
            break;
        }
    }
    let Some(hb) = hb else {
        return 0.0;
    };
    let sign_bit = if negative { 1u64 << 63 } else { 0 };
    if hb <= 51 {
        // Subnormal range: M < 2^52 is exactly a subnormal payload.
        let m = (mag[0] as u64) | ((mag[1] as u64) << 32);
        return f64::from_bits(sign_bit | m);
    }
    // Normal range: take 53 bits [hb-52, hb], round on the rest.
    let shift = hb - 52;
    let mut m = extract_bits(mag, shift, 53);
    let mut exp_shift = shift;
    if shift > 0 {
        let guard = bit(mag, shift - 1);
        let sticky = any_bits_below(mag, shift - 1);
        if guard && (sticky || m & 1 == 1) {
            m += 1;
            if m == 1u64 << 53 {
                m >>= 1;
                exp_shift += 1;
            }
        }
    }
    // value = m * 2^(exp_shift - BIAS), m in [2^52, 2^53).
    let biased = exp_shift as u64 + 1;
    if biased > 2046 {
        return if negative {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }
    f64::from_bits(sign_bit | (biased << 52) | (m & ((1u64 << 52) - 1)))
}

/// Bit `idx` of the limb array (bit 0 = weight 2^-BIAS).
fn bit(mag: &[i64; LIMBS], idx: u32) -> bool {
    (mag[(idx / 32) as usize] >> (idx % 32)) & 1 != 0
}

/// `count` (at most 64) bits starting at `start`, as an integer (low bit
/// first): the (at most three) 32-bit limbs they span, shifted into place.
fn extract_bits(mag: &[i64; LIMBS], start: u32, count: u32) -> u64 {
    let first = (start / 32) as usize;
    let window = (0..3).fold(0u128, |w, i| {
        let limb = mag.get(first + i).map_or(0, |&l| l as u64);
        w | (u128::from(limb) << (32 * i))
    });
    ((window >> (start % 32)) as u64) & (u64::MAX >> (64 - count))
}

/// Any set bit strictly below `end`?
fn any_bits_below(mag: &[i64; LIMBS], end: u32) -> bool {
    let limb_end = (end / 32) as usize;
    if mag[..limb_end].iter().any(|&l| l != 0) {
        return true;
    }
    let rem = end % 32;
    rem > 0 && (mag[limb_end] as u64) & ((1u64 << rem) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_exact(values: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s.to_f64()
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // xorshift64*
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn f64_wide(&mut self) -> f64 {
            // Random finite double across a wide exponent range.
            let frac = self.next() & ((1u64 << 52) - 1);
            let exp = 1023 + (self.next() % 201) - 100; // 2^-100 .. 2^100
            let sign = (self.next() & 1) << 63;
            f64::from_bits(sign | (exp << 52) | frac)
        }
    }

    #[test]
    fn exact_cancellation() {
        // Naive left-to-right gives 0.0 or 2.0 depending on order; the exact
        // sum is 1.0 for every permutation.
        assert_eq!(sum_exact(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(sum_exact(&[1.0, 1e16, -1e16]), 1.0);
        assert_eq!(sum_exact(&[-1e16, 1e16, 1.0]), 1.0);
        assert_eq!(sum_exact(&[1e300, 1e-300, -1e300]), 1e-300);
    }

    #[test]
    fn simple_sums_match_ieee() {
        assert_eq!(sum_exact(&[]), 0.0);
        assert_eq!(sum_exact(&[0.5, 0.25]), 0.75);
        assert_eq!(sum_exact(&[1.5, 2.5, -4.0]), 0.0);
        assert_eq!(sum_exact(&[0.1, 0.2]), 0.1 + 0.2);
        assert_eq!(sum_exact(&[f64::MAX]), f64::MAX);
        assert_eq!(
            sum_exact(&[f64::MIN_POSITIVE / 4.0]),
            f64::MIN_POSITIVE / 4.0
        );
    }

    #[test]
    fn round_half_even() {
        // 2^53 + 1 is a tie; even mantissa wins (2^53). 2^53 + 3 rounds up.
        let p53 = 9007199254740992.0;
        assert_eq!(sum_exact(&[p53, 1.0]), p53);
        assert_eq!(sum_exact(&[p53, 2.0]), p53 + 2.0);
        assert_eq!(sum_exact(&[p53, 3.0]), 9007199254740996.0);
    }

    #[test]
    fn integer_terms_are_exact() {
        let mut s = ExactSum::new();
        s.add_i64(i64::MAX);
        s.add_i64(i64::MAX);
        s.add_i64(i64::MIN);
        s.add_i64(i64::MIN);
        assert_eq!(s.to_f64(), -2.0);
        let mut s = ExactSum::new();
        s.add_i64(i64::MIN);
        s.add(0.5);
        // Exact value -(2^63) + 0.5 rounds back to -(2^63).
        assert_eq!(s.to_f64(), i64::MIN as f64);
    }

    #[test]
    fn permutation_and_merge_invariance() {
        let mut rng = Rng(0xfeed_beef);
        let mut values: Vec<f64> = (0..500).map(|_| rng.f64_wide()).collect();
        let reference = {
            let mut s = ExactSum::new();
            for &v in &values {
                s.add(v);
            }
            s.to_f64().to_bits()
        };
        for round in 0..8 {
            // Fisher-Yates shuffle.
            for i in (1..values.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                values.swap(i, j);
            }
            // Random partition into 1..=8 partial accumulators, merged in a
            // rotating order.
            let parts = 1 + (round % 8);
            let mut accs: Vec<ExactSum> = (0..parts).map(|_| ExactSum::new()).collect();
            for &v in &values {
                let k = (rng.next() % parts as u64) as usize;
                accs[k].add(v);
            }
            accs.rotate_left(round % parts);
            let mut total = ExactSum::new();
            for acc in &accs {
                total.merge(acc);
            }
            assert_eq!(total.to_f64().to_bits(), reference);
        }
    }

    #[test]
    fn subnormal_accumulation() {
        let tiny = f64::from_bits(1); // 5e-324, smallest subnormal
        let mut s = ExactSum::new();
        for _ in 0..3 {
            s.add(tiny);
        }
        assert_eq!(s.to_f64(), f64::from_bits(3));
        let mut s = ExactSum::new();
        s.add(tiny);
        s.add(-tiny);
        assert_eq!(s.to_f64(), 0.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(sum_exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum_exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // Cancellation brings it back into range: exact, not inf.
        assert_eq!(sum_exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn special_values() {
        assert_eq!(sum_exact(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert_eq!(sum_exact(&[f64::NEG_INFINITY, 1.0]), f64::NEG_INFINITY);
        assert!(sum_exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum_exact(&[f64::NAN, 1.0]).is_nan());
        // -0.0 terms leave the sum at +0.0 (sum is sign-normalized).
        assert_eq!(sum_exact(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn differential_against_naive_on_benign_inputs() {
        // Inputs whose naive sum is exact (same-exponent integers): the
        // superaccumulator must agree bit-for-bit.
        let mut rng = Rng(42);
        for _ in 0..100 {
            let vals: Vec<f64> = (0..64).map(|_| (rng.next() % 1_000_000) as f64).collect();
            let naive: f64 = vals.iter().sum();
            assert_eq!(sum_exact(&vals).to_bits(), naive.to_bits());
        }
    }
}
