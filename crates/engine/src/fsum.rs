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
//! Representation: signed 64-bit limbs, limb `i` holding bits
//! `[32·i, 32·i+32)` of the fixed-point value. Each `add` touches three
//! consecutive limbs and deposits less than 2^32 per limb, so limbs stay far
//! from `i64` overflow for over 2^30 consecutive adds; a cheap
//! carry-propagation pass (`normalize`) restores the limbs to `[0, 2^32)`
//! before that bound is reached. The final rounding is a single
//! round-half-even, matching what IEEE-754 would produce if the whole sum
//! had been computed in one step.
//!
//! Only a few of the `LIMBS` limbs are ever live in a real sum — the terms
//! of one SUM rarely span more than a few powers of 2^32 — so the
//! accumulator holds a *window* of `WINDOW` limbs inline, at a movable
//! `base`, and every pass touches only those. Invariants:
//!
//! 1. Inline, the value is `Σ win[i] · 2^(32·(base + i))` (in units of
//!    2^-1074); every limb outside the window is zero. `base ≤ MAX_BASE`, so
//!    the limb above the window exists in the full array. Spilled, `base`
//!    is `SPILLED`, so no deposit finds its limbs in the window.
//! 2. A deposit or merge outside the window moves it (`rebase`) when the
//!    live limbs and the new ones fit in `WINDOW` together — after a
//!    `normalize`, which also drops a negative value's sign-extension limbs
//!    — and otherwise *spills*: the window is copied into a boxed
//!    `LIMBS`-limb array at its offset, which the accumulator uses from then
//!    on. A spill is one-way and changes no value.
//! 3. Every limb's magnitude is at most `(pending + 1) · 2^32`: a deposit
//!    adds under 2^32 to a limb and counts one; a merge adds two such bounds
//!    and counts both plus one; `normalize` brings every limb within 2^32
//!    (the window's top limb absorbs a carry of 0 or −1 and moves up a limb,
//!    or spills, on anything else) and resets the count.

/// Limbs of the full array. Finite doubles need bits up to
/// `1023 + 1074 = 2097`; carries from 2^30 max-magnitude adds reach about
/// bit 2128. 68 limbs cover bit 2175.
const LIMBS: usize = 68;

/// Limbs held inline: a deposit's three and room for carries and for terms
/// a few powers of 2^32 apart.
const WINDOW: usize = 6;

/// Where a fresh window sits: limbs 31..37 take deposits of magnitudes in
/// `[2^-30, 2^98)` and integer terms without moving.
const HOME: usize = 31;

/// The highest base: a deposit reaches limb 65 at most, and the limb above
/// the window must exist for a carry out of it.
const MAX_BASE: usize = LIMBS - WINDOW - 2;

/// The base of a spilled sum: past every limb, so no deposit finds its
/// limbs in the (unused) window.
const SPILLED: u8 = u8::MAX;

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
    /// Limbs `[base, base + WINDOW)` while inline; zero once spilled.
    win: [i64; WINDOW],
    /// `SPILLED` once spilled.
    base: u8,
    pos_inf: bool,
    neg_inf: bool,
    nan: bool,
    /// Deposits since the last `normalize`, merges counted as above.
    pending: u32,
    /// Every limb, once a term fell outside what the window can hold.
    spill: Option<Box<[i64; LIMBS]>>,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSum")
            .field("value", &self.to_f64())
            .finish()
    }
}

impl ExactSum {
    pub fn new() -> ExactSum {
        ExactSum {
            win: [0; WINDOW],
            base: HOME as u8,
            pos_inf: false,
            neg_inf: false,
            nan: false,
            pending: 0,
            spill: None,
        }
    }

    /// Add one `f64` term. Exact for all finite inputs.
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let negative = bits >> 63 != 0;
        let exp_bits = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        if exp_bits == 0x7ff {
            self.add_special(frac != 0, negative);
            return;
        }
        if bits << 1 == 0 {
            return; // ±0.0
        }
        // value magnitude = m * 2^(off - BIAS)
        let (m, off) = if exp_bits == 0 {
            (frac, 0)
        } else {
            (frac | (1u64 << 52), exp_bits - 1)
        };
        self.deposit(m, off, negative);
    }

    /// A NaN, or an infinity of the given sign: tracked out of band.
    #[cold]
    fn add_special(&mut self, nan: bool, negative: bool) {
        match (nan, negative) {
            (true, _) => self.nan = true,
            (false, false) => self.pos_inf = true,
            (false, true) => self.neg_inf = true,
        }
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
    #[inline]
    fn deposit(&mut self, m: u64, off: u32, negative: bool) {
        let limb = (off / 32) as usize;
        // m << (off % 32) spans at most 64 + 31 = 95 bits: three 32-bit chunks.
        let t = (m as u128) << (off % 32);
        let c0 = (t & 0xffff_ffff) as i64;
        let c1 = ((t >> 32) & 0xffff_ffff) as i64;
        let c2 = ((t >> 64) & 0xffff_ffff) as i64;
        // One compare takes the common case: the three limbs are in the
        // window (a spilled sum's `base` is out of range, so it never is).
        let k = limb.wrapping_sub(usize::from(self.base));
        if k <= WINDOW - 3 {
            let w = &mut self.win;
            let (mut a, mut b, mut c) = (w[k], w[k + 1], w[k + 2]);
            if negative {
                a -= c0;
                b -= c1;
                c -= c2;
            } else {
                a += c0;
                b += c1;
                c += c2;
            }
            (w[k], w[k + 1], w[k + 2]) = (a, b, c);
        } else {
            self.deposit_outside(limb, [c0, c1, c2], negative);
        }
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// [`deposit`](ExactSum::deposit) of chunks that are not all in the
    /// window: it moves, or the sum spills, or it already has.
    #[cold]
    #[inline(never)]
    fn deposit_outside(&mut self, limb: usize, chunks: [i64; 3], negative: bool) {
        let sign = if negative { -1 } else { 1 };
        for (l, c) in self.span(limb, limb + 3).iter_mut().zip(chunks) {
            *l += sign * c;
        }
    }

    /// The limbs `[lo, hi)`, moving the window or spilling first when they
    /// are not in it (invariant 2).
    fn span(&mut self, lo: usize, hi: usize) -> &mut [i64] {
        let base = usize::from(self.base);
        if self.spill.is_none() && !(base <= lo && hi <= base + WINDOW) {
            self.make_room(lo, hi);
        }
        let base = usize::from(self.base);
        match &mut self.spill {
            Some(full) => &mut full[lo..hi],
            None => &mut self.win[lo - base..hi - base],
        }
    }

    /// Absolute limbs `[lo, hi)` of the window's nonzero limbs.
    fn live(&self) -> Option<(usize, usize)> {
        let base = usize::from(self.base);
        let lo = self.win.iter().position(|&l| l != 0)?;
        let hi = self.win.iter().rposition(|&l| l != 0)? + 1;
        Some((base + lo, base + hi))
    }

    /// Make the window cover `[lo, hi)` beside its live limbs, or spill.
    fn make_room(&mut self, lo: usize, hi: usize) {
        for retry in [false, true] {
            if retry {
                self.normalize();
                if self.spill.is_some() {
                    return;
                }
            }
            let (a, b) = self
                .live()
                .map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi)));
            if b - a <= WINDOW {
                // Centre the live limbs, leaving room for carries above and
                // smaller terms below.
                let base = a.saturating_sub((WINDOW - (b - a)) / 2).min(MAX_BASE);
                self.rebase(base);
                return;
            }
        }
        self.spill_out();
    }

    /// Move the window to start at limb `base`; every nonzero limb must
    /// stay inside it.
    fn rebase(&mut self, base: usize) {
        let (old, from) = (self.win, usize::from(self.base));
        self.win = [0; WINDOW];
        for (i, &l) in old.iter().enumerate() {
            if l != 0 {
                self.win[from + i - base] = l;
            }
        }
        self.base = base as u8;
    }

    /// Switch to the full limb array, the window copied in at its offset.
    fn spill_out(&mut self) {
        if self.spill.is_none() {
            let base = usize::from(self.base);
            let mut full = Box::new([0i64; LIMBS]);
            full[base..base + WINDOW].copy_from_slice(&self.win);
            self.win = [0; WINDOW];
            self.base = SPILLED;
            self.spill = Some(full);
        }
    }

    /// Carry-propagate so every limb is within 2^32 (invariant 3): below
    /// the top limb in `[0, 2^32)`, the top one keeping the sign of the
    /// whole value.
    fn normalize(&mut self) {
        self.pending = 0;
        if let Some(full) = &mut self.spill {
            let carry = carry_through(&mut full[..]);
            // `carry` out of the top limb is 0 or -1: the value magnitude is
            // bounded far below 2^(32·LIMBS).
            full[LIMBS - 1] += carry << 32;
            return;
        }
        match carry_through(&mut self.win) {
            0 => {}
            -1 => {
                // A negative value: the top limb holds the sign, and limbs
                // that only extend it fold down so the live span stays tight.
                self.win[WINDOW - 1] -= 1 << 32;
                let mut top = WINDOW - 1;
                while top > 0 && self.win[top] == -1 {
                    self.win[top] = 0;
                    self.win[top - 1] -= 1 << 32;
                    top -= 1;
                }
            }
            carry => {
                // The value outgrew the window: the carry is the limb above.
                let base = usize::from(self.base);
                if self.win[0] == 0 && base < MAX_BASE {
                    self.win.rotate_left(1);
                    self.win[WINDOW - 1] = carry;
                    self.base += 1;
                } else {
                    self.spill_out();
                    if let Some(full) = &mut self.spill {
                        full[base + WINDOW] = carry;
                    }
                }
            }
        }
    }

    /// Fold another accumulator into this one. Order of merges never affects
    /// the final value.
    pub fn merge(&mut self, other: &ExactSum) {
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        let (theirs, lo): (&[i64], usize) = match &other.spill {
            Some(full) => {
                self.spill_out();
                (&full[..], 0)
            }
            None => match other.live() {
                Some((lo, hi)) => {
                    let base = usize::from(other.base);
                    (&other.win[lo - base..hi - base], lo)
                }
                None => (&[], 0),
            },
        };
        if theirs.is_empty() {
            return;
        }
        for (mine, t) in self.span(lo, lo + theirs.len()).iter_mut().zip(theirs) {
            *mine += *t;
        }
        self.pending += other.pending + 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Round the exact sum to the nearest `f64` (ties to even), the same
    /// result IEEE-754 would give for a single-rounding sum.
    pub fn to_f64(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        match &self.spill {
            Some(full) => {
                let mut mag = **full;
                round_limbs(&mut mag, 0)
            }
            None => {
                // One limb above the window: a negative value's magnitude
                // can need it.
                let mut mag = [0i64; WINDOW + 1];
                mag[..WINDOW].copy_from_slice(&self.win);
                round_limbs(&mut mag, usize::from(self.base))
            }
        }
    }
}

/// Carry every limb into `[0, 2^32)`; returns the carry out of the top.
fn carry_through(limbs: &mut [i64]) -> i64 {
    let mut carry: i64 = 0;
    for limb in limbs.iter_mut() {
        let v = *limb + carry;
        carry = v >> 32; // arithmetic shift: rounds toward -inf
        *limb = v - (carry << 32);
    }
    carry
}

/// Round `Σ limbs[i] · 2^(32·(base + i))` (in units of 2^-BIAS) to the
/// nearest `f64`, half to even. Its magnitude must fit the limbs: the carry
/// out of the top is then 0 or, for a negative value, -1.
fn round_limbs(limbs: &mut [i64], base: usize) -> f64 {
    let negative = carry_through(limbs) < 0;
    if negative {
        // Two's complement: -(M - 2^k) = 2^k - M, exactly the magnitude.
        for limb in limbs.iter_mut() {
            *limb = -*limb;
        }
        carry_through(limbs);
    }
    round_magnitude(&Mag { limbs, base }, negative)
}

/// A non-negative magnitude: limbs in `[0, 2^32)`, the first at absolute
/// limb `base`, every limb outside them zero.
struct Mag<'a> {
    limbs: &'a [i64],
    base: usize,
}

impl Mag<'_> {
    /// Absolute limb `i`.
    fn limb(&self, i: usize) -> u64 {
        i.checked_sub(self.base)
            .and_then(|k| self.limbs.get(k))
            .map_or(0, |&l| l as u64)
    }

    /// Bit `idx` (bit 0 = weight 2^-BIAS).
    fn bit(&self, idx: u32) -> bool {
        (self.limb((idx / 32) as usize) >> (idx % 32)) & 1 != 0
    }

    /// `count` (at most 64) bits starting at `start`, as an integer (low bit
    /// first): the (at most three) 32-bit limbs they span, shifted into place.
    fn bits(&self, start: u32, count: u32) -> u64 {
        let first = (start / 32) as usize;
        let window = (0..3).fold(0u128, |w, i| {
            w | (u128::from(self.limb(first + i)) << (32 * i))
        });
        ((window >> (start % 32)) as u64) & (u64::MAX >> (64 - count))
    }

    /// Any set bit strictly below `end`?
    fn any_below(&self, end: u32) -> bool {
        let limb_end = (end / 32) as usize;
        let whole = limb_end.saturating_sub(self.base).min(self.limbs.len());
        if self.limbs[..whole].iter().any(|&l| l != 0) {
            return true;
        }
        let rem = end % 32;
        rem > 0 && self.limb(limb_end) & ((1u64 << rem) - 1) != 0
    }
}

/// Round a magnitude, interpreted as `M * 2^-BIAS`, to the nearest `f64`
/// half-to-even.
fn round_magnitude(mag: &Mag<'_>, negative: bool) -> f64 {
    // Highest set bit.
    let Some(top) = mag.limbs.iter().rposition(|&l| l != 0) else {
        return 0.0;
    };
    let w = mag.limbs[top] as u64;
    let hb = (mag.base + top) as u32 * 32 + (63 - w.leading_zeros());
    let sign_bit = if negative { 1u64 << 63 } else { 0 };
    if hb <= 51 {
        // Subnormal range: M < 2^52 is exactly a subnormal payload.
        return f64::from_bits(sign_bit | mag.bits(0, 52));
    }
    // Normal range: take 53 bits [hb-52, hb], round on the rest.
    let shift = hb - 52;
    let mut m = mag.bits(shift, 53);
    let mut exp_shift = shift;
    if shift > 0 {
        let guard = mag.bit(shift - 1);
        let sticky = mag.any_below(shift - 1);
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
    fn spills_only_when_the_window_cannot_hold_the_terms() {
        // Prices of one band and integers stay inline, the window at home.
        let mut s = ExactSum::new();
        for i in 0..10_000u64 {
            s.add((i * 7919 % 10_000_000) as f64 / 100.0);
            s.add_i64(i as i64 - 5_000);
        }
        assert!(s.spill.is_none() && usize::from(s.base) == HOME);
        // Smaller terms move the window down rather than spill.
        s.add(1e-12);
        assert!(s.spill.is_none() && usize::from(s.base) < HOME);
        // Terms 2^600 apart cannot share six limbs, nor can two partials
        // of them: the sum spills, exactly.
        let (mut big, mut tiny) = (ExactSum::new(), ExactSum::new());
        big.add(1e300);
        tiny.add(1e-300);
        assert!(big.spill.is_none() && tiny.spill.is_none());
        big.merge(&tiny);
        assert!(big.spill.is_some() && usize::from(big.base) == usize::from(SPILLED));
        big.add(-1e300);
        assert_eq!(big.to_f64(), 1e-300);
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
