//! `ExactSum` against a plain copy of the full-width superaccumulator it
//! replaced: every limb of the fixed-point value in one 68-limb array,
//! normalized across all of them by every merge and every rounding. The
//! windowed accumulator keeps a few limbs inline at a movable base and
//! spills to that array only when a term or a merge falls outside them; its
//! results must be the same bits on every input — wide exponents,
//! cancellation to zero, negative totals, merges of partials whose windows
//! do not overlap, and sums that spill.

use conquer_engine::fsum::ExactSum;

/// The full-width accumulator, test-only: what `ExactSum` computed before
/// it held a window.
mod full {
    const LIMBS: usize = 68;
    const BIAS: u32 = 1074;

    #[derive(Clone)]
    pub struct FullSum {
        limbs: [i64; LIMBS],
        pos_inf: bool,
        neg_inf: bool,
        nan: bool,
    }

    impl FullSum {
        pub fn new() -> FullSum {
            FullSum {
                limbs: [0; LIMBS],
                pos_inf: false,
                neg_inf: false,
                nan: false,
            }
        }

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
            let exp_bits = ((bits >> 52) & 0x7ff) as u32;
            let frac = bits & ((1u64 << 52) - 1);
            let (m, off) = if exp_bits == 0 {
                (frac, 0)
            } else {
                (frac | (1u64 << 52), exp_bits - 1)
            };
            self.deposit(m, off, bits >> 63 != 0);
        }

        pub fn add_i64(&mut self, v: i64) {
            if v != 0 {
                self.deposit(v.unsigned_abs(), BIAS, v < 0);
            }
        }

        fn deposit(&mut self, m: u64, off: u32, negative: bool) {
            let limb = (off / 32) as usize;
            let t = (m as u128) << (off % 32);
            for i in 0..3 {
                let c = ((t >> (32 * i)) & 0xffff_ffff) as i64;
                self.limbs[limb + i] += if negative { -c } else { c };
            }
        }

        fn normalize(&mut self) {
            let mut carry: i64 = 0;
            for limb in self.limbs.iter_mut() {
                let v = *limb + carry;
                carry = v >> 32;
                *limb = v - (carry << 32);
            }
            self.limbs[LIMBS - 1] += carry << 32;
        }

        pub fn merge(&mut self, other: &FullSum) {
            self.nan |= other.nan;
            self.pos_inf |= other.pos_inf;
            self.neg_inf |= other.neg_inf;
            self.normalize();
            let mut rhs = other.clone();
            rhs.normalize();
            for (a, b) in self.limbs.iter_mut().zip(rhs.limbs.iter()) {
                *a += *b;
            }
        }

        pub fn rounded(&mut self) -> f64 {
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
            round(&mag, negative)
        }
    }

    fn round(mag: &[i64; LIMBS], negative: bool) -> f64 {
        let Some(top) = (0..LIMBS).rev().find(|&i| mag[i] != 0) else {
            return 0.0;
        };
        let hb = top as u32 * 32 + (63 - (mag[top] as u64).leading_zeros());
        let sign_bit = if negative { 1u64 << 63 } else { 0 };
        let bit = |idx: u32| (mag[(idx / 32) as usize] >> (idx % 32)) & 1 != 0;
        if hb <= 51 {
            let m = (mag[0] as u64) | ((mag[1] as u64) << 32);
            return f64::from_bits(sign_bit | m);
        }
        let shift = hb - 52;
        let mut m = (shift..shift + 53)
            .rev()
            .fold(0u64, |m, i| (m << 1) | u64::from(bit(i)));
        let mut exp_shift = shift;
        if shift > 0 && bit(shift - 1) {
            let sticky = (0..shift - 1).any(bit);
            if sticky || m & 1 == 1 {
                m += 1;
                if m == 1u64 << 53 {
                    m >>= 1;
                    exp_shift += 1;
                }
            }
        }
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
}

use full::FullSum;

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

    /// A finite double, exponent uniform in `[lo, hi]` (unbiased), either
    /// sign; `lo = -1023` draws subnormals.
    fn float(&mut self, lo: i64, hi: i64) -> f64 {
        let frac = self.next() & ((1u64 << 52) - 1);
        let exp = (lo + (self.next() % (hi - lo + 1) as u64) as i64 + 1023) as u64;
        let sign = (self.next() & 1) << 63;
        f64::from_bits(sign | (exp << 52) | frac)
    }
}

/// One term: a float, or an integer (SUM over an integer column promoted
/// by a float, AVG over integers).
#[derive(Clone, Copy, Debug)]
enum Term {
    F(f64),
    I(i64),
}

fn windowed(terms: &[Term]) -> ExactSum {
    let mut s = ExactSum::new();
    for t in terms {
        match *t {
            Term::F(x) => s.add(x),
            Term::I(v) => s.add_i64(v),
        }
    }
    s
}

fn full(terms: &[Term]) -> FullSum {
    let mut s = FullSum::new();
    for t in terms {
        match *t {
            Term::F(x) => s.add(x),
            Term::I(v) => s.add_i64(v),
        }
    }
    s
}

/// Both accumulators over `terms`, split into `parts` partials merged in
/// order: the same bits.
fn check(terms: &[Term], parts: usize, what: &str) -> ExactSum {
    let chunk = terms.len().div_ceil(parts.max(1)).max(1);
    let (mut w, mut f) = (ExactSum::new(), FullSum::new());
    for part in terms.chunks(chunk) {
        w.merge(&windowed(part));
        f.merge(&full(part));
    }
    let (got, want) = (w.to_f64(), f.rounded());
    assert!(
        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
        "{what}: {got:e} vs {want:e} over {terms:?}"
    );
    let (one, want) = (windowed(terms).to_f64(), full(terms).rounded());
    assert!(
        one.to_bits() == want.to_bits() || one.is_nan() && want.is_nan(),
        "{what}, one accumulator: {one:e} vs {want:e}"
    );
    w
}

#[test]
fn wide_exponents_match_the_full_accumulator() {
    let mut rng = Rng(0x5eed_0001);
    let ranges = [
        (-30, 60),
        (-100, 100),
        (-1023, 1023),
        (-1023, -1000),
        (990, 1023),
    ];
    for round in 0..400 {
        let (lo, hi) = ranges[round % ranges.len()];
        let n = 1 + (rng.next() % 40) as usize;
        let terms: Vec<Term> = (0..n)
            .map(|_| match rng.next() % 8 {
                0 => Term::I(rng.next() as i64 >> (rng.next() % 64)),
                _ => Term::F(rng.float(lo, hi)),
            })
            .collect();
        check(&terms, 1 + round % 5, &format!("round {round}"));
    }
}

#[test]
fn cancellation_to_zero_gives_positive_zero() {
    let mut rng = Rng(7);
    for round in 0..200 {
        let xs: Vec<f64> = (0..1 + round % 9).map(|_| rng.float(-200, 200)).collect();
        let mut terms: Vec<Term> = xs.iter().map(|&x| Term::F(x)).collect();
        terms.extend(xs.iter().rev().map(|&x| Term::F(-x)));
        let s = check(&terms, 1 + round % 3, "x - x");
        assert_eq!(s.to_f64().to_bits(), 0.0f64.to_bits());
    }
    // -0.0 terms and an empty sum: +0.0.
    let s = check(&[Term::F(-0.0), Term::F(-0.0)], 2, "-0 + -0");
    assert_eq!(s.to_f64().to_bits(), 0.0f64.to_bits());
    assert_eq!(ExactSum::new().to_f64().to_bits(), 0.0f64.to_bits());
}

#[test]
fn negative_totals_match() {
    let mut rng = Rng(11);
    for round in 0..300 {
        let n = 1 + (rng.next() % 30) as usize;
        let terms: Vec<Term> = (0..n)
            .map(|i| {
                // Mostly negative, with small positive terms below them.
                Term::F(match i % 4 {
                    3 => rng.float(-60, -20).abs(),
                    _ => -rng.float(0, 60).abs(),
                })
            })
            .collect();
        let s = check(&terms, 1 + round % 4, "negative total");
        assert!(s.to_f64() < 0.0, "{terms:?}");
    }
    // A negative total whose terms then move the window down, after its
    // sign has spread to the window's top limb.
    let terms = [Term::F(-1e5), Term::F(1e-3), Term::F(1e-12), Term::F(3e-20)];
    check(&terms, 1, "negative, then smaller terms");
    check(&terms, 4, "negative, then smaller partials");
}

#[test]
fn partials_with_disjoint_windows_merge_exactly() {
    let mut rng = Rng(13);
    for round in 0..200 {
        // Three partials, each of terms of one magnitude band, far apart.
        let bands = [(-300, -250), (-5, 5), (250, 300)];
        let mut terms = Vec::new();
        for &(lo, hi) in &bands {
            terms.extend((0..1 + round % 6).map(|_| Term::F(rng.float(lo, hi))));
        }
        // Bands 2^250 apart cannot share a window: the merge spills.
        check(&terms, 3, "disjoint windows");
    }
}

#[test]
fn one_band_and_spilled_sums_match() {
    // Prices of one band, many of them, stay in the window; integers too.
    let mut rng = Rng(17);
    let terms: Vec<Term> = (0..10_000)
        .map(|_| Term::F((rng.next() % 10_000_000) as f64 / 100.0))
        .collect();
    check(&terms, 7, "one band");
    let ints: Vec<Term> = (0..1000)
        .map(|i| Term::I(i * 1_000_003 - 400_000_000))
        .collect();
    check(&ints, 3, "integers");
    // Terms 2^600 apart do not fit the window: the sum spills, and stays
    // exact through further adds and merges.
    let mut terms = vec![Term::F(1e300), Term::F(1e-300), Term::F(-1e300)];
    assert_eq!(check(&terms, 1, "spill").to_f64(), 1e-300);
    terms.extend((0..50).map(|_| Term::F(rng.float(-1023, 1023))));
    check(&terms, 5, "spilled partials");
}

#[test]
fn sums_that_outgrow_the_window_match() {
    // 20 000 terms near the window's top carry out of it; a term far below
    // then makes the accumulator normalize, move the window up a limb (or,
    // at the highest base, spill) and place the carry above it.
    for (big, small) in [(1.5 * 2f64.powi(97), 2f64.powi(-40)), (f64::MAX, 1.0)] {
        let mut terms = vec![Term::F(big); 20_000];
        terms.push(Term::F(small));
        terms.push(Term::F(-big));
        check(&terms, 1, "outgrown window");
        check(&terms, 3, "outgrown partials");
    }
}

#[test]
fn special_values_and_extremes_match() {
    let cases: Vec<Vec<Term>> = vec![
        vec![Term::F(f64::MAX), Term::F(f64::MAX)],
        vec![Term::F(-f64::MAX), Term::F(-f64::MAX), Term::F(f64::MAX)],
        vec![Term::F(f64::from_bits(1)); 5],
        vec![Term::F(f64::INFINITY), Term::F(1.0)],
        vec![Term::F(f64::INFINITY), Term::F(f64::NEG_INFINITY)],
        vec![Term::F(f64::NAN), Term::F(2.0)],
        vec![Term::I(i64::MIN), Term::F(0.5)],
        vec![Term::I(i64::MAX), Term::I(i64::MAX), Term::I(i64::MIN)],
        vec![Term::F(9007199254740992.0), Term::F(1.0)],
        vec![Term::F(9007199254740992.0), Term::F(3.0)],
    ];
    for (i, terms) in cases.iter().enumerate() {
        for parts in 1..=terms.len() {
            check(terms, parts, &format!("case {i}"));
        }
    }
}
