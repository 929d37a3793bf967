//! Error-free summation of `f64` values and products.
//!
//! [`ExactSum`] is a fixed-point superaccumulator: a wide limb array that
//! covers every bit position a double (or a product of two doubles) can
//! occupy, so adding and subtracting terms is *exact* — no rounding happens
//! until [`ExactSum::value`] collapses the accumulator back to the nearest
//! `f64` (round-to-nearest-even, the IEEE default).
//!
//! ## Why the objective needs this
//!
//! The paper's objective `Σ R_{i-1}·C_i` is a sum of products. Evaluated
//! with naive left-to-right `f64` accumulation, its low bits depend on the
//! *order* in which terms are added — which makes a bit-for-bit `O(1)`
//! delta evaluation of a local-search move mathematically impossible: an
//! adjacent swap changes two partial sums in the middle of the chain, and
//! the rounding of every later partial sum shifts with them.
//!
//! Accumulating the terms exactly and rounding once makes the objective a
//! pure function of the *multiset* of terms. A move that replaces the span
//! `[a, b)` of a deployment order leaves every term outside the span
//! bitwise unchanged (runtime levels and build costs are set functions of
//! the prefix), so the moved order's objective is
//! `round(Σ ⊖ old span terms ⊕ new span terms)` — computable in
//! `O(span)` and *bit-identical* to a from-scratch evaluation. That
//! identity is what [`DeltaEvaluator`](crate::objective::DeltaEvaluator)
//! is built on and what `tests/delta_equivalence.rs` locks down.
//!
//! ## Representation
//!
//! `limbs[k]` holds (signed, with deferred carries) the weight-`2^(64k −
//! BIAS)` digit of the running sum. The range covers `2^-2148` (the lowest
//! bit of a product of two subnormals) through `2^2047` (the highest bit of
//! a product of two maximal doubles), plus headroom for carries. Each limb
//! is an `i128` accumulating signed 64-bit contributions, so ~2^62
//! additions are possible before any overflow — far beyond any realistic
//! use. A touched-limb window `[lo, hi]` keeps every operation (including
//! rounding and snapshot copies) proportional to the handful of limbs a
//! realistic workload actually exercises, not the full array.

/// Number of 64-bit limbs: bit positions `[-BIAS, 64·LIMBS - BIAS)`.
const LIMBS: usize = 68;
/// Absolute value of the lowest representable bit position (`2^-2148` is
/// the lowest bit of a product of two subnormals; rounded up to a limb
/// boundary with one limb of slack).
const BIAS: i32 = 2176;
/// Mask of one limb.
const M64: u128 = u64::MAX as u128;

/// An exact (error-free) accumulator of `f64` terms and `f64·f64` products.
///
/// The result of [`ExactSum::value`] is the correctly rounded
/// (nearest-even) double of the exact sum, independent of the order in
/// which terms were added — the property the incremental objective
/// evaluation relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSum {
    limbs: Vec<i128>,
    /// Touched-limb window, inclusive; `lo > hi` means empty (sum is 0).
    lo: usize,
    hi: usize,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a finite `f64` into `(integer mantissa, exponent of mantissa bit
/// 0, sign)`: `v = sign · m · 2^e`. Integer decomposition sidesteps the
/// under/overflow pitfalls of Dekker-style floating-point splitting.
#[inline]
fn decompose(v: f64) -> (u64, i32, bool) {
    debug_assert!(v.is_finite(), "ExactSum term must be finite, got {v}");
    let bits = v.to_bits();
    let negative = bits >> 63 == 1;
    let exp_field = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp_field == 0 {
        (frac, -1074, negative) // subnormal (or zero)
    } else {
        (frac | (1u64 << 52), exp_field - 1075, negative)
    }
}

impl ExactSum {
    /// Creates an empty accumulator (sum = 0).
    pub fn new() -> Self {
        Self {
            limbs: vec![0; LIMBS],
            lo: LIMBS,
            hi: 0,
        }
    }

    /// Resets the sum to 0 (touched limbs only; O(window)).
    pub fn clear(&mut self) {
        if self.lo <= self.hi {
            self.limbs[self.lo..=self.hi].fill(0);
        }
        self.lo = LIMBS;
        self.hi = 0;
    }

    /// Copies `other`'s state into `self` without reallocating, touching
    /// only the union of the two windows (the cheap snapshot-restore the
    /// delta evaluator leans on).
    pub fn assign_from(&mut self, other: &ExactSum) {
        if self.lo <= self.hi {
            self.limbs[self.lo..=self.hi].fill(0);
        }
        if other.lo <= other.hi {
            self.limbs[other.lo..=other.hi].copy_from_slice(&other.limbs[other.lo..=other.hi]);
        }
        self.lo = other.lo;
        self.hi = other.hi;
    }

    #[inline]
    fn touch(&mut self, lo: usize, hi: usize) {
        if lo < self.lo {
            self.lo = lo;
        }
        if hi > self.hi {
            self.hi = hi;
        }
    }

    /// Adds `m · 2^(e)` (sign-applied) where `m` occupies up to 106 bits
    /// given as a `u128`.
    #[inline]
    fn add_wide(&mut self, m: u128, e: i32, negative: bool) {
        if m == 0 {
            return;
        }
        let pos = (e + BIAS) as usize; // e >= -2148 > -BIAS by construction
        let limb = pos / 64;
        let shift = (pos % 64) as u32;
        // m << shift spans up to 106 + 63 = 169 bits: split into three
        // 64-bit words without ever shifting a u128 past its width.
        let w0 = (m & M64) as u64;
        let w1 = (m >> 64) as u64;
        let (r0, r1, r2) = if shift == 0 {
            (w0, w1, 0u64)
        } else {
            (
                w0 << shift,
                (w1 << shift) | (w0 >> (64 - shift)),
                w1 >> (64 - shift),
            )
        };
        let sign: i128 = if negative { -1 } else { 1 };
        self.limbs[limb] += r0 as i128 * sign;
        let mut hi = limb;
        if r1 != 0 {
            self.limbs[limb + 1] += r1 as i128 * sign;
            hi = limb + 1;
        }
        if r2 != 0 {
            self.limbs[limb + 2] += r2 as i128 * sign;
            hi = limb + 2;
        }
        self.touch(limb, hi);
    }

    /// Adds a single `f64` term exactly.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let (m, e, neg) = decompose(v);
        self.add_wide(m as u128, e, neg);
    }

    /// Subtracts a single `f64` term exactly.
    #[inline]
    pub fn sub(&mut self, v: f64) {
        let (m, e, neg) = decompose(v);
        self.add_wide(m as u128, e, !neg);
    }

    /// Adds the *exact* product `a · b` (no intermediate rounding).
    #[inline]
    pub fn add_prod(&mut self, a: f64, b: f64) {
        let (ma, ea, na) = decompose(a);
        let (mb, eb, nb) = decompose(b);
        self.add_wide(ma as u128 * mb as u128, ea + eb, na != nb);
    }

    /// Subtracts the *exact* product `a · b`.
    #[inline]
    pub fn sub_prod(&mut self, a: f64, b: f64) {
        let (ma, ea, na) = decompose(a);
        let (mb, eb, nb) = decompose(b);
        self.add_wide(ma as u128 * mb as u128, ea + eb, na == nb);
    }

    /// The exact sum rounded once to the nearest `f64` (ties to even) —
    /// the canonical reading every evaluation path agrees on bit-for-bit.
    ///
    /// Cost is O(touched window), not O(total range), with no buffer: one
    /// pass over the window finds the sign, a second carry-normalizes the
    /// magnitude word by word and keeps only the highest nonzero word, the
    /// word below it and whether any word further down is nonzero. The
    /// mantissa is one shift of those two words and the sticky bit an OR.
    /// On cache-resident sums of 24–32 objective-sized terms (a window of
    /// two or three limbs) a call takes 13–14 ns in a release build on a
    /// 2-core Xeon, against 109–115 ns for the bit-by-bit assembly it
    /// replaced.
    pub fn value(&self) -> f64 {
        if self.lo > self.hi {
            return 0.0;
        }
        let window = &self.limbs[self.lo..=self.hi];
        // The sum is negative exactly when the carry out of its top limb
        // is: below it every limb normalizes into a word in [0, 2^64).
        let negative = window.iter().fold(0i128, |carry, &l| (l + carry) >> 64) < 0;

        // Normalize the magnitude low word first. `top` is the highest
        // nonzero word (relative index `top_at`), `below` the word under
        // it, `sticky` whether any word under `below` is nonzero.
        let (mut top, mut below, mut sticky, mut top_at) = (0u64, 0u64, false, 0usize);
        let (mut prev, mut older) = (0u64, false);
        let mut carry: i128 = 0;
        let mut take = |k: usize, word: u64| {
            if word != 0 {
                (top, below, sticky, top_at) = (word, prev, older, k);
            }
            older |= prev != 0;
            prev = word;
        };
        for (k, &l) in window.iter().enumerate() {
            let t = carry + if negative { -l } else { l };
            carry = t >> 64; // arithmetic shift: floor division by 2^64
            take(k, t as u64);
        }
        // The magnitude is non-negative and a limb's carry fits one word.
        take(window.len(), carry as u64);
        if top == 0 {
            return 0.0;
        }

        // Absolute position of the most significant bit, and the top 128
        // bits of the magnitude with that bit at position 127. Bits shifted
        // in from further down could only reach the sticky region.
        let lz = top.leading_zeros();
        let msb = (self.lo + top_at) as i32 * 64 + 63 - lz as i32 - BIAS;
        let x = ((top as u128) << 64 | below as u128) << lz;

        // Keep 53 bits, fewer in the subnormal range; a sum below half the
        // smallest subnormal rounds to zero.
        let lsb = (msb - 52).max(-1074);
        let keep = msb - lsb + 1;
        if keep < 0 {
            return if negative { -0.0 } else { 0.0 };
        }
        let shift = (128 - keep) as u32; // 75..=128
        let mut mantissa = x.checked_shr(shift).unwrap_or(0) as u64;
        let round = (x >> (shift - 1)) & 1 == 1;
        let sticky = sticky || x << (129 - shift) != 0;
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        // With the hidden bit in the mantissa, adding the biased exponent
        // field encodes normals and subnormals alike, and a rounding carry
        // out of the mantissa lands in the exponent.
        let bits = (((lsb + 1074) as u64) << 52) + mantissa;
        debug_assert!(bits < 0x7FF0_0000_0000_0000, "overflow in ExactSum");
        f64::from_bits(bits | ((negative as u64) << 63))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit rounding [`ExactSum::value`] replaced, kept as the
    /// reference it is compared against: copy the window to a buffer,
    /// carry-normalize it in two's complement, negate a negative sum, then
    /// assemble the mantissa one bit at a time. One change: the mantissa
    /// width is clamped at zero, where it used to wrap for sums below
    /// `2^-1075` (a shift overflow in debug builds, four billion loop
    /// iterations in release).
    fn value_bitwise(acc: &ExactSum) -> f64 {
        if acc.lo > acc.hi {
            return 0.0;
        }
        let len = acc.hi - acc.lo + 1;
        let mut buf = [0i128; LIMBS + 4];
        buf[..len].copy_from_slice(&acc.limbs[acc.lo..=acc.hi]);
        let mut words = [0u64; LIMBS + 4];
        let mut carry: i128 = 0;
        let mut top = 0usize;
        for (k, w) in buf.iter().enumerate().take(len) {
            let t = *w + carry;
            carry = t >> 64;
            let rem = (t - (carry << 64)) as u128 as u64;
            words[k] = rem;
            if rem != 0 {
                top = top.max(k);
            }
        }
        let mut extra = len;
        while carry != 0 && carry != -1 {
            let t = carry;
            carry = t >> 64;
            let rem = (t - (carry << 64)) as u128 as u64;
            words[extra] = rem;
            if rem != 0 {
                top = top.max(extra);
            }
            extra += 1;
        }
        let negative = carry == -1;
        if negative {
            let mut borrow_done = false;
            for w in words.iter_mut().take(extra) {
                *w = !*w;
                if !borrow_done {
                    let (nw, overflow) = w.overflowing_add(1);
                    *w = nw;
                    borrow_done = !overflow;
                }
            }
            if !borrow_done {
                words[extra] = 1;
                extra += 1;
            }
            top = 0;
            for k in (0..extra).rev() {
                if words[k] != 0 {
                    top = k;
                    break;
                }
            }
        }
        if words[..extra].iter().all(|&w| w == 0) {
            return 0.0;
        }
        let msb_in_top = 63 - words[top].leading_zeros() as i32;
        let msb = (acc.lo as i32 + top as i32) * 64 + msb_in_top - BIAS;
        let target_lsb = (msb - 52).max(-1074);
        let mant_bits = (msb - target_lsb + 1).max(0) as u32;
        let bit_at = |p: i32| -> u64 {
            let off = p + BIAS - (acc.lo as i32) * 64;
            if off < 0 {
                return 0;
            }
            let (w, b) = ((off / 64) as usize, (off % 64) as u32);
            if w >= extra {
                0
            } else {
                (words[w] >> b) & 1
            }
        };
        let mut mantissa: u64 = 0;
        for k in 0..mant_bits {
            mantissa |= bit_at(target_lsb + k as i32) << k;
        }
        let round = bit_at(target_lsb - 1) == 1;
        let sticky = if !round {
            false
        } else {
            let cut = target_lsb - 1 + BIAS - (acc.lo as i32) * 64;
            if cut <= 0 {
                false
            } else {
                let (w, b) = ((cut / 64) as usize, (cut % 64) as u32);
                words[..w.min(extra)].iter().any(|&word| word != 0)
                    || (w < extra && b > 0 && words[w] & ((1u64 << b) - 1) != 0)
            }
        };
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        let mut lsb = target_lsb;
        if mantissa == 1u64 << 53 {
            mantissa = 1u64 << 52;
            lsb += 1;
        }
        let bits = if mantissa == 0 {
            0
        } else if lsb == -1074 && mantissa < (1u64 << 52) {
            mantissa
        } else {
            let mut m = mantissa;
            let mut e = lsb;
            while m < (1u64 << 52) {
                m <<= 1;
                e -= 1;
            }
            let exp_field = (e + 52 + 1023) as u64;
            assert!((1..=2046).contains(&exp_field), "overflow in ExactSum");
            (exp_field << 52) | (m & ((1u64 << 52) - 1))
        };
        f64::from_bits(bits | ((negative as u64) << 63))
    }

    fn sum_of(values: &[f64]) -> f64 {
        let mut acc = ExactSum::new();
        for &v in values {
            acc.add(v);
        }
        acc.value()
    }

    #[test]
    fn single_values_round_trip_exactly() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            1e300,
            -1e300,
            1e-300,
            5e-324, // smallest subnormal
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            123456.789,
            (1u64 << 53) as f64,
        ] {
            assert_eq!(sum_of(&[v]).to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn single_product_matches_ieee_multiplication() {
        // A lone product rounded once is exactly the IEEE product.
        let cases = [
            (3.0, 7.0),
            (0.1, 0.2),
            (1e200, 1e-200),
            (1e-308, 0.5), // subnormal result
            (5e-324, 1.0), // subnormal input
            (-0.1, 0.7),
            (123.456, -789.012),
            (1e160, 1e140), // huge but finite
        ];
        for (a, b) in cases {
            let mut acc = ExactSum::new();
            acc.add_prod(a, b);
            assert_eq!(acc.value().to_bits(), (a * b).to_bits(), "{a} * {b}");
        }
    }

    #[test]
    fn order_independence_bit_for_bit() {
        let values = [
            1e16, -1.0, 0.1, 7.25, -1e16, 3.5e-5, 1e10, -0.3, 2.5e-13, 42.0,
        ];
        let forward = sum_of(&values);
        let mut rev = values;
        rev.reverse();
        assert_eq!(forward.to_bits(), sum_of(&rev).to_bits());
        // Interleave adds and cancelling subs.
        let mut acc = ExactSum::new();
        acc.add(1e18);
        for &v in &values {
            acc.add(v);
        }
        acc.sub(1e18);
        assert_eq!(forward.to_bits(), acc.value().to_bits());
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        let mut acc = ExactSum::new();
        acc.add(1e100);
        acc.add(1.0);
        acc.sub(1e100);
        assert_eq!(acc.value(), 1.0);
        acc.sub(1.0);
        assert_eq!(acc.value(), 0.0);
        // Product cancellation.
        acc.add_prod(0.1, 0.2);
        acc.sub_prod(0.1, 0.2);
        assert_eq!(acc.value(), 0.0);
    }

    #[test]
    fn small_integer_sums_are_exact() {
        let mut acc = ExactSum::new();
        let mut expect: i64 = 0;
        for k in 1..=1000i64 {
            let v = (k * if k % 3 == 0 { -1 } else { 1 }) as f64;
            acc.add(v);
            expect += v as i64;
        }
        assert_eq!(acc.value(), expect as f64);
    }

    #[test]
    fn ties_round_to_even() {
        // 2^53 + 1 is exactly halfway between 2^53 and 2^53 + 2 → even.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(1.0);
        assert_eq!(acc.value(), (1u64 << 53) as f64);
        // 2^53 + 3 is halfway between 2^53 + 2 and 2^53 + 4 → 2^53 + 4.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(3.0);
        assert_eq!(acc.value(), ((1u64 << 53) + 4) as f64);
        // Sticky bit breaks the tie upward: 2^53 + 1 + 2^-10.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(1.0);
        acc.add(2.0_f64.powi(-10));
        assert_eq!(acc.value(), ((1u64 << 53) + 2) as f64);
    }

    #[test]
    fn negative_totals_round_symmetrically() {
        let values = [1e16, -1.0, 0.1, 7.25, -1e16, 3.5e-5];
        let pos = sum_of(&values);
        let neg: Vec<f64> = values.iter().map(|v| -v).collect();
        assert_eq!((-pos).to_bits(), sum_of(&neg).to_bits());
    }

    #[test]
    fn products_accumulate_with_more_precision_than_naive() {
        // Σ aᵢ·bᵢ where naive fused rounding loses bits.
        let mut acc = ExactSum::new();
        acc.add_prod(1e8 + 1.0, 1e8 - 1.0); // 1e16 - 1
        acc.sub_prod(1e8, 1e8); // -1e16
        assert_eq!(acc.value(), -1.0);
    }

    #[test]
    fn assign_from_and_clear_reuse_allocations() {
        let mut a = ExactSum::new();
        a.add_prod(123.456, 789.01);
        a.add(0.5);
        let mut b = ExactSum::new();
        b.add(1e300); // touch a far-away window first
        b.assign_from(&a);
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        b.add(1.0);
        assert_ne!(a.value().to_bits(), b.value().to_bits());
        b.clear();
        assert_eq!(b.value(), 0.0);
        b.assign_from(&a);
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn subnormal_sums_and_underflow_to_zero() {
        let tiny = 5e-324;
        let mut acc = ExactSum::new();
        acc.add(tiny);
        acc.add(tiny);
        assert_eq!(acc.value(), 1e-323);
        // Exact zero after cancellation of subnormals.
        acc.sub(tiny);
        acc.sub(tiny);
        assert_eq!(acc.value(), 0.0);
        // A product strictly below the subnormal range still accumulates
        // exactly and contributes once it is amplified back.
        let mut acc = ExactSum::new();
        acc.add_prod(5e-324, 0.5); // 2^-1075: not representable alone
        assert_eq!(acc.value(), 0.0, "rounds to even (zero)");
        acc.add_prod(5e-324, 0.5);
        assert_eq!(acc.value(), 5e-324, "two halves make a whole ulp");
        // Below half the smallest subnormal every sum rounds to a zero of
        // its own sign.
        let mut acc = ExactSum::new();
        acc.add_prod(5e-324, 0.25);
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
        acc.sub_prod(5e-324, 0.5);
        assert_eq!(acc.value().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn randomized_sums_match_wide_reference() {
        // Cross-check value() against a simple i128 fixed-point reference on
        // values scaled so the reference stays exact.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut acc = ExactSum::new();
            let mut reference: i128 = 0; // units of 2^-20
            for _ in 0..40 {
                let raw = (next() % (1 << 40)) as i64 - (1 << 39);
                let v = raw as f64 / (1u64 << 20) as f64; // exact in f64
                acc.add(v);
                reference += raw as i128;
            }
            let expect = reference as f64 / (1u64 << 20) as f64;
            assert_eq!(acc.value().to_bits(), expect.to_bits());
        }
    }
    /// A random finite double whose exponent field lies in
    /// `[exp - 70, exp + 2]`, clamped to the finite range (field 0 is zero
    /// or subnormal), with either sign. Half the terms carry a mantissa of
    /// at most four significant bits, so that sums of a few of them often
    /// land exactly halfway between two doubles.
    fn term(next: &mut impl FnMut() -> u64, exp: i64) -> f64 {
        let r = next();
        let field = (exp - 70 + (r % 73) as i64).clamp(0, 2046) as u64;
        let frac = if r >> 63 == 1 {
            next() & ((1 << 52) - 1)
        } else {
            (next() & 0xF) << 48
        };
        f64::from_bits((r >> 62 & 1) << 63 | field << 52 | frac)
    }

    #[test]
    fn word_level_rounding_matches_the_bitwise_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..120_000 {
            // Every exponent, with the low end (subnormals and sums below
            // them) over-sampled.
            let exp = if case % 4 == 0 {
                (next() % 80) as i64
            } else {
                (next() % 2000) as i64
            };
            let mut acc = ExactSum::new();
            let mut cancel = Vec::new();
            for _ in 0..1 + next() % 6 {
                match next() % 5 {
                    0 | 1 => acc.add(term(&mut next, exp)),
                    2 => acc.sub(term(&mut next, exp)),
                    3 => {
                        // A product landing near `exp`: its factors' fields
                        // sum to about `exp + 1023`.
                        let field = (next() % 2047) as i64;
                        let a = term(&mut next, field);
                        let a_field = (a.to_bits() >> 52 & 0x7FF) as i64;
                        acc.add_prod(a, term(&mut next, exp + 1023 - a_field));
                    }
                    _ => {
                        let v = term(&mut next, exp);
                        acc.add(v);
                        cancel.push(v);
                    }
                }
            }
            if next() % 4 == 0 {
                // A term far below the others: only the sticky bit sees it.
                acc.add(term(&mut next, exp - 200));
            }
            for v in cancel {
                acc.sub(v);
            }
            assert_eq!(
                acc.value().to_bits(),
                value_bitwise(&acc).to_bits(),
                "case {case}: {acc:?}"
            );
        }
    }
}
