use crate::{IrError, Result};

/// The power-of-2 quantization alphabet `Ω_P = {0} ∪ {±2^p | p ∈ P}` of
/// Eq. (2) in the paper, with `P` a contiguous integer range
/// `{max_exp - count + 1, …, max_exp}`.
///
/// A contiguous range is the hardware-natural choice: the exponent maps
/// directly to a shift amount in the rebuild engine's shift-and-add unit.
/// `|P| = count ≤ Np` controls the bit width of a non-zero code:
/// `code_bits = ceil(log2(2·count + 1))` (sign × count magnitudes + zero).
///
/// The paper's default configuration stores coefficients in 4 bits, which
/// accommodates `count = 7` exponents (e.g. `2^0 … 2^-6`) — exactly the
/// values visible in Fig. 1.
///
/// # Examples
///
/// ```
/// use se_ir::Po2Set;
///
/// let set = Po2Set::default(); // 4-bit: {0, ±2^0, ±2^-1, …, ±2^-6}
/// assert_eq!(set.code_bits(), 4);
/// assert_eq!(set.quantize(0.3), 0.25);     // nearest power of two
/// assert_eq!(set.quantize(-0.3), -0.25);
/// assert_eq!(set.quantize(0.0001), 0.0);   // underflows to zero
/// assert_eq!(set.quantize(7.0), 1.0);      // clamps to the largest value
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Po2Set {
    max_exp: i32,
    count: u32,
}

impl Po2Set {
    /// Creates a set with exponents `{max_exp - count + 1, …, max_exp}`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] if `count == 0` or the exponent range
    /// leaves `f32` range.
    pub fn new(max_exp: i32, count: u32) -> Result<Self> {
        if count == 0 {
            return Err(IrError::InvalidPo2 { reason: "exponent set must be non-empty".into() });
        }
        // Widened so a hostile `count` (e.g. from a corrupt artifact) is an
        // error, not an overflow.
        let min_exp = i64::from(max_exp) - i64::from(count) + 1;
        if !(-120..=120).contains(&max_exp) || !(-120..=120).contains(&min_exp) {
            return Err(IrError::InvalidPo2 {
                reason: format!("exponent range [{min_exp}, {max_exp}] outside f32 range"),
            });
        }
        Ok(Po2Set { max_exp, count })
    }

    /// Creates the largest set representable in `bits` bits with the given
    /// maximum exponent: `count = 2^(bits-1) - 1` exponents.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] for `bits < 2` or an out-of-range
    /// exponent span.
    pub fn with_bits(max_exp: i32, bits: u32) -> Result<Self> {
        if bits < 2 {
            return Err(IrError::InvalidPo2 {
                reason: format!("{bits}-bit codes cannot hold sign + exponent"),
            });
        }
        Po2Set::new(max_exp, (1u32 << (bits - 1)) - 1)
    }

    /// Largest exponent in `P`.
    pub fn max_exp(&self) -> i32 {
        self.max_exp
    }

    /// Smallest exponent in `P`.
    pub fn min_exp(&self) -> i32 {
        self.max_exp - self.count as i32 + 1
    }

    /// Number of exponents `|P|`.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Number of distinct codes, `2·count + 1` (zero + sign × magnitudes):
    /// every valid code is below it.
    pub fn code_count(&self) -> u32 {
        2 * self.count + 1
    }

    /// Bits needed for one coefficient code (zero + sign × magnitudes).
    pub fn code_bits(&self) -> u32 {
        u32::BITS - (self.code_count() - 1).leading_zeros()
    }

    /// Rounds `x` to the nearest element of `Ω_P`.
    ///
    /// Rounding happens in the log domain (nearest exponent), the standard
    /// choice for power-of-2 quantizers: magnitudes below the halfway point
    /// under `2^min_exp` become zero, magnitudes above `2^max_exp` clamp.
    ///
    /// The nearest exponent is `round(log2 |x|)`, read off the float's bits:
    /// it is the binade's exponent, plus one when the mantissa reaches that
    /// binade's threshold in a table built once from that same formula.
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        let bits = x.to_bits();
        let biased = ((bits >> MANTISSA_BITS) & 0xff) as usize;
        let rounds_up = bits & MANTISSA_MASK >= round_up_thresholds()[biased];
        let p = biased as i32 - EXP_BIAS + i32::from(rounds_up);
        // Below the smallest exponent, a magnitude within half an octave
        // of 2^min_exp still rounds up to it (the log-domain midpoint
        // between 0, i.e. −∞, and min_exp is −∞, so nothing else
        // survives). Zeros and subnormals land here and become zero.
        let min_val = signed_pow2(0, self.min_exp());
        let survives = p >= self.min_exp() || x.abs() >= min_val / std::f32::consts::SQRT_2;
        if x.is_finite() && survives {
            signed_pow2(bits & SIGN_BIT, p.clamp(self.min_exp(), self.max_exp))
        } else {
            0.0
        }
    }

    /// Whether `x` is exactly representable in this set.
    pub fn contains(&self, x: f32) -> bool {
        self.code_of(x).is_some()
    }

    /// Encodes a representable value as a compact code
    /// (`0` = zero; otherwise `1 + 2·exp_index + sign_bit`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] if `x` is not in the set.
    pub fn encode(&self, x: f32) -> Result<u16> {
        self.code_of(x).ok_or_else(|| IrError::InvalidPo2 { reason: format!("{x} is not in Ω_P") })
    }

    /// The code of `x`, read off its bits: either zero, or a zero mantissa
    /// under a (normal) exponent inside `[min_exp, max_exp]`.
    #[inline]
    fn code_of(&self, x: f32) -> Option<u16> {
        if x == 0.0 {
            return Some(0);
        }
        let bits = x.to_bits();
        let p = ((bits >> MANTISSA_BITS) & 0xff) as i32 - EXP_BIAS;
        if bits & MANTISSA_MASK != 0 || p < self.min_exp() || p > self.max_exp {
            return None;
        }
        let idx = (self.max_exp - p) as u16;
        Some(1 + 2 * idx + u16::from(bits & SIGN_BIT != 0))
    }

    /// Decodes a code produced by [`Po2Set::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPo2`] for out-of-range codes.
    pub fn decode(&self, code: u16) -> Result<f32> {
        if u32::from(code) >= self.code_count() {
            return Err(IrError::InvalidPo2 { reason: format!("code {code} out of range") });
        }
        Ok(self.value(code))
    }

    /// The value table: entry `c` is the value of code `c`, for every code
    /// below [`Po2Set::code_count`].
    pub fn values(&self) -> Vec<f32> {
        (0..self.code_count() as u16).map(|c| self.value(c)).collect()
    }

    /// The value of a code already known to be in range.
    #[inline]
    fn value(&self, code: u16) -> f32 {
        if code == 0 {
            return 0.0;
        }
        let (idx, negative) = ((code - 1) / 2, (code - 1) % 2 == 1);
        signed_pow2(if negative { SIGN_BIT } else { 0 }, self.max_exp - i32::from(idx))
    }

    /// The exponents of `P` in decreasing order.
    pub fn exponents(&self) -> impl Iterator<Item = i32> + '_ {
        (0..self.count as i32).map(move |i| self.max_exp - i)
    }
}

const SIGN_BIT: u32 = 0x8000_0000;
const MANTISSA_BITS: u32 = 23;
const MANTISSA_MASK: u32 = (1 << MANTISSA_BITS) - 1;
const EXP_BIAS: i32 = 127;

/// `±2^p` with the given sign bit, for `p` in the normal `f32` range (every
/// exponent of a valid [`Po2Set`] is).
#[inline]
fn signed_pow2(sign: u32, p: i32) -> f32 {
    f32::from_bits(sign | (((p + EXP_BIAS) as u32) << MANTISSA_BITS))
}

/// The nearest exponent of a positive magnitude, `round(log2(mag))`: the
/// definition the bit-level path of [`Po2Set::quantize`] reproduces.
fn nearest_exponent(mag: f32) -> i32 {
    mag.log2().round() as i32
}

/// For each biased exponent `e` (binade `[2^(e-127), 2^(e-126))`), the
/// smallest mantissa whose [`nearest_exponent`] is the binade's upper
/// exponent (`1 << 23` if none is). Found once by binary search, so the
/// table agrees with `log2().round()` wherever that is monotone in the
/// mantissa, which the tests check against the formula. Subnormals (`e =
/// 0`) span many binades, but all of them underflow every valid set, so
/// their entry only has to keep them below it: it is `1 << 23`.
#[inline]
fn round_up_thresholds() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [1 << MANTISSA_BITS; 256];
        for (e, slot) in table.iter_mut().enumerate().take(255).skip(1) {
            let upper = e as i32 - EXP_BIAS + 1;
            let (mut lo, mut hi) = (0u32, 1 << MANTISSA_BITS);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mag = f32::from_bits(((e as u32) << MANTISSA_BITS) | mid);
                if nearest_exponent(mag) >= upper {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *slot = lo;
        }
        table
    })
}

impl Default for Po2Set {
    /// The paper's 4-bit coefficient configuration:
    /// exponents `{0, −1, …, −6}` (unit-normalised columns keep magnitudes
    /// at or below 1).
    fn default() -> Self {
        Po2Set::with_bits(0, 4).expect("static configuration is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed-form quantizer [`Po2Set::quantize`] must match bit for
    /// bit: `log2`, `round` and `exp2` on every call.
    fn reference_quantize(set: &Po2Set, x: f32) -> f32 {
        if x == 0.0 || !x.is_finite() {
            return 0.0;
        }
        let sign = x.signum();
        let mag = x.abs();
        let p = mag.log2().round() as i32;
        if p > set.max_exp() {
            return sign * (set.max_exp() as f32).exp2();
        }
        if p < set.min_exp() {
            let min_val = (set.min_exp() as f32).exp2();
            if mag >= min_val / std::f32::consts::SQRT_2 {
                return sign * min_val;
            }
            return 0.0;
        }
        sign * (p as f32).exp2()
    }

    fn assert_matches_reference(set: &Po2Set, bits: u32) {
        let x = f32::from_bits(bits);
        let (got, want) = (set.quantize(x), reference_quantize(set, x));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{set:?}: quantize({x:e} = {bits:#010x}) = {got:e}, reference {want:e}"
        );
    }

    fn equivalence_sets() -> [Po2Set; 4] {
        [
            Po2Set::default(),
            Po2Set::new(2, 5).unwrap(),
            Po2Set::new(-3, 15).unwrap(),
            Po2Set::with_bits(0, 3).unwrap(),
        ]
    }

    #[test]
    fn table_quantizer_matches_reference_at_every_threshold() {
        let thresholds = round_up_thresholds();
        let mut probes: Vec<u32> = Vec::new();
        for e in 1u32..255 {
            let at = (e << MANTISSA_BITS) | thresholds[e as usize].min(MANTISSA_MASK);
            for d in -64i64..=64 {
                let bits = i64::from(at) + d;
                if (0..i64::from(f32::INFINITY.to_bits())).contains(&bits) {
                    probes.push(bits as u32);
                }
            }
        }
        // Zeros, subnormals, the normal extremes, infinities and NaNs.
        probes.extend([0, 1, 2, 0x0040_0000, MANTISSA_MASK - 1, MANTISSA_MASK]);
        probes.extend([f32::MIN_POSITIVE.to_bits(), f32::MAX.to_bits(), f32::EPSILON.to_bits()]);
        probes.extend([f32::INFINITY.to_bits(), f32::NAN.to_bits(), 0x7f80_0001, 0x7fff_ffff]);
        for set in equivalence_sets() {
            for &bits in &probes {
                assert_matches_reference(&set, bits);
                assert_matches_reference(&set, bits | SIGN_BIT);
            }
        }
    }

    /// All 2³² bit patterns for the paper's alphabet (about 90 s in
    /// release): `cargo test --release -p se-ir -- --ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn table_quantizer_matches_reference_on_every_f32() {
        let set = Po2Set::default();
        for bits in 0..=u32::MAX {
            assert_matches_reference(&set, bits);
        }
    }

    /// The formulas [`Po2Set::contains`] and [`Po2Set::encode`] replaced:
    /// `log2`, `fract` for membership, and a cast for the exponent.
    fn reference_contains(set: &Po2Set, x: f32) -> bool {
        if x == 0.0 {
            return true;
        }
        let p = x.abs().log2();
        if p.fract() != 0.0 {
            return false;
        }
        let p = p as i32;
        p >= set.min_exp() && p <= set.max_exp()
    }

    fn reference_encode(set: &Po2Set, x: f32) -> Option<u16> {
        if x == 0.0 {
            return Some(0);
        }
        if !reference_contains(set, x) {
            return None;
        }
        let p = x.abs().log2() as i32;
        Some(1 + 2 * (set.max_exp() - p) as u16 + u16::from(x < 0.0))
    }

    /// `log2` rounds to the nearest `f32`, so the reference also accepts
    /// `2^p·(1 + ulp)` wherever that rounds onto the integer `p` (and then
    /// encodes it as `2^p`). The bit check must agree with the reference on
    /// every value the reference encodes exactly, and reject the rest.
    fn assert_membership_matches_reference(set: &Po2Set, bits: u32) {
        let x = f32::from_bits(bits);
        let exact = |_: &u16| x == 0.0 || x.abs() == ((x.abs().log2() as i32) as f32).exp2();
        let want = reference_encode(set, x).filter(exact);
        let got = set.contains(x).then(|| set.encode(x).expect("a member encodes"));
        assert_eq!(got, want, "{set:?}: {x:e} = {bits:#010x}");
    }

    #[test]
    fn bit_membership_matches_reference_at_every_exponent() {
        let mut probes: Vec<u32> = Vec::new();
        for e in 1u32..=255 {
            let at = e << MANTISSA_BITS;
            probes.extend([at - 1, at, at + 1]);
        }
        // Zeros, subnormals, infinities and NaNs.
        probes.extend([0, 1, 2, 0x0040_0000, MANTISSA_MASK - 1, MANTISSA_MASK]);
        probes.extend([f32::INFINITY.to_bits(), f32::NAN.to_bits(), 0x7f80_0001, 0x7fff_ffff]);
        let sets = [Po2Set::default(), Po2Set::new(2, 5).unwrap(), Po2Set::new(60, 180).unwrap()];
        for set in sets {
            for bits in probes.iter().flat_map(|&b| [b, b | SIGN_BIT]) {
                assert_membership_matches_reference(&set, bits);
                let x = f32::from_bits(bits);
                assert_eq!(set.encode(x).is_ok(), set.contains(x), "{set:?}: {x:e}");
            }
        }
    }

    /// All 2³² bit patterns for the paper's alphabet:
    /// `cargo test --release -p se-ir -- --ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn bit_membership_matches_reference_on_every_f32() {
        let set = Po2Set::default();
        for bits in 0..=u32::MAX {
            assert_membership_matches_reference(&set, bits);
        }
    }

    #[test]
    fn value_table_matches_decode() {
        for set in [Po2Set::default(), Po2Set::new(60, 180).unwrap()] {
            let values = set.values();
            assert_eq!(values.len() as u32, set.code_count());
            for (code, &v) in values.iter().enumerate() {
                let want = set.decode(code as u16).unwrap();
                assert_eq!(v.to_bits(), want.to_bits());
                assert_eq!(set.encode(v).unwrap(), code as u16);
            }
            assert!(set.decode(set.code_count() as u16).is_err());
        }
    }

    #[test]
    fn default_is_4bit_seven_exponents() {
        let s = Po2Set::default();
        assert_eq!(s.count(), 7);
        assert_eq!(s.code_bits(), 4);
        assert_eq!(s.max_exp(), 0);
        assert_eq!(s.min_exp(), -6);
        assert_eq!(s.exponents().collect::<Vec<_>>(), vec![0, -1, -2, -3, -4, -5, -6]);
    }

    #[test]
    fn quantize_rounds_in_log_domain() {
        let s = Po2Set::default();
        assert_eq!(s.quantize(1.0), 1.0);
        assert_eq!(s.quantize(0.5), 0.5);
        // 0.7: log2 = -0.51 -> rounds to -1 -> 0.5
        assert_eq!(s.quantize(0.7), 0.5);
        // 0.72: log2 = -0.47 -> rounds to 0 -> 1.0
        assert_eq!(s.quantize(0.72), 1.0);
        assert_eq!(s.quantize(-0.26), -0.25);
    }

    #[test]
    fn quantize_clamps_and_underflows() {
        let s = Po2Set::default();
        assert_eq!(s.quantize(100.0), 1.0);
        assert_eq!(s.quantize(-100.0), -1.0);
        assert_eq!(s.quantize(1e-6), 0.0);
        // Just above the min representable / sqrt(2) threshold survives.
        let min_val = 2.0f32.powi(-6);
        assert_eq!(s.quantize(min_val * 0.9), min_val);
        assert_eq!(s.quantize(f32::NAN), 0.0);
        assert_eq!(s.quantize(f32::INFINITY), 0.0);
    }

    #[test]
    fn contains_exact_membership() {
        let s = Po2Set::default();
        assert!(s.contains(0.0));
        assert!(s.contains(0.25));
        assert!(s.contains(-1.0));
        assert!(!s.contains(0.3));
        assert!(!s.contains(2.0)); // above max_exp
        assert!(!s.contains(2.0f32.powi(-7))); // below min_exp
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = Po2Set::default();
        for p in s.min_exp()..=s.max_exp() {
            for sign in [1.0f32, -1.0] {
                let v = sign * (p as f32).exp2();
                let code = s.encode(v).unwrap();
                assert!(u32::from(code) < (1 << s.code_bits()));
                assert_eq!(s.decode(code).unwrap(), v);
            }
        }
        assert_eq!(s.encode(0.0).unwrap(), 0);
        assert_eq!(s.decode(0).unwrap(), 0.0);
    }

    #[test]
    fn encode_rejects_unrepresentable() {
        let s = Po2Set::default();
        assert!(s.encode(0.3).is_err());
        assert!(s.decode(14).is_ok()); // 1 + 2*6 + 1 = 14 is the largest valid code
        assert!(s.decode(15).is_err()); // 15 would be exponent index 7 -> invalid
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let s = Po2Set::new(0, 3).unwrap(); // codes 0..=6 valid
        assert!(s.decode(7).is_err());
    }

    #[test]
    fn code_bits_formula() {
        assert_eq!(Po2Set::new(0, 1).unwrap().code_bits(), 2); // 3 codes
        assert_eq!(Po2Set::new(0, 3).unwrap().code_bits(), 3); // 7 codes
        assert_eq!(Po2Set::new(0, 7).unwrap().code_bits(), 4); // 15 codes
        assert_eq!(Po2Set::new(0, 8).unwrap().code_bits(), 5); // 17 codes
    }

    #[test]
    fn with_bits_inverse_of_code_bits() {
        for bits in 2..8 {
            let s = Po2Set::with_bits(0, bits).unwrap();
            assert_eq!(s.code_bits(), bits);
        }
        assert!(Po2Set::with_bits(0, 1).is_err());
    }

    #[test]
    fn invalid_construction() {
        assert!(Po2Set::new(0, 0).is_err());
        assert!(Po2Set::new(-100, 60).is_err());
        // Extreme stored values (a corrupt artifact) error instead of
        // overflowing.
        assert!(Po2Set::new(i32::MIN, 2).is_err());
        assert!(Po2Set::new(0, u32::MAX).is_err());
    }
}
