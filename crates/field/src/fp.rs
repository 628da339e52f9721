//! The base prime field `Fp`.

use std::fmt;
use std::sync::Arc;

use bignum::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};
use bignum::BigUint;
use rand::Rng;

use crate::error::FieldError;
use crate::opcount::{OpCount, OpCounter};

/// The stack word every field element is stored in: four 64-bit limbs.
type Residue = Uint<4>;

/// Context for arithmetic in the prime field `Fp`, for any odd modulus of
/// at most [`FpContext::MAX_BITS`] bits.
///
/// All elements are kept in Montgomery form internally (mirroring the
/// coprocessor, which works on Montgomery residues throughout an
/// exponentiation), and every multiplication / addition / subtraction /
/// inversion is recorded in the context's [`OpCounter`].
///
/// Every modulus shares one fixed-limb backend: a
/// [`MontgomeryContext<4>`] with radix `R = 2^256`, whatever the bit
/// length of `p`. Elements are stack [`Uint<4>`] values, so the
/// arithmetic never touches the heap.
///
/// Cloning the context is cheap and clones share the same counter.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), field::FieldError> {
/// use bignum::BigUint;
/// use field::FpContext;
///
/// let fp = FpContext::new(&BigUint::from(1000000007u64))?;
/// let a = fp.from_u64(3);
/// let b = fp.inv(&a).expect("3 is invertible");
/// assert_eq!(fp.mul(&a, &b), fp.one());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct FpContext {
    inner: Arc<FpInner>,
}

struct FpInner {
    modulus: BigUint,
    mont: MontgomeryContext<4>,
    /// `(p - 1) / 2`, Euler's criterion exponent.
    legendre_exp: Residue,
    sqrt: SqrtPlan,
    counter: Arc<OpCounter>,
}

/// The exponents [`FpContext::sqrt`] raises to, fixed per modulus.
enum SqrtPlan {
    /// `p ≡ 3 (mod 4)`: the root is `a^((p+1)/4)`.
    ThreeModFour { exp: Residue },
    /// Tonelli–Shanks with `p - 1 = q · 2^s`, `q` odd; `r_exp = (q+1)/2`.
    TonelliShanks {
        s: usize,
        q: Residue,
        r_exp: Residue,
    },
}

/// An element of `Fp`, stored in Montgomery form (`a · 2^256 mod p`) on a
/// stack [`Uint<4>`].
///
/// Elements do not carry a back-reference to their context; mixing elements
/// from different [`FpContext`]s is a logic error.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpElement {
    mont: Residue,
}

impl FpElement {
    /// Returns `true` if this element is zero.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Raw Montgomery-form residue (`a · 2^256 mod p`), for code that runs
    /// whole ladders on the context's [`FpContext::mont_context`].
    pub fn mont_repr(&self) -> &Uint<4> {
        &self.mont
    }

    /// Constructs an element directly from a reduced Montgomery-form
    /// residue — the inverse of [`FpElement::mont_repr`].
    pub fn from_mont_repr(mont: Uint<4>) -> Self {
        FpElement { mont }
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FpElement(mont=0x{})", self.mont)
    }
}

impl FpContext {
    /// The widest supported modulus, in bits: the four-limb backend's
    /// width.
    pub const MAX_BITS: usize = Residue::BITS;

    /// Creates a context for the field of integers modulo `p`.
    ///
    /// `p` must be odd, greater than 3 and at most [`FpContext::MAX_BITS`]
    /// bits wide; primality is the caller's responsibility (parameter
    /// generation in the `ceilidh` crate uses [`bignum::is_prime`]).
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::InvalidModulus`] if `p` is even or `<= 3`, and
    /// [`FieldError::ModulusTooWide`] if `p` has more than 256 bits.
    pub fn new(p: &BigUint) -> Result<Self, FieldError> {
        if p.is_even() || *p <= BigUint::from(3u64) {
            return Err(FieldError::InvalidModulus);
        }
        if p.bit_len() > Self::MAX_BITS {
            return Err(FieldError::ModulusTooWide { bits: p.bit_len() });
        }
        let mont = MontgomeryContext::new(p).ok_or(FieldError::InvalidModulus)?;
        let fits = |v: BigUint| Residue::from_biguint(&v).expect("at most p, so fits");
        let one = BigUint::one();
        let p_minus_one = p - &one;
        let s = p_minus_one.trailing_zeros();
        let sqrt = if s == 1 {
            SqrtPlan::ThreeModFour {
                exp: fits((p + &one).shr_bits(2)),
            }
        } else {
            let q = p_minus_one.shr_bits(s);
            SqrtPlan::TonelliShanks {
                s,
                r_exp: fits((&q + &one).shr_bits(1)),
                q: fits(q),
            }
        };
        Ok(FpContext {
            inner: Arc::new(FpInner {
                modulus: p.clone(),
                mont,
                legendre_exp: fits(p_minus_one.shr_bits(1)),
                sqrt,
                counter: OpCounter::new(),
            }),
        })
    }

    /// The field characteristic `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.inner.modulus
    }

    /// Bit length of the modulus (e.g. 170 for the paper's torus field).
    pub fn bit_len(&self) -> usize {
        self.inner.modulus.bit_len()
    }

    /// The residue of `p` modulo `m` as a small integer.
    pub fn modulus_mod(&self, m: u32) -> u32 {
        (&self.inner.modulus % &BigUint::from(m))
            .to_u64()
            .unwrap_or(0) as u32
    }

    /// The Montgomery context every element lives in (`R = 2^256`).
    /// `ecc` runs whole scalar-multiplication ladders on it.
    pub fn mont_context(&self) -> &MontgomeryContext<4> {
        &self.inner.mont
    }

    /// The shared operation counter.
    pub fn counter(&self) -> &Arc<OpCounter> {
        &self.inner.counter
    }

    /// Snapshot of the operation counts recorded so far.
    pub fn op_count(&self) -> OpCount {
        self.inner.counter.snapshot()
    }

    /// Resets the operation counters to zero.
    pub fn reset_op_count(&self) {
        self.inner.counter.reset();
    }

    /// The additive identity.
    pub fn zero(&self) -> FpElement {
        FpElement {
            mont: Residue::ZERO,
        }
    }

    /// The multiplicative identity.
    pub fn one(&self) -> FpElement {
        FpElement {
            mont: self.inner.mont.one_mont(),
        }
    }

    /// Embeds an arbitrary integer, of any width, reduced modulo `p`.
    pub fn from_biguint(&self, v: &BigUint) -> FpElement {
        let v = match Residue::from_biguint(v) {
            Some(v) => v,
            None => Residue::from_biguint(&(v % &self.inner.modulus)).expect("below p, so fits"),
        };
        FpElement {
            mont: self.inner.mont.to_mont(&v),
        }
    }

    /// Embeds a canonical encoding: `None` unless `0 <= v < p`.
    ///
    /// Decoders of untrusted input use this instead of
    /// [`FpContext::from_biguint`], which silently reduces and so would
    /// accept `v + p` as another encoding of `v`.
    pub fn from_canonical(&self, v: &BigUint) -> Option<FpElement> {
        (*v < self.inner.modulus).then(|| self.from_biguint(v))
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> FpElement {
        FpElement {
            mont: self.inner.mont.to_mont(&Residue::from_u64(v)),
        }
    }

    /// Embeds a signed small integer (negative values wrap modulo `p`).
    pub fn from_i64(&self, v: i64) -> FpElement {
        if v >= 0 {
            self.from_u64(v as u64)
        } else {
            self.neg(&self.from_u64(v.unsigned_abs()))
        }
    }

    /// Returns the canonical (non-Montgomery) residue of an element.
    pub fn to_biguint(&self, a: &FpElement) -> BigUint {
        self.inner.mont.from_mont(&a.mont).to_biguint()
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> FpElement {
        self.from_biguint(&BigUint::random_below(rng, &self.inner.modulus))
    }

    /// Modular addition.
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_add();
        FpElement {
            mont: add_mod(&a.mont, &b.mont, self.inner.mont.modulus()),
        }
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_sub();
        FpElement {
            mont: sub_mod(&a.mont, &b.mont, self.inner.mont.modulus()),
        }
    }

    /// Modular negation.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        if a.is_zero() {
            return self.zero();
        }
        self.inner.counter.record_sub();
        FpElement {
            mont: neg_mod(&a.mont, self.inner.mont.modulus()),
        }
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Modular multiplication (one Montgomery multiplication).
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_mul();
        FpElement {
            mont: self.inner.mont.mont_mul(&a.mont, &b.mont),
        }
    }

    /// Modular squaring (counted as a multiplication, as in the paper).
    pub fn square(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Multiplication by a small constant via repeated addition (the
    /// coprocessor has no dedicated small-constant multiplier).
    pub fn mul_small(&self, a: &FpElement, k: u32) -> FpElement {
        let mut acc = self.zero();
        for _ in 0..k {
            acc = self.add(&acc, a);
        }
        acc
    }

    /// Modular exponentiation by square-and-multiply; the exponent may
    /// have any width.
    pub fn exp(&self, base: &FpElement, exp: &BigUint) -> FpElement {
        self.pow_bits(base, exp.bit_len(), |i| exp.bit(i))
    }

    /// Left-to-right square-and-multiply over exponent bits `len - 1 ..= 0`,
    /// recording one multiplication per squaring and per set bit.
    fn pow_bits(&self, base: &FpElement, len: usize, bit: impl Fn(usize) -> bool) -> FpElement {
        let ctx = &self.inner.mont;
        let mut acc = ctx.one_mont();
        for i in (0..len).rev() {
            self.inner.counter.record_mul();
            acc = ctx.mont_mul(&acc, &acc);
            if bit(i) {
                self.inner.counter.record_mul();
                acc = ctx.mont_mul(&acc, &base.mont);
            }
        }
        FpElement { mont: acc }
    }

    /// [`FpContext::exp`] with a fixed-width exponent.
    fn pow(&self, base: &FpElement, exp: &Residue) -> FpElement {
        self.pow_bits(base, exp.bit_len(), |i| exp.bit(i))
    }

    /// Batched modular exponentiation: `out[i] = pairs[i].0 ^ pairs[i].1`.
    ///
    /// The squaring ladders run **lane-parallel**
    /// ([`MontgomeryContext::mont_pow_batch`], four lanes per pass) so batch
    /// traffic amortizes host wall-clock; a trailing partial chunk — and
    /// every exponent wider than 256 bits — falls back to the serial
    /// [`FpContext::exp`] loop.
    ///
    /// Results are bit-identical to calling `exp` element by element, and
    /// so are the recorded operation counts (one multiplication per
    /// squaring plus one per set exponent bit, **per element** — the batch
    /// kernel's lane-lockstep padding squarings are not modeled work).
    pub fn exp_batch(&self, pairs: &[(FpElement, BigUint)]) -> Vec<FpElement> {
        const LANES: usize = 4;
        let mut out: Vec<Option<FpElement>> = vec![None; pairs.len()];
        let lanes: Vec<(usize, Residue)> = pairs
            .iter()
            .enumerate()
            .filter_map(|(i, (_, exp))| Some((i, Residue::from_biguint(exp)?)))
            .collect();
        for group in lanes.chunks_exact(LANES) {
            let bases = std::array::from_fn(|l| pairs[group[l].0].0.mont);
            let exps = std::array::from_fn(|l| group[l].1);
            let pow = self.inner.mont.mont_pow_batch::<LANES>(&bases, &exps);
            for (&(i, _), mont) in group.iter().zip(pow) {
                self.record_serial_exp_ops(&pairs[i].1);
                out[i] = Some(FpElement { mont });
            }
        }
        pairs
            .iter()
            .zip(out)
            .map(|((base, exp), done)| done.unwrap_or_else(|| self.exp(base, exp)))
            .collect()
    }

    /// Records what the serial square-and-multiply loop would record for
    /// exponent `exp` — the batch entry points keep the modeled operation
    /// counts identical to their serial counterparts.
    fn record_serial_exp_ops(&self, exp: &BigUint) {
        for i in 0..exp.bit_len() {
            self.inner.counter.record_mul();
            if exp.bit(i) {
                self.inner.counter.record_mul();
            }
        }
    }

    /// Batched modular inversion by **Montgomery's trick**: one Fermat
    /// inversion plus `3(n-1)` multiplications for the whole batch of `n`
    /// non-zero elements, instead of one Fermat inversion each. Zero
    /// elements yield `None` without disturbing their neighbours.
    ///
    /// Results are bit-identical to calling [`FpContext::inv`] element by
    /// element, and so are the recorded operation counts: one inversion
    /// per non-zero element and no multiplications — inversion stays its
    /// own primitive (the trick's internal products are host bookkeeping,
    /// not modeled field work).
    pub fn inv_batch(&self, elems: &[FpElement]) -> Vec<Option<FpElement>> {
        let live: Vec<usize> = (0..elems.len()).filter(|&i| !elems[i].is_zero()).collect();
        for _ in &live {
            self.inner.counter.record_inv();
        }
        let mut values: Vec<Residue> = live.iter().map(|&i| elems[i].mont).collect();
        let mut scratch = vec![Residue::ZERO; values.len()];
        let ok = self.inner.mont.mont_inv_batch(&mut values, &mut scratch);
        debug_assert!(ok, "non-zero elements invert");
        let mut out: Vec<Option<FpElement>> = vec![None; elems.len()];
        for (&slot, mont) in live.iter().zip(values) {
            out[slot] = Some(FpElement { mont });
        }
        out
    }

    /// Modular inversion via Fermat's little theorem. Returns `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        // The exponentiation's internal multiplications are deliberately not
        // double-counted: the paper treats inversion as its own primitive.
        let mont = self.inner.mont.mont_inv_prime(&a.mont)?;
        self.inner.counter.record_inv();
        Some(FpElement { mont })
    }

    /// Returns `true` if two contexts describe the same field.
    pub fn same_field(&self, other: &FpContext) -> bool {
        self.inner.modulus == other.inner.modulus
    }

    /// Euler's criterion: returns `true` if `a` is a non-zero quadratic
    /// residue modulo `p`.
    pub fn is_square(&self, a: &FpElement) -> bool {
        !a.is_zero() && self.pow(a, &self.inner.legendre_exp) == self.one()
    }

    /// Modular square root by Tonelli–Shanks. Returns `None` if `a` is a
    /// non-residue; `Some(0)` for zero. When a root `r` exists, `p - r` is
    /// the other root.
    pub fn sqrt(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return Some(self.zero());
        }
        if !self.is_square(a) {
            return None;
        }
        let (s, q, r_exp) = match &self.inner.sqrt {
            SqrtPlan::ThreeModFour { exp } => return Some(self.pow(a, exp)),
            SqrtPlan::TonelliShanks { s, q, r_exp } => (*s, q, r_exp),
        };
        // Tonelli–Shanks. Find a quadratic non-residue z (deterministic
        // scan; half of all elements qualify so this terminates quickly).
        let mut z = self.from_u64(2);
        while self.is_square(&z) {
            z = self.add(&z, &self.one());
        }
        let mut m = s;
        let mut c = self.pow(&z, q);
        let mut t = self.pow(a, q);
        let mut r = self.pow(a, r_exp);
        while t != self.one() {
            // Find the least i with t^(2^i) = 1.
            let mut i = 0usize;
            let mut probe = t;
            while probe != self.one() {
                probe = self.square(&probe);
                i += 1;
                if i == m {
                    return None; // unreachable for residues; defensive
                }
            }
            let mut b = c;
            for _ in 0..(m - i - 1) {
                b = self.square(&b);
            }
            m = i;
            c = self.square(&b);
            t = self.mul(&t, &c);
            r = self.mul(&r, &b);
        }
        Some(r)
    }
}

impl fmt::Debug for FpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FpContext(p=0x{}, {} bits)",
            self.inner.modulus.to_hex(),
            self.bit_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> FpContext {
        FpContext::new(&BigUint::from(1_000_000_007u64)).unwrap()
    }

    fn secp256k1() -> FpContext {
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        FpContext::new(&p).unwrap()
    }

    #[test]
    fn rejects_bad_modulus() {
        assert_eq!(
            FpContext::new(&BigUint::from(10u64)).unwrap_err(),
            FieldError::InvalidModulus
        );
        assert_eq!(
            FpContext::new(&BigUint::from(3u64)).unwrap_err(),
            FieldError::InvalidModulus
        );
        let wide = &BigUint::one().shl_bits(256) + &BigUint::one();
        assert_eq!(
            FpContext::new(&wide).unwrap_err(),
            FieldError::ModulusTooWide { bits: 257 }
        );
    }

    #[test]
    fn add_sub_roundtrip() {
        let fp = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = fp.random(&mut rng);
            let b = fp.random(&mut rng);
            assert_eq!(fp.sub(&fp.add(&a, &b), &b), a);
            assert_eq!(fp.add(&fp.sub(&a, &b), &b), a);
        }
    }

    #[test]
    fn neg_and_double() {
        let fp = ctx();
        let a = fp.from_u64(17);
        assert_eq!(fp.add(&a, &fp.neg(&a)), fp.zero());
        assert_eq!(fp.neg(&fp.zero()), fp.zero());
        assert_eq!(fp.double(&a), fp.from_u64(34));
        assert_eq!(fp.mul_small(&a, 5), fp.from_u64(85));
        assert_eq!(fp.mul_small(&a, 0), fp.zero());
    }

    #[test]
    fn mul_matches_plain_arithmetic() {
        let fp = ctx();
        let a = fp.from_u64(123_456_789);
        let b = fp.from_u64(987_654_321);
        let expected = (123_456_789u128 * 987_654_321u128 % 1_000_000_007u128) as u64;
        assert_eq!(fp.to_biguint(&fp.mul(&a, &b)).to_u64(), Some(expected));
    }

    #[test]
    fn from_i64_wraps() {
        let fp = ctx();
        assert_eq!(fp.from_i64(-1), fp.from_u64(1_000_000_006));
        assert_eq!(fp.from_i64(5), fp.from_u64(5));
    }

    #[test]
    fn from_canonical_rejects_unreduced_encodings() {
        let fp = ctx();
        let p = fp.modulus().clone();
        let pm1 = &p - &BigUint::one();
        assert_eq!(fp.from_canonical(&pm1), Some(fp.from_i64(-1)));
        assert_eq!(fp.from_canonical(&BigUint::zero()), Some(fp.zero()));
        assert_eq!(fp.from_canonical(&p), None);
        let unreduced = &p + &BigUint::from(5u64);
        assert_eq!(fp.from_canonical(&unreduced), None);
        // from_biguint keeps reducing, whatever the width.
        assert_eq!(fp.from_biguint(&unreduced), fp.from_u64(5));
        let wide = &p.shl_bits(300) + &BigUint::from(5u64);
        assert_eq!(fp.from_biguint(&wide), fp.from_u64(5));
    }

    #[test]
    fn inversion_and_exponentiation() {
        let fp = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let a = fp.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = fp.inv(&a).unwrap();
            assert_eq!(fp.mul(&a, &inv), fp.one());
        }
        assert!(fp.inv(&fp.zero()).is_none());
        // Fermat: a^(p-1) = 1.
        let a = fp.from_u64(2);
        let pm1 = fp.modulus() - &BigUint::one();
        assert_eq!(fp.exp(&a, &pm1), fp.one());
        assert_eq!(fp.exp(&a, &BigUint::zero()), fp.one());
    }

    #[test]
    fn op_counter_tracks_operations() {
        let fp = ctx();
        fp.reset_op_count();
        let a = fp.from_u64(3);
        let b = fp.from_u64(5);
        let _ = fp.mul(&a, &b);
        let _ = fp.add(&a, &b);
        let _ = fp.sub(&a, &b);
        let _ = fp.inv(&a);
        let c = fp.op_count();
        assert_eq!(c.mul, 1);
        assert_eq!(c.add, 1);
        assert_eq!(c.sub, 1);
        assert_eq!(c.inv, 1);
    }

    #[test]
    fn exp_and_inv_record_the_serial_op_counts() {
        for fp in [ctx(), secp256k1()] {
            // One mul per squaring plus one per set exponent bit.
            fp.reset_op_count();
            let _ = fp.exp(&fp.from_u64(7), &BigUint::from(0b1011u64));
            assert_eq!(fp.op_count().mul, 4 + 3);
            fp.reset_op_count();
            let _ = fp.inv(&fp.from_u64(7));
            let _ = fp.inv(&fp.zero());
            let c = fp.op_count();
            assert_eq!((c.inv, c.mul), (1, 0), "inversion stays its own primitive");
        }
    }

    #[test]
    fn montgomery_repr_roundtrip() {
        let fp = ctx();
        let a = fp.from_u64(424_242);
        let repr = *a.mont_repr();
        assert_eq!(FpElement::from_mont_repr(repr), a);
        assert_eq!(repr, fp.mont_context().to_mont(&Uint::from_u64(424_242)));
    }

    #[test]
    fn modulus_mod_small() {
        let fp = ctx();
        assert_eq!(fp.modulus_mod(9), (1_000_000_007u64 % 9) as u32);
    }

    #[test]
    fn sqrt_roundtrip_both_congruence_classes() {
        // 1000000007 ≡ 3 (mod 4): fast path. 1000000009 ≡ 1 (mod 4): Tonelli–Shanks.
        for p in [1_000_000_007u64, 1_000_000_009] {
            let fp = FpContext::new(&BigUint::from(p)).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(p);
            let mut found_nonresidue = false;
            for _ in 0..20 {
                let a = fp.random(&mut rng);
                if a.is_zero() {
                    continue;
                }
                let sq = fp.square(&a);
                assert!(fp.is_square(&sq));
                let r = fp.sqrt(&sq).expect("square has a root");
                assert!(r == a || r == fp.neg(&a), "root must be ±a (p = {p})");
                if !fp.is_square(&a) {
                    found_nonresidue = true;
                    assert!(fp.sqrt(&a).is_none());
                }
            }
            assert!(found_nonresidue, "expected to see a non-residue");
            assert_eq!(fp.sqrt(&fp.zero()), Some(fp.zero()));
            assert!(!fp.is_square(&fp.zero()));
        }
    }

    #[test]
    fn exp_batch_matches_serial_exp() {
        for fp in [secp256k1(), ctx()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            // 8 pairs: a full lane group, a partial trailing chunk and an
            // exponent wider than 256 bits, with edge exponents {0, 1, p-1}.
            let mut pairs: Vec<(FpElement, BigUint)> = vec![
                (fp.random(&mut rng), BigUint::zero()),
                (fp.random(&mut rng), BigUint::one()),
                (fp.random(&mut rng), fp.modulus() - &BigUint::one()),
                (fp.random(&mut rng), BigUint::random_bits(&mut rng, 300)),
            ];
            for _ in 0..4 {
                let e = BigUint::random_below(&mut rng, fp.modulus());
                pairs.push((fp.random(&mut rng), e));
            }
            fp.reset_op_count();
            let serial: Vec<FpElement> = pairs.iter().map(|(b, e)| fp.exp(b, e)).collect();
            let serial_count = fp.op_count();
            for ((b, e), got) in pairs.iter().zip(&serial) {
                let want = plain_pow(&fp, b, e);
                assert_eq!(fp.to_biguint(got), want, "serial exp matches BigUint");
            }
            fp.reset_op_count();
            let batch = fp.exp_batch(&pairs);
            assert_eq!(batch, serial, "batch bit-identical to serial");
            assert_eq!(
                fp.op_count().mul,
                serial_count.mul,
                "batch records serial-equivalent mul counts"
            );
            assert!(fp.exp_batch(&[]).is_empty());
            let single = fp.exp_batch(&pairs[..1]);
            assert_eq!(single, serial[..1]);
        }
    }

    /// `b^e mod p` on plain `BigUint`s.
    fn plain_pow(fp: &FpContext, b: &FpElement, e: &BigUint) -> BigUint {
        bignum::mod_exp(&fp.to_biguint(b), e, fp.modulus())
    }

    #[test]
    fn inv_batch_matches_serial_and_skips_zeros() {
        for fp in [secp256k1(), ctx()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let mut elems: Vec<FpElement> = (0..6).map(|_| fp.random(&mut rng)).collect();
            elems.insert(2, fp.zero());
            elems.push(fp.from_u64(1));
            fp.reset_op_count();
            let batch = fp.inv_batch(&elems);
            let count = fp.op_count();
            for (e, inv) in elems.iter().zip(&batch) {
                assert_eq!(inv.as_ref(), fp.inv(e).as_ref(), "batch matches serial inv");
                if let Some(inv) = inv {
                    assert_eq!(fp.mul(e, inv), fp.one());
                }
            }
            assert!(batch[2].is_none(), "zero element yields None");
            // One recorded inversion per non-zero element, no recorded muls:
            // inversion stays its own primitive.
            assert_eq!((count.inv, count.mul), (7, 0));
            assert!(fp.inv_batch(&[]).is_empty());
            assert_eq!(fp.inv_batch(&[fp.zero()]), vec![None]);
            let one_batch = fp.inv_batch(&elems[..1]);
            assert_eq!(one_batch[0], fp.inv(&elems[0]));
        }
    }

    #[test]
    fn contexts_share_counters_across_clones() {
        let fp = ctx();
        let fp2 = fp.clone();
        fp.reset_op_count();
        let _ = fp2.mul(&fp2.from_u64(2), &fp2.from_u64(3));
        assert_eq!(fp.op_count().mul, 1);
        assert!(fp.same_field(&fp2));
    }
}
