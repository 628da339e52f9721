//! The base prime field `Fp`.

use std::cell::Cell;
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
/// exponentiation). Every multiplication / addition / subtraction /
/// inversion counts towards the context's [`OpCounter`]: a single
/// operation called here is added to it at once, while composite routines
/// (`Fp6` products, exponentiations) run on an [`FpTally`] and add their
/// totals when it drops.
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

    /// Opens a per-call [`FpTally`]: this context's arithmetic, counted on
    /// the stack and added to the shared counter when the tally drops.
    pub fn tally(&self) -> FpTally<'_> {
        FpTally {
            fp: &self.inner,
            mul: Cell::new(0),
            add: Cell::new(0),
            sub: Cell::new(0),
            inv: Cell::new(0),
        }
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
        self.tally().add(a, b)
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.tally().sub(a, b)
    }

    /// Modular negation (counted as a subtraction; free for zero).
    pub fn neg(&self, a: &FpElement) -> FpElement {
        self.tally().neg(a)
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.tally().double(a)
    }

    /// Modular multiplication (one Montgomery multiplication).
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.tally().mul(a, b)
    }

    /// Modular squaring (counted as a multiplication, as in the paper).
    pub fn square(&self, a: &FpElement) -> FpElement {
        self.tally().square(a)
    }

    /// Multiplication by a small constant via repeated addition (the
    /// coprocessor has no dedicated small-constant multiplier).
    pub fn mul_small(&self, a: &FpElement, k: u32) -> FpElement {
        self.tally().mul_small(a, k)
    }

    /// Modular exponentiation by square-and-multiply; the exponent may
    /// have any width.
    pub fn exp(&self, base: &FpElement, exp: &BigUint) -> FpElement {
        self.pow_bits(base, exp.bit_len(), |i| exp.bit(i))
    }

    /// Left-to-right square-and-multiply over exponent bits `len - 1 ..= 0`,
    /// recording one multiplication per squaring and per set bit.
    fn pow_bits(&self, base: &FpElement, len: usize, bit: impl Fn(usize) -> bool) -> FpElement {
        let t = self.tally();
        let mut acc = self.one();
        for i in (0..len).rev() {
            acc = t.square(&acc);
            if bit(i) {
                acc = t.mul(&acc, base);
            }
        }
        acc
    }

    /// [`FpContext::exp`] with a fixed-width exponent.
    fn pow(&self, base: &FpElement, exp: &Residue) -> FpElement {
        self.pow_bits(base, exp.bit_len(), |i| exp.bit(i))
    }

    /// Modular inversion via Fermat's little theorem. Returns `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        self.tally().inv(a)
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

    /// Modular square root. Returns `None` if `a` is a non-residue;
    /// `Some(0)` for zero. When a root `r` exists, `p - r` is the other
    /// root.
    ///
    /// For `p ≡ 3 (mod 4)` the candidate `r = a^((p+1)/4)` is returned iff
    /// `r² = a`, which is one exponentiation; other primes run Euler's
    /// criterion and then Tonelli–Shanks.
    pub fn sqrt(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return Some(self.zero());
        }
        let (s, q, r_exp) = match &self.inner.sqrt {
            SqrtPlan::ThreeModFour { exp } => {
                let r = self.pow(a, exp);
                return (self.square(&r) == *a).then_some(r);
            }
            SqrtPlan::TonelliShanks { s, q, r_exp } => (*s, q, r_exp),
        };
        if !self.is_square(a) {
            return None;
        }
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

/// A per-call tally of `Fp` operations, opened by [`FpContext::tally`].
///
/// Each method returns what the [`FpContext`] method of the same name
/// returns and records the same operations, but in plain cells on the
/// stack: the totals reach the context's [`OpCounter`] once, when the
/// tally drops (also on unwind), as at most four relaxed atomic additions.
/// Composite routines — `Fp2`/`Fp3`/`Fp6` arithmetic, exponentiations —
/// run all their `Fp` work on one tally, so the count they leave is the
/// same as if every operation had been recorded on its own.
///
/// The tally is not `Sync`; it belongs to the call that opened it.
pub struct FpTally<'a> {
    fp: &'a FpInner,
    mul: Cell<u64>,
    add: Cell<u64>,
    sub: Cell<u64>,
    inv: Cell<u64>,
}

impl FpTally<'_> {
    /// Modular addition.
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        bump(&self.add);
        FpElement {
            mont: add_mod(&a.mont, &b.mont, self.fp.mont.modulus()),
        }
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        bump(&self.sub);
        FpElement {
            mont: sub_mod(&a.mont, &b.mont, self.fp.mont.modulus()),
        }
    }

    /// Modular negation (counted as a subtraction; free for zero).
    pub fn neg(&self, a: &FpElement) -> FpElement {
        if a.is_zero() {
            return *a;
        }
        bump(&self.sub);
        FpElement {
            mont: neg_mod(&a.mont, self.fp.mont.modulus()),
        }
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Modular multiplication (one Montgomery multiplication).
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        bump(&self.mul);
        FpElement {
            mont: self.fp.mont.mont_mul(&a.mont, &b.mont),
        }
    }

    /// Modular squaring (counted as a multiplication).
    pub fn square(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Multiplication by a small constant as `k` additions.
    pub fn mul_small(&self, a: &FpElement, k: u32) -> FpElement {
        let mut acc = FpElement {
            mont: Residue::ZERO,
        };
        for _ in 0..k {
            acc = self.add(&acc, a);
        }
        acc
    }

    /// Modular inversion, counted as one inversion (its internal
    /// exponentiation is not counted). Returns `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        let mont = self.fp.mont.mont_inv_prime(&a.mont)?;
        bump(&self.inv);
        Some(FpElement { mont })
    }
}

impl Drop for FpTally<'_> {
    fn drop(&mut self) {
        self.fp.counter.record(OpCount {
            mul: self.mul.get(),
            add: self.add.get(),
            sub: self.sub.get(),
            inv: self.inv.get(),
        });
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
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
    fn a_tally_adds_its_totals_when_it_drops() {
        let fp = ctx();
        let (a, b) = (fp.from_u64(3), fp.from_u64(5));
        let (minus_two, minus_three) = (fp.from_i64(-2), fp.from_i64(-3));
        fp.reset_op_count();
        {
            let t = fp.tally();
            assert_eq!(t.mul(&a, &b), fp.from_u64(15));
            assert_eq!(t.square(&a), fp.from_u64(9));
            assert_eq!(t.mul_small(&a, 4), fp.from_u64(12));
            assert_eq!(t.sub(&a, &b), minus_two);
            assert_eq!(t.neg(&fp.zero()), fp.zero());
            assert_eq!(t.neg(&a), minus_three);
            assert_eq!(t.inv(&fp.zero()), None);
            assert_eq!(t.mul(&t.inv(&a).unwrap(), &a), fp.one());
            assert_eq!(fp.op_count(), OpCount::default(), "nothing before the drop");
        }
        let want = OpCount {
            mul: 3,
            add: 4,
            sub: 2,
            inv: 1,
        };
        assert_eq!(fp.op_count(), want);
        // A panicking call still leaves its count.
        fp.reset_op_count();
        let unwound = std::panic::catch_unwind(|| {
            let t = fp.tally();
            let _ = t.double(&a);
            panic!("after one addition");
        });
        assert!(unwound.is_err());
        assert_eq!(fp.op_count().add, 1);
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
