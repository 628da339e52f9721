//! The quadratic extension `Fp2 = Fp[w]/(w^2 + w + 1)`.
//!
//! For the CEILIDH primes (`p ≡ 2, 5 mod 9`, hence `p ≡ 2 mod 3`) the
//! polynomial `w^2 + w + 1` is irreducible and `w` is a primitive cube root
//! of unity. `Fp2` is the quadratic subfield of `Fp6`; the torus `T6` is
//! exactly the set of `Fp6` elements whose norms to both `Fp2` and `Fp3`
//! are 1. `Fp2` is also the field XTR (the system CEILIDH is compared to in
//! the literature) transmits its traces in.

use std::fmt;

use rand::Rng;

use crate::error::FieldError;
use crate::fp::{FpContext, FpElement, FpTally};

/// Context for arithmetic in `Fp2 = Fp[w]/(w^2 + w + 1)`.
#[derive(Clone, Debug)]
pub struct Fp2Context {
    fp: FpContext,
}

/// An element `c0 + c1·w` of `Fp2`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fp2Element {
    c0: FpElement,
    c1: FpElement,
}

impl fmt::Debug for Fp2Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({:?} + {:?}·w)", self.c0, self.c1)
    }
}

impl Fp2Element {
    /// The constant coefficient.
    pub fn c0(&self) -> &FpElement {
        &self.c0
    }

    /// The coefficient of `w`.
    pub fn c1(&self) -> &FpElement {
        &self.c1
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
}

impl Fp2Context {
    /// Creates the quadratic extension over `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedCongruence`] unless `p ≡ 2 (mod 3)`,
    /// which is what makes `w^2 + w + 1` irreducible.
    pub fn new(fp: FpContext) -> Result<Self, FieldError> {
        let r = fp.modulus_mod(3);
        if r != 2 {
            return Err(FieldError::UnsupportedCongruence {
                modulus: 3,
                expected: &[2],
                found: r,
            });
        }
        Ok(Fp2Context { fp })
    }

    /// The underlying prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp2Element {
        self.from_coeffs(self.fp.zero(), self.fp.zero())
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp2Element {
        self.from_coeffs(self.fp.one(), self.fp.zero())
    }

    /// Builds an element from its coefficients `c0 + c1·w`.
    pub fn from_coeffs(&self, c0: FpElement, c1: FpElement) -> Fp2Element {
        Fp2Element { c0, c1 }
    }

    /// Builds an element from small integers.
    pub fn from_u64_coeffs(&self, c0: u64, c1: u64) -> Fp2Element {
        self.from_coeffs(self.fp.from_u64(c0), self.fp.from_u64(c1))
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp2Element {
        self.from_coeffs(self.fp.random(rng), self.fp.random(rng))
    }

    /// Addition.
    pub fn add(&self, a: &Fp2Element, b: &Fp2Element) -> Fp2Element {
        let t = self.fp.tally();
        self.from_coeffs(t.add(&a.c0, &b.c0), t.add(&a.c1, &b.c1))
    }

    /// Subtraction.
    pub fn sub(&self, a: &Fp2Element, b: &Fp2Element) -> Fp2Element {
        let t = self.fp.tally();
        self.from_coeffs(t.sub(&a.c0, &b.c0), t.sub(&a.c1, &b.c1))
    }

    /// Negation.
    pub fn neg(&self, a: &Fp2Element) -> Fp2Element {
        let t = self.fp.tally();
        self.from_coeffs(t.neg(&a.c0), t.neg(&a.c1))
    }

    /// Multiplication using the Karatsuba 3M formula and the reduction
    /// `w^2 = -w - 1`.
    pub fn mul(&self, a: &Fp2Element, b: &Fp2Element) -> Fp2Element {
        self.mul_on(&self.fp.tally(), a, b)
    }

    /// [`mul`](Self::mul), counted on the caller's tally.
    fn mul_on(&self, fp: &FpTally, a: &Fp2Element, b: &Fp2Element) -> Fp2Element {
        let v0 = fp.mul(&a.c0, &b.c0);
        let v1 = fp.mul(&a.c1, &b.c1);
        // (a0 + a1)(b0 + b1) = v0 + v1 + (a0b1 + a1b0)
        let cross = fp.sub(
            &fp.sub(&fp.mul(&fp.add(&a.c0, &a.c1), &fp.add(&b.c0, &b.c1)), &v0),
            &v1,
        );
        // w^2 = -w - 1: result = (v0 - v1) + (cross - v1) w
        self.from_coeffs(fp.sub(&v0, &v1), fp.sub(&cross, &v1))
    }

    /// Squaring (delegates to [`mul`](Self::mul)).
    pub fn square(&self, a: &Fp2Element) -> Fp2Element {
        self.mul(a, a)
    }

    /// The Frobenius map `a ↦ a^p`, i.e. conjugation `w ↦ w^2 = -1 - w`.
    pub fn frobenius(&self, a: &Fp2Element) -> Fp2Element {
        self.frobenius_on(&self.fp.tally(), a)
    }

    fn frobenius_on(&self, fp: &FpTally, a: &Fp2Element) -> Fp2Element {
        self.from_coeffs(fp.sub(&a.c0, &a.c1), fp.neg(&a.c1))
    }

    /// The norm `N(a) = a · a^p ∈ Fp`, equal to `c0² - c0·c1 + c1²`.
    pub fn norm(&self, a: &Fp2Element) -> FpElement {
        self.norm_on(&self.fp.tally(), a)
    }

    fn norm_on(&self, fp: &FpTally, a: &Fp2Element) -> FpElement {
        let t = fp.mul(&a.c0, &a.c1);
        fp.add(&fp.sub(&fp.square(&a.c0), &t), &fp.square(&a.c1))
    }

    /// Inversion via the norm: `a^{-1} = a^p / N(a)`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for the zero element.
    pub fn inv(&self, a: &Fp2Element) -> Result<Fp2Element, FieldError> {
        if a.is_zero() {
            return Err(FieldError::DivisionByZero);
        }
        let t = self.fp.tally();
        let n = self.norm_on(&t, a);
        let n_inv = t.inv(&n).ok_or(FieldError::DivisionByZero)?;
        let conj = self.frobenius_on(&t, a);
        Ok(self.from_coeffs(t.mul(&conj.c0, &n_inv), t.mul(&conj.c1, &n_inv)))
    }

    /// Exponentiation by square-and-multiply.
    pub fn exp(&self, base: &Fp2Element, exp: &bignum::BigUint) -> Fp2Element {
        let t = self.fp.tally();
        let mut acc = self.one();
        for i in (0..exp.bit_len()).rev() {
            acc = self.mul_on(&t, &acc, &acc);
            if exp.bit(i) {
                acc = self.mul_on(&t, &acc, base);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::BigUint;
    use rand::SeedableRng;

    fn ctx() -> Fp2Context {
        // 101 ≡ 2 (mod 3) and ≡ 2 (mod 9)
        Fp2Context::new(FpContext::new(&BigUint::from(101u64)).unwrap()).unwrap()
    }

    #[test]
    fn rejects_wrong_congruence() {
        // 97 ≡ 1 (mod 3)
        let fp = FpContext::new(&BigUint::from(97u64)).unwrap();
        assert!(matches!(
            Fp2Context::new(fp),
            Err(FieldError::UnsupportedCongruence { modulus: 3, .. })
        ));
    }

    #[test]
    fn ring_axioms_on_random_elements() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            let c = f.random(&mut rng);
            assert_eq!(f.add(&a, &b), f.add(&b, &a));
            assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
            assert_eq!(
                f.mul(&a, &f.add(&b, &c)),
                f.add(&f.mul(&a, &b), &f.mul(&a, &c))
            );
            assert_eq!(f.mul(&a, &f.one()), a);
            assert_eq!(f.add(&a, &f.zero()), a);
            assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
            assert_eq!(f.sub(&a, &b), f.add(&a, &f.neg(&b)));
        }
    }

    #[test]
    fn w_is_a_cube_root_of_unity() {
        let f = ctx();
        let w = f.from_u64_coeffs(0, 1);
        let w3 = f.mul(&f.mul(&w, &w), &w);
        assert_eq!(w3, f.one());
        assert_ne!(f.mul(&w, &w), f.one());
    }

    #[test]
    fn inversion_roundtrip() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = f.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), f.one());
        }
        assert_eq!(f.inv(&f.zero()).unwrap_err(), FieldError::DivisionByZero);
    }

    #[test]
    fn frobenius_is_field_automorphism_of_order_two() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        assert_eq!(
            f.frobenius(&f.mul(&a, &b)),
            f.mul(&f.frobenius(&a), &f.frobenius(&b))
        );
        assert_eq!(f.frobenius(&f.frobenius(&a)), a);
        // Frobenius agrees with exponentiation by p.
        assert_eq!(f.frobenius(&a), f.exp(&a, &BigUint::from(101u64)));
    }

    #[test]
    fn norm_is_multiplicative_and_in_fp() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        let na = f.norm(&a);
        let nb = f.norm(&b);
        let nab = f.norm(&f.mul(&a, &b));
        assert_eq!(nab, f.fp().mul(&na, &nb));
    }

    #[test]
    fn group_order_is_p_squared_minus_one() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let order = BigUint::from(101u64 * 101 - 1);
        for _ in 0..5 {
            let a = f.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(f.exp(&a, &order), f.one());
        }
    }
}
