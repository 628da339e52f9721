//! Short-Weierstrass curves `y² = x³ + ax + b` over `Fp` and their group law.

use std::sync::{Arc, OnceLock};

use bignum::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};
use bignum::BigUint;
use field::{FieldError, FpContext, FpElement};
use rand::Rng;

use crate::error::EccError;
use crate::params::{P160Reproduction, Toy};
use crate::point::{AffinePoint, JacobianPoint};
use crate::scalar::CombTable;

/// A short-Weierstrass curve over a prime field, together with a base point.
///
/// See the crate-level docs for a key-exchange example. Curves come from
/// three places, all funnelling through the same validation:
///
/// * [`Curve::from_parameters::<E>()`](Curve::from_parameters) — a
///   registered marker type ([`crate::WeierstrassParameters`]): the
///   standards curves [`crate::Secp256k1`] and [`crate::P256`], the
///   paper's [`crate::P160Reproduction`] and the tiny [`crate::Toy`]
///   validation curve (or [`Curve::by_name`] for the string-keyed lookup);
/// * [`CurveSpec`] — explicit parameters with named fields, for curves
///   outside the registry;
/// * [`Curve::p160_reproduction`] / [`Curve::toy`] — shorthands for the
///   two reproduction markers.
#[derive(Clone)]
pub struct Curve {
    fp: FpContext,
    a: FpElement,
    b: FpElement,
    base: AffinePoint,
    order: Option<BigUint>,
    cofactor: BigUint,
    bits: usize,
    name: &'static str,
    // Whether a ≡ -3 (mod p), precomputed so the per-doubling dispatch
    // to the shortened formulas costs a bool instead of a conversion.
    a_minus_three: bool,
    // A copy of the field's Montgomery context, held inline so the point
    // formulas reach `mont_mul` without a pointer chase through `fp`.
    ctx: MontgomeryContext<4>,
    // The constant 3, the fast doubling's tangent factor.
    three: FpElement,
    // The base point's comb table, built on first use and shared across
    // clones (see `Curve::scalar_mul`).
    pub(crate) comb: Arc<OnceLock<CombTable>>,
}

/// Explicit curve parameters with named fields — the builder behind every
/// [`Curve`] constructor.
///
/// [`CurveSpec::new`] takes the five parameters every curve needs (field
/// prime, coefficients, generator coordinates); the optional ones chain:
///
/// ```
/// use bignum::BigUint;
/// use ecc::{Curve, CurveSpec};
///
/// let curve = CurveSpec::new(
///     BigUint::from(1009u64), // p
///     BigUint::from(1u64),    // a
///     BigUint::from(6u64),    // b
///     BigUint::from(1u64),    // generator x
///     BigUint::from(878u64),  // generator y
/// )
/// .order(BigUint::from(1020u64))
/// .name("toy-1009")
/// .build()?;
/// assert_eq!(curve.name(), "toy-1009");
/// # Ok::<(), ecc::EccError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CurveSpec {
    /// The field prime `p`.
    pub p: BigUint,
    /// The coefficient `a`.
    pub a: BigUint,
    /// The coefficient `b`.
    pub b: BigUint,
    /// Affine x-coordinate of the generator.
    pub generator_x: BigUint,
    /// Affine y-coordinate of the generator.
    pub generator_y: BigUint,
    /// The group order, when known (`None` for uncertified curves).
    pub order: Option<BigUint>,
    /// The cofactor `h` (defaults to 1).
    pub cofactor: BigUint,
    /// Canonical operand size in bits (defaults to the prime's bit
    /// length) — the size the platform cycle model quotes rows at.
    pub bits: Option<usize>,
    /// Curve name, carried into [`Curve::name`] (defaults to
    /// `"custom"`).
    pub name: &'static str,
}

impl CurveSpec {
    /// Starts a spec from the required parameters: field prime,
    /// coefficients and generator coordinates.
    pub fn new(
        p: BigUint,
        a: BigUint,
        b: BigUint,
        generator_x: BigUint,
        generator_y: BigUint,
    ) -> Self {
        CurveSpec {
            p,
            a,
            b,
            generator_x,
            generator_y,
            order: None,
            cofactor: BigUint::one(),
            bits: None,
            name: "custom",
        }
    }

    /// Declares the group order.
    pub fn order(mut self, order: BigUint) -> Self {
        self.order = Some(order);
        self
    }

    /// Declares the group order from an `Option` (chaining convenience
    /// for trait-driven construction).
    pub fn maybe_order(mut self, order: Option<BigUint>) -> Self {
        self.order = order;
        self
    }

    /// Declares the cofactor.
    pub fn cofactor(mut self, cofactor: BigUint) -> Self {
        self.cofactor = cofactor;
        self
    }

    /// Declares the canonical operand size in bits.
    pub fn bits(mut self, bits: usize) -> Self {
        self.bits = Some(bits);
        self
    }

    /// Names the curve.
    pub fn name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Validates the spec and builds the [`Curve`] — shorthand for
    /// [`Curve::from_spec`].
    ///
    /// # Errors
    ///
    /// See [`Curve::from_spec`].
    pub fn build(self) -> Result<Curve, EccError> {
        Curve::from_spec(self)
    }
}

/// Computes the [`Curve::a_is_minus_three`] invariant once, at
/// construction time.
fn a_is_minus_three(fp: &FpContext, a: &FpElement) -> bool {
    let p = fp.modulus();
    *p > BigUint::from(3u64) && fp.to_biguint(a) == p - &BigUint::from(3u64)
}

impl std::fmt::Debug for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Curve({}, {} bits)", self.name, self.fp.bit_len())
    }
}

impl Curve {
    /// Validates a [`CurveSpec`] and builds the curve.
    ///
    /// This is the single construction path: the trait-driven
    /// [`Curve::from_parameters`] and [`CurveSpec::build`] both funnel
    /// through it, so every curve gets the same checks — `p` must make a
    /// usable field, the discriminant `4a³ + 27b²` must be non-zero, and
    /// the generator must satisfy the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] naming the offending spec
    /// field (`"p"`, `"a/b"` or `"generator"`); a prime wider than
    /// [`FpContext::MAX_BITS`] is rejected as `"p"`.
    pub fn from_spec(spec: CurveSpec) -> Result<Self, EccError> {
        let CurveSpec {
            p,
            a,
            b,
            generator_x,
            generator_y,
            order,
            cofactor,
            bits,
            name,
        } = spec;
        let fp = FpContext::new(&p).map_err(|e| EccError::InvalidParameters {
            field: "p",
            reason: match e {
                FieldError::ModulusTooWide { .. } => "wider than 256 bits",
                _ => "not a usable field modulus",
            },
        })?;
        let a = fp.from_biguint(&a);
        let b = fp.from_biguint(&b);
        // Discriminant 4a³ + 27b² must be non-zero.
        let disc = fp.add(
            &fp.mul(&fp.from_u64(4), &fp.mul(&a, &fp.square(&a))),
            &fp.mul(&fp.from_u64(27), &fp.square(&b)),
        );
        if disc.is_zero() {
            return Err(EccError::InvalidParameters {
                field: "a/b",
                reason: "discriminant 4a³ + 27b² vanishes (singular curve)",
            });
        }
        let a_minus_three = a_is_minus_three(&fp, &a);
        let bits = bits.unwrap_or_else(|| fp.bit_len());
        let curve = Curve {
            fp: fp.clone(),
            a,
            b,
            base: AffinePoint::Infinity,
            order,
            cofactor,
            bits,
            name,
            a_minus_three,
            ctx: fp.mont_context().clone(),
            three: fp.from_u64(3),
            comb: Arc::new(OnceLock::new()),
        };
        let base = curve
            .lift(
                &fp.from_biguint(&generator_x),
                &fp.from_biguint(&generator_y),
            )
            .map_err(|_| EccError::InvalidParameters {
                field: "generator",
                reason: "not on the curve",
            })?;
        Ok(Curve { base, ..curve })
    }

    /// The 160-bit curve used to reproduce the paper's "160-bit ECC" rows —
    /// shorthand for
    /// [`Curve::from_parameters::<P160Reproduction>()`](crate::P160Reproduction):
    /// `p = 2^160 - 2^31 - 1`, `a = -3`, and a small `b` chosen so the curve
    /// is non-singular.
    ///
    /// The group order of this locally generated curve is *not* certified
    /// (point counting is out of scope); the reproduction only needs field
    /// and curve arithmetic at the 160-bit operand size (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`Curve::from_spec`].
    pub fn p160_reproduction() -> Result<Self, EccError> {
        Curve::from_parameters::<P160Reproduction>()
    }

    /// A tiny curve over `p = 1009` whose group order was computed by
    /// exhaustive point counting — shorthand for
    /// [`Curve::from_parameters::<Toy>()`](crate::Toy); used to validate
    /// the group law and scalar multiplication against first principles.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants.
    pub fn toy() -> Result<Self, EccError> {
        Curve::from_parameters::<Toy>()
    }

    /// The base prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The coefficient `a`.
    pub fn a(&self) -> &FpElement {
        &self.a
    }

    /// Returns `true` when the curve coefficient satisfies `a = -3`
    /// (i.e. `a ≡ p - 3 mod p`), the precondition of the shortened
    /// doubling formulas ([`Curve::jacobian_double_fast`]). Holds for
    /// [`Curve::p160_reproduction`], as for most standardized curves.
    pub fn a_is_minus_three(&self) -> bool {
        self.a_minus_three
    }

    /// The coefficient `b`.
    pub fn b(&self) -> &FpElement {
        &self.b
    }

    /// The curve name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The base point.
    pub fn base_point(&self) -> &AffinePoint {
        &self.base
    }

    /// The group order, when known (the published `n` for the standards
    /// curves, the exhaustively counted order for [`Curve::toy`]; `None`
    /// for curves whose order was never declared).
    pub fn order(&self) -> Option<&BigUint> {
        self.order.as_ref()
    }

    /// The cofactor `h` (`#E(Fp) = h · n`); 1 for every registered curve.
    pub fn cofactor(&self) -> &BigUint {
        &self.cofactor
    }

    /// Canonical operand size in bits — the bit-length the platform cycle
    /// model quotes this curve's rows at (the prime's bit length unless
    /// the spec declared otherwise).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The right-hand side `x³ + ax + b` of the curve equation.
    fn rhs(&self, x: &FpElement) -> FpElement {
        let fp = &self.fp;
        fp.add(
            &fp.add(&fp.mul(x, &fp.square(x)), &fp.mul(&self.a, x)),
            &self.b,
        )
    }

    /// Checks the curve equation for a point.
    pub fn is_on_curve(&self, point: &AffinePoint) -> bool {
        match point.coordinates() {
            None => true,
            Some((x, y)) => self.fp.square(y) == self.rhs(x),
        }
    }

    /// Validates coordinates and returns the corresponding point.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::PointNotOnCurve`] if the equation is not satisfied.
    pub fn lift(&self, x: &FpElement, y: &FpElement) -> Result<AffinePoint, EccError> {
        let p = AffinePoint::new(*x, *y);
        if self.is_on_curve(&p) {
            Ok(p)
        } else {
            Err(EccError::PointNotOnCurve)
        }
    }

    /// Negates a point.
    pub fn negate(&self, point: &AffinePoint) -> AffinePoint {
        match point {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => AffinePoint::Point {
                x: *x,
                y: self.fp.neg(y),
            },
        }
    }

    /// Affine point addition (one inversion per addition): the
    /// chord-and-tangent law, through counted [`FpContext`] calls. It
    /// shares no formula with the Jacobian ladders, which is what makes
    /// [`Curve::scalar_mul_reference`] an independent oracle.
    pub fn add(&self, p: &AffinePoint, q: &AffinePoint) -> AffinePoint {
        let fp = &self.fp;
        match (p, q) {
            (AffinePoint::Infinity, _) => q.clone(),
            (_, AffinePoint::Infinity) => p.clone(),
            (AffinePoint::Point { x: x1, y: y1 }, AffinePoint::Point { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 && !y1.is_zero() {
                        return self.double(p);
                    }
                    return AffinePoint::Infinity;
                }
                let lambda = fp.mul(&fp.sub(y2, y1), &fp.inv(&fp.sub(x2, x1)).expect("x2 != x1"));
                let x3 = fp.sub(&fp.sub(&fp.square(&lambda), x1), x2);
                let y3 = fp.sub(&fp.mul(&lambda, &fp.sub(x1, &x3)), y1);
                AffinePoint::Point { x: x3, y: y3 }
            }
        }
    }

    /// Affine point doubling (the tangent case of [`Curve::add`]).
    pub fn double(&self, p: &AffinePoint) -> AffinePoint {
        let fp = &self.fp;
        match p {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => {
                if y.is_zero() {
                    return AffinePoint::Infinity;
                }
                let numer = fp.add(&fp.mul(&fp.from_u64(3), &fp.square(x)), &self.a);
                let lambda = fp.mul(&numer, &fp.inv(&fp.double(y)).expect("y != 0"));
                let x3 = fp.sub(&fp.sub(&fp.square(&lambda), x), x);
                let y3 = fp.sub(&fp.mul(&lambda, &fp.sub(x, &x3)), y);
                AffinePoint::Point { x: x3, y: y3 }
            }
        }
    }

    // Field arithmetic for the Jacobian formulas: straight on the inline
    // Montgomery context, recording nothing into the op counter.

    #[inline]
    fn fmul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpElement::from_mont_repr(self.ctx.mont_mul(a.mont_repr(), b.mont_repr()))
    }

    #[inline]
    fn fsqr(&self, a: &FpElement) -> FpElement {
        self.fmul(a, a)
    }

    #[inline]
    fn fadd(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpElement::from_mont_repr(add_mod(a.mont_repr(), b.mont_repr(), self.ctx.modulus()))
    }

    #[inline]
    fn fsub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpElement::from_mont_repr(sub_mod(a.mont_repr(), b.mont_repr(), self.ctx.modulus()))
    }

    #[inline]
    pub(crate) fn fneg(&self, a: &FpElement) -> FpElement {
        FpElement::from_mont_repr(neg_mod(a.mont_repr(), self.ctx.modulus()))
    }

    #[inline]
    fn fdbl(&self, a: &FpElement) -> FpElement {
        self.fadd(a, a)
    }

    /// The Jacobian point at infinity, `(1 : 1 : 0)`.
    pub(crate) fn jacobian_infinity(&self) -> JacobianPoint {
        let one = FpElement::from_mont_repr(self.ctx.one_mont());
        JacobianPoint {
            x: one,
            y: one,
            z: FpElement::from_mont_repr(Uint::ZERO),
        }
    }

    /// Converts an affine point to Jacobian coordinates.
    pub fn to_jacobian(&self, p: &AffinePoint) -> JacobianPoint {
        match p.coordinates() {
            None => self.jacobian_infinity(),
            Some((x, y)) => JacobianPoint {
                x: *x,
                y: *y,
                z: FpElement::from_mont_repr(self.ctx.one_mont()),
            },
        }
    }

    /// `(X·Z⁻², Y·Z⁻³)` for a finite point, given `Z⁻¹`.
    fn normalize(&self, p: &JacobianPoint, z_inv: &FpElement) -> AffinePoint {
        let z_inv2 = self.fsqr(z_inv);
        AffinePoint::Point {
            x: self.fmul(&p.x, &z_inv2),
            y: self.fmul(&p.y, &self.fmul(&z_inv2, z_inv)),
        }
    }

    /// Converts a Jacobian point back to affine coordinates (one Fermat
    /// inversion).
    pub fn to_affine(&self, p: &JacobianPoint) -> AffinePoint {
        match self.ctx.mont_inv_prime(p.z.mont_repr()) {
            None => AffinePoint::Infinity,
            Some(z_inv) => self.normalize(p, &FpElement::from_mont_repr(z_inv)),
        }
    }

    /// Converts a slice of Jacobian points to affine coordinates with
    /// **one** shared inversion (Montgomery's trick: one Fermat inversion
    /// plus `3(n-1)` multiplications) instead of one per point. Points at
    /// infinity come back as [`AffinePoint::Infinity`].
    pub(crate) fn batch_to_affine(&self, points: &[JacobianPoint]) -> Vec<AffinePoint> {
        let mut z_invs: Vec<Uint<4>> = points
            .iter()
            .filter(|p| !p.is_infinity())
            .map(|p| *p.z.mont_repr())
            .collect();
        let mut scratch = vec![Uint::ZERO; z_invs.len()];
        let inverted = self.ctx.mont_inv_batch(&mut z_invs, &mut scratch);
        debug_assert!(inverted, "finite points have non-zero z");
        let mut z_invs = z_invs.into_iter();
        points
            .iter()
            .map(|p| {
                if p.is_infinity() {
                    return AffinePoint::Infinity;
                }
                let z_inv = z_invs.next().expect("one inverse per finite point");
                self.normalize(p, &FpElement::from_mont_repr(z_inv))
            })
            .collect()
    }

    /// Jacobian point doubling (the paper's PD sequence; inversion-free).
    ///
    /// On curves with `a = -3` this dispatches to the shortened
    /// [`Curve::jacobian_double_fast`] formulas (identical result, two
    /// fewer field multiplications) — the same substitution the
    /// platform's ladder driver makes with its `fast_pd` cost-model knob.
    pub fn jacobian_double(&self, p: &JacobianPoint) -> JacobianPoint {
        if self.a_minus_three {
            return self.jacobian_double_fast(p);
        }
        if p.is_infinity() || p.y.is_zero() {
            return self.jacobian_infinity();
        }
        let a_sq = self.fsqr(&p.x); // X1²
        let b_sq = self.fsqr(&p.y); // Y1²
        let c = self.fsqr(&b_sq); // Y1⁴
                                  // D = 2((X1 + B)² - A - C)
        let d = self.fdbl(&self.fsub(&self.fsub(&self.fsqr(&self.fadd(&p.x, &b_sq)), &a_sq), &c));
        // E = 3A + a·Z1⁴
        let z2 = self.fsqr(&p.z);
        let e = self.fadd(
            &self.fadd(&self.fdbl(&a_sq), &a_sq),
            &self.fmul(&self.a, &self.fsqr(&z2)),
        );
        let f = self.fsqr(&e);
        let x3 = self.fsub(&f, &self.fdbl(&d));
        let eight_c = self.fdbl(&self.fdbl(&self.fdbl(&c)));
        let y3 = self.fsub(&self.fmul(&e, &self.fsub(&d, &x3)), &eight_c);
        let z3 = self.fdbl(&self.fmul(&p.y, &p.z));
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Shortened Jacobian doubling for curves with `a = -3` (the
    /// "dbl-2001-b" formulas): the tangent numerator factors as
    /// `3·X1² + a·Z1⁴ = 3·(X1 - Z1²)·(X1 + Z1²)`, saving two field
    /// multiplications over the general [`Curve::jacobian_double`]. This
    /// is the host-level counterpart of the platform's 8-MM
    /// `ecc_pd_fast` sequence.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `a = -3`; on other curves the result would be
    /// wrong, so callers must check [`Curve::a_is_minus_three`] first
    /// (the general doubling does this and dispatches automatically).
    pub fn jacobian_double_fast(&self, p: &JacobianPoint) -> JacobianPoint {
        debug_assert!(self.a_minus_three, "fast doubling requires a = -3");
        if p.is_infinity() || p.y.is_zero() {
            return self.jacobian_infinity();
        }
        let delta = self.fsqr(&p.z); // Z1²
        let gamma = self.fsqr(&p.y); // Y1²
        let beta = self.fmul(&p.x, &gamma); // X1·Y1²
        let alpha = self.fmul(
            &self.three,
            &self.fmul(&self.fsub(&p.x, &delta), &self.fadd(&p.x, &delta)),
        );
        let beta4 = self.fdbl(&self.fdbl(&beta));
        let x3 = self.fsub(&self.fsqr(&alpha), &self.fdbl(&beta4));
        let y3 = self.fsub(
            &self.fmul(&alpha, &self.fsub(&beta4, &x3)),
            &self.fdbl(&self.fdbl(&self.fdbl(&self.fsqr(&gamma)))),
        );
        let z3 = self.fdbl(&self.fmul(&p.y, &p.z));
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed-coordinate point addition: Jacobian `p` plus **affine** `q`
    /// (the paper's PA sequence with `Z2 = 1`; inversion-free).
    ///
    /// This is the only addition the scalar-multiplication ladders
    /// perform — their addends are the affine point, its negation or
    /// batch-normalized table entries — and the shape the platform
    /// formula database's 13-multiplication `madd` entry prices: `Z2 = 1`
    /// makes `U1 = X1` and `S1 = Y1`, eliminating three of the general
    /// sequence's Montgomery products and collapsing the `Z3` tail to
    /// `2·Z1·H`. The degenerate cases (either operand at infinity,
    /// `q = ±p`) agree with the affine [`Curve::add`].
    pub fn jacobian_add_mixed(&self, p: &JacobianPoint, q: &AffinePoint) -> JacobianPoint {
        let Some((x2, y2)) = q.coordinates() else {
            return *p;
        };
        if p.is_infinity() {
            return self.to_jacobian(q);
        }
        let z1z1 = self.fsqr(&p.z);
        let u2 = self.fmul(x2, &z1z1);
        let s2 = self.fmul(y2, &self.fmul(&p.z, &z1z1));
        if u2 == p.x {
            if s2 == p.y {
                return self.jacobian_double(p);
            }
            return self.jacobian_infinity();
        }
        let h = self.fsub(&u2, &p.x);
        let i = self.fsqr(&self.fdbl(&h));
        let j = self.fmul(&h, &i);
        let r = self.fdbl(&self.fsub(&s2, &p.y));
        let v = self.fmul(&p.x, &i);
        let x3 = self.fsub(&self.fsub(&self.fsqr(&r), &j), &self.fdbl(&v));
        let y3 = self.fsub(
            &self.fmul(&r, &self.fsub(&v, &x3)),
            &self.fdbl(&self.fmul(&p.y, &j)),
        );
        let z3 = self.fdbl(&self.fmul(&p.z, &h));
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Compresses a finite point to `(x, parity-of-y)`.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::PointAtInfinity`] for the identity.
    pub fn compress_point(&self, p: &AffinePoint) -> Result<(BigUint, bool), EccError> {
        match p {
            AffinePoint::Infinity => Err(EccError::PointAtInfinity),
            AffinePoint::Point { x, y } => {
                Ok((self.fp.to_biguint(x), self.fp.to_biguint(y).bit(0)))
            }
        }
    }

    /// Decompresses `(x, parity)` back to a point. Every point has exactly
    /// one encoding: `x` must be canonical (`x < p`), and a point with
    /// `y = 0` has no odd root.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidCompressedPoint`] if `x ≥ p`, if
    /// `x³ + ax + b` is not a square, or if `y_is_odd` asks for an odd
    /// `y = 0`.
    pub fn decompress_point(&self, x: &BigUint, y_is_odd: bool) -> Result<AffinePoint, EccError> {
        let x = self
            .fp
            .from_canonical(x)
            .ok_or(EccError::InvalidCompressedPoint)?;
        let point = self
            .lift_x(&x, y_is_odd)
            .ok_or(EccError::InvalidCompressedPoint)?;
        match self.compress_point(&point) {
            Ok((_, odd)) if odd == y_is_odd => Ok(point),
            _ => Err(EccError::InvalidCompressedPoint),
        }
    }

    /// A uniformly random point obtained by sampling x-coordinates until the
    /// curve equation has a solution.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> AffinePoint {
        loop {
            let x = self.fp.random(rng);
            if let Some(p) = self.lift_x(&x, rng.gen()) {
                return p;
            }
        }
    }

    /// Lifts an x-coordinate to a point if possible, choosing the root by
    /// `odd_y` (a point with `y = 0` is returned whatever `odd_y` asks).
    pub fn lift_x(&self, x: &FpElement, odd_y: bool) -> Option<AffinePoint> {
        let fp = &self.fp;
        let rhs = self.rhs(x);
        let y = if rhs.is_zero() { rhs } else { fp.sqrt(&rhs)? };
        let y = if fp.to_biguint(&y).bit(0) == odd_y {
            y
        } else {
            fp.neg(&y)
        };
        Some(AffinePoint::Point { x: *x, y })
    }

    /// Finds the first point with `x >= start` by scanning x-coordinates
    /// (test-side pin for the hardcoded generators in `params.rs`).
    #[cfg(test)]
    fn find_point_from(&self, start: u64) -> Option<AffinePoint> {
        for xi in start..start + 1000 {
            let x = self.fp.from_u64(xi);
            if let Some(p) = self.lift_x(&x, false) {
                return Some(p);
            }
        }
        None
    }

    /// Exhaustively counts the points on the curve (tiny fields only;
    /// test-side pin for the hardcoded toy order in `params.rs`).
    #[cfg(test)]
    fn count_points_exhaustively(&self) -> BigUint {
        let p = self.fp.modulus().to_u64().expect("toy field fits in u64");
        let mut count = 1u64; // point at infinity
        for xi in 0..p {
            let rhs = self.rhs(&self.fp.from_u64(xi));
            if rhs.is_zero() {
                count += 1;
            } else if self.fp.is_square(&rhs) {
                count += 2;
            }
        }
        BigUint::from(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WeierstrassParameters;
    use rand::SeedableRng;

    #[test]
    fn p160_prime_and_curve_are_sane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = P160Reproduction::prime();
        assert_eq!(p.bit_len(), 160);
        assert!(
            bignum::is_prime(&p, &mut rng),
            "2^160 - 2^31 - 1 must be prime"
        );
        let curve = Curve::p160_reproduction().unwrap();
        assert!(curve.is_on_curve(curve.base_point()));
        assert!(!curve.base_point().is_infinity());
    }

    #[test]
    fn unusable_moduli_are_rejected_naming_p() {
        // Even p cannot back a Montgomery field context.
        let err = CurveSpec::new(
            BigUint::from(4u64),
            BigUint::one(),
            BigUint::from(6u64),
            BigUint::one(),
            BigUint::one(),
        )
        .build()
        .unwrap_err();
        assert!(matches!(
            err,
            EccError::InvalidParameters { field: "p", .. }
        ));
    }

    #[test]
    fn singular_curves_are_rejected() {
        // y² = x³ (a = b = 0) is singular.
        let err = CurveSpec::new(
            BigUint::from(1009u64),
            BigUint::zero(),
            BigUint::zero(),
            BigUint::one(),
            BigUint::one(),
        )
        .name("singular")
        .build()
        .unwrap_err();
        assert!(matches!(
            err,
            EccError::InvalidParameters { field: "a/b", .. }
        ));
    }

    #[test]
    fn base_point_must_be_on_curve() {
        let err = CurveSpec::new(
            BigUint::from(1009u64),
            BigUint::one(),
            BigUint::from(6u64),
            BigUint::from(123u64),
            BigUint::from(456u64),
        )
        .name("bad-base")
        .build();
        assert!(matches!(
            err,
            Err(EccError::InvalidParameters {
                field: "generator",
                ..
            })
        ));
    }

    #[test]
    fn hardcoded_generators_match_a_fresh_scan() {
        // params.rs pins the generators the original constructors found by
        // scanning x = 1, 2, ... — re-run the scan and compare.
        for curve in [Curve::toy().unwrap(), Curve::p160_reproduction().unwrap()] {
            let scanned = curve.find_point_from(1).expect("scan finds a point");
            assert_eq!(
                &scanned,
                curve.base_point(),
                "{}: hardcoded generator drifted from the scan",
                curve.name()
            );
        }
    }

    #[test]
    fn hardcoded_toy_order_matches_a_fresh_count() {
        let curve = Curve::toy().unwrap();
        assert_eq!(
            curve.count_points_exhaustively(),
            curve.order().unwrap().clone(),
            "hardcoded toy order drifted from the exhaustive count"
        );
    }

    #[test]
    fn toy_group_order_annihilates_points() {
        let curve = Curve::toy().unwrap();
        let order = curve.order().unwrap().clone();
        // Hasse bound: |N - (p+1)| <= 2*sqrt(p)  (sqrt(1009) ≈ 31.8)
        let n = order.to_u64().unwrap() as i64;
        assert!((n - 1010).abs() <= 64, "order {n} violates the Hasse bound");
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let p = curve.random_point(&mut rng);
            let result = curve.scalar_mul(&p, &order, crate::ScalarMulAlgorithm::DoubleAndAdd);
            assert!(result.is_infinity(), "N·P must be the identity");
        }
    }

    #[test]
    fn affine_group_laws() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let r = curve.random_point(&mut rng);
            // Commutativity and associativity.
            assert_eq!(curve.add(&p, &q), curve.add(&q, &p));
            assert_eq!(
                curve.add(&curve.add(&p, &q), &r),
                curve.add(&p, &curve.add(&q, &r))
            );
            // Identity and inverse.
            assert_eq!(curve.add(&p, &AffinePoint::Infinity), p);
            assert!(curve.add(&p, &curve.negate(&p)).is_infinity());
            // Closure.
            assert!(curve.is_on_curve(&curve.add(&p, &q)));
            assert!(curve.is_on_curve(&curve.double(&p)));
            // Doubling consistency.
            assert_eq!(curve.double(&p), curve.add(&p, &p));
        }
    }

    #[test]
    fn jacobian_matches_affine() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            assert_eq!(
                curve.to_affine(&curve.jacobian_add_mixed(&jp, &q)),
                curve.add(&p, &q)
            );
            assert_eq!(
                curve.to_affine(&curve.jacobian_double(&jp)),
                curve.double(&p)
            );
            // A generic-Z accumulator: 2P + Q against the affine law.
            let two_p = curve.jacobian_double(&jp);
            assert_eq!(
                curve.to_affine(&curve.jacobian_add_mixed(&two_p, &q)),
                curve.add(&curve.double(&p), &q)
            );
            // Adding a point to itself through the Jacobian path degrades to
            // doubling correctly, and adding its negation cancels.
            assert_eq!(
                curve.to_affine(&curve.jacobian_add_mixed(&jp, &p)),
                curve.double(&p)
            );
            assert!(curve
                .jacobian_add_mixed(&jp, &curve.negate(&p))
                .is_infinity());
        }
        // Infinity handling.
        let inf = curve.to_jacobian(&AffinePoint::Infinity);
        let p = curve.random_point(&mut rng);
        let jp = curve.to_jacobian(&p);
        assert_eq!(curve.to_affine(&curve.jacobian_add_mixed(&inf, &p)), p);
        assert_eq!(
            curve.to_affine(&curve.jacobian_add_mixed(&jp, &AffinePoint::Infinity)),
            p
        );
        assert!(curve.to_affine(&inf).is_infinity());
    }

    #[test]
    fn fast_doubling_matches_general_on_minus_three_curves() {
        let curve = Curve::p160_reproduction().unwrap();
        assert!(curve.a_is_minus_three());
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..5 {
            let p = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            // Against first principles (affine doubling) and with a
            // generic-Z input.
            assert_eq!(
                curve.to_affine(&curve.jacobian_double_fast(&jp)),
                curve.double(&p)
            );
            let generic_z = curve.jacobian_add_mixed(&jp, &p);
            assert_eq!(
                curve.to_affine(&curve.jacobian_double_fast(&generic_z)),
                curve.double(&curve.double(&p))
            );
        }
        // Degenerate inputs collapse to infinity, as in the general path.
        let inf = curve.to_jacobian(&AffinePoint::Infinity);
        assert!(curve.jacobian_double_fast(&inf).is_infinity());
        // The toy curve (a = 1) must not qualify.
        assert!(!Curve::toy().unwrap().a_is_minus_three());
    }

    #[test]
    fn point_compression_roundtrip() {
        for curve in [Curve::toy().unwrap(), Curve::p160_reproduction().unwrap()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            for _ in 0..5 {
                let p = curve.random_point(&mut rng);
                let (x, odd) = curve.compress_point(&p).unwrap();
                assert_eq!(curve.decompress_point(&x, odd).unwrap(), p);
            }
            assert!(matches!(
                curve.compress_point(&AffinePoint::Infinity),
                Err(EccError::PointAtInfinity)
            ));
        }
    }

    #[test]
    fn decompression_accepts_only_canonical_encodings() {
        for curve in [Curve::toy().unwrap(), Curve::p160_reproduction().unwrap()] {
            let p = curve.fp().modulus().clone();
            let (x, odd) = curve.compress_point(curve.base_point()).unwrap();
            assert_eq!(
                curve.decompress_point(&x, odd).as_ref(),
                Ok(curve.base_point())
            );
            // x + p names the same residue but is not its encoding.
            assert_eq!(
                curve.decompress_point(&(&x + &p), odd),
                Err(EccError::InvalidCompressedPoint),
                "{}",
                curve.name()
            );
        }
        // Toy's 2-torsion point (387, 0) has y = 0, which is even: the odd
        // parity bit names no point.
        let toy = Curve::toy().unwrap();
        let x = BigUint::from(387u64);
        let two_torsion = toy.decompress_point(&x, false).unwrap();
        assert_eq!(two_torsion.coordinates().unwrap().1, &toy.fp().zero());
        assert_eq!(
            toy.compress_point(&two_torsion).unwrap(),
            (x.clone(), false)
        );
        assert_eq!(
            toy.decompress_point(&x, true),
            Err(EccError::InvalidCompressedPoint)
        );
    }

    #[test]
    fn lift_rejects_points_off_curve() {
        let curve = Curve::toy().unwrap();
        let bad = curve.lift(&curve.fp().from_u64(5), &curve.fp().from_u64(5));
        // Either (5,5) happens to be on the curve (unlikely) or it is rejected.
        if let Err(e) = bad {
            assert_eq!(e, EccError::PointNotOnCurve);
        }
    }
}
