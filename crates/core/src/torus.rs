//! The torus group `T6(Fp)` and its subgroup of prime order `q`.

use bignum::fixed::Uint;
use bignum::BigUint;
use field::{Fp6Element, FpElement, FpTally};
use rand::Rng;

use crate::error::CeilidhError;
use crate::params::CeilidhParams;

/// Window width of [`CeilidhParams::pow`], and tooth count of the comb
/// behind [`CeilidhParams::pow_generator`].
const WINDOW: usize = 4;

/// A 16-entry table read by a masked scan: `base^0 … base^15` for `pow`,
/// the tooth products of `g` for the comb.
pub(crate) type PowTable = [Fp6Element; 1 << WINDOW];

/// An element of the algebraic torus `T6(Fp)`, stored in representation F1.
///
/// The newtype exists so that protocol-level code cannot accidentally feed
/// arbitrary `Fp6` values (outside the torus) into group operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TorusElement {
    value: Fp6Element,
}

impl TorusElement {
    /// Wraps an `Fp6` element **without** checking torus membership.
    ///
    /// The value must lie on `T6`: [`CeilidhParams::pow`] squares with a
    /// formula that holds only there, and returns garbage for any other
    /// `Fp6` element. Intended for internal use and for benchmarks that
    /// construct elements they already know are valid; use
    /// [`CeilidhParams::lift`] otherwise.
    pub fn from_fp6_unchecked(value: Fp6Element) -> Self {
        TorusElement { value }
    }

    /// The underlying `Fp6` (representation F1) element.
    pub fn as_fp6(&self) -> &Fp6Element {
        &self.value
    }

    /// Consumes the wrapper, returning the `Fp6` element.
    pub fn into_fp6(self) -> Fp6Element {
        self.value
    }
}

impl CeilidhParams {
    /// The identity element of the torus.
    pub fn identity(&self) -> TorusElement {
        TorusElement::from_fp6_unchecked(self.fp6().one())
    }

    /// Checks whether an `Fp6` element lies on the torus `T6(Fp)`, i.e.
    /// whether its relative norms to both `Fp3` and `Fp2` equal 1.
    pub fn is_torus_member(&self, value: &Fp6Element) -> bool {
        if value.is_zero() {
            return false;
        }
        let fp6 = self.fp6();
        fp6.norm_to_fp3(value) == fp6.one() && fp6.norm_to_fp2(value) == fp6.one()
    }

    /// Checks whether an element lies in the prime-order-`q` subgroup used
    /// by the cryptosystem (a subgroup of the torus).
    pub fn is_subgroup_member(&self, value: &Fp6Element) -> bool {
        !value.is_zero() && self.fp6().exp(value, self.q()) == self.fp6().one()
    }

    /// Validates and wraps an `Fp6` element as a torus element.
    ///
    /// # Errors
    ///
    /// Returns [`CeilidhError::NotInTorus`] if the element is not on `T6`.
    pub fn lift(&self, value: Fp6Element) -> Result<TorusElement, CeilidhError> {
        if self.is_torus_member(&value) {
            Ok(TorusElement { value })
        } else {
            Err(CeilidhError::NotInTorus)
        }
    }

    /// Group multiplication on the torus (one 18M `Fp6` multiplication).
    pub fn mul(&self, a: &TorusElement, b: &TorusElement) -> TorusElement {
        TorusElement {
            value: self.fp6().mul(&a.value, &b.value),
        }
    }

    /// Group inversion. For torus elements the inverse is the `Fp3`-conjugate
    /// (`g^{-1} = g^{p³}`), a free coefficient permutation — one of the
    /// operational advantages of torus-based systems.
    pub fn invert(&self, a: &TorusElement) -> TorusElement {
        TorusElement {
            value: self.fp6().conjugate(&a.value),
        }
    }

    /// Exponentiation `base^exponent`, bit-identical to
    /// [`Fp6Context::exp`](field::Fp6Context::exp) for every `base` on `T6`
    /// (the exponent is not reduced, so bases outside the order-`q`
    /// subgroup are raised correctly too).
    ///
    /// Fixed 4-bit windows over `⌈max(bits(q), bits(exponent))/4⌉` digits,
    /// leading zero digits included: every window runs four cyclotomic
    /// squarings (6M each) and one 18M product by an entry of the table
    /// `base^0 … base^15` (14 products to build), read by a masked scan of
    /// all 16 entries. Every exponent below `2^(4⌈bits(q)/4⌉)` therefore
    /// runs the same operation sequence: 332 S + 83 M + 14 M for the
    /// 331-bit `q` of [`CeilidhParams::date2008`].
    ///
    /// `base` must lie on `T6` (every [`TorusElement`] built by this crate
    /// does); see [`TorusElement::from_fp6_unchecked`].
    pub fn pow(&self, base: &TorusElement, exponent: &BigUint) -> TorusElement {
        let fp6 = self.fp6();
        let mut table: PowTable = std::array::from_fn(|_| fp6.one());
        table[1] = base.value.clone();
        for i in 2..table.len() {
            table[i] = fp6.mul(&table[i - 1], &base.value);
        }
        let windows = self.q().bit_len().max(exponent.bit_len()).div_ceil(WINDOW);
        let t = self.fp().tally();
        let mut acc = fp6.one();
        for w in (0..windows).rev() {
            for _ in 0..WINDOW {
                acc = self.cyclotomic_square_on(&t, &acc);
            }
            let digit =
                (0..WINDOW).fold(0, |d, j| d | usize::from(exponent.bit(w * WINDOW + j)) << j);
            acc = fp6.mul(&acc, &self.select(&table, digit));
        }
        TorusElement { value: acc }
    }

    /// `g^exponent` for the subgroup generator `g`, bit-identical to
    /// [`pow`](Self::pow) on [`generator`](Self::generator).
    ///
    /// A Lim–Lee comb with four teeth `d = ⌈bits(q)/4⌉` bits apart: the
    /// table of the 16 products of `g, g^(2^d), g^(2^2d), g^(2^3d)` is
    /// built on first use (3d cyclotomic squarings and 11 products) and
    /// shared by every clone of these parameters. Each call then runs `d`
    /// cyclotomic squarings and `d` always-taken products by a
    /// masked-scan table entry — 83 S + 83 M for the 331-bit `q` of
    /// [`CeilidhParams::date2008`]. Exponents of more than `4d` bits are
    /// first reduced modulo `q`.
    pub fn pow_generator(&self, exponent: &BigUint) -> TorusElement {
        let spacing = self.comb_spacing();
        let reduced;
        let exponent = if exponent.bit_len() > WINDOW * spacing {
            reduced = exponent % self.q();
            &reduced
        } else {
            exponent
        };
        let fp6 = self.fp6();
        let table = self.comb.get_or_init(|| self.build_comb());
        let t = self.fp().tally();
        let mut acc = fp6.one();
        for i in (0..spacing).rev() {
            acc = self.cyclotomic_square_on(&t, &acc);
            let digit = (0..WINDOW).fold(0, |d, t| {
                d | usize::from(exponent.bit(t * spacing + i)) << t
            });
            acc = fp6.mul(&acc, &self.select(table, digit));
        }
        TorusElement { value: acc }
    }

    /// A uniformly random element of the order-`q` subgroup, together with
    /// its discrete logarithm to the generator.
    pub fn random_subgroup_element<R: Rng + ?Sized>(&self, rng: &mut R) -> (BigUint, TorusElement) {
        let exponent = BigUint::random_below(rng, self.q());
        let element = self.pow_generator(&exponent);
        (exponent, element)
    }

    /// Projects an arbitrary non-zero field element onto the torus by
    /// raising it to `(p^6 - 1)/Φ6(p)`. Returns `None` if the projection is
    /// the identity.
    pub fn project_to_torus(&self, value: &Fp6Element) -> Option<TorusElement> {
        if value.is_zero() {
            return None;
        }
        let p6_minus_1 = &self.p().pow(6) - &BigUint::one();
        let (exp, rem) = p6_minus_1
            .div_rem(&self.torus_order())
            .expect("torus order is non-zero");
        debug_assert!(rem.is_zero());
        let projected = self.fp6().exp(value, &exp);
        if projected == self.fp6().one() {
            None
        } else {
            Some(TorusElement { value: projected })
        }
    }

    /// The comb's tooth spacing `⌈bits(q)/4⌉`.
    fn comb_spacing(&self) -> usize {
        self.q().bit_len().div_ceil(WINDOW)
    }

    /// The comb table: entry `i` is the product of the teeth
    /// `g^(2^(t·d))` for the set bits `t` of `i` (entry 0 is 1).
    fn build_comb(&self) -> PowTable {
        let fp6 = self.fp6();
        let mut table: PowTable = std::array::from_fn(|_| fp6.one());
        let mut tooth = self.generator().into_fp6();
        let tally = self.fp().tally();
        for t in 0..WINDOW {
            if t > 0 {
                for _ in 0..self.comb_spacing() {
                    tooth = self.cyclotomic_square_on(&tally, &tooth);
                }
            }
            let bit = 1 << t;
            for low in 1..bit {
                table[bit | low] = fp6.mul(&table[low], &tooth);
            }
            table[bit] = tooth.clone();
        }
        table
    }

    /// `x²` for `x` on `T6` in 6M (Granger–Scott, PKC 2010); wrong for any
    /// other `Fp6` element.
    ///
    /// Over `Fp2 = Fp[w]/(w² + w + 1)` with `w = z³`, F1 is
    /// `Fp2[z]/(z³ - w)` and `x = a0 + a1·z + a2·z²` with
    /// `a_i = c_i + c_{i+3}·w`. Then `x² = A + 2B` and the adjugate of `x`
    /// over `Fp2` is `A - B`, for `A = a0² + w·a2²·z + a1²·z²` and
    /// `B = w·a1·a2 + a0·a1·z + a0·a2·z²`. On `T6` the adjugate
    /// `N_{Fp6/Fp2}(x)·x⁻¹` is `x^{p³}`, so `x² = 3A - 2·x^{p³}` with
    /// `x^{p³} = [c0-c3, -c2, -c1, -c3, c5-c2, c4-c1]`. Each `Fp2` square
    /// is `(u + v·w)² = (u-v)(u+v) + v(2u-v)·w`, and
    /// `w·(u + v·w) = -v + (u-v)·w`. Written straight-line (no
    /// zero-skipping helpers), so the operation count never depends on the
    /// value. Every `Fp` operation is counted on the caller's tally.
    fn cyclotomic_square_on(&self, fp: &FpTally, x: &Fp6Element) -> Fp6Element {
        let c = x.coeffs();
        // (u + v·w)² as (real, w-part).
        let fp2_square = |u: &FpElement, v: &FpElement| {
            let diff = fp.sub(u, v);
            (fp.mul(&diff, &fp.add(u, v)), fp.mul(v, &fp.add(u, &diff)))
        };
        // a0², a1² and a2²; w·a2² = -t2 + (s2 - t2)·w.
        let (s0, t0) = fp2_square(&c[0], &c[3]);
        let (s1, t1) = fp2_square(&c[1], &c[4]);
        let (s2, t2) = fp2_square(&c[2], &c[5]);
        // 3·b + 2·s as (b + s) + (b + s) + b, and 3·b - 2·s likewise.
        let plus = |b: &FpElement, s: &FpElement| {
            let d = fp.add(b, s);
            fp.add(&fp.add(&d, &d), b)
        };
        let minus = |b: &FpElement, s: &FpElement| {
            let d = fp.sub(b, s);
            fp.add(&fp.add(&d, &d), b)
        };
        // Coefficient 1: 3·(-t2) + 2·c2 = 2·(c2 - t2) - t2.
        let d1 = fp.sub(&c[2], &t2);
        let r1 = fp.sub(&fp.add(&d1, &d1), &t2);
        self.fp6().from_coeffs([
            minus(&s0, &fp.sub(&c[0], &c[3])),
            r1,
            plus(&s1, &c[1]),
            plus(&t0, &c[3]),
            minus(&fp.sub(&s2, &t2), &fp.sub(&c[5], &c[2])),
            minus(&t1, &fp.sub(&c[4], &c[1])),
        ])
    }

    /// [`cyclotomic_square_on`](Self::cyclotomic_square_on) on a tally of
    /// its own.
    #[cfg(test)]
    fn cyclotomic_square(&self, x: &Fp6Element) -> Fp6Element {
        self.cyclotomic_square_on(&self.fp().tally(), x)
    }

    /// `table[index]`, read by touching every entry: each limb is masked
    /// with all-ones when its entry's position equals `index` and with
    /// zero otherwise.
    fn select(&self, table: &PowTable, index: usize) -> Fp6Element {
        let mut out = [[0u64; 4]; 6];
        for (i, entry) in table.iter().enumerate() {
            // `i ^ index` is below 2^63, so subtracting 1 sets the top bit
            // exactly when it is zero.
            let mask = (((i ^ index) as u64).wrapping_sub(1) >> 63).wrapping_neg();
            for (o, c) in out.iter_mut().zip(entry.coeffs()) {
                for (ol, l) in o.iter_mut().zip(c.mont_repr().limbs()) {
                    *ol |= l & mask;
                }
            }
        }
        self.fp6()
            .from_coeffs(out.map(|limbs| FpElement::from_mont_repr(Uint::from_limbs(limbs))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> CeilidhParams {
        CeilidhParams::toy().unwrap()
    }

    #[test]
    fn generator_is_a_torus_member() {
        let params = params();
        let g = params.generator();
        assert!(params.is_torus_member(g.as_fp6()));
        assert!(params.is_subgroup_member(g.as_fp6()));
        assert!(params.is_torus_member(params.identity().as_fp6()));
        assert!(!params.is_torus_member(&params.fp6().zero()));
    }

    #[test]
    fn membership_by_norms_matches_membership_by_order() {
        let params = params();
        let fp6 = params.fp6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let order = params.torus_order();
        for _ in 0..20 {
            let candidate = fp6.random(&mut rng);
            if candidate.is_zero() {
                continue;
            }
            let by_norms = params.is_torus_member(&candidate);
            let by_order = fp6.exp(&candidate, &order) == fp6.one();
            assert_eq!(by_norms, by_order);
        }
    }

    #[test]
    fn group_laws() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let (_, a) = params.random_subgroup_element(&mut rng);
        let (_, b) = params.random_subgroup_element(&mut rng);
        let (_, c) = params.random_subgroup_element(&mut rng);
        assert_eq!(params.mul(&a, &b), params.mul(&b, &a));
        assert_eq!(
            params.mul(&params.mul(&a, &b), &c),
            params.mul(&a, &params.mul(&b, &c))
        );
        assert_eq!(params.mul(&a, &params.identity()), a);
        assert_eq!(params.mul(&a, &params.invert(&a)), params.identity());
    }

    #[test]
    fn conjugation_inverse_matches_field_inverse() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let (_, a) = params.random_subgroup_element(&mut rng);
        let inv = params.invert(&a);
        let field_inv = params.fp6().inv(a.as_fp6()).unwrap();
        assert_eq!(inv.as_fp6(), &field_inv);
    }

    #[test]
    fn exponentiation_laws() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        let g = params.generator();
        let x = BigUint::random_below(&mut rng, params.q());
        let y = BigUint::random_below(&mut rng, params.q());
        // g^x * g^y = g^(x+y mod q)
        let lhs = params.mul(&params.pow(&g, &x), &params.pow(&g, &y));
        let sum = bignum::mod_add(&x, &y, params.q());
        assert_eq!(lhs, params.pow(&g, &sum));
        // g^q = 1
        assert_eq!(params.pow(&g, params.q()), params.identity());
    }

    /// Random elements of the full torus: outside the order-`q` subgroup
    /// with overwhelming probability on `date2008()`.
    fn torus_elements(params: &CeilidhParams, seed: u64) -> Vec<TorusElement> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..4)
            .filter_map(|_| params.project_to_torus(&params.fp6().random(&mut rng)))
            .chain([params.identity(), params.generator()])
            .collect()
    }

    #[test]
    fn cyclotomic_square_matches_the_18m_square_on_t6() {
        // p = 101 and the 170-bit p are 2 (mod 9); p = 41 is 5 (mod 9).
        let five_mod_nine =
            CeilidhParams::from_components(&BigUint::from(41u64), &BigUint::from(547u64)).unwrap();
        for params in [params(), five_mod_nine, CeilidhParams::date2008().unwrap()] {
            for x in torus_elements(&params, 56) {
                assert_eq!(
                    params.cyclotomic_square(x.as_fp6()),
                    params.fp6().square(x.as_fp6())
                );
            }
        }
    }

    #[test]
    fn cyclotomic_square_costs_6m_whatever_the_value() {
        let params = CeilidhParams::date2008().unwrap();
        let counts: Vec<_> = torus_elements(&params, 57)
            .iter()
            .map(|x| {
                params.fp().reset_op_count();
                let _ = params.cyclotomic_square(x.as_fp6());
                params.fp().op_count()
            })
            .collect();
        assert_eq!(counts[0].mul, 6);
        assert!(counts.iter().all(|c| *c == counts[0]), "{counts:?}");
    }

    #[test]
    fn pow_and_comb_have_one_operation_sequence() {
        // After one warm-up call (the comb's table build), every exponent
        // below q costs the same Fp operations on each path.
        let params = CeilidhParams::date2008().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(58);
        let q = params.q();
        let exponents = [
            BigUint::one(),
            BigUint::one().shl_bits(330),
            q - &BigUint::one(),
            BigUint::random_below(&mut rng, q),
            BigUint::random_below(&mut rng, q),
        ];
        let base = params
            .project_to_torus(&params.fp6().random(&mut rng))
            .unwrap();
        let _ = params.pow_generator(&BigUint::one());
        let count = |run: &dyn Fn(&BigUint)| -> Vec<field::OpCount> {
            exponents
                .iter()
                .map(|e| {
                    params.fp().reset_op_count();
                    run(e);
                    params.fp().op_count()
                })
                .collect()
        };
        let pow = count(&|e| {
            let _ = params.pow(&base, e);
        });
        let comb = count(&|e| {
            let _ = params.pow_generator(e);
        });
        // 332 S (6M) + 83 M (18M) + 14 M for the table; 83 S + 83 M.
        assert_eq!(pow[0].mul, 332 * 6 + (83 + 14) * 18);
        assert_eq!(comb[0].mul, 83 * 6 + 83 * 18);
        assert!(pow.iter().all(|c| *c == pow[0]), "{pow:?}");
        assert!(comb.iter().all(|c| *c == comb[0]), "{comb:?}");
    }

    #[test]
    fn op_counts_are_pinned_on_date2008() {
        // Exact Fp operation totals on date2008(). Where a routine counts
        // (per operation or on a tally) must not move any of them; the
        // (de)compression totals are those of the constraint-quadratic
        // root filter and the p ≡ 3 (mod 4) square root.
        let params = CeilidhParams::date2008().unwrap();
        let fp6 = params.fp6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        let (a, b) = (fp6.random(&mut rng), fp6.random(&mut rng));
        let base = params.project_to_torus(&fp6.random(&mut rng)).unwrap();
        let e = BigUint::random_below(&mut rng, params.q());
        let compressed = crate::compress(&params, &base).unwrap();
        // The comb's first call also builds its table: 1692M + 8423 A/S.
        type Case<'a> = (&'a str, &'a dyn Fn(), [u64; 4]);
        let cases: [Case; 9] = [
            ("Fp6 mul", &|| _ = fp6.mul(&a, &b), [18, 20, 44, 0]),
            ("Fp6 square", &|| _ = fp6.square(&a), [18, 20, 44, 0]),
            ("Fp6 inv", &|| _ = fp6.inv(&a), [96, 119, 242, 1]),
            (
                "Fp6 norm_to_fp2",
                &|| _ = fp6.norm_to_fp2(&a),
                [36, 48, 96, 0],
            ),
            ("pow", &|| _ = params.pow(&base, &e), [3738, 8248, 8252, 0]),
            (
                "comb + pow_generator",
                &|| _ = params.pow_generator(&e),
                [1692 + 1992, 8188, 8120, 0],
            ),
            (
                "pow_generator",
                &|| _ = params.pow_generator(&e),
                [1992, 3237, 4648, 0],
            ),
            (
                "compress",
                &|| _ = crate::compress(&params, &base),
                [738, 647, 1172, 2],
            ),
            (
                "decompress",
                &|| _ = crate::decompress(&params, &compressed),
                [612, 497, 930, 2],
            ),
        ];
        for (name, run, want) in cases {
            params.fp().reset_op_count();
            run();
            let c = params.fp().op_count();
            assert_eq!([c.mul, c.add, c.sub, c.inv], want, "{name}");
        }
    }

    #[test]
    fn comb_is_shared_by_clones() {
        let params = params();
        let clone = params.clone();
        let e = BigUint::from(29u64);
        assert_eq!(
            params.pow_generator(&e),
            params.pow(&params.generator(), &e)
        );
        clone.fp().reset_op_count();
        let _ = clone.pow_generator(&e);
        // Only the comb run itself: 2 S + 2 M on the 6-bit q.
        assert_eq!(clone.fp().op_count().mul, 2 * 6 + 2 * 18);
    }

    #[test]
    fn lift_rejects_non_members() {
        let params = params();
        let bad = params.fp6().from_u64_coeffs([2, 0, 0, 0, 0, 0]);
        assert_eq!(params.lift(bad).unwrap_err(), CeilidhError::NotInTorus);
        let good = params.generator().into_fp6();
        assert!(params.lift(good).is_ok());
    }

    #[test]
    fn projection_lands_in_torus() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..10 {
            let v = params.fp6().random(&mut rng);
            if v.is_zero() {
                continue;
            }
            if let Some(t) = params.project_to_torus(&v) {
                assert!(params.is_torus_member(t.as_fp6()));
            }
        }
        assert!(params.project_to_torus(&params.fp6().zero()).is_none());
    }
}
