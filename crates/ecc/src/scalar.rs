//! Scalar multiplication.
//!
//! The full 160-bit scalar multiplication is the operation behind Table 3's
//! "160-bit ECC: 9.4 ms" row. Three algorithms are selectable
//! ([`ScalarMulAlgorithm`]). Each ladder accumulates in Jacobian
//! coordinates and converts back to affine once at the end, through one
//! body per formula:
//!
//! * doublings go through [`Curve::jacobian_double`], which on `a = -3`
//!   curves (the reproduction curve included) dispatches to the shortened
//!   [`Curve::jacobian_double_fast`] — the access pattern the platform's
//!   8-multiplication `ecc_pd_fast` sequence prices;
//! * additions go through [`Curve::jacobian_add_mixed`] (`Z2 = 1`), the
//!   platform's 13-multiplication `pa_mixed` sequence. Every addend is an
//!   [`AffinePoint`]: the input point, its negation, or an entry of a
//!   table batch-normalized with one shared inversion.
//!
//! The formulas run straight on the field's Montgomery context: no point
//! formula records into the field's op counter, and double-and-add
//! allocates nothing from the first doubling through the final inversion.
//!
//! [`Curve::scalar_mul_reference`] is the oracle the ladders are tested
//! against. It runs the same digit recodings over the affine
//! chord-and-tangent law ([`Curve::add`], [`Curve::double`]), so it
//! shares no Jacobian formula with the code it checks.

use bignum::BigUint;

use crate::curve::Curve;
use crate::point::{AffinePoint, JacobianPoint};

/// Scalar-multiplication algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarMulAlgorithm {
    /// Left-to-right double-and-add (one PA per set bit).
    DoubleAndAdd,
    /// Signed-digit non-adjacent form (PA on roughly one third of the digits).
    Naf,
    /// Fixed 4-bit windows with a precomputed table (a fixed-base comb on
    /// the curve's base point).
    Window4,
}

/// Width of the `Window4` ladder's digits.
const WINDOW: usize = 4;
/// Comb tooth count: each comb step assembles one digit from four equally
/// spaced scalar bits.
const COMB_TEETH: usize = 4;
/// Distance between comb teeth — also the number of comb doublings.
const COMB_SPACING: usize = 64;

/// The base point's Lim–Lee comb table: entry `d - 1` holds
/// `Σ_t (d >> t & 1) · 2^(64t) · G` for each non-zero digit `d`.
pub(crate) type CombTable = [AffinePoint; (1 << COMB_TEETH) - 1];

impl Curve {
    /// Computes `k · point` with the selected algorithm, for scalars of
    /// any width.
    ///
    /// `DoubleAndAdd` and `Naf` run their ladders on any point. `Window4`
    /// runs the fixed-base comb when `point` is the curve's base point and
    /// `k` has at most 256 bits (the comb table is built on first use and
    /// shared across clones); otherwise it runs the 4-bit window ladder
    /// over a per-call table. The affine coordinates of `k · point` are
    /// unique, so every algorithm returns the same point as
    /// [`Curve::scalar_mul_reference`].
    pub fn scalar_mul(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        let acc = match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => self.double_and_add(point, k),
            ScalarMulAlgorithm::Naf => self.naf_ladder(point, k),
            ScalarMulAlgorithm::Window4 if self.comb_serves(point, k) => self.comb_ladder(k),
            ScalarMulAlgorithm::Window4 => self.window_ladder(point, k),
        };
        self.to_affine(&acc)
    }

    /// Computes `k_i · P_i` for a whole batch of requests, amortizing host
    /// wall-clock the way [`Curve::scalar_mul`] cannot: each request runs
    /// the comb ladder (base point, scalar of at most 256 bits) or the NAF
    /// ladder, and the whole batch shares **one** final batched
    /// normalization. Every element equals a serial `scalar_mul` call on
    /// the same request.
    pub fn scalar_mul_batch(&self, requests: &[(AffinePoint, BigUint)]) -> Vec<AffinePoint> {
        let accs: Vec<JacobianPoint> = requests
            .iter()
            .map(|(point, k)| {
                if self.comb_serves(point, k) {
                    self.comb_ladder(k)
                } else {
                    self.naf_ladder(point, k)
                }
            })
            .collect();
        self.batch_to_affine(&accs)
    }

    /// Computes `k · base_point` with the default algorithm (double-and-add,
    /// matching the sequence counted by the paper's cycle analysis).
    pub fn scalar_mul_base(&self, k: &BigUint) -> AffinePoint {
        self.scalar_mul(self.base_point(), k, ScalarMulAlgorithm::DoubleAndAdd)
    }

    /// Computes `k · point` the slow, independent way: the selected
    /// algorithm's recoding (the bits of `k`, [`naf_digits`] or
    /// [`window_digits`]) run over the affine chord-and-tangent law
    /// ([`Curve::add`], [`Curve::double`], [`Curve::negate`]), one counted
    /// inversion per group operation. It shares no Jacobian formula with
    /// [`Curve::scalar_mul`], which makes it the oracle the ladders are
    /// tested against; results are identical.
    pub fn scalar_mul_reference(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        let mut acc = AffinePoint::Infinity;
        match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => {
                for i in (0..k.bit_len()).rev() {
                    acc = self.double(&acc);
                    if k.bit(i) {
                        acc = self.add(&acc, point);
                    }
                }
            }
            ScalarMulAlgorithm::Naf => {
                let neg = self.negate(point);
                for &d in naf_digits(k).iter().rev() {
                    acc = self.double(&acc);
                    match d {
                        1 => acc = self.add(&acc, point),
                        -1 => acc = self.add(&acc, &neg),
                        _ => {}
                    }
                }
            }
            ScalarMulAlgorithm::Window4 => {
                let mut table = vec![AffinePoint::Infinity];
                for d in 1..1 << WINDOW {
                    table.push(self.add(&table[d - 1], point));
                }
                for &digit in window_digits(k, WINDOW).iter().rev() {
                    for _ in 0..WINDOW {
                        acc = self.double(&acc);
                    }
                    acc = self.add(&acc, &table[digit]);
                }
            }
        }
        acc
    }

    /// Whether a request takes the comb: the base point, with a scalar
    /// that fits the comb's 256 bits.
    fn comb_serves(&self, point: &AffinePoint, k: &BigUint) -> bool {
        k.bit_len() <= COMB_TEETH * COMB_SPACING && point == self.base_point()
    }

    /// Left-to-right double-and-add: one doubling per bit and one mixed
    /// addition per set bit.
    fn double_and_add(&self, point: &AffinePoint, k: &BigUint) -> JacobianPoint {
        let mut acc = self.jacobian_infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.jacobian_double(&acc);
            if k.bit(i) {
                acc = self.jacobian_add_mixed(&acc, point);
            }
        }
        acc
    }

    /// Signed-digit NAF ladder: mixed additions of `±P` on roughly one
    /// third of the digits instead of one half.
    fn naf_ladder(&self, point: &AffinePoint, k: &BigUint) -> JacobianPoint {
        let neg = match point.coordinates() {
            Some((x, y)) => AffinePoint::new(*x, self.fneg(y)),
            None => AffinePoint::Infinity,
        };
        let mut acc = self.jacobian_infinity();
        for &d in naf_digits(k).iter().rev() {
            acc = self.jacobian_double(&acc);
            match d {
                1 => acc = self.jacobian_add_mixed(&acc, point),
                -1 => acc = self.jacobian_add_mixed(&acc, &neg),
                _ => {}
            }
        }
        acc
    }

    /// Fixed 4-bit-window ladder over the per-call table
    /// `[P, 2P, .., 15P]`, batch-normalized with one inversion: four
    /// doublings per digit and one mixed addition per non-zero digit.
    fn window_ladder(&self, point: &AffinePoint, k: &BigUint) -> JacobianPoint {
        let mut chain = vec![self.to_jacobian(point)];
        for d in 1..(1 << WINDOW) - 1 {
            chain.push(self.jacobian_add_mixed(&chain[d - 1], point));
        }
        let table = self.batch_to_affine(&chain);
        let mut acc = self.jacobian_infinity();
        for &digit in window_digits(k, WINDOW).iter().rev() {
            for _ in 0..WINDOW {
                acc = self.jacobian_double(&acc);
            }
            if digit != 0 {
                acc = self.jacobian_add_mixed(&acc, &table[digit - 1]);
            }
        }
        acc
    }

    /// Fixed-base comb ladder on the base point: 64 doublings and at most
    /// 64 mixed additions for a 256-bit scalar (vs ~256 + ~128 for
    /// double-and-add).
    fn comb_ladder(&self, k: &BigUint) -> JacobianPoint {
        let table = self.comb.get_or_init(|| self.build_comb());
        let mut acc = self.jacobian_infinity();
        for i in (0..COMB_SPACING).rev() {
            acc = self.jacobian_double(&acc);
            let digit =
                (0..COMB_TEETH).fold(0, |d, t| d | usize::from(k.bit(t * COMB_SPACING + i)) << t);
            if digit != 0 {
                acc = self.jacobian_add_mixed(&acc, &table[digit - 1]);
            }
        }
        acc
    }

    /// Builds the comb table: the strides `2^(64t) · G` (192 doublings),
    /// then their 15 subset sums, each set batch-normalized — two
    /// inversions for the whole table.
    fn build_comb(&self) -> CombTable {
        let mut strides = vec![self.to_jacobian(self.base_point())];
        for t in 1..COMB_TEETH {
            let mut stride = strides[t - 1];
            for _ in 0..COMB_SPACING {
                stride = self.jacobian_double(&stride);
            }
            strides.push(stride);
        }
        let strides = self.batch_to_affine(&strides);
        let sums: Vec<JacobianPoint> = (1usize..1 << COMB_TEETH)
            .map(|d| {
                strides
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| d >> t & 1 == 1)
                    .fold(self.jacobian_infinity(), |acc, (_, s)| {
                        self.jacobian_add_mixed(&acc, s)
                    })
            })
            .collect();
        self.batch_to_affine(&sums)
            .try_into()
            .expect("one entry per non-zero digit")
    }
}

/// Computes the non-adjacent form of `k` (least-significant digit first).
///
/// Runs a single O(bits) pass over the bits of `k` with a one-bit carry,
/// never materializing intermediate big integers: at position `i` the
/// remaining value is odd iff `bit(i) + carry` is odd, and the NAF rule
/// `d = 2 - (n mod 4)` (1 → 1, 3 → −1) reads `n mod 4` straight from
/// `bit(i + 1)` and the carry. The `+1` after emitting −1 is exactly a
/// carry into the next position.
pub fn naf_digits(k: &BigUint) -> Vec<i8> {
    let bits = k.bit_len();
    let mut digits = Vec::with_capacity(bits + 1);
    let mut carry = 0u8;
    let mut i = 0;
    while i < bits || carry != 0 {
        let b0 = u8::from(k.bit(i)) + carry;
        if b0 & 1 == 0 {
            // Even: emit 0; a settled carry (b0 == 2) moves up one bit.
            digits.push(0);
            carry = b0 >> 1;
        } else {
            // Odd: n mod 4 = (2·bit(i+1) + b0) mod 4 selects ±1; the −1
            // branch borrows, i.e. carries +1 into bit i + 1.
            let b1 = u8::from(k.bit(i + 1));
            if (2 * b1 + b0) & 3 == 1 {
                digits.push(1);
                carry = 0;
            } else {
                digits.push(-1);
                carry = 1;
            }
        }
        i += 1;
    }
    digits
}

/// Splits `k` into unsigned `window`-bit digits, least-significant digit
/// first — the recoding of the `Window4` ladder and of its reference.
pub fn window_digits(k: &BigUint, window: usize) -> Vec<usize> {
    assert!(window > 0, "window width must be positive");
    let chunks = k.bit_len().div_ceil(window);
    let mut digits = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let mut digit = 0usize;
        for b in (0..window).rev() {
            digit = (digit << 1) | k.bit(chunk * window + b) as usize;
        }
        digits.push(digit);
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn algorithms_agree_on_toy_curve() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let k = BigUint::random_bits(&mut rng, 40);
            let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf), reference);
            assert_eq!(
                curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Window4),
                reference
            );
            assert!(curve.is_on_curve(&reference));
        }
    }

    #[test]
    fn algorithms_agree_on_p160() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let p = curve.random_point(&mut rng);
        let k = BigUint::random_bits(&mut rng, 160);
        let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
        assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf), reference);
        assert_eq!(
            curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Window4),
            reference
        );
        assert!(curve.is_on_curve(&reference));
    }

    #[test]
    fn small_multiples_match_repeated_addition() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let p = curve.random_point(&mut rng);
        let mut acc = AffinePoint::Infinity;
        for k in 0u64..20 {
            let expected = acc.clone();
            let got = curve.scalar_mul(&p, &BigUint::from(k), ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(got, expected, "k = {k}");
            acc = curve.add(&acc, &p);
        }
    }

    #[test]
    fn scalar_mul_distributes_over_addition_of_scalars() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let p = curve.random_point(&mut rng);
        let a = BigUint::from(123u64);
        let b = BigUint::from(456u64);
        let lhs = curve.scalar_mul(&p, &(&a + &b), ScalarMulAlgorithm::DoubleAndAdd);
        let rhs = curve.add(
            &curve.scalar_mul(&p, &a, ScalarMulAlgorithm::DoubleAndAdd),
            &curve.scalar_mul(&p, &b, ScalarMulAlgorithm::DoubleAndAdd),
        );
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn naf_digits_reconstruct_the_scalar() {
        for k in [0u64, 1, 2, 3, 7, 255, 1_000_003, u64::MAX] {
            let digits = naf_digits(&BigUint::from(k));
            let mut value: i128 = 0;
            for (i, &d) in digits.iter().enumerate() {
                value += (d as i128) << i;
            }
            assert_eq!(value, k as i128);
            // Non-adjacency: no two consecutive non-zero digits.
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "NAF property violated for {k}");
            }
        }
    }

    #[test]
    fn reference_ladder_matches_the_fixed_backend() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for name in ["secp256k1", "p160"] {
            let curve = Curve::by_name(name).unwrap();
            for _ in 0..3 {
                let k = BigUint::random_bits(&mut rng, curve.bits());
                let fast =
                    curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
                let reference = curve.scalar_mul_reference(
                    curve.base_point(),
                    &k,
                    ScalarMulAlgorithm::DoubleAndAdd,
                );
                assert_eq!(fast, reference, "{name}");
                assert!(curve.is_on_curve(&reference));
            }
        }
    }

    #[test]
    fn wide_scalars_run_every_ladder() {
        // Scalars wider than 256 bits run the same ladders (Window4 on the
        // base point takes the window ladder, not the comb) as the affine
        // reference, serially and batched.
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for name in ["p160", "secp256k1"] {
            let curve = Curve::by_name(name).unwrap();
            let base = curve.base_point().clone();
            let other = curve.random_point(&mut rng);
            let k = BigUint::random_bits(&mut rng, 300);
            assert_eq!(k.bit_len(), 300);
            let mut requests = Vec::new();
            for point in [&base, &other] {
                let reference =
                    curve.scalar_mul_reference(point, &k, ScalarMulAlgorithm::DoubleAndAdd);
                for alg in [
                    ScalarMulAlgorithm::DoubleAndAdd,
                    ScalarMulAlgorithm::Naf,
                    ScalarMulAlgorithm::Window4,
                ] {
                    assert_eq!(
                        curve.scalar_mul(point, &k, alg),
                        reference,
                        "{name} {alg:?}"
                    );
                }
                requests.push(((*point).clone(), k.clone(), reference));
            }
            let batch: Vec<_> = requests
                .iter()
                .map(|(p, k, _)| (p.clone(), k.clone()))
                .collect();
            let got = curve.scalar_mul_batch(&batch);
            for ((_, _, reference), got) in requests.iter().zip(&got) {
                assert_eq!(got, reference, "{name} batch");
            }
        }
    }

    #[test]
    fn reference_algorithms_agree_with_first_principles() {
        // The oracle's three recodings over the affine law agree with
        // repeated affine addition on small multiples.
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let p = curve.random_point(&mut rng);
        let mut acc = AffinePoint::Infinity;
        for k in 0u64..40 {
            for alg in [
                ScalarMulAlgorithm::DoubleAndAdd,
                ScalarMulAlgorithm::Naf,
                ScalarMulAlgorithm::Window4,
            ] {
                let got = curve.scalar_mul_reference(&p, &BigUint::from(k), alg);
                assert_eq!(got, acc, "k = {k}, {alg:?}");
            }
            acc = curve.add(&acc, &p);
        }
    }

    #[test]
    fn window_digits_reconstruct_the_scalar() {
        for k in [0u64, 1, 2, 15, 16, 255, 1_000_003, u64::MAX] {
            for window in [1usize, 3, 4, 5] {
                let digits = window_digits(&BigUint::from(k), window);
                let mut value: u128 = 0;
                for (i, &d) in digits.iter().enumerate() {
                    assert!(d < (1 << window));
                    value += (d as u128) << (i * window);
                }
                assert_eq!(value, k as u128, "k = {k}, w = {window}");
            }
        }
    }

    #[test]
    fn fixed_ladders_and_batch_match_heap_reference_on_secp256k1() {
        let curve = Curve::by_name("secp256k1").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let base = curve.base_point().clone();
        let other = curve.random_point(&mut rng);
        let order = curve.order().expect("secp256k1 has a known order").clone();
        let scalars = [
            BigUint::one(),
            &order - &BigUint::one(),
            BigUint::random_bits(&mut rng, 256),
        ];
        // Every ladder (D&A, NAF, comb-on-base, window-on-arbitrary) must
        // return the point the affine reference computes.
        for point in [&base, &other] {
            for k in &scalars {
                let reference =
                    curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd);
                for alg in [
                    ScalarMulAlgorithm::DoubleAndAdd,
                    ScalarMulAlgorithm::Naf,
                    ScalarMulAlgorithm::Window4,
                ] {
                    assert_eq!(curve.scalar_mul(point, k, alg), reference, "{alg:?}");
                }
            }
        }
        // Batch entry point: mixed bases, edge scalars, an infinity request
        // and a zero scalar — each element identical to the serial path.
        let mut requests: Vec<(AffinePoint, BigUint)> = vec![
            (AffinePoint::Infinity, BigUint::from(5u64)),
            (base.clone(), BigUint::zero()),
        ];
        for k in &scalars {
            requests.push((base.clone(), k.clone()));
            requests.push((other.clone(), k.clone()));
        }
        let batch = curve.scalar_mul_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for ((point, k), got) in requests.iter().zip(&batch) {
            let serial = curve.scalar_mul(point, k, ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(*got, serial);
        }
        assert!(curve.scalar_mul_batch(&[]).is_empty());
    }

    #[test]
    fn zero_scalar_and_infinity_input() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let p = curve.random_point(&mut rng);
        assert!(curve
            .scalar_mul(&p, &BigUint::zero(), ScalarMulAlgorithm::Naf)
            .is_infinity());
        assert!(curve
            .scalar_mul(
                &AffinePoint::Infinity,
                &BigUint::from(5u64),
                ScalarMulAlgorithm::Window4
            )
            .is_infinity());
        assert_eq!(curve.scalar_mul_base(&BigUint::one()), *curve.base_point());
    }
}
