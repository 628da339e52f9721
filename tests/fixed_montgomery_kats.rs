//! Known-answer tests pinning `bignum::fixed::MontgomeryContext` to the
//! heap `MontgomeryParams` backend on the standards 256-bit moduli, plus
//! the published secp256k1/P-256 generator multiples re-run through every
//! ladder `Curve::scalar_mul` offers.
//!
//! Both backends use the Montgomery radix `R = 2^256` on these moduli
//! (8 × 32-bit heap limbs, 4 × 64-bit fixed limbs), so everything —
//! `n'`, `R²`, Montgomery forms, products — must agree *bit for bit*, not
//! just modulo `p`. The `n'` and `R²` values are additionally checked
//! against independently derived constants so a shared bug in the two
//! Newton–Hensel inversions could not hide.

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use ecc::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

/// The secp256k1 prime `2^256 - 2^32 - 977`.
const SECP256K1_P: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
/// The P-256 (secp256r1) prime `2^256 - 2^224 + 2^192 + 2^96 - 1`.
const P256_P: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";

fn hex(s: &str) -> BigUint {
    BigUint::from_hex(s).expect("valid hex test vector")
}

/// Both backends over the same modulus.
fn contexts(p_hex: &str) -> (MontgomeryContext<4>, MontgomeryParams) {
    let p = hex(p_hex);
    let fixed = MontgomeryContext::<4>::new(&p).expect("256-bit odd prime fits 4 limbs");
    let heap = MontgomeryParams::new(&p).expect("odd modulus");
    (fixed, heap)
}

#[test]
fn n_prime_matches_known_answers_and_heap_truncation() {
    // -p⁻¹ mod 2^64 for secp256k1, from an independent computation.
    let (fixed, heap) = contexts(SECP256K1_P);
    assert_eq!(fixed.n0_inv(), 0xd838_091d_d225_3531);
    // The heap backend computes n' mod 2^32; the fixed value must truncate
    // to it (same Hensel lift, twice the precision).
    assert_eq!(fixed.n0_inv() as u32, heap.n0_inv());

    // P-256's low limb is 2^64 - 1, i.e. p ≡ -1 (mod 2^64), so n' = 1.
    let (fixed, heap) = contexts(P256_P);
    assert_eq!(fixed.n0_inv(), 1);
    assert_eq!(fixed.n0_inv() as u32, heap.n0_inv());
}

#[test]
fn r_squared_matches_independent_computation() {
    for p_hex in [SECP256K1_P, P256_P] {
        let p = hex(p_hex);
        let (fixed, _) = contexts(p_hex);
        // R² = 2^512 mod p, derived here with nothing but shifts.
        let r2 = &BigUint::one().shl_bits(512) % &p;
        assert_eq!(fixed.r2().to_biguint(), r2, "R² mismatch on {p_hex}");
        // And R = 2^256 mod p is the Montgomery form of 1.
        let r = &BigUint::one().shl_bits(256) % &p;
        assert_eq!(fixed.one_mont().to_biguint(), r, "R mismatch on {p_hex}");
    }
}

#[test]
fn montgomery_forms_are_bit_identical_across_backends() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf17e_d256);
    for p_hex in [SECP256K1_P, P256_P] {
        let p = hex(p_hex);
        let (fixed, heap) = contexts(p_hex);
        assert_eq!(fixed.one_mont().to_biguint(), heap.to_mont(&BigUint::one()));
        for _ in 0..16 {
            let a = &BigUint::random_bits(&mut rng, 256) % &p;
            let b = &BigUint::random_bits(&mut rng, 256) % &p;
            let af = Uint::<4>::from_biguint(&a).unwrap();
            let bf = Uint::<4>::from_biguint(&b).unwrap();
            // Same residue representation after conversion...
            let am = fixed.to_mont(&af);
            let bm = fixed.to_mont(&bf);
            assert_eq!(am.to_biguint(), heap.to_mont(&a));
            // ...the same product residue (not merely the same value)...
            assert_eq!(
                fixed.mont_mul(&am, &bm).to_biguint(),
                heap.mont_mul(&heap.to_mont(&a), &heap.to_mont(&b))
            );
            // ...and the same way back out.
            assert_eq!(fixed.from_mont(&am).to_biguint(), a);
        }
    }
}

#[test]
fn known_products_match_on_the_secp256k1_modulus() {
    // A handful of fully pinned products: operand, operand, expected
    // (a · b mod p), recomputed through the Montgomery round-trip.
    let (fixed, _) = contexts(SECP256K1_P);
    let p = hex(SECP256K1_P);
    let cases = [
        (BigUint::from(2u64), BigUint::from(3u64)),
        (&p - &BigUint::one(), &p - &BigUint::one()), // (-1)² = 1
        (
            &p - &BigUint::from(977u64),
            BigUint::one().shl_bits(255) % &p,
        ),
    ];
    for (a, b) in cases {
        let expected = &(&a * &b) % &p;
        let am = fixed.to_mont(&Uint::from_biguint(&a).unwrap());
        let bm = fixed.to_mont(&Uint::from_biguint(&b).unwrap());
        let got = fixed.from_mont(&fixed.mont_mul(&am, &bm));
        assert_eq!(
            got.to_biguint(),
            expected,
            "{} * {}",
            a.to_hex(),
            b.to_hex()
        );
    }
    // (-1)² = 1 specifically must come back as the Montgomery form of 1.
    let minus_one = fixed.to_mont(&Uint::from_biguint(&(&p - &BigUint::one())).unwrap());
    assert_eq!(fixed.mont_mul(&minus_one, &minus_one), fixed.one_mont());
}

#[test]
fn fixed_ladder_reproduces_published_generator_multiples() {
    // The SEC 2 / FIPS 186-4 vectors, through double-and-add, NAF and the
    // base-point comb.
    let vectors = [
        (
            "secp256k1",
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
            "fff97bd5755eeea420453a14355235d382f6472f8568a18b2f057a1460297556",
        ),
        (
            "p256",
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
            "b01a172a76a4602c92d3242cb897dde3024c740debb215b4c6b0aae93c2291a9",
        ),
    ];
    for (name, x2, y2, x6) in vectors {
        let curve = Curve::by_name(name).unwrap();
        let fp = curve.fp();
        for algorithm in [
            ScalarMulAlgorithm::DoubleAndAdd,
            ScalarMulAlgorithm::Naf,
            ScalarMulAlgorithm::Window4,
        ] {
            let mul = |k: u64| curve.scalar_mul(curve.base_point(), &BigUint::from(k), algorithm);
            let two_g = mul(2);
            let (gx2, gy2) = two_g.coordinates().expect("2G is finite");
            assert_eq!(
                *gx2,
                fp.from_biguint(&hex(x2)),
                "{name} {algorithm:?}: x(2G)"
            );
            assert_eq!(
                *gy2,
                fp.from_biguint(&hex(y2)),
                "{name} {algorithm:?}: y(2G)"
            );
            let six_g = mul(6);
            let (gx6, _) = six_g.coordinates().expect("6G is finite");
            assert_eq!(
                *gx6,
                fp.from_biguint(&hex(x6)),
                "{name} {algorithm:?}: x(6G)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The double-and-add ladder agrees with the affine reference on
    /// random full-width scalars, on the named 256-bit curves and the
    /// paper's 160-bit curve.
    #[test]
    fn dispatch_matches_reference_ladder(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for name in ["secp256k1", "p256", "p160"] {
            let curve = Curve::by_name(name).unwrap();
            let k = BigUint::random_bits(&mut rng, curve.bits());
            let dispatched =
                curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            let reference =
                curve.scalar_mul_reference(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            prop_assert_eq!(dispatched, reference);
        }
    }
}
