//! Property-based tests (proptest) on the core data structures and
//! invariants: multi-precision arithmetic, Montgomery reduction, the field
//! tower and torus compression.

use bignum::{mod_exp, BigUint, MontgomeryParams};
use ceilidh::{
    compress, decompress, decompress_t2, decrypt_hybrid, CeilidhParams, CompressedT2,
    CompressedTorus, HybridCiphertext, KeyPair, TorusElement,
};
use field::{Fp6Context, FpContext};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// One of the exponents the torus exponentiation properties cover:
/// 0, 1, q − 1, q, wider than q, or uniform below q.
fn torus_exponent(params: &CeilidhParams, kind: u8, rng: &mut impl Rng) -> BigUint {
    let q = params.q();
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => q - &BigUint::one(),
        3 => q.clone(),
        4 => {
            let extra = rng.gen_range(1..80usize);
            BigUint::random_bits(rng, q.bit_len() + extra)
        }
        _ => BigUint::random_below(rng, q),
    }
}

/// A base on `T6`: the identity, an element of the order-`q` subgroup, or
/// a random element of the full torus (outside the subgroup unless the
/// cofactor part happens to vanish).
fn torus_base(params: &CeilidhParams, kind: u8, rng: &mut impl Rng) -> TorusElement {
    match kind {
        0 => params.identity(),
        1 => params.random_subgroup_element(rng).1,
        _ => loop {
            if let Some(t) = params.project_to_torus(&params.fp6().random(rng)) {
                break t;
            }
        },
    }
}

/// Strategy: arbitrary big integers up to `max_bytes` bytes.
fn biguint(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..=max_bytes)
        .prop_map(|bytes| BigUint::from_be_bytes(&bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------- BigUint ring axioms ----------------------- //

    #[test]
    fn addition_is_commutative_and_associative(a in biguint(40), b in biguint(40), c in biguint(40)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn multiplication_distributes_over_addition(a in biguint(32), b in biguint(32), c in biguint(32)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn subtraction_inverts_addition(a in biguint(40), b in biguint(40)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn division_recomposes(a in biguint(48), b in biguint(24)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shifts_are_multiplication_by_powers_of_two(a in biguint(32), k in 0usize..200) {
        prop_assert_eq!(a.shl_bits(k).shr_bits(k), a.clone());
        prop_assert_eq!(a.shl_bits(k), &a * &BigUint::one().shl_bits(k));
    }

    #[test]
    fn hex_and_decimal_roundtrip(a in biguint(32)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(a.to_string().parse::<BigUint>().unwrap(), a.clone());
        prop_assert_eq!(BigUint::from_be_bytes(&a.to_be_bytes()), a);
    }

    // --------------------- Montgomery multiplication --------------------- //

    #[test]
    fn montgomery_matches_plain_modular_multiplication(
        a in biguint(24),
        b in biguint(24),
        mut m in biguint(24),
    ) {
        m = &m + &BigUint::from(3u64);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        let a = &a % &m;
        let b = &b % &m;
        let mont = MontgomeryParams::new(&m).unwrap();
        let got = mont.from_mont(&mont.mont_mul(&mont.to_mont(&a), &mont.to_mont(&b)));
        prop_assert_eq!(got, &(&a * &b) % &m);
    }

    #[test]
    fn montgomery_exponentiation_matches_reference(
        base in biguint(16),
        exp in biguint(6),
        mut m in biguint(16),
    ) {
        m = &m + &BigUint::from(3u64);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        let mont = MontgomeryParams::new(&m).unwrap();
        prop_assert_eq!(mont.mod_exp(&base, &exp), mod_exp(&base, &exp, &m));
    }

    // --------------------------- Field tower ----------------------------- //

    #[test]
    fn fp6_field_axioms_hold(coeffs_a in prop::array::uniform6(0u64..101), coeffs_b in prop::array::uniform6(0u64..101)) {
        let fp = FpContext::new(&BigUint::from(101u64)).unwrap();
        let fp6 = Fp6Context::new(fp).unwrap();
        let a = fp6.from_u64_coeffs(coeffs_a);
        let b = fp6.from_u64_coeffs(coeffs_b);
        prop_assert_eq!(fp6.mul(&a, &b), fp6.mul(&b, &a));
        prop_assert_eq!(fp6.add(&a, &b), fp6.add(&b, &a));
        // Frobenius is multiplicative.
        prop_assert_eq!(
            fp6.frobenius(&fp6.mul(&a, &b), 1),
            fp6.mul(&fp6.frobenius(&a, 1), &fp6.frobenius(&b, 1))
        );
        // Non-zero elements invert.
        if !a.is_zero() {
            let inv = fp6.inv(&a).unwrap();
            prop_assert_eq!(fp6.mul(&a, &inv), fp6.one());
        }
    }

    // ------------------------- Torus invariants -------------------------- //

    #[test]
    fn torus_exponentiation_stays_in_torus_and_compresses(exponent in 1u64..10_000) {
        let params = CeilidhParams::toy().unwrap();
        let g = params.generator();
        let element = params.pow(&g, &BigUint::from(exponent));
        prop_assert!(params.is_torus_member(element.as_fp6()));
        if element != params.identity() {
            let c = compress(&params, &element).unwrap();
            prop_assert!(c.hint < 4);
            prop_assert_eq!(decompress(&params, &c).unwrap(), element);
        }
    }

    #[test]
    fn torus_inverse_is_conjugate(exponent in 1u64..10_000) {
        let params = CeilidhParams::toy().unwrap();
        let g = params.generator();
        let element = params.pow(&g, &BigUint::from(exponent));
        prop_assert_eq!(params.mul(&element, &params.invert(&element)), params.identity());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The host's fixed-window `pow` and generator comb are bit-identical
    /// to the paper's square-and-multiply, for bases anywhere on `T6` and
    /// exponents at and beyond the edges of [0, q).
    #[test]
    fn host_torus_exponentiation_matches_square_and_multiply(
        exp_kind in 0u8..6,
        base_kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for params in [CeilidhParams::toy().unwrap(), CeilidhParams::date2008().unwrap()] {
            let fp6 = params.fp6();
            let g = params.generator();
            let e = torus_exponent(&params, exp_kind, &mut rng);
            let base = torus_base(&params, base_kind, &mut rng);
            prop_assert_eq!(params.pow(&base, &e).into_fp6(), fp6.exp(base.as_fp6(), &e));
            prop_assert_eq!(params.pow_generator(&e).into_fp6(), fp6.exp(g.as_fp6(), &e));
            // x^16 is one window of four cyclotomic squarings of x.
            let x16 = (0..4).fold(base.as_fp6().clone(), |x, _| fp6.mul(&x, &x));
            prop_assert_eq!(params.pow(&base, &BigUint::from(16u64)).into_fp6(), x16);
        }
    }

    /// Both decompressions never panic on arbitrary coordinates below
    /// 2^180 and any hint; shifts of 15 bits or more keep every coordinate
    /// below the 170-bit p, so about half the cases reach the root search.
    /// Whatever is accepted lies on `T6`, and a factor-3 encoding that
    /// decodes compresses back to itself.
    #[test]
    fn decompression_of_arbitrary_coordinates_never_panics(
        coords in prop::array::uniform3(biguint(23)),
        shift in 4usize..24,
        hint in any::<u8>(),
    ) {
        let params = CeilidhParams::date2008().unwrap();
        let [u0, u1, u2] = coords.map(|u| u.shr_bits(shift));
        // Any hint, and one below 2, in range whenever both roots exist.
        for hint in [hint, hint % 2] {
            let encoded = CompressedTorus { u0: u0.clone(), u1: u1.clone(), hint };
            if let Ok(g) = decompress(&params, &encoded) {
                prop_assert!(params.is_torus_member(g.as_fp6()));
                prop_assert_eq!(compress(&params, &g).unwrap(), encoded);
            }
        }
        if let Ok(g) = decompress_t2(&params, &CompressedT2 { coords: [u0, u1, u2] }) {
            prop_assert!(params.is_torus_member(g.as_fp6()));
        }
    }

    /// Hybrid decryption never panics on a hostile ephemeral: any
    /// coordinates below 2^180 and any hint either decode and decrypt, or
    /// are refused. Shifts of 15 bits or more keep both coordinates below
    /// the 170-bit p, so those cases reach the root search and the
    /// cofactor check.
    #[test]
    fn hybrid_decryption_of_arbitrary_ephemerals_never_panics(
        u0 in biguint(23),
        u1 in biguint(23),
        shift in 4usize..24,
        hint in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let params = CeilidhParams::date2008().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&params, &mut rng);
        let ct = HybridCiphertext {
            ephemeral: CompressedTorus { u0: u0.shr_bits(shift), u1: u1.shr_bits(shift), hint },
            payload: vec![0xA5; 16],
        };
        if let Ok(pt) = decrypt_hybrid(&params, kp.secret(), &ct) {
            prop_assert_eq!(pt.len(), 16);
        }
    }
}
