//! Integration tests pinning the platform simulator against the host
//! implementations and against the qualitative claims of the evaluation.

use bignum::BigUint;
use ceilidh::{CeilidhParams, TorusElement};
use ecc::{AffinePoint, Curve, JacobianPoint, ScalarMulAlgorithm};
use field::Fp6Context;
use platform::{Coprocessor, CostModel, ExecutionReport, Hierarchy, Platform};
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn table1_shape() {
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let mm170 = plat.montgomery_multiplication_report(170).cycles;
    let mm160 = plat.montgomery_multiplication_report(160).cycles;
    let mm1024 = plat.montgomery_multiplication_report(1024).cycles;
    let ma170 = plat.modular_addition_report(170).cycles;
    let ms170 = plat.modular_subtraction_report(170).cycles;

    assert!(mm160 < mm170);
    assert!(ma170 < mm170 && ms170 < mm170);
    let big_ratio = mm1024 as f64 / mm170 as f64;
    assert!(
        (10.0..40.0).contains(&big_ratio),
        "paper reports ≈23x, got {big_ratio:.1}x"
    );
    assert_eq!(plat.interrupt_cycles(), 184);
}

#[test]
fn table2_shape() {
    let a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
    let b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let pairs = [
        (
            a.fp6_multiplication_report(170),
            b.fp6_multiplication_report(170),
        ),
        (
            a.ecc_point_addition_report(160),
            b.ecc_point_addition_report(160),
        ),
        (
            a.ecc_point_doubling_report(160),
            b.ecc_point_doubling_report(160),
        ),
    ];
    for (ra, rb) in pairs {
        assert!(ra.cycles > rb.cycles, "Type-B must always win");
        assert_eq!(rb.interrupts, 1, "Type-B: one interrupt per composite op");
        assert_eq!(
            ra.interrupts,
            ra.modmuls + ra.modadds + ra.modsubs,
            "Type-A: one interrupt per modular op"
        );
    }
    // The T6 multiplication issues 18 MM + ~60 MA/MS, as in Section 2.2.2.
    let t6 = b.fp6_multiplication_report(170);
    assert_eq!(t6.modmuls, 18);
    assert!((55..=70).contains(&(t6.modadds + t6.modsubs)));
}

#[test]
fn table3_shape_full_drivers() {
    // Small exponents keep this fast while preserving the per-bit cost; the
    // full-size run lives in the bench harness.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    let params = ceilidh::CeilidhParams::toy().unwrap();
    let (_, base) = params.random_subgroup_element(&mut rng);
    let (_, torus) = plat.torus_exponentiation(&params, &base, &BigUint::from(0x2aaaau64));

    let curve = Curve::toy().unwrap();
    let point = curve.random_point(&mut rng);
    let (_, ecc) = plat.ecc_scalar_multiplication(&curve, &point, &BigUint::from(0x2aaaau64));

    // Per-bit cost comparison: the torus pays one Fp6 mult per bit plus one
    // per set bit; ECC pays one PD per bit plus one PA per set bit. With the
    // same exponent the torus is more expensive per bit, and RSA (1024-bit
    // operands) is more expensive still.
    assert!(torus.cycles > ecc.cycles);
    let (_, rsa) = plat.rsa_exponentiation(
        &(BigUint::one().shl_bits(1023) + BigUint::from(13u64)),
        &BigUint::from(3u64),
        &BigUint::from(0x2aaaau64),
    );
    assert!(rsa.cycles > torus.cycles);
}

#[test]
fn fig5_multicore_scaling_shape() {
    let c1 = Coprocessor::new(CostModel::paper(), 1).mont_mul_cycles(256);
    let c2 = Coprocessor::new(CostModel::paper(), 2).mont_mul_cycles(256);
    let c4 = Coprocessor::new(CostModel::paper(), 4).mont_mul_cycles(256);
    assert!(c1 > c2 && c2 > c4);
    let speedup = c1 as f64 / c4 as f64;
    assert!(
        (1.8..4.0).contains(&speedup),
        "paper: 2.96x, got {speedup:.2}x"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulated coprocessor's Montgomery product satisfies the defining
    /// relation `result * R ≡ x * y (mod p)` for random reduced operands.
    #[test]
    fn simulated_montgomery_is_correct_for_random_operands(seed in any::<u64>(), cores in 1usize..6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = bignum::gen_prime(96, &mut rng);
        let x = BigUint::random_below(&mut rng, &p);
        let y = BigUint::random_below(&mut rng, &p);
        let cp = Coprocessor::new(CostModel::paper(), cores);
        let got = cp.mont_mul(&x, &y, &p);
        let s = cp.cost().limbs(p.bit_len());
        let r = BigUint::one().shl_bits(cp.cost().word_bits * s) % &p;
        prop_assert_eq!(&(&got.value * &r) % &p, &(&x * &y) % &p);
        prop_assert!(got.value < p);
    }

    /// The platform's Fp6 multiplication agrees with the host field tower
    /// for random operands over the toy field.
    #[test]
    fn simulated_fp6_multiplication_is_correct(coeffs_a in prop::array::uniform6(0u64..101), coeffs_b in prop::array::uniform6(0u64..101)) {
        let fp = field::FpContext::new(&BigUint::from(101u64)).unwrap();
        let fp6 = Fp6Context::new(fp).unwrap();
        let a = fp6.from_u64_coeffs(coeffs_a);
        let b = fp6.from_u64_coeffs(coeffs_b);
        let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let (got, _) = plat.run_fp6_multiplication(&fp6, &a, &b);
        prop_assert_eq!(got, fp6.mul(&a, &b));
    }
}

/// The cost models the drivers are pinned under: the paper's, each
/// ablation knob off, and the flat sequential baseline. Without the
/// dual-path adder MA/MS cycles depend on the operand values, so that
/// model pins the slot values themselves and not just the op counts.
fn driver_cost_models() -> [CostModel; 5] {
    [
        CostModel::paper(),
        CostModel::paper().with_dual_path(false),
        CostModel::paper_sequential(),
        CostModel::paper().with_mixed_pa(false),
        CostModel::paper().with_fast_pd(false),
    ]
}

/// Every platform the drivers are pinned on: each cost model under both
/// hierarchies.
fn driver_platforms() -> impl Iterator<Item = Platform> {
    driver_cost_models()
        .into_iter()
        .flat_map(|cost| [Hierarchy::TypeA, Hierarchy::TypeB].map(|h| Platform::new(cost, 4, h)))
}

/// An exponent of at most `bits` bits: 0, 1, all ones or random, by `kind`.
fn exponent(kind: u8, bits: usize, seed: u64) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => &BigUint::one().shl_bits(bits) - &BigUint::one(),
        _ => BigUint::random_bits(&mut rand::rngs::StdRng::seed_from_u64(seed), bits),
    }
}

/// Today's composition of a torus exponentiation: square-and-multiply as
/// a fold of single-call `Fp6` multiplications, reports merged per step.
fn torus_fold(
    plat: &Platform,
    params: &CeilidhParams,
    base: &TorusElement,
    e: &BigUint,
) -> (TorusElement, ExecutionReport) {
    let fp6 = params.fp6();
    let (mut acc, mut report) = (fp6.one(), ExecutionReport::default());
    for i in (0..e.bit_len()).rev() {
        let (sq, r) = plat.run_fp6_multiplication(fp6, &acc, &acc);
        (acc, report) = (sq, report.merge(&r));
        if e.bit(i) {
            let (prod, r) = plat.run_fp6_multiplication(fp6, &acc, base.as_fp6());
            (acc, report) = (prod, report.merge(&r));
        }
    }
    (TorusElement::from_fp6_unchecked(acc), report)
}

/// Today's composition of a scalar multiplication: double-and-add as a
/// fold of the single-call point shims the cost model selects.
fn scalar_fold(
    plat: &Platform,
    curve: &Curve,
    point: &AffinePoint,
    k: &BigUint,
) -> (AffinePoint, ExecutionReport) {
    let cost = plat.cost();
    let jp = curve.to_jacobian(point);
    let mut acc: Option<JacobianPoint> = None;
    let mut report = ExecutionReport::default();
    for i in (0..k.bit_len()).rev() {
        if let Some(cur) = acc {
            let (dbl, r) = if cost.uses_fast_pd() && curve.a_is_minus_three() {
                plat.run_ecc_point_doubling_fast(curve, &cur)
            } else {
                plat.run_ecc_point_doubling(curve, &cur)
            };
            (acc, report) = (Some(dbl), report.merge(&r));
        }
        if k.bit(i) {
            let Some(cur) = acc else {
                acc = Some(jp);
                continue;
            };
            let (sum, r) = if cost.uses_mixed_pa() {
                plat.run_ecc_point_addition_mixed(curve, &cur, point)
            } else {
                plat.run_ecc_point_addition(curve, &cur, &jp)
            };
            (acc, report) = (Some(sum), report.merge(&r));
        }
    }
    (
        acc.map_or(AffinePoint::Infinity, |j| curve.to_affine(&j)),
        report,
    )
}

/// Today's composition of an RSA exponentiation: square-and-multiply over
/// single coprocessor Montgomery products, each paying one interrupt.
fn rsa_fold(
    plat: &Platform,
    n: &BigUint,
    base: &BigUint,
    e: &BigUint,
) -> (BigUint, ExecutionReport) {
    let cost = plat.cost();
    let r = BigUint::one().shl_bits(cost.word_bits * cost.limbs(n.bit_len())) % n;
    let mut report = ExecutionReport::default();
    let mut mm = |x: &BigUint, y: &BigUint| {
        let out = plat.coprocessor().mont_mul(x, y, n);
        report.cycles += out.cycles + plat.interrupt_cycles();
        report.modmuls += 1;
        report.interrupts += 1;
        report.register_accesses += 1;
        out.value
    };
    let b = bignum::mod_mul(&(base % n), &r, n);
    let mut acc = r.clone();
    for i in (0..e.bit_len()).rev() {
        acc = mm(&acc, &acc);
        if e.bit(i) {
            acc = mm(&acc, &b);
        }
    }
    let r_inv = bignum::mod_inv(&r, n).expect("odd modulus");
    (bignum::mod_mul(&acc, &r_inv, n), report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The torus ladder keeps its accumulator in the Montgomery domain;
    /// its result and full report equal the per-step fold of single
    /// calls, which converts on every step.
    #[test]
    fn torus_exponentiation_equals_a_fold_of_single_calls(kind in 0u8..4, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (params, bits) in [(CeilidhParams::toy().unwrap(), 32), (CeilidhParams::date2008().unwrap(), 16)] {
            let (_, base) = params.random_subgroup_element(&mut rng);
            let e = exponent(kind, bits, seed);
            for plat in driver_platforms() {
                let (got, report) = plat.torus_exponentiation(&params, &base, &e);
                let (want, want_report) = torus_fold(&plat, &params, &base, &e);
                prop_assert_eq!(got.as_fp6(), want.as_fp6());
                prop_assert_eq!(report, want_report);
                prop_assert_eq!(got, params.pow(&base, &e));
            }
        }
    }

    /// Same for the scalar ladder, on a curve with general `a` and on two
    /// `a = -3` curves, so both doublings and both additions run.
    #[test]
    fn scalar_multiplication_equals_a_fold_of_single_calls(kind in 0u8..4, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (name, bits) in [("toy", 32), ("p160", 16), ("p256", 16)] {
            let curve = Curve::by_name(name).unwrap();
            let point = curve.random_point(&mut rng);
            let k = exponent(kind, bits, seed);
            for plat in driver_platforms() {
                let (got, report) = plat.ecc_scalar_multiplication(&curve, &point, &k);
                let (want, want_report) = scalar_fold(&plat, &curve, &point, &k);
                prop_assert_eq!(&got, &want, "{}", name);
                prop_assert_eq!(report, want_report, "{}", name);
                // Toy scalars exceed the group order, so the ladder meets
                // the identity and `P + P`, which the fixed sequences do
                // not handle; there the fold is the only reference.
                if name != "toy" {
                    let host = curve.scalar_mul(&point, &k, ScalarMulAlgorithm::DoubleAndAdd);
                    prop_assert_eq!(got, host, "{}", name);
                }
            }
        }
    }

    /// The RSA ladder's one domain per call gives the same result and
    /// report as a fold of coprocessor Montgomery products.
    #[test]
    fn rsa_exponentiation_equals_a_fold_of_montgomery_products(kind in 0u8..4, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bits in [61usize, 160, 512] {
            let n = bignum::gen_prime(bits, &mut rng);
            let base = BigUint::random_below(&mut rng, &n);
            let e = exponent(kind, 32, seed);
            for cost in driver_cost_models() {
                let plat = Platform::new(cost, 4, Hierarchy::TypeB);
                let (got, report) = plat.rsa_exponentiation(&n, &base, &e);
                let (want, want_report) = rsa_fold(&plat, &n, &base, &e);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(report, want_report);
                prop_assert_eq!(got, bignum::mod_exp(&base, &e, &n));
            }
        }
    }
}
