//! Differential proptests pinning the scalar-multiplication ladders and
//! the batch entry points to independent one-at-a-time references.
//!
//! Every ladder variant (double-and-add, NAF, windowed/comb) and every
//! batch kernel (`Curve::scalar_mul_batch`,
//! `MontgomeryContext::mont_mul_batch`) must agree with its
//! serial reference. For the ladders that is `Curve::scalar_mul_reference`,
//! which runs the same recodings over the affine chord-and-tangent law, so
//! a bug in the Jacobian formulas cannot mask itself. Edge coverage: empty
//! batches, batches of one, lengths that are not a multiple of the kernel
//! lane counts, and the scalars {0, 1, order − 1, order} that straddle the
//! group boundary.

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::BigUint;
use ecc::prelude::*;
use proptest::prelude::*;

fn curve() -> Curve {
    Curve::from_parameters::<Secp256k1>().expect("registered curve")
}

/// Packs four limbs into a 256-bit scalar without the fixed conversions.
fn scalar(limbs: [u64; 4]) -> BigUint {
    let mut acc = BigUint::zero();
    for &l in limbs.iter().rev() {
        acc = &acc.shl_bits(64) + &BigUint::from(l);
    }
    acc
}

/// The four boundary scalars of the satellite checklist.
fn edge_scalars(curve: &Curve) -> Vec<BigUint> {
    let order = curve.order().expect("secp256k1 has an order").clone();
    vec![
        BigUint::zero(),
        BigUint::one(),
        &order - &BigUint::one(),
        order,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three ladder algorithms match the affine reference on random
    /// 256-bit scalars, on the base point (comb path) and on a non-base
    /// point (window path).
    #[test]
    fn fixed_ladders_match_heap_reference(limbs in prop::array::uniform4(any::<u64>())) {
        let curve = curve();
        let k = scalar(limbs);
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(2u64), ScalarMulAlgorithm::DoubleAndAdd);
        for point in [&g, &h] {
            let reference = curve.scalar_mul_reference(point, &k, ScalarMulAlgorithm::DoubleAndAdd);
            for algorithm in [
                ScalarMulAlgorithm::DoubleAndAdd,
                ScalarMulAlgorithm::Naf,
                ScalarMulAlgorithm::Window4,
            ] {
                prop_assert_eq!(
                    curve.scalar_mul(point, &k, algorithm),
                    reference.clone(),
                    "algorithm {:?}",
                    algorithm
                );
                prop_assert_eq!(
                    curve.scalar_mul_reference(point, &k, algorithm),
                    reference.clone(),
                    "reference algorithm {:?}",
                    algorithm
                );
            }
        }
    }

    /// `Curve::scalar_mul_batch` is element-wise identical to the serial
    /// reference for batch lengths that are not multiples of the
    /// vector kernels' lane counts (1, 3, 5, 7, 9), with edge scalars and
    /// the point at infinity mixed into the requests.
    #[test]
    fn scalar_mul_batch_matches_serial(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(3u64), ScalarMulAlgorithm::DoubleAndAdd);
        let mut requests: Vec<(AffinePoint, BigUint)> = Vec::new();
        for (i, k) in edge_scalars(&curve).into_iter().enumerate() {
            requests.push((if i % 2 == 0 { g.clone() } else { h.clone() }, k));
        }
        requests.push((AffinePoint::Infinity, scalar([limbs[0], limbs[1], limbs[2], limbs[3]])));
        for chunk in limbs.chunks(2) {
            requests.push((h.clone(), scalar([chunk[0], chunk[1], 0, 0])));
        }
        let references: Vec<AffinePoint> = requests
            .iter()
            .map(|(point, k)| curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd))
            .collect();
        for len in [0usize, 1, 3, 5, 7, 9] {
            let batch = curve.scalar_mul_batch(&requests[..len]);
            prop_assert_eq!(&batch[..], &references[..len], "len {}", len);
        }
    }

    /// `mont_mul_batch` is lane-for-lane identical to serial `mont_mul`
    /// at lane counts straddling the vector kernels' block sizes,
    /// including the {0, 1, p − 1} residues in every lane position.
    #[test]
    fn mont_mul_batch_matches_serial_ragged(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let p = curve.fp().modulus().clone();
        let ctx = MontgomeryContext::<4>::new(&p).expect("odd prime modulus");
        let residue = |seed: [u64; 4]| {
            let v = &scalar(seed) % &p;
            ctx.to_mont(&Uint::from_biguint(&v).expect("reduced"))
        };
        let pm1 = Uint::from_biguint(&(&p - &BigUint::one())).expect("fits");
        let specials = [Uint::ZERO, ctx.one_mont(), ctx.to_mont(&pm1)];
        macro_rules! check {
            ($lanes:literal) => {{
                let a: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[l % 8], limbs[(l + 1) % 8], l as u64, 7])
                });
                let mut b: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[(l + 2) % 8], limbs[(l + 3) % 8], l as u64, 11])
                });
                // Rotate the boundary residues through the lanes.
                for (i, s) in specials.iter().enumerate() {
                    b[(limbs[i] as usize) % $lanes] = *s;
                }
                let batched = ctx.mont_mul_batch(&a, &b);
                for l in 0..$lanes {
                    prop_assert_eq!(batched[l], ctx.mont_mul(&a[l], &b[l]), "lane {}", l);
                }
            }};
        }
        check!(3);
        check!(5);
        check!(8);
        check!(13);
    }
}
