//! Differential proptests pinning `field::FpContext` to plain `BigUint`
//! modular arithmetic.
//!
//! Every `Fp` element lives on the four-limb fixed backend whatever the
//! modulus width, so the oracle here is deliberately independent of it:
//! `%` on heap `BigUint`s and a square-and-multiply over them. The moduli
//! are the paper's (P160, the 170-bit torus prime), the two 256-bit
//! standards primes, and the toy primes 101 and 1009; the inputs include
//! values wider than 256 bits and the edge residues {0, 1, p − 1}.
//!
//! The width-cap tests check that a 257-bit modulus is refused at every
//! entry point that builds a field: `FpContext::new`, `CurveSpec` and
//! `CeilidhParams::from_components`.

use std::sync::OnceLock;

use bignum::BigUint;
use ceilidh::{CeilidhError, CeilidhParams};
use ecc::prelude::*;
use field::{FieldError, FpContext};
use proptest::prelude::*;

/// The moduli under test, by name (built once: the torus parameters
/// take a generator search).
fn moduli() -> &'static [(&'static str, BigUint)] {
    static MODULI: OnceLock<Vec<(&'static str, BigUint)>> = OnceLock::new();
    MODULI.get_or_init(|| {
        let curve_prime = |name| Curve::by_name(name).unwrap().fp().modulus().clone();
        vec![
            ("p160", curve_prime("p160")),
            ("t6-170", CeilidhParams::date2008().unwrap().p().clone()),
            ("p256", curve_prime("p256")),
            ("secp256k1", curve_prime("secp256k1")),
            ("toy-101", BigUint::from(101u64)),
            ("toy-1009", BigUint::from(1009u64)),
        ]
    })
}

/// Packs little-endian 64-bit limbs into a `BigUint`.
fn big_from_limbs(limbs: &[u64]) -> BigUint {
    limbs.iter().rev().fold(BigUint::zero(), |acc, &l| {
        &acc.shl_bits(64) + &BigUint::from(l)
    })
}

/// An input drawn from 512 random bits: an edge residue, a value wider
/// than 256 bits, or an in-range residue, chosen by `sel`.
fn input(limbs: &[u64; 8], sel: u8, p: &BigUint) -> BigUint {
    let raw = big_from_limbs(limbs);
    match sel % 8 {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => p - &BigUint::one(),
        3 => raw,
        4 => raw.shr_bits(512 - 257),
        _ => &raw % p,
    }
}

/// `base^exp mod p` by square-and-multiply on heap integers.
fn plain_pow(base: &BigUint, exp: &BigUint, p: &BigUint) -> BigUint {
    let mut acc = BigUint::one() % p;
    for i in (0..exp.bit_len()).rev() {
        acc = &(&acc * &acc) % p;
        if exp.bit(i) {
            acc = &(&acc * base) % p;
        }
    }
    acc
}

/// Checks every `Fp` operation on one modulus against the oracle.
fn check(name: &str, p: &BigUint, a: &BigUint, b: &BigUint, e: &BigUint) {
    let fp = FpContext::new(p).unwrap();
    let (ra, rb) = (a % p, b % p);
    let (fa, fb) = (fp.from_biguint(a), fp.from_biguint(b));
    let out = |x| fp.to_biguint(&x);

    // Conversions: any width reduces; only canonical values decode.
    assert_eq!(out(fa), ra, "{name}: from_biguint");
    assert_eq!(
        fp.from_canonical(a).is_some(),
        a < p,
        "{name}: from_canonical"
    );
    if let Some(c) = fp.from_canonical(a) {
        assert_eq!(c, fa, "{name}: canonical decode");
    }

    // Ring operations.
    assert_eq!(out(fp.add(&fa, &fb)), &(&ra + &rb) % p, "{name}: add");
    assert_eq!(
        out(fp.sub(&fa, &fb)),
        &(&(&ra + p) - &rb) % p,
        "{name}: sub"
    );
    assert_eq!(out(fp.neg(&fa)), &(p - &ra) % p, "{name}: neg");
    assert_eq!(out(fp.mul(&fa, &fb)), &(&ra * &rb) % p, "{name}: mul");
    assert_eq!(out(fp.square(&fa)), &(&ra * &ra) % p, "{name}: square");
    assert_eq!(out(fp.exp(&fa, e)), plain_pow(&ra, e, p), "{name}: exp");

    // Inversion: Fermat's a^(p-2), and None exactly for zero.
    let p_minus_two = p - &BigUint::from(2u64);
    match fp.inv(&fa) {
        None => assert!(ra.is_zero(), "{name}: inv of a unit"),
        Some(inv) => assert_eq!(out(inv), plain_pow(&ra, &p_minus_two, p), "{name}: inv"),
    }

    // Square roots exist exactly for zero and Euler residues.
    let half = (p - &BigUint::one()).shr_bits(1);
    let residue = ra.is_zero() || plain_pow(&ra, &half, p).is_one();
    match fp.sqrt(&fa) {
        None => assert!(!residue, "{name}: sqrt of a residue"),
        Some(r) => assert_eq!(&(&out(r) * &out(r)) % p, ra, "{name}: sqrt"),
    }
    assert_eq!(
        fp.is_square(&fa),
        residue && !ra.is_zero(),
        "{name}: is_square"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fp_matches_the_biguint_oracle(
        a in prop::array::uniform8(any::<u64>()),
        b in prop::array::uniform8(any::<u64>()),
        e in prop::array::uniform8(any::<u64>()),
        sel in prop::array::uniform3(any::<u8>()),
    ) {
        for (name, p) in moduli() {
            let e = match sel[2] % 3 {
                0 => big_from_limbs(&e),
                1 => big_from_limbs(&e[..1]),
                _ => &big_from_limbs(&e) % p,
            };
            check(name, p, &input(&a, sel[0], p), &input(&b, sel[1], p), &e);
        }
    }
}

#[test]
fn edge_residues_match_the_biguint_oracle() {
    for (name, p) in moduli() {
        let edges = [
            BigUint::zero(),
            BigUint::one(),
            p - &BigUint::one(),
            p.clone(),
            p + &BigUint::one(),
            BigUint::one().shl_bits(256),
            BigUint::one().shl_bits(600) - BigUint::one(),
        ];
        for a in &edges {
            for b in &edges {
                check(name, p, a, b, &(p - &BigUint::one()));
            }
        }
    }
}

/// `2^256 + 297`: odd and 257 bits wide, one bit past the backend.
fn modulus_257() -> BigUint {
    &BigUint::one().shl_bits(256) + &BigUint::from(297u64)
}

#[test]
fn a_257_bit_modulus_is_rejected_by_the_field() {
    let p = modulus_257();
    assert_eq!(p.bit_len(), 257);
    assert_eq!(
        FpContext::new(&p).unwrap_err(),
        FieldError::ModulusTooWide { bits: 257 }
    );
    let widest = BigUint::one().shl_bits(256) - BigUint::from(189u64);
    assert_eq!(widest.bit_len(), FpContext::MAX_BITS);
    assert!(
        FpContext::new(&widest).is_ok(),
        "256 bits is still accepted"
    );
}

#[test]
fn a_257_bit_modulus_is_rejected_by_curve_spec() {
    let err = CurveSpec::new(
        modulus_257(),
        BigUint::one(),
        BigUint::from(6u64),
        BigUint::one(),
        BigUint::one(),
    )
    .build()
    .unwrap_err();
    assert!(
        matches!(err, EccError::InvalidParameters { field: "p", reason } if reason.contains("256")),
        "{err:?}"
    );
}

#[test]
fn a_257_bit_modulus_is_rejected_by_ceilidh_params() {
    let err = CeilidhParams::from_components(&modulus_257(), &BigUint::from(7u64)).unwrap_err();
    assert!(
        matches!(err, CeilidhError::InvalidParameters(msg) if msg.contains("256")),
        "{err:?}"
    );
}
