//! Differential and hostile-input tests for the fixed-limb RSA backend.
//!
//! `raw_encrypt`, `raw_decrypt` and `raw_decrypt_crt` run on stack
//! `Uint<16>`/`Uint<8>` Montgomery contexts; here they are checked against
//! the `BigUint` oracle `bignum::mod_exp` at 1024 bits (512-bit halves, so
//! `R = 2^512` is barely above `p`), 512, 768 and 769 bits (unequal
//! halves), on `{0, 1, n − 1}` and random residues. The padded operations
//! must reject every malformed encoding with an error, never a panic.

use std::sync::OnceLock;

use bignum::{mod_exp, BigUint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa_torus::{unpad_encrypt, unpad_sign, RsaError, RsaKeyPair};

/// The key sizes under test, each generated once from a fixed seed.
const SIZES: [usize; 4] = [1024, 512, 768, 769];

fn key(bits: usize) -> &'static RsaKeyPair {
    static KEYS: [OnceLock<RsaKeyPair>; SIZES.len()] = [const { OnceLock::new() }; SIZES.len()];
    let slot = SIZES
        .iter()
        .position(|&b| b == bits)
        .expect("size under test");
    KEYS[slot].get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(bits as u64);
        RsaKeyPair::generate(bits, &mut rng).expect("supported key size")
    })
}

/// `{0, 1, n − 1}` plus random residues below `n`.
fn inputs(keys: &RsaKeyPair, rng: &mut StdRng, random: usize) -> Vec<BigUint> {
    let n = keys.public().modulus();
    let mut out = vec![BigUint::zero(), BigUint::one(), n - &BigUint::one()];
    out.extend((0..random).map(|_| BigUint::random_below(rng, n)));
    out
}

#[test]
fn raw_operations_match_the_biguint_oracle() {
    for bits in SIZES {
        let keys = key(bits);
        let public = keys.public();
        let n = public.modulus();
        let d = keys.private_exponent();
        assert_eq!(n.bit_len(), bits);
        let mut rng = StdRng::seed_from_u64(7 + bits as u64);
        for x in inputs(keys, &mut rng, 4) {
            let c = public.raw_encrypt(&x).unwrap();
            assert_eq!(c, mod_exp(&x, public.exponent(), n), "{bits}: encrypt {x}");
            let m = keys.raw_decrypt(&x).unwrap();
            assert_eq!(m, mod_exp(&x, d, n), "{bits}: decrypt {x}");
            assert_eq!(keys.raw_decrypt_crt(&x).unwrap(), m, "{bits}: CRT {x}");
            assert_eq!(
                keys.raw_decrypt_crt(&c).unwrap(),
                x,
                "{bits}: round trip {x}"
            );
        }
    }
}

#[test]
fn padded_round_trips_at_1024_bits() {
    let keys = key(1024);
    let public = keys.public();
    let mut rng = StdRng::seed_from_u64(3);
    for msg in [&b""[..], b"x", &[0u8; 32], &[0xff; 117]] {
        let ct = public.encrypt(msg, &mut rng).unwrap();
        assert_eq!(ct.len(), 128);
        assert_eq!(keys.decrypt(&ct).unwrap(), msg);
        let sig = keys.sign(msg).unwrap();
        assert_eq!(sig.len(), 128);
        assert_eq!(public.verify(msg, &sig), Ok(()));
    }
}

#[test]
fn key_size_is_capped_at_1024_bits() {
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(RsaKeyPair::MAX_BITS, 1024);
    assert_eq!(
        RsaKeyPair::generate(1025, &mut rng).unwrap_err(),
        RsaError::KeyTooLarge(1025)
    );
    assert_eq!(key(1024).public().modulus().bit_len(), 1024);
}

#[test]
fn raw_operations_reject_values_at_or_above_n() {
    let keys = key(1024);
    let n = keys.public().modulus();
    let mut rng = StdRng::seed_from_u64(5);
    let mut hostile = vec![
        n.clone(),
        n + &BigUint::one(),
        BigUint::one().shl_bits(1024) - BigUint::one(),
        BigUint::one().shl_bits(1024),
        n.shl_bits(1),
    ];
    hostile.extend((0..8).map(|i| BigUint::random_bits(&mut rng, 1025 + 97 * i)));
    for v in &hostile {
        assert_eq!(keys.public().raw_encrypt(v), Err(RsaError::ValueOutOfRange));
        assert_eq!(keys.raw_decrypt(v), Err(RsaError::ValueOutOfRange));
        assert_eq!(keys.raw_decrypt_crt(v), Err(RsaError::ValueOutOfRange));
    }
}

#[test]
fn encodings_must_be_exactly_k_bytes_and_below_n() {
    let keys = key(1024);
    let public = keys.public();
    let mut rng = StdRng::seed_from_u64(9);
    let msg = b"length-checked";
    let ct = public.encrypt(msg, &mut rng).unwrap();
    let sig = keys.sign(msg).unwrap();
    // A leading zero byte keeps the value but breaks the length.
    let padded = |v: &[u8]| [&[0u8][..], v].concat();
    assert_eq!(keys.decrypt(&padded(&ct)), Err(RsaError::ValueOutOfRange));
    assert_eq!(
        public.verify(msg, &padded(&sig)),
        Err(RsaError::VerificationFailed)
    );
    assert_eq!(keys.decrypt(&ct[1..]), Err(RsaError::ValueOutOfRange));
    assert_eq!(
        public.verify(msg, &sig[1..]),
        Err(RsaError::VerificationFailed)
    );
    // n itself, encoded in exactly k bytes.
    let n_bytes = public.modulus().to_be_bytes();
    assert_eq!(n_bytes.len(), 128);
    assert_eq!(keys.decrypt(&n_bytes), Err(RsaError::ValueOutOfRange));
    assert_eq!(
        public.verify(msg, &n_bytes),
        Err(RsaError::VerificationFailed)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let keys = key(1024);
        let public = keys.public();
        let decrypted = keys.decrypt(&bytes);
        let verified = public.verify(b"digest", &bytes);
        if bytes.len() != public.byte_len() {
            prop_assert_eq!(decrypted, Err(RsaError::ValueOutOfRange));
            prop_assert_eq!(verified, Err(RsaError::VerificationFailed));
        }
        let _ = unpad_encrypt(&bytes);
        let _ = unpad_sign(&bytes);
    }

    #[test]
    fn full_length_encodings_are_range_checked(
        bytes in prop::collection::vec(any::<u8>(), 128),
    ) {
        // Random k-byte strings land on both sides of n.
        let keys = key(1024);
        let above = BigUint::from_be_bytes(&bytes) >= *keys.public().modulus();
        let decrypted = keys.decrypt(&bytes);
        if above {
            prop_assert_eq!(decrypted, Err(RsaError::ValueOutOfRange));
            prop_assert_eq!(
                keys.public().verify(b"digest", &bytes),
                Err(RsaError::VerificationFailed)
            );
        } else {
            prop_assert!(decrypted != Err(RsaError::ValueOutOfRange));
        }
    }

    #[test]
    fn raw_operations_never_panic_on_wide_values(
        bytes in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let keys = key(1024);
        let v = BigUint::from_be_bytes(&bytes);
        let in_range = v < *keys.public().modulus();
        prop_assert_eq!(keys.public().raw_encrypt(&v).is_ok(), in_range);
        prop_assert_eq!(keys.raw_decrypt_crt(&v).is_ok(), in_range);
    }
}
