//! ElGamal-style encryption on the torus.
//!
//! Two flavours are provided:
//!
//! * [`encrypt_element`]/[`decrypt_element`] — textbook group ElGamal where
//!   the plaintext is itself a torus element;
//! * [`encrypt_hybrid`]/[`decrypt_hybrid`] — a hybrid scheme in which the
//!   ephemeral public value is transmitted in the factor-3 compressed form
//!   and the message bytes are masked by a key stream derived from the
//!   shared element. This is the flow where CEILIDH's bandwidth advantage
//!   (Section 1 of the paper) is visible on the wire.

use bignum::{mod_mul, BigUint};
use rand::Rng;

use crate::compress::{compress, decompress, CompressedTorus};
use crate::error::CeilidhError;
use crate::kdf::ToyKdf;
use crate::keys::{KeyPair, PublicKey, SecretKey};
use crate::params::CeilidhParams;
use crate::torus::TorusElement;

/// A textbook ElGamal ciphertext `(g^k, m · y^k)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElGamalCiphertext {
    /// The ephemeral value `g^k`.
    pub c1: TorusElement,
    /// The masked message `m · y^k`.
    pub c2: TorusElement,
}

/// A hybrid ciphertext: compressed ephemeral key plus masked payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HybridCiphertext {
    /// The compressed ephemeral public value `g^k`.
    pub ephemeral: CompressedTorus,
    /// `message XOR keystream`.
    pub payload: Vec<u8>,
}

/// Encrypts a torus element under `recipient`.
pub fn encrypt_element<R: Rng + ?Sized>(
    params: &CeilidhParams,
    recipient: &PublicKey,
    message: &TorusElement,
    rng: &mut R,
) -> ElGamalCiphertext {
    let one = BigUint::one();
    let k = &BigUint::random_below(rng, &(params.q() - &one)) + &one;
    let c1 = params.pow_generator(&k);
    let shared = params.pow(recipient.element(), &k);
    let c2 = params.mul(message, &shared);
    ElGamalCiphertext { c1, c2 }
}

/// Decrypts a textbook ElGamal ciphertext.
pub fn decrypt_element(
    params: &CeilidhParams,
    secret: &SecretKey,
    ciphertext: &ElGamalCiphertext,
) -> TorusElement {
    let shared = params.pow(&ciphertext.c1, secret.scalar());
    params.mul(&ciphertext.c2, &params.invert(&shared))
}

/// Encrypts arbitrary bytes under `recipient` using a compressed ephemeral
/// key and a KDF-derived key stream.
///
/// # Errors
///
/// Returns [`CeilidhError::CompressionFailed`] only if no compressible
/// ephemeral key could be found after many attempts (practically
/// unreachable).
pub fn encrypt_hybrid<R: Rng + ?Sized>(
    params: &CeilidhParams,
    recipient: &PublicKey,
    message: &[u8],
    rng: &mut R,
) -> Result<HybridCiphertext, CeilidhError> {
    // Retry with a fresh ephemeral key in the rare event the compressed
    // encoding is degenerate for the sampled point.
    for _ in 0..64 {
        let ephemeral_pair = KeyPair::generate(params, rng);
        let Ok(compressed) = compress(params, ephemeral_pair.public().element()) else {
            continue;
        };
        let shared = params.pow(recipient.element(), ephemeral_pair.secret().scalar());
        let keystream = keystream_from(params, &shared, message.len());
        let payload = message
            .iter()
            .zip(keystream.iter())
            .map(|(m, k)| m ^ k)
            .collect();
        return Ok(HybridCiphertext {
            ephemeral: compressed,
            payload,
        });
    }
    Err(CeilidhError::CompressionFailed(
        "could not sample a compressible ephemeral key",
    ))
}

/// Decrypts a hybrid ciphertext.
///
/// The decoded ephemeral `e` lies on `T6` but not necessarily in the
/// order-`q` subgroup, so its cofactor `h` is cleared first (cofactor
/// Diffie–Hellman, SEC 1 §3.3.2): the shared element is
/// `(e^h)^(x·h⁻¹ mod q)`. For an honest `e = g^k` that is `e^x`, as
/// before; a small-order component of `e` no longer reaches the result,
/// so it cannot leak `x` modulo the cofactor.
///
/// # Errors
///
/// Returns [`CeilidhError::DecompressionFailed`] if the ephemeral key does
/// not decode to a torus element, and [`CeilidhError::NotInTorus`] if it
/// has no component in the order-`q` subgroup (`e^h = 1`).
pub fn decrypt_hybrid(
    params: &CeilidhParams,
    secret: &SecretKey,
    ciphertext: &HybridCiphertext,
) -> Result<Vec<u8>, CeilidhError> {
    let ephemeral = decompress(params, &ciphertext.ephemeral)?;
    // The cofactor is public: a plain square-and-multiply chain, 14
    // products for `date2008()`'s h = 327.
    let cleared = params.fp6().exp(ephemeral.as_fp6(), params.cofactor());
    if cleared == params.fp6().one() {
        return Err(CeilidhError::NotInTorus);
    }
    let exponent = mod_mul(secret.scalar(), &params.cofactor_inverse, params.q());
    let shared = params.pow(&TorusElement::from_fp6_unchecked(cleared), &exponent);
    let keystream = keystream_from(params, &shared, ciphertext.payload.len());
    Ok(ciphertext
        .payload
        .iter()
        .zip(keystream.iter())
        .map(|(c, k)| c ^ k)
        .collect())
}

/// Derives a key stream from a shared torus element.
fn keystream_from(params: &CeilidhParams, shared: &TorusElement, len: usize) -> Vec<u8> {
    let mut kdf = ToyKdf::new();
    kdf.absorb(b"ceilidh-hybrid-v1");
    for coeff in shared.as_fp6().coeffs() {
        kdf.absorb(&params.fp().to_biguint(coeff).to_be_bytes());
        kdf.absorb(b"|");
    }
    kdf.squeeze(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (CeilidhParams, KeyPair, rand::rngs::StdRng) {
        let params = CeilidhParams::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let kp = KeyPair::generate(&params, &mut rng);
        (params, kp, rng)
    }

    #[test]
    fn element_encryption_roundtrip() {
        let (params, kp, mut rng) = setup();
        for _ in 0..5 {
            let (_, message) = params.random_subgroup_element(&mut rng);
            let ct = encrypt_element(&params, kp.public(), &message, &mut rng);
            assert_eq!(decrypt_element(&params, kp.secret(), &ct), message);
        }
    }

    #[test]
    fn element_encryption_is_randomised() {
        let (params, kp, mut rng) = setup();
        let (_, message) = params.random_subgroup_element(&mut rng);
        let ct1 = encrypt_element(&params, kp.public(), &message, &mut rng);
        let ct2 = encrypt_element(&params, kp.public(), &message, &mut rng);
        // With overwhelming probability the ephemeral keys differ.
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn hybrid_roundtrip() {
        let (params, kp, mut rng) = setup();
        for msg in [&b""[..], b"a", b"attack at dawn", &[0u8; 257]] {
            let ct = encrypt_hybrid(&params, kp.public(), msg, &mut rng).unwrap();
            assert_eq!(ct.payload.len(), msg.len());
            let pt = decrypt_hybrid(&params, kp.secret(), &ct).unwrap();
            assert_eq!(pt, msg);
        }
    }

    #[test]
    fn hybrid_decryption_with_wrong_key_differs() {
        let (params, kp, mut rng) = setup();
        let other = KeyPair::from_scalar(&params, BigUint::from(29u64));
        let msg = b"the magic words are squeamish ossifrage";
        let ct = encrypt_hybrid(&params, kp.public(), msg, &mut rng).unwrap();
        if other.secret() != kp.secret() {
            let wrong = decrypt_hybrid(&params, other.secret(), &ct).unwrap();
            assert_ne!(wrong, msg.to_vec());
        }
    }

    #[test]
    fn decrypting_garbage_fails_or_differs() {
        let (params, kp, mut rng) = setup();
        let msg = b"payload";
        let mut ct = encrypt_hybrid(&params, kp.public(), msg, &mut rng).unwrap();
        // Corrupt the ephemeral coordinates.
        ct.ephemeral.u0 = &ct.ephemeral.u0 + &BigUint::one();
        match decrypt_hybrid(&params, kp.secret(), &ct) {
            Err(CeilidhError::DecompressionFailed(_)) => {}
            Ok(other) => assert_ne!(other, msg.to_vec()),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn small_order_components_of_the_ephemeral_do_not_reach_the_key() {
        // Φ6(p) = 327·q for date2008(): an ephemeral g^k·s with s of order
        // 109 or 327 must decrypt exactly like g^k, so that decryption
        // reveals nothing about the secret key modulo 327.
        let params = CeilidhParams::date2008().unwrap();
        let fp6 = params.fp6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let kp = KeyPair::generate(&params, &mut rng);
        let has_order_327 = |s: &TorusElement| {
            [3u64, 109]
                .iter()
                .all(|&d| fp6.exp(s.as_fp6(), &BigUint::from(d)) != fp6.one())
        };
        let order_327 = loop {
            let r = fp6.random(&mut rng);
            let Some(t) = params.project_to_torus(&r) else {
                continue;
            };
            let s = params.pow(&t, params.q());
            if has_order_327(&s) {
                break s;
            }
        };
        let order_109 = params.pow(&order_327, &BigUint::from(3u64));
        assert_ne!(order_109, params.identity());

        let msg = b"the key stays secret modulo 327";
        let k = BigUint::random_below(&mut rng, params.q());
        let honest = params.pow_generator(&k);
        let keystream = keystream_from(&params, &params.pow(kp.public().element(), &k), msg.len());
        let payload: Vec<u8> = msg.iter().zip(&keystream).map(|(m, k)| m ^ k).collect();
        for ephemeral in [
            honest.clone(),
            params.mul(&honest, &order_109),
            params.mul(&honest, &order_327),
        ] {
            let ct = HybridCiphertext {
                ephemeral: compress(&params, &ephemeral).unwrap(),
                payload: payload.clone(),
            };
            assert_eq!(
                decrypt_hybrid(&params, kp.secret(), &ct).unwrap(),
                msg.to_vec()
            );
        }
        // An ephemeral with no order-q part at all is refused.
        for small in [order_109, order_327] {
            let ct = HybridCiphertext {
                ephemeral: compress(&params, &small).unwrap(),
                payload: payload.clone(),
            };
            assert_eq!(
                decrypt_hybrid(&params, kp.secret(), &ct).unwrap_err(),
                CeilidhError::NotInTorus
            );
        }
    }

    #[test]
    fn non_canonical_ephemeral_is_rejected() {
        let (params, kp, mut rng) = setup();
        let msg = b"one encoding per ciphertext";
        let ct = encrypt_hybrid(&params, kp.public(), msg, &mut rng).unwrap();
        assert_eq!(
            decrypt_hybrid(&params, kp.secret(), &ct).unwrap(),
            msg.to_vec()
        );
        // u0 + p names the same residue; accepting it would make
        // ciphertexts malleable.
        let mut tampered = ct.clone();
        tampered.ephemeral.u0 = &tampered.ephemeral.u0 + params.p();
        assert!(matches!(
            decrypt_hybrid(&params, kp.secret(), &tampered),
            Err(CeilidhError::DecompressionFailed(_))
        ));
    }
}
