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

use bignum::BigUint;
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
    let c1 = params.pow(&params.generator(), &k);
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
/// # Errors
///
/// Returns [`CeilidhError::DecompressionFailed`] if the ephemeral key does
/// not decode to a torus element.
pub fn decrypt_hybrid(
    params: &CeilidhParams,
    secret: &SecretKey,
    ciphertext: &HybridCiphertext,
) -> Result<Vec<u8>, CeilidhError> {
    let ephemeral = decompress(params, &ciphertext.ephemeral)?;
    let shared = params.pow(&ephemeral, secret.scalar());
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
