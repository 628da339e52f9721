//! RSA key generation and the public/private operations, on the
//! fixed-width `bignum::fixed` backend (see the crate documentation).

use bignum::fixed::{sub_mod, MontgomeryContext, Uint};
use bignum::{gen_prime, mod_inv, BigUint};
use rand::Rng;

use crate::error::RsaError;
use crate::padding::{pad_encrypt, pad_sign, unpad_encrypt, unpad_sign};

/// Public exponent used throughout (F4 = 65537).
const PUBLIC_EXPONENT: u64 = 65_537;

/// Limbs of a modulus `n` of up to [`RsaKeyPair::MAX_BITS`] bits.
const N_LIMBS: usize = 16;
/// Limbs of a CRT half: with `q < R = 2^512`, every `c < n = p·q` has a
/// high half below `p`, which the double-width reduction needs.
const HALF_LIMBS: usize = N_LIMBS / 2;

/// A residue modulo `n`.
type Wide = Uint<N_LIMBS>;
/// A residue modulo `p` or `q`.
type Half = Uint<HALF_LIMBS>;

/// An RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    mont: MontgomeryContext<N_LIMBS>,
}

/// An RSA private key with CRT components.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPrivateKey {
    d: BigUint,
    d_n: Wide,
    mont_p: MontgomeryContext<HALF_LIMBS>,
    mont_q: MontgomeryContext<HALF_LIMBS>,
    d_p: Half,
    d_q: Half,
    /// `q⁻¹ mod p`, kept plain: the CRT difference it multiplies is in
    /// Montgomery form, so one `mont_mul` yields the plain product.
    q_inv: Half,
}

/// A full RSA key pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// The modulus `n = p·q`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn byte_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The raw public operation `m^e mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `m >= n`.
    pub fn raw_encrypt(&self, m: &BigUint) -> Result<BigUint, RsaError> {
        let m = self.residue(m).ok_or(RsaError::ValueOutOfRange)?;
        Ok(self.public_op(&m).to_biguint())
    }

    /// Encrypts a message with PKCS#1 v1.5-style padding.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLong`] if the message exceeds the key's
    /// capacity.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        message: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, RsaError> {
        let block = pad_encrypt(message, self.byte_len(), rng)?;
        let m = self.decode(&block).ok_or(RsaError::ValueOutOfRange)?;
        Ok(self.encode(&self.public_op(&m)))
    }

    /// Verifies a signature over `digest`.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::VerificationFailed`] if the signature is not
    /// exactly [`byte_len`](Self::byte_len) bytes, encodes a value `>= n`,
    /// or does not recover a well-padded `digest`.
    pub fn verify(&self, digest: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        let s = self.decode(signature).ok_or(RsaError::VerificationFailed)?;
        let block = self.encode(&self.public_op(&s));
        let recovered = unpad_sign(&block).map_err(|_| RsaError::VerificationFailed)?;
        if recovered == digest {
            Ok(())
        } else {
            Err(RsaError::VerificationFailed)
        }
    }

    /// `m^e mod n` for a residue `m < n`.
    fn public_op(&self, m: &Wide) -> Wide {
        const E: Wide = Uint::from_u64(PUBLIC_EXPONENT);
        self.mont.mod_exp(m, &E)
    }

    /// `v` as a residue, if `v < n`.
    fn residue(&self, v: &BigUint) -> Option<Wide> {
        Uint::from_biguint(v).filter(|v| v < self.mont.modulus())
    }

    /// Decodes an encoding of exactly [`byte_len`](Self::byte_len)
    /// big-endian bytes, if its value is below `n` (RFC 8017 §§7.2.2, 8.2.2
    /// step 1 and OS2IP's range check).
    fn decode(&self, bytes: &[u8]) -> Option<Wide> {
        if bytes.len() != self.byte_len() {
            return None;
        }
        let mut limbs = [0u64; N_LIMBS];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= u64::from(b) << (8 * (i % 8));
        }
        Some(Uint::from_limbs(limbs)).filter(|v| v < self.mont.modulus())
    }

    /// The big-endian encoding of a residue in [`byte_len`](Self::byte_len)
    /// bytes.
    fn encode(&self, v: &Wide) -> Vec<u8> {
        let mut out = vec![0u8; self.byte_len()];
        for (i, byte) in out.iter_mut().rev().enumerate() {
            *byte = (v.limbs()[i / 8] >> (8 * (i % 8))) as u8;
        }
        out
    }
}

impl RsaKeyPair {
    /// The widest supported modulus, in bits: the 16-limb backend's width.
    pub const MAX_BITS: usize = Wide::BITS;

    /// Generates a fresh key pair with an `bits`-bit modulus.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::KeyTooSmall`] if `bits < 128` and
    /// [`RsaError::KeyTooLarge`] if `bits > MAX_BITS`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Result<Self, RsaError> {
        if bits < 128 {
            return Err(RsaError::KeyTooSmall(bits));
        }
        if bits > Self::MAX_BITS {
            return Err(RsaError::KeyTooLarge(bits));
        }
        let e = BigUint::from(PUBLIC_EXPONENT);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = mod_inv(&e, &phi) else {
                continue; // e not coprime to φ(n); resample primes
            };
            let d_p = &d % &(&p - &one);
            let d_q = &d % &(&q - &one);
            let Some(q_inv) = mod_inv(&q, &p) else {
                continue;
            };
            // n has at most MAX_BITS bits and p, q at most MAX_BITS/2, so
            // every conversion below fits its width.
            return Ok(RsaKeyPair {
                public: RsaPublicKey {
                    mont: MontgomeryContext::new(&n).ok_or(RsaError::ArithmeticFailure)?,
                    n,
                    e,
                },
                private: RsaPrivateKey {
                    d_n: Uint::from_biguint(&d).ok_or(RsaError::ArithmeticFailure)?,
                    d,
                    mont_p: MontgomeryContext::new(&p).ok_or(RsaError::ArithmeticFailure)?,
                    mont_q: MontgomeryContext::new(&q).ok_or(RsaError::ArithmeticFailure)?,
                    d_p: Uint::from_biguint(&d_p).ok_or(RsaError::ArithmeticFailure)?,
                    d_q: Uint::from_biguint(&d_q).ok_or(RsaError::ArithmeticFailure)?,
                    q_inv: Uint::from_biguint(&q_inv).ok_or(RsaError::ArithmeticFailure)?,
                },
            });
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d` (exposed for the benchmark harness, which
    /// replays the full-length exponentiation the paper times).
    pub fn private_exponent(&self) -> &BigUint {
        &self.private.d
    }

    /// The raw private operation `c^d mod n`, computed without CRT
    /// (this is the 1024-bit exponentiation the paper's 96 ms row measures).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `c >= n`.
    pub fn raw_decrypt(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        let c = self.public.residue(c).ok_or(RsaError::ValueOutOfRange)?;
        let mont = &self.public.mont;
        let m = mont.mont_pow_secret(&mont.to_mont(&c), &self.private.d_n);
        Ok(mont.from_mont(&m).to_biguint())
    }

    /// The raw private operation computed with the Chinese Remainder
    /// Theorem (about 4× faster; provided for the ablation bench).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `c >= n`.
    pub fn raw_decrypt_crt(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        let c = self.public.residue(c).ok_or(RsaError::ValueOutOfRange)?;
        Ok(self.private_op(&c).to_biguint())
    }

    /// Decrypts a padded ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if the ciphertext is not
    /// exactly [`byte_len`](RsaPublicKey::byte_len) bytes or encodes a value
    /// `>= n`, and [`RsaError::InvalidPadding`] if the recovered block is
    /// malformed.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let c = self
            .public
            .decode(ciphertext)
            .ok_or(RsaError::ValueOutOfRange)?;
        unpad_encrypt(&self.public.encode(&self.private_op(&c)))
    }

    /// Signs a digest (PKCS#1 v1.5-style block, CRT exponentiation).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLong`] if the digest exceeds the key's
    /// capacity.
    pub fn sign(&self, digest: &[u8]) -> Result<Vec<u8>, RsaError> {
        let block = pad_sign(digest, self.public.byte_len())?;
        let m = self
            .public
            .decode(&block)
            .ok_or(RsaError::ValueOutOfRange)?;
        Ok(self.public.encode(&self.private_op(&m)))
    }

    /// `c^d mod n` for a residue `c < n`, by CRT (Garner's recombination).
    fn private_op(&self, c: &Wide) -> Wide {
        let sk = &self.private;
        let (p, q) = (&sk.mont_p, &sk.mont_q);
        // c < p·q < p·R, so the high half of c is below p (and below q).
        let (lo, hi) = split(c);
        let m_p = p.mont_pow_secret(&p.to_mont_wide(&lo, &hi), &sk.d_p);
        let m_q = q.from_mont(&q.mont_pow_secret(&q.to_mont_wide(&lo, &hi), &sk.d_q));
        // h = q⁻¹·(m_p − m_q) mod p: the difference is in Montgomery form,
        // and multiplying by the plain q⁻¹ removes its factor R.
        let diff = sub_mod(&m_p, &p.to_mont_wide(&m_q, &Half::ZERO), p.modulus());
        let h = p.mont_mul(&diff, &sk.q_inv);
        // m = m_q + h·q ≤ (q − 1) + (p − 1)·q < n: no carry out.
        let (hq_lo, hq_hi) = h.mul_wide(q.modulus());
        join(&hq_lo, &hq_hi).wrapping_add(&join(&m_q, &Half::ZERO))
    }
}

/// The low and high halves of a residue modulo `n`.
fn split(v: &Wide) -> (Half, Half) {
    let mut lo = [0u64; HALF_LIMBS];
    let mut hi = [0u64; HALF_LIMBS];
    lo.copy_from_slice(&v.limbs()[..HALF_LIMBS]);
    hi.copy_from_slice(&v.limbs()[HALF_LIMBS..]);
    (Uint::from_limbs(lo), Uint::from_limbs(hi))
}

/// `hi·2^512 + lo`.
fn join(lo: &Half, hi: &Half) -> Wide {
    let mut limbs = [0u64; N_LIMBS];
    limbs[..HALF_LIMBS].copy_from_slice(lo.limbs());
    limbs[HALF_LIMBS..].copy_from_slice(hi.limbs());
    Uint::from_limbs(limbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keys() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        RsaKeyPair::generate(512, &mut rng).unwrap()
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        assert_eq!(
            RsaKeyPair::generate(64, &mut rng).unwrap_err(),
            RsaError::KeyTooSmall(64)
        );
    }

    #[test]
    fn raw_roundtrip_and_crt_agreement() {
        let kp = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, kp.public().modulus());
            let c = kp.public().raw_encrypt(&m).unwrap();
            assert_eq!(kp.raw_decrypt(&c).unwrap(), m);
            assert_eq!(kp.raw_decrypt_crt(&c).unwrap(), m);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for msg in [&b""[..], b"x", b"hello rsa world", &[7u8; 40]] {
            let ct = kp.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(ct.len(), kp.public().byte_len());
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keys();
        let digest = [0xABu8; 32];
        let sig = kp.sign(&digest).unwrap();
        assert!(kp.public().verify(&digest, &sig).is_ok());
        // Tampered digest fails.
        let mut bad = digest;
        bad[0] ^= 1;
        assert_eq!(
            kp.public().verify(&bad, &sig).unwrap_err(),
            RsaError::VerificationFailed
        );
        // Tampered signature fails.
        let mut bad_sig = sig.clone();
        bad_sig[10] ^= 1;
        assert!(kp.public().verify(&digest, &bad_sig).is_err());
    }

    #[test]
    fn oversize_values_rejected() {
        let kp = keys();
        let too_big = kp.public().modulus().clone();
        assert_eq!(
            kp.public().raw_encrypt(&too_big).unwrap_err(),
            RsaError::ValueOutOfRange
        );
        assert_eq!(
            kp.raw_decrypt(&too_big).unwrap_err(),
            RsaError::ValueOutOfRange
        );
        let huge_msg = vec![1u8; 200];
        assert!(matches!(
            kp.public()
                .encrypt(&huge_msg, &mut rand::rngs::StdRng::seed_from_u64(1)),
            Err(RsaError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn key_structure_invariants() {
        let kp = keys();
        assert_eq!(kp.public().modulus().bit_len(), 512);
        assert_eq!(kp.public().exponent().to_u64(), Some(65_537));
        // d·e ≡ 1 mod φ(n) implies raw ops invert each other, which the
        // roundtrip test already covers; here check the byte length helper.
        assert_eq!(kp.public().byte_len(), 64);
    }
}
