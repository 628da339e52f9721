//! `paper_protocols`: the paper's three cryptosystems at the paper's own
//! sizes, round-robin, each op checked.

use std::sync::Arc;

use ceilidh::{decrypt_hybrid, encrypt_hybrid, sign, verify, CeilidhParams, KeyPair};
use ecc::{Curve, EccKeyPair};
use field::OpCounter;
use rand::rngs::StdRng;
use rand::RngCore;
use rsa_torus::RsaKeyPair;

use crate::oplog::OpLog;
use crate::{rng, Workload};

const KINDS: &[&str] = &[
    "ceilidh_encrypt",
    "ceilidh_decrypt",
    "ceilidh_sign",
    "ceilidh_verify",
    "ecdh_p160",
    "rsa_decrypt",
    "rsa_verify",
];
const ENCRYPT: usize = 0;
const DECRYPT: usize = 1;
const SIGN: usize = 2;
const VERIFY: usize = 3;
const ECDH: usize = 4;
const RSA_DECRYPT: usize = 5;
const RSA_VERIFY: usize = 6;

/// Distinct messages, ECDH key pairs and RSA ciphertexts/signatures the
/// rounds cycle through.
const POOL: usize = 8;

/// The message length of the paper's protocols.
const MESSAGE_BYTES: usize = 32;

/// Keys, curves and input pools for `paper_protocols`.
pub struct PaperProtocols {
    params: CeilidhParams,
    alice: KeyPair,
    curve: Curve,
    ecdh: Vec<EccKeyPair>,
    rsa: RsaKeyPair,
    messages: Vec<Vec<u8>>,
    rsa_ciphertexts: Vec<Vec<u8>>,
    rsa_signatures: Vec<Vec<u8>>,
    rng: StdRng,
    round: usize,
}

/// A `len`-byte message drawn from `rng`.
pub fn message(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut m = vec![0u8; len];
    rng.fill_bytes(&mut m);
    m
}

impl PaperProtocols {
    /// Builds every context and key from `seed`: the 170-bit CEILIDH
    /// parameters and a key pair, the P160 curve and ECDH key pairs, and a
    /// seeded RSA-1024 key with its ciphertext and signature pools.
    pub fn new(seed: u64) -> Self {
        let mut setup = rng(seed, 1);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH parameters");
        let alice = KeyPair::generate(&params, &mut setup);
        let curve = Curve::by_name("p160").expect("registered curve");
        let ecdh = (0..POOL)
            .map(|_| EccKeyPair::generate(&curve, &mut setup))
            .collect();
        let rsa = RsaKeyPair::generate(1024, &mut setup).expect("1024-bit key generation");
        let messages: Vec<Vec<u8>> = (0..POOL)
            .map(|_| message(&mut setup, MESSAGE_BYTES))
            .collect();
        let rsa_ciphertexts = messages
            .iter()
            .map(|m| rsa.public().encrypt(m, &mut setup).expect("message fits"))
            .collect();
        let rsa_signatures = messages
            .iter()
            .map(|m| rsa.sign(m).expect("digest fits"))
            .collect();
        PaperProtocols {
            params,
            alice,
            curve,
            ecdh,
            rsa,
            messages,
            rsa_ciphertexts,
            rsa_signatures,
            rng: rng(seed, 2),
            round: 0,
        }
    }
}

impl Workload for PaperProtocols {
    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn counters(&self) -> Vec<Arc<OpCounter>> {
        vec![
            self.params.fp().counter().clone(),
            self.curve.fp().counter().clone(),
        ]
    }

    fn round(&mut self, log: &mut OpLog) {
        let i = self.round % POOL;
        self.round += 1;
        let params = &self.params;
        let message = &self.messages[i];

        let rng = &mut self.rng;
        let ciphertext = log.time(ENCRYPT, 1, || {
            encrypt_hybrid(params, self.alice.public(), message, rng)
        });
        match ciphertext {
            Ok(ct) => {
                let plain = log.time(DECRYPT, 1, || {
                    decrypt_hybrid(params, self.alice.secret(), &ct)
                });
                log.check(plain.as_ref() == Ok(message), 1);
            }
            Err(_) => log.check(false, 1),
        }

        let signature = log.time(SIGN, 1, || sign(params, self.alice.secret(), message, rng));
        match signature {
            Ok(sig) => {
                let verdict = log.time(VERIFY, 1, || {
                    verify(params, self.alice.public(), message, &sig)
                });
                log.check(verdict.is_ok(), 1);
            }
            Err(_) => log.check(false, 1),
        }

        let (a, b) = (&self.ecdh[i], &self.ecdh[(i + 1) % POOL]);
        let ab = log.time(ECDH, 1, || self.curve.shared_secret(a.secret(), b.public()));
        let ba = log.time(ECDH, 1, || self.curve.shared_secret(b.secret(), a.public()));
        log.check(ab.is_ok() && ab == ba, 2);

        let plain = log.time(RSA_DECRYPT, 1, || {
            self.rsa.decrypt(&self.rsa_ciphertexts[i])
        });
        log.check(plain.as_ref() == Ok(message), 1);
        let verdict = log.time(RSA_VERIFY, 1, || {
            self.rsa.public().verify(message, &self.rsa_signatures[i])
        });
        log.check(verdict.is_ok(), 1);
    }
}
