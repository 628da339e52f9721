//! `curves_256`: the 256-bit standards curves, which run on the
//! fixed-limb backend only — single P-256 ECDH calls next to batched
//! secp256k1 scalar multiplications.

use std::sync::Arc;

use bignum::BigUint;
use ecc::{AffinePoint, Curve, EccKeyPair, ScalarMulAlgorithm};
use field::OpCounter;
use rand::rngs::StdRng;

use crate::oplog::OpLog;
use crate::{rng, Workload};

const KINDS: &[&str] = &["ecdh_p256", "batch_k1_element"];
const ECDH: usize = 0;
const BATCH: usize = 1;

/// ECDH key pairs the rounds cycle through.
const POOL: usize = 8;

/// Requests per `Curve::scalar_mul_batch` call.
pub const BATCH_LEN: usize = 64;

/// Curves, key pairs and batch points for `curves_256`.
pub struct Curves256 {
    p256: Curve,
    k1: Curve,
    ecdh: Vec<EccKeyPair>,
    points: Vec<AffinePoint>,
    rng: StdRng,
    round: usize,
}

impl Curves256 {
    /// Builds both curves, the P-256 key pairs and the secp256k1 batch
    /// points from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut setup = rng(seed, 1);
        let p256 = Curve::by_name("p256").expect("registered curve");
        let k1 = Curve::by_name("secp256k1").expect("registered curve");
        let ecdh = (0..POOL)
            .map(|_| EccKeyPair::generate(&p256, &mut setup))
            .collect();
        let points = (0..BATCH_LEN)
            .map(|_| k1.random_point(&mut setup))
            .collect();
        Curves256 {
            p256,
            k1,
            ecdh,
            points,
            rng: rng(seed, 2),
            round: 0,
        }
    }
}

impl Workload for Curves256 {
    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn counters(&self) -> Vec<Arc<OpCounter>> {
        vec![
            self.p256.fp().counter().clone(),
            self.k1.fp().counter().clone(),
        ]
    }

    fn round(&mut self, log: &mut OpLog) {
        let i = self.round % POOL;
        self.round += 1;

        let (a, b) = (&self.ecdh[i], &self.ecdh[(i + 1) % POOL]);
        let ab = log.time(ECDH, 1, || self.p256.shared_secret(a.secret(), b.public()));
        let ba = log.time(ECDH, 1, || self.p256.shared_secret(b.secret(), a.public()));
        log.check(ab.is_ok() && ab == ba, 2);

        let order = self.k1.order().expect("secp256k1 has a known order");
        let requests: Vec<(AffinePoint, BigUint)> = self
            .points
            .iter()
            .map(|p| (p.clone(), BigUint::random_below(&mut self.rng, order)))
            .collect();
        let results = log.time(BATCH, BATCH_LEN as u64, || {
            self.k1.scalar_mul_batch(&requests)
        });
        let wrong = requests
            .iter()
            .zip(&results)
            .filter(|((p, k), got)| self.k1.scalar_mul(p, k, ScalarMulAlgorithm::Naf) != **got)
            .count() as u64;
        let missing = BATCH_LEN as u64 - results.len().min(BATCH_LEN) as u64;
        log.check(wrong + missing == 0, wrong + missing);
    }
}
