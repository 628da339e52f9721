//! `model_replay`: Table 3's three operations simulated on the paper's
//! Type-B platform, then the mixed engine trace served by a fleet.

use std::sync::Arc;

use bignum::{mod_exp, BigUint};
use ceilidh::CeilidhParams;
use ecc::{Curve, ScalarMulAlgorithm};
use engine::{Fleet, FleetConfig, TrafficProfile};
use field::OpCounter;
use platform::{CostModel, Hierarchy, OpKind, Platform};
use rand::rngs::StdRng;
use rand::RngCore;
use rsa_torus::RsaKeyPair;

use crate::oplog::OpLog;
use crate::{rng, Workload};

const KINDS: &[&str] = &[
    "sim_torus_exp",
    "sim_ecc_scalar_mult",
    "sim_rsa_exp",
    "fleet_run",
];
const TORUS: usize = 0;
const ECC: usize = 1;
const RSA: usize = 2;
const FLEET: usize = 3;

/// Requests in each served engine trace.
pub const TRACE_LEN: usize = 200;

/// Instances of the served fleet.
pub const FLEET_INSTANCES: usize = 4;

/// The paper's platform: 4 Montgomery cores under the Type-B hierarchy.
pub fn paper_platform() -> Platform {
    Platform::new(CostModel::paper(), 4, Hierarchy::TypeB)
}

/// Contexts, key and a warm platform for `model_replay`.
pub struct ModelReplay {
    params: CeilidhParams,
    curve: Curve,
    rsa: RsaKeyPair,
    platform: Platform,
    rng: StdRng,
}

impl ModelReplay {
    /// Builds the contexts, a seeded RSA-1024 key and a platform whose
    /// program cache already holds the `Fp6` and ladder programs.
    pub fn new(seed: u64) -> Self {
        let mut setup = rng(seed, 1);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH parameters");
        let curve = Curve::by_name("p160").expect("registered curve");
        let rsa = RsaKeyPair::generate(1024, &mut setup).expect("1024-bit key generation");
        let platform = paper_platform();
        platform.compiled(OpKind::Fp6Mul, params.fp().bit_len());
        // A two-bit scalar runs one doubling and one addition, which
        // compiles both ladder programs.
        platform.ecc_scalar_multiplication(&curve, curve.base_point(), &BigUint::from(3u64));
        ModelReplay {
            params,
            curve,
            rsa,
            platform,
            rng: rng(seed, 2),
        }
    }
}

impl Workload for ModelReplay {
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
        let rng = &mut self.rng;
        let plat = &self.platform;

        let (_, base) = self.params.random_subgroup_element(rng);
        let exponent = BigUint::random_bits(rng, 170);
        let (got, _) = log.time(TORUS, 1, || {
            plat.torus_exponentiation(&self.params, &base, &exponent)
        });
        log.check(got == self.params.pow(&base, &exponent), 1);

        let point = self.curve.random_point(rng);
        let scalar = BigUint::random_bits(rng, 160);
        let (got, _) = log.time(ECC, 1, || {
            plat.ecc_scalar_multiplication(&self.curve, &point, &scalar)
        });
        let want = self
            .curve
            .scalar_mul(&point, &scalar, ScalarMulAlgorithm::DoubleAndAdd);
        log.check(got == want, 1);

        let n = self.rsa.public().modulus();
        let d = self.rsa.private_exponent();
        let m = BigUint::random_below(rng, n);
        let (got, _) = log.time(RSA, 1, || plat.rsa_exponentiation(n, &m, d));
        log.check(got == mod_exp(&m, d, n), 1);

        let mut fleet = Fleet::new(FleetConfig::date2008(FLEET_INSTANCES));
        let trace = TrafficProfile::mixed_date2008().generate(rng.next_u64(), TRACE_LEN);
        let summary = log.time(FLEET, 1, || fleet.run(trace));
        log.check(summary.completed == TRACE_LEN as u64, 1);
    }
}
