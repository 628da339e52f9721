//! The per-layer ledger of traced runs: every layer of the stack timed
//! from outside, through its crate's public functions, on inputs drawn
//! from the run's seed. Composite layers also get a self-time row: the
//! layer's median minus Σ(child operation count × child median).

use std::hint::black_box;
use std::time::{Duration, Instant};

use bignum::{mod_exp, BigUint, MontgomeryParams};
use ceilidh::{
    compress, decompress, decrypt_hybrid, encrypt_hybrid, sign, verify, CeilidhParams, KeyPair,
};
use ecc::{naf_digits, Curve, EccKeyPair, ScalarMulAlgorithm};
use engine::{Fleet, FleetConfig, RunSummary, TrafficProfile};
use field::{FpContext, OpCount};
use platform::{compile, CostModel, OpKind};
use rand::rngs::StdRng;
use rsa_torus::RsaKeyPair;

use crate::curves::BATCH_LEN;
use crate::paper::message;
use crate::replay::{paper_platform, FLEET_INSTANCES, TRACE_LEN};
use crate::{rng, stats, Metric};

/// Time spent sampling each group of cheap operations.
const BUDGET: Duration = Duration::from_millis(250);
/// Fewest rounds behind a cheap group's medians.
const MIN_ROUNDS: usize = 11;
/// Calls batched into one sample of a sub-microsecond operation.
const SAMPLE_SPAN: Duration = Duration::from_micros(20);

/// Median nanoseconds per call of each operation, sampled round-robin —
/// one sample of every operation per round — so that a stretch of
/// co-tenant load falls on all of them alike and the self-time rows
/// subtract like from like. A sample batches enough calls to last about
/// [`SAMPLE_SPAN`]; rounds go on until `budget` has passed and at least
/// `min_rounds` were taken.
fn interleaved<const N: usize>(
    budget: Duration,
    min_rounds: usize,
    mut ops: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let calls = ops.each_mut().map(|f| {
        let first = Instant::now();
        f();
        (SAMPLE_SPAN.as_nanos() / first.elapsed().as_nanos().max(1)).clamp(1, 10_000)
    });
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        for ((f, calls), s) in ops.iter_mut().zip(calls).zip(&mut samples) {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            s.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
        rounds += 1;
    }
    samples.map(|s| stats::median(&s))
}

/// Keeps the optimiser from discarding a measured result.
fn consume<T>(value: T) {
    black_box(value);
}

/// [`interleaved`] over cheap operations.
fn cheap<const N: usize>(ops: [&mut dyn FnMut(); N]) -> [f64; N] {
    interleaved(BUDGET, MIN_ROUNDS, ops)
}

/// [`interleaved`] over expensive operations: exactly `rounds` rounds.
fn costly<const N: usize>(rounds: usize, ops: [&mut dyn FnMut(); N]) -> [f64; N] {
    interleaved(Duration::ZERO, rounds, ops)
}

/// `Fp` operations performed by `f`.
fn counted<T>(fp: &FpContext, f: impl FnOnce() -> T) -> OpCount {
    let before = fp.op_count();
    consume(f());
    fp.op_count().since(&before)
}

/// `part` as a percentage of `whole`.
fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole
}

/// Child medians of one prime field, in nanoseconds.
struct FpCosts {
    mul: f64,
    add: f64,
    sub: f64,
    inv: f64,
}

impl FpCosts {
    /// Σ(count × median) over the four `Fp` operations.
    fn price(&self, ops: OpCount) -> f64 {
        ops.mul as f64 * self.mul
            + ops.add as f64 * self.add
            + ops.sub as f64 * self.sub
            + ops.inv as f64 * self.inv
    }
}

struct Ledger {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    rng: StdRng,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Times every layer; returns the metrics and the checks attempted and
/// failed.
pub fn run(seed: u64) -> (Vec<Metric>, u64, u64) {
    let mut l = Ledger {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        rng: rng(seed, 10),
    };
    let params = CeilidhParams::date2008().expect("built-in CEILIDH parameters");
    let p160 = Curve::by_name("p160").expect("registered curve");
    let p256 = Curve::by_name("p256").expect("registered curve");
    let k1 = Curve::by_name("secp256k1").expect("registered curve");
    let rsa = RsaKeyPair::generate(1024, &mut l.rng).expect("1024-bit key generation");

    bignum_layer(&mut l, &params, &p160);
    field_layer(&mut l, &params, &p160, &p256);
    ceilidh_layer(&mut l, &params);
    ecc_layer(&mut l, &p160, &p256, &k1);
    rsa_layer(&mut l, &rsa);
    platform_layer(&mut l, &params, &p160, &rsa);
    engine_layer(&mut l);
    (l.metrics, l.attempted, l.failed)
}

fn bignum_layer(l: &mut Ledger, params: &CeilidhParams, p160: &Curve) {
    // An odd 512-bit modulus: the cost of the RSA-1024 CRT half-size
    // products does not depend on primality.
    let mut m512 = BigUint::random_bits(&mut l.rng, 512);
    if m512.is_even() {
        m512 = &m512 + &BigUint::one();
    }
    let [(m170, a170, b170), (m160, a160, b160), (m512, a512, b512)] =
        [params.p().clone(), p160.fp().modulus().clone(), m512].map(|modulus| {
            let mont = MontgomeryParams::new(&modulus).expect("odd modulus");
            let a = mont.to_mont(&BigUint::random_below(&mut l.rng, &modulus));
            let b = mont.to_mont(&BigUint::random_below(&mut l.rng, &modulus));
            (mont, a, b)
        });
    let ns = cheap([
        &mut || consume(m170.mont_mul(black_box(&a170), black_box(&b170))),
        &mut || consume(m160.mont_mul(black_box(&a160), black_box(&b160))),
        &mut || consume(m512.mont_mul(black_box(&a512), black_box(&b512))),
    ]);
    for (tag, ns) in ["p170", "p160", "rsa512"].into_iter().zip(ns) {
        l.put(&format!("bignum.mont_mul_ns.{tag}"), ns, "ns");
    }
}

fn field_layer(l: &mut Ledger, params: &CeilidhParams, p160: &Curve, p256: &Curve) {
    let (f160, f256) = (p160.fp(), p256.fp());
    let (a160, b160) = (f160.random(&mut l.rng), f160.random(&mut l.rng));
    let (a256, b256) = (f256.random(&mut l.rng), f256.random(&mut l.rng));
    let [mul160, mul256, inv160] = cheap([
        &mut || consume(f160.mul(black_box(&a160), black_box(&b160))),
        &mut || consume(f256.mul(black_box(&a256), black_box(&b256))),
        &mut || consume(f160.inv(black_box(&a160))),
    ]);
    l.put("field.fp_mul_ns.p160", mul160, "ns");
    l.put("field.fp_mul_ns.p256", mul256, "ns");
    l.put("field.fp_inv_us.p160", inv160 / 1e3, "us");

    let fp = params.fp();
    let fp6 = params.fp6();
    let (a, b) = (fp.random(&mut l.rng), fp.random(&mut l.rng));
    let square = fp.square(&a);
    let root = fp.sqrt(&square);
    l.check(root.as_ref().is_some_and(|r| fp.square(r) == square));
    let (x, y) = (fp6.random(&mut l.rng), fp6.random(&mut l.rng));
    let [mul, add, sub, inv, sqrt, mul6, square6] = cheap([
        &mut || consume(fp.mul(black_box(&a), black_box(&b))),
        &mut || consume(fp.add(black_box(&a), black_box(&b))),
        &mut || consume(fp.sub(black_box(&a), black_box(&b))),
        &mut || consume(fp.inv(black_box(&a))),
        &mut || consume(fp.sqrt(black_box(&square))),
        &mut || consume(fp6.mul(black_box(&x), black_box(&y))),
        &mut || consume(fp6.square(black_box(&x))),
    ]);
    l.put("field.fp_mul_ns.p170", mul, "ns");
    l.put("field.fp_add_ns.p170", add, "ns");
    l.put("field.fp_sub_ns.p170", sub, "ns");
    l.put("field.fp_inv_us.p170", inv / 1e3, "us");
    l.put("field.fp_sqrt_us.p170", sqrt / 1e3, "us");
    l.put("field.fp6_mul_us.p170", mul6 / 1e3, "us");
    l.put("field.fp6_square_us.p170", square6 / 1e3, "us");
    let ops = counted(fp, || fp6.mul(&x, &y));
    let children = FpCosts { mul, add, sub, inv }.price(ops);
    l.put(
        "field.fp6_mul_self_pct.p170",
        pct(mul6 - children, mul6),
        "%",
    );
}

fn ceilidh_layer(l: &mut Ledger, params: &CeilidhParams) {
    let alice = KeyPair::generate(params, &mut l.rng);
    let (k, element) = params.random_subgroup_element(&mut l.rng);
    l.check(params.is_subgroup_member(element.as_fp6()));
    let packed = compress(params, alice.public().element()).expect("public keys compress");
    l.check(decompress(params, &packed).as_ref() == Ok(alice.public().element()));

    let msg = message(&mut l.rng, 32);
    let mut op_rng = l.rng.clone();
    let ct = encrypt_hybrid(params, alice.public(), &msg, &mut op_rng).expect("encrypts");
    l.check(decrypt_hybrid(params, alice.secret(), &ct).as_ref() == Ok(&msg));
    let sig = sign(params, alice.secret(), &msg, &mut op_rng).expect("signs");
    l.check(verify(params, alice.public(), &msg, &sig).is_ok());

    let mut sign_rng = op_rng.clone();
    let [pow, subgroup, comp, decomp, encrypt, decrypt, signing, verifying] = costly(
        7,
        [
            &mut || consume(params.pow(black_box(&element), black_box(&k))),
            &mut || consume(params.is_subgroup_member(black_box(element.as_fp6()))),
            &mut || consume(compress(params, black_box(alice.public().element()))),
            &mut || consume(decompress(params, black_box(&packed))),
            &mut || consume(encrypt_hybrid(params, alice.public(), &msg, &mut op_rng)),
            &mut || consume(decrypt_hybrid(params, alice.secret(), black_box(&ct))),
            &mut || consume(sign(params, alice.secret(), &msg, &mut sign_rng)),
            &mut || consume(verify(params, alice.public(), &msg, black_box(&sig))),
        ],
    );
    l.put("ceilidh.pow_ms.qexp", pow / 1e6, "ms");
    l.put("ceilidh.subgroup_check_ms", subgroup / 1e6, "ms");
    l.put("ceilidh.compress_us", comp / 1e3, "us");
    l.put("ceilidh.decompress_us", decomp / 1e3, "us");
    // Each op's pows and (de)compressions, from the protocol definitions:
    // encrypt = ephemeral key + shared pow + compress, decrypt =
    // decompress + pow, sign = commitment pow + compress, verify = two
    // pows + compress.
    for (name, total, children) in [
        ("encrypt", encrypt, 2.0 * pow + comp),
        ("decrypt", decrypt, pow + decomp),
        ("sign", signing, pow + comp),
        ("verify", verifying, 2.0 * pow + comp),
    ] {
        l.put(&format!("ceilidh.{name}_ms"), total / 1e6, "ms");
        l.put(
            &format!("ceilidh.{name}_self_pct"),
            pct(total - children, total),
            "%",
        );
    }
}

fn ecc_layer(l: &mut Ledger, p160: &Curve, p256: &Curve, k1: &Curve) {
    for (tag, curve) in [("p160", p160), ("p256", p256), ("k1", k1)] {
        let p = curve.random_point(&mut l.rng);
        let q = curve.random_point(&mut l.rng);
        let jp = curve.to_jacobian(&p);
        let k = match curve.order() {
            Some(order) => BigUint::random_below(&mut l.rng, order),
            None => BigUint::random_bits(&mut l.rng, curve.bits()),
        };
        let want = curve.scalar_mul_reference(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
        l.check(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf) == want);

        let mut key_rng = l.rng.clone();
        let [pd, pa, mul, keygen] = cheap([
            &mut || consume(curve.jacobian_double(black_box(&jp))),
            &mut || consume(curve.jacobian_add_mixed(black_box(&jp), black_box(&q))),
            &mut || {
                consume(curve.scalar_mul(black_box(&p), black_box(&k), ScalarMulAlgorithm::Naf))
            },
            &mut || consume(EccKeyPair::generate(curve, &mut key_rng)),
        ]);
        l.put(&format!("ecc.pd_us.{tag}"), pd / 1e3, "us");
        l.put(&format!("ecc.pa_mixed_us.{tag}"), pa / 1e3, "us");
        l.put(&format!("ecc.scalar_mul_us.{tag}"), mul / 1e3, "us");
        l.put(&format!("ecc.keygen_us.{tag}"), keygen / 1e3, "us");
        if tag == "p160" {
            // The NAF ladder doubles once per digit and adds once per
            // non-zero digit; its first step of each acts on infinity.
            let digits = naf_digits(&k);
            let adds = digits.iter().filter(|d| **d != 0).count();
            let children = (digits.len() - 1) as f64 * pd + (adds - 1) as f64 * pa;
            l.put(
                "ecc.scalar_mul_self_pct.p160",
                pct(mul - children, mul),
                "%",
            );
        }
    }
    let order = k1.order().expect("secp256k1 has an order");
    let requests: Vec<_> = (0..BATCH_LEN)
        .map(|_| {
            let point = k1.random_point(&mut l.rng);
            (point, BigUint::random_below(&mut l.rng, order))
        })
        .collect();
    let batch = k1.scalar_mul_batch(&requests);
    l.check(
        requests
            .iter()
            .zip(&batch)
            .all(|((p, k), got)| k1.scalar_mul(p, k, ScalarMulAlgorithm::Naf) == *got),
    );
    let [ns] = costly(
        5,
        [&mut || consume(k1.scalar_mul_batch(black_box(&requests)))],
    );
    l.put("ecc.batch_element_us.k1", ns / BATCH_LEN as f64 / 1e3, "us");
}

fn rsa_layer(l: &mut Ledger, rsa: &RsaKeyPair) {
    let public = rsa.public();
    let msg = message(&mut l.rng, 32);
    let ct_bytes = public.encrypt(&msg, &mut l.rng).expect("message fits");
    let ct = BigUint::from_be_bytes(&ct_bytes);
    l.check(rsa.decrypt(&ct_bytes).as_ref() == Ok(&msg));
    let sig = rsa.sign(&msg).expect("digest fits");
    l.check(public.verify(&msg, &sig).is_ok());
    let m = BigUint::random_below(&mut l.rng, public.modulus());

    let [crt, decrypt, public_op, verifying] = cheap([
        &mut || consume(rsa.raw_decrypt_crt(black_box(&ct))),
        &mut || consume(rsa.decrypt(black_box(&ct_bytes))),
        &mut || consume(public.raw_encrypt(black_box(&m))),
        &mut || consume(public.verify(&msg, black_box(&sig))),
    ]);
    l.put("rsa_torus.raw_decrypt_crt_us", crt / 1e3, "us");
    l.put("rsa_torus.decrypt_us", decrypt / 1e3, "us");
    l.put("rsa_torus.pkcs_self_us", (decrypt - crt) / 1e3, "us");
    l.put("rsa_torus.public_op_us", public_op / 1e3, "us");
    l.put("rsa_torus.verify_us", verifying / 1e3, "us");
}

fn platform_layer(l: &mut Ledger, params: &CeilidhParams, p160: &Curve, rsa: &RsaKeyPair) {
    let cost = CostModel::paper();
    let compiles = cheap([
        &mut || consume(compile(OpKind::Fp6Mul, 170, &cost)),
        &mut || consume(compile(OpKind::EccPd, 160, &cost)),
        &mut || consume(compile(OpKind::EccPaMixed, 160, &cost)),
    ]);
    for (name, ns) in ["fp6_mul", "ecc_pd", "ecc_pa_mixed"]
        .into_iter()
        .zip(compiles)
    {
        l.put(&format!("platform.compile_us.{name}"), ns / 1e3, "us");
    }

    let plat = paper_platform();
    let coproc = plat.coprocessor();
    let p170 = params.p().clone();
    let p160m = p160.fp().modulus().clone();
    let n = rsa.public().modulus().clone();
    let [(x170, y170), (x160, y160), (x1024, y1024)] = [&p170, &p160m, &n].map(|m| {
        (
            BigUint::random_below(&mut l.rng, m),
            BigUint::random_below(&mut l.rng, m),
        )
    });

    // One Fp6 multiplication: bare execution against the slot bank, and
    // the full `run_fp6_multiplication` with its domain conversions.
    let fp6 = params.fp6();
    let a = fp6.random(&mut l.rng);
    let b = fp6.random(&mut l.rng);
    let (product, _) = plat.run_fp6_multiplication(fp6, &a, &b);
    l.check(product == fp6.mul(&a, &b));
    let program = plat.compiled(OpKind::Fp6Mul, p170.bit_len());
    let mut slots: Vec<BigUint> = (0..program.slot_budget())
        .map(|_| BigUint::random_below(&mut l.rng, &p170))
        .collect();
    let report = plat.execute(&program, &p170, &mut slots);

    let [mm170, mm160, mm1024, add170, sub170, add160, execute, run] = cheap([
        &mut || consume(coproc.mont_mul(black_box(&x170), &y170, &p170)),
        &mut || consume(coproc.mont_mul(black_box(&x160), &y160, &p160m)),
        &mut || consume(coproc.mont_mul(black_box(&x1024), &y1024, &n)),
        &mut || consume(coproc.mod_add(black_box(&x170), &y170, &p170)),
        &mut || consume(coproc.mod_sub(black_box(&x170), &y170, &p170)),
        &mut || consume(coproc.mod_add(black_box(&x160), &y160, &p160m)),
        &mut || consume(plat.execute(&program, &p170, black_box(&mut slots))),
        &mut || consume(plat.run_fp6_multiplication(fp6, black_box(&a), &b)),
    ]);
    for (name, ns) in [
        ("coproc_mont_mul_us.170", mm170),
        ("coproc_mont_mul_us.160", mm160),
        ("coproc_mont_mul_us.1024", mm1024),
        ("coproc_mod_add_us.170", add170),
        ("coproc_mod_sub_us.170", sub170),
        ("coproc_mod_add_us.160", add160),
        ("execute_fp6_us.170", execute),
        ("run_fp6_us.170", run),
    ] {
        l.put(&format!("platform.{name}"), ns / 1e3, "us");
    }
    let children = report.modmuls as f64 * mm170
        + report.modadds as f64 * add170
        + report.modsubs as f64 * sub170;
    l.put(
        "platform.execute_self_pct.fp6",
        pct(execute - children, execute),
        "%",
    );
    l.put("platform.fp6_marshal_pct.170", pct(run - execute, run), "%");
    l.put(
        "platform.fp6_mul_cycles.170",
        report.cycles as f64,
        "cycles",
    );

    // Table 3 on the paper platform.
    let (_, base) = params.random_subgroup_element(&mut l.rng);
    let e = BigUint::random_bits(&mut l.rng, 170);
    let (got, torus) = plat.torus_exponentiation(params, &base, &e);
    l.check(got == params.pow(&base, &e));
    let point = p160.random_point(&mut l.rng);
    let k = BigUint::random_bits(&mut l.rng, 160);
    let (got, ecc) = plat.ecc_scalar_multiplication(p160, &point, &k);
    l.check(got == p160.scalar_mul(&point, &k, ScalarMulAlgorithm::DoubleAndAdd));
    let m = BigUint::random_below(&mut l.rng, &n);
    let d = rsa.private_exponent();
    let (got, rsa_report) = plat.rsa_exponentiation(&n, &m, d);
    l.check(got == mod_exp(&m, d, &n));
    let [sim_torus, sim_ecc, sim_rsa] = costly(
        2,
        [
            &mut || consume(plat.torus_exponentiation(params, &base, &e)),
            &mut || consume(plat.ecc_scalar_multiplication(p160, &point, &k)),
            &mut || consume(plat.rsa_exponentiation(&n, &m, d)),
        ],
    );
    for (name, host, report) in [
        ("torus_exp", sim_torus, torus),
        ("ecc_scalar_mult", sim_ecc, ecc),
        ("rsa_exp", sim_rsa, rsa_report),
    ] {
        l.put(&format!("platform.sim_{name}_ms"), host / 1e6, "ms");
        l.put(
            &format!("platform.model_{name}_ms"),
            report.time_ms(&cost),
            "ms",
        );
        l.put(
            &format!("platform.model_{name}_modmuls"),
            report.modmuls as f64,
            "count",
        );
    }
    let cache = plat.program_cache();
    l.put("platform.cache_hits", cache.hits() as f64, "count");
    l.put("platform.cache_misses", cache.misses() as f64, "count");
}

fn engine_layer(l: &mut Ledger) {
    let seed = rand::RngCore::next_u64(&mut l.rng);
    let trace = TrafficProfile::mixed_date2008().generate(seed, TRACE_LEN);
    let serve = || Fleet::new(FleetConfig::date2008(FLEET_INSTANCES)).run(trace.clone());
    let summary: RunSummary = serve();
    l.check(summary.completed == TRACE_LEN as u64 && serve() == summary);
    let [ns] = costly(5, [&mut || consume(serve())]);
    let cost = CostModel::paper();
    let makespan_s = cost.cycles_to_ms(summary.makespan_cycles) / 1e3;
    l.put(
        "engine.run_us_per_request",
        ns / TRACE_LEN as f64 / 1e3,
        "us",
    );
    l.put(
        "engine.model_ops_per_s",
        summary.completed as f64 / makespan_s,
        "ops/s",
    );
    l.put(
        "engine.p50_latency_cycles",
        summary.p50_latency_cycles as f64,
        "cycles",
    );
    l.put(
        "engine.p99_latency_cycles",
        summary.p99_latency_cycles as f64,
        "cycles",
    );
    l.put(
        "engine.cache_hit_rate_pct",
        summary.cache_hit_rate_pct() as f64,
        "%",
    );
    l.put("engine.batches", summary.batches() as f64, "count");
}
