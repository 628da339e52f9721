//! Lane-interleaved Montgomery batch-kernel bench: `mont_mul_batch` at
//! LANES ∈ {2, 4, 8} against the same number of serial `mont_mul` calls
//! on the 256-bit secp256k1 field. The portable batch kernel advances
//! all lanes limb-by-limb, so the out-of-order core overlaps the
//! independent u128 carry chains; on AVX-512 IFMA hosts LANES ∈ {4, 8}
//! instead hit the vectorized radix-2^52 kernels — throughput, not
//! latency, is what improves either way.
//!
//! Under `cargo bench` with `BENCH_REPORT_JSON=<path>` set, the harness
//! re-times batch vs serial with a plain `Instant` loop and merges the
//! per-lane-count throughput ratios (×100, flat integer keys prefixed
//! `mont_batch_`) into that report file.

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::BigUint;
use criterion::{black_box, criterion_group, Criterion};
use ecc::prelude::*;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Fixture {
    ctx: MontgomeryContext<4>,
    a: [Uint<4>; 8],
    b: [Uint<4>; 8],
}

impl Fixture {
    fn new() -> Fixture {
        let curve = Curve::from_parameters::<Secp256k1>().expect("registered curve");
        let p = curve.fp().modulus().clone();
        let ctx = curve.fp().mont_context().clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2048);
        let residue = |rng: &mut rand::rngs::StdRng| {
            let v = &BigUint::random_bits(rng, 256) % &p;
            ctx.to_mont(&Uint::from_biguint(&v).expect("reduced"))
        };
        let a = std::array::from_fn(|_| residue(&mut rng));
        let b = std::array::from_fn(|_| residue(&mut rng));
        Fixture { ctx, a, b }
    }

    fn lanes<const LANES: usize>(&self) -> ([Uint<4>; LANES], [Uint<4>; LANES]) {
        (
            std::array::from_fn(|l| self.a[l % 8]),
            std::array::from_fn(|l| self.b[l % 8]),
        )
    }

    /// LANES independent serial multiplications — the baseline the batch
    /// kernel's one pass replaces. Every lane's product is returned so
    /// the optimizer cannot dead-code-eliminate any of the calls.
    fn serial<const LANES: usize>(
        &self,
        a: &[Uint<4>; LANES],
        b: &[Uint<4>; LANES],
    ) -> [Uint<4>; LANES] {
        std::array::from_fn(|l| self.ctx.mont_mul(&a[l], &b[l]))
    }
}

fn bench_lanes<const LANES: usize>(c: &mut Criterion, f: &Fixture) {
    let (a, b) = f.lanes::<LANES>();
    let mut group = c.benchmark_group(format!("mont_batch/lanes{LANES}"));
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("serial", |bench| {
        bench.iter(|| f.serial::<LANES>(black_box(&a), black_box(&b)))
    });
    group.bench_function("batch", |bench| {
        bench.iter(|| f.ctx.mont_mul_batch::<LANES>(black_box(&a), black_box(&b)))
    });
    group.finish();
}

fn bench_mont_batch(c: &mut Criterion) {
    let f = Fixture::new();
    bench_lanes::<2>(c, &f);
    bench_lanes::<4>(c, &f);
    bench_lanes::<8>(c, &f);
}

/// Mean seconds per call of `f`, from a single `Instant` window sized off
/// a one-shot estimate (~100 ms of measurement).
fn secs_per_iter<T, F: FnMut() -> T>(mut f: F) -> f64 {
    let start = Instant::now();
    black_box(f());
    let est = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.1 / est) as u64).clamp(1, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn speedup<const LANES: usize>(f: &Fixture) -> f64 {
    let (a, b) = f.lanes::<LANES>();
    secs_per_iter(|| f.serial::<LANES>(&a, &b))
        / secs_per_iter(|| f.ctx.mont_mul_batch::<LANES>(&a, &b))
}

/// Measures the batch-over-serial throughput ratios and merges them
/// (×100, rounded) into the flat JSON report at `path`, preserving any
/// keys already there.
fn emit_speedup_report(path: &str) {
    let path = bench::json::report_path(path);
    let f = Fixture::new();
    let s2 = speedup::<2>(&f);
    let s4 = speedup::<4>(&f);
    let s8 = speedup::<8>(&f);
    println!(
        "mont_mul_batch throughput vs serial: lanes2 {s2:.2}x, lanes4 {s4:.2}x, lanes8 {s8:.2}x"
    );

    let mut pairs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| bench::json::parse_object(&text).ok())
        .unwrap_or_default();
    pairs.retain(|(k, _)| !k.starts_with("mont_batch_"));
    for (lanes, s) in [(2u64, s2), (4, s4), (8, s8)] {
        pairs.push((
            format!("mont_batch_lanes{lanes}_speedup_x100"),
            (s * 100.0).round() as u64,
        ));
    }
    std::fs::write(path, bench::json::write_object(&pairs)).expect("write BENCH_REPORT_JSON");
}

criterion_group!(benches, bench_mont_batch);

fn main() {
    benches();
    let bench_mode = std::env::args().skip(1).any(|arg| arg == "--bench");
    if bench_mode {
        if let Ok(path) = std::env::var("BENCH_REPORT_JSON") {
            emit_speedup_report(&path);
        }
    }
}
