//! Host-backend bench: the field's fixed-limb Montgomery multiplication
//! (`bignum::fixed`, 4 × 64-bit limbs on the stack — what every
//! `field::FpContext` product runs on) against the heap `BigUint`
//! `MontgomeryParams` oracle (8 × 32-bit limbs in a `Vec`) on the 256-bit
//! secp256k1 modulus.
//!
//! Besides the usual Criterion timings, under `cargo bench` with
//! `BENCH_REPORT_JSON=<path>` set the harness re-times both backends with
//! a plain `Instant` loop and merges the speedup ratio (×100, as a flat
//! integer key) into that report file, so CI archives the measured
//! fixed-over-heap factor alongside the cycle metrics.

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use criterion::{black_box, criterion_group, Criterion};
use ecc::prelude::*;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Both backends for the secp256k1 modulus — the field's fixed context
/// and the heap oracle — and one reduced operand pair in each
/// representation.
struct Fixture {
    ctx: MontgomeryContext<4>,
    heap: MontgomeryParams,
    a_big: BigUint,
    b_big: BigUint,
    a_fix: Uint<4>,
    b_fix: Uint<4>,
}

impl Fixture {
    fn new() -> Fixture {
        let curve = Curve::from_parameters::<Secp256k1>().expect("registered curve");
        let p = curve.fp().modulus().clone();
        let heap = MontgomeryParams::new(&p).expect("odd prime");
        let mut rng = rand::rngs::StdRng::seed_from_u64(256);
        let a = &BigUint::random_bits(&mut rng, 256) % &p;
        let b = &BigUint::random_bits(&mut rng, 256) % &p;
        let ctx = curve.fp().mont_context().clone();
        let a_fix = ctx.to_mont(&Uint::from_biguint(&a).expect("reduced"));
        let b_fix = ctx.to_mont(&Uint::from_biguint(&b).expect("reduced"));
        let a_big = heap.to_mont(&a);
        let b_big = heap.to_mont(&b);
        Fixture {
            ctx,
            heap,
            a_big,
            b_big,
            a_fix,
            b_fix,
        }
    }
}

fn bench_montmul(c: &mut Criterion) {
    let f = Fixture::new();
    let mut group = c.benchmark_group("fixed_vs_heap/montmul_256");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("heap", |b| {
        b.iter(|| f.heap.mont_mul(black_box(&f.a_big), black_box(&f.b_big)))
    });
    group.bench_function("fixed", |b| {
        b.iter(|| f.ctx.mont_mul(black_box(&f.a_fix), black_box(&f.b_fix)))
    });
    group.finish();
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

/// Measures the fixed-over-heap speedup and merges it (×100, rounded)
/// into the flat JSON report at `path`, preserving any keys already there.
fn emit_speedup_report(path: &str) {
    let path = bench::json::report_path(path);
    let f = Fixture::new();
    let montmul = secs_per_iter(|| f.heap.mont_mul(&f.a_big, &f.b_big))
        / secs_per_iter(|| f.ctx.mont_mul(&f.a_fix, &f.b_fix));
    println!("fixed-over-heap speedup: montmul_256 {montmul:.2}x");

    let mut pairs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| bench::json::parse_object(&text).ok())
        .unwrap_or_default();
    pairs.retain(|(k, _)| !k.starts_with("fixed_vs_heap_"));
    pairs.push((
        "fixed_vs_heap_montmul_256_speedup_x100".to_string(),
        (montmul * 100.0).round() as u64,
    ));
    std::fs::write(path, bench::json::write_object(&pairs)).expect("write BENCH_REPORT_JSON");
}

criterion_group!(benches, bench_montmul);

fn main() {
    benches();
    // The speedup ratio only under a real `cargo bench` run (the harness
    // passes --bench; `cargo test --benches` passes --test) with a report
    // path to merge into.
    let bench_mode = std::env::args().skip(1).any(|arg| arg == "--bench");
    if bench_mode {
        if let Ok(path) = std::env::var("BENCH_REPORT_JSON") {
            emit_speedup_report(&path);
        }
    }
}
