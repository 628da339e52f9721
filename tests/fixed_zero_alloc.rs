//! Zero-allocation regression test for the fixed-width backend.
//!
//! The point of `bignum::fixed` is that the hot loops — Montgomery
//! multiplication, exponentiation (the 512-bit fixed-window secret one of
//! RSA's CRT halves included), the double-width reduction, the full
//! scalar-multiplication ladder, every `Fp`/`Fp6`/curve operation built
//! on them, and the torus exponentiations — run entirely on stack arrays.
//! This test installs a counting global allocator and
//! asserts that, after setup, those loops perform **zero** heap
//! allocations; a `Vec` sneaking back into the CIOS kernel, a field
//! element or a point formula would fail here immediately. The counter
//! itself is sanity-checked against the heap backend, which must allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use ceilidh::CeilidhParams;
use ecc::prelude::*;
use rand::SeedableRng;

thread_local! {
    /// Allocations observed on this thread (the test harness runs each
    /// test on its own thread, so other tests cannot interfere).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, with every allocation path counted per thread.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping is a thread-local
// `Cell` update, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn fixed_backend_loops_do_not_touch_the_heap() {
    // Setup may allocate freely: curve construction, context setup, and the
    // BigUint conversions all happen before the measured window.
    let curve = Curve::from_parameters::<Secp256k1>().unwrap();
    let ctx = curve.fp().mont_context().clone();
    let g = curve.base_point().clone();
    let (gx, gy) = g.coordinates().expect("G is finite");
    let k = BigUint::from_hex("4727b5cc3a1b2eff9db127aa7412a7641eb87a766e6c46cfe0f5ab7ad8b33bb2")
        .unwrap();
    let k_fixed = Uint::<4>::from_biguint(&k).unwrap();
    let (a, b) = (*gx.mont_repr(), *gy.mont_repr());

    // The measured window: the CIOS kernel under sustained iteration, one
    // full exponentiation, one Fermat inversion, and one complete 256-bit
    // double-and-add scalar multiplication through the public API.
    let before = allocations();
    let mut acc = a;
    for _ in 0..1000 {
        acc = ctx.mont_mul(black_box(&acc), black_box(&b));
    }
    let powed = ctx.mont_pow(black_box(&acc), black_box(&k_fixed));
    let inverted = ctx.mont_inv_prime(black_box(&powed)).unwrap();
    let point = curve.scalar_mul(
        black_box(&g),
        black_box(&k),
        ScalarMulAlgorithm::DoubleAndAdd,
    );
    let after = allocations();

    black_box((acc, powed, inverted));
    assert_eq!(
        after - before,
        0,
        "fixed Montgomery/ladder loops must not allocate"
    );
    assert!(curve.is_on_curve(&point));
}

#[test]
fn secret_exponentiation_and_wide_reduction_do_not_touch_the_heap() {
    // An odd 512-bit modulus: the width of one RSA-1024 CRT half.
    let m = &BigUint::one().shl_bits(511) + &BigUint::from(0x1234_5677u64);
    let ctx = MontgomeryContext::<8>::new(&m).unwrap();
    let lo = Uint::<8>::from_limbs([0x0123_4567_89ab_cdef; 8]);
    let hi = Uint::<8>::from_limbs([0xfedc_ba98_7654_3210, 1, 2, 3, 4, 5, 6, 7]);
    let exp = Uint::<8>::from_limbs([0x9e37_79b9_7f4a_7c15; 8]);

    let before = allocations();
    let base = ctx.to_mont_wide(black_box(&lo), black_box(&hi));
    let powed = ctx.mont_pow_secret(black_box(&base), black_box(&exp));
    let after = allocations();

    black_box(powed);
    assert_eq!(
        after - before,
        0,
        "secret exponentiation and double-width reduction must not allocate"
    );
}

#[test]
fn field_and_point_operations_do_not_touch_the_heap() {
    // The paper's sizes: the 170-bit torus field and the 160-bit curve.
    let params = CeilidhParams::date2008().unwrap();
    let (fp, fp6) = (params.fp(), params.fp6());
    let x6 = fp6.from_u64_coeffs([3, 1, 4, 1, 5, 9]);
    let y6 = fp6.from_u64_coeffs([2, 7, 1, 8, 2, 8]);
    let (a, b) = (fp.from_u64(271_828), fp.from_i64(-314_159));
    let curve = Curve::p160_reproduction().unwrap();
    let g = curve.base_point().clone();
    let jg = curve.to_jacobian(&g);

    let before = allocations();
    let prod6 = fp6.mul(black_box(&x6), black_box(&y6));
    let sq6 = fp6.square(black_box(&prod6));
    let mut acc = a;
    for _ in 0..100 {
        acc = fp.mul(black_box(&acc), black_box(&b));
        acc = fp.add(black_box(&acc), black_box(&a));
        acc = fp.sub(black_box(&acc), black_box(&b));
    }
    let inverted = fp.inv(black_box(&acc));
    let doubled = curve.jacobian_double(black_box(&jg));
    let added = curve.jacobian_add_mixed(black_box(&doubled), black_box(&g));
    let after = allocations();

    black_box((sq6, inverted, added));
    assert_eq!(
        after - before,
        0,
        "Fp/Fp6/point operations must not allocate"
    );
}

#[test]
fn torus_exponentiations_do_not_touch_the_heap() {
    // The 170-bit torus: the fixed-window `pow` and, once its table is
    // built, the generator comb.
    let params = CeilidhParams::date2008().unwrap();
    let (_, base) = params.random_subgroup_element(&mut rand::rngs::StdRng::seed_from_u64(5));
    let e = BigUint::from_hex(
        "5a3c0b8e1f2d4c6b8a9e7f1d3c5b7a9e8f6d4c2b1a3e5f7d9c8b6a4e2f1d3c5b7a9e8f6d",
    )
    .unwrap();
    assert!(e < *params.q());

    let before = allocations();
    let powed = params.pow(black_box(&base), black_box(&e));
    let comb = params.pow_generator(black_box(&e));
    let after = allocations();

    black_box((powed, comb));
    assert_eq!(after - before, 0, "torus exponentiation must not allocate");
}

#[test]
fn the_counter_itself_observes_heap_traffic() {
    // If the counting allocator were wired up wrong, the test above would
    // pass vacuously; the heap backend doing the same multiplication must
    // be seen allocating.
    let p = BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .unwrap();
    let heap = MontgomeryParams::new(&p).unwrap();
    let a = heap.to_mont(&BigUint::from(123_456_789u64));
    let before = allocations();
    let product = heap.mont_mul(black_box(&a), black_box(&a));
    let after = allocations();
    black_box(product);
    assert!(
        after > before,
        "heap Montgomery multiplication should allocate (counter sanity check)"
    );
}
