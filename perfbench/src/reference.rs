//! The reference kernel that end-to-end latencies are divided by.
//!
//! On a shared 2-core host, co-tenant load slows the library by up to 2×
//! for stretches of seconds (README.md, "Why normalise"). The kernel below
//! slows with it. It blends two parts: schoolbook multi-limb products into
//! freshly allocated buffers, which co-tenant load slows somewhat more than
//! the library, and a dependent multiply chain, which it hardly slows at
//! all. Each workload sets the chain's length so the blend slows as that
//! workload's own code does (README.md gives the fit). The kernel is part
//! of the benchmark, not of the repository, so no change to the repository
//! can make it faster or slower.

use std::hint::black_box;
use std::time::Instant;

/// Products per kernel run (about 20 µs on an idle 2-core Xeon host).
const PRODUCTS: u64 = 1000;
/// Limbs per operand.
const LIMBS: usize = 3;

/// The reference kernel with a dependent multiply chain of a given length
/// (20 000 steps take about 4 µs on the same host).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    chain: u64,
}

impl Reference {
    /// A kernel whose multiply chain has `chain` steps.
    pub const fn new(chain: u64) -> Self {
        Reference { chain }
    }

    /// Median wall time of three kernel runs, in nanoseconds.
    pub fn run_ns(self) -> f64 {
        let mut times = [0.0; 3].map(|_| {
            let start = Instant::now();
            black_box(kernel(self.chain));
            start.elapsed().as_nanos() as f64
        });
        times.sort_by(f64::total_cmp);
        times[1]
    }
}

/// One kernel run.
fn kernel(chain: u64) -> u64 {
    let a: [u64; LIMBS] = black_box([0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 0x94D0_49BB]);
    let b: [u64; LIMBS] = black_box([0xD6E8_FEB8_6659_FD93, 0xA076_1D64_78BD_642F, 0xE703_7ED1]);
    let mut acc = 0u64;
    for r in 0..PRODUCTS {
        let mut out = vec![0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let t = u128::from(a[i] ^ r) * u128::from(b[j]) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        acc ^= black_box(out)[LIMBS];
    }
    for i in 0..chain {
        acc = acc.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
    }
    acc
}
