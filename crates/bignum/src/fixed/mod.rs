//! Stack-allocated fixed-width integers: the const-generic fast backend.
//!
//! [`BigUint`](crate::BigUint) keeps its limbs in a `Vec<u32>`, which makes
//! every ladder step on the host allocate. When the operand width is known
//! statically — every prime field up to 256 bits, fixed RSA moduli — the arithmetic
//! can instead run on a `[u64; LIMBS]` stack array with `u128`
//! carry/widening primitives and no heap traffic at all:
//!
//! - [`Uint`]: the `Copy` const-generic integer with explicit
//!   carry/borrow/widening arithmetic and `BigUint` conversions.
//! - [`MontgomeryContext`]: CIOS Montgomery multiplication, exponentiation
//!   (a fixed-shape window variant for secret exponents), the double-width
//!   reduction [`MontgomeryContext::to_mont_wide`] and Fermat inversion
//!   with zero allocation past setup, mirroring
//!   [`MontgomeryParams`](crate::MontgomeryParams). At matching radix
//!   (`num_limbs() == 2·LIMBS`, e.g. 256-bit moduli at `LIMBS = 4`) the two
//!   backends share `R`, making Montgomery forms interchangeable and
//!   results bit-identical. Batch traffic gets the lane-interleaved
//!   kernels ([`MontgomeryContext::mont_mul_batch`] and the
//!   `mont_pow_batch`/`mod_exp_batch` ladders over it) plus Montgomery's
//!   batch-inversion trick ([`MontgomeryContext::mont_inv_batch`]: one
//!   Fermat inversion + `3(n-1)` multiplications), every lane bit-identical
//!   to its serial counterpart.
//! - Free modular helpers ([`add_mod`], [`sub_mod`], [`neg_mod`],
//!   [`mul_mod`], [`reduce_wide`]) for reduced fixed-width residues.
//!
//! Every `field::FpContext` (any odd modulus of at most 256 bits) stores
//! its elements as `Uint<4>` in one `MontgomeryContext<4>`, and `ecc` runs
//! its curve ladders on that context. `rsa_torus` keeps an RSA key of up
//! to 1024 bits in a `MontgomeryContext<16>` for `n` and two
//! `MontgomeryContext<8>` for the CRT halves, and runs its private
//! exponents on [`MontgomeryContext::mont_pow_secret`]. The differential
//! proptest suite (`tests/fixed_uint_properties.rs`) pins every operation
//! here to the heap backend bit for bit.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ifma;
mod modular;
mod montgomery;
mod uint;

pub use modular::{add_mod, mul_mod, neg_mod, reduce_wide, sub_mod};
pub use montgomery::MontgomeryContext;
pub use uint::{Uint, FIXED_LIMB_BITS};

// The u64 carry/borrow/widening primitives, re-exported for differential
// test harnesses; higher layers use the typed `Uint` operations instead.
pub use crate::limb::{borrowing_sub64, carrying_add64, mac64, widening_mul64};
