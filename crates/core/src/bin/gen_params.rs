//! Generates a fresh CEILIDH parameter set and prints it as hex constants.
//!
//! Usage: `cargo run -p ceilidh --release --bin gen_params -- [bits] [seed]`
//! (defaults: 170 bits, seed from the OS RNG; at most 256 bits, the width
//! of the field backend).

use std::process::ExitCode;

use bignum::BigUint;
use ceilidh::CeilidhParams;
use field::FpContext;
use rand::{Rng, SeedableRng};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let bits: usize = args
        .next()
        .map(|a| a.parse().expect("bits must be an integer"))
        .unwrap_or(170);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or_else(|| rand::thread_rng().gen());
    if !(16..=FpContext::MAX_BITS).contains(&bits) {
        eprintln!(
            "gen_params: bits must be from 16 to {} (the field backend's width), got {bits}",
            FpContext::MAX_BITS
        );
        return ExitCode::from(2);
    }

    eprintln!("searching for a {bits}-bit CEILIDH prime (seed {seed})...");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = std::time::Instant::now();
    let params = CeilidhParams::generate(bits, &mut rng).expect("generation cannot fail");
    eprintln!("found in {:.2?}", start.elapsed());

    println!(
        "p  ({} bits) = 0x{}",
        params.p().bit_len(),
        params.p().to_hex()
    );
    println!("p mod 9      = {}", params.p() % &BigUint::from(9u64));
    println!(
        "q  ({} bits) = 0x{}",
        params.q().bit_len(),
        params.q().to_hex()
    );
    println!("cofactor     = {}", params.cofactor());
    println!();
    println!("const P_{bits}_HEX: &str = \"{}\";", params.p().to_hex());
    println!("const Q_{bits}_HEX: &str = \"{}\";", params.q().to_hex());
    ExitCode::SUCCESS
}
