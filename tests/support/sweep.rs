//! Seeded property sweeps. Each property-test file pulls this in with
//! `#[path = ".../tests/support/sweep.rs"] mod sweep;` — it is not a
//! crate and no product crate exports it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{rngs::StdRng, SeedableRng};

/// Runs `property` once per case in `0..cases`, handing case `n` a
/// generator seeded with `n`: every run of a test draws the same inputs,
/// and cases are independent of each other.
///
/// # Panics
///
/// When `property` panics, with the failing case's number put in front
/// of its message — `sweep(n + 1, ..)` replays up to and including it.
pub fn sweep(cases: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(case);
        let Err(cause) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) else {
            continue;
        };
        let message = cause
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| cause.downcast_ref::<&str>().copied())
            .unwrap_or("a panic that carries no message");
        panic!("sweep case {case} of {cases}: {message}");
    }
}
