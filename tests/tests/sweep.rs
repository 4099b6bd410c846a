//! The seeded sweep helper every property-test file pulls in
//! (`tests/support/sweep.rs`), held to what those files rely on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::Rng;

#[path = "../support/sweep.rs"]
mod sweep;
use sweep::sweep;

/// The first value each of `cases` cases draws.
fn first_draws(cases: u64) -> Vec<u64> {
    let mut draws = Vec::new();
    sweep(cases, |rng| draws.push(rng.gen()));
    draws
}

#[test]
fn the_same_cases_draw_the_same_inputs_and_different_cases_differ() {
    let draws = first_draws(32);
    assert_eq!(draws.len(), 32);
    assert_eq!(draws, first_draws(32), "a second run drew other inputs");
    // Raising a case count keeps the cases already there.
    assert_eq!(first_draws(48)[..32], draws[..]);
    let distinct: std::collections::HashSet<&u64> = draws.iter().collect();
    assert_eq!(distinct.len(), draws.len(), "two cases drew the same input");
}

#[test]
fn a_panic_inside_a_case_is_reported_with_the_case() {
    let mut case = 0;
    let property = |_: &mut _| {
        assert_ne!(case, 7, "the eighth case fails");
        case += 1;
    };
    let cause = catch_unwind(AssertUnwindSafe(|| sweep(10, property)))
        .expect_err("the sweep passes the panic on");
    let message = cause.downcast_ref::<String>().expect("a message");
    assert!(message.contains("case 7 of 10"), "{message}");
    assert!(message.contains("the eighth case fails"), "{message}");
}
