//! Offline stand-in for `serde`: the trait names the scec crates import
//! and derives that expand to nothing (see `serde_derive`).

pub use serde_derive::{Deserialize, Serialize};

/// Name-only counterpart of `serde::Serialize`.
pub trait Serialize {}

/// Name-only counterpart of `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
