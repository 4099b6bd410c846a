//! Library backing the `scec` command-line tool.
//!
//! The binary is a thin argument parser over the functions in
//! [`commands`], which are pure enough to unit-test: they read/write CSV
//! matrices ([`csv`]) and wire-framed share files (`scec-wire`), and
//! return their human-readable output as a `String`.
//!
//! ```text
//! scec plan   --m 100 --costs 1.0,1.5,2.0,4.0
//! scec deploy --data a.csv --costs 1.0,1.5,2.0,4.0 --out shares/
//! scec query  --shares shares/ --input x.csv --output y.csv
//! scec audit  --shares shares/
//! scec chaos  --devices 6 --queries 8 --intensity 0.4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod csv;
pub mod error;

pub use error::{Error, Result};
