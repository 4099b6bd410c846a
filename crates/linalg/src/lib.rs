//! Dense linear algebra over generic fields for secure coded edge computing.
//!
//! This crate is the mathematical substrate of the SCEC workspace. It
//! provides exactly the operations the MCSCEC paper's availability and
//! security conditions are stated in terms of:
//!
//! * a [`Scalar`] abstraction over field elements, with two concrete fields:
//!   IEEE-754 [`f64`] (numerical mode) and the Mersenne prime field
//!   [`Fp61`] = GF(2⁶¹ − 1) (exact, information-theoretic mode);
//! * dense row-major [`Matrix`] and [`Vector`] types with the usual
//!   arithmetic (`A·B`, `A·x`, transpose, stacking, block extraction);
//! * [Gaussian elimination](gauss) with partial pivoting: [`rank`](Matrix::rank),
//!   [`solve`](gauss::solve), [`invert`](gauss::invert), reduced row echelon form;
//! * [row-span calculus](span): dimension of the span of a set of rows, and
//!   the dimension of the *intersection* of two row spans, which is the form
//!   in which the paper states its security condition
//!   (`dim(L(B_j) ∩ L(λ̄)) = 0`).
//!
//! # Example
//!
//! ```
//! use scec_linalg::{Matrix, span};
//!
//! // The paper's security condition for a device block B_j:
//! // the span of B_j must intersect the span of λ̄ = [E_m | 0] trivially.
//! let m = 2; // data rows
//! let r = 2; // random rows
//! // B_j = [E_m | E_r] : every coded row mixes one data row with one random row.
//! let b_j = Matrix::<f64>::identity(2).hstack(&Matrix::identity(2)).unwrap();
//! let lambda = Matrix::<f64>::identity(m).hstack(&Matrix::zeros(m, r)).unwrap();
//! assert_eq!(span::intersection_dim(&b_j, &lambda), 0);
//! ```

// `deny` rather than `forbid`: the `simd` module opts back in with a
// scoped `#[allow(unsafe_code)]` for the AVX2/AVX-512 intrinsics (every
// unsafe block there is behind runtime CPU-feature detection);
// everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fp;
pub mod fp_generic;
pub mod gauss;
pub mod kernels;
pub mod lu;
pub mod matrix;
pub mod ops;
pub mod scalar;
pub mod simd;
pub mod span;
pub mod sparse;
pub mod vector;

pub use error::{Error, Result};
pub use fp::Fp61;
pub use fp_generic::FpGeneric;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use vector::Vector;
