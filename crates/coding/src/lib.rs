//! Secure linear coding design (LCEC) for coded edge computing.
//!
//! Implements the coding half of the MCSCEC paper (Sec. IV-B): given the
//! task-allocation parameters `(m, r, i)`, build the structured encoding
//! coefficient matrix of Eq. (8),
//!
//! ```text
//!     B = ⎡ O_{r,m}  E_r    ⎤
//!         ⎣ E_m      E_{m,r} ⎦
//! ```
//!
//! whose rows are distributed to `i` edge devices: device 1 holds pure
//! random rows, and every other coded row is *one data row plus one random
//! row*. Theorem 3 proves this design is simultaneously
//!
//! * **available** — `B` is full rank, so the user can always recover
//!   `Ax`, and
//! * **secure** — no single device's row block spans any non-zero
//!   combination of pure data rows (`dim(L(B_j) ∩ L(λ̄)) = 0`).
//!
//! Because of the structure, decoding needs only `m` subtractions
//! ([`decode::decode_fast`]) instead of a full Gaussian elimination
//! ([`decode::decode_general`]), which this crate also provides — both as
//! the paper's generic fallback and as the baseline for the decoding
//! ablation (A1 in `DESIGN.md`).
//!
//! # Example: end-to-end encode → compute → decode
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use scec_coding::{decode, encode::Encoder, design::CodeDesign};
//! use scec_linalg::{Matrix, Vector};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let m = 4; // data rows
//! let l = 3; // row width
//! let a = Matrix::<f64>::random(m, l, &mut rng);
//! let x = Vector::<f64>::random(l, &mut rng);
//!
//! let design = CodeDesign::new(m, 2)?; // r = 2 random rows → i = 3 devices
//! let store = Encoder::new(design.clone()).encode(&a, &mut rng)?;
//!
//! // Each device multiplies its coded block by x…
//! let partials: Vec<_> = store.shares().iter().map(|s| s.compute(&x).unwrap()).collect();
//! // …and the user decodes with m subtractions.
//! let y = decode::decode_fast(&design, &decode::stack_partials(&partials))?;
//! let want = a.matvec(&x)?;
//! for p in 0..m {
//!     assert!((y.at(p) - want.at(p)).abs() < 1e-9);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collusion;
pub mod decode;
pub mod design;
pub mod encode;
pub mod error;
pub mod oracle;
pub mod plan;
pub mod rateless;
pub mod straggler;
pub mod verify;
pub mod wire;

pub use collusion::{TPrivateCode, TPrivateShare, TPrivateStore};
pub use design::CodeDesign;
pub use encode::{DeviceShare, EncodedStore, Encoder};
pub use error::{Error, Result};
pub use plan::DecodePlan;
pub use rateless::{RatelessBatch, RatelessEncoder};
pub use straggler::{StragglerCode, StragglerShare, StragglerStore, TaggedResponse};
pub use wire::{FailureMsg, HelloMsg, PanelPartialMsg, PanelQueryMsg, PartialMsg, QueryMsg};
