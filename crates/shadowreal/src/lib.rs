//! High-precision shadow arithmetic for floating-point error analysis.
//!
//! This crate is the substitute for the MPFR shadow values used by Herbgrind
//! ("Finding Root Causes of Floating Point Error", PLDI 2018, §5.1). The paper
//! treats the real-number computation as an abstract data type; this crate
//! provides that abstraction as the [`Real`] trait together with three
//! implementations:
//!
//! * [`BigFloat`] — an arbitrary-precision binary floating-point number with a
//!   configurable mantissa width (default 256 bits), the analogue of the
//!   paper's 1000-bit MPFR shadows. All arithmetic and elementary functions
//!   are implemented from scratch (no external bignum crate).
//! * [`DoubleDouble`] — Bailey-style double-double arithmetic (~106 bits of
//!   precision), a fast alternative shadow representation.
//! * `f64` — the trivial shadow, used by the uninstrumented baseline.
//!
//! The crate also provides the *bits of error* metric ([`bits_error`]) used
//! throughout the analysis: the base-2 logarithm of the number of
//! double-precision values between the approximate and the exact result.
//!
//! # Example
//!
//! ```
//! use shadowreal::{BigFloat, Real, bits_error};
//!
//! // (x + 1) - x loses all significance for x = 1e16 in doubles...
//! let x = 1.0e16_f64;
//! let float_result = (x + 1.0) - x; // 0.0 or 2.0, not 1.0
//!
//! // ...but the shadow real computes the true answer.
//! let sx = BigFloat::from_f64(x);
//! let shadow_result = sx.add(&BigFloat::from_f64(1.0)).sub(&sx);
//! assert_eq!(shadow_result.to_f64(), 1.0);
//!
//! // The error of the float result, measured in bits, is large.
//! assert!(bits_error(float_result, 1.0) > 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod dd;
mod real;

pub mod bigfloat;
pub mod cert;
pub mod dd_batch;
pub mod dd_math;

pub use bigfloat::BigFloat;
pub use bits::{bits_error, ordinal, ulps_between, MAX_ERROR_BITS};
pub use dd::DoubleDouble;
pub use dd_batch::DdLanes;
pub use real::{apply_f64_lanes, Real, RealOp, MAX_ARITY};
