//! # rlc-numeric
//!
//! Self-contained numerical utilities used by the RLC effective-capacitance
//! reproduction workspace.
//!
//! The crate deliberately avoids external numerical dependencies: the math
//! needed by the paper (complex arithmetic for pole handling, truncated power
//! series for moment propagation, dense LU for the MNA simulator, root
//! finding and interpolation for the Ceff iterations and cell tables) is small
//! and is implemented here with thorough tests. So is the one byte codec
//! ([`codec`]) that the caches and the service wire share.
//!
//! ## Example
//!
//! ```
//! use rlc_numeric::complex::Complex;
//! use rlc_numeric::roots::quadratic_roots;
//!
//! // Roots of s^2 + 2s + 5 = 0 are -1 +/- 2j.
//! let (r1, r2) = quadratic_roots(1.0, 2.0, 5.0);
//! assert!((r1 - Complex::new(-1.0, 2.0)).abs() < 1e-12
//!      || (r1 - Complex::new(-1.0, -2.0)).abs() < 1e-12);
//! assert!((r1.re - r2.re).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod complex;
pub mod diag;
pub mod interp;
pub mod matching;
pub mod matrix;
pub mod polynomial;
pub mod quadrature;
pub mod roots;
pub mod series;
pub mod sparse;
pub mod stats;
pub mod units;

pub use complex::Complex;
pub use diag::{Diagnostic, Severity};
pub use matching::{structural_rank, StructuralRank};
pub use matrix::{DenseMatrix, LuFactors};
pub use polynomial::Polynomial;
pub use series::PowerSeries;
pub use sparse::{CscMatrix, SparseLu};
pub use stats::{Accumulator, DistributionSummary, Rng};

/// Default absolute tolerance used across the workspace when comparing
/// floating point quantities that are expected to be "equal".
pub const DEFAULT_ABS_TOL: f64 = 1e-12;

/// Returns `true` when `a` and `b` agree within a relative tolerance `rel`
/// (falling back to an absolute comparison near zero).
///
/// ```
/// assert!(rlc_numeric::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!rlc_numeric::approx_eq(1.0, 1.1, 1e-3));
/// ```
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs());
    if scale < DEFAULT_ABS_TOL {
        return (a - b).abs() < DEFAULT_ABS_TOL;
    }
    (a - b).abs() <= rel * scale
}

/// Relative error of `value` with respect to `reference`, expressed as a
/// signed fraction (`+0.05` means 5 % high). Returns `0.0` when the reference
/// is exactly zero and the value is also zero, and `f64::INFINITY` when only
/// the reference is zero.
///
/// ```
/// assert!((rlc_numeric::relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
/// ```
pub fn relative_error(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if value == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (value - reference) / reference
    }
}

/// Deterministic splitmix64-based pseudo-random stream in `[0, 1)` — the
/// dependency-free stand-in for property-based generation used by the
/// sweep tests across this crate.
#[cfg(test)]
pub(crate) fn splitmix_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut rng = stats::Rng::new(seed);
    move || rng.uniform()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_near_zero_uses_absolute() {
        assert!(approx_eq(0.0, 1e-15, 1e-9));
        assert!(approx_eq(-1e-14, 1e-14, 1e-9));
    }

    #[test]
    fn approx_eq_respects_relative_tolerance() {
        assert!(approx_eq(1000.0, 1000.5, 1e-3));
        assert!(!approx_eq(1000.0, 1002.0, 1e-3));
    }

    #[test]
    fn relative_error_signs() {
        assert!(relative_error(90.0, 100.0) < 0.0);
        assert!(relative_error(110.0, 100.0) > 0.0);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }
}
