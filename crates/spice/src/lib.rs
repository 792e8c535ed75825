//! # rlc-spice
//!
//! A small modified-nodal-analysis (MNA) circuit simulator that serves as the
//! golden reference engine for the RLC effective-capacitance reproduction —
//! the role HSPICE plays in the original paper.
//!
//! Supported elements: resistors, capacitors, inductors, independent voltage
//! and current sources (DC, ramp, PWL, pulse), and an alpha-power-law MOSFET
//! (Sakurai–Newton) that captures the velocity-saturated drive of deep
//! submicron devices. Analyses: DC operating point (Newton–Raphson with gmin)
//! and fixed-step transient analysis with backward-Euler or trapezoidal
//! companion models.
//!
//! The simulator is deliberately simple — a fixed time step, sparse LU for
//! linear circuits and dense LU for the MOSFET Newton loop — because the
//! circuits in this workspace are small (a gate plus a segmented RLC line)
//! and reproducibility matters more than raw speed: a run's waveforms depend
//! on its circuit and options alone.
//!
//! ## Example: RC charging through a resistor
//!
//! ```
//! use rlc_spice::prelude::*;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0));
//! ckt.add_resistor("R1", vin, vout, 1e3);
//! ckt.add_capacitor("C1", vout, Circuit::GROUND, 1e-12);
//!
//! let opts = TransientOptions::try_new(10e-12, 10e-9)?;
//! let result = TransientAnalysis::new(opts).run(&ckt)?;
//! let wave = result.waveform(vout);
//! // After 10 time constants the capacitor is fully charged.
//! assert!((wave.last_value() - 1.0).abs() < 1e-3);
//! # Ok::<(), rlc_spice::SpiceError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod circuit;
pub mod dc;
pub mod elements;
pub mod mna;
pub mod mosfet;
pub mod source;
pub mod sweep;
pub mod testbench;
pub mod transient;
pub mod waveform;

pub use circuit::{Circuit, NodeId};
pub use dc::{dc_operating_point, DcOptions};
pub use elements::Element;
pub use mosfet::{MosfetParams, MosfetType};
pub use source::SourceWaveform;
pub use sweep::VariationSpec;
pub use transient::{
    Crossing, IntegrationMethod, KernelStrategy, TransientAnalysis, TransientOptions,
    TransientResult, TransientWorkspace,
};
pub use waveform::Waveform;

/// Convenient glob import for users of the simulator.
pub mod prelude {
    pub use crate::circuit::{Circuit, NodeId};
    pub use crate::dc::{dc_operating_point, DcOptions};
    pub use crate::mosfet::{MosfetParams, MosfetType};
    pub use crate::source::SourceWaveform;
    pub use crate::sweep::VariationSpec;
    pub use crate::transient::{
        Crossing, IntegrationMethod, KernelStrategy, TransientAnalysis, TransientOptions,
        TransientResult, TransientWorkspace,
    };
    pub use crate::waveform::Waveform;
    pub use crate::SpiceError;
}

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The Newton–Raphson loop failed to converge.
    NonConvergence {
        /// Simulation time at which convergence failed (seconds); `None` for DC.
        time: Option<f64>,
        /// Number of iterations attempted.
        iterations: usize,
        /// Worst voltage update in the final iteration.
        max_delta: f64,
    },
    /// The MNA matrix was singular (typically a floating node or a loop of
    /// ideal voltage sources).
    SingularMatrix {
        /// Simulation time at which the solve failed; `None` for DC.
        time: Option<f64>,
    },
    /// The circuit failed a sanity check before analysis.
    InvalidCircuit(String),
    /// Analysis options failed validation (non-positive times, a stop time
    /// shorter than one step, or an impossible kernel strategy).
    InvalidOptions(String),
}

impl std::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpiceError::NonConvergence {
                time,
                iterations,
                max_delta,
            } => match time {
                Some(t) => write!(
                    f,
                    "newton failed to converge at t = {t:.3e} s after {iterations} iterations (max delta {max_delta:.3e})"
                ),
                None => write!(
                    f,
                    "newton failed to converge in DC analysis after {iterations} iterations (max delta {max_delta:.3e})"
                ),
            },
            SpiceError::SingularMatrix { time } => match time {
                Some(t) => write!(f, "singular MNA matrix at t = {t:.3e} s"),
                None => write!(f, "singular MNA matrix in DC analysis"),
            },
            SpiceError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
            SpiceError::InvalidOptions(msg) => write!(f, "invalid analysis options: {msg}"),
        }
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = SpiceError::NonConvergence {
            time: Some(1e-9),
            iterations: 50,
            max_delta: 0.1,
        };
        let s = e.to_string();
        assert!(s.contains("newton"));
        assert!(s.contains("50"));

        let e = SpiceError::SingularMatrix { time: None };
        assert!(e.to_string().contains("DC"));

        let e = SpiceError::InvalidCircuit("no ground".into());
        assert!(e.to_string().contains("no ground"));
    }
}
