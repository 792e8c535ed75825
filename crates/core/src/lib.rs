//! # rlc-ceff
//!
//! The paper's contribution: an effective-capacitance based driver output
//! model for on-chip RLC interconnects (Agarwal, Sylvester, Blaauw, DAC
//! 2003).
//!
//! Given a pre-characterized driver cell (delay / output-transition tables
//! from `rlc-charlib`), the extracted parasitics of an RLC line
//! (`rlc-interconnect`) and its load capacitance, the model:
//!
//! 1. fits the rational driving-point admittance
//!    `Y(s) = (a1 s + a2 s² + a3 s³)/(1 + b1 s + b2 s²)` to five admittance
//!    moments ([`rlc_moments`]),
//! 2. computes the voltage breakpoint `f = Z0 / (Z0 + Rs)` from the driver's
//!    on-resistance and the line impedance ([`breakpoint`]),
//! 3. finds **two effective capacitances** by equating the charge delivered
//!    into `Y(s)` with the charge delivered into a lumped capacitor over the
//!    first-ramp and second-ramp intervals ([`charge`], [`iteration`]),
//! 4. corrects the second ramp for the reflection plateau ([`plateau`]),
//! 5. screens for inductance significance with the paper's Equation 9
//!    ([`criteria`]), falling back to a classic single effective capacitance
//!    ([`single_ramp`]) when the line behaves resistively,
//! 6. assembles the resulting one- or two-ramp driver output waveform
//!    ([`two_ramp`], [`flow`]) and propagates it to the far end of the line
//!    ([`far_end`]).
//!
//! The [`validation`] module runs the golden `rlc-spice` simulation of the
//! same testbench and reports model-vs-simulation delay and slew errors; the
//! `rlc-bench` crate uses it to regenerate every table and figure of the
//! paper.
//!
//! ```no_run
//! use rlc_ceff::prelude::*;
//! use rlc_charlib::prelude::*;
//! use rlc_interconnect::prelude::*;
//!
//! let mut library = Library::new(CharacterizationGrid::default());
//! let cell = library.cell(75.0)?.clone();
//! let line = EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(5.0), um(1.6)));
//!
//! let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0))?;
//! let model = DriverOutputModeler::new(ModelingConfig::default()).model(&case)?;
//! println!("driver output modelled as {}", model.describe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakpoint;
pub mod charge;
pub mod criteria;
pub mod far_end;
pub mod flow;
pub mod iteration;
pub mod plateau;
pub mod single_ramp;
pub mod two_ramp;
pub mod validation;

pub use breakpoint::voltage_breakpoint;
pub use charge::{ceff_first_ramp, ceff_second_ramp, ChargeWindow};
pub use criteria::{CriteriaReport, InductanceCriteria};
pub use far_end::{FarEndResponse, SinkResponse, TreeFarEndResponse};
pub use flow::{
    AnalysisCase, CeffStrategy, DriverOutputModel, DriverOutputModeler, ModelingConfig,
    ReducedLoad, WaveParameters,
};
pub use iteration::{CeffIteration, IterationSettings};
pub use plateau::plateau_corrected_tr2;
pub use single_ramp::SingleRampModel;
pub use two_ramp::TwoRampModel;
pub use validation::{CaseComparison, GoldenWaveforms};

/// Convenient glob import.
pub mod prelude {
    pub use crate::breakpoint::voltage_breakpoint;
    pub use crate::charge::{ceff_first_ramp, ceff_second_ramp, ChargeWindow};
    pub use crate::criteria::{CriteriaReport, InductanceCriteria};
    pub use crate::far_end::{FarEndResponse, SinkResponse, TreeFarEndResponse};
    pub use crate::flow::{
        AnalysisCase, CeffStrategy, DriverOutputModel, DriverOutputModeler, ModelingConfig,
        ReducedLoad, WaveParameters,
    };
    pub use crate::iteration::{CeffIteration, IterationSettings};
    pub use crate::single_ramp::SingleRampModel;
    pub use crate::two_ramp::TwoRampModel;
    pub use crate::validation::{CaseComparison, GoldenWaveforms};
    pub use crate::CeffError;
}

/// Errors produced by the modelling flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CeffError {
    /// The analysis case itself is invalid (non-positive input slew,
    /// negative load capacitance, or a model variant that requires a
    /// transmission line applied to a lumped load).
    InvalidCase(String),
    /// The admittance moment fit failed (degenerate load).
    MomentFit(String),
    /// A Ceff iteration failed to converge.
    IterationDiverged {
        /// Which iteration failed ("Ceff1", "Ceff2", "single Ceff").
        which: &'static str,
        /// Iterations attempted.
        iterations: usize,
    },
    /// The golden or far-end simulation failed.
    Simulation(String),
    /// A waveform measurement failed.
    Measurement(String),
}

impl std::fmt::Display for CeffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CeffError::InvalidCase(msg) => write!(f, "invalid analysis case: {msg}"),
            CeffError::MomentFit(msg) => write!(f, "admittance fit failed: {msg}"),
            CeffError::IterationDiverged { which, iterations } => {
                write!(
                    f,
                    "{which} iteration failed to converge after {iterations} steps"
                )
            }
            CeffError::Simulation(msg) => write!(f, "simulation failed: {msg}"),
            CeffError::Measurement(msg) => write!(f, "measurement failed: {msg}"),
        }
    }
}

impl std::error::Error for CeffError {}

impl From<rlc_moments::MomentError> for CeffError {
    fn from(e: rlc_moments::MomentError) -> Self {
        CeffError::MomentFit(e.to_string())
    }
}

impl From<rlc_spice::SpiceError> for CeffError {
    fn from(e: rlc_spice::SpiceError) -> Self {
        CeffError::Simulation(e.to_string())
    }
}

impl From<rlc_charlib::CharlibError> for CeffError {
    fn from(e: rlc_charlib::CharlibError) -> Self {
        CeffError::Simulation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        assert!(CeffError::MomentFit("x".into()).to_string().contains('x'));
        let e = CeffError::IterationDiverged {
            which: "Ceff1",
            iterations: 42,
        };
        assert!(e.to_string().contains("Ceff1"));
        assert!(e.to_string().contains("42"));
        let e: CeffError = rlc_moments::MomentError::DegenerateLoad("cap".into()).into();
        assert!(matches!(e, CeffError::MomentFit(_)));
        let e: CeffError = rlc_spice::SpiceError::InvalidCircuit("y".into()).into();
        assert!(matches!(e, CeffError::Simulation(_)));
        let e: CeffError = rlc_charlib::CharlibError::InvalidGrid("z".into()).into();
        assert!(matches!(e, CeffError::Simulation(_)));
        assert!(CeffError::Measurement("m".into()).to_string().contains('m'));
        assert!(CeffError::InvalidCase("bad slew".into())
            .to_string()
            .contains("bad slew"));
    }
}
