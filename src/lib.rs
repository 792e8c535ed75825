//! # rlc-ceff-suite
//!
//! Umbrella crate for the reproduction of *"An Effective Capacitance Based
//! Driver Output Model for On-Chip RLC Interconnects"* (Agarwal, Sylvester,
//! Blaauw — DAC 2003), and home of the [`TimingEngine`] facade: one coherent
//! entry point over the whole stack.
//!
//! ## The facade
//!
//! A [`Stage`] describes one unit of work — a characterized driver, the load
//! it drives (any [`LoadModel`]: lumped capacitor, RC pi, distributed RLC
//! line, raw admittance moments) and the input event. A [`TimingEngine`]
//! analyzes stages on a selectable [`AnalysisBackend`] (the paper's analytic
//! effective-capacitance flow, or the golden `rlc-spice` transistor-level
//! simulation) and returns [`StageReport`]s whose waveforms live behind the
//! object-safe [`DriverModel`] trait:
//!
//! ```no_run
//! use rlc_ceff_suite::{DistributedRlcLoad, EngineConfig, Stage, TimingEngine};
//! use rlc_ceff_suite::charlib::{CharacterizationGrid, Library};
//! use rlc_ceff_suite::interconnect::prelude::*;
//!
//! let mut library = Library::new(CharacterizationGrid::default());
//! let cell = library.cell_shared(75.0)?;
//! let line = EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(5.0), um(1.6)));
//!
//! let stage = Stage::builder(cell, DistributedRlcLoad::new(line, ff(10.0))?)
//!     .label("flagship")
//!     .input_slew(ps(100.0))
//!     .build()?;
//!
//! let engine = TimingEngine::new(EngineConfig::default());
//! let report = engine.analyze(&stage)?;
//! println!("{}", report.describe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Batches run through an [`AnalysisSession`], which fans stages out across
//! threads with per-stage error recovery — one degenerate stage yields an
//! `Err` in its slot instead of aborting the run:
//!
//! ```no_run
//! # use rlc_ceff_suite::{Stage, TimingEngine};
//! # fn demo(engine: &TimingEngine, stages: Vec<Stage>) -> Result<(), rlc_ceff_suite::EngineError> {
//! let mut session = engine.session();
//! session.submit_all(stages)?;
//! for (handle, outcome) in session.wait_all() {
//!     match outcome {
//!         Ok(report) => println!("{handle}: {}", report.describe()),
//!         Err(error) => eprintln!("{handle} failed: {error}"),
//!     }
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## The layer crates
//!
//! The facade re-exports the individual workspace crates, so one dependency
//! reaches the whole stack:
//!
//! * [`numeric`] — complex arithmetic, power series, dense LU, interpolation.
//! * [`spice`] — the MNA transient simulator (the HSPICE stand-in).
//! * [`interconnect`] — geometry, technology, parasitic extraction, lines.
//! * [`moments`] — driving-point admittance moments and the rational fit.
//! * [`charlib`] — NLDM-style cell characterization and driver resistance.
//! * [`ceff`] — the paper's two-ramp effective-capacitance driver model.
//!
//! See the repository `README.md` for a tour, the crate map and migration
//! notes from the pre-facade API.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use rlc_ceff as ceff;
pub use rlc_charlib as charlib;
pub use rlc_interconnect as interconnect;
pub use rlc_lint as lint;
pub use rlc_moments as moments;
pub use rlc_numeric as numeric;
pub use rlc_spice as spice;

mod backend;
mod config;
mod driver;
pub mod eco;
mod engine;
mod error;
mod lints;
mod load;
mod pool;
mod session;
mod stage;
mod variation;

pub use backend::{
    AnalysisBackend, AnalyticBackend, AnalyticDetails, BackendCaps, FarEndReport,
    ReducedOrderBackend, ReductionError, SinkFarEnd, SpiceBackend, StageReport,
};
pub use config::{CeffStrategy, EngineConfig, EngineConfigBuilder, SessionOptions};
pub use driver::{DriverModel, SampledWaveform};
pub use eco::{
    driver_fingerprint, stage_key, InputFingerprint, StageKey, StageResultCache, WaveformDescriptor,
};
pub use engine::TimingEngine;
pub use error::EngineError;
pub use load::{
    AttachedNet, CoupledBusLoad, DistributedRlcLoad, LoadModel, LumpedCapLoad, MomentsLoad,
    PiModelLoad, RlcTreeLoad,
};
pub use rlc_lint::{Diagnostic, LintLevel, Severity};
pub use session::{AnalysisSession, InputSource, SessionReports, StageHandle, StageOutcome};
pub use stage::{
    AggressorSpec, AggressorSwitching, BackendChoice, InputEvent, Stage, StageBuilder,
};
pub use variation::{DistributionReport, SampleResult, VariationModel, VariationSpec};

/// Convenient glob import of the facade types.
pub mod prelude {
    pub use crate::backend::{
        AnalysisBackend, AnalyticBackend, AnalyticDetails, BackendCaps, FarEndReport,
        ReducedOrderBackend, ReductionError, SinkFarEnd, SpiceBackend, StageReport,
    };
    pub use crate::config::{CeffStrategy, EngineConfig, EngineConfigBuilder, SessionOptions};
    pub use crate::driver::{DriverModel, SampledWaveform};
    pub use crate::eco::{
        driver_fingerprint, stage_key, InputFingerprint, StageKey, StageResultCache,
        WaveformDescriptor,
    };
    pub use crate::engine::TimingEngine;
    pub use crate::error::EngineError;
    pub use crate::load::{
        AttachedNet, CoupledBusLoad, DistributedRlcLoad, LoadModel, LumpedCapLoad, MomentsLoad,
        PiModelLoad, RlcTreeLoad,
    };
    pub use crate::session::{
        AnalysisSession, InputSource, SessionReports, StageHandle, StageOutcome,
    };
    pub use crate::stage::{
        AggressorSpec, AggressorSwitching, BackendChoice, InputEvent, Stage, StageBuilder,
    };
    pub use crate::variation::{DistributionReport, SampleResult, VariationModel, VariationSpec};
    pub use rlc_lint::{Diagnostic, LintLevel, Severity};
}

/// Version of the reproduction suite.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Deterministic synthetic fixtures shared by this workspace's own unit
/// tests, integration tests and benches, so they cannot silently diverge.
/// Hidden from the documented API surface: downstream users should
/// characterize real cells instead.
#[doc(hidden)]
pub mod fixtures {
    use rlc_charlib::{DriverCell, TimingTable};
    use rlc_numeric::units::{ff, pf, ps};
    use rlc_spice::testbench::InverterSpec;

    /// A synthetic affine cell table scaled by drive strength: fast and
    /// deterministic, no characterization simulations. The inverter spec is
    /// real, so the SPICE backend can still simulate it.
    pub fn synthetic_cell(size: f64, on_resistance: f64) -> DriverCell {
        let slews = vec![ps(50.0), ps(100.0), ps(200.0)];
        let loads = vec![ff(50.0), ff(200.0), ff(500.0), pf(1.0), pf(2.0)];
        let transition: Vec<Vec<f64>> = slews
            .iter()
            .map(|&s| {
                loads
                    .iter()
                    .map(|&c| ps(10.0) + 0.1 * s + (c / 1e-12) * ps(12000.0) / size)
                    .collect()
            })
            .collect();
        let delay: Vec<Vec<f64>> = slews
            .iter()
            .map(|&s| {
                loads
                    .iter()
                    .map(|&c| ps(5.0) + 0.2 * s + (c / 1e-12) * ps(4000.0) / size)
                    .collect()
            })
            .collect();
        DriverCell::from_parts(
            InverterSpec::sized_018(size),
            TimingTable::new(slews, loads, delay, transition),
            on_resistance,
        )
    }

    /// The canonical 75X instance of [`synthetic_cell`].
    pub fn synthetic_cell_75x() -> DriverCell {
        synthetic_cell(75.0, 70.0)
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    pub(crate) use crate::fixtures::synthetic_cell_75x;
}

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
