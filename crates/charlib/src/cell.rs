//! A characterized driver cell: the inverter description plus its timing
//! table and cached on-resistance.

use rlc_numeric::units::ps;
use rlc_spice::testbench::{InverterSpec, OutputTransition};
use rlc_spice::transient::TransientWorkspace;

use crate::characterize::{characterize_inverter_with, CharacterizationGrid};
use crate::resistance::{driver_on_resistance, driver_on_resistance_with};
use crate::table::TimingTable;
use crate::CharlibError;

/// Fraction of the full swing covered by a 10–90 % transition measurement;
/// dividing by it converts a measured transition time into the 0–100 % ramp
/// duration used by the paper's saturated-ramp waveforms.
pub const TRANSITION_TO_RAMP: f64 = 0.8;

/// A characterized inverter driver.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverCell {
    spec: InverterSpec,
    table: TimingTable,
    on_resistance: f64,
    resistance_load: f64,
}

impl DriverCell {
    /// Characterizes the paper's `sizeX` inverter over `grid` and extracts
    /// its on-resistance (using the largest characterized load, mirroring the
    /// paper's use of the total capacitance).
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn characterize(size: f64, grid: &CharacterizationGrid) -> Result<Self, CharlibError> {
        let spec = InverterSpec::sized_018(size);
        Self::characterize_spec(spec, grid)
    }

    /// Characterizes an arbitrary inverter specification.
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn characterize_spec(
        spec: InverterSpec,
        grid: &CharacterizationGrid,
    ) -> Result<Self, CharlibError> {
        // One workspace serves every transient run of the characterization:
        // the grid sweep plus the resistance extraction.
        let mut workspace = TransientWorkspace::new();
        let table = characterize_inverter_with(&spec, grid, &mut workspace)?;
        let resistance_load = table.max_load();
        let on_resistance = driver_on_resistance_with(
            &spec,
            ps(100.0),
            resistance_load,
            grid.transition,
            &mut workspace,
        )?
        .resistance;
        Ok(DriverCell {
            spec,
            table,
            on_resistance,
            resistance_load,
        })
    }

    /// Builds a cell from an existing table and resistance (used in tests and
    /// when loading pre-computed libraries).
    pub fn from_parts(spec: InverterSpec, table: TimingTable, on_resistance: f64) -> Self {
        let resistance_load = table.max_load();
        DriverCell {
            spec,
            table,
            on_resistance,
            resistance_load,
        }
    }

    /// The inverter description.
    pub fn spec(&self) -> &InverterSpec {
        &self.spec
    }

    /// The underlying timing table.
    pub fn table(&self) -> &TimingTable {
        &self.table
    }

    /// Drive strength multiple (e.g. 75.0 for a "75X" driver).
    pub fn size(&self) -> f64 {
        self.spec.size()
    }

    /// Supply voltage (volts).
    pub fn vdd(&self) -> f64 {
        self.spec.vdd
    }

    /// Extracted on-resistance `Rs` (ohms).
    pub fn on_resistance(&self) -> f64 {
        self.on_resistance
    }

    /// Load capacitance used when the on-resistance was extracted (farads).
    pub fn resistance_extraction_load(&self) -> f64 {
        self.resistance_load
    }

    /// Re-extracts the on-resistance against a specific load capacitance
    /// (for example the total capacitance of the line being analyzed, which
    /// is the paper's prescription): one transistor-level transient of the
    /// inverter spec against a lumped `load`, stopped at the output's 90 %
    /// crossing ([`crate::driver_on_resistance`]).
    ///
    /// The value depends on the spec and `load` alone, never on the input
    /// event of the stage being analyzed. That is what lets the
    /// `rlc-ceff-suite` session extract it for a waiting stage, against the
    /// total capacitance of the stage's reduced load, while the stage's
    /// producer is still running.
    ///
    /// # Errors
    /// Propagates simulation failures, including a `load` whose extraction
    /// window would exceed the transient's trace budget (a 1 µF load).
    pub fn on_resistance_for_load(&self, load: f64) -> Result<f64, CharlibError> {
        Ok(driver_on_resistance(&self.spec, ps(100.0), load, OutputTransition::Rising)?.resistance)
    }

    /// 50 % delay from the table (seconds).
    pub fn delay(&self, input_slew: f64, load: f64) -> f64 {
        self.table.delay(input_slew, load)
    }

    /// 10–90 % output transition from the table (seconds).
    pub fn output_transition(&self, input_slew: f64, load: f64) -> f64 {
        self.table.transition(input_slew, load)
    }

    /// Delay and transition together.
    pub fn lookup(&self, input_slew: f64, load: f64) -> (f64, f64) {
        self.table.lookup(input_slew, load)
    }

    /// Full-swing (0–100 %) ramp time for the given operating point, obtained
    /// by scaling the 10–90 % output transition. This is the `Tr` fed into the
    /// paper's effective-capacitance equations.
    pub fn ramp_time(&self, input_slew: f64, load: f64) -> f64 {
        self.output_transition(input_slew, load) / TRANSITION_TO_RAMP
    }

    /// Input capacitance of this driver (used as the fan-out load `CL` when a
    /// line drives an identical receiver).
    pub fn input_capacitance(&self) -> f64 {
        self.spec.input_capacitance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_numeric::units::{ff, pf};

    fn synthetic_cell() -> DriverCell {
        // Affine synthetic table so the numbers are easy to verify.
        let slews = vec![ps(50.0), ps(100.0), ps(200.0)];
        let loads = vec![ff(100.0), ff(500.0), pf(1.0), pf(2.0)];
        let delay: Vec<Vec<f64>> = slews
            .iter()
            .map(|&s| {
                loads
                    .iter()
                    .map(|&c| 0.1 * s + 60e-12 * (c / 1e-12))
                    .collect()
            })
            .collect();
        let transition: Vec<Vec<f64>> = slews
            .iter()
            .map(|_| {
                loads
                    .iter()
                    .map(|&c| ps(16.0) + 160e-12 * (c / 1e-12))
                    .collect()
            })
            .collect();
        DriverCell::from_parts(
            InverterSpec::sized_018(75.0),
            TimingTable::new(slews, loads, delay, transition),
            70.0,
        )
    }

    #[test]
    fn accessors_and_lookup() {
        let cell = synthetic_cell();
        assert_eq!(cell.size(), 75.0);
        assert_eq!(cell.vdd(), 1.8);
        assert_eq!(cell.on_resistance(), 70.0);
        assert_eq!(cell.resistance_extraction_load(), pf(2.0));
        let (d, t) = cell.lookup(ps(100.0), ff(500.0));
        assert!((d - (10e-12 + 30e-12)).abs() < 1e-15);
        assert!((t - (16e-12 + 80e-12)).abs() < 1e-15);
        assert!(cell.input_capacitance() > 0.0);
    }

    #[test]
    fn ramp_time_rescales_the_transition() {
        let cell = synthetic_cell();
        let tr = cell.ramp_time(ps(100.0), ff(500.0));
        let transition = cell.output_transition(ps(100.0), ff(500.0));
        assert!((tr - transition / 0.8).abs() < 1e-15);
        assert!(tr > transition);
    }

    #[test]
    fn real_characterization_of_a_small_cell() {
        let grid = CharacterizationGrid::coarse_for_tests();
        let cell = DriverCell::characterize(75.0, &grid).unwrap();
        // Ramp time must grow with load and the resistance must be physical.
        let fast = cell.ramp_time(ps(100.0), ff(100.0));
        let slow = cell.ramp_time(ps(100.0), pf(1.5));
        assert!(slow > 2.0 * fast);
        assert!(cell.on_resistance() > 20.0 && cell.on_resistance() < 150.0);
        // Changing the extraction load must not change Rs dramatically.
        let r2 = cell.on_resistance_for_load(pf(1.0)).unwrap();
        assert!((r2 - cell.on_resistance()).abs() / cell.on_resistance() < 0.4);
    }
}
