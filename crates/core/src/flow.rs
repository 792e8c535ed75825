//! The complete modelling flow (Section 5 of the paper).
//!
//! Given line parasitics and the characterized output delay table for the
//! driver:
//!
//! 1. find the driving-point admittance moments and fit `a1..a3`, `b1`, `b2`;
//! 2. find the driver on-resistance `Rs` and compute the voltage breakpoint
//!    `f` (Equation 1);
//! 3. perform the `Ceff1` iterations and find `Tr1`;
//! 4. check the inductance criteria (Equation 9);
//! 5. if inductance is significant, perform the `Ceff2` iterations, apply the
//!    plateau correction (Equation 8) and model the output as two ramps;
//!    otherwise iterate a single effective capacitance (`f = 1`) and model
//!    the output as one ramp.

use rlc_charlib::DriverCell;
use rlc_interconnect::RlcLine;
use rlc_moments::{distributed_admittance_moments, RationalAdmittance};
use rlc_numeric::units::ps;
use rlc_spice::SourceWaveform;

use crate::breakpoint::voltage_breakpoint;
use crate::criteria::{CriteriaReport, InductanceCriteria};
use crate::iteration::{iterate_ceff1, iterate_ceff2, CeffIteration, IterationSettings};
use crate::plateau::plateau_corrected_tr2;
use crate::single_ramp::SingleRampModel;
use crate::two_ramp::TwoRampModel;
use crate::CeffError;

/// One timing-analysis case: a driver cell, the RLC line it drives, the
/// far-end (fan-out) load capacitance and the input transition time.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisCase<'a> {
    /// The characterized driver.
    pub cell: &'a DriverCell,
    /// The extracted RLC line.
    pub line: &'a RlcLine,
    /// Far-end load capacitance (farads).
    pub c_load: f64,
    /// Input transition time (seconds, 0–100 %).
    pub input_slew: f64,
    /// Absolute time at which the input ramp starts (seconds).
    pub input_delay: f64,
}

impl<'a> AnalysisCase<'a> {
    /// Creates a case with the default 20 ps input delay, validating the
    /// inputs.
    ///
    /// # Errors
    /// Returns [`CeffError::InvalidCase`] if `input_slew` is not positive
    /// and finite or `c_load` is negative or non-finite.
    pub fn try_new(
        cell: &'a DriverCell,
        line: &'a RlcLine,
        c_load: f64,
        input_slew: f64,
    ) -> Result<Self, CeffError> {
        if !(input_slew > 0.0 && input_slew.is_finite()) {
            return Err(CeffError::InvalidCase(format!(
                "input slew must be positive and finite, got {input_slew:e}"
            )));
        }
        if !(c_load >= 0.0 && c_load.is_finite()) {
            return Err(CeffError::InvalidCase(format!(
                "load capacitance must be non-negative and finite, got {c_load:e}"
            )));
        }
        Ok(AnalysisCase {
            cell,
            line,
            c_load,
            input_slew,
            input_delay: ps(20.0),
        })
    }

    /// Sets the absolute start time of the input ramp (builder style).
    pub fn with_input_delay(mut self, input_delay: f64) -> Self {
        self.input_delay = input_delay;
        self
    }

    /// Absolute time of the input's 50 % crossing.
    pub fn input_t50(&self) -> f64 {
        self.input_delay + 0.5 * self.input_slew
    }

    /// Total capacitance of the load (line plus fan-out).
    pub fn total_capacitance(&self) -> f64 {
        self.line.capacitance() + self.c_load
    }

    /// Reduces this case's load (line + fan-out capacitance) to the fitted
    /// rational admittance plus wave parameters.
    ///
    /// # Errors
    /// Propagates moment-fit errors.
    pub fn reduce_load(&self) -> Result<ReducedLoad, CeffError> {
        ReducedLoad::from_line(self.line, self.c_load)
    }
}

/// Wave-propagation parameters of a load that contains a transmission line —
/// everything the voltage breakpoint (Equation 1) and the Equation 9
/// screening need beyond the fitted admittance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveParameters {
    /// Lossless characteristic impedance `Z0 = sqrt(L/C)` (ohms).
    pub characteristic_impedance: f64,
    /// Time of flight `tf = sqrt(L_total C_total)` (seconds).
    pub time_of_flight: f64,
    /// Total series resistance of the line (ohms).
    pub line_resistance: f64,
    /// Total shunt capacitance of the line (farads).
    pub line_capacitance: f64,
}

impl WaveParameters {
    /// The wave parameters of an extracted RLC line.
    pub fn of_line(line: &RlcLine) -> Self {
        WaveParameters {
            characteristic_impedance: line.characteristic_impedance(),
            time_of_flight: line.time_of_flight(),
            line_resistance: line.resistance(),
            line_capacitance: line.capacitance(),
        }
    }
}

/// A reduced, driver-independent description of an arbitrary load: the
/// rational driving-point admittance the charge matching runs against, the
/// external (fan-out) capacitance beyond any line, and — when the load
/// contains a transmission line — its wave parameters.
///
/// This is the seam the `rlc-ceff-suite` facade's `LoadModel` trait plugs
/// into: a lumped capacitor or an RC pi model reduces to an exact admittance
/// with `wave: None` (the flow then uses the classic single-ramp path), while
/// a distributed RLC line reduces to the paper's five-moment fit with its
/// wave parameters attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReducedLoad {
    /// The rational admittance seen from the driving point.
    pub fit: RationalAdmittance,
    /// Fan-out capacitance beyond the line (the `C_L` of Equation 9); for
    /// loads without a line this equals the total capacitance.
    pub external_load: f64,
    /// Wave parameters, present only when the load contains a line.
    pub wave: Option<WaveParameters>,
}

impl ReducedLoad {
    /// Reduces an RLC line terminated by `c_load`: fits the rational
    /// admittance to five distributed moments and records the wave
    /// parameters.
    ///
    /// # Errors
    /// Propagates moment-fit errors.
    pub fn from_line(line: &RlcLine, c_load: f64) -> Result<Self, CeffError> {
        let moments = distributed_admittance_moments(line, c_load, 5);
        Ok(ReducedLoad {
            fit: RationalAdmittance::from_moments(&moments)?,
            external_load: c_load,
            wave: Some(WaveParameters::of_line(line)),
        })
    }

    /// A lumped capacitive load `Y(s) = C s`.
    ///
    /// # Errors
    /// Returns a moment-fit error if `c` is not positive.
    pub fn lumped(c: f64) -> Result<Self, CeffError> {
        Ok(ReducedLoad {
            fit: RationalAdmittance::lumped(c)?,
            external_load: c,
            wave: None,
        })
    }

    /// Total capacitance of the load (the first admittance moment).
    pub fn total_capacitance(&self) -> f64 {
        self.fit.total_capacitance()
    }
}

/// Which waveform shape the modelling flow produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CeffStrategy {
    /// The paper's flow: screen with Equation 9, two-ramp when inductance is
    /// significant, single ramp otherwise.
    #[default]
    Auto,
    /// Always the classic single-Ceff ramp (the "1 ramp" baseline).
    ForceSingleRamp,
    /// Always the two-ramp waveform (requires a transmission-line load).
    ForceTwoRamp,
}

/// Configuration of the modelling flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelingConfig {
    /// Convergence controls for the Ceff iterations.
    pub iteration: IterationSettings,
    /// Inductance-significance thresholds (Equation 9).
    pub criteria: InductanceCriteria,
    /// When true (the paper's prescription) the driver on-resistance is
    /// re-extracted against the total capacitance of each analyzed load;
    /// when false the resistance cached at characterization time is reused,
    /// which the paper argues is an acceptable simplification.
    pub extract_rs_per_case: bool,
}

impl Default for ModelingConfig {
    fn default() -> Self {
        ModelingConfig {
            iteration: IterationSettings::default(),
            criteria: InductanceCriteria::default(),
            extract_rs_per_case: true,
        }
    }
}

/// The waveform part of a driver-output model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelWaveform {
    /// Single saturated ramp (inductance not significant).
    SingleRamp(SingleRampModel),
    /// Two-ramp waveform (inductance significant).
    TwoRamp(TwoRampModel),
}

/// The result of modelling one case: the waveform plus every intermediate
/// quantity of the flow, for diagnostics and for the experiment harness.
#[derive(Debug, Clone)]
pub struct DriverOutputModel {
    /// The modelled driver-output waveform.
    pub waveform: ModelWaveform,
    /// The fitted rational admittance of the load.
    pub fit: RationalAdmittance,
    /// Driver on-resistance used for the breakpoint (ohms).
    pub driver_resistance: f64,
    /// Voltage breakpoint fraction `f`.
    pub breakpoint: f64,
    /// The converged first-ramp (or single-ramp) Ceff iteration.
    pub ceff1: CeffIteration,
    /// The converged second-ramp Ceff iteration (two-ramp models only).
    pub ceff2: Option<CeffIteration>,
    /// Second-ramp duration before the plateau correction (seconds).
    pub tr2_uncorrected: Option<f64>,
    /// The inductance-criteria evaluation.
    pub criteria: CriteriaReport,
    /// Absolute time of the input's 50 % crossing (seconds).
    pub input_t50: f64,
    /// Supply voltage (volts).
    pub vdd: f64,
}

impl DriverOutputModel {
    /// Whether the two-ramp model was selected.
    pub fn is_two_ramp(&self) -> bool {
        matches!(self.waveform, ModelWaveform::TwoRamp(_))
    }

    /// Modelled driver-output voltage at absolute time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => m.value_at(t),
            ModelWaveform::TwoRamp(m) => m.value_at(t),
        }
    }

    /// Modelled 50 % delay from the input's 50 % crossing (seconds).
    pub fn delay(&self) -> f64 {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => m.delay_from(self.input_t50),
            ModelWaveform::TwoRamp(m) => m.delay_from(self.input_t50),
        }
    }

    /// Modelled 10–90 % output transition time (seconds).
    pub fn slew(&self) -> f64 {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => m.slew_10_90(),
            ModelWaveform::TwoRamp(m) => m.slew_10_90(),
        }
    }

    /// The modelled waveform as a PWL source padded to `t_stop`, for driving
    /// far-end simulations.
    pub fn to_source(&self, t_stop: f64) -> SourceWaveform {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => m.to_source(t_stop),
            ModelWaveform::TwoRamp(m) => m.to_source(t_stop),
        }
    }

    /// Time at which the modelled transition is complete (seconds).
    pub fn end_time(&self) -> f64 {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => m.start_time + m.tr,
            ModelWaveform::TwoRamp(m) => m.start_time + m.end_time(),
        }
    }

    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        match self.waveform {
            ModelWaveform::SingleRamp(m) => format!(
                "{m} (Ceff = {:.1} fF, f = {:.2}, Rs = {:.1} ohm)",
                self.ceff1.ceff * 1e15,
                self.breakpoint,
                self.driver_resistance
            ),
            ModelWaveform::TwoRamp(m) => format!(
                "{m} (Ceff1 = {:.1} fF, Ceff2 = {:.1} fF, Rs = {:.1} ohm)",
                self.ceff1.ceff * 1e15,
                self.ceff2.map(|c| c.ceff).unwrap_or(f64::NAN) * 1e15,
                self.driver_resistance
            ),
        }
    }
}

/// The modelling-flow driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverOutputModeler {
    config: ModelingConfig,
}

impl DriverOutputModeler {
    /// Creates a modeler with the given configuration.
    pub fn new(config: ModelingConfig) -> Self {
        DriverOutputModeler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ModelingConfig {
        &self.config
    }

    fn driver_resistance(
        &self,
        cell: &DriverCell,
        total_capacitance: f64,
    ) -> Result<f64, CeffError> {
        if self.config.extract_rs_per_case {
            Ok(cell.on_resistance_for_load(total_capacitance)?)
        } else {
            Ok(cell.on_resistance())
        }
    }

    /// The voltage breakpoint for a reduced load: Equation 1 against the
    /// line's characteristic impedance, or `1.0` (no breakpoint — the whole
    /// transition is one ramp) for loads without a line.
    fn breakpoint(load: &ReducedLoad, rs: f64) -> f64 {
        match load.wave {
            Some(wave) => voltage_breakpoint(wave.characteristic_impedance, rs).clamp(0.02, 0.98),
            None => 1.0,
        }
    }

    fn criteria_report(&self, load: &ReducedLoad, rs: f64, tr1: f64) -> CriteriaReport {
        match load.wave {
            Some(wave) => self.config.criteria.evaluate_raw(
                wave.characteristic_impedance,
                wave.time_of_flight,
                wave.line_resistance,
                wave.line_capacitance,
                load.external_load,
                rs,
                tr1,
            ),
            None => CriteriaReport::without_line(load.external_load),
        }
    }

    /// Anchors a ramp whose table delay and duration are known: the table
    /// delay positions the (virtual) 50 % point of the Ceff ramp, so the
    /// transition starts half a ramp earlier.
    fn start_time(input_t50: f64, delay: f64, ramp_time: f64) -> f64 {
        input_t50 + delay - 0.5 * ramp_time
    }

    #[allow(clippy::too_many_arguments)]
    fn single_ramp_reduced(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        rs: f64,
        f: f64,
        input_slew: f64,
        input_t50: f64,
        report: Option<CriteriaReport>,
    ) -> Result<DriverOutputModel, CeffError> {
        let single = iterate_ceff1(cell, &load.fit, input_slew, 1.0, &self.config.iteration)?;
        let report = match report {
            Some(r) => r,
            None => self.criteria_report(load, rs, single.ramp_time),
        };
        let start = Self::start_time(input_t50, single.delay, single.ramp_time);
        Ok(DriverOutputModel {
            waveform: ModelWaveform::SingleRamp(SingleRampModel::new(
                cell.vdd(),
                single.ramp_time,
                start,
            )),
            fit: load.fit,
            driver_resistance: rs,
            breakpoint: f,
            ceff1: single,
            ceff2: None,
            tr2_uncorrected: None,
            criteria: report,
            input_t50,
            vdd: cell.vdd(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn two_ramp_reduced(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        rs: f64,
        f: f64,
        ceff1: CeffIteration,
        report: CriteriaReport,
        input_slew: f64,
        input_t50: f64,
    ) -> Result<DriverOutputModel, CeffError> {
        let wave = load.wave.ok_or_else(|| {
            CeffError::InvalidCase(
                "the two-ramp model needs a transmission-line load (reflection plateau); \
                 this load has no wave parameters"
                    .to_string(),
            )
        })?;
        let ceff2 = iterate_ceff2(
            cell,
            &load.fit,
            input_slew,
            f,
            ceff1.ramp_time,
            &self.config.iteration,
        )?;
        let tr2_new =
            plateau_corrected_tr2(ceff2.ramp_time, ceff1.ramp_time, wave.time_of_flight, f);
        let start = Self::start_time(input_t50, ceff1.delay, ceff1.ramp_time);
        Ok(DriverOutputModel {
            waveform: ModelWaveform::TwoRamp(TwoRampModel::new(
                cell.vdd(),
                f,
                ceff1.ramp_time,
                tr2_new,
                start,
            )),
            fit: load.fit,
            driver_resistance: rs,
            breakpoint: f,
            ceff1,
            ceff2: Some(ceff2),
            tr2_uncorrected: Some(ceff2.ramp_time),
            criteria: report,
            input_t50,
            vdd: cell.vdd(),
        })
    }

    /// Runs steps 3 to 5 of the flow against an already reduced load at a
    /// given driver on-resistance `rs` (ohms), in the waveform shape
    /// `strategy` selects; `input_t50 = input_delay + input_slew / 2`. The
    /// other `model_reduced*` entries obtain `rs` per
    /// [`ModelingConfig::extract_rs_per_case`] and call this one.
    ///
    /// Rs depends on the driver and the load's total capacitance, never on
    /// the input event, so a caller may extract it ahead of time (the
    /// `rlc-ceff-suite` session does, while a stage still waits on its
    /// input). The result is bit-identical to the extracting entries when
    /// `rs` is the value they would extract.
    ///
    /// # Errors
    /// Propagates iteration errors, and returns [`CeffError::InvalidCase`]
    /// when [`CeffStrategy::ForceTwoRamp`] meets a load without a
    /// transmission line.
    pub fn model_reduced_with_rs(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        rs: f64,
        strategy: CeffStrategy,
        input_slew: f64,
        input_delay: f64,
    ) -> Result<DriverOutputModel, CeffError> {
        let f = Self::breakpoint(load, rs);
        let input_t50 = input_delay + 0.5 * input_slew;
        if strategy == CeffStrategy::ForceSingleRamp
            || (strategy == CeffStrategy::Auto && load.wave.is_none())
        {
            // The forced baseline, or no line and no reflection: the classic
            // single effective capacitance is the whole story.
            return self.single_ramp_reduced(cell, load, rs, f, input_slew, input_t50, None);
        }

        // Step 3: Ceff1 / Tr1.
        let ceff1 = iterate_ceff1(cell, &load.fit, input_slew, f, &self.config.iteration)?;

        // Step 4: inductance criteria using the *output* initial ramp.
        let report = self.criteria_report(load, rs, ceff1.ramp_time);

        if strategy == CeffStrategy::ForceTwoRamp || report.inductance_significant() {
            // Step 5a: Ceff2, plateau correction, two-ramp waveform.
            self.two_ramp_reduced(cell, load, rs, f, ceff1, report, input_slew, input_t50)
        } else {
            // Step 5b: classic single effective capacitance (f = 1).
            self.single_ramp_reduced(cell, load, rs, f, input_slew, input_t50, Some(report))
        }
    }

    /// Runs the full flow against an already reduced load: two-ramp when the
    /// load has a line and the inductance criteria pass, single ramp
    /// otherwise. This is the generalized entry point the `rlc-ceff-suite`
    /// facade drives; `input_t50 = input_delay + input_slew / 2`.
    ///
    /// # Errors
    /// Propagates iteration and characterization errors.
    pub fn model_reduced(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        input_slew: f64,
        input_delay: f64,
    ) -> Result<DriverOutputModel, CeffError> {
        let rs = self.driver_resistance(cell, load.total_capacitance())?;
        self.model_reduced_with_rs(cell, load, rs, CeffStrategy::Auto, input_slew, input_delay)
    }

    /// The single-ramp (classic Ceff) model of a reduced load regardless of
    /// the inductance criteria — the "1 ramp" baseline column of Table 1.
    ///
    /// # Errors
    /// Propagates iteration and characterization errors.
    pub fn model_reduced_single_ramp(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        input_slew: f64,
        input_delay: f64,
    ) -> Result<DriverOutputModel, CeffError> {
        let rs = self.driver_resistance(cell, load.total_capacitance())?;
        let strategy = CeffStrategy::ForceSingleRamp;
        self.model_reduced_with_rs(cell, load, rs, strategy, input_slew, input_delay)
    }

    /// The two-ramp model of a reduced load regardless of the inductance
    /// criteria (used for ablation studies and the figure binaries).
    ///
    /// # Errors
    /// Propagates iteration and characterization errors, and returns
    /// [`CeffError::InvalidCase`] for loads without a transmission line.
    pub fn model_reduced_two_ramp(
        &self,
        cell: &DriverCell,
        load: &ReducedLoad,
        input_slew: f64,
        input_delay: f64,
    ) -> Result<DriverOutputModel, CeffError> {
        let rs = self.driver_resistance(cell, load.total_capacitance())?;
        let strategy = CeffStrategy::ForceTwoRamp;
        self.model_reduced_with_rs(cell, load, rs, strategy, input_slew, input_delay)
    }

    /// Runs the full flow: two-ramp when the inductance criteria pass, single
    /// ramp otherwise.
    ///
    /// # Errors
    /// Propagates moment-fit, iteration and simulation errors.
    pub fn model(&self, case: &AnalysisCase<'_>) -> Result<DriverOutputModel, CeffError> {
        let load = case.reduce_load()?;
        self.model_reduced(case.cell, &load, case.input_slew, case.input_delay)
    }

    /// Always produces the single-ramp (classic Ceff) model regardless of the
    /// inductance criteria — the "1 ramp" baseline column of Table 1.
    ///
    /// # Errors
    /// Propagates moment-fit, iteration and simulation errors.
    pub fn model_single_ramp(
        &self,
        case: &AnalysisCase<'_>,
    ) -> Result<DriverOutputModel, CeffError> {
        let load = case.reduce_load()?;
        self.model_reduced_single_ramp(case.cell, &load, case.input_slew, case.input_delay)
    }

    /// Always produces the two-ramp model regardless of the inductance
    /// criteria (used for ablation studies and the figure binaries).
    ///
    /// # Errors
    /// Propagates moment-fit, iteration and simulation errors.
    pub fn model_two_ramp(&self, case: &AnalysisCase<'_>) -> Result<DriverOutputModel, CeffError> {
        let load = case.reduce_load()?;
        self.model_reduced_two_ramp(case.cell, &load, case.input_slew, case.input_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_charlib::{DriverCell, TimingTable};
    use rlc_numeric::units::{ff, mm, nh, pf};
    use rlc_spice::testbench::InverterSpec;

    /// Synthetic cells avoid running transient simulations in these tests;
    /// the end-to-end behaviour with real characterized cells is covered by
    /// the validation module and the workspace integration tests.
    fn synthetic_cell(size: f64, on_resistance: f64) -> DriverCell {
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

    fn fast_config() -> ModelingConfig {
        ModelingConfig {
            extract_rs_per_case: false,
            ..ModelingConfig::default()
        }
    }

    fn paper_line() -> RlcLine {
        RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0))
    }

    #[test]
    fn strong_driver_selects_two_ramp_model() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0)).unwrap();
        let model = DriverOutputModeler::new(fast_config())
            .model(&case)
            .unwrap();
        assert!(model.is_two_ramp(), "{}", model.describe());
        assert!(model.criteria.inductance_significant());
        // The breakpoint for a ~70 ohm driver on a ~68 ohm line is near 0.5.
        assert!(model.breakpoint > 0.4 && model.breakpoint < 0.6);
        // Ceff2 exceeds Ceff1, both below the total capacitance.
        let c2 = model.ceff2.unwrap();
        assert!(c2.ceff > model.ceff1.ceff);
        assert!(c2.ceff <= 3.0 * case.total_capacitance());
        // The plateau correction stretches the second ramp.
        assert!(match model.waveform {
            ModelWaveform::TwoRamp(m) => m.tr2 > model.tr2_uncorrected.unwrap(),
            _ => false,
        });
        // Delay and slew are positive and ordered sensibly.
        assert!(model.delay() > 0.0);
        assert!(model.slew() > model.delay());
    }

    #[test]
    fn weak_driver_selects_single_ramp_model() {
        let cell = synthetic_cell(25.0, 220.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0)).unwrap();
        let model = DriverOutputModeler::new(fast_config())
            .model(&case)
            .unwrap();
        assert!(!model.is_two_ramp(), "{}", model.describe());
        assert!(model.ceff2.is_none());
        assert!(model.delay() > 0.0 && model.slew() > 0.0);
    }

    #[test]
    fn forced_variants_produce_both_shapes() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0)).unwrap();
        let modeler = DriverOutputModeler::new(fast_config());
        let one = modeler.model_single_ramp(&case).unwrap();
        let two = modeler.model_two_ramp(&case).unwrap();
        assert!(!one.is_two_ramp());
        assert!(two.is_two_ramp());
        // The single-ramp baseline underestimates the slew relative to the
        // two-ramp model for an inductive case (the paper's core claim).
        assert!(one.slew() < two.slew());
        assert!(one.describe().contains("Ceff"));
        assert!(two.describe().contains("Ceff2"));
    }

    #[test]
    fn model_value_and_source_are_consistent() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0)).unwrap();
        let model = DriverOutputModeler::new(fast_config())
            .model(&case)
            .unwrap();
        let src = model.to_source(2e-9);
        for &t in &[0.0, 50e-12, 150e-12, 300e-12, 600e-12, 1.5e-9] {
            assert!((src.value_at(t) - model.value_at(t)).abs() < 1e-9);
        }
        assert!(model.end_time() > model.input_t50);
    }

    #[test]
    fn case_accessors() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(20.0), ps(100.0))
            .unwrap()
            .with_input_delay(ps(40.0));
        assert!((case.input_t50() - ps(90.0)).abs() < 1e-15);
        assert!((case.total_capacitance() - (1.10e-12 + 20e-15)).abs() < 1e-18);
    }

    #[test]
    fn default_config_extracts_rs_per_case() {
        let config = ModelingConfig::default();
        assert!(config.extract_rs_per_case);
        let modeler = DriverOutputModeler::default();
        assert!(modeler.config().extract_rs_per_case);
    }

    #[test]
    fn invalid_case_rejected_with_error() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        assert!(matches!(
            AnalysisCase::try_new(&cell, &line, ff(10.0), 0.0),
            Err(CeffError::InvalidCase(_))
        ));
        assert!(matches!(
            AnalysisCase::try_new(&cell, &line, -1.0e-15, ps(100.0)),
            Err(CeffError::InvalidCase(_))
        ));
        assert!(matches!(
            AnalysisCase::try_new(&cell, &line, f64::NAN, ps(100.0)),
            Err(CeffError::InvalidCase(_))
        ));
    }

    #[test]
    fn lumped_reduced_load_uses_single_ramp_and_full_capacitance() {
        let cell = synthetic_cell(75.0, 70.0);
        let load = ReducedLoad::lumped(pf(0.8)).unwrap();
        let modeler = DriverOutputModeler::new(fast_config());
        let model = modeler
            .model_reduced(&cell, &load, ps(100.0), ps(20.0))
            .unwrap();
        assert!(!model.is_two_ramp());
        // A lumped capacitor is never shielded: Ceff == C exactly.
        assert!((model.ceff1.ceff - pf(0.8)).abs() < 1e-18 * 1e3);
        assert_eq!(model.breakpoint, 1.0);
        assert!(!model.criteria.inductance_significant());
        assert!(model.delay() > 0.0 && model.slew() > 0.0);
        // Forcing the two-ramp variant on a line-less load is an invalid case.
        assert!(matches!(
            modeler.model_reduced_two_ramp(&cell, &load, ps(100.0), ps(20.0)),
            Err(CeffError::InvalidCase(_))
        ));
    }

    #[test]
    fn reduced_line_load_matches_case_path() {
        let cell = synthetic_cell(75.0, 70.0);
        let line = paper_line();
        let case = AnalysisCase::try_new(&cell, &line, ff(10.0), ps(100.0)).unwrap();
        let modeler = DriverOutputModeler::new(fast_config());
        let via_case = modeler.model(&case).unwrap();
        let load = case.reduce_load().unwrap();
        let via_reduced = modeler
            .model_reduced(&cell, &load, case.input_slew, case.input_delay)
            .unwrap();
        assert_eq!(via_case.waveform, via_reduced.waveform);
        assert_eq!(via_case.ceff1, via_reduced.ceff1);
        assert_eq!(via_case.ceff2, via_reduced.ceff2);
    }
}
