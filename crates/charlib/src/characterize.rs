//! Library characterization: sweep input transition × load capacitance,
//! simulate the inverter with `rlc-spice`, and record delay / output
//! transition into a [`TimingTable`].

use rlc_numeric::units::{ff, pf, ps};
use rlc_spice::testbench::{inverter_with_cap_load, InverterSpec, OutputTransition};
use rlc_spice::transient::{Crossing, TransientAnalysis, TransientOptions, TransientWorkspace};

use crate::table::TimingTable;
use crate::CharlibError;

/// Characterization grid and simulation controls.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationGrid {
    /// Input transition times (seconds), strictly increasing.
    pub slew_axis: Vec<f64>,
    /// Load capacitances (farads), strictly increasing.
    pub load_axis: Vec<f64>,
    /// Transient time step (seconds).
    pub time_step: f64,
    /// Which output transition to characterize. The paper's experiments drive
    /// rising output transitions; falling characterization is provided for
    /// completeness.
    pub transition: OutputTransition,
}

impl Default for CharacterizationGrid {
    /// The default grid covers the paper's sweep: input slews 50–200 ps and
    /// loads from a few fF to 2.5 pF (the largest total line capacitance in
    /// Table 1 is 1.8 pF).
    fn default() -> Self {
        CharacterizationGrid {
            slew_axis: vec![
                ps(25.0),
                ps(50.0),
                ps(75.0),
                ps(100.0),
                ps(150.0),
                ps(200.0),
                ps(300.0),
            ],
            load_axis: vec![
                ff(10.0),
                ff(50.0),
                ff(100.0),
                ff(200.0),
                ff(400.0),
                ff(800.0),
                pf(1.5),
                pf(2.5),
            ],
            time_step: ps(0.5),
            transition: OutputTransition::Rising,
        }
    }
}

impl CharacterizationGrid {
    /// A coarse grid for unit tests (3 × 4 points, larger time step) so the
    /// full characterization stays fast in debug builds.
    pub fn coarse_for_tests() -> Self {
        CharacterizationGrid {
            slew_axis: vec![ps(50.0), ps(100.0), ps(200.0)],
            load_axis: vec![ff(50.0), ff(200.0), ff(800.0), pf(2.0)],
            time_step: ps(1.0),
            transition: OutputTransition::Rising,
        }
    }

    /// Validates the grid.
    ///
    /// # Errors
    /// Returns [`CharlibError::InvalidGrid`] when an axis has fewer than two
    /// points, is not strictly increasing, or contains non-positive values,
    /// or when the time step is not positive.
    pub fn validate(&self) -> Result<(), CharlibError> {
        for (name, axis) in [("slew", &self.slew_axis), ("load", &self.load_axis)] {
            if axis.len() < 2 {
                return Err(CharlibError::InvalidGrid(format!(
                    "{name} axis needs at least two points"
                )));
            }
            if axis[0] <= 0.0 {
                return Err(CharlibError::InvalidGrid(format!(
                    "{name} axis must be positive"
                )));
            }
            for w in axis.windows(2) {
                if w[1] <= w[0] {
                    return Err(CharlibError::InvalidGrid(format!(
                        "{name} axis must be strictly increasing"
                    )));
                }
            }
        }
        if self.time_step <= 0.0 {
            return Err(CharlibError::InvalidGrid(
                "time step must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// One characterized point: the measured delay and output transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizedPoint {
    /// 50 % input to 50 % output delay (seconds).
    pub delay: f64,
    /// 10–90 % output transition time (seconds).
    pub transition: f64,
}

/// Simulates one characterization point: the inverter driving `load` farads
/// with an input ramp of `input_slew` seconds.
///
/// # Errors
/// Propagates simulation failures and reports missing waveform crossings.
pub fn characterize_point(
    spec: &InverterSpec,
    input_slew: f64,
    load: f64,
    time_step: f64,
    transition: OutputTransition,
) -> Result<CharacterizedPoint, CharlibError> {
    let mut workspace = TransientWorkspace::new();
    characterize_point_with(
        spec,
        input_slew,
        load,
        time_step,
        transition,
        &mut workspace,
    )
}

/// [`characterize_point`] reusing a caller-owned simulation workspace, so a
/// grid of points shares one set of kernel buffers instead of reallocating
/// them per simulation.
///
/// # Errors
/// Propagates simulation failures and reports missing waveform crossings.
pub fn characterize_point_with(
    spec: &InverterSpec,
    input_slew: f64,
    load: f64,
    time_step: f64,
    transition: OutputTransition,
    workspace: &mut TransientWorkspace,
) -> Result<CharacterizedPoint, CharlibError> {
    let input_delay = ps(20.0);
    let (ckt, nodes) = inverter_with_cap_load(spec, input_slew, input_delay, load, transition);

    // Simulation window: the input ramp plus a generous multiple of the
    // output time constant (driver resistance falls with size; 3 kΩ·µm /
    // width is a conservative upper bound for the calibrated devices).
    let r_estimate = 3.0e-3 / spec.nmos_width; // ohms
    let window = input_delay + input_slew + 8.0 * r_estimate * load + ps(200.0);
    let steps = (window / time_step).ceil().max(50.0);
    let opts = TransientOptions::try_new(time_step, steps * time_step)?;

    // The point reads only first crossings, so the run ends at the last of
    // them; each level is computed exactly as the measurement below does.
    let vdd = spec.vdd;
    let rising = matches!(transition, OutputTransition::Rising);
    let watch = [
        (nodes.input, 0.5, !rising),
        (nodes.output, 0.1, rising),
        (nodes.output, 0.5, rising),
        (nodes.output, 0.9, rising),
    ]
    .map(|(node, fraction, rising)| Crossing {
        node,
        level: fraction * vdd,
        rising,
    });
    let result = TransientAnalysis::new(opts).run_until(&ckt, workspace, &watch)?;
    let out = result.waveform(nodes.output);
    let input = result.waveform(nodes.input);

    let t50_in =
        input
            .crossing_fraction(0.5, vdd, !rising)
            .ok_or_else(|| CharlibError::Measurement {
                what: "input 50% crossing".into(),
                input_slew,
                load,
            })?;
    let t50_out =
        out.crossing_fraction(0.5, vdd, rising)
            .ok_or_else(|| CharlibError::Measurement {
                what: "output 50% crossing".into(),
                input_slew,
                load,
            })?;
    let slew_out = out
        .slew_10_90(vdd, rising)
        .ok_or_else(|| CharlibError::Measurement {
            what: "output 10-90% transition".into(),
            input_slew,
            load,
        })?;

    Ok(CharacterizedPoint {
        delay: t50_out - t50_in,
        transition: slew_out,
    })
}

/// Characterizes an inverter over a full grid.
///
/// # Errors
/// Fails if the grid is invalid or any point fails to simulate or measure.
pub fn characterize_inverter(
    spec: &InverterSpec,
    grid: &CharacterizationGrid,
) -> Result<TimingTable, CharlibError> {
    let mut workspace = TransientWorkspace::new();
    characterize_inverter_with(spec, grid, &mut workspace)
}

/// [`characterize_inverter`] reusing a caller-owned simulation workspace:
/// every grid point (tens of transient runs per cell) shares one set of
/// kernel buffers.
///
/// # Errors
/// Fails if the grid is invalid or any point fails to simulate or measure.
pub fn characterize_inverter_with(
    spec: &InverterSpec,
    grid: &CharacterizationGrid,
    workspace: &mut TransientWorkspace,
) -> Result<TimingTable, CharlibError> {
    grid.validate()?;
    let mut delay = Vec::with_capacity(grid.slew_axis.len());
    let mut transition = Vec::with_capacity(grid.slew_axis.len());
    for &slew in &grid.slew_axis {
        let mut drow = Vec::with_capacity(grid.load_axis.len());
        let mut trow = Vec::with_capacity(grid.load_axis.len());
        for &load in &grid.load_axis {
            let point = characterize_point_with(
                spec,
                slew,
                load,
                grid.time_step,
                grid.transition,
                workspace,
            )?;
            drow.push(point.delay);
            trow.push(point.transition);
        }
        delay.push(drow);
        transition.push(trow);
    }
    Ok(TimingTable::new(
        grid.slew_axis.clone(),
        grid.load_axis.clone(),
        delay,
        transition,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_validation_catches_mistakes() {
        let mut g = CharacterizationGrid::coarse_for_tests();
        assert!(g.validate().is_ok());
        g.slew_axis = vec![ps(50.0)];
        assert!(matches!(g.validate(), Err(CharlibError::InvalidGrid(_))));
        let mut g = CharacterizationGrid::coarse_for_tests();
        g.load_axis[0] = -ff(1.0);
        assert!(g.validate().is_err());
        let mut g = CharacterizationGrid::coarse_for_tests();
        g.time_step = 0.0;
        assert!(g.validate().is_err());
        let mut g = CharacterizationGrid::coarse_for_tests();
        g.load_axis = vec![ff(100.0), ff(50.0)];
        assert!(g.validate().is_err());
    }

    #[test]
    fn single_point_measures_sane_values() {
        let spec = InverterSpec::sized_018(75.0);
        let p = characterize_point(
            &spec,
            ps(100.0),
            ff(500.0),
            ps(1.0),
            OutputTransition::Rising,
        )
        .unwrap();
        // A 75X inverter driving 500 fF: delay of tens of ps, transition
        // below a nanosecond.
        assert!(
            p.delay > ps(5.0) && p.delay < ps(200.0),
            "delay {:.1e}",
            p.delay
        );
        assert!(
            p.transition > ps(10.0) && p.transition < ps(600.0),
            "transition {:.1e}",
            p.transition
        );
    }

    #[test]
    fn delay_and_transition_grow_with_load() {
        let spec = InverterSpec::sized_018(50.0);
        let small = characterize_point(
            &spec,
            ps(100.0),
            ff(100.0),
            ps(1.0),
            OutputTransition::Rising,
        )
        .unwrap();
        let large = characterize_point(
            &spec,
            ps(100.0),
            ff(1000.0),
            ps(1.0),
            OutputTransition::Rising,
        )
        .unwrap();
        assert!(large.delay > small.delay);
        assert!(large.transition > 2.0 * small.transition);
    }

    #[test]
    fn bigger_drivers_are_faster() {
        let small_drv = InverterSpec::sized_018(25.0);
        let big_drv = InverterSpec::sized_018(125.0);
        let load = ff(800.0);
        let slow = characterize_point(
            &small_drv,
            ps(100.0),
            load,
            ps(1.0),
            OutputTransition::Rising,
        )
        .unwrap();
        let fast = characterize_point(&big_drv, ps(100.0), load, ps(1.0), OutputTransition::Rising)
            .unwrap();
        assert!(fast.delay < slow.delay);
        assert!(fast.transition < slow.transition);
    }

    #[test]
    fn full_coarse_grid_characterization_is_monotone_in_load() {
        let spec = InverterSpec::sized_018(75.0);
        let table =
            characterize_inverter(&spec, &CharacterizationGrid::coarse_for_tests()).unwrap();
        let slew = ps(100.0);
        let mut prev = 0.0;
        for &load in table.load_axis() {
            let t = table.transition(slew, load);
            assert!(t > prev, "transition must grow with load");
            prev = t;
        }
    }
}
