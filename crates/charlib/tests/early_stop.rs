//! Characterization runs end at their last measured crossing
//! (`TransientAnalysis::run_until`). These tests pin that the measured
//! numbers are bit-identical to measuring the same testbench over its full
//! simulation window with `run_with`, across the coarse grid and both output
//! transitions — which is also why characterization caches written before
//! the early stop stay valid.

use rlc_charlib::characterize::{characterize_point_with, CharacterizationGrid};
use rlc_charlib::resistance::driver_on_resistance_with;
use rlc_numeric::units::ps;
use rlc_spice::testbench::{inverter_with_cap_load, InverterSpec, OutputTransition};
use rlc_spice::transient::{TransientAnalysis, TransientOptions, TransientWorkspace};
use rlc_spice::Waveform;

const TRANSITIONS: [OutputTransition; 2] = [OutputTransition::Rising, OutputTransition::Falling];

/// The characterization testbench (a 20 ps-delayed input ramp into the
/// inverter driving `load`) simulated over its full window: the ramp plus
/// `window_taus` output time constants plus 200 ps, the windows
/// `characterize_point` (8) and `driver_on_resistance` (10) size.
/// Returns the input and output waveforms.
fn full_window(
    spec: &InverterSpec,
    input_slew: f64,
    load: f64,
    time_step: f64,
    window_taus: f64,
    transition: OutputTransition,
    ws: &mut TransientWorkspace,
) -> (Waveform, Waveform) {
    let input_delay = ps(20.0);
    let (ckt, nodes) = inverter_with_cap_load(spec, input_slew, input_delay, load, transition);
    let r_estimate = 3.0e-3 / spec.nmos_width;
    let window = input_delay + input_slew + window_taus * r_estimate * load + ps(200.0);
    let steps = (window / time_step).ceil().max(50.0);
    let result =
        TransientAnalysis::new(TransientOptions::try_new(time_step, steps * time_step).unwrap())
            .run_with(&ckt, ws)
            .unwrap();
    (result.waveform(nodes.input), result.waveform(nodes.output))
}

#[test]
fn characterization_points_match_the_full_window_bit_for_bit() {
    let spec = InverterSpec::sized_018(75.0);
    let grid = CharacterizationGrid::coarse_for_tests();
    let vdd = spec.vdd;
    let mut ws = TransientWorkspace::new();
    for transition in TRANSITIONS {
        let rising = matches!(transition, OutputTransition::Rising);
        for &slew in &grid.slew_axis {
            for &load in &grid.load_axis {
                let point =
                    characterize_point_with(&spec, slew, load, grid.time_step, transition, &mut ws)
                        .unwrap();
                let (input, out) =
                    full_window(&spec, slew, load, grid.time_step, 8.0, transition, &mut ws);
                let t50_in = input.crossing_fraction(0.5, vdd, !rising).unwrap();
                let t50_out = out.crossing_fraction(0.5, vdd, rising).unwrap();
                let slew_out = out.slew_10_90(vdd, rising).unwrap();
                let at = format!("{transition:?}, slew {slew:e}, load {load:e}");
                assert_eq!(
                    point.delay.to_bits(),
                    (t50_out - t50_in).to_bits(),
                    "delay at {at}"
                );
                assert_eq!(
                    point.transition.to_bits(),
                    slew_out.to_bits(),
                    "transition at {at}"
                );
            }
        }
    }
}

#[test]
fn resistance_extraction_matches_the_full_window_bit_for_bit() {
    let spec = InverterSpec::sized_018(75.0);
    let grid = CharacterizationGrid::coarse_for_tests();
    let vdd = spec.vdd;
    let mut ws = TransientWorkspace::new();
    for transition in TRANSITIONS {
        let rising = matches!(transition, OutputTransition::Rising);
        let level_90 = if rising { 0.9 } else { 0.1 };
        for &slew in &grid.slew_axis {
            for &load in &grid.load_axis {
                let extracted =
                    driver_on_resistance_with(&spec, slew, load, transition, &mut ws).unwrap();
                let (_, out) = full_window(&spec, slew, load, ps(0.5), 10.0, transition, &mut ws);
                let t50 = out.crossing_fraction(0.5, vdd, rising).unwrap();
                let t90 = out.crossing_fraction(level_90, vdd, rising).unwrap();
                let dt = t90 - t50;
                let at = format!("{transition:?}, slew {slew:e}, load {load:e}");
                assert_eq!(
                    extracted.t50_to_t90.to_bits(),
                    dt.to_bits(),
                    "t50->t90 at {at}"
                );
                assert_eq!(
                    extracted.resistance.to_bits(),
                    (dt / (load * 5.0f64.ln())).to_bits(),
                    "resistance at {at}"
                );
            }
        }
    }
}
