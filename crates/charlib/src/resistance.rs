//! Driver on-resistance extraction.
//!
//! The paper models the breakpoint voltage with the transmission-line divider
//! `f = Z0 / (Z0 + Rs)` and obtains `Rs` "by a similar approach as adopted by
//! Thevenin models: we observe the delay between 50 % and 90 % points of the
//! output waveform and fit an exponential between these points". For a
//! first-order exponential charged through `Rs` into a capacitance `C`, the
//! 50 %→90 % delay is `Rs · C · ln 5`, so `Rs = Δt / (C ln 5)`.
//!
//! The paper also notes that using the *total* capacitance instead of the
//! effective capacitance changes neither the resistance nor the breakpoint
//! appreciably, so the extraction is a single simulation rather than an
//! iteration. The regression tests in this module check exactly that
//! insensitivity.

use rlc_numeric::units::ps;
use rlc_spice::testbench::{inverter_with_cap_load, InverterSpec, OutputTransition};
use rlc_spice::transient::{Crossing, TransientAnalysis, TransientOptions, TransientWorkspace};

use crate::CharlibError;

/// Extracted driver switch-resistance information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverResistance {
    /// Fitted on-resistance (ohms).
    pub resistance: f64,
    /// Load capacitance used for the fit (farads).
    pub load: f64,
    /// Measured 50 %→90 % delay (seconds).
    pub t50_to_t90: f64,
}

/// Extracts the driver on-resistance by simulating the inverter against a
/// lumped `load` capacitance and fitting an exponential between the 50 % and
/// 90 % output crossings.
///
/// # Errors
/// Propagates simulation errors; fails with a measurement error if the output
/// never reaches 90 % of the supply in the simulated window.
pub fn driver_on_resistance(
    spec: &InverterSpec,
    input_slew: f64,
    load: f64,
    transition: OutputTransition,
) -> Result<DriverResistance, CharlibError> {
    let mut workspace = TransientWorkspace::new();
    driver_on_resistance_with(spec, input_slew, load, transition, &mut workspace)
}

/// [`driver_on_resistance`] reusing a caller-owned simulation workspace.
///
/// # Errors
/// Propagates simulation errors; fails with a measurement error if the output
/// never reaches 90 % of the supply in the simulated window.
pub fn driver_on_resistance_with(
    spec: &InverterSpec,
    input_slew: f64,
    load: f64,
    transition: OutputTransition,
    workspace: &mut TransientWorkspace,
) -> Result<DriverResistance, CharlibError> {
    assert!(load > 0.0, "load capacitance must be positive");
    let input_delay = ps(20.0);
    let (ckt, nodes) = inverter_with_cap_load(spec, input_slew, input_delay, load, transition);

    let r_estimate = 3.0e-3 / spec.nmos_width;
    let window = input_delay + input_slew + 10.0 * r_estimate * load + ps(200.0);
    let time_step = ps(0.5);
    let steps = (window / time_step).ceil().max(50.0);

    let vdd = spec.vdd;
    let rising = matches!(transition, OutputTransition::Rising);
    // "90 % of the transition" is 0.9*VDD for a rising output but 0.1*VDD for
    // a falling one.
    let level_90 = if rising { 0.9 } else { 0.1 };
    // Only the two first crossings are read, so the run ends at the later
    // one; each level is computed exactly as the measurement below does.
    let watch = [0.5, level_90].map(|fraction| Crossing {
        node: nodes.output,
        level: fraction * vdd,
        rising,
    });
    let result = TransientAnalysis::new(TransientOptions::try_new(time_step, steps * time_step)?)
        .run_until(&ckt, workspace, &watch)?;
    let out = result.waveform(nodes.output);
    let t50 = out
        .crossing_fraction(0.5, vdd, rising)
        .ok_or_else(|| CharlibError::Measurement {
            what: "output 50% crossing".into(),
            input_slew,
            load,
        })?;
    let t90 = out
        .crossing_fraction(level_90, vdd, rising)
        .ok_or_else(|| CharlibError::Measurement {
            what: "output 90% crossing".into(),
            input_slew,
            load,
        })?;
    let dt = t90 - t50;
    // Exponential fit: going from 50 % to 90 % of the final value takes
    // R C ln(0.5 / 0.1) = R C ln 5.
    let resistance = dt / (load * 5.0f64.ln());
    Ok(DriverResistance {
        resistance,
        load,
        t50_to_t90: dt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_numeric::units::{ff, pf};

    #[test]
    fn resistance_is_in_the_expected_range_for_75x() {
        let spec = InverterSpec::sized_018(75.0);
        let r = driver_on_resistance(&spec, ps(100.0), pf(1.1), OutputTransition::Rising)
            .unwrap()
            .resistance;
        // The paper's 75X cases have line impedances of 65-80 ohms and show
        // initial steps slightly below half the supply, so Rs must be of the
        // same order as Z0.
        assert!(r > 30.0 && r < 140.0, "Rs(75X) = {r:.1} ohms");
    }

    #[test]
    fn resistance_scales_inversely_with_driver_size() {
        let r25 = driver_on_resistance(
            &InverterSpec::sized_018(25.0),
            ps(100.0),
            pf(1.0),
            OutputTransition::Rising,
        )
        .unwrap()
        .resistance;
        let r100 = driver_on_resistance(
            &InverterSpec::sized_018(100.0),
            ps(100.0),
            pf(1.0),
            OutputTransition::Rising,
        )
        .unwrap()
        .resistance;
        let ratio = r25 / r100;
        assert!(
            ratio > 2.5 && ratio < 6.0,
            "Rs should scale roughly 4x between 100X and 25X, got {ratio:.2}"
        );
    }

    #[test]
    fn resistance_is_insensitive_to_the_load_used_for_extraction() {
        // The paper's justification for using the total capacitance instead
        // of iterating with Ceff: the fitted Rs barely moves with the load.
        let spec = InverterSpec::sized_018(75.0);
        let r_small = driver_on_resistance(&spec, ps(100.0), ff(600.0), OutputTransition::Rising)
            .unwrap()
            .resistance;
        let r_large = driver_on_resistance(&spec, ps(100.0), pf(1.8), OutputTransition::Rising)
            .unwrap()
            .resistance;
        let spread = (r_small - r_large).abs() / r_large;
        assert!(
            spread < 0.35,
            "Rs varies too much with extraction load: {r_small:.1} vs {r_large:.1}"
        );
    }

    #[test]
    fn falling_transition_extraction_also_works() {
        let spec = InverterSpec::sized_018(75.0);
        let r = driver_on_resistance(&spec, ps(100.0), pf(1.0), OutputTransition::Falling)
            .unwrap()
            .resistance;
        assert!(r > 15.0 && r < 140.0, "Rs = {r:.1}");
    }
}
