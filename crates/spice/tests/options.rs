//! Option fields are public, so a run checks them itself instead of trusting
//! `TransientOptions::try_new`. A NaN or negative Newton step limit used to
//! panic in the damped update's clamp, and a time step set to NaN after
//! construction used to return a one-point result; both are typed errors,
//! for the transient, the variation sweep and the DC operating point.

use rlc_numeric::units::{ff, pf, ps};
use rlc_spice::prelude::*;
use rlc_spice::testbench::{inverter_with_cap_load, InverterSpec, OutputTransition};

fn is_invalid_options<T>(result: Result<T, SpiceError>) -> bool {
    matches!(result, Err(SpiceError::InvalidOptions(_)))
}

#[test]
fn runs_reject_options_spoiled_after_construction() {
    let (inverter, _) = inverter_with_cap_load(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        pf(1.0),
        OutputTransition::Rising,
    );
    let mut rc = Circuit::new();
    let (src, out) = (rc.node("src"), rc.node("out"));
    rc.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(50.0)),
    );
    rc.add_resistor("R1", src, out, 100.0);
    rc.add_capacitor("C1", out, Circuit::GROUND, ff(100.0));

    let defaults = TransientOptions::try_new(ps(0.5), ps(200.0)).unwrap();
    for spoiled in [
        TransientOptions {
            step_limit: f64::NAN,
            ..defaults.clone()
        },
        TransientOptions {
            step_limit: -0.5,
            ..defaults.clone()
        },
        TransientOptions {
            time_step: f64::NAN,
            ..defaults.clone()
        },
    ] {
        let label = format!("{spoiled:?}");
        assert!(
            is_invalid_options(TransientAnalysis::new(spoiled.clone()).run(&inverter)),
            "{label}"
        );
        let sweep = VariationSweep::new(spoiled).run(&rc, &[out], &[VariationSpec::nominal()]);
        assert!(is_invalid_options(sweep), "{label}");
    }
    let res = TransientAnalysis::new(defaults.clone())
        .run(&inverter)
        .unwrap();
    assert_eq!(res.num_points(), 401);
    let sweep = VariationSweep::new(defaults)
        .run(&rc, &[out], &[VariationSpec::nominal()])
        .unwrap();
    assert_eq!(sweep.times().len(), 401);
}

#[test]
fn dc_operating_point_rejects_invalid_options() {
    let (inverter, nodes) = inverter_with_cap_load(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        pf(1.0),
        OutputTransition::Rising,
    );
    for options in [
        DcOptions {
            step_limit: -1.0,
            ..DcOptions::default()
        },
        DcOptions {
            step_limit: f64::NAN,
            ..DcOptions::default()
        },
        DcOptions {
            voltage_tolerance: 0.0,
            ..DcOptions::default()
        },
        DcOptions {
            max_iterations: 0,
            ..DcOptions::default()
        },
    ] {
        assert!(
            is_invalid_options(dc_operating_point(&inverter, options)),
            "{options:?}"
        );
    }
    // A rising output starts low.
    let sol = dc_operating_point(&inverter, DcOptions::default()).unwrap();
    assert!(
        sol.voltage(nodes.output) < 0.1,
        "{}",
        sol.voltage(nodes.output)
    );
}
