//! Waveform-parity tests: the sparse factor-once LTI path and the split-stamp
//! Newton kernels must reproduce the legacy full-reassembly kernel within
//! 1e-9 V on every node, for both integration methods, on the workloads the
//! paper's flow actually runs: an RLC ladder, a pi-load, and a MOSFET driver
//! stage.

use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::prelude::*;
use rlc_spice::source::SourceWaveform;
use rlc_spice::testbench::{
    add_rlc_ladder, inverter_with_cap_load, inverter_with_rlc_line, pwl_source_with_rlc_line,
    InverterSpec, OutputTransition,
};

const PARITY_TOLERANCE_V: f64 = 1e-9;

/// Runs `ckt` under the legacy kernel and the automatic fast path and
/// asserts every listed node waveform matches within the parity tolerance.
fn assert_parity(label: &str, ckt: &Circuit, nodes: &[&str], time_step: f64, stop: f64) {
    for method in [
        IntegrationMethod::Trapezoidal,
        IntegrationMethod::BackwardEuler,
    ] {
        let legacy = TransientAnalysis::new(
            TransientOptions::try_new(time_step, stop)
                .unwrap()
                .with_method(method)
                .with_strategy(KernelStrategy::LegacyFull),
        )
        .run(ckt)
        .unwrap();
        let fast = TransientAnalysis::new(
            TransientOptions::try_new(time_step, stop)
                .unwrap()
                .with_method(method),
        )
        .run(ckt)
        .unwrap();
        assert_eq!(legacy.num_points(), fast.num_points());
        for node in nodes {
            let a = legacy.waveform_by_name(node).unwrap();
            let b = fast.waveform_by_name(node).unwrap();
            let mut max_dev: f64 = 0.0;
            for (x, y) in a.values().iter().zip(b.values()) {
                max_dev = max_dev.max((x - y).abs());
            }
            assert!(
                max_dev < PARITY_TOLERANCE_V,
                "{label} ({method:?}): node {node} deviates by {max_dev:.3e} V"
            );
        }
    }
}

/// Fig4-style RLC ladder driven by an ideal ramp: exercises the sparse
/// factor-once LTI kernel (matrix factorized once, RHS-only per step).
#[test]
fn lti_ladder_matches_legacy() {
    let (ckt, _) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
        0.0,
        72.44,
        nh(5.14),
        pf(1.10),
        20,
        ff(10.0),
    );
    assert_parity(
        "rlc-ladder",
        &ckt,
        &["out", "line_m10", "line_n19"],
        ps(0.5),
        ps(900.0),
    );
}

/// Pi-load (C1 — R — C2) driven by a ramp source: a second LTI topology with
/// a different matrix structure (no inductor branches).
#[test]
fn pi_load_matches_legacy() {
    let mut ckt = Circuit::new();
    let near = ckt.node("near");
    let far = ckt.node("far");
    ckt.add_vsource(
        "VDRV",
        near,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, ps(10.0), ps(120.0)),
    );
    ckt.add_capacitor("C1", near, Circuit::GROUND, ff(350.0));
    ckt.add_resistor("R1", near, far, 72.44);
    ckt.add_capacitor("C2", far, Circuit::GROUND, ff(350.0));
    ckt.set_initial_condition(near, 0.0);
    ckt.set_initial_condition(far, 0.0);
    assert_parity("pi-load", &ckt, &["near", "far"], ps(0.5), ps(800.0));
}

/// MOSFET driver stage (75X inverter into the paper's 5 mm line): exercises
/// the split-stamp Newton kernel with the Woodbury rank update.
#[test]
fn mosfet_driver_stage_matches_legacy() {
    let spec = InverterSpec::sized_018(75.0);
    let (ckt, _) = inverter_with_rlc_line(
        &spec,
        ps(100.0),
        ps(20.0),
        72.44,
        nh(5.14),
        pf(1.10),
        12,
        ff(10.0),
        OutputTransition::Rising,
    );
    assert_parity(
        "driver-stage",
        &ckt,
        &["in", "out", "vdd", "line_n11"],
        ps(0.5),
        ps(900.0),
    );
}

/// Characterization testbench (inverter into a lumped cap), including the
/// long settled tail where the predictor and eval caches do the most work.
#[test]
fn characterization_point_matches_legacy() {
    let spec = InverterSpec::sized_018(75.0);
    let (ckt, _) = inverter_with_cap_load(
        &spec,
        ps(100.0),
        ps(20.0),
        pf(2.0),
        OutputTransition::Rising,
    );
    assert_parity("char-point", &ckt, &["in", "out", "vdd"], ps(1.0), 2.2e-9);
}

/// A MOSFET-only interior node (no capacitors, gmin-floor diagonal) fails
/// the rank-update conditioning gate, so this exercises the refactorizing
/// split-stamp fallback against the legacy kernel.
#[test]
fn gmin_floor_stack_matches_legacy_via_refactor_fallback() {
    let mut params = rlc_spice::MosfetParams::nmos_018();
    params.c_gate_per_width = 0.0;
    params.c_junction_per_width = 0.0;

    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    let m = ckt.node("m");
    let g = ckt.node("g");
    ckt.add_vsource("VDD", a, Circuit::GROUND, SourceWaveform::dc(1.8));
    ckt.add_vsource(
        "VG",
        g,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, ps(20.0), ps(100.0)),
    );
    ckt.add_resistor("R1", a, d, 500.0);
    ckt.add_capacitor("C1", d, Circuit::GROUND, ff(100.0));
    // Two stacked zero-parasitic NMOS devices: the middle node "m" touches
    // only MOSFETs, so the static matrix has a gmin-only pivot there.
    ckt.add_mosfet("M1", d, g, m, params, 10e-6);
    ckt.add_mosfet("M2", m, g, Circuit::GROUND, params, 10e-6);
    ckt.set_initial_condition(a, 1.8);
    ckt.set_initial_condition(d, 1.8);
    assert_parity("gmin-stack", &ckt, &["d", "m"], ps(1.0), ps(400.0));
}

/// The explicit strategies agree with Auto resolution on their own turf:
/// `Sparse` for every linear circuit, `SplitStamp` for MOSFET circuits.
#[test]
fn explicit_strategies_match_auto() {
    let (lti, lti_nodes) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
        0.0,
        72.44,
        nh(5.14),
        pf(1.10),
        8,
        ff(10.0),
    );
    let auto = TransientAnalysis::new(TransientOptions::try_new(ps(1.0), ps(400.0)).unwrap())
        .run(&lti)
        .unwrap()
        .waveform(lti_nodes.far_end);
    let forced = TransientAnalysis::new(
        TransientOptions::try_new(ps(1.0), ps(400.0))
            .unwrap()
            .with_strategy(KernelStrategy::Sparse),
    )
    .run(&lti)
    .unwrap()
    .waveform(lti_nodes.far_end);
    assert_eq!(auto.values(), forced.values());

    let spec = InverterSpec::sized_018(25.0);
    let (stage, _) = inverter_with_cap_load(
        &spec,
        ps(100.0),
        ps(20.0),
        ff(200.0),
        OutputTransition::Rising,
    );
    let auto = TransientAnalysis::new(TransientOptions::try_new(ps(1.0), ps(400.0)).unwrap())
        .run(&stage)
        .unwrap()
        .waveform_by_name("out")
        .unwrap();
    let forced = TransientAnalysis::new(
        TransientOptions::try_new(ps(1.0), ps(400.0))
            .unwrap()
            .with_strategy(KernelStrategy::SplitStamp),
    )
    .run(&stage)
    .unwrap()
    .waveform_by_name("out")
    .unwrap();
    assert_eq!(auto.values(), forced.values());
}

/// `add_rlc_ladder` convenience smoke check for the parity harness itself:
/// the ladder names used above must exist.
#[test]
fn ladder_node_names_are_stable() {
    let mut ckt = Circuit::new();
    let near = ckt.node("out");
    ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
    let far = add_rlc_ladder(
        &mut ckt,
        near,
        10.0,
        nh(1.0),
        pf(0.1),
        3,
        ff(1.0),
        0.0,
        "line",
    );
    assert_eq!(ckt.node_name(far), "line_n2");
}
