//! Waveform-parity tests: the sparse factor-once LTI path and the split-stamp
//! Newton kernels must reproduce the legacy full-reassembly kernel within
//! 1e-9 V on every node, for both integration methods, on the workloads the
//! paper's flow actually runs: an RLC ladder, a pi-load, and a MOSFET driver
//! stage.
//!
//! Every fixture also runs each kernel that can run it through
//! `TransientAnalysis::run_until`, watching first crossings, and checks the
//! early-stopped run against the full-window `run_with`: it must be a
//! bit-for-bit prefix that ends exactly at the last watched crossing, and
//! every first crossing must measure identically on both.

use rlc_numeric::interp::first_crossing;
use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::mna::MnaSystem;
use rlc_spice::prelude::*;
use rlc_spice::source::SourceWaveform;
use rlc_spice::testbench::{
    add_rlc_ladder, inverter_with_cap_load, inverter_with_rlc_line, pwl_source_with_rlc_line,
    InverterSpec, OutputTransition,
};

const PARITY_TOLERANCE_V: f64 = 1e-9;

const METHODS: [IntegrationMethod; 2] = [
    IntegrationMethod::Trapezoidal,
    IntegrationMethod::BackwardEuler,
];

/// A watched first crossing by node name: `(node, level, rising)`.
type Watch<'a> = (&'a str, f64, bool);

/// Every kernel that can run `ckt`: the sparse and dense factor-once paths
/// for a linear circuit, the split-stamp Newton for a MOSFET circuit, and
/// the legacy kernel for both.
fn kernels(ckt: &Circuit) -> &'static [KernelStrategy] {
    if MnaSystem::compile(ckt).is_linear() {
        &[
            KernelStrategy::Sparse,
            KernelStrategy::FactorOnce,
            KernelStrategy::LegacyFull,
        ]
    } else {
        &[KernelStrategy::SplitStamp, KernelStrategy::LegacyFull]
    }
}

fn options(
    time_step: f64,
    stop: f64,
    method: IntegrationMethod,
    strategy: KernelStrategy,
) -> TransientOptions {
    TransientOptions::try_new(time_step, stop)
        .unwrap()
        .with_method(method)
        .with_strategy(strategy)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `ckt` under `opts` through `run_with` and through `run_until`
/// watching `watch`, and checks the early-stopped run against the full
/// window:
/// - its times and the waveforms of `nodes` and of every watched node are a
///   `to_bits` prefix of the full run;
/// - every watched first crossing measures identically (`to_bits`, or absent
///   from both);
/// - it stops on the step of the last watched crossing — dropping its last
///   sample loses one — or runs the full window when a crossing never
///   happens.
fn assert_prefix(
    label: &str,
    ckt: &Circuit,
    nodes: &[&str],
    opts: &TransientOptions,
    watch: &[Watch],
) {
    let context = format!("{label} ({:?}, {:?})", opts.strategy, opts.method);
    let analysis = TransientAnalysis::new(opts.clone());
    let full = analysis.run(ckt).unwrap();
    let crossings: Vec<Crossing> = watch
        .iter()
        .map(|&(node, level, rising)| Crossing {
            node: ckt.find_node(node).unwrap(),
            level,
            rising,
        })
        .collect();
    let early = analysis
        .run_until(ckt, &mut TransientWorkspace::new(), &crossings)
        .unwrap();
    assert_eq!(early.strategy(), full.strategy(), "{context}");

    let len = early.num_points();
    assert!(len <= full.num_points(), "{context}: ran past the window");
    assert_eq!(bits(early.times()), bits(&full.times()[..len]), "{context}");
    for node in nodes.iter().chain(watch.iter().map(|w| &w.0)) {
        let (e, f) = (
            early.waveform_by_name(node).unwrap(),
            full.waveform_by_name(node).unwrap(),
        );
        assert_eq!(
            bits(e.values()),
            bits(&f.values()[..len]),
            "{context}: node {node} is not a prefix of the full window"
        );
    }

    let mut all_crossed = true;
    let mut lost_without_last_sample = false;
    for &(node, level, rising) in watch {
        let (e, f) = (
            early.waveform_by_name(node).unwrap(),
            full.waveform_by_name(node).unwrap(),
        );
        let measured = e.crossing_time(level, rising);
        assert_eq!(
            measured.map(f64::to_bits),
            f.crossing_time(level, rising).map(f64::to_bits),
            "{context}: crossing of {level} V on {node} moved"
        );
        all_crossed &= measured.is_some();
        lost_without_last_sample |=
            first_crossing(&e.times()[..len - 1], &e.values()[..len - 1], level, rising).is_none();
    }
    if all_crossed && !watch.is_empty() {
        assert!(
            lost_without_last_sample,
            "{context}: ran past the last watched crossing"
        );
    } else {
        assert_eq!(len, full.num_points(), "{context}: stopped early");
    }
}

/// Runs `ckt` under the legacy kernel and the automatic fast path and
/// asserts every listed node waveform matches within the parity tolerance.
/// Then checks `run_until` against `run_with` on every kernel that can run
/// the circuit ([`assert_prefix`]), watching the 10 %, 50 % and 90 % points
/// of each listed node's swing over the window.
fn assert_parity(label: &str, ckt: &Circuit, nodes: &[&str], time_step: f64, stop: f64) {
    for method in METHODS {
        let legacy =
            TransientAnalysis::new(options(time_step, stop, method, KernelStrategy::LegacyFull))
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
        let mut watch = Vec::new();
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
            let (v0, v1) = (a.values()[0], a.last_value());
            if (v1 - v0).abs() > 1e-3 {
                for fraction in [0.1, 0.5, 0.9] {
                    watch.push((*node, v0 + fraction * (v1 - v0), v1 > v0));
                }
            }
        }
        assert!(!watch.is_empty(), "{label}: no node switches");
        for &strategy in kernels(ckt) {
            let opts = options(time_step, stop, method, strategy);
            assert_prefix(label, ckt, nodes, &opts, &watch);
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

/// Checks `run_until` against `run_with` ([`assert_prefix`]) on all four
/// kernels — the split-stamp Newton runs a linear circuit through its
/// refactorizing branch — under both integration methods.
fn assert_prefix_everywhere(
    label: &str,
    ckt: &Circuit,
    time_step: f64,
    stop: f64,
    watch: &[Watch],
) {
    for method in METHODS {
        for strategy in [
            KernelStrategy::Sparse,
            KernelStrategy::FactorOnce,
            KernelStrategy::SplitStamp,
            KernelStrategy::LegacyFull,
        ] {
            let opts = options(time_step, stop, method, strategy);
            assert_prefix(label, ckt, &[], &opts, watch);
        }
    }
}

/// An RC ladder from a rising ramp source, every node starting at 0 V.
/// Returns the circuit and the name of its far end.
fn rc_ladder(sections: usize) -> (Circuit, String) {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(50.0)),
    );
    ckt.set_initial_condition(src, 0.0);
    let mut prev = src;
    for k in 0..sections {
        let n = ckt.node(&format!("n{k}"));
        ckt.add_resistor(format!("R{k}"), prev, n, 40.0);
        ckt.add_capacitor(format!("C{k}"), n, Circuit::GROUND, ff(60.0));
        ckt.set_initial_condition(n, 0.0);
        prev = n;
    }
    (ckt, format!("n{}", sections - 1))
}

/// An underdamped line rings: its far end crosses 90 % and falls back
/// below it. The run still stops at that first crossing.
#[test]
fn ringing_far_end_stops_at_its_first_90_percent_crossing() {
    let (ckt, nodes) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(1.8, 0.0, ps(20.0)),
        0.0,
        10.0,
        nh(5.0),
        pf(1.0),
        10,
        ff(10.0),
    );
    let far = ckt.node_name(nodes.far_end).to_string();
    let (time_step, stop) = (ps(0.5), ps(1200.0));
    // The fixture really rings back below 90 % after crossing it.
    let reference = TransientAnalysis::new(TransientOptions::try_new(time_step, stop).unwrap())
        .run(&ckt)
        .unwrap()
        .waveform(nodes.far_end);
    let t90 = reference.crossing_time(0.9 * 1.8, true).unwrap();
    assert!(reference
        .times()
        .iter()
        .zip(reference.values())
        .any(|(&t, &v)| t > t90 && v < 0.9 * 1.8));
    let watch = [0.1, 0.5, 0.9].map(|f| (far.as_str(), f * 1.8, true));
    assert_prefix_everywhere("ringing-far-end", &ckt, time_step, stop, &watch);
}

/// A trace that starts exactly on a watched level crosses it at its first
/// sample, so that crossing alone would end the run after one step.
#[test]
fn trace_starting_on_a_watched_level_crosses_at_its_first_sample() {
    let (ckt, far) = rc_ladder(5);
    let (time_step, stop) = (ps(0.5), ps(400.0));
    let reference = TransientAnalysis::new(TransientOptions::try_new(time_step, stop).unwrap())
        .run(&ckt)
        .unwrap()
        .waveform_by_name(&far)
        .unwrap();
    assert_eq!(reference.crossing_time(0.0, true), Some(0.0));
    assert_prefix_everywhere(
        "start-on-level",
        &ckt,
        time_step,
        stop,
        &[(&far, 0.0, true)],
    );
    assert_prefix_everywhere(
        "start-on-level",
        &ckt,
        time_step,
        stop,
        &[(&far, 0.0, true), (&far, 0.9, true)],
    );
}

/// A trace that starts above a rising level, dips below it and only then
/// rises through it: the rising crossing is the late one. A stop test that
/// asked `y >= level` would end the run after its first step.
#[test]
fn trace_starting_above_a_rising_level_stops_at_the_later_crossing() {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let node = ckt.node("node");
    ckt.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (ps(300.0), 0.0), (ps(400.0), 1.8)]),
    );
    ckt.add_resistor("R1", src, node, 100.0);
    ckt.add_capacitor("C1", node, Circuit::GROUND, pf(0.5));
    ckt.set_initial_condition(src, 0.0);
    ckt.set_initial_condition(node, 1.0);
    let (time_step, stop) = (ps(0.5), ps(800.0));
    let reference = TransientAnalysis::new(TransientOptions::try_new(time_step, stop).unwrap())
        .run(&ckt)
        .unwrap()
        .waveform(node);
    assert_eq!(reference.values()[0], 1.0);
    assert!(reference.crossing_time(0.5, true).unwrap() > ps(300.0));
    assert_prefix_everywhere(
        "dip-then-rise",
        &ckt,
        time_step,
        stop,
        &[("node", 0.5, true)],
    );
    assert_prefix_everywhere(
        "dip-then-rise",
        &ckt,
        time_step,
        stop,
        &[("node", 0.5, false), ("node", 0.5, true)],
    );
}

/// A watched crossing that never happens keeps the run going to the stop
/// time, where it equals the full window ([`assert_prefix`] checks both).
#[test]
fn crossing_that_never_happens_runs_the_full_window() {
    let (ckt, far) = rc_ladder(5);
    let watch = [(far.as_str(), 0.5 * 1.8, true), (far.as_str(), 5.0, true)];
    assert_prefix_everywhere("never-crosses", &ckt, ps(0.5), ps(400.0), &watch);
}
