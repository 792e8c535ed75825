//! The quiescent prefix of a linear run from rest. A far-end handoff drives
//! its line with a ramp placed at absolute path time, so its run starts with
//! steps on which the state and every source are exactly zero. The sparse
//! and dense factor-once kernels record those steps as zero rows without
//! solving them, and these tests pin that doing so changes nothing but the
//! sign of exact zeros:
//!
//! - every sample of every node voltage and source current, the number of
//!   points and the `run_until` stop indices are pinned by digest, with
//!   `-0.0` folded to `+0.0`; the constants were captured from kernels that
//!   solve every step;
//! - every run matches the legacy full-reassembly kernel within 1e-9 V;
//! - `TransientResult::quiescent_steps` counts exactly the steps before a
//!   source first leaves zero, and stays 0 when the state or a source starts
//!   nonzero, and for the nonlinear kernels.
//!
//! The fixtures are 1-, 5- and 40-segment ladders, a 3-sink tree and a
//! coupled bus, driven by ramps that leave zero between 0.1 and 1 ns, a
//! delayed pulse and a late current source.

use rlc_numeric::codec::{fnv1a, Encoder};
use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::elements::Element;
use rlc_spice::prelude::*;
use rlc_spice::testbench::{
    add_rlc_ladder, inverter_with_cap_load, pwl_source_with_rlc_line, InverterSpec,
    OutputTransition,
};
use rlc_spice::transient::InitialState;

const PARITY_TOLERANCE_V: f64 = 1e-9;
const VDD: f64 = 1.8;
const TIME_STEP: f64 = 2e-12;

const METHODS: [IntegrationMethod; 2] = [
    IntegrationMethod::Trapezoidal,
    IntegrationMethod::BackwardEuler,
];

/// The kernels that fast-forward a quiescent prefix.
const FAST_FORWARDING: [KernelStrategy; 2] = [KernelStrategy::Sparse, KernelStrategy::FactorOnce];

/// A pinned circuit: its name, the circuit, the node its stop test watches
/// and the simulated window.
struct Fixture {
    name: &'static str,
    ckt: Circuit,
    primary: NodeId,
    stop: f64,
}

/// The flagship 5 mm line at `segments` sections behind an ideal source, all
/// nodes starting at 0 V.
fn ladder(name: &'static str, source: SourceWaveform, segments: usize, stop: f64) -> Fixture {
    let (ckt, nodes) =
        pwl_source_with_rlc_line(source, 0.0, 72.44, nh(5.14), pf(1.10), segments, ff(10.0));
    Fixture {
        name,
        ckt,
        primary: nodes.far_end,
        stop,
    }
}

/// A trunk that splits twice into three sinks, driven by `source`.
fn tree(source: SourceWaveform) -> Fixture {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add_vsource("V1", src, Circuit::GROUND, source);
    ckt.set_initial_condition(src, 0.0);
    // Each branch starts at the end of the one `from` indexes (0 is the
    // source): the trunk, the middle run, then the three sinks.
    let mut ends = vec![src];
    for (name, from, r, l, c, pin) in [
        ("trunk", 0, 40.0, nh(2.0), pf(0.5), 0.0),
        ("mid", 1, 60.0, nh(1.5), pf(0.3), 0.0),
        ("sink0", 1, 80.0, nh(1.0), pf(0.25), ff(20.0)),
        ("sink1", 2, 90.0, nh(0.8), pf(0.2), ff(12.0)),
        ("sink2", 2, 90.0, nh(0.8), pf(0.2), ff(18.0)),
    ] {
        let end = add_rlc_ladder(&mut ckt, ends[from], r, l, c, 4, pin, 0.0, name);
        ends.push(end);
    }
    Fixture {
        name: "tree-3sink",
        ckt,
        primary: ends[3],
        stop: ps(1100.0),
    }
}

/// A victim and an aggressor line coupled by per-segment capacitors and
/// mutual inductances; the aggressor switches first.
fn coupled_bus() -> Fixture {
    let segments = 8;
    let mut ckt = Circuit::new();
    let mut far = Vec::new();
    for (name, delay, rise) in [("vic", 300.0, 100.0), ("agg", 150.0, 80.0)] {
        let driver = ckt.node(&format!("{name}_drv"));
        let ramp = SourceWaveform::rising_ramp(VDD, ps(delay), ps(rise));
        ckt.add_vsource(format!("V_{name}"), driver, Circuit::GROUND, ramp);
        ckt.set_initial_condition(driver, 0.0);
        let (r, l, c) = (72.44, nh(5.14), pf(1.10));
        far.push(add_rlc_ladder(
            &mut ckt,
            driver,
            r,
            l,
            c,
            segments,
            ff(10.0),
            0.0,
            name,
        ));
    }
    for k in 0..segments {
        let victim = ckt.node(&format!("vic_n{k}"));
        let aggressor = ckt.node(&format!("agg_n{k}"));
        let per_segment = 1.0 / segments as f64;
        ckt.add_capacitor(format!("CC{k}"), victim, aggressor, pf(0.4) * per_segment);
        ckt.add_mutual_inductance(
            format!("K{k}"),
            format!("vic_L{k}"),
            format!("agg_L{k}"),
            nh(5.14) * 0.3 * per_segment,
        );
    }
    Fixture {
        name: "coupled-bus",
        ckt,
        primary: far[0],
        stop: ps(800.0),
    }
}

/// A 40-segment ladder held at 0 V by its source and charged from the far
/// end by a current source that turns on at 0.6 ns.
fn late_current_source() -> Fixture {
    let mut fixture = ladder(
        "ladder40-late-isource",
        SourceWaveform::dc(0.0),
        40,
        ps(1100.0),
    );
    fixture.ckt.add_isource(
        "IL",
        Circuit::GROUND,
        fixture.primary,
        SourceWaveform::rising_ramp(30e-3, ps(600.0), ps(100.0)),
    );
    fixture
}

/// Every pinned fixture, each of which starts at rest.
fn fixtures() -> Vec<Fixture> {
    vec![
        ladder(
            "ladder1-ramp-0.1ns",
            SourceWaveform::rising_ramp(VDD, ps(100.0), ps(60.0)),
            1,
            ps(500.0),
        ),
        ladder(
            "ladder5-ramp-0.37ns",
            SourceWaveform::rising_ramp(VDD, ps(370.0), ps(100.0)),
            5,
            ps(800.0),
        ),
        ladder(
            "ladder40-ramp-1ns",
            SourceWaveform::rising_ramp(VDD, ps(1000.0), ps(100.0)),
            40,
            ps(1400.0),
        ),
        ladder(
            "ladder5-pulse-0.25ns",
            SourceWaveform::Pulse {
                initial: 0.0,
                pulsed: VDD,
                delay: ps(250.0),
                rise: ps(50.0),
                fall: ps(50.0),
                width: ps(300.0),
                period: ps(1000.0),
            },
            5,
            ps(1000.0),
        ),
        late_current_source(),
        tree(SourceWaveform::rising_ramp(VDD, ps(550.0), ps(100.0))),
        coupled_bus(),
    ]
}

fn options(method: IntegrationMethod, strategy: KernelStrategy, stop: f64) -> TransientOptions {
    TransientOptions::try_new(TIME_STEP, stop)
        .unwrap()
        .with_method(method)
        .with_strategy(strategy)
}

/// Bit pattern of a sample with `-0.0` folded to `+0.0`.
fn folded_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else {
        v.to_bits()
    }
}

fn node_waveforms(ckt: &Circuit, res: &TransientResult) -> Vec<Waveform> {
    (1..ckt.num_nodes())
        .map(|k| res.waveform(NodeId::from_index(k)))
        .collect()
}

fn vsource_currents(ckt: &Circuit, res: &TransientResult) -> Vec<Waveform> {
    ckt.elements()
        .iter()
        .filter_map(|e| match e {
            Element::VoltageSource { name, .. } => res.vsource_current(name),
            _ => None,
        })
        .collect()
}

/// Runs `fixture` through `run_until`, watching its primary node at
/// `levels`, and returns the index of the last step it simulated.
fn stop_index(fixture: &Fixture, opts: &TransientOptions, levels: &[f64]) -> usize {
    let watch: Vec<Crossing> = levels
        .iter()
        .map(|&level| Crossing {
            node: fixture.primary,
            level,
            rising: true,
        })
        .collect();
    let res = TransientAnalysis::new(opts.clone())
        .run_until(&fixture.ckt, &mut TransientWorkspace::new(), &watch)
        .unwrap();
    res.num_points() - 1
}

/// The watched levels: the 10/50/90 % points of the swing, and 0 V, which a
/// trace resting at 0 V crosses on its first step.
const RAMP_LEVELS: [f64; 3] = [0.1 * VDD, 0.5 * VDD, 0.9 * VDD];
const ZERO_LEVEL: [f64; 1] = [0.0];

/// Appends a full-window run to a fixture's digest: its point count, its
/// times, every node-voltage and source-current sample, and the two
/// `run_until` stop indices.
fn digest_run(e: &mut Encoder, fixture: &Fixture, opts: &TransientOptions, full: &TransientResult) {
    e.u64(full.num_points() as u64);
    for t in full.times() {
        e.u64(t.to_bits());
    }
    let waves = node_waveforms(&fixture.ckt, full);
    for w in waves.iter().chain(&vsource_currents(&fixture.ckt, full)) {
        for &v in w.values() {
            e.u64(folded_bits(v));
        }
    }
    e.u64(stop_index(fixture, opts, &RAMP_LEVELS) as u64);
    e.u64(stop_index(fixture, opts, &ZERO_LEVEL) as u64);
}

/// Asserts every node voltage of `run` within the parity tolerance of the
/// legacy run; a NaN deviation fails.
fn assert_matches_legacy(
    label: &str,
    ckt: &Circuit,
    run: &TransientResult,
    legacy: &TransientResult,
) {
    assert_eq!(run.num_points(), legacy.num_points(), "{label}");
    for (k, (a, b)) in node_waveforms(ckt, run)
        .iter()
        .zip(node_waveforms(ckt, legacy))
        .enumerate()
    {
        let dev = a
            .values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| (x - y).abs())
            .fold(
                0.0,
                |worst: f64, d| if d > worst || d.is_nan() { d } else { worst },
            );
        assert!(
            dev < PARITY_TOLERANCE_V,
            "{label}: node {} deviates from the legacy kernel by {dev:.3e} V",
            ckt.node_name(NodeId::from_index(k + 1))
        );
    }
}

/// Digest of every fixture's runs (both methods, both fast-forwarding
/// kernels), captured from kernels that solve every step.
const PINS: [(&str, u64); 7] = [
    ("ladder1-ramp-0.1ns", 0xcb9b7311a366611a),
    ("ladder5-ramp-0.37ns", 0xcbdad446fac6bbcb),
    ("ladder40-ramp-1ns", 0x4d327a3cb2ff949f),
    ("ladder5-pulse-0.25ns", 0x707926725127a455),
    ("ladder40-late-isource", 0x74df9e844ff415ed),
    ("tree-3sink", 0x781b45f1abb95a57),
    ("coupled-bus", 0x6f2ff7ddea1b3b47),
];

#[test]
fn runs_from_rest_are_pinned_and_match_the_legacy_kernel() {
    let mut measured = Vec::new();
    for fixture in fixtures() {
        let mut e = Encoder::new();
        for method in METHODS {
            let legacy =
                TransientAnalysis::new(options(method, KernelStrategy::LegacyFull, fixture.stop))
                    .run(&fixture.ckt)
                    .unwrap();
            for strategy in FAST_FORWARDING {
                let label = format!("{} {method:?} {strategy:?}", fixture.name);
                let opts = options(method, strategy, fixture.stop);
                let full = TransientAnalysis::new(opts.clone())
                    .run(&fixture.ckt)
                    .unwrap();
                assert_eq!(full.strategy(), strategy, "{label}");
                assert_matches_legacy(&label, &fixture.ckt, &full, &legacy);
                digest_run(&mut e, &fixture, &opts, &full);
            }
        }
        measured.push((fixture.name, fnv1a(&e.finish())));
    }
    let report: String = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(measured, PINS, "digests moved; measured:\n{report}");
}

// The fast-forward rule itself, observed through
// `TransientResult::quiescent_steps`.

/// Number of leading steps `k ≥ 1` of the window on which every source of
/// `ckt` is exactly zero at `t = k·h`.
fn steps_before_a_source_leaves_zero(ckt: &Circuit, stop: f64) -> usize {
    let sources: Vec<&SourceWaveform> =
        ckt.elements()
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { waveform, .. }
                | Element::CurrentSource { waveform, .. } => Some(waveform),
                _ => None,
            })
            .collect();
    let n_steps = (stop / TIME_STEP).round() as usize;
    (1..=n_steps)
        .take_while(|&k| {
            sources
                .iter()
                .all(|s| s.value_at(k as f64 * TIME_STEP) == 0.0)
        })
        .count()
}

/// When each fixture's first source leaves zero.
const FIRST_EDGES: [f64; 7] = [
    100e-12, 370e-12, 1000e-12, 250e-12, 600e-12, 550e-12, 150e-12,
];

#[test]
fn quiescent_steps_count_the_steps_before_a_source_leaves_zero() {
    for (fixture, edge) in fixtures().into_iter().zip(FIRST_EDGES) {
        let quiet = steps_before_a_source_leaves_zero(&fixture.ckt, fixture.stop);
        assert!(
            (quiet as f64 - edge / TIME_STEP).abs() <= 1.0,
            "{}: {quiet} quiet steps for an edge at {edge:e} s",
            fixture.name
        );
        for method in METHODS {
            for strategy in [
                KernelStrategy::Auto,
                KernelStrategy::Sparse,
                KernelStrategy::FactorOnce,
            ] {
                let label = format!("{} {method:?} {strategy:?}", fixture.name);
                let opts = options(method, strategy, fixture.stop);
                let analysis = TransientAnalysis::new(opts.clone());
                assert_eq!(
                    analysis.run(&fixture.ckt).unwrap().quiescent_steps(),
                    quiet,
                    "{label}"
                );
                // Run from a DC operating point instead of the initial
                // conditions: the sources are zero at t = 0, so the start is
                // exactly zero as well.
                let from_dc = TransientAnalysis::new(
                    opts.clone()
                        .with_initial_state(InitialState::DcOperatingPoint),
                )
                .run(&fixture.ckt)
                .unwrap();
                assert_eq!(from_dc.quiescent_steps(), quiet, "{label} from DC");
                // The stop test sees the prefix rows: the ramp watches cross
                // after it, and a 0 V watch crosses on its first step.
                let mut ws = TransientWorkspace::new();
                let ramp_watch: Vec<Crossing> = RAMP_LEVELS
                    .iter()
                    .map(|&level| Crossing {
                        node: fixture.primary,
                        level,
                        rising: true,
                    })
                    .collect();
                let early = analysis
                    .run_until(&fixture.ckt, &mut ws, &ramp_watch)
                    .unwrap();
                assert!(early.num_points() > quiet + 1, "{label}");
                assert_eq!(early.quiescent_steps(), quiet, "{label}");
                let zero_watch = [Crossing {
                    node: fixture.primary,
                    level: 0.0,
                    rising: true,
                }];
                let first = analysis
                    .run_until(&fixture.ckt, &mut ws, &zero_watch)
                    .unwrap();
                assert_eq!(first.num_points(), 2, "{label}");
                assert_eq!(first.quiescent_steps(), 1, "{label}");
            }
            // The legacy kernel solves every step.
            let legacy =
                TransientAnalysis::new(options(method, KernelStrategy::LegacyFull, fixture.stop))
                    .run(&fixture.ckt)
                    .unwrap();
            assert_eq!(legacy.quiescent_steps(), 0, "{} {method:?}", fixture.name);
        }
    }
}

#[test]
fn the_degrade_to_dense_path_fast_forwards_too() {
    // A floating node carries only the gmin stamp, so the sparse pivot
    // health gate hands the run to dense factor-once.
    let mut fixture = ladder(
        "ladder40-floating",
        SourceWaveform::rising_ramp(VDD, ps(400.0), ps(100.0)),
        40,
        ps(700.0),
    );
    fixture.ckt.node("floating");
    let quiet = steps_before_a_source_leaves_zero(&fixture.ckt, fixture.stop);
    for method in METHODS {
        let res = TransientAnalysis::new(options(method, KernelStrategy::Sparse, fixture.stop))
            .run(&fixture.ckt)
            .unwrap();
        assert!(res.degraded_to_dense(), "{method:?}");
        assert_eq!(res.strategy(), KernelStrategy::FactorOnce);
        assert_eq!(res.quiescent_steps(), quiet, "{method:?}");
        let legacy =
            TransientAnalysis::new(options(method, KernelStrategy::LegacyFull, fixture.stop))
                .run(&fixture.ckt)
                .unwrap();
        assert_matches_legacy(&format!("{method:?}"), &fixture.ckt, &res, &legacy);
    }
}

#[test]
fn runs_not_at_rest_solve_every_step() {
    // A nonzero initial condition.
    let mut nonzero_ic = ladder(
        "nonzero-ic",
        SourceWaveform::rising_ramp(VDD, ps(370.0), ps(100.0)),
        5,
        ps(800.0),
    );
    nonzero_ic
        .ckt
        .set_initial_condition(nonzero_ic.primary, 0.2);
    // A source with a DC offset under its late edge.
    let offset = ladder(
        "dc-offset",
        SourceWaveform::pwl(vec![(0.0, 0.1), (ps(370.0), 0.1), (ps(470.0), VDD)]),
        5,
        ps(800.0),
    );
    // A source already moving on step 1.
    let live = ladder(
        "live-at-step-1",
        SourceWaveform::rising_ramp(VDD, 0.0, ps(100.0)),
        5,
        ps(800.0),
    );
    for fixture in [nonzero_ic, offset, live] {
        for method in METHODS {
            for strategy in FAST_FORWARDING {
                let res = TransientAnalysis::new(options(method, strategy, fixture.stop))
                    .run(&fixture.ckt)
                    .unwrap();
                assert_eq!(
                    res.quiescent_steps(),
                    0,
                    "{} {method:?} {strategy:?}",
                    fixture.name
                );
            }
        }
    }
}

#[test]
fn mosfet_circuits_solve_every_step() {
    // An NMOS pulling down a capacitor, at rest with every source at 0 V
    // until 200 ps: a linear kernel would skip those steps, the nonlinear
    // ones may not.
    let mut at_rest = Circuit::new();
    let supply = at_rest.node("supply");
    let gate = at_rest.node("gate");
    let drain = at_rest.node("drain");
    at_rest.add_vsource(
        "VS",
        supply,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(200.0), ps(50.0)),
    );
    at_rest.add_vsource(
        "VG",
        gate,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(300.0), ps(50.0)),
    );
    at_rest.add_resistor("RL", supply, drain, 2000.0);
    at_rest.add_capacitor("CL", drain, Circuit::GROUND, ff(50.0));
    at_rest.add_mosfet(
        "MN",
        drain,
        gate,
        Circuit::GROUND,
        MosfetParams::nmos_018(),
        2e-6,
    );
    for node in [supply, gate, drain] {
        at_rest.set_initial_condition(node, 0.0);
    }
    assert!(steps_before_a_source_leaves_zero(&at_rest, ps(500.0)) > 0);

    let (inverter, _) = inverter_with_cap_load(
        &InverterSpec::sized_018(25.0),
        ps(100.0),
        ps(20.0),
        ff(200.0),
        OutputTransition::Rising,
    );
    for ckt in [&at_rest, &inverter] {
        for method in METHODS {
            for strategy in [
                KernelStrategy::Auto,
                KernelStrategy::SplitStamp,
                KernelStrategy::LegacyFull,
            ] {
                let res = TransientAnalysis::new(options(method, strategy, ps(500.0)))
                    .run(ckt)
                    .unwrap();
                assert_eq!(res.quiescent_steps(), 0, "{method:?} {strategy:?}");
            }
        }
    }
}
