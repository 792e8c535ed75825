//! Bit pins of the transient kernels and the DC Newton loop. `kernel_parity`
//! compares the fast kernels with the legacy reference within 1e-9 V, which
//! a reordered floating-point sum would still pass; these digests pin every
//! sample bit for bit (`-0.0` folded to `+0.0`), so a kernel rewrite that
//! changes a single rounding fails here.
//!
//! Per fixture and for both integration methods, one FNV-1a digest covers
//! the executed kernel, the number of points, the time bits and every
//! node-voltage and source-current sample. The fixtures cover each solve a
//! kernel can choose:
//!
//! - a 75X inverter into the 40-segment paper line (the split-stamp Newton
//!   with the Woodbury rank update), into a 2 pF lumped load (the shape of a
//!   driver Rs extraction), and an inverter without initial conditions (the
//!   DC operating point as the starting state);
//! - a two-inverter chain, whose coupled rank-3 Woodbury update makes every
//!   term of its sums count, and an NMOS pull-down with a rank-1 update;
//! - a stack of two NMOS devices whose middle node sits on the gmin floor
//!   (the split-stamp Newton's refactorizing solve);
//! - a 40-segment ladder under the split-stamp, sparse and dense factor-once
//!   kernels, and the same ladder with a floating node, whose sparse
//!   factorization fails the pivot-health gate and degrades to dense LU.
//!
//! The DC operating points are pinned by their raw solution bits and their
//! Newton iteration counts.

use rlc_numeric::codec::{fnv1a, Encoder};
use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::elements::Element;
use rlc_spice::prelude::*;
use rlc_spice::testbench::{
    inverter_with_cap_load, inverter_with_rlc_line, pwl_source_with_rlc_line, InverterSpec,
    OutputTransition,
};

const VDD: f64 = 1.8;

const METHODS: [IntegrationMethod; 2] = [
    IntegrationMethod::Trapezoidal,
    IntegrationMethod::BackwardEuler,
];

/// A pinned circuit: its name, the kernels it runs under, and its window.
struct Fixture {
    name: &'static str,
    ckt: Circuit,
    strategies: &'static [KernelStrategy],
    time_step: f64,
    stop: f64,
}

/// The 75X inverter of the paper's Table 1 driving its 5 mm line.
fn inverter_into_line() -> Fixture {
    let (ckt, _) = inverter_with_rlc_line(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        72.44,
        nh(5.14),
        pf(1.10),
        40,
        ff(10.0),
        OutputTransition::Rising,
    );
    Fixture {
        name: "inv75x-line40",
        ckt,
        strategies: &[KernelStrategy::Auto],
        time_step: ps(0.5),
        stop: ps(1500.0),
    }
}

/// The 75X inverter into a lumped 2 pF load, the circuit a driver Rs
/// extraction simulates.
fn inverter_into_cap() -> Fixture {
    let (ckt, _) = inverter_with_cap_load(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        pf(2.0),
        OutputTransition::Falling,
    );
    Fixture {
        name: "inv75x-cap2pf",
        ckt,
        strategies: &[KernelStrategy::Auto],
        time_step: ps(0.5),
        stop: ps(800.0),
    }
}

/// An inverter with no initial conditions: the run starts from its DC
/// operating point (input low, output high) and the input then rises.
fn inverter_from_dc() -> Fixture {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let input = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(VDD));
    ckt.add_vsource(
        "VIN",
        input,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(30.0), ps(80.0)),
    );
    ckt.add_mosfet("MP", out, input, vdd, MosfetParams::pmos_018(), 20e-6);
    ckt.add_mosfet(
        "MN",
        out,
        input,
        Circuit::GROUND,
        MosfetParams::nmos_018(),
        10e-6,
    );
    ckt.add_capacitor("CL", out, Circuit::GROUND, ff(150.0));
    Fixture {
        name: "inv-dc-start",
        ckt,
        strategies: &[KernelStrategy::SplitStamp],
        time_step: ps(0.5),
        stop: ps(500.0),
    }
}

/// Two inverters in a chain. The first stage's output is the second's gate,
/// so their Woodbury update rows couple through the Miller capacitance, and
/// with the supply row the update has rank 3: every term of the projected
/// right-hand side counts, and the small system goes through the general
/// factorization instead of a closed form.
fn inverter_chain() -> Fixture {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let input = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(VDD));
    ckt.add_vsource(
        "VIN",
        input,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(20.0), ps(60.0)),
    );
    for (stage, gate, drain, width, load) in [
        ("1", input, mid, 10e-6, ff(20.0)),
        ("2", mid, out, 30e-6, ff(120.0)),
    ] {
        ckt.add_mosfet(
            format!("MP{stage}"),
            drain,
            gate,
            vdd,
            MosfetParams::pmos_018(),
            2.0 * width,
        );
        ckt.add_mosfet(
            format!("MN{stage}"),
            drain,
            gate,
            Circuit::GROUND,
            MosfetParams::nmos_018(),
            width,
        );
        ckt.add_capacitor(format!("CL{stage}"), drain, Circuit::GROUND, load);
    }
    for (node, v) in [(vdd, VDD), (input, 0.0), (mid, VDD), (out, 0.0)] {
        ckt.set_initial_condition(node, v);
    }
    Fixture {
        name: "inv-chain2",
        ckt,
        strategies: &[KernelStrategy::SplitStamp],
        time_step: ps(0.5),
        stop: ps(400.0),
    }
}

/// An NMOS pull-down against a resistive load: one update row, solved in
/// closed form.
fn nmos_pulldown() -> Fixture {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    let g = ckt.node("g");
    ckt.add_vsource("VDD", a, Circuit::GROUND, SourceWaveform::dc(VDD));
    ckt.add_vsource(
        "VG",
        g,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(20.0), ps(80.0)),
    );
    ckt.add_resistor("R1", a, d, 2000.0);
    ckt.add_capacitor("C1", d, Circuit::GROUND, ff(80.0));
    ckt.add_mosfet("M1", d, g, Circuit::GROUND, MosfetParams::nmos_018(), 5e-6);
    Fixture {
        name: "nmos-pulldown",
        ckt,
        strategies: &[KernelStrategy::SplitStamp],
        time_step: ps(0.5),
        stop: ps(400.0),
    }
}

/// Two stacked NMOS devices without parasitics: their middle node touches
/// only MOSFETs, so the static matrix has a gmin-floor pivot there and the
/// split-stamp Newton refactorizes every iteration.
fn gmin_stack() -> Fixture {
    let mut params = MosfetParams::nmos_018();
    params.c_gate_per_width = 0.0;
    params.c_junction_per_width = 0.0;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    let m = ckt.node("m");
    let g = ckt.node("g");
    ckt.add_vsource("VDD", a, Circuit::GROUND, SourceWaveform::dc(VDD));
    ckt.add_vsource(
        "VG",
        g,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(20.0), ps(100.0)),
    );
    ckt.add_resistor("R1", a, d, 500.0);
    ckt.add_capacitor("C1", d, Circuit::GROUND, ff(100.0));
    ckt.add_mosfet("M1", d, g, m, params, 10e-6);
    ckt.add_mosfet("M2", m, g, Circuit::GROUND, params, 10e-6);
    ckt.set_initial_condition(a, VDD);
    ckt.set_initial_condition(d, VDD);
    Fixture {
        name: "gmin-stack",
        ckt,
        strategies: &[KernelStrategy::SplitStamp],
        time_step: ps(1.0),
        stop: ps(400.0),
    }
}

/// The paper line at 40 segments behind an ideal ramp source.
fn ladder(name: &'static str, floating_node: bool) -> Fixture {
    let (mut ckt, _) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(VDD, ps(10.0), ps(100.0)),
        0.0,
        72.44,
        nh(5.14),
        pf(1.10),
        40,
        ff(10.0),
    );
    if floating_node {
        ckt.node("floating");
    }
    Fixture {
        name,
        ckt,
        strategies: &[
            KernelStrategy::SplitStamp,
            KernelStrategy::Sparse,
            KernelStrategy::FactorOnce,
        ],
        time_step: ps(1.0),
        stop: ps(160.0),
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        inverter_into_line(),
        inverter_into_cap(),
        inverter_from_dc(),
        inverter_chain(),
        nmos_pulldown(),
        gmin_stack(),
        ladder("ladder40", false),
        ladder("ladder40-floating", true),
    ]
}

/// Bit pattern of a sample with `-0.0` folded to `+0.0`.
fn folded_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else {
        v.to_bits()
    }
}

/// Appends one run to a fixture's digest: the executed kernel, the point
/// count, the times, and every node-voltage and source-current sample.
fn digest_run(e: &mut Encoder, ckt: &Circuit, res: &TransientResult) {
    e.str(&format!("{:?}", res.strategy()));
    e.u64(res.num_points() as u64);
    for t in res.times() {
        e.u64(t.to_bits());
    }
    let nodes = (1..ckt.num_nodes()).map(|k| res.waveform(NodeId::from_index(k)));
    let currents = ckt.elements().iter().filter_map(|e| match e {
        Element::VoltageSource { name, .. } => res.vsource_current(name),
        _ => None,
    });
    for w in nodes.chain(currents) {
        for &v in w.values() {
            e.u64(folded_bits(v));
        }
    }
}

/// Digest of every fixture's runs (both methods, every listed kernel).
const PINS: [(&str, u64); 8] = [
    ("inv75x-line40", 0xfd1297d514e257de),
    ("inv75x-cap2pf", 0xdfb967a7802c4fb7),
    ("inv-dc-start", 0x3127bf27d3e306d1),
    ("inv-chain2", 0x528011adc219a14e),
    ("nmos-pulldown", 0x4d2359ce49ffc69a),
    ("gmin-stack", 0x0fe5a25c61ea04d6),
    ("ladder40", 0xc6c885f41331ac26),
    ("ladder40-floating", 0xbccb10975ab71352),
];

#[test]
fn kernel_runs_are_pinned_bit_for_bit() {
    let mut measured = Vec::new();
    for fixture in fixtures() {
        let mut e = Encoder::new();
        for method in METHODS {
            for &strategy in fixture.strategies {
                let opts = TransientOptions::try_new(fixture.time_step, fixture.stop)
                    .unwrap()
                    .with_method(method)
                    .with_strategy(strategy);
                let res = TransientAnalysis::new(opts).run(&fixture.ckt).unwrap();
                digest_run(&mut e, &fixture.ckt, &res);
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

/// Digest of the DC operating points: raw solution bits and iteration count.
const DC_PINS: [(&str, u64); 5] = [
    ("inv-dc-start", 0x39ef2821ed834544),
    ("gmin-stack", 0xd3a62c09dc65b6a8),
    ("inv75x-cap2pf", 0x7d2a8c6649779545),
    ("ladder40", 0xad927ab1256cd4a4),
    ("ladder40-floating", 0xf8782c54359ad124),
];

#[test]
fn dc_operating_points_are_pinned_bit_for_bit() {
    let mut measured = Vec::new();
    for fixture in [
        inverter_from_dc(),
        gmin_stack(),
        inverter_into_cap(),
        ladder("ladder40", false),
        ladder("ladder40-floating", true),
    ] {
        let sol = dc_operating_point(&fixture.ckt, DcOptions::default()).unwrap();
        let mut e = Encoder::new();
        e.u64(sol.iterations as u64);
        for &v in sol.raw() {
            e.u64(folded_bits(v));
        }
        measured.push((fixture.name, fnv1a(&e.finish())));
    }
    let report: String = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(measured, DC_PINS, "digests moved; measured:\n{report}");
}
