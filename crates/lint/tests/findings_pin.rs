//! Pins the audit's output over a seeded corpus, byte for byte.
//!
//! About two hundred netlists — 40-segment ladders, two- and three-branch
//! trees and coupled buses with random values — are linted, some with values
//! scaled until the conditioning (`L022`) and degenerate-value (`L023`)
//! checks fire, and some with one injected defect per static code. Every
//! finding (code, severity, locus, message) is folded, in order, into one
//! FNV-1a digest. The digest and the per-code counts were captured from the
//! audit before its graph, structural and numeric passes were reworked, so
//! any change to which findings fire, their order or their wording fails
//! here.

use std::collections::BTreeMap;

use rlc_interconnect::{CoupledBus, NetTopology, RlcLine, RlcTree};
use rlc_lint::{lint_circuit, lint_topology, Diagnostic, LintOptions};
use rlc_numeric::codec::{fnv1a, Encoder};
use rlc_numeric::stats::Rng;
use rlc_spice::testbench::add_rlc_ladder;
use rlc_spice::{Circuit, Element, NodeId, SourceWaveform};

const SEGMENTS: usize = 40;
const NETLISTS: usize = 200;

/// Digest of every finding over the corpus, in corpus order.
const DIGEST: u64 = 17650327781010195829;

/// How many findings of each code the corpus produces.
const COUNTS: &[(&str, usize)] = &[
    ("L001", 20),
    ("L002", 40),
    ("L003", 20),
    ("L004", 20),
    ("L005", 40),
    ("L006", 1),
    ("L010", 72),
    ("L020", 48),
    ("L021", 16),
    ("L022", 65),
    ("L023", 8604),
    ("L024", 16),
];

/// A random line with its R, L and C multiplied by `scales`.
fn line(rng: &mut Rng, scales: [f64; 3]) -> RlcLine {
    RlcLine::new(
        rng.uniform_in(5.0, 200.0) * scales[0],
        rng.uniform_in(0.5e-9, 8e-9) * scales[1],
        rng.uniform_in(0.1e-12, 2e-12) * scales[2],
        rng.uniform_in(1e-3, 6e-3),
    )
}

/// Value scales for one netlist: usually physical, sometimes scaled so the
/// companion spread or the degenerate floors trip. Uniform ladders tie on
/// every per-segment value, which exercises L022's tie rules; the flag asks
/// ladders for 1 Ω segments, which also tie with the unit branch entries.
fn scales(rng: &mut Rng) -> ([f64; 3], bool) {
    match (rng.uniform() * 8.0) as usize {
        0 => ([1e-9, 1.0, 1.0], false),
        1 => ([1.0, 1.0, 1e-8], false),
        2 => ([1.0, 1e-10, 1.0], false),
        3 => ([1e6, 1.0, 1e-6], false),
        4 => ([1.0; 3], true),
        _ => ([1.0; 3], false),
    }
}

fn time_step(rng: &mut Rng) -> Option<f64> {
    [None, Some(0.5e-12), Some(1e-12), Some(1e-11), Some(1e-9)][(rng.uniform() * 5.0) as usize]
}

/// A built netlist: the circuit, its measurement sinks, its near-end node,
/// and the names of its first ladder's first two inductors (for defects
/// that couple them).
struct Netlist {
    ckt: Circuit,
    sinks: Vec<(String, NodeId)>,
    near: NodeId,
    inductors: [&'static str; 2],
}

fn driven() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let near = ckt.node("out");
    ckt.add_vsource("VDRV", near, Circuit::GROUND, SourceWaveform::dc(0.0));
    (ckt, near)
}

fn ladder(rng: &mut Rng, scale: [f64; 3], unit_r: bool) -> (Netlist, Option<NetTopology>) {
    let (mut ckt, near) = driven();
    let l = line(rng, scale);
    let r = if unit_r {
        SEGMENTS as f64
    } else {
        l.resistance()
    };
    let c_load = rng.uniform_in(1e-15, 50e-15);
    let far = add_rlc_ladder(
        &mut ckt,
        near,
        r,
        l.inductance(),
        l.capacitance(),
        SEGMENTS,
        c_load,
        0.0,
        "line",
    );
    let net = Netlist {
        ckt,
        sinks: vec![("far".to_string(), far)],
        near,
        inductors: ["line_L0", "line_L1"],
    };
    (net, None)
}

fn tree(rng: &mut Rng, scale: [f64; 3], branches: usize) -> (Netlist, Option<NetTopology>) {
    let mut tree = RlcTree::new();
    let trunk = tree.add_branch(None, line(rng, scale));
    for k in 1..branches {
        let b = tree.add_branch(Some(trunk), line(rng, scale));
        tree.set_sink(b, &format!("s{k}"), rng.uniform_in(1e-15, 40e-15));
    }
    let (mut ckt, near) = driven();
    let sinks = tree
        .add_to_circuit(&mut ckt, near, SEGMENTS, 0.0, "net")
        .into_iter()
        .map(|s| (s.name, s.node))
        .collect();
    let net = Netlist {
        ckt,
        sinks,
        near,
        inductors: ["net_b0_L0", "net_b0_L1"],
    };
    (net, Some(NetTopology::Tree(tree)))
}

fn bus(rng: &mut Rng, scale: [f64; 3]) -> (Netlist, Option<NetTopology>) {
    let victim = line(rng, scale);
    let aggressor = line(rng, scale);
    let k = rng.uniform_in(0.0, 0.6);
    let mutual = k * (victim.inductance() * aggressor.inductance()).sqrt();
    let coupling = rng.uniform_in(0.0, 0.5) * victim.capacitance();
    let bus = CoupledBus::new(
        victim,
        aggressor,
        coupling,
        mutual,
        rng.uniform_in(1e-15, 30e-15),
        rng.uniform_in(1e-15, 30e-15),
    );
    let (mut ckt, near) = driven();
    let a_near = ckt.node("agg_in");
    ckt.add_vsource("VAGG", a_near, Circuit::GROUND, SourceWaveform::dc(0.0));
    let (v_far, a_far) = bus.add_to_circuit(&mut ckt, near, a_near, SEGMENTS, 0.0, 0.0, "bus");
    let net = Netlist {
        ckt,
        sinks: vec![
            ("victim".to_string(), v_far),
            ("aggressor".to_string(), a_far),
        ],
        near,
        inductors: ["bus_vL0", "bus_vL1"],
    };
    (net, Some(NetTopology::CoupledBus(bus)))
}

/// Injects defect number `which` (0 = none) into the netlist.
fn inject(net: &mut Netlist, which: usize) {
    let ckt = &mut net.ckt;
    let far = net.sinks[0].1;
    let [l0, l1] = net.inductors;
    match which {
        // L001: a node nothing touches.
        1 => {
            let _ = ckt.node("stranded");
        }
        // L002: an RC island with no path to ground.
        2 => {
            let a = ckt.node("isl_a");
            let b = ckt.node("isl_b");
            ckt.add_resistor("R_isl", a, b, 50.0);
            ckt.add_capacitor("C_isl", a, b, 1e-14);
        }
        // L003: a resistor stub hanging off the far end.
        3 => {
            let stub = ckt.node("stub");
            ckt.add_resistor("R_stub", far, stub, 25.0);
        }
        // L004: a second and a third source across the driver's node pair.
        4 => {
            ckt.add_vsource("V2", net.near, Circuit::GROUND, SourceWaveform::dc(1.0));
            ckt.add_vsource("V3", Circuit::GROUND, net.near, SourceWaveform::dc(0.5));
        }
        // L005: a mutual to a missing inductor, and one coupling a ladder
        // inductor to itself.
        5 => {
            ckt.add_mutual_inductance("K_missing", l0, "L_nowhere", 1e-10);
            ckt.add_mutual_inductance("K_self", l1, l1, 1e-10);
        }
        // L010: a voltage-source/inductor loop at the driving point.
        6 => {
            ckt.add_inductor("L_loop", net.near, Circuit::GROUND, 1e-9);
        }
        // L010: an inductor with both terminals on one node.
        7 => {
            ckt.add_inductor("L_shorted", far, far, 1e-9);
        }
        // L020: non-passive values only `add_element` can smuggle in.
        8 => {
            ckt.add_element(Element::Resistor {
                name: "R_neg".into(),
                a: far,
                b: Circuit::GROUND,
                ohms: -5.0,
            });
            ckt.add_element(Element::Capacitor {
                name: "C_nan".into(),
                a: far,
                b: Circuit::GROUND,
                farads: f64::NAN,
            });
            ckt.add_element(Element::Inductor {
                name: "L_zero".into(),
                a: far,
                b: Circuit::GROUND,
                henries: 0.0,
            });
        }
        // L021: a mutual with k >= 1 between two ladder inductors.
        9 => {
            ckt.add_mutual_inductance("K_over", l0, l1, 1e-6);
        }
        // L024: the driving point, pinned by the driver source, as a sink.
        10 => {
            net.sinks.push(("near".to_string(), net.near));
        }
        _ => {}
    }
}

fn fold(e: &mut Encoder, counts: &mut BTreeMap<String, usize>, findings: &[Diagnostic]) {
    e.u64(findings.len() as u64);
    for d in findings {
        e.str(&d.code);
        e.str(d.severity.label());
        e.str(&d.locus);
        e.str(&d.message);
        *counts.entry(d.code.clone()).or_default() += 1;
    }
}

#[test]
fn audit_findings_over_a_seeded_corpus_are_pinned() {
    let mut rng = Rng::new(0x0005_eed1);
    let mut e = Encoder::new();
    let mut counts = BTreeMap::new();
    for i in 0..NETLISTS {
        let (scale, unit_r) = scales(&mut rng);
        let (mut net, topology) = match i % 4 {
            0 => ladder(&mut rng, scale, unit_r),
            1 => tree(&mut rng, scale, 2),
            2 => tree(&mut rng, scale, 3),
            _ => bus(&mut rng, scale),
        };
        inject(&mut net, (i / 4) % 11);
        let step = time_step(&mut rng);
        let mut options = LintOptions::new().with_sinks(net.sinks.clone());
        options.time_step = step;
        fold(&mut e, &mut counts, &lint_circuit(&net.ckt, &options));
        if let Some(topology) = topology {
            fold(&mut e, &mut counts, &lint_topology(&topology, step));
        }
    }
    // Uniform ladders built to tie at both ends of the L022 spread. With
    // 1 Ω segments the maximum ties the unit branch entries, listed last;
    // with huge caps the maximum ties across the interior caps and the
    // minimum across the 1 Ω segments.
    for (c, h) in [(1e-20, 1e-9), (400.0, 1e-12)] {
        let (mut ckt, near) = driven();
        let far = add_rlc_ladder(&mut ckt, near, 40.0, 1e-9, c, SEGMENTS, 0.0, 0.0, "tie");
        let options = LintOptions::new()
            .with_time_step(h)
            .with_sinks(vec![("far".to_string(), far)]);
        fold(&mut e, &mut counts, &lint_circuit(&ckt, &options));
    }
    // L006: a topology with nothing to measure.
    let mut sinkless = RlcTree::new();
    sinkless.add_branch(None, line(&mut rng, [1.0; 3]));
    fold(
        &mut e,
        &mut counts,
        &lint_topology(&NetTopology::Tree(sinkless), Some(1e-12)),
    );

    let counts: Vec<(&str, usize)> = counts.iter().map(|(c, n)| (c.as_str(), *n)).collect();
    assert_eq!(counts, COUNTS);
    assert_eq!(fnv1a(&e.finish()), DIGEST);
}
