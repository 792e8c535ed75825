//! Pins the netlists the loads and testbenches synthesize, byte for byte.
//!
//! Each case is folded into one FNV-1a digest over its node names (in
//! allocation order), its elements (kind, name, terminals and value bits,
//! in insertion order), its initial conditions (sorted by node) and, for
//! loads, the sinks `attach_net` reports. The constants were captured from
//! the synthesis code before it was reworked to build names in place, so a
//! change that renames, reorders or revalues anything a kernel stamps fails
//! here with the case named.

use rlc_ceff_suite::interconnect::{CoupledBus, RlcLine, RlcTree};
use rlc_ceff_suite::numeric::codec::{fnv1a, Encoder};
use rlc_ceff_suite::numeric::units::{ff, mm, nh, pf, ps};
use rlc_ceff_suite::spice::testbench::{
    add_rlc_ladder, inverter_with_cap_load, InverterSpec, OutputTransition,
};
use rlc_ceff_suite::spice::{Circuit, Element, NodeId, SourceWaveform};
use rlc_ceff_suite::{
    AggressorSpec, AggressorSwitching, CoupledBusLoad, DistributedRlcLoad, LoadModel, RlcTreeLoad,
};

const SEGMENTS: usize = 40;

fn node(e: &mut Encoder, n: NodeId) {
    e.u64(n.index() as u64);
}

fn digest(ckt: &Circuit, sinks: &[(String, NodeId)]) -> u64 {
    let mut e = Encoder::new();
    e.u64(ckt.num_nodes() as u64);
    for k in 0..ckt.num_nodes() {
        e.str(ckt.node_name(NodeId::from_index(k)));
    }
    e.u64(ckt.elements().len() as u64);
    for element in ckt.elements() {
        match element {
            Element::Resistor { name, a, b, ohms } => {
                e.u8(0);
                e.str(name);
                node(&mut e, *a);
                node(&mut e, *b);
                e.u64(ohms.to_bits());
            }
            Element::Capacitor { name, a, b, farads } => {
                e.u8(1);
                e.str(name);
                node(&mut e, *a);
                node(&mut e, *b);
                e.u64(farads.to_bits());
            }
            Element::Inductor {
                name,
                a,
                b,
                henries,
            } => {
                e.u8(2);
                e.str(name);
                node(&mut e, *a);
                node(&mut e, *b);
                e.u64(henries.to_bits());
            }
            Element::VoltageSource {
                name,
                pos,
                neg,
                waveform,
            } => {
                e.u8(3);
                e.str(name);
                node(&mut e, *pos);
                node(&mut e, *neg);
                // Float `Debug` output round-trips exactly.
                e.str(&format!("{waveform:?}"));
            }
            Element::CurrentSource {
                name,
                from,
                to,
                waveform,
            } => {
                e.u8(4);
                e.str(name);
                node(&mut e, *from);
                node(&mut e, *to);
                e.str(&format!("{waveform:?}"));
            }
            Element::MutualInductance {
                name,
                inductor_a,
                inductor_b,
                henries,
            } => {
                e.u8(5);
                e.str(name);
                e.str(inductor_a);
                e.str(inductor_b);
                e.u64(henries.to_bits());
            }
            Element::Mosfet {
                name,
                drain,
                gate,
                source,
                params,
                width,
            } => {
                e.u8(6);
                e.str(name);
                node(&mut e, *drain);
                node(&mut e, *gate);
                node(&mut e, *source);
                e.str(&format!("{params:?}"));
                e.u64(width.to_bits());
            }
        }
    }
    let mut ics: Vec<(NodeId, f64)> = ckt
        .initial_conditions()
        .iter()
        .map(|(n, v)| (*n, *v))
        .collect();
    ics.sort_by_key(|(n, _)| *n);
    e.u64(ics.len() as u64);
    for (n, v) in ics {
        node(&mut e, n);
        e.u64(v.to_bits());
    }
    e.u64(sinks.len() as u64);
    for (name, n) in sinks {
        e.str(name);
        node(&mut e, *n);
    }
    fnv1a(&e.finish())
}

/// Synthesizes `load` the way the static audit and the far-end handoff do:
/// an ideal driver source at the driving point, then the load's net.
fn attached(load: &dyn LoadModel, v_initial: f64) -> (Circuit, Vec<(String, NodeId)>) {
    let mut ckt = Circuit::new();
    let near = ckt.node("out");
    ckt.add_vsource(
        "VDRV",
        near,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, ps(20.0), ps(100.0)),
    );
    ckt.set_initial_condition(near, v_initial);
    let net = load
        .attach_net(&mut ckt, near, v_initial, SEGMENTS)
        .expect("physical loads synthesize");
    (ckt, net.sinks)
}

fn paper_line() -> RlcLine {
    RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0))
}

fn three_branch_tree() -> RlcTree {
    let mut tree = RlcTree::new();
    let trunk = tree.add_branch(None, RlcLine::new(40.0, nh(2.5), pf(0.55), mm(2.5)));
    let left = tree.add_branch(Some(trunk), RlcLine::new(31.5, nh(1.9), pf(0.41), mm(1.75)));
    let right = tree.add_branch(Some(trunk), RlcLine::new(55.25, nh(3.3), pf(0.72), mm(3.0)));
    tree.set_sink(left, "left", ff(12.0));
    tree.set_sink(right, "right", ff(30.0));
    tree
}

fn bus_load(switching: AggressorSwitching, mutual: f64, coupling: f64) -> CoupledBusLoad {
    let bus = CoupledBus::new(
        paper_line(),
        RlcLine::new(80.0, nh(5.3), pf(1.05), mm(5.0)),
        coupling,
        mutual,
        ff(10.0),
        ff(15.0),
    );
    let aggressor = AggressorSpec::new(switching, ps(80.0), ps(35.0), 1.8).unwrap();
    CoupledBusLoad::new(bus, aggressor).unwrap()
}

#[test]
fn distributed_line_netlist_is_pinned() {
    let load = DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap();
    let (ckt, sinks) = attached(&load, 0.0);
    assert_eq!((ckt.num_nodes(), ckt.elements().len()), (82, 123));
    assert_eq!(digest(&ckt, &sinks), 3700501017986349849);
}

#[test]
fn three_branch_tree_netlist_is_pinned() {
    let load = RlcTreeLoad::new(three_branch_tree()).unwrap();
    let (ckt, sinks) = attached(&load, 1.8);
    assert_eq!((ckt.num_nodes(), ckt.elements().len()), (242, 366));
    assert_eq!(digest(&ckt, &sinks), 10859248125288752513);
}

#[test]
fn coupled_bus_netlists_are_pinned() {
    let cases = [
        (
            AggressorSwitching::OppositeDirection,
            nh(1.2),
            pf(0.35),
            16070264694742332826,
        ),
        (AggressorSwitching::Quiet, 0.0, 0.0, 8709851182621120621),
    ];
    for (switching, mutual, coupling, pinned) in cases {
        let (ckt, sinks) = attached(&bus_load(switching, mutual, coupling), 0.0);
        assert_eq!(
            digest(&ckt, &sinks),
            pinned,
            "{switching:?} bus, M = {mutual:e}, Cc = {coupling:e}"
        );
    }
}

#[test]
fn lossless_and_unloaded_ladder_is_pinned() {
    // Zero R and L take the ladder's 1 µΩ stand-in branches.
    let mut ckt = Circuit::new();
    let near = ckt.node("out");
    ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.9));
    let far = add_rlc_ladder(&mut ckt, near, 0.0, 0.0, pf(0.8), 7, 0.0, 0.45, "ln");
    assert_eq!(ckt.node_name(far), "ln_n6");
    assert_eq!(digest(&ckt, &[]), 5653741965033527426);
}

#[test]
fn inverter_testbench_netlist_is_pinned() {
    let cases = [
        (OutputTransition::Rising, ff(200.0), 5529007122321135450),
        (OutputTransition::Falling, 0.0, 13061184520359881285),
    ];
    for (transition, c_load, pinned) in cases {
        let (ckt, _) = inverter_with_cap_load(
            &InverterSpec::sized_018(75.0),
            ps(100.0),
            ps(20.0),
            c_load,
            transition,
        );
        assert_eq!(digest(&ckt, &[]), pinned, "{transition:?}, CL = {c_load:e}");
    }
}
