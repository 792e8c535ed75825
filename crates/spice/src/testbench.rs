//! Ready-made testbench circuits: a CMOS inverter driver, lumped capacitive
//! loads, and segmented RLC transmission-line ladders.
//!
//! These builders are the simulator-side counterparts of the paper's
//! experimental setups: "an RLC line driven by a 75X inverter" with a ramp
//! input of a given transition time.

use std::fmt::{self, Write as _};

use crate::circuit::{Circuit, NodeId};
use crate::mosfet::MosfetParams;
use crate::source::SourceWaveform;

/// Description of a CMOS inverter used as a line driver.
///
/// The paper sizes drivers as `kX` where the NMOS width is `k` times the
/// minimum width (2·Lmin = 0.36 µm for the 0.18 µm process) and the PMOS is
/// twice the NMOS width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterSpec {
    /// NMOS width in metres.
    pub nmos_width: f64,
    /// PMOS width in metres.
    pub pmos_width: f64,
    /// NMOS model parameters.
    pub nmos: MosfetParams,
    /// PMOS model parameters.
    pub pmos: MosfetParams,
    /// Supply voltage in volts.
    pub vdd: f64,
}

impl InverterSpec {
    /// Minimum NMOS width for the 0.18 µm technology (2 × Lmin = 0.36 µm), as
    /// defined in the paper's footnote.
    pub const MIN_NMOS_WIDTH: f64 = 0.36e-6;

    /// Creates the paper's `sizeX` inverter: NMOS width = `size` × 0.36 µm,
    /// PMOS twice as wide, 1.8 V supply, calibrated 0.18 µm devices.
    ///
    /// # Panics
    /// Panics if `size <= 0`.
    pub fn sized_018(size: f64) -> Self {
        assert!(size > 0.0, "driver size must be positive");
        let wn = size * Self::MIN_NMOS_WIDTH;
        InverterSpec {
            nmos_width: wn,
            pmos_width: 2.0 * wn,
            nmos: MosfetParams::nmos_018(),
            pmos: MosfetParams::pmos_018(),
            vdd: 1.8,
        }
    }

    /// The drive-strength multiple relative to the minimum inverter.
    pub fn size(&self) -> f64 {
        self.nmos_width / Self::MIN_NMOS_WIDTH
    }

    /// Input (gate) capacitance of the inverter, used as the fan-out load of
    /// an upstream stage and in the paper's `CL << C·l` criterion.
    pub fn input_capacitance(&self) -> f64 {
        self.nmos.c_gate_per_width * self.nmos_width + self.pmos.c_gate_per_width * self.pmos_width
    }
}

/// Node handles of an inverter testbench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverTestbenchNodes {
    /// Supply node.
    pub vdd: NodeId,
    /// Inverter input.
    pub input: NodeId,
    /// Inverter output (driving point / near end of the line).
    pub output: NodeId,
    /// Far end of the line (equals `output` for lumped capacitive loads).
    pub far_end: NodeId,
}

/// Direction of the output transition being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputTransition {
    /// Output rises 0 → VDD (input falls). This is the polarity used for all
    /// the paper's figures.
    #[default]
    Rising,
    /// Output falls VDD → 0 (input rises).
    Falling,
}

/// Adds an inverter (with its supply) to a circuit, driven by a saturated
/// ramp on its input, and returns the node handles. Initial conditions are
/// set consistently with the chosen output transition.
pub fn add_inverter_driver(
    ckt: &mut Circuit,
    spec: &InverterSpec,
    input_transition_time: f64,
    input_delay: f64,
    transition: OutputTransition,
) -> DriverTestbenchNodes {
    let input_wave = match transition {
        OutputTransition::Rising => {
            SourceWaveform::falling_ramp(spec.vdd, input_delay, input_transition_time)
        }
        OutputTransition::Falling => {
            SourceWaveform::rising_ramp(spec.vdd, input_delay, input_transition_time)
        }
    };
    add_inverter_driver_with_input(ckt, spec, input_wave, transition)
}

/// Like [`add_inverter_driver`], but drives the inverter input with an
/// arbitrary source waveform (e.g. a measured upstream far-end waveform
/// mirrored for the inverting stage) instead of an ideal saturated ramp.
/// The input node's initial condition is taken from the waveform at `t = 0`.
pub fn add_inverter_driver_with_input(
    ckt: &mut Circuit,
    spec: &InverterSpec,
    input: SourceWaveform,
    transition: OutputTransition,
) -> DriverTestbenchNodes {
    let vdd_node = ckt.node("vdd");
    let in_node = ckt.node("in");
    let out_node = ckt.node("out");

    ckt.add_vsource(
        "VDD",
        vdd_node,
        Circuit::GROUND,
        SourceWaveform::dc(spec.vdd),
    );
    let vin0 = input.value_at(0.0);
    ckt.add_vsource("VIN", in_node, Circuit::GROUND, input);
    ckt.add_mosfet(
        "MP",
        out_node,
        in_node,
        vdd_node,
        spec.pmos,
        spec.pmos_width,
    );
    ckt.add_mosfet(
        "MN",
        out_node,
        in_node,
        Circuit::GROUND,
        spec.nmos,
        spec.nmos_width,
    );

    let vout0 = match transition {
        OutputTransition::Rising => 0.0,
        OutputTransition::Falling => spec.vdd,
    };
    ckt.set_initial_condition(vdd_node, spec.vdd);
    ckt.set_initial_condition(in_node, vin0);
    ckt.set_initial_condition(out_node, vout0);

    DriverTestbenchNodes {
        vdd: vdd_node,
        input: in_node,
        output: out_node,
        far_end: out_node,
    }
}

/// Netlist names that share one prefix, formatted in one reused buffer.
///
/// Generated netlists name thousands of nodes and elements
/// `{prefix}{suffix}`; building each in the same buffer costs no allocation
/// until the name is stored ([`Circuit::node`] copies it once, an element
/// adder takes an owned copy).
#[derive(Debug, Clone)]
pub struct NameBuffer {
    buf: String,
    prefix_len: usize,
}

impl NameBuffer {
    /// A buffer whose names all start with `prefix`.
    pub fn new(prefix: &str) -> Self {
        let mut buf = String::with_capacity(prefix.len() + 16);
        buf.push_str(prefix);
        NameBuffer {
            buf,
            prefix_len: prefix.len(),
        }
    }

    /// The name `{prefix}{suffix}`, valid until the next call.
    pub fn name(&mut self, suffix: fmt::Arguments<'_>) -> &str {
        self.buf.truncate(self.prefix_len);
        self.buf
            .write_fmt(suffix)
            .expect("formatting into a String cannot fail");
        &self.buf
    }
}

/// Appends a segmented RLC ladder between `near` and a newly created far-end
/// node, returning the far-end node. The total `r`, `l`, `c` are split over
/// `segments` identical sections with the shunt capacitance distributed as
/// half-sections at both ends (an overall pi discretization); `c_load` is
/// added at the far end. All created line nodes start at `v_initial`.
///
/// # Panics
/// Panics if `segments == 0` or any parasitic is negative.
#[allow(clippy::too_many_arguments)]
pub fn add_rlc_ladder(
    ckt: &mut Circuit,
    near: NodeId,
    r: f64,
    l: f64,
    c: f64,
    segments: usize,
    c_load: f64,
    v_initial: f64,
    name_prefix: &str,
) -> NodeId {
    assert!(segments > 0, "need at least one ladder segment");
    assert!(r >= 0.0 && l >= 0.0 && c >= 0.0 && c_load >= 0.0);
    let rs = r / segments as f64;
    let ls = l / segments as f64;
    let cs = c / segments as f64;
    ckt.reserve(2 * segments, 3 * segments + 2);
    let mut names = NameBuffer::new(name_prefix);

    // Near-end half capacitor.
    if cs > 0.0 {
        ckt.add_capacitor(
            names.name(format_args!("_C0")).to_owned(),
            near,
            Circuit::GROUND,
            0.5 * cs,
        );
    }
    let mut prev = near;
    for k in 0..segments {
        let mid = ckt.node(names.name(format_args!("_m{k}")));
        let next = ckt.node(names.name(format_args!("_n{k}")));
        let r_name = names.name(format_args!("_R{k}")).to_owned();
        ckt.add_resistor(r_name, prev, mid, if rs > 0.0 { rs } else { 1e-6 });
        if ls > 0.0 {
            ckt.add_inductor(names.name(format_args!("_L{k}")).to_owned(), mid, next, ls);
        } else {
            ckt.add_resistor(
                names.name(format_args!("_Lr{k}")).to_owned(),
                mid,
                next,
                1e-6,
            );
        }
        // Interior nodes carry a full section capacitance, the far end a half.
        let shunt = if k + 1 == segments { 0.5 * cs } else { cs };
        if shunt > 0.0 {
            ckt.add_capacitor(
                names.name(format_args!("_C{}", k + 1)).to_owned(),
                next,
                Circuit::GROUND,
                shunt,
            );
        }
        ckt.set_initial_condition(mid, v_initial);
        ckt.set_initial_condition(next, v_initial);
        prev = next;
    }
    if c_load > 0.0 {
        ckt.add_capacitor(
            names.name(format_args!("_CL")).to_owned(),
            prev,
            Circuit::GROUND,
            c_load,
        );
    }
    prev
}

/// Builds the paper's characterization testbench: an inverter driving a
/// lumped capacitive load.
pub fn inverter_with_cap_load(
    spec: &InverterSpec,
    input_transition_time: f64,
    input_delay: f64,
    c_load: f64,
    transition: OutputTransition,
) -> (Circuit, DriverTestbenchNodes) {
    let mut ckt = Circuit::new();
    let nodes = add_inverter_driver(
        &mut ckt,
        spec,
        input_transition_time,
        input_delay,
        transition,
    );
    if c_load > 0.0 {
        ckt.add_capacitor("CLOAD", nodes.output, Circuit::GROUND, c_load);
    }
    (ckt, nodes)
}

/// Builds the paper's main testbench: an inverter driving a segmented RLC
/// line terminated by a load capacitance.
#[allow(clippy::too_many_arguments)]
pub fn inverter_with_rlc_line(
    spec: &InverterSpec,
    input_transition_time: f64,
    input_delay: f64,
    r: f64,
    l: f64,
    c: f64,
    segments: usize,
    c_load: f64,
    transition: OutputTransition,
) -> (Circuit, DriverTestbenchNodes) {
    let mut ckt = Circuit::new();
    let mut nodes = add_inverter_driver(
        &mut ckt,
        spec,
        input_transition_time,
        input_delay,
        transition,
    );
    let v_init = match transition {
        OutputTransition::Rising => 0.0,
        OutputTransition::Falling => spec.vdd,
    };
    let far = add_rlc_ladder(
        &mut ckt,
        nodes.output,
        r,
        l,
        c,
        segments,
        c_load,
        v_init,
        "line",
    );
    nodes.far_end = far;
    (ckt, nodes)
}

/// Builds a testbench where an ideal PWL voltage source (for example the
/// paper's two-ramp driver model) drives the RLC line directly; used to
/// compute far-end responses from a modeled driving-point waveform.
#[allow(clippy::too_many_arguments)]
pub fn pwl_source_with_rlc_line(
    source: SourceWaveform,
    v_initial: f64,
    r: f64,
    l: f64,
    c: f64,
    segments: usize,
    c_load: f64,
) -> (Circuit, DriverTestbenchNodes) {
    let mut ckt = Circuit::new();
    let near = ckt.node("out");
    ckt.add_vsource("VDRV", near, Circuit::GROUND, source);
    ckt.set_initial_condition(near, v_initial);
    let far = add_rlc_ladder(&mut ckt, near, r, l, c, segments, c_load, v_initial, "line");
    (
        ckt,
        DriverTestbenchNodes {
            vdd: near,
            input: near,
            output: near,
            far_end: far,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{TransientAnalysis, TransientOptions};
    use rlc_numeric::units::{ff, nh, pf, ps};

    #[test]
    fn inverter_spec_sizes_match_paper_footnote() {
        let spec = InverterSpec::sized_018(75.0);
        assert!((spec.nmos_width - 27e-6).abs() < 1e-12);
        assert!((spec.pmos_width - 54e-6).abs() < 1e-12);
        assert!((spec.size() - 75.0).abs() < 1e-9);
        assert!(spec.input_capacitance() > 0.0);
    }

    #[test]
    fn cap_load_testbench_swings_rail_to_rail() {
        let spec = InverterSpec::sized_018(25.0);
        let (ckt, nodes) = inverter_with_cap_load(
            &spec,
            ps(100.0),
            ps(20.0),
            ff(200.0),
            OutputTransition::Rising,
        );
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(0.5), ps(800.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let out = res.waveform(nodes.output);
        assert!(out.value_at(0.0) < 0.2);
        assert!(out.last_value() > 0.98 * spec.vdd);
    }

    #[test]
    fn falling_transition_testbench_discharges_output() {
        let spec = InverterSpec::sized_018(25.0);
        let (ckt, nodes) = inverter_with_cap_load(
            &spec,
            ps(100.0),
            ps(20.0),
            ff(200.0),
            OutputTransition::Falling,
        );
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(0.5), ps(800.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let out = res.waveform(nodes.output);
        assert!(out.value_at(0.0) > 0.9 * spec.vdd);
        assert!(out.last_value() < 0.05 * spec.vdd);
    }

    #[test]
    fn rlc_line_far_end_lags_near_end() {
        // 5 mm / 1.6 um paper line: R = 72.44, L = 5.14 nH, C = 1.10 pF.
        let spec = InverterSpec::sized_018(75.0);
        let (ckt, nodes) = inverter_with_rlc_line(
            &spec,
            ps(100.0),
            ps(20.0),
            72.44,
            nh(5.14),
            pf(1.10),
            20,
            ff(10.0),
            OutputTransition::Rising,
        );
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(0.5), ps(1200.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let near = res.waveform(nodes.output);
        let far = res.waveform(nodes.far_end);
        assert!(near.last_value() > 0.95 * spec.vdd);
        assert!(far.last_value() > 0.95 * spec.vdd);
        let t_near = near.crossing_fraction(0.5, spec.vdd, true).unwrap();
        let t_far = far.crossing_fraction(0.5, spec.vdd, true).unwrap();
        assert!(
            t_far > t_near,
            "far end must switch later than the near end"
        );
        // The far-end lag must be at least in the vicinity of the time of
        // flight sqrt(LC) ~ 75 ps.
        assert!(t_far - t_near > ps(40.0));
    }

    #[test]
    fn ladder_node_count_scales_with_segments() {
        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
        let far = add_rlc_ladder(&mut ckt, near, 100.0, nh(5.0), pf(1.0), 4, 0.0, 0.0, "ln");
        assert_ne!(near, far);
        // 1 near node + 2 nodes per segment
        assert_eq!(ckt.num_nodes(), 1 + 1 + 8);
    }

    #[test]
    fn pwl_testbench_propagates_to_far_end() {
        let src = SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0));
        let (ckt, nodes) =
            pwl_source_with_rlc_line(src, 0.0, 72.44, nh(5.14), pf(1.10), 16, ff(10.0));
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(0.5), ps(1000.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let far = res.waveform(nodes.far_end);
        assert!(far.last_value() > 1.7);
        // An ideal ramp into a low-loss line overshoots at the far end.
        assert!(far.max_value() > 1.8);
    }

    #[test]
    #[should_panic(expected = "at least one ladder segment")]
    fn zero_segments_rejected() {
        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        let _ = add_rlc_ladder(&mut ckt, near, 1.0, 1e-9, 1e-12, 0, 0.0, 0.0, "x");
    }
}
