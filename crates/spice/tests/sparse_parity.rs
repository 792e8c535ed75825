//! Sparse-kernel parity tests: the min-degree sparse LU, which runs every
//! linear circuit, must reproduce the dense kernels within 1e-9 V on every
//! probed node, for both integration methods — on 1-, 5- and 40-segment
//! far-end handoff ladders, a long RLC ladder, a 3-sink RLC tree, and a
//! capacitively/inductively coupled two-line bus — and it must degrade to
//! dense LU (not to a wrong answer) when the stamp is ill-conditioned.

use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::prelude::*;
use rlc_spice::source::SourceWaveform;
use rlc_spice::testbench::pwl_source_with_rlc_line;

const PARITY_TOLERANCE_V: f64 = 1e-9;

/// Runs `ckt` under the legacy dense kernel and the explicit sparse kernel,
/// checks the sparse run really executed sparsely, and asserts every listed
/// node waveform matches within the parity tolerance for both methods.
fn assert_sparse_parity(label: &str, ckt: &Circuit, nodes: &[&str], time_step: f64, stop: f64) {
    for method in [
        IntegrationMethod::Trapezoidal,
        IntegrationMethod::BackwardEuler,
    ] {
        let dense = TransientAnalysis::new(
            TransientOptions::try_new(time_step, stop)
                .unwrap()
                .with_method(method)
                .with_strategy(KernelStrategy::LegacyFull),
        )
        .run(ckt)
        .unwrap();
        let sparse = TransientAnalysis::new(
            TransientOptions::try_new(time_step, stop)
                .unwrap()
                .with_method(method)
                .with_strategy(KernelStrategy::Sparse),
        )
        .run(ckt)
        .unwrap();
        assert_eq!(
            sparse.strategy(),
            KernelStrategy::Sparse,
            "{label}: sparse run fell back"
        );
        assert_eq!(dense.num_points(), sparse.num_points());
        for node in nodes {
            let a = dense.waveform_by_name(node).unwrap();
            let b = sparse.waveform_by_name(node).unwrap();
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

/// Appends an RLC ladder of `segments` sections after `from`, naming nodes
/// `{prefix}_n{k}`, and returns the far-end node.
#[allow(clippy::too_many_arguments)]
fn stamp_ladder(
    ckt: &mut Circuit,
    from: NodeId,
    r_total: f64,
    l_total: f64,
    c_total: f64,
    segments: usize,
    c_load: f64,
    prefix: &str,
) -> NodeId {
    let n = segments as f64;
    let mut prev = from;
    let mut far = from;
    for k in 0..segments {
        let mid = ckt.node(&format!("{prefix}_m{k}"));
        let node = ckt.node(&format!("{prefix}_n{k}"));
        ckt.add_resistor(format!("R_{prefix}_{k}"), prev, mid, r_total / n);
        ckt.add_inductor(format!("L_{prefix}_{k}"), mid, node, l_total / n);
        ckt.add_capacitor(
            format!("C_{prefix}_{k}"),
            node,
            Circuit::GROUND,
            c_total / n,
        );
        prev = node;
        far = node;
    }
    if c_load > 0.0 {
        ckt.add_capacitor(format!("CL_{prefix}"), far, Circuit::GROUND, c_load);
    }
    far
}

/// The paper's flagship 5 mm line at 64 segments: 194 MNA unknowns, with a
/// stiff RLC companion matrix.
#[test]
fn sparse_ladder_matches_dense() {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    stamp_ladder(
        &mut ckt,
        src,
        72.44,
        nh(5.14),
        pf(1.10),
        64,
        ff(10.0),
        "line",
    );
    ckt.set_initial_condition(src, 0.0);
    assert_sparse_parity(
        "ladder-64seg",
        &ckt,
        &["line_n31", "line_n63"],
        ps(2.0),
        ps(600.0),
    );
}

/// A 3-sink RLC routing tree — trunk then an asymmetric double split — so the
/// sparse fill-reducing ordering sees genuine branching structure rather
/// than a pure chain.
#[test]
fn sparse_three_sink_tree_matches_dense() {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    let trunk = stamp_ladder(&mut ckt, src, 40.0, nh(2.0), pf(0.5), 8, 0.0, "trunk");
    let split = stamp_ladder(&mut ckt, trunk, 60.0, nh(1.5), pf(0.3), 8, 0.0, "mid");
    stamp_ladder(
        &mut ckt,
        trunk,
        80.0,
        nh(1.0),
        pf(0.25),
        8,
        ff(20.0),
        "sink0",
    );
    stamp_ladder(
        &mut ckt,
        split,
        90.0,
        nh(0.8),
        pf(0.2),
        8,
        ff(12.0),
        "sink1",
    );
    stamp_ladder(
        &mut ckt,
        split,
        90.0,
        nh(0.8),
        pf(0.2),
        8,
        ff(18.0),
        "sink2",
    );
    ckt.set_initial_condition(src, 0.0);
    assert_sparse_parity(
        "tree-3sink",
        &ckt,
        &["sink0_n7", "sink1_n7", "sink2_n7"],
        ps(2.0),
        ps(600.0),
    );
}

/// Victim/aggressor bus: two 24-segment RLC lines tied together by
/// per-segment coupling capacitors and mutual inductances. The off-diagonal
/// coupling stamps break the tridiagonal-ish structure the other fixtures
/// have, which is exactly where a bad ordering or symbolic-reuse bug in the
/// sparse LU would show up.
#[test]
fn sparse_coupled_bus_matches_dense() {
    let mut ckt = Circuit::new();
    let drv_v = ckt.node("drv_v");
    let drv_a = ckt.node("drv_a");
    ckt.add_vsource(
        "VV",
        drv_v,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    ckt.add_vsource(
        "VA",
        drv_a,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, ps(40.0), ps(80.0)),
    );
    let segments = 24usize;
    stamp_ladder(
        &mut ckt,
        drv_v,
        72.44,
        nh(5.14),
        pf(1.10),
        segments,
        ff(10.0),
        "vic",
    );
    stamp_ladder(
        &mut ckt,
        drv_a,
        72.44,
        nh(5.14),
        pf(1.10),
        segments,
        ff(10.0),
        "agg",
    );
    let cc_total = pf(0.4);
    let m_per_seg = nh(5.14) * 0.3 / segments as f64;
    for k in 0..segments {
        let v = ckt.node(&format!("vic_n{k}"));
        let a = ckt.node(&format!("agg_n{k}"));
        ckt.add_capacitor(format!("CC{k}"), v, a, cc_total / segments as f64);
        ckt.add_mutual_inductance(
            format!("K{k}"),
            format!("L_vic_{k}"),
            format!("L_agg_{k}"),
            m_per_seg,
        );
    }
    ckt.set_initial_condition(drv_v, 0.0);
    ckt.set_initial_condition(drv_a, 0.0);
    assert_sparse_parity(
        "coupled-bus",
        &ckt,
        &["vic_n23", "agg_n23"],
        ps(2.0),
        ps(600.0),
    );
}

/// Far-end handoff ladders — an ideal ramp source with an initial-condition
/// start driving the flagship line, the circuit a timing session
/// propagates between stages — at the small sizes that run the sparse
/// kernel like every other linear circuit: 1 segment (5 unknowns),
/// 5 segments (17) and the default 40-segment handoff (122).
#[test]
fn sparse_handoff_ladders_match_dense() {
    for segments in [1usize, 5, 40] {
        let (ckt, _) = pwl_source_with_rlc_line(
            SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
            0.0,
            72.44,
            nh(5.14),
            pf(1.10),
            segments,
            ff(10.0),
        );
        let far = format!("line_n{}", segments - 1);
        assert_sparse_parity(
            &format!("handoff-{segments}seg"),
            &ckt,
            &["line_m0", &far],
            ps(1.0),
            ps(500.0),
        );
    }
}

/// An ill-conditioned stamp (floating node carrying only the gmin pivot)
/// must make the explicit sparse request degrade to the dense factor-once
/// kernel — recorded as such — while still producing the dense answer.
#[test]
fn ill_conditioned_stamp_degrades_to_dense() {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    ckt.add_vsource(
        "V1",
        src,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    stamp_ladder(
        &mut ckt,
        src,
        72.44,
        nh(5.14),
        pf(1.10),
        40,
        ff(10.0),
        "line",
    );
    ckt.set_initial_condition(src, 0.0);
    let _floating = ckt.node("floating");

    let opts = TransientOptions::try_new(ps(1.0), ps(400.0))
        .unwrap()
        .with_strategy(KernelStrategy::Sparse);
    let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
    assert_eq!(res.strategy(), KernelStrategy::FactorOnce);
    assert!(
        res.degraded_to_dense(),
        "the silent degrade must be observable (it feeds the L030 lint)"
    );

    let reference = TransientAnalysis::new(
        TransientOptions::try_new(ps(1.0), ps(400.0))
            .unwrap()
            .with_strategy(KernelStrategy::LegacyFull),
    )
    .run(&ckt)
    .unwrap();
    let a = res.waveform_by_name("line_n39").unwrap();
    let b = reference.waveform_by_name("line_n39").unwrap();
    for (x, y) in a.values().iter().zip(b.values()) {
        assert!((x - y).abs() < PARITY_TOLERANCE_V);
    }
}
