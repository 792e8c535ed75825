//! Integration tests of the variation engine: Monte-Carlo distribution
//! parity against independent per-sample runs, bit-identical seed
//! determinism, multi-corner sweeps through the reduced-order backend, and
//! corner-consistent path chaining.

use std::sync::Arc;

use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::interconnect::{CoupledBus, RlcLine, RlcTree};
use rlc_ceff_suite::lint::codes;
use rlc_ceff_suite::moments::PiModel;
use rlc_ceff_suite::numeric::units::{ff, mm, nh, pf, ps};
use rlc_ceff_suite::{
    AggressorSpec, BackendChoice, CoupledBusLoad, DistributedRlcLoad, EngineConfig, EngineError,
    LoadModel, LumpedCapLoad, MomentsLoad, PiModelLoad, ReducedOrderBackend, RlcTreeLoad, Stage,
    TimingEngine, VariationModel, VariationSpec,
};

mod common;
use common::{paper_line, synthetic_cell};

fn fast_engine() -> TimingEngine {
    TimingEngine::new(EngineConfig::fast_for_tests())
}

/// An RC-dominated line whose single-branch tree reduces cleanly, so the
/// reduced-order backend never has to fall back to the simulator.
fn rc_line() -> RlcLine {
    RlcLine::new(200.0, nh(0.5), pf(1.0), mm(3.0))
}

/// Hand-rolls the facade's per-sample scaling with public API only: the
/// driver supply and on-resistance rescaled, every line element and sink
/// load revalued. The batched engine must agree with this naive build
/// exactly.
fn naive_scaled_stage(spec: &VariationSpec, line: &RlcLine, c_load: f64) -> Stage {
    let cell = synthetic_cell(75.0, 70.0);
    let mut inverter = *cell.spec();
    inverter.vdd *= spec.source_scale;
    let driver = DriverCell::from_parts(
        inverter,
        cell.table().clone(),
        cell.on_resistance() * spec.effective_r_scale(),
    );
    let scaled = RlcLine::new(
        line.resistance() * spec.effective_r_scale(),
        line.inductance() * spec.l_scale,
        line.capacitance() * spec.c_scale,
        line.length(),
    );
    Stage::builder(
        driver,
        DistributedRlcLoad::new(scaled, c_load * spec.c_scale).unwrap(),
    )
    .input_slew(ps(100.0))
    .backend(BackendChoice::Spice)
    .build()
    .unwrap()
}

#[test]
fn monte_carlo_distribution_matches_independent_runs() {
    let engine = fast_engine();
    let line = paper_line();
    let c_load = ff(10.0);
    let model = VariationModel::default();

    let stage = Stage::builder(
        synthetic_cell(75.0, 70.0),
        DistributedRlcLoad::new(line, c_load).unwrap(),
    )
    .label("mc-net")
    .input_slew(ps(100.0))
    .backend(BackendChoice::Spice)
    .monte_carlo(16, 42, model)
    .build()
    .unwrap();
    assert_eq!(stage.variation_samples().len(), 16);

    let report = engine.analyze_distribution(&stage).unwrap();
    assert_eq!(report.num_samples(), 16);
    assert_eq!(report.label(), "mc-net");

    // The plan must be exactly the model's seeded draws, in order, and every
    // batched sample must agree with a naive independent rebuild-and-analyze
    // of the same spec to the last bit.
    let specs = model.samples(16, 42);
    for (i, sample) in report.samples().iter().enumerate() {
        assert_eq!(sample.spec, specs[i], "plan order must follow seed order");
        let naive = engine
            .analyze(&naive_scaled_stage(&specs[i], &line, c_load))
            .unwrap();
        assert_eq!(
            sample.delay.to_bits(),
            naive.delay.to_bits(),
            "sample {i}: batched delay {:e} != naive delay {:e}",
            sample.delay,
            naive.delay
        );
        assert_eq!(sample.slew.to_bits(), naive.slew.to_bits());
        assert_eq!(sample.backend, "rlc-spice");
        let noise = sample.peak_noise.expect("spice samples carry a far end");
        let naive_far = naive.simulated_far_end.as_ref().unwrap();
        assert_eq!(
            noise.to_bits(),
            naive_far.waveform().overshoot(naive.vdd).to_bits()
        );
    }

    // The summaries reduce those samples.
    let mean: f64 =
        report.samples().iter().map(|s| s.delay).sum::<f64>() / report.num_samples() as f64;
    assert!((report.delay().mean - mean).abs() <= 1e-15 * mean.abs());
    let (worst, sample) = report.worst_sample();
    assert_eq!(sample.delay, report.delay().max);
    assert_eq!(report.samples()[worst].delay, report.delay().max);
}

#[test]
fn same_seed_is_bit_identical_across_runs() {
    let engine = fast_engine();
    let build = |seed: u64| {
        Stage::builder(
            synthetic_cell(75.0, 70.0),
            DistributedRlcLoad::new(rc_line(), ff(20.0)).unwrap(),
        )
        .label("seeded")
        .input_slew(ps(80.0))
        .monte_carlo(24, seed, VariationModel::default())
        .build()
        .unwrap()
    };
    let a = engine.analyze_distribution(&build(7)).unwrap();
    let b = engine.analyze_distribution(&build(7)).unwrap();
    for (x, y) in a.samples().iter().zip(b.samples()) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.delay.to_bits(), y.delay.to_bits());
        assert_eq!(x.slew.to_bits(), y.slew.to_bits());
    }
    for (x, y) in [(a.delay(), b.delay()), (a.slew(), b.slew())] {
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        assert_eq!(x.std_dev.to_bits(), y.std_dev.to_bits());
        assert_eq!(x.min.to_bits(), y.min.to_bits());
        assert_eq!(x.max.to_bits(), y.max.to_bits());
        assert_eq!(x.p50.to_bits(), y.p50.to_bits());
        assert_eq!(x.p95.to_bits(), y.p95.to_bits());
        assert_eq!(x.p99.to_bits(), y.p99.to_bits());
    }
    assert_eq!(a.worst_sample().0, b.worst_sample().0);

    // A different seed perturbs the distribution.
    let c = engine.analyze_distribution(&build(8)).unwrap();
    assert_ne!(a.delay().mean.to_bits(), c.delay().mean.to_bits());
}

#[test]
fn corner_sweep_through_the_reduced_order_backend() {
    let engine = fast_engine();
    let mut tree = RlcTree::new();
    let trunk = tree.add_branch(None, rc_line());
    tree.set_sink(trunk, "rx", ff(25.0));

    let fast = VariationSpec::nominal().with_r_scale(0.8).with_c_scale(0.9);
    let slow = VariationSpec::nominal().with_r_scale(1.3).with_c_scale(1.2);
    let stage = Stage::builder(synthetic_cell(75.0, 70.0), RlcTreeLoad::new(tree).unwrap())
        .label("corner-net")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Custom(Arc::new(ReducedOrderBackend::new())))
        .corners([fast, VariationSpec::nominal(), slow])
        .build()
        .unwrap();

    let report = engine.analyze_distribution(&stage).unwrap();
    assert_eq!(report.num_samples(), 3);
    for sample in report.samples() {
        assert_eq!(
            sample.backend, "reduced-order",
            "every corner must be answered in moment space, not by fallback"
        );
        assert!(sample.peak_noise.is_some(), "the ROM models the far end");
    }
    // Near-end delay is NOT monotone in the RC corner (a larger wire R
    // shields the far capacitance), so only assert that the corners actually
    // perturb the answer and that the witness is the true argmax.
    let delays: Vec<f64> = report.samples().iter().map(|s| s.delay).collect();
    assert!(delays[0] != delays[1] && delays[1] != delays[2] && delays[0] != delays[2]);
    let argmax = delays
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    assert_eq!(report.worst_sample().0, argmax);
}

#[test]
fn path_distribution_chains_corner_consistently() {
    let engine = fast_engine();
    let line = rc_line();
    let slow = VariationSpec::nominal()
        .with_r_scale(1.25)
        .with_c_scale(1.15)
        .with_source_scale(0.95);

    let head = Stage::builder(
        synthetic_cell(75.0, 70.0),
        DistributedRlcLoad::new(line, ff(15.0)).unwrap(),
    )
    .label("p1")
    .input_slew(ps(100.0))
    .backend(BackendChoice::Spice)
    .corners([VariationSpec::nominal(), slow])
    .build()
    .unwrap();
    // The tail's declared input is a placeholder: each sample is rewired to
    // consume the matching sample of the head.
    let tail = Stage::builder(
        synthetic_cell(25.0, 220.0),
        DistributedRlcLoad::new(line, ff(5.0)).unwrap(),
    )
    .label("p2")
    .input_slew(ps(50.0))
    .backend(BackendChoice::Spice)
    .build()
    .unwrap();

    let reports = engine.analyze_path_distribution(&[head, tail]).unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].label(), "p1");
    assert_eq!(reports[1].label(), "p2");
    assert_eq!(reports[1].num_samples(), 2);

    // Golden cross-check of the slow corner: hand-chain the two scaled
    // stages through a session. Sample 1 of the tail must have consumed the
    // far end of sample 1 of the head — bit-identically.
    let s1 = naive_scaled_stage(&slow, &line, ff(15.0));
    let cell = synthetic_cell(25.0, 220.0);
    let mut inverter = *cell.spec();
    inverter.vdd *= slow.source_scale;
    let tail_driver = DriverCell::from_parts(
        inverter,
        cell.table().clone(),
        cell.on_resistance() * slow.effective_r_scale(),
    );
    let scaled_line = RlcLine::new(
        line.resistance() * slow.effective_r_scale(),
        line.inductance() * slow.l_scale,
        line.capacitance() * slow.c_scale,
        line.length(),
    );
    let mut session = engine.session();
    let h1 = session.submit(s1).unwrap();
    let s2 = Stage::builder(
        tail_driver,
        DistributedRlcLoad::new(scaled_line, ff(5.0) * slow.c_scale).unwrap(),
    )
    .backend(BackendChoice::Spice)
    .input_from(h1)
    .build()
    .unwrap();
    let h2 = session.submit(s2).unwrap();
    let outcomes = session.wait_all();
    let golden = outcomes[h2.index()].1.as_ref().unwrap();

    let sample = &reports[1].samples()[1];
    assert_eq!(
        sample.delay.to_bits(),
        golden.delay.to_bits(),
        "tail slow-corner delay {:e} != hand-chained {:e}",
        sample.delay,
        golden.delay
    );
    assert_eq!(sample.slew.to_bits(), golden.slew.to_bits());

    // And the slow corner is strictly slower than nominal on both stages.
    for report in &reports {
        assert!(report.samples()[1].delay > report.samples()[0].delay);
    }
}

#[test]
fn variation_plan_validation_and_unsupported_loads() {
    let engine = fast_engine();
    let plain = Stage::builder(
        synthetic_cell(75.0, 70.0),
        DistributedRlcLoad::new(rc_line(), ff(10.0)).unwrap(),
    )
    .input_slew(ps(100.0))
    .build()
    .unwrap();
    match engine.analyze_distribution(&plain) {
        Err(EngineError::InvalidStage { what }) => {
            assert!(what.contains("no variation plan"), "got: {what}")
        }
        other => panic!("expected InvalidStage, got {other:?}"),
    }
    assert!(matches!(
        engine.analyze_path_distribution(&[]),
        Err(EngineError::InvalidStage { .. })
    ));

    // A corner outside the physical range is rejected at build time.
    assert!(Stage::builder(
        synthetic_cell(75.0, 70.0),
        DistributedRlcLoad::new(rc_line(), ff(10.0)).unwrap(),
    )
    .input_slew(ps(100.0))
    .corners([VariationSpec::nominal().with_r_scale(-1.0)])
    .build()
    .is_err());

    // Moment-space loads have no netlist to revalue: a typed Unsupported,
    // not a crash.
    let moments = rlc_ceff_suite::moments::distributed_admittance_moments(&rc_line(), ff(10.0), 5);
    let abstract_stage = Stage::builder(
        synthetic_cell(75.0, 70.0),
        MomentsLoad::new(moments).unwrap(),
    )
    .input_slew(ps(100.0))
    .corners([VariationSpec::nominal()])
    .build()
    .unwrap();
    match engine.analyze_distribution(&abstract_stage) {
        Err(EngineError::Unsupported { what }) => {
            assert!(what.contains("revalued"), "got: {what}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // A zero supply scale is no corner: rejected at build time (L040).
    let err = Stage::builder(
        synthetic_cell(75.0, 70.0),
        DistributedRlcLoad::new(rc_line(), ff(10.0)).unwrap(),
    )
    .input_slew(ps(100.0))
    .corners([VariationSpec::nominal().with_source_scale(0.0)])
    .build()
    .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("L040") && message.contains("source_scale"),
        "{message}"
    );

    // Corners that pass L040 but underflow or overflow a revalued element:
    // an L041 lint error for every built-in netlist load, never a panic.
    let line = rc_line();
    let mut tree = RlcTree::new();
    let trunk = tree.add_branch(None, line);
    let stub = tree.add_branch(Some(trunk), line);
    tree.set_sink(stub, "rx", ff(10.0));
    let bus = CoupledBusLoad::new(
        CoupledBus::symmetric(line, pf(0.2), nh(0.2), ff(10.0)),
        AggressorSpec::quiet(1.8).unwrap(),
    )
    .unwrap();
    let pi = PiModel {
        c_near: ff(100.0),
        resistance: 120.0,
        c_far: ff(400.0),
    };
    let underflow = VariationSpec::nominal().with_c_scale(1e-320);
    // A line capacitance left subnormal: positive, but its per-segment split
    // rounds to zero.
    let subnormal = VariationSpec::nominal().with_c_scale(1e-310);
    let line: Arc<dyn LoadModel> = Arc::new(DistributedRlcLoad::new(line, ff(10.0)).unwrap());
    let tree: Arc<dyn LoadModel> = Arc::new(RlcTreeLoad::new(tree).unwrap());
    let bus: Arc<dyn LoadModel> = Arc::new(bus);
    let cases: Vec<(Arc<dyn LoadModel>, VariationSpec)> = vec![
        (Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()), underflow),
        (Arc::new(PiModelLoad::new(pi).unwrap()), underflow),
        (line.clone(), underflow),
        (line, subnormal),
        (tree.clone(), underflow),
        (tree, subnormal),
        (bus.clone(), underflow),
        (bus.clone(), subnormal),
        (bus, VariationSpec::nominal().with_l_scale(1e300)),
    ];
    for (load, corner) in cases {
        assert!(corner.validate().is_ok(), "{corner:?} is a valid spec");
        let what = load.describe();
        let stage = Stage::builder_shared(synthetic_cell(75.0, 70.0).into(), load)
            .label("corner")
            .input_slew(ps(100.0))
            .corners([corner])
            .build()
            .unwrap();
        match engine.analyze_distribution(&stage) {
            Err(EngineError::Lint { label, diagnostics }) => {
                assert_eq!(label, "corner@s0", "{what}");
                assert_eq!(diagnostics.len(), 1, "{what}: {diagnostics:?}");
                assert_eq!(diagnostics[0].code, codes::VARIATION_NON_PASSIVE, "{what}");
            }
            other => panic!("{what} at {corner:?}: expected an L041 lint, got {other:?}"),
        }
    }
}
