//! Integration tests of the `TimingEngine` facade: heterogeneous batches
//! with per-stage error recovery, analytic-vs-simulation backend parity, and
//! trait-object safety of the extension points.

use std::sync::Arc;

use rlc_ceff_suite::charlib::{CharacterizationGrid, DriverCell};
use rlc_ceff_suite::interconnect::RlcLine;
use rlc_ceff_suite::moments::PiModel;
use rlc_ceff_suite::numeric::units::{ff, mm, nh, pf, ps};
use rlc_ceff_suite::{
    AnalysisBackend, BackendChoice, DistributedRlcLoad, DriverModel, EngineConfig, EngineError,
    LoadModel, LumpedCapLoad, MomentsLoad, PiModelLoad, Stage, StageReport, TimingEngine,
};

mod common;
use common::{paper_line, synthetic_cell};

fn fast_engine() -> TimingEngine {
    TimingEngine::new(EngineConfig::fast_for_tests())
}

/// The acceptance-criteria batch: ≥ 8 heterogeneous stages mixing all four
/// load models and both backends, with one deliberately degenerate stage —
/// every stage gets a report slot and the degenerate one fails alone.
#[test]
fn heterogeneous_batch_recovers_per_stage() {
    let strong = Arc::new(synthetic_cell(75.0, 70.0));
    let weak = Arc::new(synthetic_cell(25.0, 220.0));
    let line = paper_line();
    let short_line = RlcLine::new(43.5, nh(3.1), pf(0.66), mm(3.0));

    let pi = PiModel {
        c_near: 0.2e-12,
        resistance: 150.0,
        c_far: 0.7e-12,
    };
    let healthy_moments =
        rlc_ceff_suite::moments::distributed_admittance_moments(&line, ff(10.0), 5);

    let stages = vec![
        // 1: the flagship inductive net, analytic -> two-ramp.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(DistributedRlcLoad::new(line, ff(10.0)).unwrap()),
        )
        .label("flagship")
        .input_slew(ps(100.0))
        .build()
        .unwrap(),
        // 2: weak driver on the same wire, analytic -> single ramp.
        Stage::builder_shared(
            weak.clone(),
            Arc::new(DistributedRlcLoad::new(line, ff(10.0)).unwrap()),
        )
        .label("weak-driver")
        .input_slew(ps(100.0))
        .build()
        .unwrap(),
        // 3: a lumped capacitive load.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(LumpedCapLoad::new(ff(400.0)).unwrap()),
        )
        .label("lumped")
        .input_slew(ps(100.0))
        .build()
        .unwrap(),
        // 4: an RC pi load.
        Stage::builder_shared(strong.clone(), Arc::new(PiModelLoad::new(pi).unwrap()))
            .label("pi")
            .input_slew(ps(100.0))
            .build()
            .unwrap(),
        // 5: a moment-space load with healthy moments.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(MomentsLoad::new(healthy_moments).unwrap()),
        )
        .label("moments")
        .input_slew(ps(100.0))
        .build()
        .unwrap(),
        // 6: the DEGENERATE stage — a pure capacitor disguised as five
        // moments; the rational fit fails at analysis time.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(MomentsLoad::new(vec![1e-12, 0.0, 0.0, 0.0, 0.0]).unwrap()),
        )
        .label("degenerate")
        .input_slew(ps(100.0))
        .build()
        .unwrap(),
        // 7: the golden simulation backend on a lumped load.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(LumpedCapLoad::new(ff(300.0)).unwrap()),
        )
        .label("sim-lumped")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Spice)
        .build()
        .unwrap(),
        // 8: the golden simulation backend on a short RLC line.
        Stage::builder_shared(
            strong.clone(),
            Arc::new(DistributedRlcLoad::new(short_line, ff(10.0)).unwrap()),
        )
        .label("sim-line")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Spice)
        .build()
        .unwrap(),
        // 9: a different slew on the flagship net.
        Stage::builder_shared(
            strong,
            Arc::new(DistributedRlcLoad::new(line, ff(10.0)).unwrap()),
        )
        .label("fast-input")
        .input_slew(ps(50.0))
        .build()
        .unwrap(),
    ];

    let mut session = fast_engine().session();
    session.submit_all(stages.iter().cloned()).unwrap();
    let results = session.wait_all();
    assert_eq!(results.len(), 9);
    let succeeded: Vec<(usize, &StageReport)> = results
        .iter()
        .filter_map(|(handle, r)| r.as_ref().ok().map(|report| (handle.index(), report)))
        .collect();
    let failures: Vec<(usize, &EngineError)> = results
        .iter()
        .filter_map(|(handle, r)| r.as_ref().err().map(|e| (handle.index(), e)))
        .collect();
    assert_eq!(failures.len(), 1, "only the degenerate stage may fail");
    assert_eq!(succeeded.len(), 8);

    // The failure is the degenerate stage, with a chained load error.
    let (index, error) = failures[0];
    assert_eq!(stages[index].label(), "degenerate");
    assert!(matches!(error, EngineError::Load { .. }));
    assert!(std::error::Error::source(error).is_some());

    // Reports come back in input order with the expected shapes.
    for (i, (handle, _)) in results.iter().enumerate() {
        assert_eq!(handle.index(), i);
    }
    for (i, report) in &succeeded {
        assert_eq!(report.label, stages[*i].label());
    }
    let by_label = |label: &str| {
        succeeded
            .iter()
            .find(|(i, _)| stages[*i].label() == label)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| panic!("no report for {label}"))
    };
    assert!(by_label("flagship").used_two_ramp);
    assert!(!by_label("weak-driver").used_two_ramp);
    assert!(!by_label("lumped").used_two_ramp);
    assert!(!by_label("pi").used_two_ramp);
    assert_eq!(by_label("sim-lumped").backend, "rlc-spice");
    assert!(by_label("sim-line").simulated_far_end.is_some());
    for (_, report) in &succeeded {
        assert!(report.delay > 0.0, "{}", report.describe());
        assert!(report.slew > 0.0, "{}", report.describe());
    }
    // The pi load shields the far capacitance: its Ceff is below the total.
    let pi_details = by_label("pi").analytic.as_ref().unwrap();
    assert!(pi_details.ceff1.ceff < pi.total_capacitance());
    assert!(pi_details.ceff1.ceff > pi.c_near);
}

/// Backend parity on the canonical stage: with a real characterized cell the
/// analytic flow must land within the loose coarse-fidelity error bands of
/// the golden simulation (the same bands the pre-facade end-to-end test
/// used).
#[test]
fn analytic_and_spice_backends_agree_on_the_flagship_stage() {
    let cell = Arc::new(
        DriverCell::characterize(75.0, &CharacterizationGrid::coarse_for_tests())
            .expect("characterization failed"),
    );
    let load: Arc<dyn LoadModel> =
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap());
    let analytic_stage = Stage::builder_shared(cell.clone(), load.clone())
        .label("analytic")
        .input_slew(ps(100.0))
        .build()
        .unwrap();
    let spice_stage = Stage::builder_shared(cell, load)
        .label("golden")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Spice)
        .build()
        .unwrap();

    let engine = fast_engine();
    let mut session = engine.session();
    session.submit_all([analytic_stage, spice_stage]).unwrap();
    let results = session.wait_all();
    for (handle, outcome) in &results {
        assert!(outcome.is_ok(), "{handle}: {outcome:?}");
    }
    let analytic = results[0].1.as_ref().unwrap();
    let golden = results[1].1.as_ref().unwrap();

    assert!(
        analytic.used_two_ramp,
        "the 75X / 5 mm case must be inductive"
    );
    let delay_error = (analytic.delay - golden.delay) / golden.delay;
    let slew_error = (analytic.slew - golden.slew) / golden.slew;
    assert!(
        delay_error.abs() < 0.30,
        "delay error {:.1}% (sim {:.1} ps, model {:.1} ps)",
        delay_error * 100.0,
        golden.delay * 1e12,
        analytic.delay * 1e12
    );
    assert!(
        slew_error.abs() < 0.45,
        "slew error {:.1}%",
        slew_error * 100.0
    );

    // The two waveforms are exercisable through the same trait object.
    for report in [analytic, golden] {
        let w = &report.waveform;
        assert!(w.v(w.end_time() + ps(500.0)) > 0.9 * report.vdd);
        assert!(w.to_source(5e-9).value_at(4.9e-9) > 0.9 * report.vdd);
    }
}

/// `DriverModel`, `LoadModel` and `AnalysisBackend` must all be usable as
/// trait objects (the facade's extension seams).
#[test]
fn extension_traits_are_object_safe() {
    // dyn LoadModel over every built-in load.
    let loads: Vec<Box<dyn LoadModel>> = vec![
        Box::new(LumpedCapLoad::new(ff(100.0)).unwrap()),
        Box::new(
            PiModelLoad::new(PiModel {
                c_near: 0.1e-12,
                resistance: 100.0,
                c_far: 0.4e-12,
            })
            .unwrap(),
        ),
        Box::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
        Box::new(MomentsLoad::new(vec![1e-12, -1e-23, 1e-34, -2e-45, 3e-56]).unwrap()),
    ];
    for load in &loads {
        assert!(load.total_capacitance() > 0.0);
        assert!(!load.describe().is_empty());
    }

    // dyn AnalysisBackend: a custom backend that delegates to the analytic
    // one but stamps its own name.
    #[derive(Debug)]
    struct Relabeled;
    impl AnalysisBackend for Relabeled {
        fn name(&self) -> &'static str {
            "relabeled"
        }
        fn analyze(
            &self,
            stage: &Stage,
            config: &EngineConfig,
        ) -> Result<rlc_ceff_suite::StageReport, EngineError> {
            let mut report = rlc_ceff_suite::AnalyticBackend.analyze(stage, config)?;
            report.backend = self.name();
            Ok(report)
        }
    }

    let cell = synthetic_cell(75.0, 70.0);
    let stage = Stage::builder(cell, LumpedCapLoad::new(ff(200.0)).unwrap())
        .label("custom-backend")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Custom(Arc::new(Relabeled)))
        .build()
        .unwrap();
    let report = fast_engine().analyze(&stage).unwrap();
    assert_eq!(report.backend, "relabeled");

    // dyn DriverModel comes back in the report and behaves like a waveform.
    let w: &Arc<dyn DriverModel> = &report.waveform;
    assert_eq!(w.v(0.0), 0.0);
    assert!(w.slew() > 0.0);
}

/// The builder path returns errors (not panics) for malformed stages, and
/// the resulting error messages say what was wrong.
#[test]
fn malformed_stages_error_instead_of_panicking() {
    let cell = synthetic_cell(75.0, 70.0);
    let err = Stage::builder(cell.clone(), LumpedCapLoad::new(ff(100.0)).unwrap())
        .input_slew(-1.0e-12)
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidStage { .. }));
    assert!(err.to_string().contains("slew"));

    // Bad loads are rejected at load-construction time.
    assert!(LumpedCapLoad::new(0.0).is_err());
    assert!(DistributedRlcLoad::new(paper_line(), f64::NAN).is_err());
    assert!(MomentsLoad::new(vec![]).is_err());

    // A moment-space load cannot run on the simulation backend: per-stage
    // Unsupported error, not a crash.
    let healthy_moments =
        rlc_ceff_suite::moments::distributed_admittance_moments(&paper_line(), ff(10.0), 5);
    let stage = Stage::builder(cell, MomentsLoad::new(healthy_moments).unwrap())
        .label("moments-on-spice")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Spice)
        .build()
        .unwrap();
    let mut session = fast_engine().session();
    session.submit(stage).unwrap();
    let results = session.wait_all();
    assert_eq!(results.iter().filter(|(_, r)| r.is_err()).count(), 1);
    assert!(matches!(results[0].1, Err(EngineError::Unsupported { .. })));
}
