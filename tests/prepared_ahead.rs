//! Preparation ahead in `AnalysisSession`: under per-case Rs extraction an
//! idle worker reduces a waiting analytic stage's load and extracts its Rs
//! while the stage's producer is still running. Observed through a load that
//! counts the `reduce()` calls made off the test's thread; nothing else
//! reduces a waiting consumer's load there (submit-time lint synthesizes the
//! netlist through `attach_net`, and no result cache is configured).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use rlc_ceff_suite::ceff::far_end::FarEndOptions;
use rlc_ceff_suite::ceff::{ReducedLoad, WaveParameters};
use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::numeric::units::{ff, ps};
use rlc_ceff_suite::spice::circuit::{Circuit, NodeId};
use rlc_ceff_suite::{
    AnalysisBackend, AnalyticBackend, BackendChoice, DistributedRlcLoad, EngineConfig, EngineError,
    LoadModel, SessionOptions, Stage, StageReport, TimingEngine, VariationSpec,
};

mod common;
use common::{paper_line, synthetic_cell};

/// A paper-line load that counts its `reduce()` calls from threads other
/// than the one that built it, and optionally panics in each of them.
#[derive(Debug)]
struct Watched {
    inner: DistributedRlcLoad,
    home: ThreadId,
    off_thread: AtomicUsize,
    panics: bool,
}

impl Watched {
    fn new(panics: bool) -> Arc<Watched> {
        Arc::new(Watched {
            inner: DistributedRlcLoad::new(paper_line(), ff(20.0)).unwrap(),
            home: std::thread::current().id(),
            off_thread: AtomicUsize::new(0),
            panics,
        })
    }

    fn off_thread(&self) -> usize {
        self.off_thread.load(Ordering::SeqCst)
    }
}

impl LoadModel for Watched {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        if std::thread::current().id() != self.home {
            self.off_thread.fetch_add(1, Ordering::SeqCst);
        }
        if self.panics {
            panic!("deliberate reduce() panic");
        }
        self.inner.reduce()
    }

    fn total_capacitance(&self) -> f64 {
        self.inner.total_capacitance()
    }

    fn wave(&self) -> Option<WaveParameters> {
        self.inner.wave()
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<NodeId, EngineError> {
        self.inner.attach(ckt, near, v_initial, segments)
    }

    fn describe(&self) -> String {
        format!("watched {}", self.inner.describe())
    }
}

/// A producer backend that holds its analysis until the watched consumer
/// load saw `until` off-thread `reduce()` calls, then delegates to the
/// analytic flow. It waits at most `patience`; past it, it fails when
/// `strict`, and proceeds otherwise. It records the count it saw on return.
#[derive(Debug)]
struct Holds {
    consumer: Arc<Watched>,
    until: usize,
    patience: Duration,
    strict: bool,
    seen: Arc<Mutex<Option<usize>>>,
}

impl Holds {
    fn new(consumer: &Arc<Watched>, until: usize, patience: Duration, strict: bool) -> Holds {
        Holds {
            consumer: consumer.clone(),
            until,
            patience,
            strict,
            seen: Arc::new(Mutex::new(None)),
        }
    }
}

impl AnalysisBackend for Holds {
    fn name(&self) -> &'static str {
        "holds"
    }

    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        let deadline = Instant::now() + self.patience;
        while self.consumer.off_thread() < self.until {
            if Instant::now() >= deadline {
                if self.strict {
                    return Err(EngineError::unsupported(format!(
                        "the consumer's load saw {} off-thread reduce() calls within {:?}, \
                         not {}",
                        self.consumer.off_thread(),
                        self.patience,
                        self.until
                    )));
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        *self.seen.lock().unwrap() = Some(self.consumer.off_thread());
        AnalyticBackend.analyze(stage, config)
    }
}

fn cell() -> Arc<DriverCell> {
    Arc::new(synthetic_cell(75.0, 70.0))
}

/// Per-case extraction (the default) on two workers, at the coarse golden
/// fidelity of the other debug-build suites.
fn engine(extract_rs_per_case: bool) -> TimingEngine {
    TimingEngine::new(EngineConfig {
        extract_rs_per_case,
        threads: 2,
        ..EngineConfig::fast_for_tests()
    })
}

/// Cheap handoff propagations.
fn options() -> SessionOptions {
    SessionOptions::default().with_far_end(FarEndOptions {
        segments: 12,
        time_step: ps(1.0),
        ..FarEndOptions::default()
    })
}

fn producer(cell: &Arc<DriverCell>, backend: Holds) -> Stage {
    Stage::builder_shared(
        cell.clone(),
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
    )
    .label("producer")
    .input_slew(ps(100.0))
    .backend(BackendChoice::Custom(Arc::new(backend)))
    .build()
    .unwrap()
}

#[test]
fn an_idle_worker_prepares_the_consumer_while_its_producer_runs() {
    let cell = cell();
    let load = Watched::new(false);
    let engine = engine(true);
    let mut session = engine.session_with(options());
    let hold = Holds::new(&load, 1, Duration::from_secs(30), true);
    let p = session.submit(producer(&cell, hold)).unwrap();
    session
        .submit(
            Stage::builder_shared(cell.clone(), load.clone())
                .label("consumer")
                .input_from(p)
                .build()
                .unwrap(),
        )
        .unwrap();
    let results = session.wait_all();
    let produced = results[0].1.as_ref();
    assert!(
        produced.is_ok(),
        "the producer never saw its consumer prepared: {produced:?}"
    );
    let report = results[1].1.as_ref().expect("the consumer succeeds");
    // Prepared once; the stage's own analysis read the prepared value.
    assert_eq!(load.off_thread(), 1);
    let used = report.analytic.as_ref().unwrap().driver_resistance;
    let extracted = cell.on_resistance_for_load(load.total_capacitance());
    assert_eq!(used.to_bits(), extracted.unwrap().to_bits());
}

#[test]
fn nothing_is_prepared_without_extraction_or_for_a_spice_consumer() {
    for (extract, backend) in [(false, None), (true, Some(BackendChoice::Spice))] {
        let cell = cell();
        let load = Watched::new(false);
        let engine = engine(extract);
        let mut session = engine.session_with(options());
        let hold = Holds::new(&load, 1, Duration::from_millis(200), false);
        let seen = hold.seen.clone();
        let p = session.submit(producer(&cell, hold)).unwrap();
        let mut consumer = Stage::builder_shared(cell.clone(), load.clone())
            .label("consumer")
            .input_from(p);
        if let Some(backend) = backend.clone() {
            consumer = consumer.backend(backend);
        }
        session.submit(consumer.build().unwrap()).unwrap();
        let results = session.wait_all();
        assert!(results.iter().all(|(_, r)| r.is_ok()), "{results:?}");
        assert_eq!(
            *seen.lock().unwrap(),
            Some(0),
            "extract {extract}, backend {backend:?}: the consumer was reduced before its \
             producer returned"
        );
    }
}

#[test]
fn a_panicking_prepare_is_contained() {
    let cell = cell();
    let load = Watched::new(true);
    let engine = engine(true);
    let mut session = engine.session_with(options());
    let hold = Holds::new(&load, 1, Duration::from_secs(30), true);
    let p = session.submit(producer(&cell, hold)).unwrap();
    let consumer = session
        .submit(
            Stage::builder_shared(cell.clone(), load.clone())
                .label("consumer")
                .input_from(p)
                .build()
                .unwrap(),
        )
        .unwrap();
    session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
            )
            .label("dependent")
            .input_from(consumer)
            .build()
            .unwrap(),
        )
        .unwrap();
    let results = session.wait_all();
    assert!(results[0].1.is_ok(), "{:?}", results[0].1);
    match &results[1].1 {
        Err(EngineError::StagePanicked { label, detail }) => {
            assert_eq!(label, "consumer");
            assert!(detail.contains("deliberate"), "{detail}");
        }
        other => panic!("expected the consumer's own panic, got {other:?}"),
    }
    assert!(
        matches!(&results[2].1, Err(EngineError::UpstreamFailed { .. })),
        "{:?}",
        results[2].1
    );

    // Both workers, the one that caught the prepare's panic included, keep
    // serving: two independent stages that only complete together.
    let meeting = Arc::new(AtomicUsize::new(0));
    for label in ["left", "right"] {
        let meets = Meets {
            inside: meeting.clone(),
            parties: 2,
        };
        session
            .submit(
                Stage::builder_shared(
                    cell.clone(),
                    Arc::new(DistributedRlcLoad::new(paper_line(), ff(30.0)).unwrap()),
                )
                .label(label)
                .input_slew(ps(80.0))
                .backend(BackendChoice::Custom(Arc::new(meets)))
                .build()
                .unwrap(),
            )
            .unwrap();
    }
    let results = session.wait_all();
    assert!(results[3..].iter().all(|(_, r)| r.is_ok()), "{results:?}");
    // The prepare's call and the stage's own analysis.
    assert_eq!(load.off_thread(), 2);
}

/// A backend that waits (at most 30 s) until `parties` stages are inside it
/// at once, then delegates to the analytic flow: such stages complete only
/// on that many live workers.
#[derive(Debug)]
struct Meets {
    inside: Arc<AtomicUsize>,
    parties: usize,
}

impl AnalysisBackend for Meets {
    fn name(&self) -> &'static str {
        "meets"
    }

    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        self.inside.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.inside.load(Ordering::SeqCst) < self.parties {
            if Instant::now() >= deadline {
                return Err(EngineError::unsupported(format!(
                    "fewer than {} workers are serving",
                    self.parties
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        AnalyticBackend.analyze(stage, config)
    }
}

#[test]
fn variation_samples_do_not_reuse_the_template_extraction() {
    let template = || {
        Stage::builder_shared(
            cell(),
            Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
        )
        .label("template")
        .input_slew(ps(100.0))
        // A lower supply changes the extracted Rs (a resistance scale alone
        // does not reach the extraction).
        .corners([
            VariationSpec::nominal().with_source_scale(0.9),
            VariationSpec::nominal(),
        ])
        .build()
        .unwrap()
    };
    let engine = engine(true);
    let warmed = template();
    engine.analyze(&warmed).unwrap();
    let bits = |stage: &Stage| -> Vec<[u64; 2]> {
        engine
            .analyze_distribution(stage)
            .unwrap()
            .samples()
            .iter()
            .map(|s| [s.delay.to_bits(), s.slew.to_bits()])
            .collect()
    };
    assert_eq!(bits(&warmed), bits(&template()));
}
