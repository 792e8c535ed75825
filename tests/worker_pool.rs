//! Integration tests of the engine's worker threads: sessions reuse the
//! threads of the sessions before them, sessions on many threads at once
//! compute exactly what one thread computes, and a session opened inside
//! another session's backend runs to completion.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use rlc_ceff_suite::ceff::far_end::FarEndOptions;
use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::numeric::units::{ff, ps};
use rlc_ceff_suite::{
    AnalysisBackend, AnalyticBackend, BackendChoice, DistributedRlcLoad, EngineConfig, EngineError,
    LoadModel, LumpedCapLoad, SessionOptions, Stage, StageReport, TimingEngine,
};

mod common;
use common::{paper_line, synthetic_cell};

fn engine_with_threads(threads: usize) -> TimingEngine {
    TimingEngine::new(EngineConfig {
        threads,
        ..EngineConfig::fast_for_tests()
    })
}

fn lumped_stage(cell: &Arc<DriverCell>, label: &str, backend: BackendChoice) -> Stage {
    Stage::builder_shared(
        cell.clone(),
        Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()),
    )
    .label(label)
    .input_slew(ps(100.0))
    .backend(backend)
    .build()
    .unwrap()
}

/// Records the thread each stage runs on. While `rendezvous` is nonzero,
/// each analysis first waits until that many analyses have arrived, so the
/// stages of one session are forced onto that many distinct threads.
#[derive(Debug, Default)]
struct ThreadLog {
    threads: Mutex<Vec<ThreadId>>,
    arrived: AtomicUsize,
    rendezvous: AtomicUsize,
}

impl AnalysisBackend for ThreadLog {
    fn name(&self) -> &'static str {
        "thread-log"
    }
    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        let width = self.rendezvous.load(Ordering::SeqCst);
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.arrived.load(Ordering::SeqCst) < width {
            if Instant::now() > deadline {
                return Err(EngineError::unsupported("the rendezvous timed out"));
            }
            std::thread::yield_now();
        }
        AnalyticBackend.analyze(stage, config)
    }
}

impl ThreadLog {
    fn take(&self) -> Vec<ThreadId> {
        std::mem::take(&mut *self.threads.lock().unwrap())
    }
}

/// Two sessions back to back on one engine: the second session's stages run
/// only on threads the first session's stages ran on.
#[test]
fn a_second_session_reuses_the_first_sessions_threads() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = engine_with_threads(2);
    let log = Arc::new(ThreadLog::default());
    let backend = || BackendChoice::Custom(log.clone());

    // Two stages that can only finish together occupy both loops.
    log.rendezvous.store(2, Ordering::SeqCst);
    {
        let mut session = engine.session();
        session
            .submit_all(["a", "b"].map(|label| lumped_stage(&cell, label, backend())))
            .unwrap();
        for (handle, outcome) in session.wait_all() {
            assert!(outcome.is_ok(), "{handle}: {outcome:?}");
        }
    }
    let first: HashSet<ThreadId> = log.take().into_iter().collect();
    assert_eq!(first.len(), 2, "the first session ran on two threads");

    log.rendezvous.store(0, Ordering::SeqCst);
    {
        let mut session = engine.session();
        session
            .submit_all((0..6).map(|i| lumped_stage(&cell, &format!("s{i}"), backend())))
            .unwrap();
        for (handle, outcome) in session.wait_all() {
            assert!(outcome.is_ok(), "{handle}: {outcome:?}");
        }
    }
    let second = log.take();
    assert_eq!(second.len(), 6);
    for id in &second {
        assert!(
            first.contains(id),
            "{id:?} is not one of the first session's threads {first:?}"
        );
    }
}

/// A three-stage path chained through far-end handoffs, plus two
/// independent stages.
fn run_paths(engine: &TimingEngine, cell: &Arc<DriverCell>) -> Vec<Vec<u64>> {
    let far_end = FarEndOptions {
        segments: 12,
        time_step: ps(1.0),
        ..FarEndOptions::default()
    };
    let line = || -> Arc<dyn LoadModel> {
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap())
    };
    let mut session = engine.session_with(SessionOptions::default().with_far_end(far_end));
    let mut previous = None;
    for (i, load) in [
        line(),
        line(),
        Arc::new(LumpedCapLoad::new(ff(300.0)).unwrap()),
    ]
    .into_iter()
    .enumerate()
    {
        let builder = Stage::builder_shared(cell.clone(), load).label(format!("path-{i}"));
        let builder = match previous {
            None => builder.input_slew(ps(100.0)),
            Some(handle) => builder.input_from(handle),
        };
        previous = Some(session.submit(builder.build().unwrap()).unwrap());
    }
    for (i, slew) in [80.0, 140.0].into_iter().enumerate() {
        let stage = Stage::builder_shared(cell.clone(), line())
            .label(format!("free-{i}"))
            .input_slew(ps(slew))
            .build()
            .unwrap();
        session.submit(stage).unwrap();
    }
    session
        .wait_all()
        .into_iter()
        .map(|(handle, outcome)| {
            let report = outcome.unwrap_or_else(|e| panic!("{handle}: {e}"));
            let end = report.waveform.end_time();
            [report.delay, report.slew, report.input_t50]
                .into_iter()
                .chain((0..=50).map(|k| report.waveform.v(end * k as f64 / 50.0)))
                .map(f64::to_bits)
                .collect()
        })
        .collect()
}

/// Four threads run sessions on one shared engine at once; every report
/// equals the sequential run's bit for bit.
#[test]
fn concurrent_sessions_on_one_engine_match_a_sequential_run() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = engine_with_threads(2);
    let reference = run_paths(&engine, &cell);
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..2)
                        .map(|_| run_paths(&engine, &cell))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for run in runs {
            for reports in run.join().unwrap() {
                assert_eq!(reports, reference);
            }
        }
    });
}

/// A backend that analyzes its stage through a session of its own, opened
/// on the same engine from inside the outer session's worker loop.
#[derive(Debug)]
struct Nested {
    engine: TimingEngine,
    cell: Arc<DriverCell>,
}

impl AnalysisBackend for Nested {
    fn name(&self) -> &'static str {
        "nested"
    }
    fn analyze(&self, stage: &Stage, _: &EngineConfig) -> Result<StageReport, EngineError> {
        let inner = Stage::builder_shared(self.cell.clone(), stage.load_shared())
            .label(format!("{}-inner", stage.label()))
            .input_slew(ps(100.0))
            .build()?;
        let mut session = self.engine.session();
        session.submit(inner)?;
        session.wait_all().pop().expect("one inner stage").1
    }
}

/// A session opened inside another session's backend, on the same
/// one-thread engine, gets a thread of its own: the outer stage completes.
#[test]
fn a_session_opened_inside_a_backend_completes() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = engine_with_threads(1);
    let backend = BackendChoice::Custom(Arc::new(Nested {
        engine: engine.clone(),
        cell: cell.clone(),
    }));
    let outer = lumped_stage(&cell, "outer", backend);
    let (tx, rx) = channel();
    let runner = engine.clone();
    std::thread::spawn(move || {
        let mut session = runner.session();
        session.submit(outer).unwrap();
        let _ = tx.send(session.wait_all());
    });
    let outcomes = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the outer stage never completed: the nested session waited on it");
    assert_eq!(outcomes.len(), 1);
    let report = outcomes[0].1.as_ref().expect("the outer stage succeeds");
    assert_eq!(report.label, "outer-inner");
}
