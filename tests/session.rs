//! Integration tests of the dependency-aware `AnalysisSession`: chained
//! handoff parity against manual propagation, diamond scheduling, cycle and
//! sink validation at submit time, poisoning, cancellation, deadlines, and
//! provable concurrency of independent stages.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rlc_ceff_suite::ceff::far_end::FarEndOptions;
use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::interconnect::RlcLine;
use rlc_ceff_suite::numeric::units::{ff, mm, nh, pf, ps};
use rlc_ceff_suite::{
    AnalysisBackend, AnalyticBackend, BackendChoice, DistributedRlcLoad, EngineConfig, EngineError,
    InputEvent, LoadModel, LumpedCapLoad, RlcTreeLoad, SessionOptions, Stage, StageReport,
    TimingEngine,
};

mod common;
use common::{paper_line, synthetic_cell};

fn fast_engine() -> TimingEngine {
    TimingEngine::new(EngineConfig::fast_for_tests())
}

/// Cheap far-end fidelity shared by the session and the manual reference so
/// the parity comparison is exact.
fn fast_far_opts() -> FarEndOptions {
    FarEndOptions {
        segments: 12,
        time_step: ps(1.0),
        ..FarEndOptions::default()
    }
}

fn line_stage(cell: &Arc<DriverCell>, label: &str) -> rlc_ceff_suite::StageBuilder {
    Stage::builder_shared(
        cell.clone(),
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
    )
    .label(label)
}

/// The acceptance criterion: a 4-stage dependent path analyzed through the
/// session matches manually-chained `analyze` + full-window far-end
/// propagation calls bit for bit on every per-stage delay, slew and input
/// crossing, although the session's ramp handoffs stop each propagation at
/// the far end's last measured crossing. The chain passes through a line, a
/// branching RLC tree (named sink) and another line.
#[test]
fn chained_session_matches_manual_propagation_bit_for_bit() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let far_opts = fast_far_opts();

    let trunk = RlcLine::new(40.0, nh(2.0), pf(0.5), mm(2.0));
    let stub = RlcLine::new(20.0, nh(1.0), pf(0.3), mm(1.0));
    let mut tree = rlc_ceff_suite::interconnect::RlcTree::new();
    let t = tree.add_branch(None, trunk);
    let l = tree.add_branch(Some(t), stub);
    let r = tree.add_branch(Some(t), stub);
    tree.set_sink(l, "rx0", ff(15.0));
    tree.set_sink(r, "rx1", ff(25.0));

    let loads: Vec<Arc<dyn LoadModel>> = vec![
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
        Arc::new(RlcTreeLoad::new(tree).unwrap()),
        Arc::new(DistributedRlcLoad::new(paper_line(), ff(20.0)).unwrap()),
        Arc::new(LumpedCapLoad::new(ff(300.0)).unwrap()),
    ];

    // Manual reference: analyze, propagate, convert, repeat.
    let mut manual: Vec<StageReport> = Vec::new();
    let mut event = InputEvent {
        slew: ps(100.0),
        delay: ps(20.0),
    };
    for (i, load) in loads.iter().enumerate() {
        let stage = Stage::builder_shared(cell.clone(), load.clone())
            .label(format!("manual-{i}"))
            .input_slew(event.slew)
            .input_delay(event.delay)
            .build()
            .unwrap();
        let report = engine.analyze(&stage).unwrap();
        if i + 1 < loads.len() {
            // Stage 1 hands off through the tree's "rx1" sink; the line
            // stages through their primary far end.
            let (t50, slew) = if i == 1 {
                let sinks = report.far_end_sinks(load.as_ref(), &far_opts).unwrap();
                let s = sinks.iter().find(|s| s.sink == "rx1").unwrap();
                (
                    report.input_t50 + s.delay_from_input.unwrap(),
                    s.slew.unwrap(),
                )
            } else {
                let far = report.far_end(load.as_ref(), &far_opts).unwrap();
                (report.input_t50 + far.delay_from_input, far.slew)
            };
            let full_slew = slew / 0.8;
            event = InputEvent {
                slew: full_slew,
                delay: t50 - 0.5 * full_slew,
            };
        }
        manual.push(report);
    }

    // The same path through a session.
    let mut session = engine.session_with(SessionOptions::default().with_far_end(far_opts));
    let mut handles = Vec::new();
    for (i, load) in loads.iter().enumerate() {
        let mut builder = Stage::builder_shared(cell.clone(), load.clone()).label(format!("s{i}"));
        builder = match i {
            0 => builder.input_slew(ps(100.0)),
            2 => builder.input_from_sink(handles[1], "rx1"),
            _ => builder.input_from(handles[i - 1]),
        };
        handles.push(session.submit(builder.build().unwrap()).unwrap());
    }
    let results = session.wait_all();
    assert_eq!(results.len(), 4);
    for ((_, outcome), reference) in results.iter().zip(&manual) {
        let report = outcome.as_ref().expect("every chained stage succeeds");
        assert_eq!(
            [report.delay, report.slew, report.input_t50].map(f64::to_bits),
            [reference.delay, reference.slew, reference.input_t50].map(f64::to_bits),
            "{}",
            report.label
        );
    }
}

/// A backend that records the order stages complete in, then delegates.
#[derive(Debug)]
struct Recording {
    order: Arc<Mutex<Vec<String>>>,
}

impl AnalysisBackend for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        let report = AnalyticBackend.analyze(stage, config);
        self.order.lock().unwrap().push(stage.label().to_string());
        report
    }
}

/// Diamond graph: `a` fans out to `b` and `c`, and `d` consumes `b`'s far
/// end while also ordering after `c`. The scheduler must run `d` last and
/// everything must succeed.
#[test]
fn diamond_dependencies_schedule_topologically() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let order = Arc::new(Mutex::new(Vec::new()));
    let backend = |order: &Arc<Mutex<Vec<String>>>| {
        BackendChoice::Custom(Arc::new(Recording {
            order: order.clone(),
        }))
    };

    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));
    let a = session
        .submit(
            line_stage(&cell, "a")
                .input_slew(ps(100.0))
                .backend(backend(&order))
                .build()
                .unwrap(),
        )
        .unwrap();
    let b = session
        .submit(
            line_stage(&cell, "b")
                .input_from(a)
                .backend(backend(&order))
                .build()
                .unwrap(),
        )
        .unwrap();
    let c = session
        .submit(
            line_stage(&cell, "c")
                .input_from(a)
                .backend(backend(&order))
                .build()
                .unwrap(),
        )
        .unwrap();
    let d = session
        .submit(
            line_stage(&cell, "d")
                .input_from(b)
                .after(c)
                .backend(backend(&order))
                .build()
                .unwrap(),
        )
        .unwrap();

    let results = session.wait_all();
    assert_eq!(results.len(), 4);
    assert!(results.iter().all(|(_, r)| r.is_ok()));
    // Submission-order results line up with the handles.
    for (expected, (handle, _)) in [a, b, c, d].iter().zip(&results) {
        assert_eq!(expected, handle);
    }
    let order = order.lock().unwrap();
    let pos = |label: &str| order.iter().position(|l| l == label).unwrap();
    assert!(pos("a") < pos("b") && pos("a") < pos("c"));
    assert!(pos("b") < pos("d") && pos("c") < pos("d"));
}

/// Cycles are rejected at submit time: self-reference, a mutual cycle
/// wired through reservations, and a reservation filled from fresh stages
/// that depend on it.
#[test]
fn cycles_are_rejected_at_submit_time() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let mut session = engine.session();

    // Self-cycle.
    let c = session.reserve();
    let err = session
        .submit_reserved(c, line_stage(&cell, "self").input_from(c).build().unwrap())
        .unwrap_err();
    assert!(matches!(err, EngineError::DependencyCycle { .. }));

    // Mutual cycle across two reservations: the second fill closes the loop.
    let a = session.reserve();
    let b = session.reserve();
    session
        .submit_reserved(a, line_stage(&cell, "a").input_from(b).build().unwrap())
        .unwrap();
    let err = session
        .submit_reserved(b, line_stage(&cell, "b").input_from(a).build().unwrap())
        .unwrap_err();
    assert!(matches!(err, EngineError::DependencyCycle { .. }));

    // Ordering-only (`after`) edges count too.
    let x = session.reserve();
    let y = session.reserve();
    session
        .submit_reserved(
            x,
            line_stage(&cell, "x")
                .input_slew(ps(100.0))
                .after(y)
                .build()
                .unwrap(),
        )
        .unwrap();
    let err = session
        .submit_reserved(
            y,
            line_stage(&cell, "y")
                .input_slew(ps(100.0))
                .after(x)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::DependencyCycle { .. }));

    // Fresh submissions chained onto a reservation: filling the reservation
    // from the end of the chain closes the loop through the fresh slots.
    let r = session.reserve();
    let mut tail = r;
    for label in ["f1", "f2", "f3"] {
        tail = session
            .submit(line_stage(&cell, label).input_from(tail).build().unwrap())
            .unwrap();
    }
    let err = session
        .submit_reserved(r, line_stage(&cell, "r").input_from(tail).build().unwrap())
        .unwrap_err();
    assert!(matches!(err, EngineError::DependencyCycle { .. }));
}

/// Submit-time reference validation: unknown sink names, producers without a
/// netlist, and handles from another session are all typed errors.
#[test]
fn bad_references_are_rejected_at_submit_time() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let mut session = engine.session();

    let producer = session
        .submit(
            line_stage(&cell, "producer")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();

    // A line load only exposes "far".
    let err = session
        .submit(
            line_stage(&cell, "bad-sink")
                .input_from_sink(producer, "rx9")
                .build()
                .unwrap(),
        )
        .unwrap_err();
    match &err {
        EngineError::UnknownSink {
            label,
            sink,
            available,
        } => {
            assert_eq!(label, "producer");
            assert_eq!(sink, "rx9");
            assert_eq!(available, &vec!["far".to_string()]);
        }
        other => panic!("expected UnknownSink, got {other:?}"),
    }

    // A moment-space producer has no far end to chain from.
    let moments = session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(
                    rlc_ceff_suite::MomentsLoad::new(
                        rlc_ceff_suite::moments::distributed_admittance_moments(
                            &paper_line(),
                            ff(10.0),
                            5,
                        ),
                    )
                    .unwrap(),
                ),
            )
            .label("moments")
            .input_slew(ps(100.0))
            .build()
            .unwrap(),
        )
        .unwrap();
    let err = session
        .submit(
            line_stage(&cell, "chained-off-moments")
                .input_from(moments)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidDependency { .. }));

    // Handles do not cross sessions.
    let mut other_session = engine.session();
    let err = other_session
        .submit(
            line_stage(&cell, "foreign")
                .input_from(producer)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidDependency { .. }));

    let results = session.wait_all();
    assert_eq!(results.len(), 2, "rejected stages were never enqueued");
    assert!(results.iter().all(|(_, r)| r.is_ok()));
}

/// A backend that always fails.
#[derive(Debug)]
struct Failing;

impl AnalysisBackend for Failing {
    fn name(&self) -> &'static str {
        "failing"
    }
    fn analyze(&self, _: &Stage, _: &EngineConfig) -> Result<StageReport, EngineError> {
        Err(EngineError::unsupported("deliberate test failure"))
    }
}

/// A failing producer poisons its dependents — transitively — with
/// `UpstreamFailed`, while unrelated stages complete normally.
#[test]
fn failing_producer_poisons_only_its_dependents() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));

    let bad = session
        .submit(
            line_stage(&cell, "bad")
                .input_slew(ps(100.0))
                .backend(BackendChoice::Custom(Arc::new(Failing)))
                .build()
                .unwrap(),
        )
        .unwrap();
    let child = session
        .submit(line_stage(&cell, "child").input_from(bad).build().unwrap())
        .unwrap();
    let grandchild = session
        .submit(
            line_stage(&cell, "grandchild")
                .input_from(child)
                .build()
                .unwrap(),
        )
        .unwrap();
    let independent = session
        .submit(
            line_stage(&cell, "independent")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();

    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(matches!(
        results[&bad],
        Err(EngineError::Unsupported { .. })
    ));
    match &results[&child] {
        Err(EngineError::UpstreamFailed { label, upstream }) => {
            assert_eq!(label, "child");
            assert_eq!(upstream, "bad");
        }
        other => panic!("expected UpstreamFailed, got {other:?}"),
    }
    match &results[&grandchild] {
        Err(EngineError::UpstreamFailed { upstream, .. }) => assert_eq!(upstream, "child"),
        other => panic!("expected transitive UpstreamFailed, got {other:?}"),
    }
    assert!(
        results[&independent].is_ok(),
        "unrelated stages are untouched"
    );
}

/// A backend that signals when it starts and blocks until released.
#[derive(Debug)]
struct Gate {
    started: Arc<(Mutex<bool>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl AnalysisBackend for Gate {
    fn name(&self) -> &'static str {
        "gate"
    }
    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        {
            let (lock, cv) = &*self.started;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (lock, cv) = &*self.release;
        let mut released = lock.lock().unwrap();
        while !*released {
            let (guard, timeout) = cv.wait_timeout(released, Duration::from_secs(10)).unwrap();
            released = guard;
            if timeout.timed_out() {
                return Err(EngineError::unsupported("gate never released"));
            }
        }
        drop(released);
        AnalyticBackend.analyze(stage, config)
    }
}

/// Mid-session cancellation: the running stage finishes and reports, queued
/// stages fail with `Cancelled`, and post-cancel submissions fail instantly.
#[test]
fn cancellation_aborts_pending_stages_only() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = TimingEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::fast_for_tests()
    });
    let started = Arc::new((Mutex::new(false), Condvar::new()));
    let release = Arc::new((Mutex::new(false), Condvar::new()));

    let mut session = engine.session();
    let running = session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()),
            )
            .label("running")
            .input_slew(ps(100.0))
            .backend(BackendChoice::Custom(Arc::new(Gate {
                started: started.clone(),
                release: release.clone(),
            })))
            .build()
            .unwrap(),
        )
        .unwrap();
    let queued = session
        .submit(
            line_stage(&cell, "queued")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let dependent = session
        .submit(
            line_stage(&cell, "dependent")
                .input_from(queued)
                .build()
                .unwrap(),
        )
        .unwrap();

    // Wait until the single worker is inside the first stage, then cancel.
    {
        let (lock, cv) = &*started;
        let mut begun = lock.lock().unwrap();
        while !*begun {
            begun = cv.wait_timeout(begun, Duration::from_secs(10)).unwrap().0;
        }
    }
    session.cancel();
    session.cancel(); // idempotent
    {
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    let late = session
        .submit(
            line_stage(&cell, "late")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();

    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(results[&running].is_ok(), "the in-flight stage completes");
    assert!(matches!(
        results[&queued],
        Err(EngineError::Cancelled { .. })
    ));
    assert!(matches!(
        results[&dependent],
        Err(EngineError::Cancelled { .. })
    ));
    assert!(matches!(results[&late], Err(EngineError::Cancelled { .. })));
}

/// Deadlines: stages that have not started when the deadline passes fail
/// with `DeadlineExceeded`; an already-running stage finishes normally.
#[test]
fn deadline_fails_stages_that_never_started() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));

    // An already-expired deadline fails every submission.
    let engine = fast_engine();
    let mut session = engine.session_with(SessionOptions::default().with_deadline(Duration::ZERO));
    let h = session
        .submit(
            line_stage(&cell, "too-late")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(matches!(
        results[&h],
        Err(EngineError::DeadlineExceeded { .. })
    ));

    // A single worker holds the first stage past the deadline: the first
    // completes, the queued second fails.
    let engine = TimingEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::fast_for_tests()
    });
    let started = Arc::new((Mutex::new(false), Condvar::new()));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let mut session =
        engine.session_with(SessionOptions::default().with_deadline(Duration::from_millis(100)));
    let first = session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()),
            )
            .label("first")
            .input_slew(ps(100.0))
            .backend(BackendChoice::Custom(Arc::new(Gate {
                started: started.clone(),
                release: release.clone(),
            })))
            .build()
            .unwrap(),
        )
        .unwrap();
    let second = session
        .submit(
            line_stage(&cell, "second")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    {
        let (lock, cv) = &*started;
        let mut begun = lock.lock().unwrap();
        while !*begun {
            begun = cv.wait_timeout(begun, Duration::from_secs(10)).unwrap().0;
        }
    }
    // Let the deadline lapse while the first stage is still on the worker.
    std::thread::sleep(Duration::from_millis(150));
    // A post-deadline submission fails immediately AND must abort the
    // already-queued second stage — the submit path, not just the workers,
    // fires the deadline sweep.
    let third = session
        .submit(
            line_stage(&cell, "third")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    {
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(results[&first].is_ok(), "running stages finish");
    assert!(matches!(
        results[&second],
        Err(EngineError::DeadlineExceeded { .. })
    ));
    assert!(matches!(
        results[&third],
        Err(EngineError::DeadlineExceeded { .. })
    ));
}

/// A backend that only succeeds if `width` invocations overlap in time:
/// proves independent stages really run concurrently.
#[derive(Debug)]
struct Rendezvous {
    arrived: Arc<AtomicUsize>,
    width: usize,
}

impl AnalysisBackend for Rendezvous {
    fn name(&self) -> &'static str {
        "rendezvous"
    }
    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.arrived.load(Ordering::SeqCst) < self.width {
            if Instant::now() > deadline {
                return Err(EngineError::unsupported(
                    "stages were serialized; concurrency rendezvous timed out",
                ));
            }
            std::thread::yield_now();
        }
        AnalyticBackend.analyze(stage, config)
    }
}

/// Independent stages provably run concurrently: each blocks until both are
/// inside their analysis, which can only happen with parallel workers.
#[test]
fn independent_stages_run_concurrently() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = TimingEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::fast_for_tests()
    });
    let arrived = Arc::new(AtomicUsize::new(0));
    let backend = || {
        BackendChoice::Custom(Arc::new(Rendezvous {
            arrived: arrived.clone(),
            width: 2,
        }))
    };
    let mut session = engine.session();
    let handles = session
        .submit_all(["left", "right"].map(|label| {
            line_stage(&cell, label)
                .input_slew(ps(100.0))
                .backend(backend())
                .build()
                .unwrap()
        }))
        .unwrap();
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    for handle in handles {
        assert!(
            results[&handle].is_ok(),
            "both rendezvous stages must overlap: {:?}",
            results[&handle]
        );
    }
}

/// Streaming: results arrive in completion order (producers strictly before
/// their dependents), `next_report` drains to `None`, and a later submission
/// re-arms the stream. `wait_all` then replays everything in submission
/// order.
#[test]
fn results_stream_in_completion_order() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));
    let producer = session
        .submit(
            line_stage(&cell, "producer")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let consumer = session
        .submit(
            line_stage(&cell, "consumer")
                .input_from(producer)
                .build()
                .unwrap(),
        )
        .unwrap();

    let streamed: Vec<_> = session.reports().collect();
    assert_eq!(streamed.len(), 2);
    assert_eq!(streamed[0].0, producer, "producers complete first");
    assert_eq!(streamed[1].0, consumer);
    assert!(streamed.iter().all(|(_, r)| r.is_ok()));
    assert!(session.next_report().is_none(), "stream is drained");

    // A later submission re-arms the stream.
    let extra = session
        .submit(
            line_stage(&cell, "extra")
                .input_slew(ps(80.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let (handle, outcome) = session.next_report().expect("stream re-armed");
    assert_eq!(handle, extra);
    assert!(outcome.is_ok());

    // wait_all replays everything, in submission order.
    let all = session.wait_all();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].0, producer);
    assert_eq!(all[1].0, consumer);
    assert_eq!(all[2].0, extra);
    // The consumer's input starts after the producer's far-end transition
    // began: its input t50 is strictly later than the producer's.
    let producer_report = all[0].1.as_ref().unwrap();
    let consumer_report = all[1].1.as_ref().unwrap();
    assert!(consumer_report.input_t50 > producer_report.input_t50);
}

/// Duplicate edges to the same producer (`input_from(a)` + `after(a)`)
/// collapse to one dependency: the dependent runs (or is poisoned) exactly
/// once and the result stream stays consistent.
#[test]
fn duplicate_dependency_edges_are_deduplicated() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();

    // Success path: the dependent unblocks despite the redundant edge.
    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));
    let a = session
        .submit(
            line_stage(&cell, "a")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let b = session
        .submit(
            line_stage(&cell, "b")
                .input_from(a)
                .after(a)
                .after(a)
                .build()
                .unwrap(),
        )
        .unwrap();
    let results = session.wait_all();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|(_, r)| r.is_ok()));
    let _ = b;

    // Failure path: the dependent is poisoned exactly once — the streamed
    // outcome count matches the submission count.
    let mut session = engine.session();
    let bad = session
        .submit(
            line_stage(&cell, "bad")
                .input_slew(ps(100.0))
                .backend(BackendChoice::Custom(Arc::new(Failing)))
                .build()
                .unwrap(),
        )
        .unwrap();
    session
        .submit(
            line_stage(&cell, "poisoned-once")
                .input_from(bad)
                .after(bad)
                .build()
                .unwrap(),
        )
        .unwrap();
    let tail = session
        .submit(
            line_stage(&cell, "tail")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let streamed: Vec<_> = session.reports().collect();
    assert_eq!(
        streamed.len(),
        3,
        "one outcome per submission, no duplicates"
    );
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(matches!(
        results[&bad],
        Err(EngineError::Unsupported { .. })
    ));
    assert!(results[&tail].is_ok());
}

/// The engine's stage convention is a rising driver output; chaining off a
/// sink that completes a *falling* transition (an opposite-switching bus
/// aggressor) must be a typed error, not a silently wrong-polarity handoff.
#[test]
fn falling_sink_handoff_is_rejected() {
    use rlc_ceff_suite::interconnect::CoupledBus;
    use rlc_ceff_suite::{AggressorSpec, AggressorSwitching, CoupledBusLoad};

    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let bus = CoupledBus::symmetric(paper_line(), pf(0.3), nh(1.0), ff(10.0));
    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));
    let producer = session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(
                    CoupledBusLoad::new(
                        bus,
                        AggressorSpec::new(
                            AggressorSwitching::OppositeDirection,
                            ps(100.0),
                            ps(20.0),
                            1.8,
                        )
                        .unwrap(),
                    )
                    .unwrap(),
                ),
            )
            .label("bus")
            .input_slew(ps(100.0))
            .build()
            .unwrap(),
        )
        .unwrap();
    // The victim rises — chaining off it is fine; the aggressor falls.
    let from_victim = session
        .submit(
            line_stage(&cell, "after-victim")
                .input_from_sink(producer, "victim")
                .build()
                .unwrap(),
        )
        .unwrap();
    let from_aggressor = session
        .submit(
            line_stage(&cell, "after-aggressor")
                .input_from_sink(producer, "aggressor")
                .build()
                .unwrap(),
        )
        .unwrap();
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(results[&producer].is_ok());
    assert!(results[&from_victim].is_ok());
    match &results[&from_aggressor] {
        Err(EngineError::Unsupported { what }) => {
            assert!(what.contains("falling"), "{what}")
        }
        other => panic!("expected a falling-transition rejection, got {other:?}"),
    }
}

/// A load that counts how many times its netlist is attached — i.e. how
/// many handoff propagation simulations the producer ran.
#[derive(Debug)]
struct CountingLoad {
    inner: DistributedRlcLoad,
    attaches: Arc<AtomicUsize>,
}

impl LoadModel for CountingLoad {
    fn reduce(&self) -> Result<rlc_ceff_suite::ceff::flow::ReducedLoad, EngineError> {
        self.inner.reduce()
    }
    fn total_capacitance(&self) -> f64 {
        self.inner.total_capacitance()
    }
    fn wave(&self) -> Option<rlc_ceff_suite::ceff::flow::WaveParameters> {
        self.inner.wave()
    }
    fn settle_horizon(&self) -> f64 {
        self.inner.settle_horizon()
    }
    fn attach(
        &self,
        ckt: &mut rlc_ceff_suite::spice::circuit::Circuit,
        near: rlc_ceff_suite::spice::circuit::NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<rlc_ceff_suite::spice::circuit::NodeId, EngineError> {
        self.attaches.fetch_add(1, Ordering::SeqCst);
        self.inner.attach(ckt, near, v_initial, segments)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Wide fan-out off one producer runs the producer's far-end propagation
/// once: the per-slot handoff gate serializes simultaneous resolvers onto a
/// single cached simulation.
#[test]
fn fan_out_propagates_the_producer_once() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = TimingEngine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::fast_for_tests()
    });
    let attaches = Arc::new(AtomicUsize::new(0));
    let mut session = engine.session_with(SessionOptions::default().with_far_end(fast_far_opts()));
    let producer = session
        .submit(
            Stage::builder_shared(
                cell.clone(),
                Arc::new(CountingLoad {
                    inner: DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap(),
                    attaches: attaches.clone(),
                }),
            )
            .label("producer")
            .input_slew(ps(100.0))
            .build()
            .unwrap(),
        )
        .unwrap();
    // Four dependents unblock simultaneously when the producer completes.
    for i in 0..4 {
        session
            .submit(
                line_stage(&cell, &format!("consumer-{i}"))
                    .input_from(producer)
                    .build()
                    .unwrap(),
            )
            .unwrap();
    }
    let results = session.wait_all();
    assert!(results.iter().all(|(_, r)| r.is_ok()));
    // The analytic producer never attaches its netlist to simulate. Exactly
    // two attaches happen: the submit-time static audit synthesizes the
    // netlist once (and the worker reuses those findings instead of
    // auditing again), and the four dependents share one cached handoff
    // propagation.
    assert_eq!(
        attaches.load(Ordering::SeqCst),
        2,
        "one audit synthesis + one shared propagation simulation"
    );
}

/// The bits a report's consumers read: delay, slew, input crossing, and the
/// driver-output waveform sampled across its span.
fn report_bits(report: &StageReport) -> Vec<u64> {
    let end = report.waveform.end_time();
    [report.delay, report.slew, report.input_t50]
        .into_iter()
        .chain((0..=200).map(|k| report.waveform.v(end * k as f64 / 200.0)))
        .map(f64::to_bits)
        .collect()
}

/// One analytic producer feeds consumers on both sides of the handoff: the
/// analytic consumer takes the ramp, whose propagation stops at the far
/// end's 90 % crossing, while the SPICE consumer reads the sampled far-end
/// waveform and must get the full-window run whichever consumer resolves
/// first. Each report must equal, bit for bit, the one a session with that
/// consumer alone produces.
#[test]
fn sampled_consumer_gets_the_full_window_whoever_resolves_first() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    // Returns each consumer's report (`true` marks a SPICE consumer) and the
    // number of times the producer's netlist was attached.
    let run = |spice_consumers: &[bool]| -> (Vec<StageReport>, usize) {
        let attaches = Arc::new(AtomicUsize::new(0));
        // One worker: the consumers resolve in submission order.
        let mut session = engine.session_with(
            SessionOptions::default()
                .with_far_end(fast_far_opts())
                .with_max_in_flight(1),
        );
        let producer = session
            .submit(
                Stage::builder_shared(
                    cell.clone(),
                    Arc::new(CountingLoad {
                        inner: DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap(),
                        attaches: attaches.clone(),
                    }),
                )
                .label("producer")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
            )
            .unwrap();
        let consumers: Vec<_> = spice_consumers
            .iter()
            .map(|&spice| {
                let builder = Stage::builder_shared(
                    cell.clone(),
                    Arc::new(LumpedCapLoad::new(ff(300.0)).unwrap()),
                )
                .label(if spice { "spice" } else { "analytic" })
                .input_from(producer);
                let builder = if spice {
                    builder.backend(BackendChoice::Spice)
                } else {
                    builder
                };
                session.submit(builder.build().unwrap()).unwrap()
            })
            .collect();
        let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
        let reports = consumers
            .iter()
            .map(|h| results[h].as_ref().expect("consumer succeeds").clone())
            .collect();
        (reports, attaches.load(Ordering::SeqCst))
    };

    let (spice_alone, _) = run(&[true]);
    let (analytic_alone, _) = run(&[false]);
    // Both orders, counting attaches beyond the submit-time audit synthesis.
    for (order, propagations) in [([false, true], 2), ([true, false], 1)] {
        let (reports, attaches) = run(&order);
        for (report, spice) in reports.iter().zip(order) {
            let alone = if spice {
                &spice_alone[0]
            } else {
                &analytic_alone[0]
            };
            assert_eq!(
                report_bits(report),
                report_bits(alone),
                "{} consumer, order {order:?}",
                report.label
            );
        }
        // Analytic first: the early-stopped ramp run, then the full window
        // for the SPICE consumer. SPICE first: the full window alone, which
        // the ramp handoff then reads.
        assert_eq!(attaches, 1 + propagations, "order {order:?}");
    }
}

/// A reservation that is never filled fails at `wait_all`, poisoning its
/// dependents but nothing else.
#[test]
fn unfilled_reservations_fail_at_wait_all() {
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let mut session = engine.session();
    let hole = session.reserve();
    let dependent = session
        .submit(
            line_stage(&cell, "dependent")
                .input_from(hole)
                .build()
                .unwrap(),
        )
        .unwrap();
    let fine = session
        .submit(
            line_stage(&cell, "fine")
                .input_slew(ps(100.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
    assert!(matches!(
        results[&hole],
        Err(EngineError::InvalidDependency { .. })
    ));
    assert!(matches!(
        results[&dependent],
        Err(EngineError::UpstreamFailed { .. })
    ));
    assert!(results[&fine].is_ok());
}

/// Sampled-waveform handoff: a SPICE consumer negotiates the full upstream
/// waveform through `BackendCaps::sampled_input`, and both handoff modes
/// produce consistent timing.
#[test]
fn sampled_handoff_negotiates_with_backend_caps() {
    use rlc_ceff_suite::BackendCaps;

    // Capability report: SPICE consumes sampled inputs, the analytic flow
    // and default custom backends do not.
    assert!(rlc_ceff_suite::SpiceBackend.caps().sampled_input);
    assert!(rlc_ceff_suite::SpiceBackend.caps().simulates_far_end);
    assert_eq!(AnalyticBackend.caps(), BackendCaps::default());

    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let engine = fast_engine();
    let far_opts = fast_far_opts();

    let run = |sampled: bool| {
        let mut session = engine.session_with(
            SessionOptions::default()
                .with_far_end(far_opts)
                .with_sampled_handoff(sampled),
        );
        let producer = session
            .submit(
                Stage::builder_shared(
                    cell.clone(),
                    Arc::new(DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap()),
                )
                .label("producer")
                .input_slew(ps(100.0))
                .backend(BackendChoice::Spice)
                .build()
                .unwrap(),
            )
            .unwrap();
        let consumer = session
            .submit(
                Stage::builder_shared(
                    cell.clone(),
                    Arc::new(LumpedCapLoad::new(ff(300.0)).unwrap()),
                )
                .label("consumer")
                .input_from(producer)
                .backend(BackendChoice::Spice)
                .build()
                .unwrap(),
            )
            .unwrap();
        let results: std::collections::HashMap<_, _> = session.wait_all().into_iter().collect();
        results[&consumer]
            .as_ref()
            .expect("spice chain succeeds")
            .clone()
    };

    let with_waveform = run(true);
    let with_ramp = run(false);
    assert!(with_waveform.delay > 0.0 && with_ramp.delay > 0.0);
    // The two handoff modes describe the same physical event: same input
    // crossing to within a picosecond-scale measurement difference, and
    // delays in the same regime.
    assert!((with_waveform.input_t50 - with_ramp.input_t50).abs() < ps(20.0));
    let rel = (with_waveform.delay - with_ramp.delay).abs() / with_ramp.delay;
    assert!(
        rel < 0.5,
        "sampled vs ramp handoff delays diverged: {:.3e} vs {:.3e}",
        with_waveform.delay,
        with_ramp.delay
    );
}
