//! The engine's thread count stays bounded across sessions. This test is
//! alone in its binary because it counts every thread of the process, and
//! the test harness runs each test of a binary on a thread of its own.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use rlc_ceff_suite::numeric::units::{ff, ps};
use rlc_ceff_suite::{EngineConfig, LumpedCapLoad, Stage, TimingEngine};

mod common;
use common::synthetic_cell;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

/// 200 sessions back to back leave at most `base_threads()` threads behind,
/// and those go when the engine drops.
#[test]
fn sessions_leave_at_most_base_threads_behind_and_the_engine_takes_them_along() {
    let start = thread_count();
    let engine = TimingEngine::new(EngineConfig::fast_for_tests());
    let base = engine.config().base_threads();
    let cell = Arc::new(synthetic_cell(75.0, 70.0));
    let load = Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap());
    for round in 0..200 {
        let mut session = engine.session();
        let stages = (0..base + 1).map(|i| {
            Stage::builder_shared(cell.clone(), load.clone())
                .label(format!("r{round}-s{i}"))
                .input_slew(ps(60.0 + i as f64))
                .build()
                .unwrap()
        });
        session.submit_all(stages).unwrap();
        assert!(session
            .wait_all()
            .iter()
            .all(|(_, outcome)| outcome.is_ok()));
        drop(session);
        let now = thread_count();
        assert!(
            now <= start + base,
            "round {round}: {now} threads, started with {start}, base_threads {base}"
        );
    }
    drop(engine);
    // A joined thread can linger in /proc for a moment after it exits.
    let deadline = Instant::now() + Duration::from_secs(10);
    while thread_count() > start && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(thread_count(), start, "the engine's threads outlived it");
}
