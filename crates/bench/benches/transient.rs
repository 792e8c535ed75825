//! Before/after benchmarks of the transient simulation kernels: the legacy
//! full-reassembly kernel versus the sparse factor-once LTI path and the
//! split-stamp Newton loop, on the fig4-style RLC-ladder transient and a
//! characterization-style grid of inverter runs — plus the `AnalysisSession`
//! scheduling bench (`path_chain_4stage`), which asserts the session's
//! overhead stays within budget against hand-rolled sequential propagation.
//! Results are written to `BENCH_transient.json` so the perf trajectory of
//! the hot path is recorded.
//!
//! Run with: `cargo bench --bench transient`
//! Smoke mode (CI): `RLC_BENCH_SMOKE=1 cargo bench --bench transient`

use rlc_bench::harness::Runner;
use rlc_bench::{write_bench_json, BenchComparison, OutputPaths};
use rlc_charlib::{CharacterizationGrid, Library};
use rlc_interconnect::{CoupledBus, RlcLine, RlcTree};
use rlc_numeric::units::{ff, mm, nh, pf, ps};
use rlc_spice::circuit::Circuit;
use rlc_spice::source::SourceWaveform;
use rlc_spice::testbench::{
    inverter_with_cap_load, inverter_with_rlc_line, pwl_source_with_rlc_line, InverterSpec,
    OutputTransition,
};
use rlc_spice::transient::{
    Crossing, KernelStrategy, TransientAnalysis, TransientOptions, TransientWorkspace,
};
use std::hint::black_box;

fn options(time_step: f64, stop: f64, strategy: KernelStrategy) -> TransientOptions {
    TransientOptions::try_new(time_step, stop)
        .unwrap()
        .with_strategy(strategy)
}

/// The workspace's canonical synthetic 75X cell
/// ([`rlc_ceff_suite::fixtures`]): deterministic and characterization-free,
/// so the session benches measure scheduling and propagation, not cell
/// characterization.
fn session_bench_cell() -> rlc_charlib::DriverCell {
    rlc_ceff_suite::fixtures::synthetic_cell_75x()
}

/// A balanced 8-sink clock-tree-like net: root, two level-1 arms, four
/// mid-level branches, eight sink stubs. Mirrors the reduced-order backend's
/// showcase fixture (stable 2-pole transfer fit at every sink).
fn balanced_8sink_tree() -> RlcTree {
    let mut tree = RlcTree::new();
    let root = tree.add_branch(None, RlcLine::new(100.0, nh(0.4), pf(0.5), mm(2.0)));
    let l1a = tree.add_branch(Some(root), RlcLine::new(120.0, nh(0.3), pf(0.4), mm(1.5)));
    let l1b = tree.add_branch(Some(root), RlcLine::new(120.0, nh(0.3), pf(0.4), mm(1.5)));
    for (i, &parent) in [l1a, l1a, l1b, l1b].iter().enumerate() {
        let mid = tree.add_branch(
            Some(parent),
            RlcLine::new(150.0, nh(0.2), pf(0.25), mm(1.0)),
        );
        let s1 = tree.add_branch(Some(mid), RlcLine::new(180.0, nh(0.1), pf(0.15), mm(0.6)));
        let s2 = tree.add_branch(Some(mid), RlcLine::new(180.0, nh(0.1), pf(0.15), mm(0.6)));
        tree.set_sink(s1, &format!("rx{}", 2 * i), ff(12.0));
        tree.set_sink(s2, &format!("rx{}", 2 * i + 1), ff(18.0));
    }
    tree
}

/// Benchmarks one circuit under the legacy and the automatic (fast) kernel,
/// reusing one workspace on the fast side the way `charlib` and the spice
/// backend do.
fn compare(
    runner: &mut Runner,
    name: &str,
    ckt: &Circuit,
    time_step: f64,
    stop: f64,
) -> BenchComparison {
    let legacy = TransientAnalysis::new(options(time_step, stop, KernelStrategy::LegacyFull));
    let baseline = runner.bench(&format!("{name}/legacy"), || {
        legacy.run(black_box(ckt)).unwrap()
    });
    let fast = TransientAnalysis::new(options(time_step, stop, KernelStrategy::Auto));
    let mut ws = TransientWorkspace::new();
    let optimized = runner.bench(&format!("{name}/fast"), || {
        fast.run_with(black_box(ckt), &mut ws).unwrap()
    });
    BenchComparison {
        name: name.to_string(),
        baseline_ns: baseline.as_nanos(),
        optimized_ns: optimized.as_nanos(),
    }
}

fn main() {
    let smoke = std::env::var("RLC_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mut runner = Runner::new("transient").slow();
    let mut results = Vec::new();
    // Benches run with the package directory as CWD; anchor all artifacts on
    // the workspace root.
    let workspace_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));

    // Fig4-style line: the paper's 5 mm / 1.6 um case (R = 72.44 ohm,
    // L = 5.14 nH, C = 1.10 pF) terminated by 10 fF.
    let (r, l, c) = (72.44, nh(5.14), pf(1.10));
    let (segments, stop) = if smoke {
        (10, ps(200.0))
    } else {
        (40, ps(1200.0))
    };

    // LTI ladder: an ideal ramp driving the segmented line (the far-end
    // propagation circuit used by `StageReport::far_end`) — the sparse
    // factor-once path `Auto` runs for every linear circuit.
    let (ladder, _) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
        0.0,
        r,
        l,
        c,
        segments,
        ff(10.0),
    );
    results.push(compare(
        &mut runner,
        &format!("ladder_lti_{segments}seg"),
        &ladder,
        ps(0.5),
        stop,
    ));

    // Coupled two-line bus: victim and aggressor ladders with distributed
    // coupling caps and per-segment mutual inductances — the widest LTI
    // system in the suite (twice the nodes, twice the inductor branches).
    let bus_segments = if smoke { 10 } else { 40 };
    let line = RlcLine::new(r, l, c, mm(5.0));
    let bus = CoupledBus::symmetric(line, 0.3 * c, 0.2 * l, ff(10.0));
    let mut bus_ckt = Circuit::new();
    let v_in = bus_ckt.node("v_in");
    let a_in = bus_ckt.node("a_in");
    bus_ckt.add_vsource(
        "VV",
        v_in,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    bus_ckt.add_vsource(
        "VA",
        a_in,
        Circuit::GROUND,
        SourceWaveform::falling_ramp(1.8, 0.0, ps(100.0)),
    );
    bus_ckt.set_initial_condition(v_in, 0.0);
    bus_ckt.set_initial_condition(a_in, 1.8);
    let _ = bus.add_to_circuit(&mut bus_ckt, v_in, a_in, bus_segments, 0.0, 1.8, "bus");
    results.push(compare(
        &mut runner,
        &format!("bus_coupled_{bus_segments}seg"),
        &bus_ckt,
        ps(0.5),
        stop,
    ));

    // Three-sink RLC tree: a trunk forking into three receiver branches —
    // the branching-topology load behind `RlcTreeLoad`.
    let tree_segments = if smoke { 6 } else { 20 };
    let trunk = RlcLine::new(30.0, nh(2.0), pf(0.5), mm(2.0));
    let stub = RlcLine::new(20.0, nh(1.2), pf(0.35), mm(1.5));
    let mut tree = RlcTree::new();
    let t = tree.add_branch(None, trunk);
    for (i, load_ff) in [10.0, 25.0, 40.0].iter().enumerate() {
        let b = tree.add_branch(Some(t), stub);
        tree.set_sink(b, &format!("rx{i}"), ff(*load_ff));
    }
    let mut tree_ckt = Circuit::new();
    let tree_in = tree_ckt.node("out");
    tree_ckt.add_vsource(
        "VDRV",
        tree_in,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    tree_ckt.set_initial_condition(tree_in, 0.0);
    let _ = tree.add_to_circuit(&mut tree_ckt, tree_in, tree_segments, 0.0, "net");
    results.push(compare(&mut runner, "tree_3sink", &tree_ckt, ps(0.5), stop));

    // ---- Sparse kernel: past the dense-matrix ceiling --------------------
    // The flagship line at 400 segments (~1200 MNA unknowns): dense
    // factor-once versus the min-degree sparse LU, at a size dense LU cannot
    // reach interactively; the full-mode JSON records the measured win, and
    // the smoke run doubles as a CI wall-clock gate.
    let sparse_stop = if smoke { ps(200.0) } else { ps(1200.0) };
    let (sparse_ladder, _) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
        0.0,
        r,
        l,
        c,
        400,
        ff(10.0),
    );
    let dense_400 =
        TransientAnalysis::new(options(ps(0.5), sparse_stop, KernelStrategy::FactorOnce));
    let baseline = runner.bench("ladder_400seg/dense", || {
        dense_400.run(black_box(&sparse_ladder)).unwrap()
    });
    let sparse_400 = TransientAnalysis::new(options(ps(0.5), sparse_stop, KernelStrategy::Sparse));
    let mut sparse_ws = TransientWorkspace::new();
    let optimized = runner.bench("ladder_400seg/sparse", || {
        let res = sparse_400
            .run_with(black_box(&sparse_ladder), &mut sparse_ws)
            .unwrap();
        assert_eq!(res.strategy(), KernelStrategy::Sparse);
        res
    });
    // CI gate: one 400-segment sparse transient must stay interactive even
    // on a loaded shared runner.
    assert!(
        optimized < std::time::Duration::from_secs(2),
        "ladder_400seg sparse transient took {optimized:?}, over the 2 s wall-clock budget"
    );
    results.push(BenchComparison {
        name: "ladder_400seg".to_string(),
        baseline_ns: baseline.as_nanos(),
        optimized_ns: optimized.as_nanos(),
    });

    // The balanced 8-sink clock-tree-like net (the reduced-order showcase
    // fixture) at sparse scale: 15 branches of segmented ladders, a matrix
    // with genuine branching sparsity rather than a banded chain.
    let eight_sink = balanced_8sink_tree();
    let eight_segments = if smoke { 4 } else { 12 };
    let mut eight_ckt = Circuit::new();
    let eight_in = eight_ckt.node("out");
    eight_ckt.add_vsource(
        "VDRV",
        eight_in,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(1.8, 0.0, ps(100.0)),
    );
    eight_ckt.set_initial_condition(eight_in, 0.0);
    let _ = eight_sink.add_to_circuit(&mut eight_ckt, eight_in, eight_segments, 0.0, "net");
    let dense_tree =
        TransientAnalysis::new(options(ps(0.5), sparse_stop, KernelStrategy::FactorOnce));
    let baseline = runner.bench("tree_8sink_sparse/dense", || {
        dense_tree.run(black_box(&eight_ckt)).unwrap()
    });
    let sparse_tree = TransientAnalysis::new(options(ps(0.5), sparse_stop, KernelStrategy::Sparse));
    let mut tree_ws = TransientWorkspace::new();
    let optimized = runner.bench("tree_8sink_sparse/sparse", || {
        let res = sparse_tree
            .run_with(black_box(&eight_ckt), &mut tree_ws)
            .unwrap();
        assert_eq!(res.strategy(), KernelStrategy::Sparse);
        res
    });
    results.push(BenchComparison {
        name: "tree_8sink_sparse".to_string(),
        baseline_ns: baseline.as_nanos(),
        optimized_ns: optimized.as_nanos(),
    });

    // ---- Reduced-order model versus transient simulation -----------------
    // The same 8-sink net analyzed as a timing stage: the golden
    // transistor-level simulation (driver netlist + stamped tree) versus the
    // moment-matched closed-form ROM answering the far end with no transient
    // at all.
    {
        use rlc_ceff_suite::{
            AnalysisBackend, EngineConfig, ReducedOrderBackend, RlcTreeLoad, SpiceBackend, Stage,
        };

        let rom_stage = Stage::builder(
            session_bench_cell(),
            RlcTreeLoad::new(eight_sink.clone()).unwrap(),
        )
        .label("rom-vs-spice")
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let rom_config = if smoke {
            EngineConfig::fast_for_tests()
        } else {
            EngineConfig::builder().extract_rs_per_case(false).build()
        };
        let spice = SpiceBackend;
        let baseline = runner.bench("rom_vs_spice/spice", || {
            spice.analyze(black_box(&rom_stage), &rom_config).unwrap()
        });
        let rom = ReducedOrderBackend::new();
        let optimized = runner.bench("rom_vs_spice/rom", || {
            let report = rom.analyze(black_box(&rom_stage), &rom_config).unwrap();
            assert_eq!(report.backend, "reduced-order", "ROM silently fell back");
            report
        });
        results.push(BenchComparison {
            name: "rom_vs_spice".to_string(),
            baseline_ns: baseline.as_nanos(),
            optimized_ns: optimized.as_nanos(),
        });
    }

    // Nonlinear driver stage: a 75X inverter driving the same line — the
    // split-stamp Newton kernel.
    let spec = InverterSpec::sized_018(75.0);
    let driver_segments = if smoke { 8 } else { 24 };
    let (stage, _) = inverter_with_rlc_line(
        &spec,
        ps(100.0),
        ps(20.0),
        r,
        l,
        c,
        driver_segments,
        ff(10.0),
        OutputTransition::Rising,
    );
    results.push(compare(
        &mut runner,
        &format!("driver_stage_{driver_segments}seg"),
        &stage,
        ps(0.5),
        stop,
    ));

    // Characterization-style grid: the sweep of inverter-plus-cap transients
    // that `charlib` runs per cell, legacy per-run allocation versus one
    // reused workspace.
    let slews: &[f64] = if smoke {
        &[ps(100.0)]
    } else {
        &[ps(50.0), ps(100.0), ps(200.0)]
    };
    let loads: &[f64] = if smoke {
        &[ff(200.0), pf(2.0)]
    } else {
        &[ff(50.0), ff(200.0), ff(800.0), pf(2.0)]
    };
    let grid_name = format!("char_grid_{}x{}", slews.len(), loads.len());
    let run_grid = |strategy: KernelStrategy, ws: Option<&mut TransientWorkspace>| {
        let mut fresh = TransientWorkspace::new();
        let ws = ws.unwrap_or(&mut fresh);
        for &slew in slews {
            for &load in loads {
                let (ckt, nodes) =
                    inverter_with_cap_load(&spec, slew, ps(20.0), load, OutputTransition::Rising);
                // Same simulation window and watched crossings as charlib's
                // `characterize_point` (which cannot be called here directly
                // because the legacy baseline needs an explicit strategy):
                // the run ends at the input's 50 % and the output's 10/50/90 %
                // crossings.
                let window = ps(20.0) + slew + 8.0 * (3.0e-3 / spec.nmos_width) * load + ps(200.0);
                let steps = (window / ps(1.0)).ceil().max(50.0);
                let o = options(ps(1.0), steps * ps(1.0), strategy);
                let watch = [
                    (nodes.input, 0.5, false),
                    (nodes.output, 0.1, true),
                    (nodes.output, 0.5, true),
                    (nodes.output, 0.9, true),
                ]
                .map(|(node, fraction, rising)| Crossing {
                    node,
                    level: fraction * spec.vdd,
                    rising,
                });
                black_box(
                    TransientAnalysis::new(o)
                        .run_until(&ckt, ws, &watch)
                        .unwrap(),
                );
            }
        }
    };
    let baseline = runner.bench(&format!("{grid_name}/legacy"), || {
        run_grid(KernelStrategy::LegacyFull, None)
    });
    let mut grid_ws = TransientWorkspace::new();
    let optimized = runner.bench(&format!("{grid_name}/fast"), || {
        run_grid(KernelStrategy::Auto, Some(&mut grid_ws))
    });
    results.push(BenchComparison {
        name: grid_name,
        baseline_ns: baseline.as_nanos(),
        optimized_ns: optimized.as_nanos(),
    });

    // Characterization cache: a cold start (empty cache, full grid of
    // characterization transients, result persisted) versus a warm start
    // (the same request served entirely from the on-disk store). This is the
    // per-process cost the persistent cache removes.
    let cache_grid = if smoke {
        CharacterizationGrid::coarse_for_tests()
    } else {
        CharacterizationGrid::default()
    };
    let cache_dir = workspace_root.join("target/experiments/char-cache-bench");
    let cold = runner.bench("char_cache_75x/cold", || {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut lib = Library::open_cached_with_grid(&cache_dir, cache_grid.clone()).unwrap();
        black_box(lib.get_or_characterize(75.0).unwrap())
    });
    // Re-populate once, then measure pure warm loads against it.
    {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut lib = Library::open_cached_with_grid(&cache_dir, cache_grid.clone()).unwrap();
        lib.get_or_characterize(75.0).unwrap();
    }
    let warm = runner.bench("char_cache_75x/warm", || {
        let mut lib = Library::open_cached_with_grid(&cache_dir, cache_grid.clone()).unwrap();
        let cell = lib.get_or_characterize(75.0).unwrap();
        assert_eq!(
            lib.characterizations_run(),
            0,
            "a warm start must be characterization-free"
        );
        black_box(cell)
    });
    results.push(BenchComparison {
        name: "char_cache_75x_cold_vs_warm".to_string(),
        baseline_ns: cold.as_nanos(),
        optimized_ns: warm.as_nanos(),
    });

    // ---- Incremental re-analysis (ECO): the stage-result cache ------------
    // A 16-stage repeater chain analyzed cold (every stage simulates,
    // results persisted) versus fully warm (every stage replays from the
    // content-addressed store, no backend touched). Between the two, the
    // single-edit pass documents the cone property the cache exists for: a
    // one-stage edit re-simulates exactly that stage and its downstream
    // dependency cone. The full run gates the warm replay on the 10x target.
    {
        use rlc_ceff_suite::{DistributedRlcLoad, EngineConfig, Stage, TimingEngine};

        let eco_dir = workspace_root.join("target/experiments/eco-bench-cache");
        let eco_line = RlcLine::new(r, l, c, mm(5.0));
        let eco_engine = || {
            TimingEngine::new(
                EngineConfig::builder()
                    .extract_rs_per_case(false)
                    .result_cache_dir(&eco_dir)
                    .build(),
            )
        };
        // Analyzes the 16-stage chain; `edited` doubles stage 8's receiver
        // cap. Returns (stages simulated, cache hits, path-end delay).
        let analyze = |engine: &TimingEngine, edited: bool| -> (u64, u64, f64) {
            let cell = session_bench_cell();
            let mut session = engine.session();
            let mut prev = None;
            for i in 0..16usize {
                let c_load = if edited && i == 8 {
                    ff(2.0 * (10.0 + i as f64))
                } else {
                    ff(10.0 + i as f64)
                };
                let builder = Stage::builder(
                    cell.clone(),
                    DistributedRlcLoad::new(eco_line, c_load).unwrap(),
                )
                .label(format!("eco{i:02}"));
                let builder = match prev {
                    None => builder.input_slew(ps(100.0)),
                    Some(handle) => builder.input_from(handle),
                };
                prev = Some(session.submit(builder.build().unwrap()).unwrap());
            }
            let results = session.wait_all();
            let delay = results.last().unwrap().1.as_ref().unwrap().delay;
            (
                session.stages_simulated(),
                session.result_cache_hits(),
                delay,
            )
        };

        let baseline = runner.bench("eco_single_edit_16stage/cold", || {
            let _ = std::fs::remove_dir_all(&eco_dir);
            let (simulated, hits, delay) = analyze(&eco_engine(), true);
            assert_eq!(
                (simulated, hits),
                (16, 0),
                "a cold run simulates everything"
            );
            black_box(delay)
        });
        // The single-edit cone: prime with the unedited design, apply the
        // edit — exactly stage 8 and its 7 downstream stages re-simulate.
        {
            let _ = std::fs::remove_dir_all(&eco_dir);
            analyze(&eco_engine(), false);
            let (simulated, hits, _) = analyze(&eco_engine(), true);
            assert_eq!(
                (simulated, hits),
                (8, 8),
                "a stage-8 edit must re-simulate exactly its dependency cone"
            );
        }
        let optimized = runner.bench("eco_single_edit_16stage/warm", || {
            let (simulated, hits, delay) = analyze(&eco_engine(), true);
            assert_eq!(
                (simulated, hits),
                (0, 16),
                "a warm re-analysis replays everything"
            );
            black_box(delay)
        });
        if !smoke {
            let speedup = baseline.as_nanos() as f64 / optimized.as_nanos() as f64;
            assert!(
                speedup >= 10.0,
                "eco_single_edit_16stage: warm replay speedup {speedup:.1}x is under the 10x target"
            );
        }
        results.push(BenchComparison {
            name: "eco_single_edit_16stage".to_string(),
            baseline_ns: baseline.as_nanos(),
            optimized_ns: optimized.as_nanos(),
        });
    }

    // ---- AnalysisSession scheduling overhead ------------------------------
    // A 4-stage dependent chain through the session versus hand-rolled
    // sequential analyze + ramp-handoff propagation. Both sides run the same
    // analytic flow and the same early-stopped propagation
    // (`StageReport::far_end_handoff`), so the difference is pure scheduling
    // (worker threads, queueing, handoff bookkeeping).
    {
        use rlc_ceff_suite::ceff::far_end::FarEndOptions;
        use rlc_ceff_suite::{
            DistributedRlcLoad, EngineConfig, InputEvent, LoadModel, SessionOptions, Stage,
            TimingEngine,
        };
        use std::sync::Arc;

        let cell = Arc::new(session_bench_cell());
        let engine = TimingEngine::new(
            EngineConfig::builder()
                .extract_rs_per_case(false)
                .threads(2)
                .build(),
        );
        let far_opts = FarEndOptions {
            segments: if smoke { 8 } else { 20 },
            time_step: ps(1.0),
            ..FarEndOptions::default()
        };
        let chain_line = RlcLine::new(r, l, c, mm(5.0));
        let loads: Vec<Arc<dyn LoadModel>> = (0..4)
            .map(|i| {
                Arc::new(DistributedRlcLoad::new(chain_line, ff(10.0 + 5.0 * i as f64)).unwrap())
                    as Arc<dyn LoadModel>
            })
            .collect();

        // The session case gates CI on a ratio of two timings, so measure
        // it at the default fidelity (9 samples) instead of the kernel
        // benches' 3-sample slow mode — a 4-stage chain is ~10 ms, cheap
        // enough to sample properly.
        let mut session_runner = Runner::new("transient/session");
        let manual = session_runner.bench("path_chain_4stage/manual", || {
            let mut event = InputEvent {
                slew: ps(100.0),
                delay: ps(20.0),
            };
            let mut last_delay = 0.0;
            for (i, load) in loads.iter().enumerate() {
                let stage = Stage::builder_shared(cell.clone(), load.clone())
                    .label("manual")
                    .input_slew(event.slew)
                    .input_delay(event.delay)
                    .build()
                    .unwrap();
                let report = engine.analyze(&stage).unwrap();
                last_delay = report.delay;
                if i + 1 < loads.len() {
                    event = report.far_end_handoff(load.as_ref(), &far_opts).unwrap().0;
                }
            }
            black_box(last_delay)
        });
        // A dependency chain has no parallelism to exploit: one worker.
        let session_opts = SessionOptions::default()
            .with_far_end(far_opts)
            .with_max_in_flight(1);
        let chained = session_runner.bench("path_chain_4stage/session", || {
            let mut session = engine.session_with(session_opts);
            let mut prev = None;
            for load in &loads {
                let mut builder =
                    Stage::builder_shared(cell.clone(), load.clone()).label("chained");
                builder = match prev {
                    None => builder.input_slew(ps(100.0)),
                    Some(handle) => builder.input_from(handle),
                };
                prev = Some(session.submit(builder.build().unwrap()).unwrap());
            }
            let results = session.wait_all();
            black_box(results.last().unwrap().1.as_ref().unwrap().delay)
        });
        results.push(BenchComparison {
            name: "path_chain_4stage".to_string(),
            baseline_ns: manual.as_nanos(),
            optimized_ns: chained.as_nanos(),
        });

        // Budget check (the CI smoke step relies on this assert). Both sides
        // are wall-clock medians, so the budgets guard against pathological
        // scheduling regressions rather than restating the measurement: the
        // committed full-mode JSON is what documents the real overhead
        // (~4%, inside the < 5% target), and re-runs on other machines must
        // not flake on a point measurement's jitter.
        let budget = if smoke { 1.50 } else { 1.10 };
        let case = results
            .iter()
            .find(|r| r.name == "path_chain_4stage")
            .unwrap();
        let ratio = case.optimized_ns as f64 / case.baseline_ns as f64;
        assert!(
            ratio <= budget,
            "path_chain_4stage: session overhead ratio {ratio:.3} exceeds budget {budget:.2}"
        );
    }

    for r in &results {
        println!(
            "  {}: {:.2}x speedup ({:.3} ms -> {:.3} ms)",
            r.name,
            r.speedup(),
            r.baseline_ns as f64 / 1e6,
            r.optimized_ns as f64 / 1e6,
        );
    }

    // Full runs record the trajectory next to the sources; smoke runs (CI)
    // only check that the harness executes, and park the report in target/.
    let (mode, path) = if smoke {
        (
            "smoke",
            OutputPaths::at(workspace_root.join("target/experiments")).file("BENCH_transient.json"),
        )
    } else {
        ("full", workspace_root.join("BENCH_transient.json"))
    };
    write_bench_json(&path, "transient", mode, &results);
    println!("wrote {}", path.display());
}
