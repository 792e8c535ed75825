//! The outside-in layer trace (`--trace 1`).
//!
//! Spans are recorded by the benchmark itself around each call it makes
//! into a layer of the engine: per operation (session open, submission,
//! wait) and per probed stage (lint, moment fit, Rs extraction, Ceff
//! iteration, far-end handoff with its stamp / factor / per-step split,
//! result-cache store and lookup, wire encode and decode). Spans of one
//! request share its id, live in memory, and are written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use rlc_ceff_suite::ceff::far_end::FarEndOptions;
use rlc_ceff_suite::ceff::DriverOutputModeler;
use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::spice::{Circuit, TransientAnalysis, TransientOptions, TransientWorkspace};
use rlc_ceff_suite::{
    stage_key, InputEvent, InputFingerprint, SessionOptions, Stage, StageReport, StageResultCache,
    TimingEngine,
};
use rlc_service::protocol::{Request, Response, WireReport};
use rlc_service::wire::{read_frame, write_frame};

use crate::design::{Cells, Input, Net};

#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            parent: parent.map(|p| p.0),
            request,
            name,
            start: now,
            end: now,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end = self.epoch.elapsed();
    }

    /// Records a span whose boundaries were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            parent: parent.map(|p| p.0),
            request,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Times `f` as a child span of `parent`, in the parent's request.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent.0].request;
        let id = self.begin(name, Some(parent), request);
        let value = f();
        self.end(id);
        value
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.entry(name).or_default().push(value);
    }

    fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += (span.end - span.start).as_secs_f64();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| (span.end - span.start).as_secs_f64() - covered)
            .collect()
    }

    /// Mean self time (seconds) of the spans named `name`.
    pub fn mean_self(&self, name: &str) -> f64 {
        let times: Vec<f64> = self
            .spans
            .iter()
            .zip(self.self_times())
            .filter(|(span, _)| span.name == name)
            .map(|(_, t)| t)
            .collect();
        mean(&times)
    }

    pub fn mean_count(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |values| mean(values))
    }

    pub fn sum_count(&self, name: &str) -> f64 {
        self.counters
            .get(name)
            .map_or(0.0, |values| values.iter().sum())
    }

    /// Writes every span (with its self time) and counter as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, span), self_s) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.request,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                (self_s * 1e9).round() as i64
            )?;
        }
        for (name, values) in &self.counters {
            let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            writeln!(
                out,
                "{{\"counter\": \"{name}\", \"values\": [{}]}}",
                values.join(", ")
            )?;
        }
        out.flush()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Calls every layer of the analytic flow directly on `nets`, one request
/// per stage. With `chained`, each stage's input is the measured far end
/// of the one before (the handoff a session performs); otherwise every
/// net is a primary input. Returns the reports, so callers can compare
/// them with what a session computed for the same stages.
pub fn probe_layers(
    trace: &mut Trace,
    engine: &TimingEngine,
    cells: &Cells,
    nets: &[Net],
    chained: bool,
    cache: &StageResultCache,
) -> Result<Vec<StageReport>, String> {
    let cached_rs = DriverOutputModeler::new(
        rlc_ceff_suite::EngineConfig::builder()
            .extract_rs_per_case(false)
            .build()
            .modeling_config(),
    );
    let far_options = FarEndOptions::default();
    let mut workspace = TransientWorkspace::new();
    let mut reports = Vec::with_capacity(nets.len());
    let mut next_input: Option<InputEvent> = None;
    for (k, net) in nets.iter().enumerate() {
        let root = trace.begin("stage", None, k as u64);
        let (slew, delay) = match next_input {
            Some(event) if chained => (event.slew, event.delay),
            _ => (net.slew, crate::design::INPUT_DELAY),
        };
        let input = Input::Event { slew, delay };
        let stage = net.stage(cells, format!("probe-{k}"), input)?;
        let cell = cells.get(net.size);

        trace.time("lint", root, || engine.lint(&stage));
        let reduced = trace
            .time("moment_fit", root, || stage.load().reduce())
            .map_err(|e| e.to_string())?;
        let rs = trace
            .time("rs_extract", root, || {
                cell.on_resistance_for_load(reduced.total_capacitance())
            })
            .map_err(|e| e.to_string())?;
        // The same cell with this stage's Rs already in place, so the
        // iteration below runs exactly the flow `analyze` runs, minus the
        // extraction.
        let cell_at_rs = DriverCell::from_parts(*cell.spec(), cell.table().clone(), rs);
        let model = trace
            .time("ceff_iter", root, || {
                cached_rs.model_reduced(&cell_at_rs, &reduced, slew, delay)
            })
            .map_err(|e| e.to_string())?;
        let iterations = model.ceff1.iterations + model.ceff2.map_or(0, |c| c.iterations);
        trace.count("ceff_iterations", iterations as f64);
        let report = trace
            .time("analyze", root, || engine.analyze(&stage))
            .map_err(|e| e.to_string())?;
        if model.delay().to_bits() != report.delay.to_bits() {
            return Err(format!(
                "stage {k}: the Ceff iteration at the extracted Rs disagrees with analyze"
            ));
        }
        let started = Instant::now();
        let far = trace
            .time("handoff", root, || {
                report.far_end(stage.load(), &far_options)
            })
            .map_err(|e| e.to_string())?;
        let handoff = (started.elapsed().as_secs_f64(), far.waveform.times().len());
        probe_transient(
            trace,
            root,
            &stage,
            &report,
            &far_options,
            handoff,
            &mut workspace,
        )?;
        probe_cache(trace, root, engine, &stage, &report, cache)?;
        probe_wire(trace, root, net, k, &report, slew, delay)?;
        trace.end(root);

        next_input = Some(InputEvent::from_measured(
            report.input_t50 + far.delay_from_input,
            far.slew,
        ));
        reports.push(report);
    }
    Ok(reports)
}

/// Splits a handoff that took `handoff_s` over `handoff_points` time points,
/// outside in: its netlist synthesis and a two-step run of its transient
/// (stamping and factorization) are timed on their own, and the rest of the
/// handoff, spread over its remaining points, is the per-step solve cost.
fn probe_transient(
    trace: &mut Trace,
    root: SpanId,
    stage: &Stage,
    report: &StageReport,
    options: &FarEndOptions,
    (handoff_s, handoff_points): (f64, usize),
    workspace: &mut TransientWorkspace,
) -> Result<(), String> {
    let load = stage.load();
    let t_stop = report.waveform.end_time() + options.settle_time + load.settle_horizon();
    let started = Instant::now();
    let circuit = trace.time("mna_stamp", root, || -> Result<Circuit, String> {
        let mut circuit = Circuit::new();
        let near = circuit.node("out");
        circuit.add_vsource(
            "VDRV",
            near,
            Circuit::GROUND,
            report.waveform.to_source(t_stop),
        );
        circuit.set_initial_condition(near, 0.0);
        load.attach_net(&mut circuit, near, 0.0, options.segments)
            .map_err(|e| e.to_string())?;
        Ok(circuit)
    })?;
    let stamped = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let fixed_points = trace
        .time("tran_fixed", root, || {
            TransientOptions::try_new(options.time_step, 2.0 * options.time_step)
                .and_then(|o| TransientAnalysis::new(o).run_with(&circuit, workspace))
                .map(|result| result.num_points())
        })
        .map_err(|e| e.to_string())?;
    let fixed = started.elapsed().as_secs_f64();
    if handoff_points > fixed_points {
        trace.count(
            "tran_step_s",
            (handoff_s - stamped - fixed).max(0.0) / (handoff_points - fixed_points) as f64,
        );
    }
    trace.count("tran_steps", handoff_points as f64);
    Ok(())
}

fn probe_cache(
    trace: &mut Trace,
    root: SpanId,
    engine: &TimingEngine,
    stage: &Stage,
    report: &StageReport,
    cache: &StageResultCache,
) -> Result<(), String> {
    let key = stage_key(
        stage,
        InputFingerprint::Fixed(stage.input()),
        engine.config(),
        &SessionOptions::default(),
    )
    .ok_or("a probed stage has no result-cache key")?;
    trace
        .time("cache_store", root, || cache.store(&key, report))
        .map_err(|e| e.to_string())?;
    let replayed = trace
        .time("cache_lookup", root, || cache.load(&key, stage.label()))
        .ok_or("a freshly stored result missed the cache")?;
    if replayed.delay.to_bits() != report.delay.to_bits() {
        return Err("the result cache replayed a different delay".into());
    }
    Ok(())
}

/// Encodes the stage as the submission a client sends and its report as
/// the frame a server returns, then decodes both.
fn probe_wire(
    trace: &mut Trace,
    root: SpanId,
    net: &Net,
    index: usize,
    report: &StageReport,
    slew: f64,
    delay: f64,
) -> Result<(), String> {
    let request = Request::Submit(Box::new(
        net.remote_stage(format!("probe-{index}"), Input::Event { slew, delay })
            .into_wire(),
    ));
    let response = Response::Reports {
        reports: vec![(
            index as u64,
            Ok(WireReport {
                label: report.label.clone(),
                backend: report.backend.to_string(),
                delay: report.delay,
                slew: report.slew,
                input_t50: report.input_t50,
                vdd: report.vdd,
                used_two_ramp: report.used_two_ramp,
                elapsed_seconds: report.elapsed_seconds,
            }),
        )],
    };
    let frames = trace.time("wire_encode", root, || {
        let mut frames = Vec::new();
        write_frame(&mut frames, &request.encode())?;
        write_frame(&mut frames, &response.encode())?;
        Ok::<_, rlc_service::WireError>(frames)
    });
    let frames = frames.map_err(|e| e.to_string())?;
    trace.count("wire_bytes", frames.len() as f64);
    let decoded = trace.time("wire_decode", root, || {
        let mut reader = std::io::Cursor::new(&frames);
        let request = read_frame(&mut reader)?
            .map(|p| Request::decode(&p))
            .transpose()?;
        let response = read_frame(&mut reader)?
            .map(|p| Response::decode(&p))
            .transpose()?;
        Ok::<_, rlc_service::WireError>((request, response))
    });
    match decoded.map_err(|e| e.to_string())? {
        (Some(r), Some(s)) if r == request && s == response => Ok(()),
        _ => Err("wire frames did not round-trip".into()),
    }
}
