//! Pins the wire format: six representative frames, written back to back,
//! as their total length plus FNV-1a hash, and one shard routing key. The
//! constants were captured from builds speaking the same `PROTOCOL_VERSION`,
//! so a failure here means old peers would misparse new frames — bump the
//! protocol version instead of editing the constants.

use rlc_numeric::codec::fnv1a;
use rlc_service::protocol::{
    Request, Response, WireAggressor, WireBackend, WireBranch, WireCellRef, WireDiagnostic,
    WireInput, WireLine, WireLoad, WireReport, WireSessionOptions, WireStage,
};
use rlc_service::wire::write_frame;

fn line(scale: f64) -> WireLine {
    WireLine {
        resistance: 72.44 * scale,
        inductance: 5.14e-9 * scale,
        capacitance: 1.10e-12 * scale,
        length: 5.0e-3 * scale,
    }
}

fn tree_stage() -> WireStage {
    WireStage {
        label: "pin/tree".into(),
        cell: WireCellRef::Characterize { size: 75.0 },
        load: WireLoad::Tree {
            branches: vec![
                WireBranch {
                    parent: None,
                    line: line(0.4),
                    sink: None,
                },
                WireBranch {
                    parent: Some(0),
                    line: line(0.2),
                    sink: Some(("rx0".into(), 15e-15)),
                },
            ],
        },
        input: WireInput::FromSink {
            producer: 3,
            sink: "rx1".into(),
        },
        after: vec![1, 2],
        backend: WireBackend::Spice,
    }
}

fn bus_stage() -> WireStage {
    WireStage {
        label: "pin/bus".into(),
        cell: WireCellRef::Synthetic {
            size: 100.0,
            on_resistance: 52.5,
        },
        load: WireLoad::Bus {
            victim: line(1.0),
            aggressor: line(1.0),
            coupling_capacitance: 0.4e-12,
            mutual_inductance: 1.0e-9,
            victim_load: 10e-15,
            aggressor_load: 20e-15,
            drive: WireAggressor {
                switching: 2,
                slew: 100e-12,
                delay: 50e-12,
                amplitude: 1.8,
            },
        },
        input: WireInput::Event {
            slew: 100e-12,
            delay: Some(20e-12),
        },
        after: vec![],
        backend: WireBackend::Analytic,
    }
}

#[test]
fn frames_and_routing_key_are_pinned() {
    let report = WireReport {
        label: "pin/tree".into(),
        backend: "analytic".into(),
        delay: 1.234567890123e-10,
        slew: 9.87e-11,
        input_t50: 7.0e-11,
        vdd: 1.8,
        used_two_ramp: true,
        elapsed_seconds: 0.0125,
    };
    let payloads = [
        Request::Submit(Box::new(tree_stage())).encode(),
        Request::Lint(Box::new(bus_stage())).encode(),
        Request::Hello {
            options: WireSessionOptions {
                timeout_nanos: Some(250_000_000),
                max_in_flight: 4,
                sampled_handoff: false,
            },
        }
        .encode(),
        Response::Reports {
            reports: vec![
                (0, Ok(report)),
                (1, Err((12, "stage 'x' was poisoned".into()))),
            ],
        }
        .encode(),
        Response::LintReport {
            diagnostics: vec![WireDiagnostic {
                code: "L001".into(),
                severity: 2,
                locus: "n3".into(),
                message: "node `n3` is floating".into(),
            }],
        }
        .encode(),
        Response::Error {
            code: 100,
            message: "submit before hello".into(),
        }
        .encode(),
    ];
    let mut stream = Vec::new();
    for payload in &payloads {
        write_frame(&mut stream, payload).unwrap();
    }
    assert_eq!((stream.len(), fnv1a(&stream)), (767, 0x61ae_c3c4_8623_3f36));
    assert_eq!(tree_stage().routing_key(), 0xa467_5a70_6ac8_d677);
}
