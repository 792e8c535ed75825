//! Seeded-defect suite: one deliberately broken circuit per lint code,
//! pinning the code **and** the locus each defect is reported at, plus a
//! clean-bill pass over every shipped example topology and every published
//! paper case. Codes are wire-stable; if one of these tests breaks, a code's
//! meaning changed — which the append-only contract forbids.

use rlc_interconnect::paper_cases;
use rlc_interconnect::{CoupledBus, NetTopology, RlcLine, RlcTree};
use rlc_lint::{codes, lint_circuit, lint_topology, LintOptions, Severity};
use rlc_spice::{Circuit, Element, NodeId, SourceWaveform, VariationSpec};

/// A minimal clean driven RC stage: V1 -> R1 -> C1. Every defect below is
/// seeded on top of this (or replaces parts of it), so each test isolates
/// exactly one broken construct.
fn clean_stage() -> (Circuit, NodeId, NodeId) {
    let mut ckt = Circuit::new();
    let near = ckt.node("near");
    let far = ckt.node("far");
    ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(1.0));
    ckt.add_resistor("R1", near, far, 100.0);
    ckt.add_capacitor("C1", far, Circuit::GROUND, 1e-13);
    (ckt, near, far)
}

fn codes_of(findings: &[rlc_lint::Diagnostic]) -> Vec<&str> {
    findings.iter().map(|d| d.code.as_str()).collect()
}

/// The one finding with the given code; panics (with the full list) when the
/// code is absent or ambiguous where the test expects exactly one.
fn only<'a>(findings: &'a [rlc_lint::Diagnostic], code: &str) -> &'a rlc_lint::Diagnostic {
    let hits: Vec<_> = findings.iter().filter(|d| d.code == code).collect();
    assert_eq!(hits.len(), 1, "expected exactly one {code} in {findings:?}");
    hits[0]
}

#[test]
fn l001_floating_node_names_the_stranded_node() {
    let (mut ckt, _, _) = clean_stage();
    let _stranded = ckt.node("stranded");
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::FLOATING_NODE);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.locus, "stranded");
}

#[test]
fn l002_ground_unreachable_island_is_located() {
    let (mut ckt, _, _) = clean_stage();
    // An RC island: carries elements, but no path of any kind to ground.
    let a = ckt.node("isl_a");
    let b = ckt.node("isl_b");
    ckt.add_resistor("R_isl", a, b, 50.0);
    ckt.add_capacitor("C_isl", a, b, 1e-14);
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let hits: Vec<_> = findings
        .iter()
        .filter(|d| d.code == codes::GROUND_UNREACHABLE)
        .collect();
    assert_eq!(hits.len(), 2, "both island nodes are unreachable");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    let loci: Vec<&str> = hits.iter().map(|d| d.locus.as_str()).collect();
    assert!(loci.contains(&"isl_a") && loci.contains(&"isl_b"));
}

#[test]
fn l003_dangling_resistor_endpoint_names_the_element() {
    let (mut ckt, _, far) = clean_stage();
    let stub = ckt.node("stub");
    ckt.add_resistor("R_stub", far, stub, 25.0);
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::DANGLING_ELEMENT);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.locus, "R_stub");
    assert!(d.message.contains("stub"));
}

#[test]
fn l004_parallel_vsources_name_both_sources() {
    let (mut ckt, near, _) = clean_stage();
    // Same unordered node pair, even with identical waveforms: the two
    // branch constraints are redundant and the system is singular.
    ckt.add_vsource("V2", Circuit::GROUND, near, SourceWaveform::dc(-1.0));
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::DUPLICATE_SHORT);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.locus, "V1, V2");
    assert!(d.message.contains("near"));
}

#[test]
fn l005_mutual_referencing_missing_or_self_inductor() {
    let (mut ckt, near, far) = clean_stage();
    ckt.add_inductor("L1", near, far, 1e-9);
    ckt.add_mutual_inductance("K_missing", "L1", "L_ghost", 1e-10);
    ckt.add_mutual_inductance("K_self", "L1", "L1", 1e-10);
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let hits: Vec<_> = findings
        .iter()
        .filter(|d| d.code == codes::MUTUAL_MISSING_INDUCTOR)
        .collect();
    assert_eq!(hits.len(), 2);
    assert!(hits
        .iter()
        .any(|d| d.locus == "K_missing" && d.message.contains("L_ghost")));
    assert!(hits
        .iter()
        .any(|d| d.locus == "K_self" && d.message.contains("itself")));
    // The structural pass is gated off (MnaSystem::compile cannot resolve
    // the dangling reference), so no spurious L010 rides along.
    assert!(!codes_of(&findings).contains(&codes::STRUCTURALLY_SINGULAR));
}

#[test]
fn l006_topology_without_sinks_warns() {
    let topology = NetTopology::Tree(RlcTree::new());
    let findings = lint_topology(&topology, Some(1e-12));
    let d = only(&findings, codes::NO_SINKS);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.locus, "");
}

#[test]
fn l010_degenerate_branch_row_is_structurally_singular() {
    let (mut ckt, _, far) = clean_stage();
    // Both terminals on one node: the branch constraint row cancels to
    // exactly zero even though its sparsity pattern looks populated.
    ckt.add_vsource("V_loop", far, far, SourceWaveform::dc(0.0));
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::STRUCTURALLY_SINGULAR);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.locus, "V_loop");
    assert!(d.message.contains("far"));
}

#[test]
fn l010_unmatched_mna_row_names_the_unknown() {
    let (mut ckt, near, _) = clean_stage();
    // A second source in parallel leaves one branch row unmatched in the
    // maximum bipartite matching over the DC stamp pattern.
    ckt.add_vsource("V2", near, Circuit::GROUND, SourceWaveform::dc(1.0));
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let hits: Vec<_> = findings
        .iter()
        .filter(|d| d.code == codes::STRUCTURALLY_SINGULAR)
        .collect();
    assert!(!hits.is_empty(), "no L010 in {findings:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    assert!(hits[0].locus.contains("branch current"));
    assert!(hits[0].message.contains("structural rank"));
}

#[test]
fn l020_non_passive_element_value() {
    let (mut ckt, near, far) = clean_stage();
    // add_resistor asserts on non-positive values, which is exactly the
    // hole the lint covers for circuits assembled element by element.
    ckt.add_element(Element::Resistor {
        name: "R_neg".to_string(),
        a: near,
        b: far,
        ohms: -10.0,
    });
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::NON_PASSIVE_ELEMENT);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.locus, "R_neg");
    assert!(d.message.contains("resistance"));
}

#[test]
fn l021_overcoupled_mutual_reports_k() {
    let (mut ckt, near, far) = clean_stage();
    let mid = ckt.node("mid");
    ckt.add_inductor("L1", near, mid, 1e-9);
    ckt.add_inductor("L2", mid, far, 1e-9);
    // M^2 >= L1 * L2  =>  k >= 1.
    ckt.add_mutual_inductance("K1", "L1", "L2", 2e-9);
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let d = only(&findings, codes::OVERCOUPLED_MUTUAL);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.locus, "K1");
    assert!(d.message.contains(">= 1"));
}

#[test]
fn l022_conditioning_spread_fires_only_with_a_time_step() {
    let mut ckt = Circuit::new();
    let near = ckt.node("near");
    let far = ckt.node("far");
    ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(1.0));
    // 1/R = 1e-9 S vs C/h = 1e6 S: fifteen decades of conductance spread.
    ckt.add_resistor("R_huge", near, far, 1e9);
    ckt.add_capacitor("C_big", far, Circuit::GROUND, 1e-6);
    let with_step = lint_circuit(&ckt, &LintOptions::new().with_time_step(1e-12));
    let d = only(&with_step, codes::CONDITIONING_SPREAD);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.locus, "");
    assert!(d.message.contains("C/h of `C_big`") && d.message.contains("1/R of `R_huge`"));
    // Without a declared step the check cannot run.
    assert!(lint_circuit(&ckt, &LintOptions::new()).is_empty());
}

#[test]
fn l023_degenerate_value_below_physical_floor() {
    let (mut ckt, near, far) = clean_stage();
    ckt.add_resistor("R_zero", near, far, 1e-9);
    ckt.add_capacitor("C_zero", far, Circuit::GROUND, 1e-22);
    let findings = lint_circuit(&ckt, &LintOptions::new());
    let hits: Vec<_> = findings
        .iter()
        .filter(|d| d.code == codes::DEGENERATE_ELEMENT)
        .collect();
    assert_eq!(hits.len(), 2);
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
    assert!(hits
        .iter()
        .any(|d| d.locus == "R_zero" && d.message.contains("floor")));
    assert!(hits.iter().any(|d| d.locus == "C_zero"));
}

#[test]
fn l024_sink_pinned_by_voltage_source() {
    let (ckt, near, far) = clean_stage();
    let options = LintOptions::new().with_sinks(vec![
        ("drv_out".to_string(), near), // pinned by V1
        ("rx".to_string(), far),       // a real measurement point
    ]);
    let findings = lint_circuit(&ckt, &options);
    let d = only(&findings, codes::SINK_SHADOWED);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.locus, "drv_out");
    assert!(d.message.contains("V1"));
}

#[test]
fn l040_variation_spec_reports_every_bad_field_at_once() {
    let spec = VariationSpec::nominal()
        .with_r_scale(-1.0)
        .with_c_scale(f64::NAN);
    let findings = spec.diagnostics();
    // One violation per bad field, collected — not first-failure-wins. The
    // negative r_scale also poisons the derived effective_r_scale.
    assert!(
        findings.len() >= 3,
        "collected list too short: {findings:?}"
    );
    assert!(findings
        .iter()
        .all(|d| d.code == codes::VARIATION_FIELD && d.severity == Severity::Error));
    let loci: Vec<&str> = findings.iter().map(|d| d.locus.as_str()).collect();
    assert!(loci.contains(&"r_scale"));
    assert!(loci.contains(&"c_scale"));
    assert!(loci.contains(&"effective_r_scale"));
}

#[test]
fn clean_bill_for_every_published_paper_case() {
    for parasitics in paper_cases::all_published_parasitics() {
        let line = RlcLine::new(
            parasitics.r_ohms,
            parasitics.l_nh * 1e-9,
            parasitics.c_pf * 1e-12,
            parasitics.length_mm * 1e-3,
        );
        let topology = NetTopology::single_line(line, 10e-15);
        let findings = lint_topology(&topology, Some(1e-12));
        assert!(
            findings.is_empty(),
            "{} should lint clean, got {findings:?}",
            parasitics.label
        );
    }
}

#[test]
fn clean_bill_for_the_shipped_example_topologies() {
    // The flagship 5 mm line of the quickstart/far-end examples.
    let line = RlcLine::new(72.44, 5.14e-9, 1.10e-12, 5e-3);

    // A three-sink routing tree like `path_timing.rs` builds.
    let mut tree = RlcTree::new();
    let trunk = tree.add_branch(None, line);
    let short = RlcLine::new(20.0, 1e-9, 0.3e-12, 1e-3);
    for (k, name) in ["rx0", "rx1", "rx2"].iter().enumerate() {
        let b = tree.add_branch(Some(trunk), short);
        tree.set_sink(b, name, 10e-15 + k as f64 * 5e-15);
    }
    let findings = lint_topology(&NetTopology::Tree(tree), Some(1e-12));
    assert!(findings.is_empty(), "tree should lint clean: {findings:?}");

    // The crosstalk bus of `crosstalk_bus.rs`: k = 0.2, well below 1.
    let bus = CoupledBus::symmetric(line, 0.4e-12, 1.028e-9, 10e-15);
    let findings = lint_topology(&NetTopology::CoupledBus(bus), Some(1e-12));
    assert!(findings.is_empty(), "bus should lint clean: {findings:?}");
}

#[test]
fn every_shipped_code_has_a_fixed_severity_and_class() {
    // The table is the README's source of truth; keep it exhaustive and
    // keep each class represented.
    let codes: Vec<&str> = codes::ALL.iter().map(|(c, _, _)| *c).collect();
    assert!(codes.len() >= 10);
    let graph = ["L001", "L002", "L003", "L004", "L005", "L006"];
    let structural = ["L010"];
    let numeric = ["L020", "L021", "L022", "L023", "L024"];
    for class in [&graph[..], &structural[..], &numeric[..]] {
        for code in class {
            assert!(codes.contains(code), "{code} missing from codes::ALL");
        }
    }
    // README's lint table lists exactly these rows, in this order.
    let readme = include_str!("../../../README.md");
    let rows: Vec<&str> = readme
        .lines()
        .filter(|line| line.starts_with("| `L0"))
        .collect();
    let expected: Vec<String> = codes::ALL
        .iter()
        .map(|(code, severity, meaning)| format!("| `{code}` | {severity} | {meaning} |"))
        .collect();
    assert_eq!(
        rows, expected,
        "README's lint table differs from codes::ALL"
    );
}
