//! DC operating-point analysis (Newton–Raphson with gmin and step limiting).
//!
//! A linear circuit is solved directly by one sparse LU factorization. The
//! Newton loop for MOSFET circuits uses the split-stamp scheme: the
//! state-independent stamps (gmin, resistors, sources, inductor shorts) are
//! assembled once into a cached matrix/RHS pair, and each iteration copies
//! the cache and adds only the MOSFET linearizations before refactorizing —
//! the inner loop performs no allocation.

use rlc_numeric::{CscMatrix, DenseMatrix, LuFactors, SparseLu};

use crate::circuit::Circuit;
use crate::mna::{pivots_healthy, MnaSystem};
use crate::SpiceError;

/// Options controlling the DC Newton loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Maximum Newton iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on node-voltage updates (volts).
    pub voltage_tolerance: f64,
    /// Largest allowed voltage change per iteration (volts); larger updates
    /// are clamped, which keeps the alpha-power MOSFET linearization inside
    /// its region of validity.
    pub step_limit: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iterations: 200,
            voltage_tolerance: 1e-9,
            step_limit: 0.5,
        }
    }
}

impl DcOptions {
    /// Checks every numeric field; [`dc_operating_point`] calls it first, and
    /// [`crate::transient::TransientOptions::validate`] checks its Newton
    /// controls with it. A NaN or negative step limit would make the damped
    /// update's clamp panic.
    ///
    /// # Errors
    /// [`SpiceError::InvalidOptions`] unless `max_iterations` is at least 1
    /// and `voltage_tolerance` and `step_limit` are finite and positive.
    pub fn validate(&self) -> Result<(), SpiceError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if self.max_iterations > 0 && positive(self.voltage_tolerance) && positive(self.step_limit)
        {
            return Ok(());
        }
        Err(SpiceError::InvalidOptions(format!(
            "Newton controls need at least one iteration and a finite, positive tolerance and \
             step limit: {self:?}"
        )))
    }
}

/// The damped Newton update of the DC and transient Newton loops: moves
/// each node voltage of `guess` toward the linear solve's `solved`, its
/// change clamped to `±step_limit` to keep the alpha-power MOSFET
/// linearization inside its region of validity, and takes the branch
/// currents from `solved` unclamped. Returns the largest voltage change.
pub(crate) fn damped_update(
    guess: &mut [f64],
    solved: &[f64],
    n_voltages: usize,
    step_limit: f64,
) -> f64 {
    let mut max_delta: f64 = 0.0;
    for (g, &s) in guess[..n_voltages].iter_mut().zip(&solved[..n_voltages]) {
        let delta = (s - *g).clamp(-step_limit, step_limit);
        max_delta = max_delta.max(delta.abs());
        *g += delta;
    }
    guess[n_voltages..].copy_from_slice(&solved[n_voltages..]);
    max_delta
}

/// Solution of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    system: MnaSystem,
    x: Vec<f64>,
    /// Newton iterations used.
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of a node in the solution.
    pub fn voltage(&self, node: crate::circuit::NodeId) -> f64 {
        self.system.node_voltage(&self.x, node.index())
    }

    /// Branch current of a named voltage source (SPICE convention: the
    /// current flowing *into* the positive terminal, so a source delivering
    /// power reports a negative value).
    pub fn vsource_current(&self, name: &str) -> Option<f64> {
        self.system.vsource_branch(name).map(|b| self.x[b])
    }

    /// Raw solution vector (node voltages then branch currents).
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Computes the DC operating point of a circuit.
///
/// # Errors
/// Returns [`SpiceError::InvalidOptions`] for options that fail
/// [`DcOptions::validate`], [`SpiceError::NonConvergence`] if Newton fails,
/// or [`SpiceError::SingularMatrix`] / [`SpiceError::InvalidCircuit`] for
/// structural problems.
pub fn dc_operating_point(circuit: &Circuit, options: DcOptions) -> Result<DcSolution, SpiceError> {
    options.validate()?;
    circuit.validate()?;
    let system = MnaSystem::compile(circuit);
    let (x, iterations) = dc_solve_compiled(&system, circuit, options)?;
    Ok(DcSolution {
        system,
        x,
        iterations,
    })
}

/// Runs the DC Newton loop on an already compiled system (so transient
/// analysis can reuse its compilation). Returns the solution vector and the
/// iteration count.
pub(crate) fn dc_solve_compiled(
    system: &MnaSystem,
    circuit: &Circuit,
    options: DcOptions,
) -> Result<(Vec<f64>, usize), SpiceError> {
    let n = system.num_unknowns();
    let n_voltages = system.num_nodes() - 1;
    // Initial guess: the initial conditions, zero where there are none.
    let mut x = system.initial_condition_vector(circuit);

    // Linear circuits have no Newton iteration to run — the first solve is
    // exact — so they take one sparse factorization and solve; an unhealthy
    // sparse factorization falls through to the dense Newton loop below.
    if system.is_linear() {
        let mut triplets = Vec::new();
        system.dc_triplets(&mut triplets);
        let csc = CscMatrix::from_triplets(n, &triplets);
        let mut sparse = SparseLu::empty();
        if sparse.factor(&csc).is_ok() && pivots_healthy(sparse.pivot_extremes().0, csc.max_abs()) {
            let mut rhs = vec![0.0; n];
            system.stamp_dc_rhs(&mut rhs);
            sparse.solve_into(&rhs, &mut x);
            return Ok((x, 1));
        }
    }

    // Split-stamp cache: everything except the MOSFET linearizations.
    let mut static_matrix = DenseMatrix::zeros(n, n);
    let mut static_rhs = vec![0.0; n];
    system.stamp_dc_static(&mut static_matrix, &mut static_rhs);
    let mut m = DenseMatrix::zeros(n, n);
    let mut rhs = vec![0.0; n];
    let mut lu = LuFactors::empty();
    let mut x_new = vec![0.0; n];

    let mut last_delta = f64::INFINITY;
    for it in 0..options.max_iterations {
        m.copy_from(&static_matrix);
        rhs.copy_from_slice(&static_rhs);
        system.stamp_mosfets(&x, None, |i, j, v| m.add_at(i, j, v), |i, v| rhs[i] += v);
        m.factor_into(&mut lu)
            .map_err(|_| SpiceError::SingularMatrix { time: None })?;
        lu.solve_into(&rhs, &mut x_new);
        last_delta = damped_update(&mut x, &x_new, n_voltages, options.step_limit);
        if last_delta < options.voltage_tolerance {
            return Ok((x, it + 1));
        }
    }

    Err(SpiceError::NonConvergence {
        time: None,
        iterations: options.max_iterations,
        max_delta: last_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::mosfet::MosfetParams;
    use crate::source::SourceWaveform;
    use rlc_numeric::approx_eq;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_resistor("R1", a, b, 3000.0);
        ckt.add_resistor("R2", b, Circuit::GROUND, 1000.0);
        let sol = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert!(approx_eq(sol.voltage(b), 0.45, 1e-6));
        assert!(approx_eq(sol.voltage(a), 1.8, 1e-9));
        // delivered current = 1.8 / 4k = 0.45 mA, reported as -0.45 mA
        assert!(approx_eq(
            sol.vsource_current("V1").unwrap(),
            -0.45e-3,
            1e-6
        ));
    }

    #[test]
    fn inverter_output_low_when_input_high() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_vsource("VIN", vin, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_mosfet("MP", vout, vin, vdd, MosfetParams::pmos_018(), 54e-6);
        ckt.add_mosfet(
            "MN",
            vout,
            vin,
            Circuit::GROUND,
            MosfetParams::nmos_018(),
            27e-6,
        );
        ckt.add_capacitor("CL", vout, Circuit::GROUND, 10e-15);
        let sol = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert!(sol.voltage(vout) < 0.05, "out = {}", sol.voltage(vout));
    }

    #[test]
    fn inverter_output_high_when_input_low() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_vsource("VIN", vin, Circuit::GROUND, SourceWaveform::dc(0.0));
        ckt.add_mosfet("MP", vout, vin, vdd, MosfetParams::pmos_018(), 54e-6);
        ckt.add_mosfet(
            "MN",
            vout,
            vin,
            Circuit::GROUND,
            MosfetParams::nmos_018(),
            27e-6,
        );
        ckt.add_capacitor("CL", vout, Circuit::GROUND, 10e-15);
        let sol = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert!(sol.voltage(vout) > 1.75, "out = {}", sol.voltage(vout));
    }

    #[test]
    fn invalid_circuit_is_rejected() {
        let ckt = Circuit::new();
        assert!(dc_operating_point(&ckt, DcOptions::default()).is_err());
    }

    #[test]
    fn large_linear_dc_uses_sparse_path_and_matches_analytic() {
        // A chain of 151 equal resistors is a uniform divider: the voltage
        // after k resistors is V * (151 - k) / 151. The circuit is linear,
        // so this exercises the sparse linear DC solve (one factor + solve,
        // no Newton loop).
        let n_res = 151usize;
        let v = 1.8;
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        ckt.add_vsource("V1", src, Circuit::GROUND, SourceWaveform::dc(v));
        let mut prev = src;
        let mut nodes = Vec::new();
        for k in 0..n_res - 1 {
            let n = ckt.node(&format!("n{k}"));
            ckt.add_resistor(format!("R{k}"), prev, n, 10.0);
            nodes.push(n);
            prev = n;
        }
        ckt.add_resistor("Rend", prev, Circuit::GROUND, 10.0);
        let sol = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert_eq!(sol.iterations, 1);
        for (k, &node) in nodes.iter().enumerate() {
            // The gmin stamps load every node with 1e-12 S, shifting the
            // ideal divider by a few nV across 150 nodes.
            let expected = v * (n_res - 1 - k) as f64 / n_res as f64;
            assert!(
                (sol.voltage(node) - expected).abs() < 1e-6,
                "node {k}: {} vs {expected}",
                sol.voltage(node)
            );
        }
        assert!(approx_eq(
            sol.vsource_current("V1").unwrap(),
            -v / (10.0 * n_res as f64),
            1e-6
        ));
    }
}
