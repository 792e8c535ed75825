//! Circuit element descriptions.

use crate::circuit::NodeId;
use crate::mosfet::MosfetParams;
use crate::source::SourceWaveform;

/// One circuit element.
///
/// Elements are plain data; all analysis behaviour (companion models, Newton
/// linearization) lives in [`crate::mna`].
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name (used in error messages).
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be > 0).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be > 0).
        farads: f64,
    },
    /// Linear inductor between `a` and `b`. Its branch current is an extra
    /// MNA unknown (flowing from `a` to `b` through the inductor).
    Inductor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (must be > 0).
        henries: f64,
    },
    /// Independent voltage source; `pos` is the positive terminal. Its branch
    /// current (flowing out of `pos` through the external circuit) is an
    /// extra MNA unknown.
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source value over time.
        waveform: SourceWaveform,
    },
    /// Independent current source pushing current out of `from` and into `to`
    /// (i.e. conventional current flows `from → to` through the external
    /// circuit when the value is positive).
    CurrentSource {
        /// Instance name.
        name: String,
        /// Terminal the current leaves (through the external circuit).
        from: NodeId,
        /// Terminal the current enters.
        to: NodeId,
        /// Source value over time (amperes).
        waveform: SourceWaveform,
    },
    /// Mutual inductive coupling between two named [`Element::Inductor`]s (a
    /// SPICE `K` element expressed directly as the mutual inductance `M`
    /// rather than the coupling coefficient). The coupled branch equations
    /// become `V_a = L_a dI_a/dt + M dI_b/dt` (and symmetrically for `b`), so
    /// the element touches no circuit nodes of its own — it only couples the
    /// two existing inductor branch currents.
    MutualInductance {
        /// Instance name.
        name: String,
        /// Instance name of the first coupled inductor.
        inductor_a: String,
        /// Instance name of the second coupled inductor.
        inductor_b: String,
        /// Mutual inductance in henries. May be negative (anti-series
        /// coupling); `M^2` must stay below `L_a * L_b` so the inductance
        /// matrix remains positive definite.
        henries: f64,
    },
    /// Alpha-power-law MOSFET. Drain/gate/source terminals; the bulk is
    /// implicitly tied to the source (body effect is not modelled).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Device model parameters.
        params: MosfetParams,
        /// Drawn width in metres.
        width: f64,
    },
}

impl Element {
    /// Instance name of the element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::MutualInductance { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }

    /// Nodes this element touches, in terminal order: two for the
    /// two-terminal elements, drain/gate/source for a MOSFET, none for a
    /// mutual inductance (it couples two inductor *branches* and has no
    /// terminals of its own).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        let unused = NodeId(0);
        let (terminals, count) = match self {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. }
            | Element::VoltageSource { pos: a, neg: b, .. }
            | Element::CurrentSource { from: a, to: b, .. } => ([*a, *b, unused], 2),
            Element::MutualInductance { .. } => ([unused; 3], 0),
            Element::Mosfet {
                drain,
                gate,
                source,
                ..
            } => ([*drain, *gate, *source], 3),
        };
        terminals.into_iter().take(count)
    }

    /// Whether the element contributes an extra branch-current unknown to the
    /// MNA system (voltage sources and inductors do).
    pub fn needs_branch_current(&self) -> bool {
        matches!(
            self,
            Element::VoltageSource { .. } | Element::Inductor { .. }
        )
    }

    /// Whether the element is nonlinear (requires Newton iterations).
    pub fn is_nonlinear(&self) -> bool {
        matches!(self, Element::Mosfet { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn element_metadata() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let r = Element::Resistor {
            name: "R1".into(),
            a,
            b,
            ohms: 10.0,
        };
        assert_eq!(r.name(), "R1");
        assert_eq!(r.nodes().collect::<Vec<_>>(), vec![a, b]);
        assert!(!r.needs_branch_current());
        assert!(!r.is_nonlinear());

        let l = Element::Inductor {
            name: "L1".into(),
            a,
            b,
            henries: 1e-9,
        };
        assert!(l.needs_branch_current());

        let v = Element::VoltageSource {
            name: "V1".into(),
            pos: a,
            neg: Circuit::GROUND,
            waveform: SourceWaveform::dc(1.0),
        };
        assert!(v.needs_branch_current());

        let k = Element::MutualInductance {
            name: "K1".into(),
            inductor_a: "L1".into(),
            inductor_b: "L2".into(),
            henries: 0.5e-9,
        };
        assert_eq!(k.name(), "K1");
        assert_eq!(k.nodes().len(), 0);
        assert!(!k.needs_branch_current());
        assert!(!k.is_nonlinear());

        let m = Element::Mosfet {
            name: "M1".into(),
            drain: a,
            gate: b,
            source: Circuit::GROUND,
            params: MosfetParams::nmos_018(),
            width: 1e-6,
        };
        assert!(m.is_nonlinear());
        assert_eq!(m.nodes().len(), 3);
    }
}
