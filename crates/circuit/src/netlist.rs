//! Combinational netlists as append-only DAGs.
//!
//! A [`Netlist`] is built by adding inputs and gates whose fan-ins must
//! already exist, so insertion order is a topological order by
//! construction — there is no way to express a combinational loop. This is
//! the substrate for the static-timing-analysis engine ([`crate::sta`]) and
//! the adder generators ([`crate::adder`]).

use crate::gate::GateKind;

/// Handle to a gate inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// Index into the netlist's gate array (also its topological position).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One instantiated gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateNode {
    kind: GateKind,
    fanin: Vec<GateId>,
}

impl GateNode {
    /// Cell type.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Fan-in gate handles.
    #[must_use]
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }
}

/// A combinational DAG netlist.
///
/// # Example
///
/// ```
/// use ntv_circuit::{GateKind, Netlist};
///
/// let mut n = Netlist::default();
/// let a = n.add_input();
/// let b = n.add_input();
/// let _sum = n.add_gate(GateKind::Xor2, &[a, b]);
/// let _carry = n.add_gate(GateKind::And2, &[a, b]);
/// assert_eq!(n.gate_count(), 2);
/// assert_eq!(n.logic_depth(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    gates: Vec<GateNode>,
}

impl Netlist {
    /// Add a primary input and return its handle.
    pub fn add_input(&mut self) -> GateId {
        let id = GateId(self.gates.len());
        self.gates.push(GateNode {
            kind: GateKind::Input,
            fanin: Vec::new(),
        });
        id
    }

    /// Add a gate of `kind` driven by `fanin` and return its handle.
    ///
    /// # Panics
    ///
    /// Panics if any fan-in handle does not exist yet (which also rules out
    /// combinational loops), or if the fan-in count does not match the
    /// cell's arity.
    pub fn add_gate(&mut self, kind: GateKind, fanin: &[GateId]) -> GateId {
        assert!(
            kind != GateKind::Input,
            "use add_input to create primary inputs"
        );
        for &f in fanin {
            assert!(
                f.0 < self.gates.len(),
                "fan-in {f:?} does not exist yet (netlists are append-only DAGs)"
            );
        }
        if let Some(arity) = kind.fanin_arity() {
            assert!(
                fanin.len() == arity,
                "{kind} expects {arity} inputs, got {}",
                fanin.len()
            );
        }
        let id = GateId(self.gates.len());
        self.gates.push(GateNode {
            kind,
            fanin: fanin.to_vec(),
        });
        id
    }

    /// All gates in topological order (construction order).
    #[must_use]
    pub fn nodes(&self) -> &[GateNode] {
        &self.gates
    }

    /// Gate node by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn node(&self, id: GateId) -> &GateNode {
        &self.gates[id.0]
    }

    /// Total nodes including primary inputs.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic gates (excluding primary inputs).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind != GateKind::Input)
            .count()
    }

    /// Maximum number of logic levels from any input to any node.
    #[must_use]
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.gates.len()];
        let mut max_depth = 0;
        for (i, gate) in self.gates.iter().enumerate() {
            if gate.kind == GateKind::Input {
                continue;
            }
            let d = gate.fanin.iter().map(|f| depth[f.0]).max().unwrap_or(0) + 1;
            depth[i] = d;
            max_depth = max_depth.max(d);
        }
        max_depth
    }

    /// Iterate gate handles in topological order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Netlist {
        let mut n = Netlist::default();
        let a = n.add_input();
        let b = n.add_input();
        let g1 = n.add_gate(GateKind::Nand2, &[a, b]);
        n.add_gate(GateKind::Inv, &[g1]);
        n
    }

    #[test]
    fn counts_and_depth() {
        let n = two_level();
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.logic_depth(), 2);
    }

    #[test]
    fn construction_order_is_topological() {
        let n = two_level();
        for id in n.ids() {
            for &f in n.node(id).fanin() {
                assert!(f.index() < id.index());
            }
        }
    }

    #[test]
    fn inputs_have_depth_zero() {
        let mut n = Netlist::default();
        n.add_input();
        n.add_input();
        assert_eq!(n.logic_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_rejected() {
        let mut n = Netlist::default();
        let a = n.add_input();
        // Fabricate a handle that doesn't exist.
        let bogus = GateId(99);
        let _ = n.add_gate(GateKind::Nand2, &[a, bogus]);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_rejected() {
        let mut n = Netlist::default();
        let a = n.add_input();
        let _ = n.add_gate(GateKind::Nand2, &[a]);
    }

    #[test]
    #[should_panic(expected = "use add_input")]
    fn cannot_add_input_via_add_gate() {
        let mut n = Netlist::default();
        let _ = n.add_gate(GateKind::Input, &[]);
    }
}
