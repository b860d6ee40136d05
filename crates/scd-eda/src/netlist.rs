//! Technology-independent logic netlist (the "gate-level netlist" stage of
//! Fig. 1h).
//!
//! A [`Netlist`] is a DAG of simple boolean operators produced either by a
//! block generator ([`crate::blocks`]) or by hand. The synthesis flow
//! ([`crate::flow`]) lowers it to a dual-rail PCL implementation.

use crate::error::EdaError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Boolean operator of a netlist gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicOp {
    /// Constant false / true.
    Const(bool),
    /// Identity buffer (1 input).
    Buf,
    /// Inversion (1 input).
    Not,
    /// Conjunction (≥ 2 inputs).
    And,
    /// Disjunction (≥ 2 inputs).
    Or,
    /// Parity (≥ 2 inputs).
    Xor,
    /// Majority of exactly 3 inputs.
    Maj,
    /// 2:1 multiplexer: inputs `[sel, a, b]`, output `sel ? a : b`.
    Mux,
}

impl LogicOp {
    /// Human-readable operator name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Const(false) => "CONST0",
            Self::Const(true) => "CONST1",
            Self::Buf => "BUF",
            Self::Not => "NOT",
            Self::And => "AND",
            Self::Or => "OR",
            Self::Xor => "XOR",
            Self::Maj => "MAJ",
            Self::Mux => "MUX",
        }
    }

    /// Validates an input count for this operator.
    pub(crate) fn check_arity(self, n: usize) -> Result<(), EdaError> {
        let ok = match self {
            Self::Const(_) => n == 0,
            Self::Buf | Self::Not => n == 1,
            Self::And | Self::Or | Self::Xor => n >= 2,
            Self::Maj | Self::Mux => n == 3,
        };
        if ok {
            Ok(())
        } else {
            Err(EdaError::BadArity {
                op: self.name(),
                expected: match self {
                    Self::Const(_) => "no",
                    Self::Buf | Self::Not => "exactly 1",
                    Self::And | Self::Or | Self::Xor => "at least 2",
                    Self::Maj | Self::Mux => "exactly 3",
                },
                actual: n,
            })
        }
    }

    /// Evaluates the operator over `inputs`.
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            Self::Const(v) => v,
            Self::Buf => inputs[0],
            Self::Not => !inputs[0],
            Self::And => inputs.iter().all(|&b| b),
            Self::Or => inputs.iter().any(|&b| b),
            Self::Xor => inputs.iter().filter(|&&b| b).count() % 2 == 1,
            Self::Maj => inputs.iter().filter(|&&b| b).count() >= 2,
            Self::Mux => {
                if inputs[0] {
                    inputs[1]
                } else {
                    inputs[2]
                }
            }
        }
    }

    /// Word-parallel (64-pattern) evaluation.
    #[must_use]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            Self::Const(false) => 0,
            Self::Const(true) => u64::MAX,
            Self::Buf => inputs[0],
            Self::Not => !inputs[0],
            Self::And => inputs.iter().fold(u64::MAX, |a, &b| a & b),
            Self::Or => inputs.iter().fold(0, |a, &b| a | b),
            Self::Xor => inputs.iter().fold(0, |a, &b| a ^ b),
            Self::Maj => {
                (inputs[0] & inputs[1]) | (inputs[1] & inputs[2]) | (inputs[0] & inputs[2])
            }
            Self::Mux => (inputs[0] & inputs[1]) | (!inputs[0] & inputs[2]),
        }
    }
}

impl fmt::Display for LogicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A node in the netlist DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// A primary input with its port name.
    Input {
        /// Port name.
        name: String,
    },
    /// A logic gate.
    Gate {
        /// Operator.
        op: LogicOp,
        /// Driving nodes, in operator order.
        inputs: Vec<NodeId>,
    },
}

/// A named primary output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputPort {
    /// Port name.
    pub name: String,
    /// Node whose value the port exposes.
    pub node: NodeId,
}

/// A technology-independent combinational netlist.
///
/// ```
/// use scd_eda::netlist::{LogicOp, Netlist};
///
/// let mut n = Netlist::new("toy");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let x = n.add_gate(LogicOp::Xor, vec![a, b])?;
/// n.add_output("sum", x);
/// assert_eq!(n.eval(&[true, false])?, vec![true]);
/// # Ok::<(), scd_eda::EdaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<OutputPort>,
}

impl Netlist {
    /// Creates an empty netlist with a design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Adds a gate and returns its node id.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::BadArity`] for an invalid input count and
    /// [`EdaError::UnknownNode`] if an input id is out of range (only
    /// already-created nodes may be referenced, which also guarantees the
    /// graph stays acyclic).
    pub fn add_gate(&mut self, op: LogicOp, inputs: Vec<NodeId>) -> Result<NodeId, EdaError> {
        op.check_arity(inputs.len())?;
        for &i in &inputs {
            if i.0 >= self.nodes.len() {
                return Err(EdaError::UnknownNode { index: i.0 });
            }
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Gate { op, inputs });
        Ok(id)
    }

    /// Convenience: adds a constant node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Gate {
            op: LogicOp::Const(value),
            inputs: Vec::new(),
        });
        id
    }

    /// Registers `node` as the primary output `name`.
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push(OutputPort {
            name: name.into(),
            node,
        });
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// All nodes, indexable by [`NodeId::index`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Number of gate nodes (excluding primary inputs).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Gate { .. }))
            .count()
    }

    /// Per-operator gate histogram.
    #[must_use]
    pub fn op_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for n in &self.nodes {
            if let Node::Gate { op, .. } = n {
                *h.entry(op.name()).or_insert(0) += 1;
            }
        }
        h
    }

    /// Validates the netlist: every output references a real node.
    ///
    /// (Acyclicity holds by construction: gates may only reference earlier
    /// node ids.)
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::DanglingOutput`] if an output references a
    /// non-existent node.
    pub fn validate(&self) -> Result<(), EdaError> {
        for out in &self.outputs {
            if out.node.0 >= self.nodes.len() {
                return Err(EdaError::DanglingOutput {
                    name: out.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Logic depth: longest input→output path counted in gates
    /// (buffers and inverters included, constants excluded).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Gate { op, inputs } = n {
                let base = inputs.iter().map(|x| level[x.0]).max().unwrap_or(0);
                level[i] = if matches!(op, LogicOp::Const(_)) {
                    0
                } else {
                    base + 1
                };
            }
        }
        self.outputs
            .iter()
            .map(|o| level[o.node.0])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the netlist for one input assignment (in input
    /// declaration order), returning the outputs in declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::BadArity`] if `assignment.len()` differs from
    /// the number of primary inputs.
    pub fn eval(&self, assignment: &[bool]) -> Result<Vec<bool>, EdaError> {
        if assignment.len() != self.inputs.len() {
            return Err(EdaError::BadArity {
                op: "netlist eval",
                expected: "one value per primary input",
                actual: assignment.len(),
            });
        }
        let mut values = vec![false; self.nodes.len()];
        let mut next_input = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            match n {
                Node::Input { .. } => {
                    values[i] = assignment[next_input];
                    next_input += 1;
                }
                Node::Gate { op, inputs } => {
                    let args: Vec<bool> = inputs.iter().map(|x| values[x.0]).collect();
                    values[i] = op.eval(&args);
                }
            }
        }
        Ok(self.outputs.iter().map(|o| values[o.node.0]).collect())
    }

    /// Word-parallel evaluation: each input carries 64 independent test
    /// patterns; returns one word per output.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::BadArity`] on input-count mismatch.
    pub fn eval_word(&self, assignment: &[u64]) -> Result<Vec<u64>, EdaError> {
        if assignment.len() != self.inputs.len() {
            return Err(EdaError::BadArity {
                op: "netlist eval",
                expected: "one word per primary input",
                actual: assignment.len(),
            });
        }
        let mut values = vec![0u64; self.nodes.len()];
        let mut args = Vec::new();
        let mut next_input = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            match n {
                Node::Input { .. } => {
                    values[i] = assignment[next_input];
                    next_input += 1;
                }
                Node::Gate { op, inputs } => {
                    args.clear();
                    args.extend(inputs.iter().map(|x| values[x.0]));
                    values[i] = op.eval_word(&args);
                }
            }
        }
        Ok(self.outputs.iter().map(|o| values[o.node.0]).collect())
    }

    /// Fan-out count per node (number of gate inputs plus primary outputs
    /// each node drives).
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut fanout = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            if let Node::Gate { inputs, .. } = n {
                for &i in inputs {
                    fanout[i.0] += 1;
                }
            }
        }
        for o in &self.outputs {
            fanout[o.node.0] += 1;
        }
        fanout
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(LogicOp::Xor, vec![a, b]).unwrap();
        n.add_output("y", x);
        n
    }

    #[test]
    fn eval_xor() {
        let n = xor_netlist();
        assert_eq!(n.eval(&[false, false]).unwrap(), vec![false]);
        assert_eq!(n.eval(&[true, false]).unwrap(), vec![true]);
        assert_eq!(n.eval(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn word_eval_matches_scalar() {
        let n = xor_netlist();
        // patterns: bit k of word corresponds to test k.
        let a = 0b0011u64;
        let b = 0b0101u64;
        let out = n.eval_word(&[a, b]).unwrap()[0];
        for k in 0..4 {
            let scalar = n.eval(&[a >> k & 1 == 1, b >> k & 1 == 1]).unwrap()[0];
            assert_eq!(out >> k & 1 == 1, scalar, "pattern {k}");
        }
    }

    #[test]
    fn arity_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert!(n.add_gate(LogicOp::Maj, vec![a, a]).is_err());
        assert!(n.add_gate(LogicOp::Not, vec![a, a]).is_err());
        assert!(n.add_gate(LogicOp::And, vec![a]).is_err());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let bogus = NodeId(99);
        assert_eq!(
            n.add_gate(LogicOp::And, vec![a, bogus]),
            Err(EdaError::UnknownNode { index: 99 })
        );
    }

    #[test]
    fn depth_counts_longest_path() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        let g2 = n.add_gate(LogicOp::Or, vec![g1, b]).unwrap();
        let g3 = n.add_gate(LogicOp::Xor, vec![g2, a]).unwrap();
        n.add_output("y", g3);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn mux_semantics() {
        let mut n = Netlist::new("mux");
        let s = n.add_input("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let m = n.add_gate(LogicOp::Mux, vec![s, a, b]).unwrap();
        n.add_output("y", m);
        assert_eq!(n.eval(&[true, true, false]).unwrap(), vec![true]);
        assert_eq!(n.eval(&[false, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn fanout_counts() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        let g2 = n.add_gate(LogicOp::Or, vec![g1, a]).unwrap();
        n.add_output("y1", g1);
        n.add_output("y2", g2);
        let f = n.fanout_counts();
        assert_eq!(f[a.index()], 2);
        assert_eq!(f[g1.index()], 2); // drives g2 and output y1
    }

    #[test]
    fn histogram_and_display() {
        let n = xor_netlist();
        assert_eq!(n.op_histogram()["XOR"], 1);
        let s = n.to_string();
        assert!(s.contains("2 inputs"));
    }

    #[test]
    fn const_nodes_have_depth_zero() {
        let mut n = Netlist::new("c");
        let c = n.add_const(true);
        n.add_output("y", c);
        assert_eq!(n.depth(), 0);
        assert_eq!(n.eval(&[]).unwrap(), vec![true]);
    }
}
