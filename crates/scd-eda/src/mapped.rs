//! Technology-mapped dual-rail PCL netlist (the "SCD netlist" stage of
//! Fig. 1h).
//!
//! After mapping, every node is a concrete [`PclCell`] instance. Dual-rail
//! encoding makes inversion free, so it is represented as an `inverted`
//! flag on a [`Pin`] — physically, the consumer simply takes the two rails
//! in swapped order.

use crate::error::EdaError;
use scd_tech::pcl::PclCell;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node in a [`MappedNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub(crate) usize);

impl CellId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A connection to one output port of a node, with free dual-rail
/// inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pin {
    /// Driving node.
    pub node: CellId,
    /// Output port of the driving node (cells like the full adder have 2).
    pub port: usize,
    /// Take the signal in inverted (rail-swapped) sense.
    pub inverted: bool,
}

impl Pin {
    /// A plain, non-inverted connection to port 0.
    #[must_use]
    pub fn of(node: CellId) -> Self {
        Self {
            node,
            port: 0,
            inverted: false,
        }
    }

    /// The same connection with the opposite sense.
    #[must_use]
    pub fn invert(self) -> Self {
        Self {
            inverted: !self.inverted,
            ..self
        }
    }
}

/// A node of the mapped netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MappedNode {
    /// Primary input.
    Input {
        /// Port name.
        name: String,
    },
    /// Dual-rail constant (a rail tie; costs no junctions).
    Const {
        /// Constant value.
        value: bool,
    },
    /// A PCL standard-cell instance.
    Cell {
        /// Library cell.
        cell: PclCell,
        /// Input connections in cell-port order.
        pins: Vec<Pin>,
    },
}

/// A dual-rail PCL netlist produced by the synthesis flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappedNetlist {
    name: String,
    nodes: Vec<MappedNode>,
    inputs: Vec<CellId>,
    outputs: Vec<(String, Pin)>,
}

impl MappedNetlist {
    /// Creates an empty mapped netlist.
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

    /// Adds a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> CellId {
        let id = CellId(self.nodes.len());
        self.nodes.push(MappedNode::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Adds a dual-rail constant.
    pub fn add_const(&mut self, value: bool) -> CellId {
        let id = CellId(self.nodes.len());
        self.nodes.push(MappedNode::Const { value });
        id
    }

    /// Adds a cell instance.
    ///
    /// # Panics
    ///
    /// Panics if the pin count does not match the cell fan-in.
    pub fn add_cell(&mut self, cell: PclCell, pins: Vec<Pin>) -> CellId {
        assert_eq!(
            pins.len(),
            cell.fanin(),
            "{} expects {} pins",
            cell.name(),
            cell.fanin()
        );
        let id = CellId(self.nodes.len());
        self.nodes.push(MappedNode::Cell { cell, pins });
        id
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, pin: Pin) {
        self.outputs.push((name.into(), pin));
    }

    /// Rewrites the input pins of an existing cell (used by splitter
    /// insertion).
    pub(crate) fn set_pins(&mut self, id: CellId, new_pins: Vec<Pin>) {
        if let MappedNode::Cell { pins, .. } = &mut self.nodes[id.0] {
            *pins = new_pins;
        }
    }

    /// Rewrites a primary output pin (used by splitter insertion).
    pub(crate) fn set_output_pin(&mut self, index: usize, pin: Pin) {
        self.outputs[index].1 = pin;
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[MappedNode] {
        &self.nodes
    }

    /// Primary inputs.
    #[must_use]
    pub fn inputs(&self) -> &[CellId] {
        &self.inputs
    }

    /// Primary outputs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, Pin)] {
        &self.outputs
    }

    /// Number of cell instances (excluding inputs and constants).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, MappedNode::Cell { .. }))
            .count()
    }

    /// Histogram of library cells.
    #[must_use]
    pub fn cell_histogram(&self) -> HashMap<PclCell, usize> {
        let mut h = HashMap::new();
        for n in &self.nodes {
            if let MappedNode::Cell { cell, .. } = n {
                *h.entry(*cell).or_insert(0) += 1;
            }
        }
        h
    }

    /// Total Josephson junctions over all cells.
    #[must_use]
    pub fn junctions(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n {
                MappedNode::Cell { cell, .. } => u64::from(cell.junctions()),
                _ => 0,
            })
            .sum()
    }

    /// Topological order of all nodes (inputs/constants first).
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::CombinationalCycle`] if the netlist is cyclic
    /// (possible only through `set_pins` misuse).
    pub fn topo_order(&self) -> Result<Vec<CellId>, EdaError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if let MappedNode::Cell { pins, .. } = node {
                indegree[i] = pins.len();
                for p in pins {
                    consumers[p.node.0].push(i);
                }
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(CellId(i));
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(EdaError::CombinationalCycle)
        }
    }

    /// Word-parallel functional simulation (64 patterns per call).
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::BadArity`] on input-count mismatch or
    /// [`EdaError::CombinationalCycle`] for a cyclic netlist.
    pub fn eval_word(&self, assignment: &[u64]) -> Result<Vec<u64>, EdaError> {
        self.prepare()?.eval_word(assignment)
    }

    /// Prepares the netlist for repeated word-parallel simulation.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::CombinationalCycle`] for a cyclic netlist.
    pub(crate) fn prepare(&self) -> Result<WordEvaluator<'_>, EdaError> {
        let mut values = vec![[0u64; 2]; self.nodes.len()];
        let mut cells = Vec::with_capacity(self.nodes.len());
        for id in self.topo_order()? {
            match &self.nodes[id.0] {
                MappedNode::Input { .. } => {}
                MappedNode::Const { value } => {
                    values[id.0][0] = if *value { u64::MAX } else { 0 };
                }
                MappedNode::Cell { cell, pins } => cells.push((id.0, *cell, pins.as_slice())),
            }
        }
        Ok(WordEvaluator {
            netlist: self,
            cells,
            values,
        })
    }

    /// Scalar functional simulation.
    ///
    /// # Errors
    ///
    /// See [`MappedNetlist::eval_word`].
    pub fn eval(&self, assignment: &[bool]) -> Result<Vec<bool>, EdaError> {
        let words: Vec<u64> = assignment
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        Ok(self
            .eval_word(&words)?
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect())
    }
}

/// A [`MappedNetlist`] prepared for repeated word-parallel simulation:
/// the cell order, input slots and constant values are computed once, and
/// one value buffer is reused by every word.
pub(crate) struct WordEvaluator<'a> {
    netlist: &'a MappedNetlist,
    /// `(node index, cell, pins)` of every cell, in topological order.
    cells: Vec<(usize, PclCell, &'a [Pin])>,
    /// Up to 2 output ports per node; constants are filled in once.
    values: Vec<[u64; 2]>,
}

impl WordEvaluator<'_> {
    /// Simulates 64 patterns: one word per primary input, one per output.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::BadArity`] on input-count mismatch.
    pub(crate) fn eval_word(&mut self, assignment: &[u64]) -> Result<Vec<u64>, EdaError> {
        let net = self.netlist;
        if assignment.len() != net.inputs.len() {
            return Err(EdaError::BadArity {
                op: "mapped eval",
                expected: "one word per primary input",
                actual: assignment.len(),
            });
        }
        let values = &mut self.values;
        for (id, &word) in net.inputs.iter().zip(assignment) {
            values[id.0] = [word, 0];
        }
        for &(id, cell, pins) in &self.cells {
            let mut args = [0u64; MAX_FANIN];
            for (arg, p) in args.iter_mut().zip(pins) {
                *arg = read(values, p);
            }
            values[id] = eval_cell_word(cell, &args[..pins.len()]);
        }
        Ok(net.outputs.iter().map(|(_, p)| read(values, p)).collect())
    }
}

/// Widest library cell fan-in (`And4`, `Ao22`, ...).
const MAX_FANIN: usize = 4;

/// The word a pin carries, with its dual-rail inversion applied.
fn read(values: &[[u64; 2]], p: &Pin) -> u64 {
    let v = values[p.node.0][p.port];
    if p.inverted {
        !v
    } else {
        v
    }
}

/// Word-parallel evaluation of a single PCL cell; single-output cells
/// leave port 1 at zero.
fn eval_cell_word(cell: PclCell, a: &[u64]) -> [u64; 2] {
    use PclCell as C;
    let and = |xs: &[u64]| xs.iter().fold(u64::MAX, |x, &y| x & y);
    let or = |xs: &[u64]| xs.iter().fold(0u64, |x, &y| x | y);
    let xor = |xs: &[u64]| xs.iter().fold(0u64, |x, &y| x ^ y);
    let maj = |xs: &[u64]| (xs[0] & xs[1]) | (xs[1] & xs[2]) | (xs[0] & xs[2]);
    match cell {
        C::Buf => [a[0], 0],
        C::Inv => [!a[0], 0],
        C::And2 | C::And3 | C::And4 => [and(a), 0],
        C::Nand2 | C::Nand3 | C::Nand4 => [!and(a), 0],
        C::Or2 | C::Or3 | C::Or4 => [or(a), 0],
        C::Nor2 | C::Nor3 | C::Nor4 => [!or(a), 0],
        C::Xor2 | C::Xor3 => [xor(a), 0],
        C::Xnor2 | C::Xnor3 => [!xor(a), 0],
        C::Maj3 => [maj(a), 0],
        C::Maj3Inv => [!maj(a), 0],
        C::Ao22 => [(a[0] & a[1]) | (a[2] & a[3]), 0],
        C::Oa22 => [(a[0] | a[1]) & (a[2] | a[3]), 0],
        C::HalfAdder => [xor(a), and(a)],
        C::FullAdder => [xor(a), maj(a)],
        C::Splitter => [a[0], a[0]],
    }
}

impl fmt::Display for MappedNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (mapped): {} inputs, {} outputs, {} cells, {} JJs",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.cell_count(),
            self.junctions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_cell_eval() {
        let mut m = MappedNetlist::new("fa");
        let a = m.add_input("a");
        let b = m.add_input("b");
        let c = m.add_input("cin");
        let fa = m.add_cell(PclCell::FullAdder, vec![Pin::of(a), Pin::of(b), Pin::of(c)]);
        m.add_output(
            "sum",
            Pin {
                node: fa,
                port: 0,
                inverted: false,
            },
        );
        m.add_output(
            "cout",
            Pin {
                node: fa,
                port: 1,
                inverted: false,
            },
        );
        for bits in 0..8u64 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let out = m.eval(&ins).unwrap();
            let ones = ins.iter().filter(|&&x| x).count();
            assert_eq!(out[0], ones % 2 == 1);
            assert_eq!(out[1], ones >= 2);
        }
    }

    #[test]
    fn inverted_pin_is_free_inversion() {
        let mut m = MappedNetlist::new("inv");
        let a = m.add_input("a");
        m.add_output("y", Pin::of(a).invert());
        assert_eq!(m.eval(&[true]).unwrap(), vec![false]);
        assert_eq!(m.junctions(), 0, "inversion costs no junctions");
    }

    #[test]
    fn const_nodes() {
        let mut m = MappedNetlist::new("c");
        let one = m.add_const(true);
        let a = m.add_input("a");
        let g = m.add_cell(PclCell::And2, vec![Pin::of(one), Pin::of(a)]);
        m.add_output("y", Pin::of(g));
        assert_eq!(m.eval(&[true]).unwrap(), vec![true]);
        assert_eq!(m.eval(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn topo_order_handles_forward_references() {
        // Build out of order: cell first (referencing later splitter is not
        // possible at construction, but set_pins can create it).
        let mut m = MappedNetlist::new("fwd");
        let a = m.add_input("a");
        let g = m.add_cell(PclCell::Buf, vec![Pin::of(a)]);
        m.add_output("y", Pin::of(g));
        let spl = m.add_cell(PclCell::Splitter, vec![Pin::of(a)]);
        m.set_pins(g, vec![Pin::of(spl)]);
        assert_eq!(m.eval(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn prepared_evaluator_is_reusable() {
        let source = crate::blocks::array_multiplier(8).unwrap();
        let mut m = crate::synth::synthesize(&source).unwrap().mapped;
        crate::splitter::insert_splitters(&mut m);
        let mut eval = m.prepare().unwrap();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..32 {
            let words: Vec<u64> = (0..m.inputs().len())
                .map(|_| {
                    word = word.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D);
                    word
                })
                .collect();
            let fresh = m.eval_word(&words).unwrap();
            assert_eq!(eval.eval_word(&words).unwrap(), fresh);
            assert_eq!(source.eval_word(&words).unwrap(), fresh);
        }
    }

    #[test]
    fn cycle_detected() {
        let mut m = MappedNetlist::new("cyc");
        let a = m.add_input("a");
        let g1 = m.add_cell(PclCell::And2, vec![Pin::of(a), Pin::of(a)]);
        let g2 = m.add_cell(PclCell::Or2, vec![Pin::of(g1), Pin::of(a)]);
        m.set_pins(g1, vec![Pin::of(g2), Pin::of(a)]);
        m.add_output("y", Pin::of(g2));
        assert_eq!(m.eval(&[true]), Err(EdaError::CombinationalCycle));
    }

    #[test]
    #[should_panic(expected = "expects 2 pins")]
    fn pin_count_checked() {
        let mut m = MappedNetlist::new("bad");
        let a = m.add_input("a");
        let _ = m.add_cell(PclCell::And2, vec![Pin::of(a)]);
    }

    #[test]
    fn histogram_and_junctions() {
        let mut m = MappedNetlist::new("h");
        let a = m.add_input("a");
        let b = m.add_input("b");
        let g1 = m.add_cell(PclCell::And2, vec![Pin::of(a), Pin::of(b)]);
        let g2 = m.add_cell(PclCell::And2, vec![Pin::of(g1), Pin::of(b)]);
        m.add_output("y", Pin::of(g2));
        assert_eq!(m.cell_histogram()[&PclCell::And2], 2);
        assert_eq!(m.junctions(), 2 * u64::from(PclCell::And2.junctions()));
    }
}
