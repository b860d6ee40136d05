//! The "Starling" compilation pipeline (Fig. 1h): gate-level netlist →
//! technology mapping → splitter insertion → phase balancing → PPA report,
//! with built-in functional equivalence checking.

use crate::error::EdaError;
use crate::mapped::MappedNetlist;
use crate::netlist::Netlist;
use crate::optimize::{optimize, OptimizeStats};
use crate::phase::{balance_phases, PhaseReport};
use crate::report::SynthesisReport;
use crate::splitter::insert_splitters;
use crate::synth::synthesize;
use crate::verify::check_equivalent;
use scd_tech::Technology;

/// A compiled design: the mapped netlist plus its report.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// The final dual-rail netlist with splitters inserted.
    pub mapped: MappedNetlist,
    /// Phase assignment.
    pub phases: PhaseReport,
    /// PPA report.
    pub report: SynthesisReport,
    /// Logic-optimization statistics (zeroed when optimization is off).
    pub optimize_stats: OptimizeStats,
}

/// The RTL-to-PCL compilation flow.
///
/// ```
/// use scd_eda::blocks;
/// use scd_eda::flow::StarlingFlow;
/// use scd_tech::Technology;
///
/// let flow = StarlingFlow::new(Technology::scd_nbtin());
/// let adder = blocks::ripple_adder(8)?;
/// let design = flow.compile(&adder)?;
/// assert!(design.report.total_junctions > 0);
/// # Ok::<(), scd_eda::EdaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StarlingFlow {
    technology: Technology,
    verify_words: usize,
    verify: bool,
    optimize: bool,
}

impl StarlingFlow {
    /// Creates a flow targeting `technology`, with equivalence checking
    /// enabled (64 random words for wide designs).
    #[must_use]
    pub fn new(technology: Technology) -> Self {
        Self {
            technology,
            verify_words: 64,
            verify: true,
            optimize: true,
        }
    }

    /// Disables the pre-mapping logic optimization (constant folding,
    /// CSE, dead-gate elimination) — useful to measure its benefit.
    #[must_use]
    pub fn without_optimization(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// Disables the built-in equivalence check, e.g. to time mapping
    /// alone.
    #[must_use]
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Sets the number of 64-pattern random words used for equivalence
    /// checking of wide designs.
    #[must_use]
    pub fn with_verify_words(mut self, words: usize) -> Self {
        self.verify_words = words;
        self
    }

    /// Target technology.
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Runs the full pipeline on `netlist`.
    ///
    /// # Errors
    ///
    /// Returns any synthesis, balancing or equivalence error.
    pub fn compile(&self, netlist: &Netlist) -> Result<CompiledDesign, EdaError> {
        let (source, optimize_stats) = if self.optimize {
            optimize(netlist)
        } else {
            (netlist.clone(), OptimizeStats::default())
        };
        let synth = synthesize(&source)?;
        let mut mapped = synth.mapped;
        let splitter_stats = insert_splitters(&mut mapped);
        if self.verify {
            // Verify against the *original* netlist so optimization bugs
            // cannot hide behind a consistent-but-wrong pair.
            check_equivalent(netlist, &mapped, self.verify_words)?;
        }
        let phases = balance_phases(&mapped)?;
        let report = SynthesisReport::assemble(
            &mapped,
            synth.stats,
            splitter_stats,
            &phases,
            &self.technology,
        );
        Ok(CompiledDesign {
            mapped,
            phases,
            report,
            optimize_stats,
        })
    }
}

impl Default for StarlingFlow {
    fn default() -> Self {
        Self::new(Technology::scd_nbtin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::LogicOp;

    #[test]
    fn flow_compiles_and_verifies_small_design() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        let g2 = n.add_gate(LogicOp::Xor, vec![g1, a]).unwrap();
        n.add_output("y", g2);
        let d = StarlingFlow::default().compile(&n).unwrap();
        assert!(d.report.total_junctions > 0);
        assert!(d.phases.pipeline_depth >= 2);
    }

    #[test]
    fn optimization_reduces_real_designs_and_stays_correct() {
        let mac = crate::blocks::bf16_mac().unwrap();
        let flow = StarlingFlow::default().with_verify_words(8);
        let with_opt = flow.compile(&mac).unwrap();
        let without = flow.clone().without_optimization().compile(&mac).unwrap();
        assert!(with_opt.report.total_junctions < without.report.total_junctions);
        assert!(with_opt.optimize_stats.gates_after < with_opt.optimize_stats.gates_before);
        assert_eq!(
            without.optimize_stats,
            crate::optimize::OptimizeStats::default()
        );
    }

    #[test]
    fn verification_can_be_disabled() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        n.add_output("y", a);
        let flow = StarlingFlow::default().without_verification();
        assert!(flow.compile(&n).is_ok());
    }

    #[test]
    fn splitters_and_padding_show_up_in_report() {
        // a drives three gates of different depths → splitters + padding.
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        let g2 = n.add_gate(LogicOp::Xor, vec![g1, a]).unwrap();
        let g3 = n.add_gate(LogicOp::Or, vec![g2, a]).unwrap();
        n.add_output("y", g3);
        let d = StarlingFlow::default().compile(&n).unwrap();
        assert!(d.report.splitter_junctions > 0);
        assert!(d.report.padding_junctions > 0);
    }
}
