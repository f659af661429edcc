//! `trl-compiler`: CNF → Decision-DNNF with search statistics, and the
//! bottom-up SDD compiler used as an independent counting oracle.

use trl_core::{Cube, PartialAssignment};
use trl_nnf::{Circuit, LitWeights};
use trl_prop::Cnf;
use trl_sdd::{SddManager, SddRef};

pub use trl_compiler::CompileStats;

/// Compiles with the compiler configuration the engine uses.
pub fn compile_with_stats(cnf: &Cnf) -> (Circuit, CompileStats) {
    trl_compiler::DecisionDnnfCompiler::default().compile_with_stats(cnf)
}

/// An SDD compiled bottom-up from the same CNF: a second, independent
/// route to every count the engine reports.
pub struct SddOracle {
    manager: SddManager,
    root: SddRef,
}

impl SddOracle {
    /// Compiles `cnf` into an SDD over a balanced vtree.
    pub fn new(cnf: &Cnf) -> Self {
        let (manager, root) = trl_compiler::compile_sdd(cnf);
        SddOracle { manager, root }
    }

    /// Models of the formula consistent with `evidence`.
    pub fn count_under(&mut self, evidence: &PartialAssignment) -> u128 {
        let cube = self.manager.cube(&Cube::from_lits(evidence.literals()));
        let conditioned = self.manager.and(self.root, cube);
        self.manager.model_count(conditioned)
    }

    /// Weighted model count.
    pub fn wmc(&self, weights: &LitWeights) -> f64 {
        self.manager.wmc(self.root, weights)
    }
}
