//! Experiment drivers: one module per table or figure of the paper's
//! evaluation, plus `fault_model` for the §III-B bit-field finding.  Each
//! module exposes a `Config`, a `run` entry point and a formatter that
//! prints the same rows/series the paper reports; the benches in
//! `mavfi-bench` and the repository examples are thin wrappers around
//! these.

pub mod fault_model;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
