//! The experiment harness: one function per table/figure of the paper's
//! evaluation section and per §3.2 ablation, each returning structured
//! rows that the `experiments` binary formats as one markdown report.
//!
//! Every table/figure function takes a `scale` argument in (0, 1] that
//! proportionally shrinks the amount of simulated work
//! (iterations/repetitions) without changing footprints or call *rates*,
//! so quick runs preserve the shapes the paper reports.  `scale = 1.0`
//! reproduces the applications' full call counts.  The ablations are
//! fixed-size and return deterministic counts.

pub mod experiments;
pub mod refdata;
pub mod table;

pub use experiments::*;
pub use table::markdown_table;
