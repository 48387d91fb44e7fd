//! The presentation crate for the reproduction: the unified `pim-bench`
//! CLI ([`cli`]) over `pim_core`'s experiment registry and the structured
//! output renderers ([`output`]).
//!
//! Every paper artifact (Tables I-II, Figs. 2-7, the ablations) is a
//! registry entry, reached through one binary: `pim-bench list |
//! describe | run <name|all>` with `--format table|json|csv`.
//!
//! # Examples
//!
//! ```
//! // Ratios render the way the fig3/fig5 columns print them.
//! assert_eq!(pim_bench::ratio(2.236), "2.24x");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod output;

pub use output::ratio;
