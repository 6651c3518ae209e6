//! # rlchol-report — performance profiles, tables and plots
//!
//! Terminal rendering for the `paper` bin and the CLI:
//!
//! * [`profile`] — Dolan–Moré performance profiles (the paper's Figure 3):
//!   for each solver, the fraction of problems solved within a factor
//!   `2^τ` of the best solver;
//! * [`table`] — fixed-width text tables matching the layout of the
//!   paper's Tables I and II;
//! * [`plot`] — ASCII line plots for terminal-friendly figure output;
//! * [`spy`] — ASCII sparsity plots (the CLI's `spy`).

pub mod plot;
pub mod profile;
pub mod spy;
pub mod table;

pub use plot::ascii_plot;
pub use profile::PerformanceProfile;
pub use spy::spy_lower;
pub use table::Table;
