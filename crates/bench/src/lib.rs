//! Experiment harness for the Sense-Aid reproduction.
//!
//! This crate glues the substrates together into the paper's user study:
//! a population of simulated students walks around campus generating app
//! traffic while one of four frameworks — Periodic, PCS, Sense-Aid Basic,
//! Sense-Aid Complete — collects barometric readings from them. One
//! `cargo bench` target per table/figure of the paper regenerates the
//! corresponding result (see `DESIGN.md` for the full index).
//!
//! The public API here is also what the repository's `examples/` use:
//!
//! ```no_run
//! use senseaid_bench::{run_scenario, FrameworkKind};
//! use senseaid_workload::ExperimentGrid;
//!
//! let scenario = ExperimentGrid::experiment1().points()[2];
//! let report = run_scenario(FrameworkKind::SenseAidComplete, scenario, 42);
//! println!("total crowdsensing energy: {:.1} J", report.total_cs_j());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod framework;
pub mod parallel;
pub mod perf;
pub mod recover;
pub mod report;
pub mod runner;
pub mod trace;

pub use framework::{FrameworkKind, GroupReport, RoundObservation};
pub use parallel::{configured_workers, map_cells};
pub use perf::{cell_names, run_perf, run_perf_filtered, PerfCell, PerfOptions, PerfReport};
pub use report::{per_device_csv, savings_pct, two_pct_bar_j, SweepTable};
pub use runner::{run_scenario, run_scenario_with, HarnessOptions};
pub use trace::{run_trace, TraceRun, TRACEABLE};
