//! The repository benchmark: seeded mapping workloads driven through
//! the public service surface (`MapService::map`, `open_session`,
//! `remap`), with every output checked and every metric printed by name
//! and unit.  See `README.md` in this directory for the workloads, the
//! metrics and the layer → metric → workload table.
//!
//! Module map:
//!
//! * [`inputs`] — seeded input generation from the public generators,
//! * [`run`] — set-up, closed-loop timed phases, output checks, metrics,
//! * [`trace`] — in-memory spans of the traced run,
//! * [`metrics`] — the metric catalog and the result line,
//! * [`stats`] — quantiles and the process high-water mark.

pub mod inputs;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;

pub use metrics::{Report, END_TO_END, PER_LAYER};
pub use run::{run, Options, Workload};
