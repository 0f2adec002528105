//! # spmap-baselines — HEFT and PEFT list schedulers
//!
//! The two classical heterogeneous list-scheduling baselines of the
//! paper's evaluation (§IV-A):
//!
//! * [`heft()`] — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri &
//!   Wu, TPDS 2002; paper ref. 6): upward ranks from average
//!   computation/communication costs, then insertion-based earliest-
//!   finish-time device selection.
//! * [`peft()`] — Predict Earliest Finish Time (Arabnejad & Barbosa, TPDS
//!   2014; paper ref. 8): an optimistic cost table (OCT) gives each
//!   task/device pair a look-ahead estimate; device selection minimizes
//!   `EFT + OCT`.
//!
//! Both algorithms see the platform through per-task execution times and
//! per-edge transfer times only — they are oblivious to FPGA dataflow
//! streaming and to the FPGA's spatial concurrency (they treat every
//! device as a sequential resource with insertion slots).  That is
//! exactly the "local view" the paper attributes to list schedulers; the
//! resulting *mapping* is re-evaluated with the full model for every
//! reported number.  The only model concession is an FPGA area budget:
//! devices whose remaining area cannot host a task are excluded from its
//! device selection.

pub mod heft;
pub mod listsched;
pub mod peft;

pub use heft::heft;
pub use listsched::{CostTables, ListScheduleResult};
pub use peft::peft;
