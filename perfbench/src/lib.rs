//! End-to-end and per-layer benchmark of the composition-audit pipeline.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workloads`]) and prints, as its last line, a
//! JSON object with the output checks and either the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The benchmark's
//! notes, sizes and standing figures are in `README.md` beside this
//! crate.

pub mod probe;
pub mod report;
pub mod workloads;
