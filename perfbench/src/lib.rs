//! Open-loop benchmark of the FreqyWM serving tier. See `README.md` in
//! this directory for the workloads, metrics and how to run it.

pub mod check;
pub mod config;
pub mod gen;
pub mod layers;
pub mod loadgen;
pub mod procs;
pub mod stats;
mod sys;
pub mod workload;
