//! Shared infrastructure for the experiment binaries (`fig1` … `fig11`,
//! `table1`) that regenerate every table and figure of the paper's
//! evaluation. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured outcomes.

pub mod args;
pub mod dist;
pub mod fma;
pub mod harness;
#[cfg(feature = "heap-track")]
pub mod heap;
pub mod memsys;
pub mod proxy;

pub use args::Args;
pub use harness::{host_line, parse_bench_file, BenchGroup, BenchRecord, Turn};
