//! Helpers of the repository benchmark: the percentile rule, the
//! quartile spread, failure accounting, in-memory spans with a self-time
//! table, and the environment stamp. The workloads themselves live in
//! the binary (`src/main.rs`).

pub mod spans;
pub mod stamp;
pub mod stats;
