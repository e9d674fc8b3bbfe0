//! The environment every result is stamped with.

use std::process::Command;

/// Build flavour of this binary: the plain release build users get.
pub const BUILD_FLAVOUR: &str = "cargo build --release (default target-cpu)";

/// Environment facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Build flavour ([`BUILD_FLAVOUR`] unless `RUSTFLAGS` changed it).
    pub build: String,
    /// Threads of the worker pool.
    pub pool_threads: usize,
    /// Shards of the online rebalancing pass.
    pub shards: usize,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the source tree, if it is a git checkout.
    pub commit: String,
}

impl Stamp {
    /// Collect the stamp for a run with `pool_threads` threads and
    /// `shards` online shards.
    pub fn collect(pool_threads: usize, shards: usize) -> Self {
        let rustflags = env!("PERFBENCH_RUSTFLAGS");
        Stamp {
            build: if rustflags.is_empty() {
                BUILD_FLAVOUR.to_string()
            } else {
                format!("cargo build --release with RUSTFLAGS={rustflags}")
            },
            pool_threads,
            shards,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"build\":{},\"pool_threads\":{},\"shards\":{},\"nproc\":{},\"cpu_model\":{},\
             \"rustc\":{},\"commit\":{}}}",
            json_str(&self.build),
            self.pool_threads,
            self.shards,
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string()).filter(|s| !s.is_empty())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
