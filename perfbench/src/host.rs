//! Facts about the host that every result records, read from `/proc` and
//! from inside the checkout only.

use std::process::Command;

use crate::json::{self, Value};

/// 1-minute load average above which a result is suspect: the host has two
/// processors and every rt workload needs both.
pub const LOAD_WARN: f64 = 0.5;

pub struct Host {
    pub nproc: usize,
    pub load1: f64,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    pub fn read() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            load1: load_average(),
            rustc: rustc_version(),
            git_rev: git_rev(),
        }
    }

    pub fn to_json(&self) -> Value {
        json::obj([
            ("nproc", Value::Num(self.nproc as f64)),
            ("load1", Value::Num(self.load1)),
            ("rustc", json::str(self.rustc.as_str())),
            ("git_rev", json::str(self.git_rev.as_str())),
        ])
    }
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn rustc_version() -> String {
    // `output` waits for the child, so none outlives this call.
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout in the working directory, read from `.git`
/// directly: running `git` would search the parent directories too.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                let line = packed.lines().find(|l| l.ends_with(name))?;
                Some(line.split_whitespace().next()?.to_string())
            })
            .unwrap_or_default(),
    };
    let rev = rev.trim();
    if rev.len() >= 12 && rev.chars().all(|c| c.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".into()
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable_here() {
        let h = Host::read();
        assert!(h.nproc >= 1 && h.load1 >= 0.0);
        assert!(peak_rss_mb() > 0.5, "VmHWM of a running test binary");
        let doc = h.to_json();
        assert_eq!(
            doc.get("nproc").and_then(Value::as_f64),
            Some(h.nproc as f64)
        );
    }
}
