//! Provenance recorded with every result, so a figure from another host
//! or revision can be told apart.

use crate::spans::json_str;

/// Logical CPUs this process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model named in `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `git rev-parse HEAD` of the benchmark's checkout, or `"unknown"`
/// outside a git repository.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Key/value provenance of one run.
#[must_use]
pub fn provenance(workload: &str, seed: u64, params: String) -> Vec<(&'static str, String)> {
    vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("params", params),
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("git_rev", git_rev()),
    ]
}

/// `pairs` as a one-line JSON object of strings.
#[must_use]
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
