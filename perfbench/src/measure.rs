//! Estimators, host facts and the metric sheet every workload fills.

use std::collections::BTreeMap;

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, the digest of simulated results. The benchmark keeps
/// its own copy so that a change to the program's hash cannot hide a
/// change in results.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set of this process in MiB (`VmHWM`), NaN if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric as printed: value, unit, and the sample count behind it
/// (1 for counts and exact values).
#[derive(Debug, Clone)]
pub struct Metric {
    /// The number as measured.
    pub value: f64,
    /// Unit string, e.g. `ms`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Metrics of one run by name, plus the correctness ledger.
#[derive(Debug, Default)]
pub struct Sheet {
    /// Metric name → metric.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted (simulations, requests, restarts).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every wrong output found; empty means correct.
    pub wrong: Vec<String>,
    /// Named result digests (exactness evidence for speed-only changes).
    pub digests: BTreeMap<String, String>,
}

impl Sheet {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.into(), Metric { value, unit, samples });
    }

    /// Records an exact count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count", 1);
    }

    /// Records a check: a false `ok` is a wrong output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let why = what();
            if self.wrong.len() < 32 {
                self.wrong.push(why);
            }
        }
    }
}

/// Host shape and provenance, written at the head of every results file.
pub fn provenance() -> String {
    use std::process::{Command, Stdio};
    let output = |c: &mut Command| {
        c.stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    // Only a repository rooted at the working directory counts, not one
    // that happens to enclose it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"build_profile\": \"{}\", \"worker_threads\": {}}}",
        datasync_core::par::available_threads(),
        escape(&cpu),
        escape(&output(Command::new(&rustc).arg("--version"))),
        escape(&output(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        )),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        datasync_core::par::default_threads(),
    )
}

/// Minimal JSON string escaping for free text.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// A number as JSON (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
