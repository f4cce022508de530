//! Process and machine read-outs (`/proc`), order statistics, and the
//! result line.

use dissent_crypto::sha256::{sha256, to_hex};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (Linux
/// reports `USER_HZ`, which is 100 on every mainstream configuration).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// (live and exited) included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let nums: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest columns are already counted in user/nice.
    let total = nums.iter().take(8).sum();
    (nums.get(7).copied().unwrap_or(0), total)
}

/// Steal time between two [`cpu_jiffies`] samples, as a percentage.
pub fn steal_pct(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * end.0.saturating_sub(start.0) as f64 / total as f64
}

/// The code being measured: the git commit in a git checkout, otherwise a
/// digest of the program's sources (`crates/`), so that runs of different
/// code still tell apart.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(source_digest)
}

fn source_digest() -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    collect(&root, &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .as_os_str()
                .as_encoded_bytes(),
        );
        all.extend_from_slice(&fs::read(f).unwrap_or_default());
    }
    format!("src-{}", &to_hex(&sha256(&all))[..12])
}

/// Linear-interpolation quantile of an ascending slice (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Median over groups of the `q`-quantile within each non-empty group:
/// the tail of a typical stretch of a run, not of its one worst stall.
pub fn median_quantile(groups: &[Vec<f64>], q: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| quantile(&sorted(g), q))
        .collect();
    median(&per_group)
}

/// Median of the means of consecutive blocks of `block` samples: steady
/// against both one-off stalls (the median) and a two-mode distribution
/// (each block mean mixes the modes).
pub fn median_of_means(values: &[f64], block: usize) -> f64 {
    // Fewer samples than one block: a single block of all of them.
    let block = block.clamp(1, values.len().max(1));
    let means: Vec<f64> = values
        .chunks(block)
        .filter(|c| c.len() == block)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A flat JSON object of string values (the provenance line).
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
