//! What every result records about where it was measured, and the
//! process's peak memory.

use crate::workloads::fnv1a;
use std::fs;
use std::path::Path;

/// The measurement context printed before every result.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Width of the global worker pool the workloads ran on.
    pub pool_workers: usize,
    /// `CRN_THREADS`, if set (the benchmark is meant to run without it).
    pub crn_threads: Option<String>,
    /// `HEAD` of the checkout's `.git`, or `"none"` outside a git
    /// checkout.
    pub git_rev: String,
    /// FNV-1a over the path and contents of every file under `crates/`
    /// and of the root `Cargo.toml` and `Cargo.lock`: names the measured
    /// source where there is no git revision.
    pub source_digest: u64,
    /// The compiler the benchmark was built with.
    pub rustc: &'static str,
}

impl HostInfo {
    /// Collects the record; paths are relative to the checkout root,
    /// the working directory the benchmark runs from.
    pub fn collect(pool_workers: usize) -> HostInfo {
        HostInfo {
            cores: crn_sim::pool::default_workers(),
            pool_workers,
            crn_threads: std::env::var(crn_sim::pool::THREADS_ENV).ok(),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(Path::new(".")),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let threads = match &self.crn_threads {
            Some(t) => format!("\"{}\"", t.escape_default()),
            None => "null".to_string(),
        };
        format!(
            "{{\"cores\": {}, \"pool_workers\": {}, \"crn_threads\": {threads}, \"git_rev\": \"{}\", \"source_digest\": \"{:016x}\", \"rustc\": \"{}\"}}",
            self.cores,
            self.pool_workers,
            self.git_rev.escape_default(),
            self.source_digest,
            self.rustc.escape_default(),
        )
    }
}

/// Reads `HEAD` from a `.git` directory without running git, which
/// would search the parent directories for another repository.
fn git_rev(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (rev, r) = line.split_once(' ')?;
            (r == name).then(|| rev.to_string())
        })
}

fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in files {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&fs::read(&path).unwrap_or_default());
    }
    fnv1a(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
