//! The environment a result was measured in, recorded with every run:
//! fsync and thread numbers mean little without the machine, compiler,
//! source revision, journal filesystem and load they came from.

use std::path::Path;
use std::process::Command;

use crate::json::{number, quote};

/// Provenance of one run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the checkout, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the workspace sources (`Cargo.*`, `crates/`),
    /// which identifies the program where no git metadata exists.
    pub source_digest: String,
    /// Filesystem type under the run's journal directory.
    pub journal_fs: String,
    /// `/proc/loadavg` 1/5/15-minute averages at start.
    pub loadavg: String,
    /// Steal and total CPU ticks at start (see [`cpu_ticks`]).
    pub ticks_at_start: Option<(u64, u64)>,
}

impl Provenance {
    /// Captures the provenance of a run from the checkout root `root`;
    /// `journal_fs` names where the run's journals live.
    pub fn capture(root: &Path, journal_fs: String) -> Self {
        Self {
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            commit: git_commit(root),
            source_digest: format!("{:016x}", source_digest(root)),
            journal_fs,
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".to_owned()),
            ticks_at_start: cpu_ticks(),
        }
    }

    /// The share of the machine's CPU time since the capture that the
    /// hypervisor gave to other guests. On a shared virtual machine
    /// every timing moves with it.
    pub fn steal_share(&self) -> Option<f64> {
        let (steal0, total0) = self.ticks_at_start?;
        let (steal, total) = cpu_ticks()?;
        (total > total0).then(|| (steal - steal0) as f64 / (total - total0) as f64)
    }

    /// The provenance as a JSON object; `steal_share` covers the run so
    /// far.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"journal_fs\": {}, \"loadavg\": {}, \"steal_share\": {}}}",
            self.nproc,
            quote(&self.rustc),
            quote(&self.commit),
            quote(&self.source_digest),
            quote(&self.journal_fs),
            quote(&self.loadavg),
            self.steal_share().map_or_else(|| "null".to_owned(), number)
        )
    }
}

/// Steal and total ticks of all CPUs since boot, from the `cpu` line of
/// `/proc/stat` (guest time is already inside user time).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `git rev-parse HEAD` when `root` is itself the top of a git
/// checkout; git is not allowed to search above `root`.
fn git_commit(root: &Path) -> String {
    let parent = root.parent().unwrap_or(root);
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_owned(), |s| s.trim().to_owned())
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in sorted path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&file).unwrap_or_default();
        for b in name.bytes().chain(body) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The type of the filesystem holding `path`: the longest mount point
/// in `/proc/self/mountinfo` that is a prefix of it.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    info.lines()
        .filter_map(|line| {
            let mount_point = line.split(' ').nth(4)?;
            let fs = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
