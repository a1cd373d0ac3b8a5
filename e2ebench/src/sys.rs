//! The process's surroundings: scratch directories, memory, disk, cores
//! and the identity of the code under test.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where runs put their scratch directories and trace files, relative
/// to the directory the benchmark runs from.
pub const SCRATCH_ROOT: &str = ".bench_tmp";
pub const TRACE_ROOT: &str = ".bench_out";

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory named by process id *and* a per-call sequence
/// number, so two directories made by one process never collide; it is
/// removed with everything in it on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let seq = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{seq}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on, as `nproc` counts them.
pub fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else {
        return 0;
    };
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The type of the filesystem `path` sits on, from the longest mount
/// point in `/proc/self/mountinfo` that contains it.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The git revision when the benchmark runs from a git checkout.
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unavailable (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a 64 over the paths and contents of the sources under test and
/// of the benchmark itself: identifies the code even where there is no
/// git revision.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "e2ebench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("e2ebench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let a = TempDir::new("selftest").unwrap();
        let b = TempDir::new("selftest").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        assert_eq!(dir_bytes(a.path()), 1);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
