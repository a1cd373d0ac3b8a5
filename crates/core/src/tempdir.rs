//! Scratch directories for tests, benches, examples and doc examples.
//!
//! A directory named by the process id alone is shared by every test of
//! one test binary, and tests run in parallel: whichever finishes first
//! deletes the others' files. [`TempDir`] names each directory by the
//! process id *and* a per-call sequence number, so no two calls in one
//! process ever share a path, and removes the directory when dropped.
//!
//! ```
//! use pitract_core::tempdir::TempDir;
//!
//! let a = TempDir::new("doc");
//! let b = TempDir::new("doc");
//! assert_ne!(a.path(), b.path());
//! std::fs::write(a.join("file"), b"bytes").unwrap();
//! let kept = a.path().to_path_buf();
//! drop(a);
//! assert!(!kept.exists(), "removed on drop");
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed (with
/// everything in it) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `pitract-{tag}-{pid}-{seq}` under the system temp dir.
    /// `seq` counts calls in this process, so the path is unique even
    /// when many tests of one binary run at once. A stale directory of
    /// the same name (left by an earlier process that reused the pid and
    /// was killed before its drop ran) is removed first. Panics when
    /// the directory cannot be created: scratch space is a precondition
    /// of every caller (tests, benches, examples).
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        // lint:allow(no-bare-temp-dir): this is the one helper the rule points to
        let path = std::env::temp_dir().join(format!("pitract-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        if let Err(e) = std::fs::create_dir_all(&path) {
            panic!("cannot create scratch directory {}: {e}", path.display());
        }
        TempDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A `TempDir` is used wherever a `&Path` is expected (`dir.join(…)`,
/// `fn f(dir: &Path)` called with `&dir`).
impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl From<&TempDir> for PathBuf {
    fn from(dir: &TempDir) -> PathBuf {
        dir.path.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_gets_its_own_directory_and_drop_removes_it() {
        let dirs: Vec<TempDir> = (0..8).map(|_| TempDir::new("unit")).collect();
        for (i, a) in dirs.iter().enumerate() {
            assert!(a.path().is_dir());
            for b in &dirs[i + 1..] {
                assert_ne!(a.path(), b.path());
            }
        }
        let first = dirs[0].join("nested/file");
        std::fs::create_dir_all(first.parent().unwrap()).unwrap();
        std::fs::write(&first, b"x").unwrap();
        let root = dirs[0].path().to_path_buf();
        drop(dirs);
        assert!(!root.exists());
    }
}
