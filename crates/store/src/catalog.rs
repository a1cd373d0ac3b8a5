//! A directory of named snapshots — the deployment-facing API.
//!
//! A [`SnapshotCatalog`] maps names to `<name>.snap` files in one
//! directory. Saves are atomic (temp file + rename), so a catalog is
//! never observed with a half-written snapshot under a final name, and a
//! crashed writer leaves at worst a `.tmp` file that the next save
//! overwrites. Names are restricted to a filesystem-safe alphabet so a
//! name can never escape the catalog directory.

use crate::error::StoreError;
use crate::snapshot::{write_atomic, Snapshot, SnapshotKind};
use std::path::{Path, PathBuf};

/// File extension for catalog snapshots.
const EXT: &str = "snap";

/// A directory of named snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotCatalog {
    dir: PathBuf,
}

impl SnapshotCatalog {
    /// Open (creating if needed) a catalog directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotCatalog { dir })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Is `name` a valid snapshot name? Names must be nonempty, use only
    /// `[A-Za-z0-9._-]`, and not start with a dot — which rules out path
    /// separators, `..` traversal, and hidden / temp-file collisions.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    }

    /// Validate a snapshot name and produce its file path.
    fn path_of(&self, name: &str) -> Result<PathBuf, StoreError> {
        if !Self::valid_name(name) {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        Ok(self.dir.join(format!("{name}.{EXT}")))
    }

    /// Persist a snapshot under `name`, atomically replacing any previous
    /// snapshot with that name. Returns the file path written.
    pub fn save(&self, name: &str, snapshot: &Snapshot) -> Result<PathBuf, StoreError> {
        let path = self.path_of(name)?;
        write_atomic(&path, &snapshot.to_bytes())?;
        Ok(path)
    }

    /// Load the snapshot stored under `name`.
    pub fn load(&self, name: &str) -> Result<Snapshot, StoreError> {
        Snapshot::load(self.path_of(name)?)
    }

    /// Which structure kind `name` holds, from the file header alone
    /// (cheap: reads the first bytes, not the whole snapshot; the full
    /// checksum runs on [`SnapshotCatalog::load`]).
    pub fn kind_of(&self, name: &str) -> Result<SnapshotKind, StoreError> {
        use std::io::Read as _;
        let mut header = [0u8; 16];
        let mut f = std::fs::File::open(self.path_of(name)?)?;
        f.read_exact(&mut header).map_err(|e| {
            // Only a genuinely short file is "truncated"; permission or
            // disk errors must keep their I/O identity so an operator is
            // not steered toward "the snapshot is corrupt".
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated
            } else {
                StoreError::Io(e)
            }
        })?;
        crate::snapshot::peek_kind(&header)
    }

    /// All snapshot names in the catalog, sorted. Only names this
    /// catalog could have written (and can therefore load back) are
    /// listed — a foreign `.snap` file with, say, a space or a leading
    /// dot in its stem is skipped rather than listed-but-unloadable.
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if Self::valid_name(stem) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Is there a snapshot under `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.path_of(name).map(|p| p.exists()).unwrap_or(false)
    }

    /// Remove the snapshot stored under `name`.
    pub fn remove(&self, name: &str) -> Result<(), StoreError> {
        std::fs::remove_file(self.path_of(name)?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::tempdir::TempDir;
    use pitract_relation::indexed::IndexedRelation;
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};

    fn small_indexed(n: i64) -> IndexedRelation {
        let schema = Schema::new(&[("id", ColType::Int)]);
        let rows = (0..n).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        IndexedRelation::build(&rel, &[0]).unwrap()
    }

    #[test]
    fn save_list_load_remove_workflow() {
        let dir = TempDir::new("catalog-workflow");
        let catalog = SnapshotCatalog::open(&dir).unwrap();
        assert!(catalog.list().unwrap().is_empty());

        catalog
            .save("alpha", &Snapshot::Indexed(small_indexed(10)))
            .unwrap();
        catalog
            .save("beta.v2", &Snapshot::Indexed(small_indexed(20)))
            .unwrap();
        assert_eq!(catalog.list().unwrap(), vec!["alpha", "beta.v2"]);
        assert!(catalog.contains("alpha"));
        assert!(!catalog.contains("gamma"));
        assert_eq!(
            catalog.kind_of("alpha").unwrap(),
            SnapshotKind::IndexedRelation
        );

        let loaded = catalog.load("beta.v2").unwrap().into_indexed().unwrap();
        assert_eq!(loaded.len(), 20);
        assert!(loaded.answer(&SelectionQuery::point(0, 19i64)));

        catalog.remove("alpha").unwrap();
        assert_eq!(catalog.list().unwrap(), vec!["beta.v2"]);
        assert!(matches!(catalog.load("alpha"), Err(StoreError::Io(_)),));
    }

    #[test]
    fn save_overwrites_atomically() {
        let dir = TempDir::new("catalog-overwrite");
        let catalog = SnapshotCatalog::open(&dir).unwrap();
        catalog
            .save("rel", &Snapshot::Indexed(small_indexed(5)))
            .unwrap();
        catalog
            .save("rel", &Snapshot::Indexed(small_indexed(50)))
            .unwrap();
        assert_eq!(
            catalog.load("rel").unwrap().into_indexed().unwrap().len(),
            50
        );
        // No stray temp files after successful saves.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
    }

    #[test]
    fn traversal_and_hidden_names_are_rejected() {
        let dir = TempDir::new("catalog-names");
        let catalog = SnapshotCatalog::open(&dir).unwrap();
        let snap = Snapshot::Indexed(small_indexed(1));
        for bad in ["", "../escape", "a/b", "a\\b", ".hidden", "..", "nul\0"] {
            assert!(
                matches!(catalog.save(bad, &snap), Err(StoreError::InvalidName(_))),
                "{bad:?} accepted"
            );
        }
        for good in ["a", "big-rel_v2.1", "UPPER", "0"] {
            assert!(catalog.save(good, &snap).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn list_ignores_foreign_files() {
        let dir = TempDir::new("catalog-foreign");
        let catalog = SnapshotCatalog::open(&dir).unwrap();
        catalog
            .save("real", &Snapshot::Indexed(small_indexed(3)))
            .unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a snapshot").unwrap();
        std::fs::write(dir.join("stale.snap.tmp"), b"crashed writer").unwrap();
        // A .snap file whose stem this catalog could never have written
        // (and whose name load() would reject) must not be listed.
        std::fs::write(dir.join(".hidden.snap"), b"foreign").unwrap();
        std::fs::write(dir.join("bad name.snap"), b"foreign").unwrap();
        assert_eq!(catalog.list().unwrap(), vec!["real"]);
    }
}
