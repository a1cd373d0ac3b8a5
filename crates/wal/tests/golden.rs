//! Golden-fixture test: the on-disk segment format may not drift
//! silently.
//!
//! A small segment with representative records is committed under
//! `tests/fixtures/wal_v1.seg`. This suite asserts that (a) today's
//! writer still produces those bytes **byte-for-byte**, (b) the
//! committed bytes still recover to the same entries, and (c) a bumped
//! format version is rejected as [`WalError::VersionMismatch`], not
//! misparsed. Any intentional format change must bump
//! [`pitract_wal::SEGMENT_VERSION`] and regenerate:
//!
//! ```text
//! PITRACT_REGEN_FIXTURES=1 cargo test -p pitract-wal --test golden
//! ```

use pitract_core::tempdir::TempDir;
use pitract_engine::UpdateEntry;
use pitract_relation::Value;
use pitract_wal::segment::{encode_record, segment_file_name, segment_header};
use pitract_wal::{WalError, WalReader, SEGMENT_VERSION};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_v1.seg")
}

/// The deterministic entries the fixture holds: inserts covering
/// negative ints, empty and multi-byte UTF-8 strings, a zero-arity row,
/// and a delete.
fn fixture_entries() -> Vec<UpdateEntry> {
    vec![
        UpdateEntry::Insert {
            gid: 0,
            row: vec![Value::Int(-3), Value::str("alpha")],
        },
        UpdateEntry::Insert {
            gid: 1,
            row: vec![Value::Int(i64::MAX), Value::str("日本語 Σ*")],
        },
        UpdateEntry::Insert {
            gid: 2,
            row: vec![],
        },
        UpdateEntry::Delete { gid: 1 },
        UpdateEntry::Insert {
            gid: 3,
            row: vec![Value::Int(0), Value::str("")],
        },
    ]
}

/// The fixture's bytes as today's code writes them: one segment based
/// at LSN 7 (a non-zero base, so the base field is actually exercised).
fn fixture_bytes() -> Vec<u8> {
    let mut bytes = segment_header(7);
    for (i, entry) in fixture_entries().iter().enumerate() {
        let mut payload = pitract_store::codec::Writer::new();
        payload.update_entry(entry);
        bytes.extend_from_slice(&encode_record(7 + i as u64, &payload.into_bytes()));
    }
    bytes
}

#[test]
fn segment_encoding_is_byte_stable() {
    let bytes = fixture_bytes();
    let path = fixture_path();
    if std::env::var("PITRACT_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let on_disk = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("fixture missing ({e}); see module docs to regenerate"));
    assert_eq!(
        on_disk, bytes,
        "segment encoding drifted from the committed fixture: either revert the \
         encoding change or bump SEGMENT_VERSION and regenerate"
    );
}

#[test]
fn committed_fixture_recovers_to_the_pinned_entries() {
    let dir = TempDir::new("wal-golden");
    std::fs::write(
        dir.join(segment_file_name(7)),
        std::fs::read(fixture_path()).unwrap(),
    )
    .unwrap();
    let reader = WalReader::open(&dir).unwrap();
    let entries: Vec<UpdateEntry> = reader.records().iter().map(|r| r.entry.clone()).collect();
    assert_eq!(entries, fixture_entries());
    let lsns: Vec<u64> = reader.records().iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, vec![7, 8, 9, 10, 11]);
    assert_eq!(reader.next_lsn(), 12);
}

#[test]
fn bumped_version_is_rejected_with_version_mismatch() {
    let dir = TempDir::new("wal-vbump");
    let mut bytes = std::fs::read(fixture_path()).unwrap();
    // Bytes 8..10 are the little-endian format version.
    let bumped = SEGMENT_VERSION + 1;
    bytes[8..10].copy_from_slice(&bumped.to_le_bytes());
    std::fs::write(dir.join(segment_file_name(7)), &bytes).unwrap();
    match WalReader::open(&dir) {
        Err(WalError::VersionMismatch { found, expected }) => {
            assert_eq!(found, bumped);
            assert_eq!(expected, SEGMENT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}
