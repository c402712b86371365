//! The journal's magic header is checked like every other byte: a file
//! that does not start with [`V2_MAGIC`] is corruption at offset 0,
//! never an empty journal. Only a proper prefix of the magic (a crash
//! while the header was being stamped) is a torn tail.

use std::path::{Path, PathBuf};

use ada_kdb::journal::{replay, RecoveryMode, V2_MAGIC};
use ada_kdb::{Document, Kdb, KdbError, StoreOptions};

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ada_kdb_magic_{tag}_{}.journal",
        std::process::id()
    ))
}

fn quarantine(path: &Path) -> PathBuf {
    path.with_extension("quarantine")
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(quarantine(path)).ok();
}

/// A clean journal of one collection and 100 inserts.
fn golden_image(path: &Path) -> Vec<u8> {
    cleanup(path);
    {
        let mut db = Kdb::open(path).unwrap();
        db.create_collection("items").unwrap();
        for i in 0..100i64 {
            db.insert(
                "items",
                Document::new().with("i", i).with("kind", "cluster"),
            )
            .unwrap();
        }
        db.sync().unwrap();
    }
    let image = std::fs::read(path).unwrap();
    assert!(image.starts_with(V2_MAGIC));
    image
}

#[test]
fn every_magic_bit_flip_is_corruption_at_offset_zero() {
    let path = temp_journal("flip");
    let golden = golden_image(&path);
    for byte in 0..V2_MAGIC.len() {
        for bit in 0..8 {
            let mut flipped = golden.clone();
            flipped[byte] ^= 1 << bit;
            cleanup(&path);
            std::fs::write(&path, &flipped).unwrap();

            match Kdb::open(&path) {
                Err(KdbError::Corrupt { offset: 0, .. }) => {}
                Err(e) => panic!("byte {byte} bit {bit}: expected Corrupt at 0, got {e}"),
                Ok(db) => panic!(
                    "byte {byte} bit {bit}: strict open accepted a journal without magic \
                     ({} collections)",
                    db.collection_names().len()
                ),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                flipped,
                "byte {byte} bit {bit}: a failed strict open must not touch the file"
            );

            let db = Kdb::open_with(
                &path,
                StoreOptions::default().recovery(RecoveryMode::Salvage),
            )
            .unwrap();
            let report = db.salvaged().expect("salvage reports the corruption");
            assert_eq!(report.offset, 0);
            assert_eq!(report.record, 0);
            assert!(db.collection_names().is_empty());
            drop(db);
            assert_eq!(
                std::fs::read(quarantine(&path)).unwrap(),
                flipped,
                "byte {byte} bit {bit}: salvage must quarantine every byte"
            );
            assert_eq!(std::fs::read(&path).unwrap(), V2_MAGIC, "re-stamped");
        }
    }
    cleanup(&path);
}

#[test]
fn a_torn_magic_opens_empty_and_is_restamped() {
    let path = temp_journal("torn");
    let golden = golden_image(&path);
    for cut in 1..V2_MAGIC.len() {
        cleanup(&path);
        std::fs::write(&path, &golden[..cut]).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(
            replayed.truncated,
            "cut {cut}: a torn header is a torn tail"
        );
        assert_eq!(replayed.valid_len, 0);
        assert!(replayed.corruption.is_none());

        let mut db = Kdb::open(&path).unwrap();
        assert!(db.collection_names().is_empty());
        assert!(db.salvaged().is_none());
        assert_eq!(std::fs::read(&path).unwrap(), V2_MAGIC, "cut {cut}");
        db.create_collection("items").unwrap();
        drop(db);
        let reopened = Kdb::open(&path).unwrap();
        assert_eq!(reopened.collection_names(), vec!["items"]);
    }
    cleanup(&path);
}

#[test]
fn an_empty_journal_survives_repeated_reopens() {
    let path = temp_journal("empty");
    cleanup(&path);
    for _ in 0..3 {
        let db = Kdb::open(&path).unwrap();
        assert!(db.collection_names().is_empty());
    }
    assert_eq!(std::fs::read(&path).unwrap(), V2_MAGIC);
    cleanup(&path);
}
