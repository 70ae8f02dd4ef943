//! The golden checkpoint image: the on-disk format pinned by artifact.
//!
//! `golden/session_v7.ckpt` is what the shared-session fixture in
//! `fixtures/` checkpoints to under layout version 7. There is one
//! image, the session's: a single-client server is a session of one,
//! and its session key lives in its viewer's record. A refactor that
//! moves a field, reorders a record or changes what the fixture leaves
//! in flight fails here before it can silently break a standby's
//! restore. There is deliberately no decoder for older layouts (a
//! standby runs its primary's build): a version-1 to -6 header is
//! refused like any foreign version.
//!
//! After an intended layout change, bump `CHECKPOINT_VERSION`, rename
//! the file, and run the one writer:
//! `cargo test -p thinc-core --test checkpoint_golden -- --ignored regenerate_golden`.

mod fixtures;

use std::path::PathBuf;

use thinc_core::checkpoint::{CheckpointError, CHECKPOINT_VERSION};
use thinc_core::session::SharedSession;

const GOLDEN: &str = "session_v7.ckpt";

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn read_golden() -> Vec<u8> {
    let path = golden(GOLDEN);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn session_image() -> Vec<u8> {
    let (session, store, _) = fixtures::checkpointable_session();
    session.checkpoint(store.screen())
}

/// The same payload under a `version` header. The CRC covers the
/// payload only, so it needs no fixing up: only the version check can
/// refuse the image.
fn as_version(image: &[u8], version: u16) -> Vec<u8> {
    let mut old = image.to_vec();
    old[4..6].copy_from_slice(&version.to_le_bytes());
    old
}

#[test]
fn layout_version_is_7() {
    assert_eq!(CHECKPOINT_VERSION, 7);
}

#[test]
fn session_image_is_pinned() {
    let file = read_golden();
    assert!(session_image() == file, "fixture no longer checkpoints to {GOLDEN}");
    let (_, store, _) = fixtures::checkpointable_session();
    let restored = SharedSession::restore(&file).expect("the golden session image restores");
    assert!(
        restored.checkpoint(store.screen()) == file,
        "restore -> checkpoint changed the image"
    );
    for old in 1..=6 {
        assert_eq!(
            SharedSession::restore(&as_version(&file, old)).err(),
            Some(CheckpointError::UnsupportedVersion(old))
        );
    }
}

#[test]
fn hostile_golden_images_are_typed_errors() {
    let file = read_golden();
    for cut in 0..file.len() {
        assert!(SharedSession::restore(&file[..cut]).is_err(), "prefix {cut} accepted");
    }
    for byte in 0..file.len() {
        let mut bad = file.clone();
        bad[byte] ^= 1 << (byte % 8);
        assert!(SharedSession::restore(&bad).is_err(), "flip at {byte} accepted");
    }
}

#[test]
#[ignore = "the only writer of tests/golden/*.ckpt"]
fn regenerate_golden() {
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::write(golden(GOLDEN), session_image()).unwrap();
}
