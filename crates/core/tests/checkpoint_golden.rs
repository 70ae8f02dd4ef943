//! Golden checkpoint images: the on-disk format pinned by artifact.
//!
//! `golden/server_v3.ckpt` and `golden/session_v3.ckpt` are what the
//! fixtures in `fixtures/` checkpoint to under layout version 3 (one
//! writer: a server image is the session record plus the server's own
//! fields). A refactor that moves a field, reorders a record or changes
//! what a fixture leaves in flight fails here before it can silently
//! break a standby's restore. There is deliberately no decoder for
//! older layouts (a standby runs its primary's build): a version-1 or
//! version-2 header is refused like any foreign version.
//!
//! After an intended layout change, bump `CHECKPOINT_VERSION`, rename
//! the files, and run the one writer:
//! `cargo test -p thinc-core --test checkpoint_golden -- --ignored regenerate_golden`.

mod fixtures;

use std::path::PathBuf;

use thinc_core::checkpoint::{CheckpointError, CHECKPOINT_VERSION};
use thinc_core::server::ThincServer;
use thinc_core::session::SharedSession;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn read_golden(name: &str) -> Vec<u8> {
    let path = golden(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn server_image() -> Vec<u8> {
    let ws = fixtures::checkpointable_server();
    ws.driver().checkpoint(ws.screen())
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
fn layout_version_is_3() {
    assert_eq!(CHECKPOINT_VERSION, 3);
}

#[test]
fn server_image_is_pinned() {
    let file = read_golden("server_v3.ckpt");
    assert!(server_image() == file, "fixture no longer checkpoints to server_v3.ckpt");
    let ws = fixtures::checkpointable_server();
    let restored = ThincServer::restore(&file).expect("the golden server image restores");
    assert!(restored.checkpoint(ws.screen()) == file, "restore -> checkpoint changed the image");
    for old in [1, 2] {
        assert_eq!(
            ThincServer::restore(&as_version(&file, old)).err(),
            Some(CheckpointError::UnsupportedVersion(old))
        );
    }
}

#[test]
fn session_image_is_pinned() {
    let file = read_golden("session_v3.ckpt");
    assert!(session_image() == file, "fixture no longer checkpoints to session_v3.ckpt");
    let (_, store, _) = fixtures::checkpointable_session();
    let restored = SharedSession::restore(&file).expect("the golden session image restores");
    assert!(
        restored.checkpoint(store.screen()) == file,
        "restore -> checkpoint changed the image"
    );
    for old in [1, 2] {
        assert_eq!(
            SharedSession::restore(&as_version(&file, old)).err(),
            Some(CheckpointError::UnsupportedVersion(old))
        );
    }
}

#[test]
fn hostile_golden_images_are_typed_errors() {
    for (name, restore) in [
        ("server_v3.ckpt", (|b| ThincServer::restore(b).map(drop)) as fn(&[u8]) -> _),
        ("session_v3.ckpt", |b| SharedSession::restore(b).map(drop)),
    ] {
        let file = read_golden(name);
        for cut in 0..file.len() {
            assert!(restore(&file[..cut]).is_err(), "{name}: prefix {cut} accepted");
        }
        for byte in 0..file.len() {
            let mut bad = file.clone();
            bad[byte] ^= 1 << (byte % 8);
            assert!(restore(&bad).is_err(), "{name}: flip at {byte} accepted");
        }
    }
}

#[test]
#[ignore = "the only writer of tests/golden/"]
fn regenerate_golden() {
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::write(golden("server_v3.ckpt"), server_image()).unwrap();
    std::fs::write(golden("session_v3.ckpt"), session_image()).unwrap();
}
