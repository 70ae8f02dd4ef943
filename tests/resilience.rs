//! The session-resilience scenarios, run from this package's suite.
//!
//! Each scenario is a checked-in chaos schedule under
//! `crates/chaos/schedules/`: a seed, a session, an event list (attach,
//! possibly at an older protocol revision; draw, flush, fault windows,
//! disconnect and reconnect, resize, crash and failover) and an
//! `expect` block of counters the invariant catalog does not check.
//! Its `why` says what it exercises. The chaos crate's table runs every
//! file in that directory; these tests run the twelve resilience
//! scenarios through the same check, so a plain `cargo test` of this
//! package still drives each of them over the wire at its own flush
//! worker count and at 1 and 4.

#[path = "../crates/chaos/tests/table/mod.rs"]
mod table;

fn scenario(files: &[&str]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/chaos/schedules");
    table::check(&dir, files);
}

#[test]
fn seeded_loss_converges_byte_exact_without_resync() {
    scenario(&["seeded-loss.json"]);
}

#[test]
fn corruption_window_is_survived_and_resync_restores_the_screen() {
    scenario(&["corruption-resync.json"]);
}

#[test]
fn integrity_framing_survives_reorder_duplication_and_corruption() {
    scenario(&["integrity-reorder-dup.json"]);
}

#[test]
fn cached_session_matches_uncached_and_reconnect_repays_debt_from_cache() {
    scenario(&["cached-vs-uncached.json"]);
}

#[test]
fn outage_timeout_reconnect_resyncs_byte_exact_with_bounded_backlog() {
    scenario(&["outage-timeout.json"]);
}

#[test]
fn device_switch_mid_outage_converges_on_the_new_viewport() {
    scenario(&["device-switch.json"]);
}

#[test]
fn adaptive_degradation_rides_out_a_collapse_and_recovers_byte_exact() {
    scenario(&["degradation-collapse.json"]);
}

#[test]
fn shared_session_degrades_only_the_faulted_peer() {
    scenario(&["shared-degrade.json"]);
}

#[test]
fn cache_degradation_reconnect_matrix_converges_with_lockstep_eviction() {
    scenario(&["cache-matrix-8k.json", "cache-matrix-256k.json"]);
}

#[test]
fn sharded_fanout_rides_out_collapse_and_converges_byte_exact() {
    scenario(&["fanout-collapse.json"]);
}

#[test]
fn warm_resume_ships_fewer_bytes_than_cold_reconnect() {
    scenario(&["warm-vs-cold.json", "warm-vs-cold-cached.json"]);
}

#[test]
fn checkpoint_failover_converges_across_workers() {
    scenario(&["checkpoint-failover.json"]);
}
