//! `DUET_SNAPSHOT` is parsed strictly, and the verdict reaches callers
//! through `snapshot::obtain`: unset and `1` fork, `0` builds cold, and
//! any other value is an error naming the variable and the value
//! instead of silently leaving forks on.
//!
//! Each case sets the variable, so the cases hold one lock and restore
//! the caller's value (CI also runs this suite under
//! `DUET_SNAPSHOT=0`). Edition 2021: `set_var` is safe.

use experiments::snapshot::{clear_store, obtain, prepare, warm_stats};
use experiments::{paper_scaled, TaskKind};
use sim_core::snapshot::StateDigest;
use sim_core::SimError;
use std::sync::Mutex;
use workloads::{DistKind, Personality};

static ENV: Mutex<()> = Mutex::new(());

/// Runs `f` with `DUET_SNAPSHOT` set to `value` (`None`: unset).
fn with_snapshot_env(value: Option<&str>, f: impl FnOnce()) {
    let _guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var_os("DUET_SNAPSHOT");
    match value {
        Some(v) => std::env::set_var("DUET_SNAPSHOT", v),
        None => std::env::remove_var("DUET_SNAPSHOT"),
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    match saved {
        Some(v) => std::env::set_var("DUET_SNAPSHOT", v),
        None => std::env::remove_var("DUET_SNAPSHOT"),
    }
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
}

fn cfg() -> experiments::ExperimentConfig {
    paper_scaled(
        1024,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.5,
        vec![TaskKind::Scrub],
        true,
    )
}

/// Obtains the stack twice and returns how many of the two calls were
/// served as forks, checking both against a fresh build.
fn forks_served() -> u64 {
    clear_store();
    let fresh = prepare(&cfg()).expect("fresh build").state_digest_hex();
    let (hits0, _) = warm_stats();
    for _ in 0..2 {
        let stack = obtain(&cfg()).expect("obtain");
        assert_eq!(stack.state_digest_hex(), fresh);
    }
    warm_stats().0 - hits0
}

fn assert_rejected(value: &str) {
    with_snapshot_env(Some(value), || match obtain(&cfg()) {
        Err(SimError::InvalidArgument(msg)) => {
            assert!(msg.contains("DUET_SNAPSHOT"), "{msg}");
            assert!(msg.contains(&format!("`{value}`")), "{msg}");
        }
        Err(e) => panic!("DUET_SNAPSHOT={value:?}: wrong error {e}"),
        Ok(_) => panic!("DUET_SNAPSHOT={value:?} was accepted"),
    });
}

#[test]
fn unset_means_forks_on() {
    with_snapshot_env(None, || assert_eq!(forks_served(), 1));
}

#[test]
fn one_means_forks_on() {
    with_snapshot_env(Some("1"), || assert_eq!(forks_served(), 1));
}

#[test]
fn zero_means_cold_builds() {
    with_snapshot_env(Some("0"), || assert_eq!(forks_served(), 0));
}

#[test]
fn false_is_rejected_by_name() {
    assert_rejected("false");
}

#[test]
fn off_is_rejected_by_name() {
    assert_rejected("off");
}

#[test]
fn empty_is_rejected_by_name() {
    assert_rejected("");
}
