//! Byte-for-byte goldens for the committed serve artifacts the `repro`
//! lanes regenerate on the virtual clock. Each test rebuilds one file
//! exactly as its lane assembles it and compares it with the committed
//! copy, so a scheduler change that moves any lifecycle event, counter,
//! flight note or clock tick shows up as a diff here:
//!
//! - `repro chaos --seed 7 --storm default` → `results/chaos.json`;
//! - `repro slo --seed 7` → `results/slo.json`;
//! - `repro obs --seed 7` → `results/obs.json` and
//!   `results/serve_timeline.json`.
//!
//! `results/serve.json` has its own golden in `serve_async_streaming.rs`.
#![allow(clippy::unwrap_used)]

use lm_bench::experiments::{chaos, obs, serve, slo};
use lm_fault::StormProfile;

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} is committed: {e}"))
}

fn assert_golden(name: &str, regenerated: &str) {
    assert!(
        regenerated == committed(name),
        "results/{name} drifted from the committed golden artifact"
    );
}

#[test]
fn chaos_artifact_matches_the_committed_golden_bytes() {
    let r = chaos::run(
        serve::DEFAULT_SEED,
        StormProfile::Default,
        serve::DEFAULT_RPS,
        serve::DEFAULT_REQUESTS,
    );
    assert_golden("chaos.json", &serde_json::to_string_pretty(&r).unwrap());
}

#[test]
fn slo_artifact_matches_the_committed_golden_bytes() {
    let r = slo::run(
        serve::DEFAULT_SEED,
        serve::DEFAULT_RPS,
        serve::DEFAULT_REQUESTS,
    );
    assert_golden("slo.json", &serde_json::to_string_pretty(&r).unwrap());
}

#[test]
fn obs_and_timeline_artifacts_match_the_committed_golden_bytes() {
    let (r, timeline) = obs::run(
        serve::DEFAULT_SEED,
        serve::DEFAULT_RPS,
        serve::DEFAULT_REQUESTS,
    );
    assert_golden("obs.json", &serde_json::to_string_pretty(&r).unwrap());
    assert_golden("serve_timeline.json", &timeline);
}
