//! Digest goldens for the scheduler fate paths no committed artifact
//! reaches. `results/chaos.json` and `results/slo.json` both report zero
//! preemptions, so SLO preemption, deadline-rescue preemption, the
//! degrade ladder, shedding, and crash/disconnect handling in both KV
//! modes are pinned here instead: each scenario runs a fixed workload
//! through `ServeSession`, checks that the path it names actually fired,
//! and compares an FNV-1a 64-bit digest of the run with a constant.
//!
//! The digest covers the `ServeOutcome` JSON (responses, rejections,
//! cancellations, stats, the lifecycle record and boundary samples), the
//! tracer's metrics snapshot, and every flight-recorder note, so a
//! change in the order or content of any of them changes the digest.
//! When a change to the scheduler is *meant* to move these bytes, rerun
//! this test and take the new constants from the failure messages.
#![allow(clippy::unwrap_used)]

use lm_fault::{FaultConfig, FaultInjector, StormProfile};
use lm_serve::{
    plan_admission, synth_traffic, AnalyticBackend, CancelReason, KvMode, Request, ServeBackend,
    ServeConfig, ServeOutcome, ServeSession, SloPolicy, StaticLadder,
};
use lm_trace::{FlightRecorder, MetricsSnapshot, Tracer};
use std::sync::Arc;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: the outcome plus the metrics it traced.
struct Pinned {
    out: ServeOutcome,
    metrics: MetricsSnapshot,
    digest: u64,
}

impl Pinned {
    fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }
}

/// Run `requests` under `cfg` with a fresh tracer and an unbounded
/// flight ring, and digest everything the run emitted.
fn pin(backend: &AnalyticBackend, mut cfg: ServeConfig, requests: Vec<Request>) -> Pinned {
    let flight = FlightRecorder::new(1 << 16);
    cfg.tracer = Tracer::new();
    cfg.flight = flight.clone();
    let out = ServeSession::new(backend)
        .config(cfg.clone())
        .run(requests)
        .unwrap()
        .outcome;
    let metrics = cfg.tracer.snapshot().metrics;
    // Freeze the ring if no SLO breach already did, so its notes can be
    // read back.
    flight.trigger("end of run", 0, MetricsSnapshot::default());
    let notes = flight.dump().unwrap().events;
    let mut json = serde_json::to_string(&out).unwrap();
    json += &serde_json::to_string(&metrics).unwrap();
    json += &serde_json::to_string(&notes).unwrap();
    let digest = fnv1a64(json.as_bytes());
    Pinned {
        out,
        metrics,
        digest,
    }
}

fn assert_digest(name: &str, got: &Pinned, want: u64) {
    assert!(
        got.digest == want,
        "{name}: digest {:#018x} != pinned {want:#018x}",
        got.digest
    );
}

/// An objective just above the plan's physical floor: feasible, but any
/// real queueing predicts a violation.
fn tight_slo(b: &AnalyticBackend, cfg: &ServeConfig, headroom: f64) -> f64 {
    let plan = plan_admission(b, cfg).unwrap();
    (b.prefill_seconds(plan.slot_context, plan.slots) + plan.est_step_seconds) * headroom
}

#[test]
fn slo_preemption_is_pinned() {
    let b = AnalyticBackend::opt_30b();
    let hog = Request::new(0, vec![1, 2], 60).with_priority(0);
    let mut reqs = vec![hog];
    reqs.extend((1..4).map(|i| {
        Request::new(i, vec![3, 4], 6)
            .with_priority(2)
            .with_arrival_us(1_000)
    }));
    let mut cfg = ServeConfig {
        max_slots: 1,
        ..ServeConfig::default()
    };
    cfg.slo = Some(SloPolicy {
        shed: false,
        ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.05))
    });
    let p = pin(&b, cfg, reqs);
    assert!(p.out.stats.preemptions > 0, "{:?}", p.out.stats);
    assert_digest("slo preemption", &p, 0x8cd0_a9ae_671b_2d3a);
}

/// Two long residents fill every page of a two-slot pool; a short
/// deadline-holder arriving behind them can only be admitted by evicting
/// one (paged mode, no SLO policy).
#[test]
fn paged_deadline_rescue_is_pinned() {
    let b = AnalyticBackend::opt_30b();
    let context = 512;
    let cfg = ServeConfig {
        slot_context: context,
        kv_pool_bytes: 2 * b.kv_bytes_at(context),
        ..ServeConfig::default()
    };
    let reqs = vec![
        Request::new(0, vec![7; 250], 250).with_priority(1),
        Request::new(1, vec![8; 250], 250),
        Request::new(2, vec![9; 10], 10)
            .with_arrival_us(1_000)
            .with_deadline_us(60_000_000),
    ];
    let p = pin(&b, cfg, reqs);
    assert!(p.out.stats.preemptions > 0, "{:?}", p.out.stats);
    assert!(p.counter("serve.preemptions") > 0);
    assert_eq!(p.out.terminal_count(), 3);
    assert_digest("deadline rescue", &p, 0x91a4_a711_f090_13e5);
}

#[test]
fn degrade_ladder_climb_is_pinned() {
    let b = AnalyticBackend::opt_30b();
    let reqs: Vec<Request> = synth_traffic(7, 4.0, 24, b.model())
        .into_iter()
        .map(|r| r.with_priority(1))
        .collect();
    let mut cfg = ServeConfig {
        max_slots: 2,
        ladder: Some(Arc::new(StaticLadder::geometric(4, 0.7))),
        ..ServeConfig::default()
    };
    cfg.slo = Some(SloPolicy {
        shed: false,
        ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5))
    });
    let p = pin(&b, cfg, reqs);
    assert!(p.out.stats.degradations > 0, "{:?}", p.out.stats);
    assert_digest("degrade ladder", &p, 0xd376_8618_75af_8ed7);
}

#[test]
fn shedding_is_pinned() {
    let b = AnalyticBackend::opt_30b();
    let reqs = synth_traffic(7, 4.0, 24, b.model());
    let mut cfg = ServeConfig {
        max_slots: 2,
        ..ServeConfig::default()
    };
    cfg.slo = Some(SloPolicy {
        preempt: false,
        ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5))
    });
    let p = pin(&b, cfg, reqs);
    assert!(p.out.stats.shed > 0, "{:?}", p.out.stats);
    assert_digest("shedding", &p, 0x59ea_d5be_6df9_2ab5);
}

/// Crash-resume and client disconnects under every non-default storm, in
/// both KV modes. Each storm keeps its own fault mix, with crash and
/// disconnect rates raised to at least 20% so both paths fire.
#[test]
fn crash_and_disconnect_storms_are_pinned_in_both_kv_modes() {
    use KvMode::{Paged, Slab};
    use StormProfile::{Blackout, Crashes, Disconnects, PoolSqueeze};
    let b = AnalyticBackend::opt_30b();
    let pinned: [(StormProfile, KvMode, u64); 8] = [
        (PoolSqueeze, Paged, 0x4ae9_879d_c10b_2fd1),
        (PoolSqueeze, Slab, 0x01e6_4cfe_d0d4_ca10),
        (Disconnects, Paged, 0x7b85_23f1_d43a_fcec),
        (Disconnects, Slab, 0x3c56_100b_657b_32bf),
        (Crashes, Paged, 0xfdec_6276_bbb6_c688),
        (Crashes, Slab, 0x4f14_92f8_0fa1_2d65),
        (Blackout, Paged, 0x0b74_4200_3505_e488),
        (Blackout, Slab, 0x988b_393f_ef74_2efe),
    ];
    let mut failures = Vec::new();
    for (profile, kv_mode, want) in pinned {
        let storm = FaultConfig::storm(11, profile);
        let fault = FaultConfig {
            disconnect_rate: storm.disconnect_rate.max(0.2),
            slot_crash_rate: storm.slot_crash_rate.max(0.2),
            ..storm
        };
        let cfg = ServeConfig {
            kv_mode,
            fault: FaultInjector::new(fault),
            ..ServeConfig::default()
        };
        let p = pin(&b, cfg, synth_traffic(7, 4.0, 24, b.model()));
        let name = format!("{} / {kv_mode:?}", profile.name());
        let disconnects = p
            .out
            .cancellations
            .iter()
            .filter(|c| c.reason == CancelReason::ClientDisconnect)
            .count();
        assert!(p.out.stats.slot_crashes > 0, "{name}: {:?}", p.out.stats);
        assert!(disconnects > 0, "{name}: no disconnect landed");
        assert_eq!(p.counter("serve.disconnects"), disconnects as u64, "{name}");
        assert_eq!(p.out.kv_leaked_bytes, 0, "{name}");
        if p.digest != want {
            failures.push(format!(
                "{name}: digest {:#018x} != pinned {want:#018x}",
                p.digest
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
