//! `repro obs` — the serve-path observability gate (DESIGN.md §13):
//! one default continuous-batching run is audited end to end through
//! every observability surface this repo ships, and the experiment
//! exits non-zero unless all four verdicts hold:
//!
//! 1. **Drift** — the scheduler's own `ServeObs` record is audited
//!    against the `TtftModel`/`plan_admission` predictions; every
//!    metric's obs/pred ratio must land within its documented tolerance
//!    at the default seed;
//! 2. **Exposition** — the run's metrics registry renders to
//!    OpenMetrics text, parses back, and re-renders byte-identically;
//! 3. **Flight recorder** — an injected overload (floor-level TTFT
//!    objective on a starved two-slot config) must freeze a post-mortem
//!    dump whose JSON round-trips losslessly;
//! 4. **Lints** — the audited config passes `lm-analyze`'s `LMA27x`
//!    observability lints clean.
//!
//! `results/obs.json` carries all the evidence; the Perfetto serve
//! timeline of the audited run goes to `results/serve_timeline.json`.

use lm_serve::{
    obs_probe, plan_admission, serve_timeline, synth_traffic, AnalyticBackend, ServeBackend,
    ServeConfig, ServePlan, ServeRun, ServeSession, SloPolicy,
};
use lm_trace::{expo, FlightDump, FlightRecorder, ServeDriftReport, Tracer};
use serde::{Deserialize, Serialize};

pub const DEFAULT_SEED: u64 = 7;
pub const DEFAULT_RPS: f64 = 4.0;
pub const DEFAULT_REQUESTS: usize = 32;

/// Per-metric drift tolerances (DESIGN.md §13). The TTFT predictor is a
/// queueing estimate, not a replay, so the bars are documented per
/// metric rather than a single epsilon: tails are noisier than means,
/// and Little's-law queue depth inherits the TTFT error twice.
pub const DRIFT_TOLERANCES: [(&str, f64); 4] = [
    ("ttft_mean_s", 0.35),
    ("ttft_p99_s", 0.50),
    ("slot_occupancy_mean", 0.15),
    ("queue_depth_mean", 0.50),
];

/// One audited metric against its documented tolerance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftGate {
    pub metric: String,
    /// Documented `|ratio - 1|` bound.
    pub tolerance: f64,
    pub ratio: f64,
    pub ok: bool,
}

/// Everything `repro obs` writes to `results/obs.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsReport {
    pub seed: u64,
    pub rps: f64,
    pub requests: usize,
    pub plan: ServePlan,
    /// Lifecycle events / boundary samples / TTFT pairs collected.
    pub lifecycle_events: usize,
    pub boundary_samples: usize,
    pub ttft_samples: usize,
    /// The full predicted-vs-observed audit.
    pub drift: ServeDriftReport,
    pub drift_gates: Vec<DriftGate>,
    /// The verify.sh gate: every metric within its tolerance.
    pub drift_ok: bool,
    /// OpenMetrics rendering of the audited run's registry.
    pub exposition: String,
    /// render → parse → re-render is byte-identical.
    pub expo_round_trip_ok: bool,
    /// Post-mortem frozen by the injected overload.
    pub flight: FlightDump,
    /// The dump's JSON round-trips losslessly.
    pub flight_round_trip_ok: bool,
    pub lint_errors: usize,
    pub lint_warnings: usize,
    pub obs_ok: bool,
}

/// Gate the audit's ratios against [`DRIFT_TOLERANCES`]. A metric with
/// an undefined ratio (zero prediction) fails its gate: at the default
/// seed every audited metric must be live.
fn gate_drift(drift: &ServeDriftReport) -> (Vec<DriftGate>, bool) {
    let gates: Vec<DriftGate> = DRIFT_TOLERANCES
        .iter()
        .map(|&(metric, tolerance)| {
            let ratio = drift
                .metric(metric)
                .and_then(|m| m.ratio)
                .unwrap_or(f64::INFINITY);
            DriftGate {
                metric: metric.to_string(),
                tolerance,
                ratio,
                ok: (ratio - 1.0).abs() <= tolerance,
            }
        })
        .collect();
    let ok = gates.iter().all(|g| g.ok);
    (gates, ok)
}

/// Starve the default workload onto two slots under a floor-level
/// observe-only objective: queueing past the floor is guaranteed, the
/// first realized breach freezes the recorder, no actuator fires.
fn flight_pass(seed: u64, rps: f64, n: usize) -> FlightDump {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let flight = FlightRecorder::new(256);
    let mut cfg = ServeConfig {
        flight: flight.clone(),
        tracer: Tracer::new(),
        max_slots: 2,
        ..ServeConfig::default()
    };
    let plan = plan_admission(&backend, &cfg)
        .unwrap_or_else(|e| panic!("flight-pass planning failed: {e}"));
    let floor = backend.prefill_seconds(plan.slot_context, plan.slots) + plan.est_step_seconds;
    cfg.slo = Some(SloPolicy::observe(floor * 1.01));
    ServeSession::new(&backend)
        .config(cfg)
        .run(traffic)
        .unwrap_or_else(|e| panic!("flight-pass serving failed: {e}"));
    flight
        .dump()
        .unwrap_or_else(|| panic!("injected overload did not freeze the flight recorder"))
}

/// Run the audit. Returns the report and the Perfetto serve timeline of
/// the audited run as JSON.
pub fn run(seed: u64, rps: f64, n: usize) -> (ObsReport, String) {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let cfg = ServeConfig {
        tracer: Tracer::new(),
        flight: FlightRecorder::new(256),
        ..ServeConfig::default()
    };
    let (plan, out) = ServeSession::new(&backend)
        .config(cfg.clone())
        .run(traffic)
        .and_then(ServeRun::into_continuous)
        .unwrap_or_else(|e| panic!("obs serving failed: {e}"));

    // 1. Drift: the scheduler's own record vs the model's predictions.
    let drift = out.obs.audit(&plan);
    let (drift_gates, drift_ok) = gate_drift(&drift);

    // 2. Exposition: render → parse → re-render must be byte-identical.
    let snap = cfg.tracer.snapshot().metrics;
    let exposition = expo::render(&snap);
    let expo_round_trip_ok = expo::parse(&exposition)
        .map(|parsed| expo::render(&parsed) == exposition)
        .unwrap_or(false);

    // 3. Flight recorder: an injected overload freezes a dump that
    //    survives a JSON round-trip.
    let flight = flight_pass(seed, rps, n);
    let flight_round_trip_ok = serde_json::to_string(&flight)
        .ok()
        .and_then(|json| serde_json::from_str::<FlightDump>(&json).ok())
        .is_some_and(|back| back == flight);

    // 4. The audited config itself lints clean.
    let lint = lm_analyze::lint_obs(&obs_probe(&cfg));
    let lint_errors = lint.error_count();
    let lint_warnings = lint.warning_count();

    let obs_ok = drift_ok && expo_round_trip_ok && flight_round_trip_ok && lint_errors == 0;
    let timeline = serve_timeline(&plan, &out.obs).to_json_string();
    let report = ObsReport {
        seed,
        rps,
        requests: n,
        plan,
        lifecycle_events: out.obs.lifecycle.len(),
        boundary_samples: out.obs.boundaries.len(),
        ttft_samples: out.obs.ttft.len(),
        drift,
        drift_gates,
        drift_ok,
        exposition,
        expo_round_trip_ok,
        flight,
        flight_round_trip_ok,
        lint_errors,
        lint_warnings,
        obs_ok,
    };
    (report, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_passes_every_gate() {
        let (r, timeline) = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        assert!(
            r.obs_ok,
            "drift_ok={} gates={:?} expo={} flight={} lint_errors={}",
            r.drift_ok, r.drift_gates, r.expo_round_trip_ok, r.flight_round_trip_ok, r.lint_errors
        );
        assert!(r.ttft_samples > 0 && r.boundary_samples > 0);
        assert!(r.exposition.contains("serve_ttft_s"), "{}", r.exposition);
        assert!(r.flight.reason.starts_with("slo_breach"), "{}", r.flight.reason);
        assert!(timeline.contains("traceEvents"));
    }

    #[test]
    fn report_is_deterministic_up_to_the_flight_clock() {
        // Everything in the report derives from the virtual clock, so
        // two runs serialise byte-identically.
        let a = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        let b = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drift_gate_fails_on_undefined_ratio() {
        let empty = lm_trace::serve_drift_report(&[("ttft_mean_s", 0.0, 1.0)]);
        let (gates, ok) = gate_drift(&empty);
        assert!(!ok);
        assert!(gates.iter().any(|g| !g.ok && g.metric == "ttft_mean_s"));
    }
}
