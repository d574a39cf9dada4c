//! # lm-serve
//!
//! A deterministic continuous-batching serving layer over the offloading
//! engine (DESIGN.md §11): independent, ragged-length requests are
//! admitted into the zig-zag block schedule so the per-layer weight
//! stream — the dominant cost of offloaded generation (Eq. 2) — is
//! amortised across whoever is active, instead of being re-paid per
//! request.
//!
//! Pieces:
//!
//! - [`request`]: the [`Request`]/[`Response`] vocabulary (priority,
//!   deadline, seed), typed [`Rejection`]s, the virtual-clock
//!   [`ArrivalQueue`], and the seeded [`synth_traffic`] generator;
//! - [`backend`]: the [`ServeBackend`] substrate split — tokens are a
//!   deterministic function of the request alone (proved by the zig-zag
//!   equivalence tests), timing comes from the analytic cost model —
//!   with [`AnalyticBackend`] (OPT-30B-class) and [`EngineBackend`]
//!   (real miniature engine) implementations;
//! - [`admission`]: the model-guided admission controller producing an
//!   `LMA25x`-linted [`ServePlan`] (slots vs KV pool headroom vs the
//!   block graph's Kahn width);
//! - [`scheduler`]: the phase-structured continuous scheduler core and
//!   its two baselines; the core is driven through a crate-private
//!   clock/transport split (`driver`);
//! - [`session`]: the serve API — [`ServeSession`], one builder over
//!   backend, mode and [`ServeConfig`] (SLO policy, fault plan,
//!   observability sinks), with the virtual-clock runs and the
//!   real-time front end [`ServeSession::run_async`]: wall-clock pacing
//!   ([`AsyncConfig::time_scale`]), per-request bounded tokio token
//!   channels, disconnect-on-drop, and `LMA30x` pre-flight;
//! - [`slo`]: the overload-protection layer (DESIGN.md §12) — the
//!   [`SloPolicy`] objective, the model-driven [`TtftModel`] predictor,
//!   and the [`DegradeLadder`] the scheduler climbs when preemption
//!   alone cannot hold the objective. Cancellation
//!   ([`CancelToken`] → terminal [`Cancellation`]) and slot crashes
//!   reclaim KV leases mid-generation; chaos storms drive all of it
//!   deterministically;
//! - [`obs`]: serve-path observability (DESIGN.md §13) — the per-request
//!   lifecycle record and per-boundary samples collected into
//!   [`ServeObs`], the predicted-vs-observed drift audit
//!   ([`ServeObs::audit`]), and the Perfetto serve timeline
//!   ([`serve_timeline`], one track per slot).
//!
//! Everything runs on a virtual clock in integer microseconds; a serving
//! run is a pure function of `(requests, backend, config)` — identical
//! across runs and machines, which is what makes the `repro serve`
//! experiment reproducible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod admission;
pub mod backend;
mod driver;
pub mod obs;
pub mod request;
pub mod scheduler;
pub mod session;
pub mod slo;

pub use admission::{
    derive_plan, plan_admission, slo_probe, KvMode, ServeConfig, ServeError, ServePlan,
};
pub use obs::{
    obs_probe, serve_timeline, BoundaryObs, LifecycleEvent, RequestPhase, ServeObs, TtftSample,
};
pub use backend::{AnalyticBackend, EngineBackend, ServeBackend};
pub use request::{
    synth_shared_prefix_traffic, synth_traffic, ArrivalQueue, CancelReason, CancelToken,
    Cancellation, RejectReason, Rejection, Request, Response,
};
pub use scheduler::{ServeOutcome, ServeStats, TokenEvent};
pub use session::{AsyncConfig, ServeMode, ServeRun, ServeSession, TokenStreams};
pub use slo::{DegradeLadder, DegradeRung, SloPolicy, StaticLadder, TtftModel};
