//! The admission controller: turn a [`ServeConfig`] into a checked
//! [`ServePlan`] by consulting the analytic performance model and the KV
//! pool headroom.
//!
//! Slot count is chosen as the throughput argmax of the cost model:
//! because each decode step pays one shared layer fetch plus per-slot
//! terms, modelled tokens/s (`k / step(k)`) is non-decreasing in `k`, so
//! the argmax is the largest `k` the KV pool and the configured ceiling
//! admit. The resulting plan is linted by `lm-analyze`'s `LMA25x` family
//! before any request is served — an infeasible plan is a typed error
//! carrying the diagnostic report, the same contract as the engine's
//! strict pre-flight.

use crate::backend::ServeBackend;
use crate::slo::{DegradeLadder, SloPolicy};
use lm_analyze::{lint_paging, lint_serve, PagingProbe, Report, ServeProbe, SloProbe};
use lm_engine::EngineError;
use lm_fault::{FaultInjector, RetryPolicy};
use lm_parallelism::{analyze, attention_block_graph};
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the scheduler backs each slot's KV cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvMode {
    /// One contiguous worst-case lease per slot (`slot_context` tokens),
    /// acquired whole at admission. Simple, but pads every request to
    /// the envelope and rejects admissions the paged pool would accept.
    Slab,
    /// Block-granular pages from `lm-kvpool`: per-request page tables,
    /// prompt-prefix sharing across requests, copy-on-write forks on
    /// divergence. Admission reserves exactly the pages a request can
    /// touch, so decode never allocates.
    #[default]
    Paged,
}



/// Operator-facing serving knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worst-case-slab budget: in slab mode, the upper bound on
    /// concurrent sequences; in paged mode it only sizes the derived
    /// pool (`max_slots` worst-case leases), and the slot count comes
    /// from page residency instead.
    pub max_slots: usize,
    /// KV pool capacity in bytes; `0` derives `max_slots` worst-case
    /// leases so the configured ceiling is reachable.
    pub kv_pool_bytes: usize,
    /// Worst-case per-slot context length used to size leases and the
    /// plan; `0` derives a quarter of the model's context window (the
    /// traffic synthesizer's envelope).
    pub slot_context: usize,
    /// Head groups of the per-sequence attention graph (the Kahn-width
    /// bound input).
    pub head_groups: usize,
    /// KV backing for slots; paged is the default (DESIGN.md §14).
    pub kv_mode: KvMode,
    /// Tokens per KV page in paged mode; `0` derives the largest
    /// divisor of the planning context not exceeding 16, so pages
    /// always tile the KV block exactly (`LMA280`).
    pub page_tokens: usize,
    /// Retry budget for admissions that hit transient pool pressure.
    pub retry: RetryPolicy,
    /// Fault plan attached to the serve KV pool.
    pub fault: FaultInjector,
    /// Span/metrics recorder (TTFT, queue depth, slot occupancy, ...).
    pub tracer: Tracer,
    /// Optional TTFT objective; `None` keeps the pre-SLO behaviour
    /// (no prediction, no shedding, no preemption).
    pub slo: Option<SloPolicy>,
    /// Fallback ladder the scheduler climbs when the SLO monitor calls
    /// for degradation; `None` disables that actuator.
    pub ladder: Option<Arc<dyn DegradeLadder>>,
    /// Flight recorder teed into scheduler decisions and injected
    /// faults; frozen into a post-mortem dump on the first observed SLO
    /// breach (DESIGN.md §13). Disabled by default.
    pub flight: lm_trace::FlightRecorder,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_slots: 8,
            kv_pool_bytes: 0,
            slot_context: 0,
            head_groups: 7,
            kv_mode: KvMode::default(),
            page_tokens: 0,
            retry: RetryPolicy::none(),
            fault: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            slo: None,
            ladder: None,
            flight: lm_trace::FlightRecorder::disabled(),
        }
    }
}

/// The admission controller's output: how many sequences serve
/// concurrently and what that claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServePlan {
    /// Concurrent sequences (each holds one KV lease).
    pub slots: usize,
    /// Planning context length behind the lease sizing.
    pub slot_context: usize,
    /// Worst-case lease per slot, bytes.
    pub kv_bytes_per_slot: u64,
    /// Serve KV pool capacity, bytes.
    pub kv_pool_bytes: u64,
    /// Kahn width (max concurrency) of the `slots`-sequence block graph.
    pub kahn_width: u64,
    /// Modelled seconds per decode step with every slot at the planning
    /// context.
    pub est_step_seconds: f64,
    /// Modelled steady-state throughput, tokens/second.
    pub est_tokens_per_s: f64,
    /// KV backing the scheduler will use.
    pub kv_mode: KvMode,
    /// Tokens per KV page (tiles `slot_context` exactly in paged mode).
    pub page_tokens: u64,
    /// Bytes one page leases (`page_tokens · kv_bytes_at(1)`).
    pub page_bytes: u64,
    /// Pages the pool holds in total (`kv_pool_bytes / page_bytes`).
    pub pages_total: u64,
    /// Pages one worst-case slot maps (`slot_context / page_tokens`).
    pub pages_per_slot: u64,
}

impl ServePlan {
    /// The observation `lm-analyze`'s `LMA25x` lints judge. Slab mode
    /// reports the worst-case lease per slot; paged mode reports the
    /// *planned page residency* per sequence (half the envelope, the
    /// statistical bound admission banks on), because that — not the
    /// slab worst case — is what `slots` of them must fit in the pool.
    pub fn probe(&self) -> ServeProbe {
        let per_slot = match self.kv_mode {
            KvMode::Slab => self.kv_bytes_per_slot,
            KvMode::Paged => self.pages_per_slot.div_ceil(2).max(1) * self.page_bytes,
        };
        ServeProbe {
            slots: self.slots as u64,
            kv_bytes_per_slot: per_slot,
            kv_pool_bytes: self.kv_pool_bytes,
            block_size: self.slots as u64,
            kahn_width: self.kahn_width,
        }
    }

    /// The static half of the `LMA28x` observation: geometry only, with
    /// the runtime counters at their quiescent values. The scheduler
    /// fills the live counters from the pool at block boundaries.
    pub fn paging_probe(&self) -> PagingProbe {
        PagingProbe {
            page_tokens: self.page_tokens,
            page_bytes: self.page_bytes,
            bytes_per_token: self.page_bytes.checked_div(self.page_tokens).unwrap_or(0),
            kv_block_tokens: self.slot_context as u64,
            pages_total: self.pages_total,
            pages_in_use: 0,
            page_refcount_sum: 0,
            seq_mapped_pages: 0,
            shared_write_violations: 0,
        }
    }
}

/// Largest page size not exceeding 16 tokens that tiles `context`
/// exactly. 16 matches FlexGen's block granularity at the default
/// contexts (512 → 16, 128 → 16) and degrades to smaller divisors —
/// ultimately 1, which divides everything — for odd contexts.
fn derive_page_tokens(context: usize) -> usize {
    (1..=context.min(16))
        .rev()
        .find(|d| context % d == 0)
        .unwrap_or(1)
}

/// Sample the `LMA26x` lint observation for an SLO policy paired with a
/// plan: the floor is the cost model's one worst-case-padded group
/// prefill plus one full-occupancy decode step — the fastest any
/// admitted request can reach its first token under this plan.
pub fn slo_probe(
    plan: &ServePlan,
    backend: &dyn ServeBackend,
    slo: &SloPolicy,
    ladder: Option<&std::sync::Arc<dyn DegradeLadder>>,
) -> SloProbe {
    // A ladder is finite in practice; cap the census so a buggy
    // implementation cannot hang the pre-flight.
    let degrade_rungs = ladder.map_or(0, |l| {
        (1..=64).take_while(|&i| l.rung(i).is_some()).count() as u64
    });
    SloProbe {
        ttft_p99_slo_s: slo.ttft_p99_s,
        floor_ttft_s: backend.prefill_seconds(plan.slot_context, plan.slots)
            + plan.est_step_seconds,
        slots: plan.slots as u64,
        enforce: slo.enforce,
        preempt: slo.preempt,
        shed: slo.shed,
        degrade_rungs,
    }
}

/// Serving-layer failures.
#[derive(Debug)]
pub enum ServeError {
    /// The plan failed its `LMA25x` pre-flight; the report names each
    /// violation with stable codes.
    Plan(Report),
    /// The backend failed (engine construction, materialization).
    Engine(EngineError),
    /// A paged-KV sequence broke the admit/append protocol mid-decode
    /// (reserve exhausted, append past admitted capacity). Admission
    /// reservations make this unreachable; surfacing it as an error
    /// keeps the scheduler panic-free if the arithmetic ever regresses.
    KvProtocol(lm_kvpool::KvProtocolError),
    /// The requested serve mode cannot do what was asked: an invalid
    /// mode (`ServeMode::Static { batch: 0 }`), or a continuous-only
    /// accessor on a baseline run.
    Mode(String),
    /// An end-of-run conservation law failed: a request resolved other
    /// than exactly once, admissions did not balance, or paged-KV
    /// accounting did not return to quiescence. Checked once per run in
    /// every build.
    Conservation(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(report) => {
                write!(f, "serve plan rejected by pre-flight analysis:\n{report}")
            }
            ServeError::Engine(e) => write!(f, "backend error: {e}"),
            ServeError::KvProtocol(e) => write!(f, "paged-KV protocol violation: {e}"),
            ServeError::Mode(msg) => write!(f, "invalid serve mode: {msg}"),
            ServeError::Conservation(law) => write!(f, "serve conservation law broken: {law}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<lm_kvpool::KvProtocolError> for ServeError {
    fn from(e: lm_kvpool::KvProtocolError) -> Self {
        ServeError::KvProtocol(e)
    }
}

/// Derive the slot plan for `backend` under `cfg` and lint it, without
/// gating on the verdict. This is the planner's full arithmetic —
/// [`plan_admission`] is the gated wrapper serving uses; `lm-verify`
/// calls this directly so executable ground truth can be evaluated even
/// on configs the lints reject (the lint-incompleteness half of the
/// sweep needs the plan the lints said no to).
pub fn derive_plan(backend: &dyn ServeBackend, cfg: &ServeConfig) -> (ServePlan, Report) {
    let model = backend.model();
    let context = if cfg.slot_context > 0 {
        cfg.slot_context
    } else {
        ((model.max_seq_len / 4) as usize).max(2)
    };
    let per_slot = backend.kv_bytes_at(context).max(1);
    let pool_bytes = if cfg.kv_pool_bytes > 0 {
        cfg.kv_pool_bytes
    } else {
        cfg.max_slots.max(1) * per_slot
    };
    let page_tokens = if cfg.page_tokens > 0 {
        cfg.page_tokens
    } else {
        derive_page_tokens(context)
    };
    let page_bytes = page_tokens * backend.kv_bytes_at(1).max(1);
    let pages_per_slot = context.div_ceil(page_tokens.max(1));
    // Throughput argmax under the pool: the shared weight stream makes
    // k/step(k) non-decreasing, so take the largest feasible k (and let
    // the lint reject a pool too small for even one).
    //
    // Slab mode must fit `k` whole worst-case leases, so the pool bound
    // is `pool / per_slot`, capped by the configured ceiling. Paged mode
    // reasons about *pages*: a sequence's residency tracks its actual
    // context — admission reserves `pages_for(prompt + gen)`, and the
    // traffic envelope fills the planning context about halfway on
    // average — so the same bytes multiplex roughly twice the sequences.
    // The tail where every resident sequence simultaneously nears the
    // envelope is absorbed by admission backpressure (a transiently full
    // page pool requeues the candidate; it never rejects it), which is
    // what makes the statistical bound safe to plan on.
    let by_pool = pool_bytes / per_slot;
    let slots = match cfg.kv_mode {
        KvMode::Slab => cfg.max_slots.min(by_pool.max(1)).max(1),
        KvMode::Paged => {
            let pages_total = (pool_bytes / page_bytes.max(1)).max(1);
            let expected_pages = pages_per_slot.div_ceil(2).max(1);
            (pages_total / expected_pages).max(1)
        }
    };
    let graph = attention_block_graph(
        1,
        slots as u64,
        context as u64,
        model.hidden,
        cfg.head_groups.max(1),
    );
    let kahn_width = analyze(&graph).map(|a| a.max_concurrency()).unwrap_or(0) as u64;
    let est_step_seconds = backend.decode_step_seconds(&vec![context as u64; slots]);
    let plan = ServePlan {
        slots,
        slot_context: context,
        kv_bytes_per_slot: per_slot as u64,
        kv_pool_bytes: pool_bytes as u64,
        kahn_width,
        est_step_seconds,
        est_tokens_per_s: if est_step_seconds > 0.0 {
            slots as f64 / est_step_seconds
        } else {
            0.0
        },
        kv_mode: cfg.kv_mode,
        page_tokens: page_tokens as u64,
        page_bytes: page_bytes as u64,
        pages_total: (pool_bytes / page_bytes.max(1)) as u64,
        pages_per_slot: pages_per_slot as u64,
    };
    let mut report = lint_serve(&plan.probe());
    if cfg.kv_mode == KvMode::Paged {
        report.extend(lint_paging(&plan.paging_probe()));
    }
    (plan, report)
}

/// Derive and lint the slot plan for `backend` under `cfg`, rejecting
/// on any `Error`-severity finding.
pub fn plan_admission(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
) -> Result<ServePlan, ServeError> {
    let (plan, report) = derive_plan(backend, cfg);
    if !report.is_clean() {
        return Err(ServeError::Plan(report));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use lm_analyze::LintCode;

    #[test]
    fn default_plan_is_clean_and_model_guided() {
        let b = AnalyticBackend::opt_30b();
        // Paged default: the same 8-slab pool admits 16 statistical
        // slots at the expected half-envelope page residency.
        let plan = plan_admission(&b, &ServeConfig::default()).unwrap();
        assert_eq!(plan.slots, 16);
        assert!(plan.est_step_seconds > 0.0);
        assert!(plan.est_tokens_per_s > 0.0);
        assert!(lint_serve(&plan.probe()).is_clean());
        // Slab mode keeps the worst-case-lease arithmetic: one slot per
        // full-context slab.
        let slab = plan_admission(
            &b,
            &ServeConfig {
                kv_mode: KvMode::Slab,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(slab.slots, 8);
        assert!(slab.kahn_width >= slab.slots as u64);
        assert!(lint_serve(&slab.probe()).is_clean());
    }

    #[test]
    fn pool_bound_caps_slots_below_ceiling() {
        let b = AnalyticBackend::opt_30b();
        let per_slot = {
            let p = plan_admission(&b, &ServeConfig::default()).unwrap();
            p.kv_bytes_per_slot as usize
        };
        let cfg = ServeConfig {
            kv_pool_bytes: 3 * per_slot + per_slot / 2,
            kv_mode: KvMode::Slab,
            ..ServeConfig::default()
        };
        let plan = plan_admission(&b, &cfg).unwrap();
        assert_eq!(plan.slots, 3, "pool fits exactly three leases");
        // The same 3.5-slab pool repacked into pages: 112 pages over an
        // expected residency of 16 pages per sequence admits 7.
        let paged = plan_admission(
            &b,
            &ServeConfig {
                kv_pool_bytes: 3 * per_slot + per_slot / 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(paged.slots, 7, "page residency outpacks worst-case slabs");
    }

    #[test]
    fn pool_too_small_for_one_slot_is_rejected_with_lma250() {
        let b = AnalyticBackend::opt_30b();
        let cfg = ServeConfig {
            kv_pool_bytes: 1024, // far below one lease
            ..ServeConfig::default()
        };
        match plan_admission(&b, &cfg) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma250SlotsExceedPool), "{report}")
            }
            other => panic!("expected plan rejection, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn default_plan_page_geometry_tiles_the_block() {
        let b = AnalyticBackend::opt_30b();
        let plan = plan_admission(&b, &ServeConfig::default()).unwrap();
        assert_eq!(plan.kv_mode, KvMode::Paged);
        assert_eq!(plan.page_tokens, 16, "512-token context derives 16-token pages");
        assert_eq!(plan.slot_context as u64 % plan.page_tokens, 0);
        assert_eq!(
            plan.page_bytes * plan.pages_per_slot,
            plan.kv_bytes_per_slot,
            "pages tile the worst-case slab exactly"
        );
        // The plan over-subscribes slots against worst-case envelopes
        // (that is the point of paging); what it must guarantee is the
        // *expected* residency — half the per-slot envelope per slot —
        // with scheduler backpressure absorbing the tail.
        assert!(
            plan.pages_total >= plan.pages_per_slot.div_ceil(2) * plan.slots as u64,
            "paged pool holds the expected residency: {} vs {}",
            plan.pages_total,
            plan.pages_per_slot.div_ceil(2) * plan.slots as u64
        );
        assert!(lint_paging(&plan.paging_probe()).is_clean());
    }

    #[test]
    fn odd_context_derives_a_dividing_page_size() {
        assert_eq!(derive_page_tokens(512), 16);
        assert_eq!(derive_page_tokens(128), 16);
        assert_eq!(derive_page_tokens(100), 10);
        assert_eq!(derive_page_tokens(7), 7);
        assert_eq!(derive_page_tokens(13), 13);
        assert_eq!(derive_page_tokens(17), 1, "primes above 16 fall back to 1");
    }

    #[test]
    fn explicit_non_dividing_page_size_rejected_with_lma280() {
        let b = AnalyticBackend::opt_30b();
        let cfg = ServeConfig {
            page_tokens: 11, // 512 % 11 != 0
            ..ServeConfig::default()
        };
        match plan_admission(&b, &cfg) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma280PageGeometryInvalid), "{report}")
            }
            other => panic!("expected plan rejection, got ok={}", other.is_ok()),
        }
        // The same misconfiguration is ignored in slab mode: no pages.
        let slab = ServeConfig {
            kv_mode: KvMode::Slab,
            page_tokens: 11,
            ..ServeConfig::default()
        };
        assert!(plan_admission(&b, &slab).is_ok());
    }

    #[test]
    fn bigger_blocks_estimate_higher_throughput() {
        let b = AnalyticBackend::opt_30b();
        let one = plan_admission(
            &b,
            &ServeConfig {
                max_slots: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let eight = plan_admission(&b, &ServeConfig::default()).unwrap();
        assert!(
            eight.est_tokens_per_s > one.est_tokens_per_s * 2.0,
            "amortised weights must show up in the estimate: {} vs {}",
            eight.est_tokens_per_s,
            one.est_tokens_per_s
        );
    }
}
