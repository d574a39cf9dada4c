//! The deterministic continuous-batching scheduler, plus the two
//! baselines it is measured against (sequential one-call-per-request and
//! naive static batching).
//!
//! Determinism contract: the scheduler runs on a virtual clock (u64
//! microseconds) advanced only by the backend's modelled task costs.
//! Admission order is a total order — `(priority desc, arrival asc, id
//! asc)` — and every block boundary runs the same phases in the same
//! order (see `Scheduler`), so a run is a pure function of
//! `(requests, backend, config)`: byte-identical outcomes across runs
//! and machines.
//!
//! Slot lifecycle: a request is admitted at a block boundary when a slot
//! is free and its KV backing is granted by the serve pool — in paged
//! mode (the default, DESIGN.md §14) a page table from the shared
//! [`PagedKvPool`] covering exactly the tokens it can touch, with prompt
//! prefixes mapped copy-on-write onto pages other requests already hold;
//! in slab mode one contiguous lease sized for the padded worst case.
//! Transient grant failures retry under the configured `lm-fault`
//! policy, then defer to the next boundary while other sequences still
//! hold KV. Each decode step delivers one token to every active slot
//! (streamed through the driver) and, in paged mode, appends it to the
//! slot's page table (forking a shared page on first divergent write); a
//! finished sequence drops its KV at the boundary, and the freed bytes
//! admit the next queued request.
//!
//! Overload protection (DESIGN.md §12): every boundary also sweeps slot
//! fates — explicit cancels and injected client disconnects resolve as
//! terminal [`Cancellation`]s with the KV lease reclaimed on the spot;
//! injected slot crashes re-queue the request, which later *resumes from
//! its generated prefix* (token streams are deterministic, so the cached
//! prefix is exact and nothing is re-emitted — only the prefix re-prefill
//! is re-paid). When a [`SloPolicy`](crate::SloPolicy) is configured, a
//! per-boundary monitor predicts p99 TTFT over the wait queue with
//! [`TtftModel`] and, under enforcement, preempts the lowest-priority
//! slot, sheds doomed admissions, or climbs the degrade ladder. Every
//! request resolves exactly once: response, rejection, or cancellation.

use crate::admission::{KvMode, ServeConfig, ServeError, ServePlan};
use crate::backend::ServeBackend;
use crate::driver::{Delivery, ServeDriver};
use crate::obs::{BoundaryObs, LifecycleEvent, RequestPhase, ServeObs, TtftSample};
use crate::request::{
    micros, ArrivalQueue, CancelReason, Cancellation, RejectReason, Rejection, Request, Response,
};
use crate::slo::TtftModel;
use lm_engine::{validate_request, EngineError, Lease, MemPool, PoolExhausted};
use lm_fault::RetryError;
use lm_kvpool::{PageConfig, PagedKvPool, SeqKv};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One streamed token, delivered as it is generated (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    pub request_id: u64,
    /// 0-based index of this token within the request's generation.
    pub index: usize,
    pub token: u32,
    pub t_us: u64,
}

/// Admission-lifecycle accounting for one continuous run. Admissions
/// count *events*, not requests: a request that crashes and resumes is
/// admitted more than once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Slot admissions granted (including re-admissions after crash or
    /// preemption).
    pub admitted: u64,
    /// Admissions that ran to a finished [`Response`].
    pub completed: u64,
    /// Admissions ended by cancellation (explicit or disconnect) while
    /// holding a slot.
    pub cancelled_in_slot: u64,
    /// Admissions evicted by the SLO monitor (later re-admitted).
    pub preemptions: u64,
    /// Admissions ended by an injected slot crash (later re-admitted).
    pub slot_crashes: u64,
    /// Requests shed at admission with `WouldMissDeadline`.
    pub shed: u64,
    /// Degrade-ladder rungs climbed.
    pub degradations: u64,
    /// Boundaries where the predicted p99 TTFT exceeded the SLO.
    pub predicted_violations: u64,
}

impl ServeStats {
    /// Conservation law: every admission ends in exactly one of
    /// completion, in-slot cancellation, preemption, or slot crash.
    pub fn admissions_balanced(&self) -> bool {
        self.admitted
            == self.completed + self.cancelled_in_slot + self.preemptions + self.slot_crashes
    }
}

/// What one serving run produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeOutcome {
    pub responses: Vec<Response>,
    pub rejections: Vec<Rejection>,
    /// Requests that resolved by cancellation (explicit or injected
    /// disconnect) — the third terminal state.
    pub cancellations: Vec<Cancellation>,
    /// Virtual end-to-end duration, seconds.
    pub sim_seconds: f64,
    /// Real (non-padding) tokens generated.
    pub generated_tokens: u64,
    /// Padding tokens charged (prompt padding inside admitted groups;
    /// for the static baseline also generation padding to the batch max).
    pub padding_tokens: u64,
    /// High-water mark of the serve KV pool, bytes (0 for baselines that
    /// do not lease).
    pub kv_peak_bytes: usize,
    /// Serve-pool bytes still held when the run ended. The RAII-lease
    /// invariant demands this is always zero; the chaos harness fails
    /// the run otherwise.
    pub kv_leaked_bytes: usize,
    /// Deadline misses: for the continuous scheduler, deadline-reason
    /// rejections (expired in queue, or shed as unmeetable); the
    /// baselines *report* (without enforcing) requests whose service
    /// started past their deadline, keeping `results/serve.json`
    /// comparisons apples-to-apples.
    pub deadline_misses: u64,
    /// Admission-lifecycle accounting (continuous scheduler only;
    /// baselines leave it default).
    pub stats: ServeStats,
    /// High-water mark of mapped pages in the paged KV pool (0 in slab
    /// mode and for the baselines).
    pub kv_pages_peak: u64,
    /// Pages still mapped when the run ended; the page-table RAII
    /// invariant demands zero, and the chaos harness gates on it
    /// independently of `kv_leaked_bytes`.
    pub kv_pages_leaked: u64,
    /// Admissions that mapped at least one already-resident page
    /// (prompt-prefix sharing).
    pub shared_prefix_hits: u64,
    /// Prompt tokens whose KV was already resident at admission — the
    /// prefill work sharing skipped.
    pub shared_tokens: u64,
    /// Copy-on-write forks taken when a shared page saw its first
    /// divergent write.
    pub cow_forks: u64,
    /// Observability record (DESIGN.md §13): request lifecycle events,
    /// per-boundary state samples, and TTFT prediction audit pairs.
    /// Pure virtual-clock data, so it is as replay-deterministic as the
    /// rest of the outcome. Baselines leave it empty.
    pub obs: ServeObs,
}

impl ServeOutcome {
    /// Real tokens per virtual second.
    pub fn tokens_per_s(&self) -> f64 {
        if self.sim_seconds > 0.0 {
            self.generated_tokens as f64 / self.sim_seconds
        } else {
            0.0
        }
    }

    /// How many requests reached a terminal state (each exactly once).
    pub fn terminal_count(&self) -> usize {
        self.responses.len() + self.rejections.len() + self.cancellations.len()
    }

    /// Close a run that ended at `clock_us`: terminal records in id order.
    fn closed_at(mut self, clock_us: u64) -> Self {
        self.responses.sort_by_key(|r| r.id);
        self.rejections.sort_by_key(|r| r.id);
        self.cancellations.sort_by_key(|c| c.id);
        self.sim_seconds = clock_us as f64 / 1e6;
        self
    }
}

/// Record the virtual interval `from_us..to_us` in histogram `name`, in
/// seconds; returns its length in microseconds.
fn record_interval(tracer: &lm_trace::Tracer, name: &str, from_us: u64, to_us: u64) -> u64 {
    let us = to_us.saturating_sub(from_us);
    tracer.histogram_record(name, us as f64 / 1e6);
    us
}

/// A request waiting — or, after a crash/preemption, *re*-waiting — for
/// a slot.
struct Pending {
    req: Request,
    /// Cached token stream from a previous admission. Tokens are a
    /// deterministic function of the request alone, so the cache is
    /// exact: resumption continues the same stream without re-emitting.
    tokens: Option<Vec<u32>>,
    /// Tokens already streamed to the client before the interruption.
    emitted: usize,
    first_token_us: Option<u64>,
    /// Crash ordinal; keys the next admission's crash draw so retries
    /// see fresh randomness.
    crashes: u32,
}

impl Pending {
    fn fresh(req: Request) -> Self {
        Pending {
            req,
            tokens: None,
            emitted: 0,
            first_token_us: None,
            crashes: 0,
        }
    }

    /// Prompt length a re-admission pays prefill for: the original
    /// prompt plus the already-generated prefix.
    fn effective_prompt_len(&self) -> usize {
        self.req.prompt.len() + self.emitted
    }
}

/// An admitted sequence holding a slot.
struct Slot {
    req: Request,
    tokens: Vec<u32>,
    emitted: usize,
    /// Current sequence length (padded prompt + emitted tokens).
    context: u64,
    first_token_us: Option<u64>,
    /// Token ordinal at which this admission's injected client
    /// disconnect lands (checked at every boundary), if one was drawn.
    disconnect_at: Option<usize>,
    /// Token ordinal at which this admission's injected slot crash
    /// lands, if one was drawn.
    crash_at: Option<usize>,
    crashes: u32,
    /// Stable slot index for the serve timeline: the smallest index free
    /// at admission, returned to the pool when the residency ends.
    slot_idx: u32,
    kv: SlotKv,
}

/// KV backing one slot holds. Both variants reclaim their bytes on drop
/// (RAII), so every slot exit — retire, cancel, crash, preemption —
/// returns its KV without a dedicated release path.
enum SlotKv {
    /// Contiguous worst-case lease, held only for its drop.
    Slab(#[allow(dead_code)] Lease),
    /// Per-request page table; decode appends tokens into it.
    Paged(SeqKv),
}

impl Slot {
    fn remaining(&self) -> u64 {
        (self.tokens.len() - self.emitted) as u64
    }
}

/// Total admission order: priority desc, then arrival asc, then id asc.
///
/// With `edf` set (paged mode), queued requests still waiting on their
/// admission deadline jump the queue in earliest-deadline-first order.
/// Slab mode cannot afford this: its admission pads the whole group to
/// the longest prompt, so pulling a long deadline-holder forward
/// inflates every peer's envelope. Paged admission prices each request
/// by its exact page demand, which makes deadline-first ordering free.
fn admission_order(ready: &mut [Pending], edf: bool) {
    let deadline_key = |p: &Pending| {
        // Once a request has streamed a token its admission deadline is
        // satisfied; only fresh deadline-holders are under the clock.
        if edf && p.emitted == 0 {
            p.req.deadline_us.unwrap_or(u64::MAX)
        } else {
            u64::MAX
        }
    };
    ready.sort_by(|a, b| {
        deadline_key(a)
            .cmp(&deadline_key(b))
            .then(b.req.priority.cmp(&a.req.priority))
            .then(a.req.arrival_us.cmp(&b.req.arrival_us))
            .then(a.req.id.cmp(&b.req.id))
    });
}

/// Validate `req` against the backend's model and generate its token
/// stream: the admission step all three serve modes share.
fn materialize(backend: &dyn ServeBackend, req: &Request) -> Result<Vec<u32>, RejectReason> {
    if let Err(EngineError::InvalidRequest { reason }) = validate_request(
        backend.model(),
        std::slice::from_ref(&req.prompt),
        req.gen_len,
        1,
    ) {
        return Err(RejectReason::Invalid(reason));
    }
    backend
        .materialize(req)
        .map_err(|e| RejectReason::AdmissionFailed(e.to_string()))
}

/// One boundary's admission round: the padding envelope (slab mode),
/// the longest span of unshared known tokens (what paged prefill pays
/// for), and the slots granted so far.
#[derive(Default)]
struct Round {
    pad_len: usize,
    prefill_span: usize,
    admitted: Vec<Slot>,
}

/// The continuous-batching core, parameterized over the clock/transport
/// [`ServeDriver`] (DESIGN.md §16). With the virtual driver `pace` is the
/// identity and every delivery succeeds, so outcomes are a pure function
/// of `(requests, backend, config)`. A real-time driver may stretch the
/// clock (wall jitter feeds the same deadline/SLO machinery) and may
/// report a token undeliverable, which resolves at the next boundary
/// through the client-disconnect vocabulary.
///
/// [`Scheduler::run`] drives one method per boundary phase, always in
/// this order: [`arrivals`](Self::arrivals) →
/// [`sweep_slots`](Self::sweep_slots) → [`sweep_queue`](Self::sweep_queue)
/// → [`audit_ttft`](Self::audit_ttft) → [`monitor_slo`](Self::monitor_slo)
/// → [`shed`](Self::shed) → [`admit`](Self::admit) →
/// [`sample_boundary`](Self::sample_boundary) →
/// [`decode_step`](Self::decode_step) → [`retire`](Self::retire), and
/// [`finish`](Self::finish) once every request has resolved.
pub(crate) struct Scheduler<'a> {
    backend: &'a dyn ServeBackend,
    cfg: &'a ServeConfig,
    driver: &'a mut dyn ServeDriver,
    plan: ServePlan,
    pool: Arc<MemPool>,
    /// Paged mode layers the block-granular allocator over the same
    /// MemPool, so byte accounting (peak, leak detection, injected
    /// pressure) stays unified across modes.
    paged: Option<Arc<PagedKvPool>>,
    /// Requests submitted; the finish phase checks each resolved once.
    total: usize,
    queue: ArrivalQueue,
    ready: Vec<Pending>,
    active: Vec<Slot>,
    clock_us: u64,
    /// One-way degrade ratchet driven by the SLO monitor.
    degrade_factor: f64,
    degrade_level: usize,
    /// Boundary ordinal, keying the per-step stall draw.
    boundary: u64,
    /// Predicted TTFT (relative to arrival, µs) sampled once per request
    /// the first time it is seen in the wait queue.
    predicted_ttft: BTreeMap<u64, u64>,
    /// Requests whose transport failed a delivery (receiver dropped, or
    /// backpressure grace exhausted); resolved as client disconnects at
    /// the next boundary sweep. Always empty under the virtual driver.
    transport_drops: BTreeMap<u64, Delivery>,
    /// Free stable slot indices for the timeline, ordered so `pop`
    /// yields the smallest.
    free_slot_ids: Vec<u32>,
    /// Terminal records, counters and the observability record,
    /// accumulated as the run goes; [`Self::finish`] fills in the rest.
    out: ServeOutcome,
}

impl<'a> Scheduler<'a> {
    /// Plan admission (`LMA25x`-linted) and, with an SLO policy, run the
    /// `LMA26x` pre-flight: an unmeetable or actuator-less policy is a
    /// typed error before any request is served.
    pub(crate) fn new(
        backend: &'a dyn ServeBackend,
        cfg: &'a ServeConfig,
        requests: Vec<Request>,
        driver: &'a mut dyn ServeDriver,
    ) -> Result<Self, ServeError> {
        let plan = crate::admission::plan_admission(backend, cfg)?;
        if let Some(slo) = cfg.slo.as_ref() {
            let probe = crate::admission::slo_probe(&plan, backend, slo, cfg.ladder.as_ref());
            let report = lm_analyze::lint_slo(&probe);
            if !report.is_clean() {
                return Err(ServeError::Plan(report));
            }
        }
        if cfg.flight.is_enabled() {
            // Tee injected faults into the same ring as scheduler decisions.
            cfg.fault.set_flight(cfg.flight.clone());
        }
        let pool = MemPool::new("serve.kv", plan.kv_pool_bytes as usize);
        pool.attach_fault(cfg.fault.clone());
        let paged = (plan.kv_mode == KvMode::Paged).then(|| {
            PagedKvPool::new(
                pool.clone(),
                PageConfig {
                    page_tokens: plan.page_tokens as usize,
                    bytes_per_token: (plan.page_bytes / plan.page_tokens.max(1)) as usize,
                },
            )
        });
        Ok(Scheduler {
            backend,
            cfg,
            driver,
            free_slot_ids: (0..plan.slots as u32).rev().collect(),
            plan,
            pool,
            paged,
            total: requests.len(),
            queue: ArrivalQueue::new(requests),
            ready: Vec::new(),
            active: Vec::new(),
            clock_us: 0,
            degrade_factor: 1.0,
            degrade_level: 0,
            boundary: 0,
            predicted_ttft: BTreeMap::new(),
            transport_drops: BTreeMap::new(),
            out: ServeOutcome::default(),
        })
    }

    /// Serve every request to a terminal state.
    pub(crate) fn run(mut self) -> Result<(ServePlan, ServeOutcome), ServeError> {
        loop {
            self.arrivals();
            if self.active.is_empty() && self.ready.is_empty() {
                // Sample the idle gap so the occupancy integral covers
                // it; the terminal sample closes the last interval.
                let next = self.queue.next_arrival_us();
                self.sample_idle();
                match next {
                    Some(t) => {
                        self.clock_us = self.driver.pace(t);
                        continue;
                    }
                    None => break,
                }
            }
            self.sweep_slots();
            self.sweep_queue();
            admission_order(&mut self.ready, self.paged.is_some());
            self.audit_ttft();
            self.monitor_slo();
            self.shed();
            self.admit();
            self.sample_boundary();
            if self.active.is_empty() {
                // Everything at this boundary was rejected; wait for traffic.
                continue;
            }
            self.decode_step()?;
            self.retire();
        }
        self.finish()
    }

    /// Record an instantaneous lifecycle event at the current clock.
    fn event(&mut self, request: u64, slot: Option<u32>, phase: RequestPhase) {
        self.span((self.clock_us, 0), request, slot, phase);
    }

    /// Record a lifecycle event covering `(t_us, dur_us)`.
    fn span(&mut self, at: (u64, u64), request: u64, slot: Option<u32>, phase: RequestPhase) {
        let (t_us, dur_us) = at;
        self.out.obs.lifecycle.push(LifecycleEvent {
            t_us,
            dur_us,
            request,
            slot,
            phase,
        });
    }

    /// Record a scheduler decision in the flight ring; the label is only
    /// formatted when the recorder is on.
    fn note(&self, label: impl FnOnce() -> String) {
        if self.cfg.flight.is_enabled() {
            self.cfg.flight.record(self.clock_us, "sched", label());
        }
    }

    /// Resolve request `id` as a typed rejection. Deadline-reason
    /// rejections also count as deadline misses.
    fn reject(&mut self, id: u64, reason: RejectReason) {
        let tracer = &self.cfg.tracer;
        tracer.counter_add("serve.rejected", 1);
        if matches!(
            reason,
            RejectReason::DeadlineExpired { .. } | RejectReason::WouldMissDeadline { .. }
        ) {
            self.out.deadline_misses += 1;
            tracer.counter_add("serve.deadline_miss", 1);
        }
        self.event(id, None, RequestPhase::Shed);
        self.out.rejections.push(Rejection { id, reason });
        self.driver.retire(id);
    }

    /// Send an evicted slot back to the wait queue with its stream
    /// cached: an injected crash ([`RequestPhase::Crashed`], which keys
    /// the resumption's crash draw afresh) or a preemption
    /// ([`RequestPhase::Preempted`]). Its KV drops here.
    fn requeue(&mut self, slot: Slot, phase: RequestPhase) {
        let tracer = &self.cfg.tracer;
        let crashed = phase == RequestPhase::Crashed;
        if crashed {
            self.out.stats.slot_crashes += 1;
            tracer.counter_add("serve.slot_crashes", 1);
            tracer.counter_add("serve.crash_retries", 1);
        } else {
            self.out.stats.preemptions += 1;
            tracer.counter_add("serve.preemptions", 1);
            tracer.instant("serve.preempted", "serve");
        }
        self.event(slot.req.id, Some(slot.slot_idx), phase);
        self.event(slot.req.id, None, RequestPhase::Queued);
        self.free_slot_ids.push(slot.slot_idx);
        self.ready.push(Pending {
            req: slot.req,
            tokens: Some(slot.tokens),
            emitted: slot.emitted,
            first_token_us: slot.first_token_us,
            crashes: slot.crashes + u32::from(crashed),
        });
    }

    /// End an admitted request as a terminal cancellation (explicit, or
    /// the client went away), reclaiming its KV on the spot.
    fn end_in_slot(&mut self, slot: Slot, reason: CancelReason) {
        let tracer = &self.cfg.tracer;
        self.out.stats.cancelled_in_slot += 1;
        tracer.counter_add("serve.cancelled", 1);
        let what = match reason {
            CancelReason::Explicit => "cancel",
            CancelReason::ClientDisconnect => {
                tracer.counter_add("serve.disconnects", 1);
                "disconnect"
            }
        };
        let id = slot.req.id;
        self.event(id, Some(slot.slot_idx), RequestPhase::Cancelled);
        self.note(|| format!("{what} request={id} delivered={}", slot.emitted));
        self.free_slot_ids.push(slot.slot_idx);
        self.out.cancellations.push(Cancellation {
            id,
            reason,
            delivered: slot.emitted,
            cancel_us: self.clock_us,
        });
        self.driver.retire(id);
    }

    /// Index of the lowest-priority, least-invested active slot, limited
    /// to slots a waiter of priority `outranked_by` strictly outranks.
    fn least_invested(&self, outranked_by: Option<u8>) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, s)| outranked_by.map_or(true, |top| s.req.priority < top))
            .min_by_key(|(_, s)| (s.req.priority, s.emitted, std::cmp::Reverse(s.req.id)))
            .map(|(i, _)| i)
    }

    /// Snapshot the analytic TTFT predictor's inputs. Step time comes
    /// from the live contexts plus this boundary's admissions and
    /// prefill from the wait queue's padding envelope, both scaled by
    /// the current degrade factor — the same model that times the run
    /// predicts it.
    ///
    /// In paged mode the plan's slot count is only a ceiling: pages are
    /// the binding resource (DESIGN.md §14). The predictor therefore
    /// prices `free_slots` by walking the wait queue in admission order
    /// until the pool's free pages run out, and caps turnover
    /// concurrency at what the pool can hold at the *observed*
    /// per-sequence page residency.
    fn ttft_model(&self) -> TtftModel {
        let (plan, active, ready) = (&self.plan, &self.active, &self.ready);
        let mut remaining: Vec<u64> = active.iter().map(Slot::remaining).collect();
        remaining.sort_unstable();
        let queued_steps: u64 = ready
            .iter()
            .map(|p| p.req.gen_len.saturating_sub(p.emitted) as u64)
            .sum();
        let n = (remaining.len() + ready.len()).max(1);
        let mean_gen_steps = (remaining.iter().sum::<u64>() + queued_steps) as f64 / n as f64;
        let pad_guess = ready
            .iter()
            .map(Pending::effective_prompt_len)
            .max()
            .unwrap_or(1);
        let mut slots = plan.slots;
        let mut free = plan.slots.saturating_sub(active.len());
        if let Some(pp) = self.paged.as_ref() {
            // Immediate admissions: queue positions fit until free pages do.
            let mut pages_free = pp.capacity_pages().saturating_sub(pp.pages_in_use());
            let mut admissible = 0usize;
            for p in ready.iter().take(free) {
                let need = pp.required_pages(
                    p.effective_prompt_len(),
                    p.req.gen_len.saturating_sub(p.emitted),
                );
                if need > pages_free {
                    break;
                }
                pages_free -= need;
                admissible += 1;
            }
            free = admissible;
            // Turnover concurrency: observed residency when sequences are
            // resident, the plan's expected half-envelope otherwise.
            let mapped: usize = active
                .iter()
                .map(|s| match &s.kv {
                    SlotKv::Paged(seq) => seq.mapped_pages(),
                    SlotKv::Slab(_) => 0,
                })
                .sum();
            let per_seq = if active.is_empty() || mapped == 0 {
                (plan.pages_per_slot.div_ceil(2).max(1)) as usize
            } else {
                (mapped / active.len()).max(1)
            };
            slots = slots.min((pp.capacity_pages() / per_seq).max(1));
        }
        // Step quote from the same cost source the boundary charger uses.
        // The plan's `est_step_seconds` is a full-occupancy, full-context
        // envelope — fine for capacity planning, but as a TTFT term it
        // over-quotes every step of a partially filled block.
        let mut contexts: Vec<u64> = active.iter().map(|s| s.context).collect();
        for p in ready.iter().take(free) {
            contexts.push(p.effective_prompt_len() as u64 + 1);
        }
        let step_s = if contexts.is_empty() {
            plan.est_step_seconds
        } else {
            self.backend.decode_step_seconds(&contexts)
        };
        TtftModel {
            slots,
            free_slots: free,
            remaining_sorted: remaining,
            mean_gen_steps,
            prefill_s: self.backend.prefill_seconds(pad_guess, free.max(1)) * self.degrade_factor,
            step_s: step_s * self.degrade_factor,
        }
    }

    /// Phase: move every request that has arrived by now into the wait
    /// queue.
    fn arrivals(&mut self) {
        for req in self.queue.pop_arrived(self.clock_us) {
            self.span((req.arrival_us, 0), req.id, None, RequestPhase::Queued);
            self.ready.push(Pending::fresh(req));
        }
    }

    /// Phase: fates of running slots. Cancellation (explicit or
    /// disconnect, injected or from the transport) is terminal and
    /// reclaims the KV here; a crash re-queues the request to resume
    /// from its prefix. Disconnect outranks crash when both land on the
    /// same token.
    fn sweep_slots(&mut self) {
        for slot in std::mem::take(&mut self.active) {
            let id = slot.req.id;
            if slot.req.cancel.is_cancelled_at(self.clock_us) {
                self.end_in_slot(slot, CancelReason::Explicit);
            } else if slot.disconnect_at == Some(slot.emitted)
                || self.transport_drops.contains_key(&id)
            {
                if self.transport_drops.remove(&id) == Some(Delivery::Backpressured) {
                    let tracer = &self.cfg.tracer;
                    tracer.counter_add("serve.backpressure_disconnects", 1);
                }
                self.end_in_slot(slot, CancelReason::ClientDisconnect);
            } else if slot.crash_at == Some(slot.emitted) {
                self.note(|| format!("slot_crash request={id} emitted={}", slot.emitted));
                self.requeue(slot, RequestPhase::Crashed);
            } else {
                self.active.push(slot);
            }
        }
    }

    /// Phase: fates of queued requests. Explicit cancels are terminal
    /// wherever the request sits. A deadline only expires a request that
    /// never held a slot — once admitted, the admission deadline is
    /// satisfied and a resumed request keeps running.
    fn sweep_queue(&mut self) {
        let now = self.clock_us;
        for p in std::mem::take(&mut self.ready) {
            let id = p.req.id;
            if p.req.cancel.is_cancelled_at(now) {
                self.cfg.tracer.counter_add("serve.cancelled", 1);
                self.out.cancellations.push(Cancellation {
                    id,
                    reason: CancelReason::Explicit,
                    delivered: p.emitted,
                    cancel_us: now,
                });
                self.event(id, None, RequestPhase::Cancelled);
                self.driver.retire(id);
            } else if let Some(d) = p.req.deadline_us.filter(|&d| p.emitted == 0 && d < now) {
                self.cfg.tracer.instant("serve.deadline_expired", "serve");
                let reason = RejectReason::DeadlineExpired {
                    deadline_us: d,
                    now_us: now,
                };
                self.reject(id, reason);
            } else {
                self.ready.push(p);
            }
        }
    }

    /// Phase: the first boundary that sees a request in the wait queue
    /// asks the same [`TtftModel`] the SLO monitor uses what its
    /// first-token time will be; the observed value pairs with it at
    /// first emit.
    fn audit_ttft(&mut self) {
        if self
            .ready
            .iter()
            .all(|p| self.predicted_ttft.contains_key(&p.req.id))
        {
            return;
        }
        let model = self.ttft_model();
        for (pos, p) in self.ready.iter().enumerate() {
            self.predicted_ttft.entry(p.req.id).or_insert_with(|| {
                self.clock_us
                    .saturating_add(model.predict_rel_ttft_us(pos))
                    .saturating_sub(p.req.arrival_us)
            });
        }
    }

    /// Phase: predict p99 TTFT over the wait queue and, under an
    /// enforcing policy that predicts a violation, actuate — preempt
    /// first, else climb the degrade ladder.
    fn monitor_slo(&mut self) {
        let (cfg, tracer) = (self.cfg, &self.cfg.tracer);
        let Some(slo) = cfg.slo.as_ref() else { return };
        if self.ready.is_empty() {
            return;
        }
        let Some(p99) = self.ttft_model().predicted_p99_us(self.ready.len()) else {
            return;
        };
        tracer.gauge_set("serve.predicted_ttft_p99_s", p99 as f64 / 1e6);
        if p99 <= slo.ttft_p99_us() {
            return;
        }
        self.out.stats.predicted_violations += 1;
        tracer.counter_add("serve.slo_predicted_violations", 1);
        if slo.enforce && !(slo.preempt && self.preempt_for_slo(p99)) {
            self.climb_ladder();
        }
    }

    /// SLO actuator 1: evict the lowest-priority, least-invested slot —
    /// but only when slots are the bottleneck and the best waiter
    /// strictly outranks it (one per boundary). Returns whether it acted.
    fn preempt_for_slo(&mut self, p99: u64) -> bool {
        if self.active.len() != self.plan.slots {
            return false;
        }
        let Some(i) = self.least_invested(Some(self.ready[0].req.priority)) else {
            return false;
        };
        let slot = self.active.swap_remove(i);
        let (id, emitted) = (slot.req.id, slot.emitted);
        self.note(|| format!("preempt request={id} emitted={emitted} p99_us={p99}"));
        self.requeue(slot, RequestPhase::Preempted);
        admission_order(&mut self.ready, self.paged.is_some());
        true
    }

    /// SLO actuator 2: climb one rung of the model-guided fallback
    /// ladder (sticky for the rest of the run).
    fn climb_ladder(&mut self) {
        let (ladder, tracer) = (self.cfg.ladder.as_ref(), &self.cfg.tracer);
        let Some(rung) = ladder.and_then(|l| l.rung(self.degrade_level + 1)) else {
            return;
        };
        self.degrade_level += 1;
        let (level, factor) = (self.degrade_level, rung.step_time_factor.max(0.01));
        self.degrade_factor = self.degrade_factor.min(factor);
        self.out.stats.degradations += 1;
        tracer.counter_add("serve.degradations", 1);
        tracer.gauge_set("serve.degrade_level", level as f64);
        self.note(|| format!("degrade level={level} factor={}", self.degrade_factor));
    }

    /// Phase: under an enforcing, shedding policy, reject up front every
    /// fresh request whose predicted first token lands past its deadline
    /// (or the policy's slack). A request that already streamed tokens
    /// is never shed; each shed moves later requests up the queue.
    fn shed(&mut self) {
        let cfg = self.cfg;
        let Some(slo) = cfg.slo.as_ref().filter(|s| s.enforce && s.shed) else {
            return;
        };
        if self.ready.is_empty() {
            return;
        }
        let model = self.ttft_model();
        let mut pos = 0usize;
        for p in std::mem::take(&mut self.ready) {
            let predicted_us = self.clock_us.saturating_add(model.predict_rel_ttft_us(pos));
            let slack_us = p.req.arrival_us.saturating_add(micros(slo.shed_slack_s));
            let eff_deadline = p.req.deadline_us.map_or(slack_us, |d| d.min(slack_us));
            if p.emitted > 0 || predicted_us <= eff_deadline {
                self.ready.push(p);
                pos += 1;
                continue;
            }
            let id = p.req.id;
            self.out.stats.shed += 1;
            cfg.tracer.counter_add("serve.shed", 1);
            self.note(|| {
                format!("shed request={id} predicted_us={predicted_us} deadline_us={eff_deadline}")
            });
            let reason = RejectReason::WouldMissDeadline {
                deadline_us: eff_deadline,
                predicted_ttft_us: predicted_us,
            };
            self.reject(id, reason);
        }
    }

    /// Phase: fill free slots from the head of the wait queue, grant
    /// each its KV, and charge the admitted group's prefill.
    fn admit(&mut self) {
        // Smallest free timeline index is assigned first.
        self.free_slot_ids.sort_unstable_by(|a, b| b.cmp(a));
        let free = self.plan.slots.saturating_sub(self.active.len());
        let mut candidates: Vec<(Pending, Vec<u32>)> = Vec::new();
        while candidates.len() < free && !self.ready.is_empty() {
            let mut p = self.ready.remove(0);
            // A resume carries its cached stream; it was validated at
            // first admission.
            let tokens = p.tokens.take().map(Ok);
            match tokens.unwrap_or_else(|| materialize(self.backend, &p.req)) {
                Ok(tokens) => candidates.push((p, tokens)),
                Err(reason) => self.reject(p.req.id, reason),
            }
        }
        // Slab mode pads the group to its longest (effective) prompt and
        // leases the padded worst case so a slot never outgrows its
        // reservation. Paged mode reserves exactly the pages `known +
        // generation` can touch — no padding, and prompt prefixes
        // already resident in the pool are mapped instead of refilled.
        // A resume's effective prompt includes its generated prefix,
        // whose re-prefill is the (only) cost of resumption.
        let mut round = Round {
            pad_len: candidates
                .iter()
                .map(|(p, _)| p.effective_prompt_len())
                .max()
                .unwrap_or(0),
            ..Round::default()
        };
        for (p, tokens) in candidates {
            self.grant(&mut round, p, tokens);
        }
        self.prefill(round);
    }

    /// One attempt (with the configured retries) at a candidate's KV:
    /// pages for its `known` tokens in paged mode, a `bytes` slab
    /// otherwise.
    fn try_kv(
        &self,
        known: Option<&[u32]>,
        remaining: usize,
        bytes: usize,
    ) -> Result<SlotKv, RetryError<PoolExhausted>> {
        let cfg = self.cfg;
        let on_retry = |_: u32, _: &PoolExhausted| {
            cfg.fault.note_retry();
            cfg.tracer.counter_add("serve.admission_retries", 1);
        };
        match (self.paged.as_ref(), known) {
            (Some(pp), Some(known)) => cfg
                .retry
                .run(|_| pp.admit(known, remaining).map(SlotKv::Paged), on_retry),
            _ => cfg
                .retry
                .run(|_| self.pool.alloc(bytes).map(SlotKv::Slab), on_retry),
        }
    }

    /// Grant one candidate its KV and admit it into `round`; reject it
    /// if the grant can never succeed, or defer it to the next boundary.
    fn grant(&mut self, round: &mut Round, mut p: Pending, tokens: Vec<u32>) {
        let remaining = tokens.len() - p.emitted;
        let known: Option<Vec<u32>> = self.paged.is_some().then(|| {
            p.req
                .prompt
                .iter()
                .chain(&tokens[..p.emitted])
                .copied()
                .collect()
        });
        let demand_bytes = match (self.paged.as_ref(), known.as_ref()) {
            (Some(pp), Some(known)) => {
                pp.required_pages(known.len(), remaining) * pp.cfg().page_bytes()
            }
            _ => self.backend.kv_bytes_at(round.pad_len + remaining),
        };
        let mut grant = self.try_kv(known.as_deref(), remaining, demand_bytes);
        // Deadline rescue (paged only): a queued deadline-holder must not
        // starve behind residents that have no clock on them. Page
        // granularity makes partial eviction cheap, so reclaim pages from
        // the least-invested active slots until the grant fits. The
        // victim re-queues with its stream cached and resumes when pages
        // free up — its own admission deadline (if any) was satisfied the
        // moment it first held a slot, so nothing is lost but the
        // re-prefill of its generated prefix.
        if self.paged.is_some()
            && p.emitted == 0
            && p.req.deadline_us.is_some()
            && demand_bytes <= self.pool.capacity()
        {
            while grant.is_err() {
                let Some(i) = self.least_invested(None) else {
                    break;
                };
                let victim = self.active.swap_remove(i);
                self.note(|| {
                    format!(
                        "deadline-rescue preempt request={} pages for request={}",
                        victim.req.id, p.req.id
                    )
                });
                self.requeue(victim, RequestPhase::Preempted);
                grant = self.try_kv(known.as_deref(), remaining, demand_bytes);
            }
        }
        let kv = match grant {
            Ok(kv) => kv,
            Err(err) => {
                if demand_bytes > self.pool.capacity() {
                    // Unservable under this plan, ever.
                    let capacity = self.pool.capacity();
                    let reason = RejectReason::PoolOverCommit {
                        bytes: demand_bytes,
                        capacity,
                    };
                    self.reject(p.req.id, reason);
                } else if self.active.is_empty() && round.admitted.is_empty() {
                    // Nothing holds a lease, so waiting frees no bytes:
                    // the failure is not transient.
                    self.reject(p.req.id, RejectReason::AdmissionFailed(err.to_string()));
                } else {
                    // Defer to the next boundary; leases retire there.
                    self.cfg.tracer.counter_add("serve.deferred", 1);
                    p.tokens = Some(tokens);
                    self.ready.push(p);
                }
                return;
            }
        };
        let tracer = &self.cfg.tracer;
        let context = match &kv {
            // Exact residency: attention runs over the real sequence, and
            // no padding tokens are charged.
            SlotKv::Paged(seq) => {
                let shared = seq.shared_tokens();
                if shared > 0 {
                    tracer.counter_add("serve.shared_prefix_hits", 1);
                    tracer.counter_add("serve.shared_tokens", shared as u64);
                }
                round.prefill_span = round.prefill_span.max(p.effective_prompt_len() - shared);
                p.effective_prompt_len() as u64
            }
            SlotKv::Slab(_) => {
                let pad_tokens = (round.pad_len - p.effective_prompt_len()) as u64;
                self.out.padding_tokens += pad_tokens;
                tracer.counter_add("serve.padding_tokens", pad_tokens);
                round.prefill_span = round.pad_len;
                round.pad_len as u64
            }
        };
        tracer.counter_add("serve.admitted", 1);
        self.out.stats.admitted += 1;
        let slot_idx = self.free_slot_ids.pop().unwrap_or(0);
        let id = p.req.id;
        self.event(id, Some(slot_idx), RequestPhase::Admitted);
        self.note(|| format!("admit request={id} slot={slot_idx} lease_bytes={demand_bytes}"));
        // This admission's injected fates: both land at least one token
        // ahead, so every admission makes progress and crash-retries
        // terminate.
        let emitted = p.emitted;
        let fate = move |frac: f64| emitted + ((frac * remaining as f64).floor() as usize).max(1);
        let fault = &self.cfg.fault;
        let disconnect_at = fault.client_disconnect("serve.slot", id).map(fate);
        let crash_at = fault.slot_crash("serve.slot", id, p.crashes).map(fate);
        round.admitted.push(Slot {
            tokens,
            emitted,
            context,
            first_token_us: p.first_token_us,
            disconnect_at,
            crash_at,
            crashes: p.crashes,
            slot_idx,
            req: p.req,
            kv,
        });
    }

    /// Charge the admitted group's prefill and make it active. Paged mode
    /// prefills only unshared tokens (shared-prefix KV is already
    /// resident); slab mode pays the padded envelope.
    fn prefill(&mut self, round: Round) {
        if round.admitted.is_empty() {
            return;
        }
        let dt = self
            .backend
            .prefill_seconds(round.prefill_span.max(1), round.admitted.len())
            * self.degrade_factor;
        let at = (self.clock_us, micros(dt));
        self.clock_us += micros(dt);
        self.cfg.tracer.histogram_record("serve.prefill_s", dt);
        for slot in &round.admitted {
            self.span(at, slot.req.id, Some(slot.slot_idx), RequestPhase::Prefill);
        }
        self.active.extend(round.admitted);
    }

    /// Terminal or idle-gap state sample: nothing queued or resident.
    fn sample_idle(&mut self) {
        self.out.obs.boundaries.push(BoundaryObs {
            t_us: self.clock_us,
            pending_arrivals: self.queue.len(),
            slots: self.plan.slots,
            degrade_factor: self.degrade_factor,
            ..BoundaryObs::default()
        });
    }

    /// Phase: per-boundary state sample (post-admission, pre-decode):
    /// what the drift audit integrates and the timeline's counter
    /// tracks.
    fn sample_boundary(&mut self) {
        let tracer = &self.cfg.tracer;
        let (queued, active, slots) = (self.ready.len(), self.active.len(), self.plan.slots);
        tracer.gauge_set("serve.queue_depth", (queued + self.queue.len()) as f64);
        tracer.gauge_set("serve.slot_occupancy", active as f64 / slots.max(1) as f64);
        let predicted_ttft_p99_us = if queued == 0 {
            None
        } else {
            self.ttft_model().predicted_p99_us(queued)
        };
        let (pages_in_use, pages_demand) = self.paged.as_ref().map_or((0, 0), |pp| {
            let demand = self
                .active
                .iter()
                .map(|s| pp.required_pages(s.req.prompt.len(), s.req.gen_len) as u64)
                .sum();
            (pp.pages_in_use() as u64, demand)
        });
        self.out.obs.boundaries.push(BoundaryObs {
            t_us: self.clock_us,
            queued,
            pending_arrivals: self.queue.len(),
            active_slots: active,
            slots,
            pages_in_use,
            pages_demand,
            predicted_ttft_p99_us,
            degrade_factor: self.degrade_factor,
        });
    }

    /// Phase: one decode step over the whole block, streaming a token to
    /// every active slot.
    fn decode_step(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        let contexts: Vec<u64> = self.active.iter().map(|s| s.context).collect();
        let dt = self.backend.decode_step_seconds(&contexts) * self.degrade_factor;
        let step_start = self.clock_us;
        self.clock_us += micros(dt);
        cfg.tracer.histogram_record("serve.step_s", dt);
        // An injected transfer stall stretches this boundary (virtually).
        self.boundary += 1;
        if let Some(stall) = cfg.fault.transfer_stall("serve.step", self.boundary) {
            let stall_s = stall.as_secs_f64();
            self.clock_us += micros(stall_s);
            cfg.tracer.histogram_record("serve.stall_s", stall_s);
        }
        // A real-time driver blocks here until wall time catches the
        // modelled clock and may return a later value, so wall jitter
        // flows into step accounting, TTFT, and the deadline machinery.
        // The virtual driver is the identity.
        self.clock_us = self.driver.pace(self.clock_us);
        let step = (step_start, self.clock_us - step_start);
        let mut active = std::mem::take(&mut self.active);
        for slot in &mut active {
            self.emit(slot, step)?;
        }
        self.active = active;
        Ok(())
    }

    /// Deliver `slot`'s next token, decoded over `step`, and land its KV.
    fn emit(&mut self, slot: &mut Slot, step: (u64, u64)) -> Result<(), ServeError> {
        let (cfg, tracer) = (self.cfg, &self.cfg.tracer);
        let (id, clock_us) = (slot.req.id, self.clock_us);
        let token = slot.tokens[slot.emitted];
        let delivery = self.driver.deliver(TokenEvent {
            request_id: id,
            index: slot.emitted,
            token,
            t_us: clock_us,
        });
        if delivery != Delivery::Delivered {
            // Keep generating this step (the block already paid for it);
            // the next boundary sweep resolves the request as a client
            // disconnect.
            self.transport_drops.entry(id).or_insert(delivery);
        }
        // Land the token's KV in the slot's page table; a page still
        // shared with another sequence forks copy-on-write here.
        if let SlotKv::Paged(seq) = &mut slot.kv {
            seq.append(token)?;
        }
        slot.emitted += 1;
        slot.context += 1;
        self.out.generated_tokens += 1;
        tracer.counter_add("serve.tokens", 1);
        self.span(step, id, Some(slot.slot_idx), RequestPhase::Decode);
        if slot.first_token_us.is_some() {
            return Ok(());
        }
        slot.first_token_us = Some(clock_us);
        let observed_us = record_interval(tracer, "serve.ttft_s", slot.req.arrival_us, clock_us);
        if let Some(&predicted_us) = self.predicted_ttft.get(&id) {
            self.out.obs.ttft.push(TtftSample {
                request: id,
                predicted_us,
                observed_us,
            });
        }
        // A realized first token past the TTFT objective is the breach
        // the flight recorder freezes on.
        if let Some(slo) = cfg.slo.as_ref().filter(|_| cfg.flight.is_enabled()) {
            if observed_us > slo.ttft_p99_us() {
                cfg.flight.trigger(
                    &format!(
                        "slo_breach: request {id} ttft {:.6}s > objective {:.6}s",
                        observed_us as f64 / 1e6,
                        slo.ttft_p99_s
                    ),
                    clock_us,
                    tracer.snapshot().metrics,
                );
            }
        }
        Ok(())
    }

    /// Phase: retire finished sequences; their KV drops here.
    fn retire(&mut self) {
        let tracer = &self.cfg.tracer;
        for slot in std::mem::take(&mut self.active) {
            if slot.emitted < slot.tokens.len() {
                self.active.push(slot);
                continue;
            }
            let (id, arrival_us, clock_us) = (slot.req.id, slot.req.arrival_us, self.clock_us);
            self.out.stats.completed += 1;
            tracer.counter_add("serve.completed", 1);
            record_interval(tracer, "serve.latency_s", arrival_us, clock_us);
            self.event(id, Some(slot.slot_idx), RequestPhase::Done);
            self.free_slot_ids.push(slot.slot_idx);
            // A transport failure on the final step loses the race: the
            // stream is complete, so the request resolves as a response
            // (matching the virtual path, where the last token always
            // lands before any fate is swept).
            self.transport_drops.remove(&id);
            self.out.responses.push(Response {
                id,
                tokens: slot.tokens,
                arrival_us,
                first_token_us: slot.first_token_us.unwrap_or(clock_us),
                finish_us: clock_us,
            });
            self.driver.retire(id);
        }
    }

    /// Phase: check the end-of-run conservation laws and assemble the
    /// outcome. Every request resolved exactly once, every admission
    /// ended exactly once, and in paged mode refcounts, page residency
    /// and MemPool byte accounting are back at quiescence with no write
    /// ever landed on a shared page (the live `LMA28x` check).
    fn finish(self) -> Result<(ServePlan, ServeOutcome), ServeError> {
        let mut out = self.out;
        let violation = |law: String| Err(ServeError::Conservation(law));
        if out.terminal_count() != self.total {
            return violation(format!(
                "{} of {} requests reached a terminal state",
                out.terminal_count(),
                self.total
            ));
        }
        if !out.stats.admissions_balanced() {
            return violation(format!("admissions do not balance: {:?}", out.stats));
        }
        if let Some(pp) = self.paged.as_ref() {
            if !pp.accounting_balanced() {
                return violation("page/byte accounting diverged".to_string());
            }
            let (counters, paging) = (pp.counters(), pp.stats());
            let plan = &self.plan;
            let report = lm_analyze::lint_paging(&lm_analyze::PagingProbe {
                page_tokens: plan.page_tokens,
                page_bytes: plan.page_bytes,
                bytes_per_token: plan.page_bytes / plan.page_tokens.max(1),
                kv_block_tokens: plan.slot_context as u64,
                pages_total: plan.pages_total,
                pages_in_use: counters.pages_in_use,
                page_refcount_sum: counters.refcount_sum,
                seq_mapped_pages: counters.refcount_sum,
                shared_write_violations: paging.shared_write_violations,
            });
            if !report.is_clean() {
                return violation(format!("paging lints failed:\n{report}"));
            }
            out.kv_pages_peak = pp.peak_pages() as u64;
            out.kv_pages_leaked = pp.pages_in_use() as u64;
            out.shared_prefix_hits = paging.shared_hits;
            out.shared_tokens = paging.shared_tokens;
            out.cow_forks = paging.cow_forks;
        }
        out.kv_peak_bytes = self.pool.peak();
        out.kv_leaked_bytes = self.pool.used();
        Ok((self.plan, out.closed_at(self.clock_us)))
    }
}

/// Baseline 1: one call per request, in arrival order — each request
/// pays its own full weight stream (no amortisation at all).
///
/// The baselines are separate loops, not admission policies of
/// [`Scheduler`] run with one slot or a fixed group: sequential charges
/// token `i`'s decode at context `prompt + i + 1` where the core charges
/// the slot's pre-increment context `prompt + i`, static batching
/// charges every member the padded context for the group's longest
/// generation and releases responses together, and neither records
/// obs, admission stats or KV. Folding them into the core would change
/// the committed `results/serve.json` rows.
pub(crate) fn run_sequential(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    requests: Vec<Request>,
) -> Result<ServeOutcome, ServeError> {
    let tracer = &cfg.tracer;
    let mut queue: Vec<Request> = requests;
    queue.sort_by_key(|r| (r.arrival_us, r.id));
    let mut out = ServeOutcome::default();
    let mut clock_us = 0u64;
    for req in queue {
        clock_us = clock_us.max(req.arrival_us);
        // Report (never enforce) admission deadlines: service starting
        // past the deadline counts as a miss, keeping the baseline
        // comparable with the continuous scheduler's rejections.
        if req.deadline_us.is_some_and(|d| d < clock_us) {
            out.deadline_misses += 1;
            tracer.counter_add("serve.deadline_miss", 1);
        }
        let tokens = match materialize(backend, &req) {
            Ok(t) => t,
            Err(reason) => {
                out.rejections.push(Rejection { id: req.id, reason });
                continue;
            }
        };
        clock_us += micros(backend.prefill_seconds(req.prompt.len(), 1));
        let mut first_token_us = None;
        for i in 0..tokens.len() {
            clock_us += micros(backend.decode_step_seconds(&[(req.prompt.len() + i + 1) as u64]));
            if first_token_us.is_none() {
                first_token_us = Some(clock_us);
                record_interval(tracer, "serve.ttft_s", req.arrival_us, clock_us);
            }
            out.generated_tokens += 1;
        }
        record_interval(tracer, "serve.latency_s", req.arrival_us, clock_us);
        out.responses.push(Response {
            id: req.id,
            first_token_us: first_token_us.unwrap_or(clock_us),
            finish_us: clock_us,
            arrival_us: req.arrival_us,
            tokens,
        });
    }
    Ok(out.closed_at(clock_us))
}

/// Baseline 2: naive static batching — fixed groups of `batch` in
/// arrival order; a group waits for its last member to arrive, pads
/// prompts *and* generation lengths to the group max, and releases every
/// response only when the whole group finishes.
pub(crate) fn run_static(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    batch: usize,
    requests: Vec<Request>,
) -> Result<ServeOutcome, ServeError> {
    if batch == 0 {
        return Err(ServeError::Mode("static batching needs batch >= 1".into()));
    }
    let tracer = &cfg.tracer;
    let mut queue: Vec<Request> = requests;
    queue.sort_by_key(|r| (r.arrival_us, r.id));
    let mut out = ServeOutcome::default();
    let mut clock_us = 0u64;
    for chunk in queue.chunks(batch) {
        // The batch forms only when its last member has arrived.
        let formed = chunk.iter().map(|r| r.arrival_us).max().unwrap_or(0);
        clock_us = clock_us.max(formed);
        // Report (never enforce) deadlines that pass while the batch
        // waits to form — the static scheduler's signature failure mode.
        for req in chunk {
            if req.deadline_us.is_some_and(|d| d < clock_us) {
                out.deadline_misses += 1;
                tracer.counter_add("serve.deadline_miss", 1);
            }
        }
        let mut members: Vec<(&Request, Vec<u32>)> = Vec::new();
        for req in chunk {
            match materialize(backend, req) {
                Ok(t) => members.push((req, t)),
                Err(reason) => out.rejections.push(Rejection { id: req.id, reason }),
            }
        }
        if members.is_empty() {
            continue;
        }
        let pad_len = members.iter().map(|(r, _)| r.prompt.len()).max().unwrap_or(1);
        let max_gen = members.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        for (r, t) in &members {
            out.padding_tokens += (pad_len - r.prompt.len()) as u64 + (max_gen - t.len()) as u64;
        }
        clock_us += micros(backend.prefill_seconds(pad_len, members.len()));
        let mut firsts: Vec<Option<u64>> = vec![None; members.len()];
        for step in 0..max_gen {
            // Every slot pays every step at the padded context — the
            // naive part: finished sequences idle inside the batch.
            let contexts: Vec<u64> = vec![(pad_len + step + 1) as u64; members.len()];
            clock_us += micros(backend.decode_step_seconds(&contexts));
            for (m, (_, tokens)) in members.iter().enumerate() {
                if step < tokens.len() {
                    out.generated_tokens += 1;
                    if firsts[m].is_none() {
                        firsts[m] = Some(clock_us);
                    }
                }
            }
        }
        // Naive release: the whole batch returns together.
        for (m, (req, tokens)) in members.into_iter().enumerate() {
            let first = firsts[m].unwrap_or(clock_us);
            record_interval(tracer, "serve.ttft_s", req.arrival_us, first);
            record_interval(tracer, "serve.latency_s", req.arrival_us, clock_us);
            out.responses.push(Response {
                id: req.id,
                tokens,
                arrival_us: req.arrival_us,
                first_token_us: first,
                finish_us: clock_us,
            });
        }
    }
    Ok(out.closed_at(clock_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::request::synth_traffic;
    use crate::session::{ServeMode, ServeSession};

    fn traffic(n: usize) -> (AnalyticBackend, Vec<Request>) {
        let b = AnalyticBackend::opt_30b();
        let reqs = synth_traffic(7, 4.0, n, b.model());
        (b, reqs)
    }

    // The suite drives the scheduler through the ServeSession API.
    fn continuous(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
    ) -> Result<(ServePlan, ServeOutcome), ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .run(reqs)
            .map(|r| (r.plan.expect("continuous sessions plan"), r.outcome))
    }

    fn continuous_with(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
        on_token: &mut dyn FnMut(TokenEvent),
    ) -> Result<(ServePlan, ServeOutcome), ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .run_streaming(reqs, on_token)
            .map(|r| (r.plan.expect("continuous sessions plan"), r.outcome))
    }

    fn sequential(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
    ) -> Result<ServeOutcome, ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .mode(ServeMode::Sequential)
            .run(reqs)
            .map(|r| r.outcome)
    }

    fn static_batch(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        batch: usize,
        reqs: Vec<Request>,
    ) -> Result<ServeOutcome, ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .mode(ServeMode::Static { batch })
            .run(reqs)
            .map(|r| r.outcome)
    }

    #[test]
    fn every_request_is_answered_or_rejected() {
        let (b, reqs) = traffic(12);
        let n = reqs.len();
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), n);
        assert!(plan.slots >= 1);
        assert!(out.generated_tokens > 0);
        assert!(out.kv_peak_bytes > 0 && out.kv_peak_bytes <= plan.kv_pool_bytes as usize);
        for r in &out.responses {
            assert!(r.first_token_us >= r.arrival_us);
            assert!(r.finish_us >= r.first_token_us);
            assert!(!r.tokens.is_empty());
        }
    }

    #[test]
    fn continuous_run_is_deterministic() {
        let (b, reqs) = traffic(12);
        let (_, a) = continuous(&b, &ServeConfig::default(), reqs.clone()).unwrap();
        let (_, c) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(a.responses, c.responses);
        assert_eq!(a.rejections, c.rejections);
        assert_eq!(a.sim_seconds.to_bits(), c.sim_seconds.to_bits());
    }

    #[test]
    fn continuous_beats_sequential_and_static() {
        let (b, reqs) = traffic(24);
        let cfg = ServeConfig::default();
        let (plan, cont) = continuous(&b, &cfg, reqs.clone()).unwrap();
        let seq = sequential(&b, &cfg, reqs.clone()).unwrap();
        let stat = static_batch(&b, &cfg, plan.slots, reqs).unwrap();
        assert!(
            cont.tokens_per_s() >= 1.3 * seq.tokens_per_s(),
            "continuous {} vs sequential {}",
            cont.tokens_per_s(),
            seq.tokens_per_s()
        );
        assert!(
            cont.tokens_per_s() > stat.tokens_per_s(),
            "continuous {} vs static {}",
            cont.tokens_per_s(),
            stat.tokens_per_s()
        );
    }

    #[test]
    fn streaming_delivers_every_token_in_order() {
        let (b, reqs) = traffic(8);
        let mut events: Vec<TokenEvent> = Vec::new();
        let (_, out) =
            continuous_with(&b, &ServeConfig::default(), reqs, &mut |e| events.push(e))
                .unwrap();
        assert_eq!(events.len() as u64, out.generated_tokens);
        let mut t = 0;
        for e in &events {
            assert!(e.t_us >= t, "token times must be monotone");
            t = e.t_us;
        }
        for r in &out.responses {
            let streamed: Vec<u32> = events
                .iter()
                .filter(|e| e.request_id == r.id)
                .map(|e| e.token)
                .collect();
            assert_eq!(streamed, r.tokens, "stream must equal the response");
        }
    }

    #[test]
    fn malformed_and_expired_requests_are_typed_rejections() {
        let b = AnalyticBackend::opt_30b();
        let ok = Request::new(0, vec![1, 2, 3], 4);
        let empty = Request::new(1, vec![], 4);
        let too_long = Request::new(2, vec![1; 4000], 4000);
        // Arrives while the first block is mid-decode (OPT-30B steps take
        // virtual seconds), with a deadline already behind the clock by
        // the time the next boundary sweeps the queue.
        let expired = Request::new(3, vec![1, 2], 4)
            .with_arrival_us(1_000)
            .with_deadline_us(500);
        let late = Request::new(4, vec![1, 2], 4).with_arrival_us(5_000_000);
        let (_, out) = continuous(
            &b,
            &ServeConfig::default(),
            vec![ok, empty, too_long, expired, late],
        )
        .unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), 5);
        let reason = |id: u64| {
            out.rejections
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.reason.clone())
        };
        assert!(matches!(reason(1), Some(RejectReason::Invalid(_))));
        assert!(matches!(reason(2), Some(RejectReason::Invalid(_))));
        // Request 3's deadline passes while the first block decodes.
        assert!(matches!(
            reason(3),
            Some(RejectReason::DeadlineExpired { .. })
        ));
        assert!(out.responses.iter().any(|r| r.id == 0));
        assert!(out.responses.iter().any(|r| r.id == 4));
    }

    #[test]
    fn priorities_jump_the_queue() {
        let b = AnalyticBackend::opt_30b();
        // One slot, both requests present at t=0: the high-priority one
        // must be served first despite the larger id. Slab mode, where
        // `max_slots` is a hard concurrency ceiling — the paged planner
        // repacks the same budget into more page-residency slots.
        let lo = Request::new(0, vec![1, 2], 4).with_priority(0);
        let hi = Request::new(1, vec![3, 4], 4).with_priority(2);
        let cfg = ServeConfig {
            max_slots: 1,
            kv_mode: KvMode::Slab,
            ..ServeConfig::default()
        };
        let (_, out) = continuous(&b, &cfg, vec![lo, hi]).unwrap();
        let finish = |id: u64| {
            out.responses
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.finish_us)
                .unwrap_or(u64::MAX)
        };
        assert!(finish(1) < finish(0), "priority 2 must finish first");
    }

    #[test]
    fn explicit_cancel_is_terminal_and_reclaims_kv() {
        let b = AnalyticBackend::opt_30b();
        let token = crate::request::CancelToken::never();
        // Cancel lands mid-generation: OPT-30B virtual steps take
        // hundreds of ms, so t=2s (virtual) is well inside a 32-token
        // generation but after the first tokens.
        token.cancel_at_us(2_000_000);
        let cancelled = Request::new(0, vec![1, 2, 3], 32).with_cancel(token);
        let survivor = Request::new(1, vec![4, 5], 8);
        let (_, out) =
            continuous(&b, &ServeConfig::default(), vec![cancelled, survivor]).unwrap();
        assert_eq!(out.terminal_count(), 2);
        assert_eq!(out.cancellations.len(), 1);
        let c = &out.cancellations[0];
        assert_eq!(c.id, 0);
        assert_eq!(c.reason, crate::request::CancelReason::Explicit);
        assert!(c.cancel_us >= 2_000_000);
        assert_eq!(out.kv_leaked_bytes, 0, "lease must return on cancel");
        assert!(out.responses.iter().any(|r| r.id == 1));
        assert!(out.stats.admissions_balanced(), "{:?}", out.stats);
    }

    #[test]
    fn disconnect_storm_resolves_every_request_without_leaks() {
        use lm_fault::{FaultConfig, FaultInjector, StormProfile};
        let (b, reqs) = traffic(24);
        let n = reqs.len();
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(9, StormProfile::Disconnects)),
            ..ServeConfig::default()
        };
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(out.terminal_count(), n);
        assert!(
            !out.cancellations.is_empty(),
            "a 40% disconnect rate over 24 requests must cancel some"
        );
        assert_eq!(out.kv_leaked_bytes, 0);
        assert!(out.stats.admissions_balanced(), "{:?}", out.stats);
        for c in &out.cancellations {
            assert_eq!(c.reason, crate::request::CancelReason::ClientDisconnect);
        }
    }

    #[test]
    fn crash_survivors_resume_with_identical_token_streams() {
        use lm_fault::{FaultConfig, FaultInjector, StormProfile};
        let (b, reqs) = traffic(16);
        let calm = continuous(&b, &ServeConfig::default(), reqs.clone())
            .unwrap()
            .1;
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(4, StormProfile::Crashes)),
            ..ServeConfig::default()
        };
        let mut events: Vec<TokenEvent> = Vec::new();
        let (_, stormy) =
            continuous_with(&b, &cfg, reqs, &mut |e| events.push(e)).unwrap();
        assert!(stormy.stats.slot_crashes > 0, "30% crash rate must fire");
        assert_eq!(stormy.kv_leaked_bytes, 0);
        assert!(stormy.stats.admissions_balanced(), "{:?}", stormy.stats);
        // Completed-under-storm responses carry the exact same tokens as
        // the calm run — resumption re-pays prefill, never re-emits.
        for r in &stormy.responses {
            let calm_r = calm.responses.iter().find(|c| c.id == r.id).unwrap();
            assert_eq!(r.tokens, calm_r.tokens, "request {}", r.id);
            let streamed: Vec<u32> = events
                .iter()
                .filter(|e| e.request_id == r.id)
                .map(|e| e.token)
                .collect();
            assert_eq!(streamed, r.tokens, "stream must not duplicate tokens");
        }
    }

    /// The LMA260-safe way to pick a test objective: just above the
    /// plan's physical floor, so the policy is feasible but any real
    /// queueing predicts a violation.
    fn tight_slo(b: &AnalyticBackend, cfg: &ServeConfig, headroom: f64) -> f64 {
        let plan = crate::admission::plan_admission(b, cfg).unwrap();
        let floor =
            b.prefill_seconds(plan.slot_context, plan.slots) + plan.est_step_seconds;
        floor * headroom
    }

    #[test]
    fn slo_enforcement_preempts_low_priority_for_high() {
        use crate::slo::SloPolicy;
        let b = AnalyticBackend::opt_30b();
        // One slot; a long low-priority request holds it when a burst of
        // high-priority work arrives behind an unmeetable predicted p99.
        let hog = Request::new(0, vec![1, 2], 60).with_priority(0);
        let urgent: Vec<Request> = (1..4)
            .map(|i| {
                Request::new(i, vec![3, 4], 6)
                    .with_priority(2)
                    .with_arrival_us(1_000)
            })
            .collect();
        let mut reqs = vec![hog];
        reqs.extend(urgent);
        let mut cfg = ServeConfig {
            max_slots: 1,
            ..ServeConfig::default()
        };
        cfg.slo = Some(SloPolicy {
            shed: false, // isolate the preemption actuator
            ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.05))
        });
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert!(out.stats.preemptions > 0, "{:?}", out.stats);
        assert_eq!(out.terminal_count(), 4);
        assert_eq!(out.kv_leaked_bytes, 0);
        assert!(out.stats.admissions_balanced(), "{:?}", out.stats);
        // The hog still finishes (resumed after the urgent work) with an
        // uncorrupted stream.
        let hog_r = out.responses.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(hog_r.tokens.len(), 60);
        // And urgent work finishes before it.
        for r in out.responses.iter().filter(|r| r.id != 0) {
            assert!(r.finish_us < hog_r.finish_us, "urgent must finish first");
        }
    }

    #[test]
    fn slo_shedding_rejects_doomed_admissions_up_front() {
        use crate::slo::SloPolicy;
        let (b, reqs) = traffic(24);
        let mut cfg = ServeConfig {
            max_slots: 2, // starve the queue so predicted TTFTs blow up
            ..ServeConfig::default()
        };
        cfg.slo = Some(SloPolicy {
            preempt: false, // isolate the shedding actuator
            ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5))
        });
        let n = reqs.len();
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(out.terminal_count(), n);
        assert!(out.stats.shed > 0, "{:?}", out.stats);
        assert!(out
            .rejections
            .iter()
            .any(|r| matches!(r.reason, RejectReason::WouldMissDeadline { .. })));
        assert_eq!(out.deadline_misses, out.stats.shed, "sheds count as misses");
        assert_eq!(out.kv_leaked_bytes, 0);
    }

    #[test]
    fn degrade_ladder_climbs_when_preemption_cannot_help() {
        use crate::slo::{SloPolicy, StaticLadder};
        use std::sync::Arc;
        let (b, reqs) = traffic(24);
        // Uniform priorities: preemption never finds a strictly-lower
        // victim, so the monitor must fall through to the ladder.
        let reqs: Vec<Request> = reqs.into_iter().map(|r| r.with_priority(1)).collect();
        let mut cfg = ServeConfig {
            max_slots: 2,
            ladder: Some(Arc::new(StaticLadder::geometric(4, 0.7))),
            ..ServeConfig::default()
        };
        cfg.slo = Some(SloPolicy {
            shed: false,
            ..SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5))
        });
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert!(out.stats.degradations > 0, "{:?}", out.stats);
        assert_eq!(out.stats.preemptions, 0);
        assert!(out.stats.admissions_balanced(), "{:?}", out.stats);
    }

    #[test]
    fn baselines_report_deadline_misses_without_enforcing() {
        let b = AnalyticBackend::opt_30b();
        // Arrives immediately but sequential service reaches it late;
        // static batch (size 2) waits for the late second arrival.
        let doomed = Request::new(0, vec![1, 2], 4).with_deadline_us(10);
        let hog = Request::new(1, vec![1; 64], 40);
        let late = Request::new(2, vec![3], 4).with_arrival_us(50_000_000);
        let seq = sequential(
            &b,
            &ServeConfig::default(),
            vec![hog.clone(), doomed.clone().with_arrival_us(1000)],
        )
        .unwrap();
        assert_eq!(seq.deadline_misses, 1, "service starts after the deadline");
        assert_eq!(seq.responses.len(), 2, "reported, not enforced");
        let stat = static_batch(&b, &ServeConfig::default(), 2, vec![doomed, late]).unwrap();
        assert_eq!(stat.deadline_misses, 1, "batch forms after the deadline");
        assert_eq!(stat.responses.len(), 2);
    }

    #[test]
    fn static_batch_of_zero_is_a_typed_error() {
        let (b, reqs) = traffic(4);
        match static_batch(&b, &ServeConfig::default(), 0, reqs) {
            Err(ServeError::Mode(msg)) => assert!(msg.contains("batch"), "{msg}"),
            other => panic!("expected ServeError::Mode, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn fault_injected_pool_pressure_is_retried() {
        use lm_fault::{FaultConfig, FaultInjector, RetryPolicy};
        let b = AnalyticBackend::opt_30b();
        let fault = FaultInjector::new(FaultConfig {
            pool_pressure_rate: 0.4,
            pool_pressure_bytes: u64::MAX / 2, // any spike fails the alloc
            ..FaultConfig::quiescent(5)
        });
        let cfg = ServeConfig {
            fault: fault.clone(),
            retry: RetryPolicy::fast_test(),
            ..ServeConfig::default()
        };
        let reqs = synth_traffic(3, 8.0, 10, b.model());
        let n = reqs.len();
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), n);
        // With p=0.4 per attempt and 5 attempts, some admission must have
        // needed a retry (probability of zero retries over 10 admissions
        // is (0.6)^10 ≈ 0.6% — and the stream is seed-deterministic).
        assert!(
            fault.stats().retries > 0,
            "expected admission retries under pool pressure"
        );
        assert!(!out.responses.is_empty());
    }

    #[test]
    fn lifecycle_record_covers_every_request_and_balances() {
        let (b, reqs) = traffic(16);
        let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        let (_, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let obs = &out.obs;
        // Every request is queued exactly once per (re-)entry and every
        // response has matching Admitted/Done events.
        for id in &ids {
            assert!(
                obs.lifecycle
                    .iter()
                    .any(|e| e.request == *id && e.phase == RequestPhase::Queued),
                "request {id} never queued"
            );
        }
        let count = |phase: RequestPhase| {
            obs.lifecycle.iter().filter(|e| e.phase == phase).count() as u64
        };
        assert_eq!(count(RequestPhase::Admitted), out.stats.admitted);
        assert_eq!(count(RequestPhase::Done), out.stats.completed);
        assert_eq!(count(RequestPhase::Prefill), out.stats.admitted);
        assert_eq!(count(RequestPhase::Decode), out.generated_tokens);
        // Admitted events carry a slot within the plan; timestamps are
        // non-decreasing (virtual clock only moves forward).
        // (fresh Queued events are stamped at arrival, which can predate
        // the boundary that collected them — every other phase is
        // clock-ordered.)
        assert!(obs
            .lifecycle
            .windows(2)
            .all(|w| w[0].t_us <= w[1].t_us || w[1].phase == RequestPhase::Queued));
        // TTFT audit pairs exist for every first token delivered.
        assert_eq!(obs.ttft.len(), out.responses.len());
        // Boundary samples close the run: the last one is idle.
        let last = obs.boundaries.last().unwrap();
        assert_eq!(last.active_slots, 0);
        assert!((last.t_us as f64 / 1e6 - out.sim_seconds).abs() < 1e-9);
    }

    #[test]
    fn obs_record_is_replay_deterministic() {
        let (b, reqs) = traffic(12);
        let (_, a) = continuous(&b, &ServeConfig::default(), reqs.clone()).unwrap();
        let (_, c) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(a.obs, c.obs);
    }

    #[test]
    fn drift_audit_holds_on_the_analytic_backend_at_default_seed() {
        let (b, reqs) = traffic(32);
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let report = out.obs.audit(&plan);
        let ttft = report.metric("ttft_mean_s").unwrap();
        assert!(ttft.predicted > 0.0 && ttft.observed > 0.0);
        // DESIGN.md §13 documents the serve-path tolerance: the TTFT
        // queueing estimate must land within 35% of the realized mean.
        let r = ttft.ratio.unwrap();
        assert!((r - 1.0).abs() <= 0.35, "ttft drift ratio {r}");
        let occ = report.metric("slot_occupancy_mean").unwrap();
        assert!(
            (occ.ratio.unwrap() - 1.0).abs() <= 0.15,
            "occupancy drift {:?}",
            occ
        );
    }

    #[test]
    fn flight_recorder_sees_scheduler_decisions_and_slo_breach_freezes() {
        use crate::slo::SloPolicy;
        use lm_trace::FlightRecorder;
        let (b, reqs) = traffic(24);
        let flight = FlightRecorder::new(64);
        let mut cfg = ServeConfig {
            flight: flight.clone(),
            tracer: lm_trace::Tracer::new(),
            max_slots: 2,
            ..ServeConfig::default()
        };
        // Observe-only SLO with a floor-level objective: breaches are
        // observed (and freeze the recorder) without actuators firing.
        cfg.slo = Some(SloPolicy::observe(tight_slo(&b, &cfg, 1.01)));
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert!(out.stats.admitted > 0);
        let dump = flight.dump().expect("queueing past the floor must breach");
        assert!(dump.reason.starts_with("slo_breach"), "{}", dump.reason);
        assert!(
            dump.events.iter().any(|e| e.category == "sched"),
            "scheduler decisions must be in the ring"
        );
        assert!(
            dump.metrics.histograms.contains_key("serve.ttft_s"),
            "frozen metrics ride along"
        );
    }

    #[test]
    fn serve_timeline_exports_slot_tracks() {
        let (b, reqs) = traffic(8);
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let trace = crate::obs::serve_timeline(&plan, &out.obs);
        let v = trace.to_value();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("prefill")));
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("C")));
        assert!(events.iter().any(|e| {
            e["name"].as_str().is_some_and(|n| n.ends_with("[done]"))
        }));
    }
}
