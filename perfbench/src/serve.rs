//! `serve_chat`: an open loop of seeded Poisson arrivals through
//! `ServeSession::run_async` at `time_scale` 1.0 over `EngineBackend`,
//! consumed by a round-robin client on the calling thread.
//!
//! Every latency is timed from the request's due time (session start +
//! `arrival_us`) to the instant the client received the token, so a
//! scheduler stall counts against the requests queued behind it.

use crate::metrics::Report;
use crate::offline::RECON_TOLERANCE;
use crate::stats::{median, tail_percentile, Rng};
use crate::{kernels, Args};
use lm_engine::{EngineError, EngineOptions, GenerateRequest};
use lm_models::{Family, ModelConfig};
use lm_serve::{
    AsyncConfig, EngineBackend, Request, RequestPhase, ServeBackend, ServeOutcome, ServeSession,
    TokenEvent, TokenStreams,
};
use lm_trace::{TaskKind, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tokio::sync::mpsc::error::TryRecvError;

/// Offered load, requests per second.
pub const RATE: f64 = 7.0;
/// A request meets the objective when its first token arrives within this.
pub const TTFT_LIMIT_MS: f64 = 1000.0;
/// Length of the system prompt 75% of requests open with.
const SYSTEM_PROMPT: usize = 64;
const SHARED_SHARE: f64 = 0.75;
/// Suffix and generation lengths, half-open ranges.
const SUFFIX: (u64, u64) = (4, 12);
const GEN: (u64, u64) = (4, 16);
/// Weight seed: the model is fixed, only the traffic follows `--seed`.
const WEIGHT_SEED: u64 = 0xC4A7;
/// Client poll interval when a full round found nothing new: the
/// resolution of every client-side timestamp. A client that spins
/// instead takes a core from the scheduler and loader threads; with one
/// competing busy process on two cores that doubled the median TTFT.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// The served model: OPT-shaped, small enough that one core serves the
/// offered load with headroom.
pub fn model() -> ModelConfig {
    ModelConfig {
        name: "chat-opt-4l-128h".to_string(),
        family: Family::Opt,
        num_layers: 4,
        hidden: 128,
        ffn_hidden: 512,
        num_heads: 4,
        vocab_size: 4096,
        max_seq_len: 512,
    }
}

/// Seeded open-loop traffic: `ceil(RATE · seconds)` requests.
pub fn traffic(seed: u64, seconds: f64) -> Vec<Request> {
    let vocab = model().vocab_size;
    let mut rng = Rng::new(seed);
    let system = rng.tokens(SYSTEM_PROMPT, vocab);
    let n = (RATE * seconds).ceil() as u64;
    let mut t_s = 0.0f64;
    (0..n)
        .map(|id| {
            t_s += rng.exp_gap_s(RATE);
            let mut prompt = if rng.unit() < SHARED_SHARE {
                system.clone()
            } else {
                rng.tokens(SYSTEM_PROMPT, vocab)
            };
            let suffix = rng.range(SUFFIX.0, SUFFIX.1) as usize;
            prompt.extend(rng.tokens(suffix, vocab));
            let gen_len = rng.range(GEN.0, GEN.1) as usize;
            Request::new(id, prompt, gen_len).with_arrival_us((t_s * 1e6) as u64)
        })
        .collect()
}

/// What the client saw of one stream.
#[derive(Default)]
struct Seen {
    tokens: Vec<u32>,
    first: Option<Instant>,
    last: Option<Instant>,
}

/// Round-robin client: poll every live stream with `try_recv`, so no
/// stream's bounded channel fills while another is being drained.
fn round_robin(mut streams: TokenStreams) -> (Instant, BTreeMap<u64, Seen>) {
    let t0 = Instant::now();
    let mut live: Vec<_> = streams
        .drain()
        .into_iter()
        .map(|(id, rx)| (id, rx, Seen::default()))
        .collect();
    let mut done = BTreeMap::new();
    while !live.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < live.len() {
            let (_, rx, seen) = &mut live[i];
            let mut closed = false;
            loop {
                match rx.try_recv() {
                    Ok(TokenEvent { token, .. }) => {
                        let now = Instant::now();
                        seen.first.get_or_insert(now);
                        seen.last = Some(now);
                        seen.tokens.push(token);
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        closed = true;
                        break;
                    }
                }
            }
            if closed {
                let (id, _, seen) = live.swap_remove(i);
                done.insert(id, seen);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            std::thread::sleep(IDLE_POLL);
        }
    }
    (t0, done)
}

/// `ServeBackend` wrapper timing the scheduler's calls into the engine.
struct Timed<'a> {
    inner: &'a EngineBackend,
    materialize_ns: AtomicU64,
    calls: AtomicU64,
}

impl ServeBackend for Timed<'_> {
    fn model(&self) -> &ModelConfig {
        self.inner.model()
    }

    fn materialize(&self, req: &Request) -> Result<Vec<u32>, EngineError> {
        let t = Instant::now();
        let out = self.inner.materialize(req);
        self.materialize_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn prefill_seconds(&self, padded_prompt_len: usize, batch: usize) -> f64 {
        self.inner.prefill_seconds(padded_prompt_len, batch)
    }

    fn decode_step_seconds(&self, contexts: &[u64]) -> f64 {
        self.inner.decode_step_seconds(contexts)
    }

    fn kv_bytes_at(&self, context: usize) -> usize {
        self.inner.kv_bytes_at(context)
    }
}

/// One session's client-side measurements.
struct Session {
    outcome: ServeOutcome,
    ttft_ms: Vec<f64>,
    e2e_ms: Vec<f64>,
    /// Requests whose first token arrived within the TTFT limit.
    within_limit: u64,
    /// Tokens delivered to successful requests.
    tokens: u64,
    /// Union of the `[due, last token]` intervals: the time the system
    /// had work in flight.
    busy_s: f64,
}

fn serve_once(
    backend: &dyn ServeBackend,
    requests: &[Request],
    reference: &BTreeMap<u64, Vec<u32>>,
    serve_tracer: Option<Tracer>,
    report: &mut Report,
) -> Result<Session, String> {
    let mut session = ServeSession::new(backend);
    if let Some(t) = serve_tracer {
        session = session.tracer(t);
    }
    let (run, (t0, seen)) = session
        .run_async(requests.to_vec(), &AsyncConfig::default(), round_robin)
        .map_err(|e| format!("run_async failed: {e}"))?;
    let outcome = run.outcome;
    let responses: BTreeMap<u64, &Vec<u32>> = outcome
        .responses
        .iter()
        .map(|r| (r.id, &r.tokens))
        .collect();

    let mut ttft_ms = Vec::new();
    let mut e2e_ms = Vec::new();
    let (mut within_limit, mut tokens) = (0u64, 0u64);
    let mut intervals = Vec::with_capacity(requests.len());
    for r in requests {
        let due = t0 + Duration::from_micros(r.arrival_us);
        let got = seen.get(&r.id);
        let last = got.and_then(|g| g.last).unwrap_or(due).max(due);
        intervals.push((due, last));
        let response = responses.get(&r.id);
        let expected = &reference[&r.id];
        let matches = response.is_some_and(|t| *t == expected);
        let streamed = got.is_some_and(|g| g.tokens == *expected);
        report.check(response.is_none() || matches, || {
            format!("request {}: response differs from solo Engine::run", r.id)
        });
        report.check(response.is_none() || streamed, || {
            format!("request {}: streamed tokens differ from the response", r.id)
        });
        let (Some(g), true, true) = (got, matches, streamed) else {
            report.tally.fail();
            continue;
        };
        report.tally.ok();
        let (first, last) = (
            g.first.expect("a matching stream has tokens"),
            g.last.expect("a matching stream has tokens"),
        );
        let ttft = first.saturating_duration_since(due).as_secs_f64() * 1e3;
        ttft_ms.push(ttft);
        e2e_ms.push(last.saturating_duration_since(due).as_secs_f64() * 1e3);
        within_limit += u64::from(ttft <= TTFT_LIMIT_MS);
        tokens += g.tokens.len() as u64;
    }
    let busy_s = union_s(intervals);

    report.check(outcome.kv_leaked_bytes == 0, || {
        format!("{} KV bytes leaked", outcome.kv_leaked_bytes)
    });
    report.check(outcome.kv_pages_leaked == 0, || {
        format!("{} KV pages leaked", outcome.kv_pages_leaked)
    });
    report.check(outcome.terminal_count() == requests.len(), || {
        format!(
            "{} terminal states for {} requests sent",
            outcome.terminal_count(),
            requests.len()
        )
    });
    report.check(outcome.stats.admissions_balanced(), || {
        format!("admissions do not balance: {:?}", outcome.stats)
    });
    Ok(Session {
        outcome,
        ttft_ms,
        e2e_ms,
        within_limit,
        tokens,
        busy_s,
    })
}

/// Total length of the union of `[start, end]` intervals, seconds.
fn union_s(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += (cb - ca).as_secs_f64();
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| (b - a).as_secs_f64())
}

fn build(options: EngineOptions, setups: &mut Vec<f64>) -> Result<EngineBackend, String> {
    let t = Instant::now();
    let backend = EngineBackend::new(&model(), WEIGHT_SEED, options)
        .map_err(|e| format!("EngineBackend::new failed: {e}"))?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(backend)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let requests = traffic(args.seed, args.seconds);
    // Construction takes milliseconds: take the median of fifteen.
    let mut setups = Vec::new();
    for _ in 0..14 {
        drop(build(EngineOptions::default(), &mut setups)?);
    }
    let backend = build(EngineOptions::default(), &mut setups)?;

    // Solo reference runs, before the session (they also warm it up).
    let mut reference = BTreeMap::new();
    for r in &requests {
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![r.prompt.clone()], r.gen_len))
            .map_err(|e| format!("solo Engine::run of request {} failed: {e}", r.id))?;
        reference.insert(r.id, solo.tokens.into_iter().next().unwrap_or_default());
    }

    let plain = serve_once(&backend, &requests, &reference, None, &mut report)?;
    let sent = requests.len();
    let Some(ttft_p50) = median(&plain.ttft_ms) else {
        report.errors.push("no request completed correctly".into());
        return Ok(report);
    };
    let throughput = plain.tokens as f64 / plain.busy_s;
    report.note(format!(
        "{sent} requests at {RATE} req/s over {:.1} s of arrivals: {} succeeded, {} failed; \
         ttft_p50_ms {:.1}, e2e_p50_ms {:.1}; {} within the {TTFT_LIMIT_MS} ms TTFT limit",
        requests.last().map_or(0.0, |r| r.arrival_us as f64 / 1e6),
        report.tally.succeeded(),
        report.tally.failed,
        ttft_p50,
        median(&plain.e2e_ms).unwrap_or(0.0),
        plain.within_limit
    ));

    if !args.trace {
        report.set("setup_s", median(&setups).expect("fifteen setups"));
        report.set("throughput", throughput);
        report.set("latency_p50_ms", ttft_p50);
        report.set("slo_attain", plain.within_limit as f64 / sent as f64);
        for (name, values) in [("ttft", &plain.ttft_ms), ("e2e", &plain.e2e_ms)] {
            match tail_percentile(values, 90) {
                Ok(v) => report.note(format!(
                    "{name}_p90_ms {v:.1} ms over {} samples",
                    values.len()
                )),
                Err(e) => report.note(format!("{name}_p90_ms not reported: {e}")),
            }
        }
        return Ok(report);
    }

    // Traced: engine and serve tracers on, backend calls timed.
    let engine_tracer = Tracer::new();
    let serve_tracer = Tracer::new();
    let traced_backend = build(
        EngineOptions {
            tracer: engine_tracer.clone(),
            ..EngineOptions::default()
        },
        &mut setups,
    )?;
    let timed = Timed {
        inner: &traced_backend,
        materialize_ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    };
    let traced = serve_once(
        &timed,
        &requests,
        &reference,
        Some(serve_tracer),
        &mut report,
    )?;
    let out = &traced.outcome;
    let backend_s = timed.materialize_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let calls = timed.calls.load(Ordering::Relaxed).max(1) as f64;

    for (name, values) in [
        ("serve.ttft_p90_ms", &plain.ttft_ms),
        ("serve.e2e_p90_ms", &plain.e2e_ms),
    ] {
        match tail_percentile(values, 90) {
            Ok(v) => report.set(name, v),
            Err(e) => report.note(format!("{name} not reported: {e}")),
        }
    }
    report.set("serve.e2e_p50_ms", median(&plain.e2e_ms).unwrap_or(0.0));
    layer_metrics(out, &requests, &mut report);
    report.set("serve.backend_s", backend_s);
    report.set("serve.sched_s", (traced.busy_s - backend_s).max(0.0));
    report.set(
        "trace.overhead_frac",
        throughput / (traced.tokens as f64 / traced.busy_s) - 1.0,
    );

    let snap = engine_tracer.snapshot();
    let span_s = |kind: TaskKind| -> f64 {
        snap.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration())
            .sum::<f64>()
    };
    let scope_s = |name: &str| -> f64 {
        snap.scopes
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum::<f64>()
    };
    let (prefill_s, decode_s) = (scope_s("prefill"), scope_s("decode"));
    let compute_s = span_s(TaskKind::ComputeGpu);
    let recon = (prefill_s + decode_s) / backend_s;
    report.set("engine.load_weight_s", span_s(TaskKind::LoadWeight) / calls);
    report.set("engine.compute_s", compute_s / calls);
    report.set("engine.prefill_s", prefill_s / calls);
    report.set("engine.decode_s", decode_s / calls);
    report.set(
        "engine.weight_wait_s",
        ((decode_s - compute_s) / calls).max(0.0),
    );
    report.set("engine.span_recon_frac", recon);
    let m = &snap.metrics;
    if let Some(&bytes) = m.counters.get("engine.weight_bytes_streamed") {
        report.set("engine.weight_bytes", bytes as f64 / calls);
    }
    if let Some(&kv) = m.gauges.get("engine.kv_bytes_at_rest") {
        report.set("engine.kv_bytes", kv);
    }
    if let Some(&frac) = m.gauges.get("engine.pool.device.peak_fraction") {
        report.set(
            "engine.device_peak_bytes",
            frac * EngineOptions::default().device_capacity as f64,
        );
    }
    report.check((recon - 1.0).abs() <= RECON_TOLERANCE, || {
        format!(
            "engine spans do not reconcile with materialize: prefill {prefill_s:.3} s + \
             decode {decode_s:.3} s vs {backend_s:.3} s (tolerance {RECON_TOLERANCE})"
        )
    });
    report.note(format!(
        "traced session: {} materialize calls, {backend_s:.3} s in the backend, \
         engine spans = {recon:.3} of it (tolerance ±{RECON_TOLERANCE})",
        calls as u64
    ));
    kernels::replay(&mut report);
    Ok(report)
}

/// Scheduler, admission and paged-KV metrics from one outcome.
fn layer_metrics(out: &ServeOutcome, requests: &[Request], report: &mut Report) {
    let arrival: BTreeMap<u64, u64> = requests.iter().map(|r| (r.id, r.arrival_us)).collect();
    let prompt_len: BTreeMap<u64, usize> =
        requests.iter().map(|r| (r.id, r.prompt.len())).collect();
    let mut admitted: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &out.obs.lifecycle {
        if e.phase == RequestPhase::Admitted {
            admitted.entry(e.request).or_insert(e.t_us);
        }
    }
    let waits: Vec<f64> = admitted
        .iter()
        .map(|(id, &t)| t.saturating_sub(arrival[id]) as f64 / 1e3)
        .collect();
    report.set("serve.queue_wait_p50_ms", median(&waits).unwrap_or(0.0));

    // Replay lag: the first scheduler boundary at or after each due time.
    let boundaries: Vec<u64> = out.obs.boundaries.iter().map(|b| b.t_us).collect();
    let lags: Vec<f64> = requests
        .iter()
        .filter_map(|r| {
            boundaries
                .iter()
                .filter(|&&t| t >= r.arrival_us)
                .min()
                .map(|&t| (t - r.arrival_us) as f64 / 1e3)
        })
        .collect();
    report.set("serve.arrival_lag_ms", median(&lags).unwrap_or(0.0));

    let mut weighted = 0.0f64;
    let mut span = 0.0f64;
    for w in out.obs.boundaries.windows(2) {
        let dt = w[1].t_us.saturating_sub(w[0].t_us) as f64;
        weighted += w[0].active_slots as f64 / w[0].slots.max(1) as f64 * dt;
        span += dt;
    }
    report.set(
        "serve.occupancy_mean",
        if span > 0.0 { weighted / span } else { 0.0 },
    );
    report.set("serve.boundaries", out.obs.boundaries.len() as f64);
    report.set("serve.rejected", out.rejections.len() as f64);
    report.set("serve.shed", out.stats.shed as f64);
    report.set("serve.cancelled", out.cancellations.len() as f64);
    report.set("serve.deadline_misses", out.deadline_misses as f64);

    let admitted_tokens: usize = admitted.keys().map(|id| prompt_len[id]).sum();
    report.set(
        "kvpool.prefix_hit_frac",
        out.shared_tokens as f64 / admitted_tokens.max(1) as f64,
    );
    report.set("kvpool.pages_peak", out.kv_pages_peak as f64);
    report.set("kvpool.cow_forks", out.cow_forks as f64);
    report.set("kvpool.pages_leaked", out.kv_pages_leaked as f64);
}
