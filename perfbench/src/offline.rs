//! `offline_decode` and `offline_prefill`: repeated `Engine::run` calls on
//! OPT-125M with seeded prompts, checked token for token against a
//! reference engine with an unconstrained device budget.

use crate::metrics::Report;
use crate::stats::{median, ms, Digest, Rng};
use crate::{kernels, Args};
use lm_engine::{Engine, EngineOptions, GenerateRequest, Generation};
use lm_models::ModelConfig;
use lm_tensor::QuantConfig;
use lm_trace::{TaskKind, Tracer};
use std::time::{Duration, Instant};

/// Weight seed: the model is fixed, only the prompts follow `--seed`.
const WEIGHT_SEED: u64 = 0x0125;

/// How far the traced run's `prefill + decode` scope time may sit from
/// the untraced call's wall time before the reconciliation check fails.
pub const RECON_TOLERANCE: f64 = 0.25;

/// One offline workload: a fixed batch shape and at-rest format.
pub struct Offline {
    pub batch: usize,
    pub prompt_len: usize,
    pub gen_len: usize,
    /// The paper's compressed format: int4 weights and int4 KV at rest.
    pub compressed: bool,
    /// What `throughput` counts: generated tokens (decode) or prompt
    /// tokens (prefill).
    pub counts_prompt_tokens: bool,
}

/// Decode-bound: every generated token re-fetches and dequantizes all
/// twelve layers plus the unembedding.
pub const DECODE: Offline = Offline {
    batch: 8,
    prompt_len: 4,
    gen_len: 4,
    compressed: true,
    counts_prompt_tokens: false,
};

/// Matmul-bound prefill with a single weight sweep and no quantization.
pub const PREFILL: Offline = Offline {
    batch: 2,
    prompt_len: 32,
    gen_len: 1,
    compressed: false,
    counts_prompt_tokens: true,
};

pub fn model() -> ModelConfig {
    lm_models::presets::opt_125m()
}

impl Offline {
    fn options(&self) -> EngineOptions {
        let q = self.compressed.then(QuantConfig::int4);
        EngineOptions {
            quantize_at_rest: q,
            kv_quantize_at_rest: q,
            ..EngineOptions::default()
        }
    }

    /// Same request and at-rest formats, no device-budget pressure and no
    /// prefetch thread: the output every measured call must reproduce.
    fn reference_options(&self) -> EngineOptions {
        EngineOptions {
            device_capacity: 1 << 40,
            prefetch: false,
            ..self.options()
        }
    }

    /// Distinct seeded prompts of the workload's shape.
    pub fn request(&self, seed: u64) -> GenerateRequest {
        let vocab = model().vocab_size;
        let mut rng = Rng::new(seed);
        let mut prompts: Vec<Vec<u32>> = Vec::with_capacity(self.batch);
        while prompts.len() < self.batch {
            let p = rng.tokens(self.prompt_len, vocab);
            if !prompts.contains(&p) {
                prompts.push(p);
            }
        }
        GenerateRequest::new(prompts, self.gen_len)
    }

    fn work_per_call(&self) -> usize {
        self.batch
            * if self.counts_prompt_tokens {
                self.prompt_len
            } else {
                self.gen_len
            }
    }
}

fn build(options: EngineOptions, setups: &mut Vec<f64>) -> Result<Engine, String> {
    let t = Instant::now();
    let engine = Engine::new(&model(), WEIGHT_SEED, options)
        .map_err(|e| format!("Engine::new failed: {e}"))?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(engine)
}

fn median_s(walls: &[Duration]) -> Option<f64> {
    median(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Calls made on one engine in a timed loop.
#[derive(Default)]
struct Calls {
    walls: Vec<Duration>,
    last: Option<Generation>,
}

/// Call every engine's `run` in turn until `budget` has elapsed (at
/// least one round), checking each output against `reference` outside
/// the timed region. Alternating engines lets each sample the same host
/// conditions.
fn timed_calls<const N: usize>(
    engines: [&Engine; N],
    request: &GenerateRequest,
    reference: &[Vec<u32>],
    budget: Duration,
    report: &mut Report,
) -> [Calls; N] {
    let start = Instant::now();
    let mut calls: [Calls; N] = std::array::from_fn(|_| Calls::default());
    loop {
        for (engine, calls) in engines.iter().zip(calls.iter_mut()) {
            let t = Instant::now();
            let out = engine.run(std::hint::black_box(request));
            let wall = t.elapsed();
            match out {
                Ok(g) if g.tokens == reference => {
                    report.tally.ok();
                    calls.walls.push(wall);
                    calls.last = Some(g);
                }
                Ok(_) => {
                    report.tally.fail();
                    report
                        .errors
                        .push("tokens differ from the reference run".into());
                }
                Err(e) => {
                    report.tally.fail();
                    report.errors.push(format!("Engine::run failed: {e}"));
                }
            }
        }
        if start.elapsed() >= budget {
            return calls;
        }
    }
}

pub fn run(w: &Offline, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let request = w.request(args.seed);
    let mut setups = Vec::new();

    let reference = {
        let engine = build(w.reference_options(), &mut setups)?;
        engine
            .run(&request)
            .map_err(|e| format!("reference Engine::run failed: {e}"))?
            .tokens
    };
    let mut digest = Digest::new();
    digest.tokens(&reference);
    report.note(format!(
        "batch {} x {} prompt tokens, {} new tokens, {} at rest; token digest {}",
        w.batch,
        w.prompt_len,
        w.gen_len,
        if w.compressed {
            "int4 weights + int4 KV"
        } else {
            "f32"
        },
        digest.hex()
    ));

    let budget = Duration::from_secs_f64(args.seconds);
    let (untraced, traced, tracer) = if args.trace {
        // Untraced and traced calls alternate: the untraced ones are the
        // overhead baseline and the wall time the spans must reconcile to.
        let plain = build(w.options(), &mut setups)?;
        let tracer = Tracer::new();
        let traced = build(
            EngineOptions {
                tracer: tracer.clone(),
                ..w.options()
            },
            &mut setups,
        )?;
        let [u, t] = timed_calls([&plain, &traced], &request, &reference, budget, &mut report);
        (u, t, tracer)
    } else {
        // One more construction so setup_s is a median of three.
        drop(build(w.options(), &mut setups)?);
        let engine = build(w.options(), &mut setups)?;
        let [u] = timed_calls([&engine], &request, &reference, budget, &mut report);
        (u, Calls::default(), Tracer::disabled())
    };
    let Some(wall_med) = median_s(&untraced.walls) else {
        report
            .errors
            .push("no Engine::run call returned the reference tokens".into());
        return Ok(report);
    };

    if !args.trace {
        // Work per median call: one slow call cannot drag the rate.
        let rate = w.work_per_call() as f64 / wall_med;
        report.set("setup_s", median(&setups).expect("three setups"));
        report.set("throughput", rate);
        report.set("latency_p50_ms", wall_med * 1e3);
        report.set(
            "slo_attain",
            report.tally.succeeded() as f64 / report.tally.attempted as f64,
        );
        report.note(format!(
            "{} calls ({} ms), median {:.1} ms per call; {} {rate:.3} tok/s",
            untraced.walls.len(),
            untraced
                .walls
                .iter()
                .map(|d| format!("{:.0}", ms(*d)))
                .collect::<Vec<_>>()
                .join(", "),
            wall_med * 1e3,
            if w.counts_prompt_tokens {
                "prefill_tok_s"
            } else {
                "decode_tok_s"
            }
        ));
        return Ok(report);
    }

    let calls = traced.walls.len().max(1) as f64;
    let snap = tracer.snapshot();
    let span_s = |kind: TaskKind| -> f64 {
        snap.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration())
            .sum::<f64>()
            / calls
    };
    let scope_s = |name: &str| -> f64 {
        snap.scopes
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum::<f64>()
            / calls
    };
    let (prefill_s, decode_s) = (scope_s("prefill"), scope_s("decode"));
    let compute_s = span_s(TaskKind::ComputeGpu);
    let recon = (prefill_s + decode_s) / wall_med;
    report.set("engine.load_weight_s", span_s(TaskKind::LoadWeight));
    report.set("engine.compute_s", compute_s);
    report.set("engine.prefill_s", prefill_s);
    report.set("engine.decode_s", decode_s);
    report.set("engine.weight_wait_s", (decode_s - compute_s).max(0.0));
    report.set("engine.span_recon_frac", recon);
    if let Some(g) = &traced.last {
        report.set("engine.weight_bytes", g.weight_bytes_streamed as f64);
        report.set("engine.device_peak_bytes", g.device_peak as f64);
        report.set("engine.kv_bytes", g.kv_bytes_at_rest as f64);
    }
    let Some(traced_med) = median_s(&traced.walls) else {
        report
            .errors
            .push("no traced Engine::run call returned the reference tokens".into());
        return Ok(report);
    };
    report.set("trace.overhead_frac", traced_med / wall_med - 1.0);
    report.check((recon - 1.0).abs() <= RECON_TOLERANCE, || {
        format!(
            "engine spans do not reconcile: prefill {prefill_s:.3} s + decode {decode_s:.3} s \
             vs untraced call {wall_med:.3} s (tolerance {RECON_TOLERANCE})"
        )
    });
    report.note(format!(
        "untraced {} calls (median {:.1} ms), traced {} calls (median {:.1} ms); \
         spans prefill+decode = {:.3} of untraced wall (tolerance ±{RECON_TOLERANCE})",
        untraced.walls.len(),
        wall_med * 1e3,
        traced.walls.len(),
        traced_med * 1e3,
        recon
    ));
    kernels::replay(&mut report);
    Ok(report)
}
