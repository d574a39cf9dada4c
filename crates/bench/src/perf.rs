//! Tracked perf trajectory: wall-clock timings of the numeric kernels
//! and the serve path, emitted as `BENCH_kernels.json` /
//! `BENCH_serve.json` at the repo root by `repro bench` (DESIGN.md §13).
//!
//! The criterion benches in `benches/` remain the statistically careful
//! instrument; this module is the *trajectory* — a cheap, schema-stable
//! `{bench, metric, value, unit}` snapshot regenerated by every
//! `scripts/verify.sh` run so kernel and serve regressions are visible
//! PR-over-PR instead of silently accumulating. Shapes mirror
//! `benches/kernels.rs` so the two views stay comparable.
//!
//! Wall-clock values are machine-dependent by nature; everything else in
//! `results/` is virtual-clock deterministic, which is why these rows
//! live at the repo root instead.

use lm_serve::{synth_traffic, AnalyticBackend, ServeBackend, ServeConfig, ServeRun, ServeSession};
use lm_tensor::ops::matmul::{matmul, matmul_transb};
use lm_tensor::{dequantize, mha_decode, quantize, KvCache, QuantConfig, Tensor};
use lm_trace::{expo, Tracer};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One point of the perf trajectory. The schema verify.sh gates on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRow {
    /// Bench id, `group/case/size` (e.g. `quantize/int4/1048576`).
    pub bench: String,
    /// What was measured (`time_per_iter`, `throughput`, …).
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

impl BenchRow {
    fn new(bench: impl Into<String>, metric: &str, value: f64, unit: &str) -> Self {
        BenchRow {
            bench: bench.into(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Median-of-samples wall time per iteration, nanoseconds. One warmup
/// call sizes the iteration count so each sample runs ~`BUDGET_MS`,
/// keeping the lane fast on slow machines and stable on fast ones.
fn time_ns(mut f: impl FnMut()) -> f64 {
    const BUDGET_MS: f64 = 10.0;
    const SAMPLES: usize = 3;
    let warm = Instant::now();
    f();
    let once_ms = warm.elapsed().as_secs_f64() * 1e3;
    let iters = ((BUDGET_MS / once_ms.max(1e-6)) as usize).clamp(1, 10_000);
    let mut samples = [0.0f64; SAMPLES];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// Time one kernel and emit its `time_per_iter` row plus a throughput
/// row derived from `work` (bytes or FLOPs) per iteration.
fn kernel_rows_for(
    out: &mut Vec<BenchRow>,
    bench: &str,
    work: f64,
    work_unit: &str,
    f: impl FnMut(),
) {
    let ns = time_ns(f);
    out.push(BenchRow::new(bench, "time_per_iter", ns, "ns"));
    // work per ns == Gwork per s (1e9/1e9 cancels).
    out.push(BenchRow::new(bench, "throughput", work / ns, work_unit));
}

/// The kernel lane: group-wise quantization, matmul, and decode
/// attention — the kernels the §3 performance models price, at the same
/// shapes as `benches/kernels.rs`.
pub fn kernel_rows() -> Vec<BenchRow> {
    let mut rows = Vec::new();

    for &n in &[1usize << 14, 1 << 18, 1 << 20] {
        let t = Tensor::randn([n], 1.0, 42);
        let bytes = (n * 4) as f64;
        for cfg in [QuantConfig::int4(), QuantConfig::int8()] {
            kernel_rows_for(
                &mut rows,
                &format!("quantize/int{}/{n}", cfg.bits),
                bytes,
                "GiB/s",
                || {
                    quantize(&t, cfg);
                },
            );
        }
        let q = quantize(&t, QuantConfig::int4());
        kernel_rows_for(&mut rows, &format!("dequantize/int4/{n}"), bytes, "GiB/s", || {
            dequantize(&q);
        });
    }

    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn([n, n], 1.0, 1);
        let b = Tensor::randn([n, n], 1.0, 2);
        let flops = (2 * n * n * n) as f64;
        kernel_rows_for(&mut rows, &format!("matmul/square/{n}"), flops, "GFLOP/s", || {
            matmul(&a, &b);
        });
        kernel_rows_for(&mut rows, &format!("matmul/transb/{n}"), flops, "GFLOP/s", || {
            matmul_transb(&a, &b);
        });
    }

    let (batch, hidden, heads) = (8usize, 256usize, 8usize);
    for &seq in &[64usize, 256, 1024] {
        let mut cache = KvCache::new(batch, hidden, seq);
        for i in 0..seq {
            let k = Tensor::randn([batch, hidden], 1.0, i as u64);
            cache.append(&k, &k);
        }
        let q = Tensor::randn([batch, hidden], 1.0, 99);
        // 4·seq·hidden FLOPs per batch row — the paper's attention count.
        let flops = (4 * seq * hidden * batch) as f64;
        kernel_rows_for(&mut rows, &format!("mha_decode/{seq}"), flops, "GFLOP/s", || {
            mha_decode(&q, &cache, heads);
        });
    }

    rows
}

/// The serve lane: wall cost of one default continuous-batching run
/// (the `repro serve` workload), the per-boundary observability hooks
/// amortized into it, the exposition renderer, and the timeline export.
pub fn serve_rows() -> Vec<BenchRow> {
    let mut rows = Vec::new();
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(7, 4.0, 32, backend.model());

    let cfg = ServeConfig {
        tracer: Tracer::new(),
        ..ServeConfig::default()
    };
    let t = Instant::now();
    let served = ServeSession::new(&backend).config(cfg.clone()).run(traffic);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let (plan, out) = match served.and_then(ServeRun::into_continuous) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warning: serve bench lane failed: {e}");
            rows.push(BenchRow::new("serve/continuous/32req", "failed", 1.0, "bool"));
            return rows;
        }
    };
    rows.push(BenchRow::new("serve/continuous/32req", "wall_time", wall_ms, "ms"));
    rows.push(BenchRow::new(
        "serve/continuous/32req",
        "wall_us_per_token",
        wall_ms * 1e3 / out.generated_tokens.max(1) as f64,
        "us/token",
    ));
    rows.push(BenchRow::new(
        "serve/continuous/32req",
        "virtual_tokens_per_s",
        out.tokens_per_s(),
        "tok/s",
    ));
    rows.push(BenchRow::new(
        "serve/continuous/32req",
        "boundaries",
        out.obs.boundaries.len() as f64,
        "count",
    ));

    // Paged-vs-slab and prefix-sharing trajectory: virtual throughput of
    // the same 16-request shared-prefix trace under each KV strategy,
    // so a regression in either the paged fast path or the sharing win
    // shows up PR-over-PR.
    {
        use lm_serve::{synth_shared_prefix_traffic, KvMode};
        let (shared, control) = synth_shared_prefix_traffic(
            7,
            4.0,
            16,
            backend.model(),
            crate::experiments::serve::DEFAULT_PREFIX_LEN,
        );
        let lane = |kv_mode: KvMode, traffic: Vec<lm_serve::Request>| {
            let cfg = ServeConfig {
                tracer: Tracer::new(),
                kv_mode,
                ..ServeConfig::default()
            };
            ServeSession::new(&backend).config(cfg).run(traffic).and_then(ServeRun::into_continuous)
        };
        match (
            lane(KvMode::Paged, shared.clone()),
            lane(KvMode::Paged, control),
            lane(KvMode::Slab, shared),
        ) {
            (Ok((_, sp)), Ok((_, up)), Ok((_, ss))) => {
                rows.push(BenchRow::new(
                    "serve/shared_prefix/paged",
                    "virtual_tokens_per_s",
                    sp.tokens_per_s(),
                    "tok/s",
                ));
                rows.push(BenchRow::new(
                    "serve/unshared_control/paged",
                    "virtual_tokens_per_s",
                    up.tokens_per_s(),
                    "tok/s",
                ));
                rows.push(BenchRow::new(
                    "serve/shared_prefix/slab",
                    "virtual_tokens_per_s",
                    ss.tokens_per_s(),
                    "tok/s",
                ));
                rows.push(BenchRow::new(
                    "serve/shared_prefix/paged",
                    "shared_tokens",
                    sp.shared_tokens as f64,
                    "count",
                ));
            }
            _ => rows.push(BenchRow::new("serve/shared_prefix/paged", "failed", 1.0, "bool")),
        }
    }

    let snap = cfg.tracer.snapshot().metrics;
    rows.push(BenchRow::new(
        "obs/expo_render",
        "time_per_iter",
        time_ns(|| {
            expo::render(&snap);
        }),
        "ns",
    ));
    rows.push(BenchRow::new(
        "obs/serve_timeline",
        "time_per_iter",
        time_ns(|| {
            lm_serve::serve_timeline(&plan, &out.obs);
        }),
        "ns",
    ));
    rows.push(BenchRow::new(
        "obs/drift_audit",
        "time_per_iter",
        time_ns(|| {
            out.obs.audit(&plan);
        }),
        "ns",
    ));

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rows_cover_every_group_with_positive_values() {
        let rows = kernel_rows();
        for group in ["quantize/", "dequantize/", "matmul/", "mha_decode/"] {
            assert!(
                rows.iter().any(|r| r.bench.starts_with(group)),
                "missing {group}"
            );
        }
        for r in &rows {
            assert!(r.value > 0.0, "{}/{} must be positive", r.bench, r.metric);
        }
    }

    #[test]
    fn serve_rows_carry_the_schema_and_virtual_throughput() {
        let rows = serve_rows();
        assert!(rows.iter().any(|r| r.metric == "virtual_tokens_per_s"));
        assert!(rows.iter().any(|r| r.bench == "obs/expo_render"));
        assert!(
            rows.iter().any(|r| r.bench == "serve/shared_prefix/paged"),
            "the prefix-sharing lane must be in the trajectory"
        );
        let json = serde_json::to_string(&rows).expect("serialize");
        for key in ["\"bench\"", "\"metric\"", "\"value\"", "\"unit\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let back: Vec<BenchRow> = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.len(), rows.len());
    }
}
