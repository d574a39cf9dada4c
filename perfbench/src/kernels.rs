//! `lm-tensor` kernel replay at the offline workloads' exact shapes.
//!
//! FLOPs count multiply-adds as two operations. Bytes are *computed* from
//! the tensor sizes each call reads and writes (inputs once, output
//! once), not measured: a CPU run has no counter for them.

use crate::metrics::Report;
use crate::offline::{model, DECODE, PREFILL};
use crate::stats::median;
use lm_tensor::ops::matmul::matmul_transb;
use lm_tensor::{dequantize, mha_decode, mha_prefill, quantize, KvCache, QuantConfig, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time spent timing one kernel.
const BUDGET: Duration = Duration::from_millis(300);
/// Target length of one timed sample (a batch of calls).
const SAMPLE: Duration = Duration::from_millis(20);

/// Median seconds per call over samples of back-to-back calls.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    f();
    let once = warm.elapsed().max(Duration::from_nanos(100));
    let iters = (SAMPLE.as_secs_f64() / once.as_secs_f64()).clamp(1.0, 100_000.0) as u32;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    median(&samples).expect("at least three samples")
}

struct Kernel {
    metric: &'static str,
    shape: String,
    flops: f64,
    bytes: f64,
    seconds: f64,
}

const F32: f64 = 4.0;

fn matmul(metric: &'static str, rows: usize, inner: usize, out: usize) -> Kernel {
    let x = Tensor::randn([rows, inner], 1.0, 1);
    let w = Tensor::randn([out, inner], 0.05, 2);
    let seconds = per_call_s(|| {
        black_box(matmul_transb(black_box(&x), black_box(&w)));
    });
    Kernel {
        metric,
        shape: format!("{rows}x{inner} . ({out}x{inner})^T"),
        flops: 2.0 * (rows * inner * out) as f64,
        bytes: F32 * (rows * inner + out * inner + rows * out) as f64,
        seconds,
    }
}

fn attention_decode(batch: usize, hidden: usize, heads: usize, context: usize) -> Kernel {
    let mut cache = KvCache::new(batch, hidden, context);
    let kv = Tensor::randn([batch, context, hidden], 1.0, 3);
    cache.append(&kv, &kv);
    let q = Tensor::randn([batch, hidden], 1.0, 4);
    let seconds = per_call_s(|| {
        black_box(mha_decode(black_box(&q), &cache, heads));
    });
    Kernel {
        metric: "tensor.mha_decode.gflops",
        shape: format!("batch {batch}, context {context}, hidden {hidden}, {heads} heads"),
        // q·Kᵀ and softmax·V over every cached position.
        flops: 4.0 * (batch * context * hidden) as f64,
        bytes: F32 * (2 * batch * context * hidden + 2 * batch * hidden) as f64,
        seconds,
    }
}

fn attention_prefill(batch: usize, seq: usize, hidden: usize, heads: usize) -> Kernel {
    let q = Tensor::randn([batch, seq, hidden], 1.0, 5);
    let seconds = per_call_s(|| {
        black_box(mha_prefill(black_box(&q), &q, &q, heads));
    });
    // Causal: query i attends to i + 1 keys.
    let pairs = (seq * (seq + 1) / 2) as f64;
    Kernel {
        metric: "tensor.mha_prefill.gflops",
        shape: format!("batch {batch}, {seq} tokens, hidden {hidden}, {heads} heads, causal"),
        flops: 4.0 * batch as f64 * pairs * hidden as f64,
        bytes: F32 * (4 * batch * seq * hidden) as f64,
        seconds,
    }
}

/// Dequantize every weight matrix of one OPT-125M layer from int4.
fn dequant_layer(hidden: usize, ffn: usize) -> Kernel {
    let shapes = [
        [hidden, hidden],
        [hidden, hidden],
        [hidden, hidden],
        [hidden, hidden],
        [ffn, hidden],
        [hidden, ffn],
    ];
    let packed: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| quantize(&Tensor::randn(s, 0.05, 10 + i as u64), QuantConfig::int4()))
        .collect();
    let elems: usize = shapes.iter().map(|[a, b]| a * b).sum();
    let packed_bytes: usize = packed.iter().map(|q| q.bytes()).sum();
    let seconds = per_call_s(|| {
        for q in &packed {
            black_box(dequantize(black_box(q)));
        }
    });
    Kernel {
        metric: "tensor.dequant_int4.gibs",
        shape: format!("one layer, {elems} weights"),
        flops: 0.0,
        bytes: (packed_bytes + elems * 4) as f64,
        seconds,
    }
}

/// Quantize one decode step's new K (or V) rows to int4, as the
/// compressed KV cache does on every append.
fn quant_kv(batch: usize, hidden: usize) -> Kernel {
    let k = Tensor::randn([batch, hidden], 1.0, 20);
    let out_bytes = quantize(&k, QuantConfig::int4()).bytes();
    let seconds = per_call_s(|| {
        black_box(quantize(black_box(&k), QuantConfig::int4()));
    });
    Kernel {
        metric: "tensor.quant_int4_kv.gibs",
        shape: format!("{batch}x{hidden}"),
        flops: 0.0,
        bytes: (batch * hidden * 4 + out_bytes) as f64,
        seconds,
    }
}

/// Replay every kernel and record its rate. Rates of the `.gflops`
/// metrics are FLOP-based; `.gibs` ones use the computed bytes.
pub fn replay(report: &mut Report) {
    let m = model();
    let (h, ffn, heads) = (
        m.hidden as usize,
        m.ffn_hidden as usize,
        m.num_heads as usize,
    );
    let kernels = [
        matmul("tensor.matmul_decode.gflops", DECODE.batch, h, ffn),
        matmul(
            "tensor.unembed.gflops",
            DECODE.batch,
            h,
            m.vocab_size as usize,
        ),
        attention_decode(DECODE.batch, h, heads, DECODE.prompt_len + DECODE.gen_len),
        matmul(
            "tensor.matmul_prefill.gflops",
            PREFILL.batch * PREFILL.prompt_len,
            h,
            ffn,
        ),
        attention_prefill(PREFILL.batch, PREFILL.prompt_len, h, heads),
        dequant_layer(h, ffn),
        quant_kv(DECODE.batch, h),
    ];
    for k in kernels {
        let gflops = k.flops / k.seconds / 1e9;
        let gibs = k.bytes / k.seconds / (1u64 << 30) as f64;
        report.set(
            k.metric,
            if k.metric.ends_with(".gibs") {
                gibs
            } else {
                gflops
            },
        );
        report.note(format!(
            "kernel {:<30} {:<48} {:>12.0} FLOP {:>12.0} B (computed) {:>9.3} ms/call {:>8.2} GFLOP/s {:>7.2} GiB/s",
            k.metric,
            k.shape,
            k.flops,
            k.bytes,
            k.seconds * 1e3,
            gflops,
            gibs
        ));
    }
}
