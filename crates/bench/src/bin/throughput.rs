//! Softmax harness: per-kernel roofline, tiled-streamed attention and
//! the open-loop scheduler.
//!
//! Exactly one mode flag picks what runs. End-to-end serving throughput
//! (wire, server, closed-loop clients) is measured by the repository
//! benchmark in `perfbench/`, not here.
//!
//! * **roofline mode** (`--roofline`) — per-kernel roofline analysis:
//!   the scalar oracle `forward` vs the row path `forward_into` (the
//!   `fused` column), at row lengths {64, 256, 1024, 4096}. Before any
//!   kernel is timed the harness measures the machine's ceilings — a
//!   STREAM-style triad sweep for sustainable memory bandwidth and the
//!   per-element cost of libm `exp`/`exp2` (the float reference
//!   kernels' compute ceiling). Each kernel × row-length cell then gets
//!   an analytic bytes-swept-per-element model, the achieved fraction
//!   of the memory ceiling, and a bound
//!   classification (`memory-bound`, `float-compute-bound`, or
//!   `fixed-compute-bound`); written to `BENCH_PR6.json`.
//!
//! * **stream mode** (`--stream`) — whole attention heads through two
//!   paths: **materialized** (the full O(n²) score matrix staged through
//!   `matmul_nt` → batched softmax → `P·V`) and **tiled-streamed**
//!   (QK^T column tiles fed straight into one reused per-head
//!   `StreamSession`, so no score/probability matrix ever exists and
//!   per-head scratch is O(n + tile)); attention rows/s per kernel at
//!   the same four lengths, written to `BENCH_PR4.json`.
//!
//! * **open-loop mode** (`--open-loop`) — the scheduler harness:
//!   seeded Poisson/bursty arrival schedules are replayed *open-loop*
//!   (every request is sent at its scheduled instant whether or not
//!   earlier ones have answered; a full router is a drop, never
//!   backpressure) against two single-worker shards under the router's
//!   one scheduler (least-cost routing plus work stealing). After
//!   calibrating per-request service time, the harness sweeps offered
//!   load through the saturation knee recording the latency-throughput
//!   curve and per-interval dstat-style counters, replays one bursty
//!   leg, and finally drives a mixed interactive/batch overload leg to
//!   compare per-class latency. Every survivor response is bit-checked
//!   against precomputed ground truth (a mismatch exits non-zero).
//!   `--assert-priority` exits non-zero unless interactive p99 <
//!   batch p99 — the CI sched-smoke gate. Written to `BENCH_PR8.json`.
//!
//! Before anything is timed, each faster path's output is asserted
//! **bit-identical** to the baseline path, so the CI smoke runs are real
//! correctness gates even though timings are never asserted (they'd be
//! flaky).
//!
//! Every report additionally records host metadata (CPU model, core
//! count, lane width, rustc version) under a `"host"` key — see
//! `softermax_bench::host_metadata`.
//!
//! ```text
//! usage: throughput (--roofline | --stream | --open-loop) [--seed S] [--assert-priority] [--smoke] [--out PATH]
//!   --roofline         scalar forward vs row path forward_into per kernel, against measured ceilings
//!   --stream           compare materialized vs tiled-streamed attention heads
//!   --open-loop        open-loop saturation sweep, bursty leg, priority latency
//!   --seed             arrival-schedule seed (default 42; --open-loop only)
//!   --assert-priority  exit 1 unless interactive p99 < batch p99 (--open-loop only)
//!   --smoke            short measurement budgets (CI smoke test)
//!   --out              output JSON path (default BENCH_PR6/4/8.json by mode)
//! ```
//!
//! No mode flag, more than one, an unknown flag, a bad value, or a gate
//! or seed flag outside its mode prints the usage line and exits 2.
//!
//! The deterministic fault-injection gate is the tier-1 test
//! `crates/serve/tests/faults.rs`; `BENCH_PR7.json` is the record of the
//! chaos mode it replaced.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softermax::kernel::{ScratchBuffers, SoftmaxKernel};
use softermax::SoftmaxError;
use softermax_bench::{attention_scores, print_header, print_row, registry};
use softermax_serve::traffic::synthetic_matrix;
use softermax_serve::{Admission, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission};
use softermax_transformer::attention::{
    attention_head_materialized, attention_head_streamed, head_scratch_estimates, KernelSoftmax,
};
use softermax_transformer::tensor::Matrix;

/// Row lengths swept by the harness (the paper's sequence-length scale).
const ROW_LENS: [usize; 4] = [64, 256, 1024, 4096];

/// Head dimension of the stream-mode attention benchmark: small enough
/// that the QK^T cost does not drown the softmax paths being compared at
/// row length 4096, large enough to be a real head.
const STREAM_D_HEAD: usize = 16;

/// Column-tile width of the streamed attention path in stream mode.
const STREAM_TILE: usize = 64;

/// Request geometry of open-loop mode: `OL_ROWS` rows per request, a
/// few milliseconds of service.
const OL_ROWS: usize = 64;
const OL_ROW_LEN: usize = 1024;

/// Precomputed payload variants each schedule cycles through: fresh bits
/// per request without paying matrix generation inside the dispatch
/// loop, while keeping every response bit-checkable against precomputed
/// ground truth.
const OL_VARIANTS: usize = 4;

/// Every open-loop leg runs two single-worker shards. On a small box the
/// workers share cores anyway, so raw compute capacity is identical
/// in every leg — load shape and priority order are the only things the
/// legs differ on.
const OL_SHARDS: usize = 2;

/// Admission bound per shard: deep enough that bursts are absorbed as
/// queueing (visible as latency and deadline expiry) rather than
/// instantly as drops.
const OL_QUEUE_DEPTH: usize = 64;

/// Offered-load fractions of calibrated capacity swept for the
/// latency-throughput knee.
const OL_SWEEP: [f64; 5] = [0.4, 0.7, 0.9, 1.05, 1.3];
const OL_SWEEP_SMOKE: [f64; 2] = [0.6, 1.2];

/// dstat-style sampling interval (shortened in smoke runs).
const OL_INTERVAL_MS: u64 = 100;

/// The usage line printed with every usage error.
const USAGE: &str = "usage: throughput (--roofline | --stream | --open-loop) [--seed S] [--assert-priority] [--smoke] [--out PATH]";

/// What one invocation runs; exactly one mode flag picks it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Roofline,
    Stream,
    OpenLoop,
}

/// Prints `msg` and the usage line, then exits 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, parsed and checked by `valid`; anything else
/// is a usage error.
fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|v| valid(v))
        .unwrap_or_else(|| usage_exit(&format!("{flag} needs {expected}")))
}

fn main() {
    let mut modes: Vec<Mode> = Vec::new();
    let mut assert_priority = false;
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut out_path: Option<String> = None;
    let (mut warmup_ms, mut measure_ms) = (30u64, 160u64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--roofline" => modes.push(Mode::Roofline),
            "--stream" => modes.push(Mode::Stream),
            "--open-loop" => modes.push(Mode::OpenLoop),
            "--assert-priority" => assert_priority = true,
            "--seed" => seed = Some(flag_value(&mut args, &arg, "an unsigned integer", |_| true)),
            "--smoke" => {
                smoke = true;
                warmup_ms = 2;
                measure_ms = 8;
            }
            "--out" => out_path = Some(flag_value(&mut args, &arg, "a path", |_| true)),
            other => usage_exit(&format!("unknown flag '{other}'")),
        }
    }
    let &[mode] = modes.as_slice() else {
        usage_exit("give exactly one of --roofline, --stream and --open-loop");
    };
    // A gate or seed flag outside its mode would be silently ignored.
    if (seed.is_some() || assert_priority) && mode != Mode::OpenLoop {
        usage_exit("--seed and --assert-priority only apply to --open-loop");
    }
    let warmup = Duration::from_millis(warmup_ms);
    let budget = Duration::from_millis(measure_ms);
    let out = |default: &str| out_path.clone().unwrap_or_else(|| default.to_string());

    match mode {
        Mode::Roofline => roofline_harness(
            warmup,
            budget,
            warmup_ms,
            measure_ms,
            smoke,
            &out("BENCH_PR6.json"),
        ),
        Mode::Stream => stream_harness(
            warmup,
            budget,
            warmup_ms,
            measure_ms,
            &out("BENCH_PR4.json"),
        ),
        Mode::OpenLoop => open_loop_harness(
            smoke,
            seed.unwrap_or(42),
            assert_priority,
            &out("BENCH_PR8.json"),
        ),
    }
}

/// Elements per f64 array in the memory-bandwidth triad sweep: 4 Mi
/// (three 32 MiB arrays, far past any last-level cache on this class of
/// host), so the sweep measures DRAM, not cache.
const TRIAD_ELEMS: usize = 4 << 20;
const TRIAD_ELEMS_SMOKE: usize = 256 << 10;

/// Best-of passes for the triad sweep (one preempted pass must not
/// depress the reported ceiling).
const TRIAD_PASSES: usize = 7;

/// One completed measurement from [`measure`]: the mean wall time per
/// iteration and how many iterations were timed.
#[derive(Clone, Copy)]
struct Measurement {
    ns_per_iter: f64,
    iters: u64,
}

/// Times `f`: a `warmup` pass of the loop below, then calibrated
/// batches (each about 1 ms) until `budget` is spent.
fn measure<O>(warmup: Duration, budget: Duration, mut f: impl FnMut() -> O) -> Measurement {
    timed_loop(warmup, &mut f);
    let (total, iters) = timed_loop(budget, &mut f);
    Measurement {
        ns_per_iter: total.as_nanos() as f64 / iters as f64,
        iters,
    }
}

/// Runs calibrated batches of `f` until `budget` is spent; returns the
/// accumulated time and iteration count (always at least one batch).
fn timed_loop<O>(budget: Duration, f: &mut impl FnMut() -> O) -> (Duration, u64) {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    while total < budget || iters == 0 {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        total += t0.elapsed();
        iters += batch;
    }
    (total, iters)
}

/// Best-of-N wrapper around [`measure`] for roofline mode: on a shared
/// host one preempted measurement window must not masquerade as kernel
/// cost (timings are recorded, never asserted, exactly as elsewhere).
fn measure_best<O>(
    attempts: usize,
    warmup: Duration,
    budget: Duration,
    mut f: impl FnMut() -> O,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..attempts {
        let m = measure(warmup, budget, &mut f);
        if best.is_none_or(|b| m.ns_per_iter < b.ns_per_iter) {
            best = Some(m);
        }
    }
    best.expect("at least one attempt runs")
}

/// The roofline analysis: the scalar oracle `forward` vs the row path
/// `forward_into`, each cell placed against the machine's measured
/// memory-bandwidth and float-exp ceilings.
fn roofline_harness(
    warmup: Duration,
    budget: Duration,
    warmup_ms: u64,
    measure_ms: u64,
    smoke: bool,
    out_path: &str,
) {
    let attempts = if smoke { 1 } else { 3 };

    // The machine's ceilings, measured before any kernel is timed.
    let triad_bytes_per_s = measure_triad_bandwidth(smoke);
    let (exp_ns_per_elem, exp2_ns_per_elem) = measure_float_exp_ns(warmup, budget);
    println!("# Per-kernel roofline: scalar forward vs row path forward_into\n");
    println!(
        "measured ceilings: triad {:.2} GB/s, libm exp {exp_ns_per_elem:.2} ns/elem, \
         exp2 {exp2_ns_per_elem:.2} ns/elem\n",
        triad_bytes_per_s / 1e9,
    );
    print_header(&[
        "kernel",
        "len",
        "scalar ns/row",
        "fused ns/row",
        "fused vs scalar",
        "B/elem",
        "% mem ceiling",
        "bound",
    ]);

    let registry = registry();
    let mut entries: Vec<serde_json::Value> = Vec::new();
    for kernel in &registry {
        for &len in &ROW_LENS {
            let row = attention_scores(len, 2.5, 42);
            let mut scratch = ScratchBuffers::default();
            let mut probs = vec![0.0f64; len];

            // Guard before timing: the oracle and the row path must agree
            // bit for bit.
            let want = kernel.forward(&row).expect("non-empty row");
            kernel
                .forward_into(&row, &mut probs, &mut scratch)
                .expect("non-empty row");
            assert_eq!(
                probs,
                want,
                "{} forward_into diverged from forward at len {len}",
                kernel.name()
            );

            let scalar = measure_best(attempts, warmup, budget, || {
                black_box(kernel.forward(black_box(&row)).expect("non-empty row"))
            });
            let fused = measure_best(attempts, warmup, budget, || {
                kernel
                    .forward_into(black_box(&row), black_box(&mut probs), &mut scratch)
                    .expect("non-empty row");
            });

            let fused_ns_per_elem = fused.ns_per_iter / len as f64;
            let bytes_per_elem = fused_bytes_per_elem(kernel.name());
            let achieved_bytes_per_s = bytes_per_elem * 1e9 / fused_ns_per_elem;
            let pct_of_mem_ceiling = achieved_bytes_per_s / triad_bytes_per_s;
            // Ratio of the kernel's per-element time to the measured libm
            // ceiling of its own base family; ≲ a few means the per-element
            // transcendental dominates and lane-blocking the surrounding
            // passes cannot help — the PR-2 "no-op vectorization" of the
            // reference kernels, now classified instead of unexplained.
            let float_ceiling_ns = match kernel.descriptor().base {
                softermax::kernel::BaseKind::E => exp_ns_per_elem,
                softermax::kernel::BaseKind::Two => exp2_ns_per_elem,
            };
            let float_ceiling_ratio = fused_ns_per_elem / float_ceiling_ns;
            let classification = if kernel.name().starts_with("reference") {
                "float-compute-bound"
            } else if pct_of_mem_ceiling >= 0.7 {
                "memory-bound"
            } else {
                "fixed-compute-bound"
            };

            let fused_vs_scalar = scalar.ns_per_iter / fused.ns_per_iter;
            print_row(&[
                kernel.name().to_string(),
                len.to_string(),
                format!("{:.0}", scalar.ns_per_iter),
                format!("{:.0}", fused.ns_per_iter),
                softermax_bench::fmt_ratio(fused_vs_scalar),
                format!("{bytes_per_elem:.0}"),
                format!("{:.1}", pct_of_mem_ceiling * 100.0),
                classification.to_string(),
            ]);
            entries.push(serde_json::json!({
                "kernel": kernel.name(),
                "row_len": len,
                "scalar_ns_per_row": scalar.ns_per_iter,
                "fused_ns_per_row": fused.ns_per_iter,
                "fused_speedup_vs_scalar": fused_vs_scalar,
                "fused_melem_per_s": len as f64 / fused.ns_per_iter * 1e3,
                "fused_bytes_per_elem": bytes_per_elem,
                "fused_achieved_gb_per_s": achieved_bytes_per_s / 1e9,
                "pct_of_mem_ceiling": pct_of_mem_ceiling,
                "float_ceiling_ratio": float_ceiling_ratio,
                "classification": classification,
                "scalar_iters": scalar.iters,
                "fused_iters": fused.iters,
            }));
        }
    }

    let report = serde_json::json!({
        "benchmark": "softmax_roofline",
        "description": "scalar SoftmaxKernel::forward vs the row path SoftmaxKernel::forward_into (the fused_* keys), per kernel and row length, against measured memory-bandwidth and libm-exp ceilings",
        "row_lens": ROW_LENS.to_vec(),
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "ceilings": {
            "triad_gb_per_s": triad_bytes_per_s / 1e9,
            "triad_elems_per_array": if smoke { TRIAD_ELEMS_SMOKE } else { TRIAD_ELEMS },
            "libm_exp_ns_per_elem": exp_ns_per_elem,
            "libm_exp2_ns_per_elem": exp2_ns_per_elem,
        },
        "results": serde_json::Value::Array(entries),
    });
    write_report(out_path, &report);
}

/// STREAM-style triad (`a[i] = b[i] + s·c[i]`) over arrays far larger
/// than the last-level cache: the sustainable memory-bandwidth ceiling
/// per-kernel arithmetic is placed against. Counts 24 bytes moved per
/// element (two reads, one write; the write-allocate fill is not
/// counted, so the ceiling is conservative). Best of [`TRIAD_PASSES`]
/// passes.
fn measure_triad_bandwidth(smoke: bool) -> f64 {
    let n = if smoke {
        TRIAD_ELEMS_SMOKE
    } else {
        TRIAD_ELEMS
    };
    let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let c: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 + 1.0).collect();
    let mut a = vec![0.0f64; n];
    let s = 3.0f64;
    let mut best_s = f64::INFINITY;
    for _ in 0..TRIAD_PASSES {
        let t0 = std::time::Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&a);
        best_s = best_s.min(t0.elapsed().as_secs_f64().max(1e-12));
    }
    (n * 24) as f64 / best_s
}

/// Measured per-element cost of libm `exp` and `exp2` over in-range
/// softmax exponents: the compute ceiling of the float reference
/// kernels, whose per-element transcendental no lane-blocking removes.
fn measure_float_exp_ns(warmup: Duration, budget: Duration) -> (f64, f64) {
    let n = 4096usize;
    let xs: Vec<f64> = (0..n).map(|i| -(i as f64 % 20.0) - 0.5).collect();
    let mut out = vec![0.0f64; n];
    let exp = measure(warmup, budget, || {
        for (o, &x) in out.iter_mut().zip(&xs) {
            *o = black_box(x).exp();
        }
        black_box(&out);
    });
    let exp2 = measure(warmup, budget, || {
        for (o, &x) in out.iter_mut().zip(&xs) {
            *o = black_box(x).exp2();
        }
        black_box(&out);
    });
    (exp.ns_per_iter / n as f64, exp2.ns_per_iter / n as f64)
}

/// Analytic bytes swept per element by each kernel's row path
/// `forward_into`: 8 bytes per f64/i64 lane touched, counting each
/// full-row pass's reads and writes (per-slice staging that stays in
/// cache-resident scratch is counted the same way — the model is a sweep
/// count, not a cache simulation).
fn fused_bytes_per_elem(kernel: &str) -> f64 {
    match kernel {
        // Three passes: max (r), exp + sum (r + w), normalize (r + w).
        "reference-e" | "reference-2" => 40.0,
        // The online pass reads the scores and writes each term into the
        // output (r + w); the division pass reads the terms, plus the
        // scores before the last max raise, and writes (r + r + w) at
        // most.
        "online-e" | "online-2" | "online-intmax" => 40.0,
        // Three sweeps over the output, where every binary16 value is
        // staged as an f64: quantize + max (r + w), exponentials + sum
        // (r + w), divide (r + w).
        "fp16" => 48.0,
        // Three sweeps: quantize + max, staging each quantized score in
        // the output (r + w), LUT exponentials + sum in place (r + w),
        // divide (r + w).
        "lut8" => 48.0,
        // Stage 0 (quantize -> prescale -> requantize) in one sweep
        // (r + w), ceil-max + sub -> 2^x -> sum in place (r + w),
        // normalization pass (r + w).
        "softermax" => 48.0,
        // Conservative default for out-of-registry kernels: three
        // read+write passes.
        _ => 48.0,
    }
}

/// The PR-4 comparison: materialized attention heads (full score matrix)
/// vs tiled-streamed heads (`StreamSession`s fed straight off QK^T
/// column tiles, no score matrix ever materialized).
fn stream_harness(
    warmup: Duration,
    budget: Duration,
    warmup_ms: u64,
    measure_ms: u64,
    out_path: &str,
) {
    println!(
        "# Attention throughput: materialized score matrix vs tiled-streamed sessions \
         (d_head {STREAM_D_HEAD}, tile {STREAM_TILE})\n"
    );
    print_header(&[
        "kernel",
        "seq",
        "materialized Krows/s",
        "streamed Krows/s",
        "streamed/materialized",
        "scratch elems (mat)",
        "scratch elems (stream)",
    ]);

    let registry = registry();
    let mut entries: Vec<serde_json::Value> = Vec::new();
    for kernel in &registry {
        let backend = KernelSoftmax::from_kernel(std::sync::Arc::clone(kernel));
        for &seq in &ROW_LENS {
            // Deterministic Q/K/V from the shared traffic sampler; the
            // three seeds make the matrices independent.
            let qkv: Vec<Matrix> = (0..3)
                .map(|m| {
                    let vals =
                        softermax_serve::traffic::synthetic_matrix(seq, STREAM_D_HEAD, 1.0, 7 + m);
                    Matrix::from_vec(seq, STREAM_D_HEAD, vals.iter().map(|&v| v as f32).collect())
                })
                .collect();
            let (q, k, v) = (&qkv[0], &qkv[1], &qkv[2]);
            let scale = 1.0 / (STREAM_D_HEAD as f32).sqrt();

            // Guard before timing: the streamed head must be bit-identical
            // to the materialized head for every tile-tail geometry.
            let want = attention_head_materialized(&backend, q, k, v, scale);
            let got = attention_head_streamed(kernel.as_ref(), q, k, v, scale, STREAM_TILE);
            assert_eq!(
                got,
                want,
                "{} streamed attention diverged from materialized at seq {seq}",
                kernel.name()
            );

            let materialized = measure(warmup, budget, || {
                black_box(attention_head_materialized(
                    &backend,
                    black_box(q),
                    black_box(k),
                    black_box(v),
                    scale,
                ))
            });
            let streamed = measure(warmup, budget, || {
                black_box(attention_head_streamed(
                    kernel.as_ref(),
                    black_box(q),
                    black_box(k),
                    black_box(v),
                    scale,
                    STREAM_TILE,
                ))
            });

            let rows_per_s = |ns_per_head: f64| seq as f64 / ns_per_head * 1e9;
            let mat_rows = rows_per_s(materialized.ns_per_iter);
            let stream_rows = rows_per_s(streamed.ns_per_iter);
            let ratio = materialized.ns_per_iter / streamed.ns_per_iter;
            let (mat_scratch, stream_scratch) =
                head_scratch_estimates(kernel.descriptor(), seq, STREAM_TILE);
            print_row(&[
                kernel.name().to_string(),
                seq.to_string(),
                format!("{:.1}", mat_rows / 1e3),
                format!("{:.1}", stream_rows / 1e3),
                softermax_bench::fmt_ratio(ratio),
                mat_scratch.to_string(),
                stream_scratch.to_string(),
            ]);
            entries.push(serde_json::json!({
                "kernel": kernel.name(),
                "row_len": seq,
                "d_head": STREAM_D_HEAD,
                "tile": STREAM_TILE,
                "materialized_ns_per_head": materialized.ns_per_iter,
                "streamed_ns_per_head": streamed.ns_per_iter,
                "materialized_rows_per_s": mat_rows,
                "streamed_rows_per_s": stream_rows,
                "streamed_speedup_vs_materialized": ratio,
                "materialized_scratch_elems": mat_scratch,
                "streamed_scratch_elems": stream_scratch,
                "bit_identical": true,
            }));
        }
    }

    let report = serde_json::json!({
        "benchmark": "attention_stream_throughput",
        "description": "materialized attention heads (O(n^2) score matrix -> batched softmax -> P*V) vs tiled-streamed heads (QK^T column tiles into reused per-head StreamSessions, O(n + tile) scratch), ns per head",
        "row_lens": ROW_LENS.to_vec(),
        "d_head": STREAM_D_HEAD,
        "tile": STREAM_TILE,
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "results": serde_json::Value::Array(entries),
    });
    write_report(out_path, &report);
}

/// One arrival of an open-loop schedule: when to send, which payload,
/// and at which priority.
#[derive(Clone, Copy)]
struct OlArrival {
    at_ns: u64,
    variant: usize,
    priority: Priority,
}

/// Precomputed request payloads and their bit-exact sequential ground
/// truth, per variant.
struct OlPayloads {
    matrices: Vec<Vec<f64>>,
    wants: Vec<Vec<u64>>,
}

impl OlPayloads {
    fn build(kernel: &Arc<dyn SoftmaxKernel>) -> Self {
        let mut matrices = Vec::with_capacity(OL_VARIANTS);
        let mut wants = Vec::with_capacity(OL_VARIANTS);
        let mut scratch = ScratchBuffers::default();
        for variant in 0..OL_VARIANTS {
            let matrix = synthetic_matrix(OL_ROWS, OL_ROW_LEN, 2.5, 11_000 + variant as u64);
            let mut out = vec![0.0; matrix.len()];
            for (row, out_row) in matrix
                .chunks_exact(OL_ROW_LEN)
                .zip(out.chunks_exact_mut(OL_ROW_LEN))
            {
                kernel
                    .forward_into(row, out_row, &mut scratch)
                    .expect("ground truth row");
            }
            wants.push(out.iter().map(|v| v.to_bits()).collect());
            matrices.push(matrix);
        }
        Self { matrices, wants }
    }
}

/// Counters shared between the open-loop dispatcher, the response
/// collectors and the dstat sampler.
#[derive(Default)]
struct OlCounters {
    submitted: AtomicU64,
    dropped: AtomicU64,
    completed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    mismatched: AtomicU64,
    rows_completed: AtomicU64,
    rows_in_span: AtomicU64,
}

/// One completed response: which class it was and how long it took from
/// its *scheduled* arrival instant to its response (open-loop sojourn,
/// generator lag included).
struct OlSample {
    priority: Priority,
    sojourn_ns: u64,
}

/// Everything one open-loop leg reports.
struct OlLeg {
    offered_req_per_s: f64,
    offered_rows_per_s: f64,
    span_s: f64,
    submitted: u64,
    dropped: u64,
    completed: u64,
    expired: u64,
    failed: u64,
    mismatched: u64,
    rows_offered: u64,
    rows_completed: u64,
    rows_in_span: u64,
    goodput_rows_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    interactive_p50_ms: f64,
    interactive_p99_ms: f64,
    batch_p50_ms: f64,
    batch_p99_ms: f64,
    interactive_completed: u64,
    batch_completed: u64,
    jobs_stolen: u64,
    intervals: Vec<serde_json::Value>,
}

impl OlLeg {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "offered_req_per_s": self.offered_req_per_s,
            "offered_rows_per_s": self.offered_rows_per_s,
            "span_s": self.span_s,
            "submitted": self.submitted,
            "dropped": self.dropped,
            "completed": self.completed,
            "expired": self.expired,
            "failed": self.failed,
            "rows_offered": self.rows_offered,
            "rows_completed": self.rows_completed,
            "rows_completed_in_span": self.rows_in_span,
            "goodput_rows_per_s": self.goodput_rows_per_s,
            "sojourn_p50_ms": self.p50_ms,
            "sojourn_p99_ms": self.p99_ms,
            "jobs_stolen": self.jobs_stolen,
            "intervals": self.intervals,
        })
    }
}

/// Draws a Poisson arrival process at `rate` requests/s over `span`:
/// i.i.d. exponential inter-arrival gaps by inverse CDF over the seeded
/// generator, so a given (seed, rate, span) always replays the exact
/// same schedule. Each arrival is Batch-class with probability
/// `batch_frac` (0 = all interactive).
fn ol_poisson(rate: f64, span: Duration, seed: u64, batch_frac: f64) -> Vec<OlArrival> {
    let span_ns = span.as_nanos() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    let mut index = 0usize;
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / rate;
        let at_ns = (t * 1e9) as u64;
        if at_ns >= span_ns {
            return schedule;
        }
        let priority = if batch_frac > 0.0 && rng.gen_bool(batch_frac) {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        schedule.push(OlArrival {
            at_ns,
            variant: index % OL_VARIANTS,
            priority,
        });
        index += 1;
    }
}

/// A bursty arrival process averaging `rate`: Poisson gaps whose
/// instantaneous rate alternates between 1.8x and 0.2x the mean in
/// 150 ms blocks — the same offered load as the matching Poisson leg,
/// delivered in squalls that exercise queue pooling.
fn ol_bursty(rate: f64, span: Duration, seed: u64) -> Vec<OlArrival> {
    const BLOCK_NS: u64 = 150_000_000;
    let span_ns = span.as_nanos() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    let mut index = 0usize;
    loop {
        let block = (t * 1e9) as u64 / BLOCK_NS;
        let factor = if block.is_multiple_of(2) { 1.8 } else { 0.2 };
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / (rate * factor);
        let at_ns = (t * 1e9) as u64;
        if at_ns >= span_ns {
            return schedule;
        }
        schedule.push(OlArrival {
            at_ns,
            variant: index % OL_VARIANTS,
            priority: Priority::Interactive,
        });
        index += 1;
    }
}

/// The shard configuration every open-loop leg uses: one worker per
/// shard and a queue deep enough to absorb bursts as latency.
fn ol_config() -> ServeConfig {
    ServeConfig::new(1).with_queue_depth(OL_QUEUE_DEPTH)
}

/// Calibrates the mean service time (submit → response, payload clone
/// included — the dispatcher pays that clone at run time too) of one
/// request through a single dedicated worker.
fn ol_calibrate(kernel: &Arc<dyn SoftmaxKernel>, payloads: &[Vec<f64>], smoke: bool) -> Duration {
    let router =
        ShardedRouter::new(1, ol_config(), RoutePolicy::Adaptive).expect("calibration router");
    let reps = if smoke { 12 } else { 48 };
    for payload in payloads.iter().take(2) {
        router
            .submit(kernel, payload.clone(), OL_ROW_LEN)
            .expect("calibration warmup")
            .wait()
            .expect("calibration warmup");
    }
    let t0 = Instant::now();
    for i in 0..reps {
        router
            .submit(kernel, payloads[i % OL_VARIANTS].clone(), OL_ROW_LEN)
            .expect("calibration request")
            .wait()
            .expect("calibration request");
    }
    t0.elapsed() / reps as u32
}

/// Replays one arrival schedule open-loop against `router`: the
/// dispatcher sends every request at its scheduled instant (catching up
/// in batches if it oversleeps) and **never waits for replies** — a
/// router with every queue full is a drop, not backpressure. Two
/// collector threads absorb responses off the dispatcher's critical
/// path and bit-check every survivor; a sampler thread records
/// dstat-style per-interval counter deltas.
fn ol_run(
    router: &ShardedRouter,
    kernel: &Arc<dyn SoftmaxKernel>,
    payloads: &OlPayloads,
    schedule: &[OlArrival],
    span: Duration,
    deadline: Option<Duration>,
    interval: Duration,
) -> OlLeg {
    let counters = OlCounters::default();
    let run_done = AtomicBool::new(false);
    let samples: Mutex<Vec<OlSample>> = Mutex::new(Vec::new());
    let intervals: Mutex<Vec<serde_json::Value>> = Mutex::new(Vec::new());
    let span_ns = span.as_nanos() as u64;
    let start = Instant::now();

    let counters = &counters;
    let samples = &samples;
    let start_ref = &start;

    std::thread::scope(|outer| {
        let sampler = outer.spawn(|| {
            let mut prev = [0u64; 5];
            while !run_done.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                let now = [
                    counters.submitted.load(Ordering::Relaxed),
                    counters.dropped.load(Ordering::Relaxed),
                    counters.completed.load(Ordering::Relaxed),
                    counters.expired.load(Ordering::Relaxed),
                    router.jobs_stolen(),
                ];
                let row = serde_json::json!({
                    "t_ms": start_ref.elapsed().as_millis() as u64,
                    "submitted": now[0] - prev[0],
                    "dropped": now[1] - prev[1],
                    "completed": now[2] - prev[2],
                    "expired": now[3] - prev[3],
                    "stolen": now[4] - prev[4],
                    "queued_elems": router.load_cost(),
                });
                prev = now;
                let mut rows = intervals.lock().expect("interval rows");
                if rows.len() < 400 {
                    rows.push(row);
                }
            }
        });

        // The open-loop dispatcher: send at schedule (catching up in
        // batches after an oversleep), never wait for replies. Each
        // admitted ticket gets its own small waiter thread, so a
        // response's sojourn is recorded when *it* completes — a FIFO
        // collector would smear every class's latency into drain order.
        // Live waiters are bounded by what the admission queues hold, so
        // this stays at queue-depth-scale threads, not schedule-scale.
        std::thread::scope(|waiters| {
            for arrival in schedule {
                let target = start + Duration::from_nanos(arrival.at_ns);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let mut submission = Submission::new(
                    kernel,
                    payloads.matrices[arrival.variant].clone(),
                    OL_ROW_LEN,
                )
                .with_priority(arrival.priority);
                if let Some(d) = deadline {
                    submission = submission.with_deadline(d);
                }
                counters.submitted.fetch_add(1, Ordering::Relaxed);
                match router.submit_request(submission, Admission::Fail) {
                    Ok(ticket) => {
                        let arrival = *arrival;
                        let want = &payloads.wants[arrival.variant];
                        std::thread::Builder::new()
                            .stack_size(96 * 1024)
                            .spawn_scoped(waiters, move || match ticket.wait() {
                                Ok(out) => {
                                    let identical = out.len() == want.len()
                                        && out.iter().zip(want).all(|(a, b)| a.to_bits() == *b);
                                    if !identical {
                                        counters.mismatched.fetch_add(1, Ordering::Relaxed);
                                        return;
                                    }
                                    let end_ns = start_ref.elapsed().as_nanos() as u64;
                                    counters.completed.fetch_add(1, Ordering::Relaxed);
                                    counters
                                        .rows_completed
                                        .fetch_add(OL_ROWS as u64, Ordering::Relaxed);
                                    if end_ns <= span_ns {
                                        counters
                                            .rows_in_span
                                            .fetch_add(OL_ROWS as u64, Ordering::Relaxed);
                                    }
                                    samples.lock().expect("samples").push(OlSample {
                                        priority: arrival.priority,
                                        sojourn_ns: end_ns.saturating_sub(arrival.at_ns),
                                    });
                                }
                                Err(SoftmaxError::DeadlineExceeded) => {
                                    counters.expired.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    counters.failed.fetch_add(1, Ordering::Relaxed);
                                }
                            })
                            .expect("waiter thread");
                    }
                    Err(_) => {
                        counters.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        run_done.store(true, Ordering::Release);
        drop(sampler);
    });

    let span_s = span.as_secs_f64();
    let rows_offered = (schedule.len() * OL_ROWS) as u64;
    let samples = std::mem::take(&mut *samples.lock().expect("samples"));
    let sorted_ms = |filter: &dyn Fn(&OlSample) -> bool| -> Vec<f64> {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| filter(s))
            .map(|s| s.sojourn_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted_ms(&|_| true);
    let interactive = sorted_ms(&|s| s.priority == Priority::Interactive);
    let batch = sorted_ms(&|s| s.priority == Priority::Batch);
    let rows_completed = counters.rows_completed.load(Ordering::Relaxed);
    let rows_in_span = counters.rows_in_span.load(Ordering::Relaxed);
    OlLeg {
        offered_req_per_s: schedule.len() as f64 / span_s,
        offered_rows_per_s: rows_offered as f64 / span_s,
        span_s,
        submitted: counters.submitted.load(Ordering::Relaxed),
        dropped: counters.dropped.load(Ordering::Relaxed),
        completed: counters.completed.load(Ordering::Relaxed),
        expired: counters.expired.load(Ordering::Relaxed),
        failed: counters.failed.load(Ordering::Relaxed),
        mismatched: counters.mismatched.load(Ordering::Relaxed),
        rows_offered,
        rows_completed,
        rows_in_span,
        goodput_rows_per_s: rows_in_span as f64 / span_s,
        p50_ms: pctl(&all, 0.50),
        p99_ms: pctl(&all, 0.99),
        interactive_p50_ms: pctl(&interactive, 0.50),
        interactive_p99_ms: pctl(&interactive, 0.99),
        batch_p50_ms: pctl(&batch, 0.50),
        batch_p99_ms: pctl(&batch, 0.99),
        interactive_completed: interactive.len() as u64,
        batch_completed: batch.len() as u64,
        jobs_stolen: router.jobs_stolen(),
        intervals: intervals.into_inner().expect("interval rows"),
    }
}

/// The open-loop scheduler harness. See the module docs for the
/// leg-by-leg story; `seed` fixes every arrival schedule and
/// `assert_priority` gates the mixed-class leg.
fn open_loop_harness(smoke: bool, seed: u64, assert_priority: bool, out_path: &str) {
    let kernels = registry();
    let kernel = kernels
        .get("softermax")
        .unwrap_or_else(|| kernels.kernels()[0].clone());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let effective_workers = OL_SHARDS.min(cores);
    println!(
        "open-loop scheduler harness: kernel {}, {} shards x 1 worker ({} effective on {} cores), seed {}",
        kernel.name(),
        OL_SHARDS,
        effective_workers,
        cores,
        seed
    );

    let payloads = OlPayloads::build(&kernel);
    let service = ol_calibrate(&kernel, &payloads.matrices, smoke);
    let capacity_rows = effective_workers as f64 * OL_ROWS as f64 / service.as_secs_f64().max(1e-9);
    println!(
        "calibration: {}x{} = {:.3} ms ({:.0} rows/s capacity)",
        OL_ROWS,
        OL_ROW_LEN,
        service.as_secs_f64() * 1e3,
        capacity_rows
    );

    let leg_span = Duration::from_millis(if smoke { 250 } else { 1200 });
    let prio_span = Duration::from_millis(if smoke { 300 } else { 1500 });
    let interval = Duration::from_millis(if smoke { 25 } else { OL_INTERVAL_MS });
    // The sweep deadline only bites deep into saturation (a full shard
    // queue is worth ~64 service times), with an absolute floor against
    // timer jitter.
    let sweep_deadline = (service * 24).max(Duration::from_millis(10));
    let run = |schedule: &[OlArrival], span: Duration, deadline: Option<Duration>| {
        let router = ShardedRouter::new(OL_SHARDS, ol_config(), RoutePolicy::Adaptive)
            .expect("open-loop router");
        ol_run(
            &router, &kernel, &payloads, schedule, span, deadline, interval,
        )
    };

    // --- Leg 1: Poisson offered-load sweep to the saturation knee. ---
    println!(
        "\nknee sweep: Poisson arrivals, least-cost routing + stealing, deadline {:.1} ms",
        sweep_deadline.as_secs_f64() * 1e3
    );
    print_header(&[
        "load",
        "offered r/s",
        "goodput r/s",
        "done",
        "drop",
        "expired",
        "p50 ms",
        "p99 ms",
        "stolen",
    ]);
    let fractions: &[f64] = if smoke { &OL_SWEEP_SMOKE } else { &OL_SWEEP };
    let mut knee_legs: Vec<(f64, OlLeg)> = Vec::new();
    for (index, &fraction) in fractions.iter().enumerate() {
        let rate = fraction * capacity_rows / OL_ROWS as f64;
        let schedule = ol_poisson(rate, leg_span, seed.wrapping_add(index as u64), 0.0);
        let leg = run(&schedule, leg_span, Some(sweep_deadline));
        print_row(&[
            format!("{fraction:.2}"),
            format!("{:.0}", leg.offered_rows_per_s),
            format!("{:.0}", leg.goodput_rows_per_s),
            leg.completed.to_string(),
            leg.dropped.to_string(),
            leg.expired.to_string(),
            format!("{:.2}", leg.p50_ms),
            format!("{:.2}", leg.p99_ms),
            leg.jobs_stolen.to_string(),
        ]);
        knee_legs.push((fraction, leg));
    }
    let knee = knee_legs
        .iter()
        .max_by(|a, b| a.1.goodput_rows_per_s.total_cmp(&b.1.goodput_rows_per_s))
        .expect("non-empty sweep");
    let knee_fraction = knee.0;
    let knee_goodput = knee.1.goodput_rows_per_s;
    println!(
        "knee: goodput peaks at {:.0} rows/s ({:.2} of calibrated capacity)",
        knee_goodput, knee_fraction
    );

    // --- Leg 2: the same load near the knee, delivered in bursts. ---
    let bursty_rate = 0.9 * capacity_rows / OL_ROWS as f64;
    let bursty_schedule = ol_bursty(bursty_rate, leg_span, seed ^ 0xB0B5);
    let bursty = run(&bursty_schedule, leg_span, Some(sweep_deadline));
    println!(
        "bursty at 0.90 load: goodput {:.0} rows/s, {} dropped, {} expired, p99 {:.2} ms, {} stolen",
        bursty.goodput_rows_per_s, bursty.dropped, bursty.expired, bursty.p99_ms, bursty.jobs_stolen
    );

    // --- Leg 3: mixed priority classes under overload. Same-size
    // requests, so any p99 gap is pure dequeue policy, not job size. ---
    let prio_rate = 1.3 * capacity_rows / OL_ROWS as f64;
    let prio_schedule = ol_poisson(prio_rate, prio_span, seed ^ 0x9170, 0.5);
    let prio = run(&prio_schedule, prio_span, None);
    let priority_holds = prio.interactive_completed > 0
        && prio.batch_completed > 0
        && prio.interactive_p99_ms < prio.batch_p99_ms;
    println!(
        "priority at 1.30 load: interactive p50/p99 {:.2}/{:.2} ms ({} done), batch p50/p99 {:.2}/{:.2} ms ({} done) -> interactive p99 < batch p99: {}",
        prio.interactive_p50_ms,
        prio.interactive_p99_ms,
        prio.interactive_completed,
        prio.batch_p50_ms,
        prio.batch_p99_ms,
        prio.batch_completed,
        priority_holds
    );

    let total_mismatched = knee_legs
        .iter()
        .map(|(_, leg)| leg.mismatched)
        .chain([bursty.mismatched, prio.mismatched])
        .sum::<u64>();

    let report = serde_json::json!({
        "mode": "open-loop",
        "smoke": smoke,
        "seed": seed,
        "kernel": kernel.name(),
        "shards": OL_SHARDS,
        "effective_workers": effective_workers,
        "request": {
            "rows": OL_ROWS,
            "row_len": OL_ROW_LEN,
            "queue_depth": OL_QUEUE_DEPTH,
        },
        "calibration": {
            "service_ms": service.as_secs_f64() * 1e3,
            "capacity_rows_per_s": capacity_rows,
        },
        "deadlines_ms": {
            "sweep": sweep_deadline.as_secs_f64() * 1e3,
        },
        "knee": {
            "arrivals": "poisson",
            "legs": knee_legs
                .iter()
                .map(|(fraction, leg)| {
                    let mut value = leg.to_json();
                    if let serde_json::Value::Object(fields) = &mut value {
                        fields.push(("load_fraction".to_string(), serde_json::json!(fraction)));
                    }
                    value
                })
                .collect::<Vec<_>>(),
            "knee_load_fraction": knee_fraction,
            "knee_goodput_rows_per_s": knee_goodput,
        },
        "bursty": bursty.to_json(),
        "priority": {
            "batch_fraction": 0.5,
            "load_fraction": 1.3,
            "leg": prio.to_json(),
            "interactive_p50_ms": prio.interactive_p50_ms,
            "interactive_p99_ms": prio.interactive_p99_ms,
            "batch_p50_ms": prio.batch_p50_ms,
            "batch_p99_ms": prio.batch_p99_ms,
            "interactive_completed": prio.interactive_completed,
            "batch_completed": prio.batch_completed,
            "interactive_p99_below_batch": priority_holds,
        },
        "bit_identity": {
            "mismatched": total_mismatched,
        },
    });
    write_report(out_path, &report);

    if total_mismatched > 0 {
        eprintln!("BIT-IDENTITY FAILURE: {total_mismatched} survivor responses diverged from sequential execution");
        std::process::exit(1);
    }
    if assert_priority && !priority_holds {
        eprintln!(
            "PRIORITY FAILURE: interactive p99 {:.2} ms is not below batch p99 {:.2} ms",
            prio.interactive_p99_ms, prio.batch_p99_ms
        );
        std::process::exit(1);
    }
}

/// Interpolation-free percentile over an already-sorted sample set.
fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Writes one benchmark report, stamping the host/toolchain metadata
/// (CPU model, core count, lane width, rustc version) under a `"host"`
/// key — every mode's existing fields are untouched.
fn write_report(out_path: &str, report: &serde_json::Value) {
    let mut report = report.clone();
    match &mut report {
        serde_json::Value::Object(fields) => {
            fields.push(("host".to_string(), softermax_bench::host_metadata()));
        }
        _ => unreachable!("report is a JSON object"),
    }
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, text + "\n").expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
