//! Softmax harness: per-kernel roofline, tiled-streamed attention,
//! deterministic chaos serving and the open-loop scheduler.
//!
//! Exactly one mode flag picks what runs. End-to-end serving throughput
//! (wire, server, closed-loop clients) is measured by the repository
//! benchmark in `perfbench/`, not here.
//!
//! * **roofline mode** (`--roofline`) — per-kernel roofline analysis:
//!   scalar `forward` vs the fused SIMD pipeline (`forward_into`, the
//!   `fused` column), at row lengths {64, 256, 1024, 4096}. Before any
//!   kernel is timed the harness measures the machine's ceilings — a
//!   STREAM-style triad sweep for sustainable memory bandwidth, a
//!   TSC-vs-monotonic-clock calibration so nanoseconds convert to
//!   cycles, and the per-element cost of libm `exp`/`exp2` (the float
//!   reference kernels' compute ceiling). Each kernel × row-length cell
//!   then gets elems/cycle, an analytic bytes-swept-per-element model,
//!   the achieved fraction of the memory ceiling, and a bound
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
//! * **chaos mode** (`--chaos`) — the fault-tolerance harness: a
//!   closed-loop serving loop run against every kernel wrapped in a
//!   seeded `FaultyKernel`, whose `FaultPlan` injects panics, errors and
//!   latency spikes during a middle *fault window* of the run. Because
//!   the plan decides per forward-call index (not per wall-clock), the
//!   schedule — and therefore every counter (successes and failures per
//!   phase, injected faults, worker respawns) — is **deterministic**:
//!   the harness runs the whole schedule twice and hard-fails unless
//!   both runs produced identical counters. Availability and goodput
//!   during the window, latency percentiles per phase, and
//!   recovery-time-to-baseline are reported (timings are nondeterministic
//!   and never asserted); written to `BENCH_PR7.json`. `--floor X` exits
//!   non-zero when fault-window availability drops below `X` on any
//!   kernel — the CI chaos-smoke gate.
//!
//! * **open-loop mode** (`--open-loop`) — the scheduler harness:
//!   seeded Poisson/bursty arrival schedules are replayed *open-loop*
//!   (every request is sent at its scheduled instant whether or not
//!   earlier ones have answered; a full router is a drop, never
//!   backpressure) against two single-worker shards. After calibrating
//!   per-request service time, the harness sweeps offered load through
//!   the saturation knee recording the latency-throughput curve and
//!   per-interval dstat-style counters, replays one bursty leg, then
//!   replays an identical skewed (hot-shard) schedule under
//!   round-robin-without-stealing and adaptive-with-stealing and
//!   reports the deadline-goodput speedup, and finally drives a mixed
//!   interactive/batch overload leg to compare per-class latency.
//!   Every survivor response is bit-checked against precomputed ground
//!   truth (a mismatch exits non-zero). `--min-speedup X` exits
//!   non-zero when the skew speedup lands below `X`;
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
//! usage: throughput (--roofline | --stream | --chaos | --open-loop) [--seed S] [--floor F] [--min-speedup X] [--assert-priority] [--smoke] [--out PATH]
//!   --roofline         scalar vs fused per kernel, against measured ceilings
//!   --stream           compare materialized vs tiled-streamed attention heads
//!   --chaos            deterministic fault injection: availability, goodput, recovery
//!   --open-loop        open-loop saturation sweep, skew speedup, priority latency
//!   --seed             chaos fault-plan / arrival-schedule seed (default 42)
//!   --floor            minimum fault-window availability; exit 1 below it (--chaos only)
//!   --min-speedup      minimum skew-leg goodput speedup; exit 1 below it (--open-loop only)
//!   --assert-priority  exit 1 unless interactive p99 < batch p99 (--open-loop only)
//!   --smoke            short measurement budgets (CI smoke test)
//!   --out              output JSON path (default BENCH_PR6/4/7/8.json by mode)
//! ```
//!
//! No mode flag, more than one, an unknown flag, a bad value, or a gate
//! flag outside its mode prints the usage line and exits 2.

// Unsafe is audited (docs/UNSAFE_INVENTORY.md); inside `unsafe fn`,
// each unsafe operation still needs its own explicit block.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use criterion::{black_box, measure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softermax::kernel::{ScratchBuffers, SoftmaxKernel};
use softermax::SoftmaxError;
use softermax_bench::{attention_scores, print_header, print_row, registry};
use softermax_serve::fault::{silence_injected_panics, FaultPlan, FaultyKernel};
use softermax_serve::traffic::synthetic_matrix;
use softermax_serve::{
    Admission, BatchEngine, Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission,
};
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

/// Request shape of chaos mode: exactly one scheduling chunk per
/// request (the config pins `chunk_rows` to this), so the single
/// closed-loop client produces a *strictly sequential* stream of
/// per-row forward calls. That sequencing is what makes the fault
/// schedule — and therefore every success/failure counter — a pure
/// function of the seed, independent of thread interleaving.
const CHAOS_REQ_ROWS: usize = 32;
const CHAOS_REQ_LEN: usize = 64;

/// Per-forward-call fault probability inside the fault window. At 32
/// rows per request this gives a window request a ~48% chance of hitting
/// at least one fault — enough to kill workers and trip breakers while
/// leaving availability meaningfully measurable.
const CHAOS_RATE: f64 = 0.02;

/// Injected latency spike per `Delay` fault.
const CHAOS_DELAY_US: u64 = 2_000;

/// Shards in the chaos router: two, so breaker-open fail-over has
/// somewhere to go.
const CHAOS_SHARDS: usize = 2;

/// Consecutive in-budget responses that count as "recovered" when
/// measuring recovery time after the fault window closes.
const CHAOS_RECOVERY_STREAK: usize = 3;

/// Admission bound per shard in the chaos router.
const CHAOS_INFLIGHT: usize = 32;

/// Worker threads per shard in the chaos router.
const CHAOS_THREADS: usize = 4;

/// Request geometry of open-loop mode. `small` requests are the unit of
/// routine traffic — one scheduling chunk, a few milliseconds of
/// service. `huge` requests are the hot-shard drivers of the skew legs:
/// very long rows make one of them worth ~26 small service times, so it
/// parks a single-worker shard while smalls queue up (and expire) behind
/// it — yet it carries only 1.5x the *rows* of a small, so surviving
/// huge responses cannot drown the small-request goodput the skew
/// comparison is about. (Cost is rows x row length: long rows buy
/// blocking time without buying rows.)
const OL_SMALL_ROWS: usize = 64;
const OL_SMALL_LEN: usize = 1024;
const OL_HUGE_ROWS: usize = 96;
const OL_HUGE_LEN: usize = 16384;

/// Precomputed payload variants each schedule cycles through: fresh bits
/// per request without paying matrix generation inside the dispatch
/// loop, while keeping every response bit-checkable against precomputed
/// ground truth.
const OL_VARIANTS: usize = 4;

/// Every open-loop leg runs two single-worker shards. On a small box the
/// workers share cores anyway, so raw compute capacity is identical
/// under every policy — scheduling quality (placement, stealing,
/// priority order) is the only thing the legs can differ on.
const OL_SHARDS: usize = 2;

/// Admission bound per shard: deep enough that bursts are absorbed as
/// queueing (visible as latency and deadline expiry) rather than
/// instantly as drops.
const OL_QUEUE_DEPTH: usize = 64;

/// Offered-load fractions of calibrated capacity swept for the
/// latency-throughput knee.
const OL_SWEEP: [f64; 5] = [0.4, 0.7, 0.9, 1.05, 1.3];
const OL_SWEEP_SMOKE: [f64; 2] = [0.6, 1.2];

/// Every Nth arrival of the skew legs is a huge request.
const OL_HUGE_EVERY: usize = 8;

/// dstat-style sampling interval (shortened in smoke runs).
const OL_INTERVAL_MS: u64 = 100;

/// The usage line printed with every usage error.
const USAGE: &str = "usage: throughput (--roofline | --stream | --chaos | --open-loop) [--seed S] [--floor F] [--min-speedup X] [--assert-priority] [--smoke] [--out PATH]";

/// What one invocation runs; exactly one mode flag picks it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Roofline,
    Stream,
    Chaos,
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
    let mut min_speedup: Option<f64> = None;
    let mut assert_priority = false;
    let mut smoke = false;
    let mut seed = 42u64;
    let mut floor: Option<f64> = None;
    let mut out_path: Option<String> = None;
    let (mut warmup_ms, mut measure_ms) = (30u64, 160u64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--roofline" => modes.push(Mode::Roofline),
            "--stream" => modes.push(Mode::Stream),
            "--chaos" => modes.push(Mode::Chaos),
            "--open-loop" => modes.push(Mode::OpenLoop),
            "--min-speedup" => {
                min_speedup = Some(flag_value(&mut args, &arg, "a positive ratio", |s| {
                    *s > 0.0
                }));
            }
            "--assert-priority" => assert_priority = true,
            "--seed" => seed = flag_value(&mut args, &arg, "an unsigned integer", |_| true),
            "--floor" => {
                floor = Some(flag_value(&mut args, &arg, "a fraction in [0, 1]", |f| {
                    (0.0..=1.0).contains(f)
                }));
            }
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
        usage_exit("give exactly one of --roofline, --stream, --chaos and --open-loop");
    };
    // A gate flag outside its mode would silently disable the gate.
    if floor.is_some() && mode != Mode::Chaos {
        usage_exit("--floor only applies to --chaos");
    }
    if (min_speedup.is_some() || assert_priority) && mode != Mode::OpenLoop {
        usage_exit("--min-speedup and --assert-priority only apply to --open-loop");
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
        Mode::Chaos => chaos_harness(smoke, seed, floor, &out("BENCH_PR7.json")),
        Mode::OpenLoop => open_loop_harness(
            smoke,
            seed,
            min_speedup,
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

/// Best-of-N wrapper around [`measure`] for roofline mode: on a shared
/// host one preempted measurement window must not masquerade as kernel
/// cost (timings are recorded, never asserted, exactly as elsewhere).
fn measure_best<O>(
    attempts: usize,
    warmup: Duration,
    budget: Duration,
    mut f: impl FnMut() -> O,
) -> criterion::Measurement {
    let mut best: Option<criterion::Measurement> = None;
    for _ in 0..attempts {
        let m = measure(warmup, budget, &mut f);
        if best.is_none_or(|b| m.ns_per_iter < b.ns_per_iter) {
            best = Some(m);
        }
    }
    best.expect("at least one attempt runs")
}

/// The roofline analysis: scalar `forward` vs the fused SIMD
/// pipeline, each cell placed against the machine's measured
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
    let tsc_per_ns = tsc_per_ns();
    let (exp_ns_per_elem, exp2_ns_per_elem) = measure_float_exp_ns(warmup, budget);
    let bytes_per_cycle = tsc_per_ns.map(|t| triad_bytes_per_s / 1e9 / t);
    println!("# Per-kernel roofline: scalar vs fused SIMD\n");
    println!(
        "measured ceilings: triad {:.2} GB/s{}, libm exp {exp_ns_per_elem:.2} ns/elem, \
         exp2 {exp2_ns_per_elem:.2} ns/elem\n",
        triad_bytes_per_s / 1e9,
        match (tsc_per_ns, bytes_per_cycle) {
            (Some(t), Some(b)) => format!(" ({b:.2} B/cycle at {t:.2} GHz TSC)"),
            _ => String::new(),
        },
    );
    print_header(&[
        "kernel",
        "len",
        "scalar ns/row",
        "fused ns/row",
        "fused vs scalar",
        "fused elems/cyc",
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

            // Guard before timing: scalar and fused must agree bit-for-bit.
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
            let elems_per_cycle = tsc_per_ns.map(|t| 1.0 / (fused_ns_per_elem * t));
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
                elems_per_cycle.map_or("n/a".to_string(), |e| format!("{e:.3}")),
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
                "fused_melem_per_s": fused.elements_per_sec(len as u64) / 1e6,
                "fused_elems_per_cycle": elems_per_cycle,
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
        "description": "scalar SoftmaxKernel::forward vs the fused SIMD pipeline (forward_into), per kernel and row length, against measured memory-bandwidth and libm-exp ceilings",
        "row_lens": ROW_LENS.to_vec(),
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "ceilings": {
            "triad_gb_per_s": triad_bytes_per_s / 1e9,
            "triad_elems_per_array": if smoke { TRIAD_ELEMS_SMOKE } else { TRIAD_ELEMS },
            "tsc_ghz": tsc_per_ns,
            "mem_bytes_per_cycle": bytes_per_cycle,
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

/// TSC increments per nanosecond, calibrated against the monotonic clock
/// over a 25 ms spin (`None` off x86_64): converts measured nanoseconds
/// into cycles without trusting a nominal frequency.
#[cfg(target_arch = "x86_64")]
fn tsc_per_ns() -> Option<f64> {
    use std::arch::x86_64::_rdtsc;
    let t0 = std::time::Instant::now();
    // SAFETY: `_rdtsc` reads the timestamp counter; it has no memory
    // or alignment preconditions and is available on every x86_64
    // (this whole function is gated on that target_arch).
    let c0 = unsafe { _rdtsc() };
    while t0.elapsed() < Duration::from_millis(25) {
        std::hint::spin_loop();
    }
    // SAFETY: as above — no preconditions on x86_64.
    let c1 = unsafe { _rdtsc() };
    let dt_ns = t0.elapsed().as_nanos() as f64;
    let cycles = c1.wrapping_sub(c0) as f64;
    (cycles > 0.0).then(|| cycles / dt_ns)
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc_per_ns() -> Option<f64> {
    None
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

/// Analytic bytes swept per element by each kernel's fused/vectorized
/// `forward_into` path: 8 bytes per f64/i64 lane touched, counting each
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
        // Max pass (r), LUT exponentials staged in the output (r + w),
        // integer divide pass (r + w).
        "lut8" => 40.0,
        // The fused pipeline's contract: quantize -> prescale ->
        // requantize in one sweep (r + w), ceil-max + sub -> 2^x -> sum in
        // place (r + w), normalization pass (r + w).
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

/// The per-run counters chaos mode asserts deterministic: the same seed
/// must reproduce them exactly, run after run, because the fault plan
/// decides per forward-call *index* and the single sequential client
/// makes the call stream itself reproducible. Anything wall-clock
/// shaped (latencies, goodput, breaker trips — the breaker's cooldown
/// is time-based) is reported separately and never compared.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosCounters {
    /// Successful requests per phase: [baseline, fault window, recovery].
    ok: [u64; 3],
    /// Failed requests per phase (injected errors and panicked batches
    /// surface as honest ticket errors, never hangs).
    failed: [u64; 3],
    injected_panics: u64,
    injected_errors: u64,
    injected_delays: u64,
    worker_respawns: u64,
    expired_requests: u64,
}

/// One request's outcome, tagged with the phase it was *submitted* in
/// and when it completed relative to the run start.
struct ChaosSample {
    phase: usize,
    ok: bool,
    wall_s: f64,
    done_s: f64,
}

struct ChaosRun {
    counters: ChaosCounters,
    samples: Vec<ChaosSample>,
    wall_s: f64,
    breaker_trips: u64,
}

/// The PR-7 fault-tolerance harness. Every kernel is wrapped in a
/// seeded `FaultyKernel` whose plan injects panics, errors and latency
/// spikes during the middle third of the run (a *call-index* window,
/// not a wall-clock one), and served through a 2-shard router by one
/// closed-loop client. Each kernel's schedule is run **twice** and the
/// harness hard-fails unless both runs produced identical counters —
/// determinism is verified, not presumed. Successful responses are
/// bit-compared against sequential execution of the clean kernel:
/// chaos may kill a request, never corrupt one.
fn chaos_harness(smoke: bool, seed: u64, floor: Option<f64>, out_path: &str) {
    // Worker panics are the *point* here; keep the log readable.
    silence_injected_panics();
    let total_requests = if smoke { 30 } else { 120 };
    // Fault window in forward-call space: the middle third. Baseline
    // requests consume exactly CHAOS_REQ_ROWS calls each (no faults can
    // fire before w0), so w0 being a multiple of the request size means
    // no request straddles the window entry.
    let w0 = (total_requests as u64 / 3) * CHAOS_REQ_ROWS as u64;
    let w1 = (2 * total_requests as u64 / 3) * CHAOS_REQ_ROWS as u64;
    println!(
        "# Chaos serving: {total_requests} requests of {CHAOS_REQ_ROWS} rows x \
         {CHAOS_REQ_LEN}, fault window calls {w0}..{w1} (seed {seed}, rate {CHAOS_RATE} \
         per row, panic|error|{CHAOS_DELAY_US}us-delay), {CHAOS_SHARDS} shards x \
         {CHAOS_THREADS} thread(s); every schedule run twice, counters must match\n"
    );
    print_header(&[
        "kernel",
        "avail",
        "ok/fail (win)",
        "panics",
        "errors",
        "delays",
        "respawn",
        "goodput/s",
        "p99 base us",
        "p99 win us",
        "recov ms",
    ]);

    let registry = registry();
    let mut entries: Vec<serde_json::Value> = Vec::new();
    let mut min_availability = f64::INFINITY;
    for kernel in &registry {
        // The shared request pool and its fault-free ground truth.
        let requests: Vec<Vec<f64>> = (0..total_requests)
            .map(|r| {
                softermax_serve::traffic::synthetic_matrix(
                    CHAOS_REQ_ROWS,
                    CHAOS_REQ_LEN,
                    2.5,
                    1_000 + r as u64,
                )
            })
            .collect();
        let wants: Vec<Vec<f64>> = requests
            .iter()
            .map(|matrix| {
                let mut want = vec![0.0f64; matrix.len()];
                let mut scratch = ScratchBuffers::default();
                for (row, out_row) in matrix
                    .chunks_exact(CHAOS_REQ_LEN)
                    .zip(want.chunks_exact_mut(CHAOS_REQ_LEN))
                {
                    kernel
                        .forward_into(row, out_row, &mut scratch)
                        .expect("non-empty row");
                }
                want
            })
            .collect();

        // Run the identical schedule twice; the counters must agree.
        let first = chaos_run(kernel, &requests, &wants, seed, w0..w1);
        let second = chaos_run(kernel, &requests, &wants, seed, w0..w1);
        assert_eq!(
            first.counters,
            second.counters,
            "{} chaos counters diverged between two runs of the same seed",
            kernel.name()
        );
        let run = first;
        let c = &run.counters;

        let window_total = c.ok[1] + c.failed[1];
        let availability = if window_total == 0 {
            1.0
        } else {
            c.ok[1] as f64 / window_total as f64
        };
        min_availability = min_availability.min(availability);

        // Timing (nondeterministic, reported but never asserted):
        // success-latency percentiles per phase, goodput through the
        // fault window, and recovery time — how long after the window
        // closed until CHAOS_RECOVERY_STREAK consecutive responses came
        // back within 2x the baseline median.
        let phase_pctls: Vec<[f64; 2]> = (0..3)
            .map(|phase| {
                let mut walls: Vec<f64> = run
                    .samples
                    .iter()
                    .filter(|s| s.phase == phase && s.ok)
                    .map(|s| s.wall_s)
                    .collect();
                walls.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
                [pctl(&walls, 0.50), pctl(&walls, 0.99)]
            })
            .collect();
        let window_span_s = {
            let submitted: Vec<&ChaosSample> =
                run.samples.iter().filter(|s| s.phase == 1).collect();
            submitted
                .last()
                .map(|last| last.done_s - (submitted[0].done_s - submitted[0].wall_s))
                .unwrap_or(0.0)
        };
        let goodput = if window_span_s > 0.0 {
            c.ok[1] as f64 / window_span_s
        } else {
            0.0
        };
        let (recovery_ms, recovered) =
            recovery_time_ms(&run.samples, phase_pctls[0][0]).map_or((0.0, false), |ms| (ms, true));

        print_row(&[
            kernel.name().to_string(),
            format!("{:.3}", availability),
            format!("{}/{}", c.ok[1], c.failed[1]),
            c.injected_panics.to_string(),
            c.injected_errors.to_string(),
            c.injected_delays.to_string(),
            c.worker_respawns.to_string(),
            format!("{goodput:.0}"),
            format!("{:.1}", phase_pctls[0][1] * 1e6),
            format!("{:.1}", phase_pctls[1][1] * 1e6),
            if recovered {
                format!("{recovery_ms:.2}")
            } else {
                "never".to_string()
            },
        ]);
        entries.push(serde_json::json!({
            "kernel": kernel.name(),
            "availability_window": availability,
            "deterministic": {
                "baseline_ok": c.ok[0],
                "baseline_failed": c.failed[0],
                "window_ok": c.ok[1],
                "window_failed": c.failed[1],
                "recovery_ok": c.ok[2],
                "recovery_failed": c.failed[2],
                "injected_panics": c.injected_panics,
                "injected_errors": c.injected_errors,
                "injected_delays": c.injected_delays,
                "worker_respawns": c.worker_respawns,
                "expired_requests": c.expired_requests,
            },
            "timing": {
                "baseline_p50_us": phase_pctls[0][0] * 1e6,
                "baseline_p99_us": phase_pctls[0][1] * 1e6,
                "window_p50_us": phase_pctls[1][0] * 1e6,
                "window_p99_us": phase_pctls[1][1] * 1e6,
                "recovery_p50_us": phase_pctls[2][0] * 1e6,
                "recovery_p99_us": phase_pctls[2][1] * 1e6,
                "window_goodput_req_per_s": goodput,
                "recovery_ms": recovery_ms,
                "recovered": recovered,
                "breaker_trips": run.breaker_trips,
                "wall_s": run.wall_s,
            },
            "bit_identical_successes": true,
            "determinism": "verified",
        }));
    }

    let report = serde_json::json!({
        "benchmark": "chaos_serving",
        "description": "every kernel wrapped in a seeded FaultyKernel (panic | error | delay per forward call, faults confined to the middle third of the run in call-index space) and served through a 2-shard router by one closed-loop client; each schedule is run twice and the harness fails unless both runs produce identical counters (determinism verified, not presumed); successful responses are bit-compared to sequential execution of the clean kernel; latencies, goodput and breaker trips are wall-clock and reported without assertion",
        "seed": seed,
        "fault_rate_per_row": CHAOS_RATE,
        "fault_kinds": ["panic", "error", "delay"],
        "delay_us": CHAOS_DELAY_US,
        "fault_window_calls": [w0, w1],
        "requests": total_requests,
        "request_rows": CHAOS_REQ_ROWS,
        "request_len": CHAOS_REQ_LEN,
        "shards": CHAOS_SHARDS,
        "threads_per_shard": CHAOS_THREADS,
        "availability_floor": floor,
        "min_availability_window": min_availability,
        "results": serde_json::Value::Array(entries),
    });
    write_report(out_path, &report);

    if let Some(floor) = floor {
        // Availability is one of the deterministic counters, so this is
        // an exact gate, not a flaky one.
        if min_availability < floor {
            eprintln!(
                "chaos availability floor violated: min fault-window availability \
                 {min_availability:.3} < floor {floor:.3}"
            );
            std::process::exit(1);
        }
        println!("availability floor {floor:.3} held (min {min_availability:.3})");
    }
}

/// One pass of the chaos schedule: a fresh `FaultyKernel` and a fresh
/// router (counters and call index start at zero), one closed-loop
/// client submitting every request with blocking admission. Blocking
/// admission deliberately bypasses the circuit breaker, so an open
/// breaker re-routes work instead of gating it — which keeps the
/// success/failure counters independent of the breaker's wall-clock
/// cooldowns.
fn chaos_run(
    kernel: &Arc<dyn SoftmaxKernel>,
    requests: &[Vec<f64>],
    wants: &[Vec<f64>],
    seed: u64,
    window: std::ops::Range<u64>,
) -> ChaosRun {
    let (w0, w1) = (window.start, window.end);
    let plan = FaultPlan::new(seed, CHAOS_RATE)
        .with_window(window)
        .with_delay(Duration::from_micros(CHAOS_DELAY_US));
    let faulty = Arc::new(FaultyKernel::new(kernel, plan));
    let as_kernel: Arc<dyn SoftmaxKernel> = faulty.clone();
    // Generous respawn budget: every injected panic kills a worker and
    // the pool must heal through all of them.
    let config = ServeConfig::new(CHAOS_THREADS)
        .with_chunk_rows(CHAOS_REQ_ROWS)
        .with_queue_depth(CHAOS_INFLIGHT)
        .with_respawn_cap(4096);
    let router = ShardedRouter::new(CHAOS_SHARDS, config, RoutePolicy::RoundRobin)
        .expect("chaos router config");

    let mut counters = ChaosCounters {
        ok: [0; 3],
        failed: [0; 3],
        injected_panics: 0,
        injected_errors: 0,
        injected_delays: 0,
        worker_respawns: 0,
        expired_requests: 0,
    };
    let mut samples = Vec::with_capacity(requests.len());
    let run_start = std::time::Instant::now();
    for (matrix, want) in requests.iter().zip(wants) {
        // Phase classification is deterministic: the previous request
        // fully resolved before this read, so the call counter is
        // stable, and no fault can fire before w0.
        let calls_before = faulty.calls();
        let phase = if calls_before < w0 {
            0
        } else if calls_before < w1 {
            1
        } else {
            2
        };
        let t0 = std::time::Instant::now();
        let outcome = router
            .submit_request(
                Submission::new(&as_kernel, matrix.clone(), CHAOS_REQ_LEN),
                Admission::Block,
            )
            .and_then(|ticket| ticket.wait());
        let wall_s = t0.elapsed().as_secs_f64();
        match &outcome {
            Ok(probs) => {
                assert_eq!(
                    probs,
                    want,
                    "{} chaos survivor diverged from sequential execution",
                    kernel.name()
                );
                counters.ok[phase] += 1;
            }
            // Injected errors and panicked batches come back as honest
            // ticket errors — the liveness property under test.
            Err(_) => counters.failed[phase] += 1,
        }
        samples.push(ChaosSample {
            phase,
            ok: outcome.is_ok(),
            wall_s,
            done_s: run_start.elapsed().as_secs_f64(),
        });
    }
    let wall_s = run_start.elapsed().as_secs_f64();

    counters.injected_panics = faulty.injected_panics();
    counters.injected_errors = faulty.injected_errors();
    counters.injected_delays = faulty.injected_delays();
    let stats = router.stats();
    counters.expired_requests = stats
        .kernel(kernel.name())
        .map(|s| s.expired_requests)
        .unwrap_or(0);
    let mut breaker_trips = 0;
    for shard in 0..router.n_shards() {
        counters.worker_respawns += router.shard(shard).worker_respawns();
        breaker_trips += router.shard(shard).breaker_trips();
    }
    ChaosRun {
        counters,
        samples,
        wall_s,
        breaker_trips,
    }
}

/// Milliseconds from the first post-window submission until
/// `CHAOS_RECOVERY_STREAK` consecutive responses each came back within
/// 2x the baseline median latency; `None` if that never happened.
fn recovery_time_ms(samples: &[ChaosSample], baseline_p50_s: f64) -> Option<f64> {
    let recovery: Vec<&ChaosSample> = samples.iter().filter(|s| s.phase == 2).collect();
    let start_s = recovery.first().map(|s| s.done_s - s.wall_s)?;
    let budget_s = 2.0 * baseline_p50_s;
    let mut streak = 0usize;
    for sample in recovery {
        streak = if sample.ok && sample.wall_s <= budget_s {
            streak + 1
        } else {
            0
        };
        if streak >= CHAOS_RECOVERY_STREAK {
            return Some((sample.done_s - start_s) * 1e3);
        }
    }
    None
}

/// One arrival of an open-loop schedule: when to send, which request
/// shape/payload, and at which priority.
#[derive(Clone, Copy)]
struct OlArrival {
    at_ns: u64,
    huge: bool,
    variant: usize,
    priority: Priority,
}

impl OlArrival {
    fn rows(&self) -> usize {
        if self.huge {
            OL_HUGE_ROWS
        } else {
            OL_SMALL_ROWS
        }
    }
}

/// Precomputed request payloads and their bit-exact sequential ground
/// truth, per shape and variant.
struct OlPayloads {
    small: Vec<Vec<f64>>,
    small_want: Vec<Vec<u64>>,
    huge: Vec<Vec<f64>>,
    huge_want: Vec<Vec<u64>>,
}

impl OlPayloads {
    fn build(kernel: &Arc<dyn SoftmaxKernel>) -> Self {
        let generate = |rows: usize, row_len: usize, salt: u64| {
            let mut matrices = Vec::with_capacity(OL_VARIANTS);
            let mut wants = Vec::with_capacity(OL_VARIANTS);
            let mut scratch = ScratchBuffers::default();
            for variant in 0..OL_VARIANTS {
                let matrix = synthetic_matrix(rows, row_len, 2.5, salt + variant as u64);
                let mut out = vec![0.0; matrix.len()];
                for (row, out_row) in matrix
                    .chunks_exact(row_len)
                    .zip(out.chunks_exact_mut(row_len))
                {
                    kernel
                        .forward_into(row, out_row, &mut scratch)
                        .expect("ground truth row");
                }
                wants.push(out.iter().map(|v| v.to_bits()).collect());
                matrices.push(matrix);
            }
            (matrices, wants)
        };
        let (small, small_want) = generate(OL_SMALL_ROWS, OL_SMALL_LEN, 11_000);
        let (huge, huge_want) = generate(OL_HUGE_ROWS, OL_HUGE_LEN, 12_000);
        Self {
            small,
            small_want,
            huge,
            huge_want,
        }
    }

    fn payload(&self, arrival: &OlArrival) -> &Vec<f64> {
        if arrival.huge {
            &self.huge[arrival.variant]
        } else {
            &self.small[arrival.variant]
        }
    }

    fn want(&self, arrival: &OlArrival) -> &[u64] {
        if arrival.huge {
            &self.huge_want[arrival.variant]
        } else {
            &self.small_want[arrival.variant]
        }
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
    interactive_rows_in_span: AtomicU64,
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
    /// Goodput restricted to interactive-class rows — the skew pair's
    /// headline, so surviving batch-class background rows (completed
    /// identically under every policy) cannot dilute the comparison.
    interactive_goodput_rows_per_s: f64,
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
            "interactive_goodput_rows_per_s": self.interactive_goodput_rows_per_s,
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
/// same schedule — the skew pair depends on that. When `huge_every > 0`
/// every Nth arrival is huge, but never closer than `min_huge_gap` to
/// the previous huge: a too-close huge is postponed by *two* indices at
/// a time, so huges stay on even positions and strict round-robin keeps
/// pinning them all to one shard (the hot-shard pattern the skew pair
/// measures). The gap keeps at most one huge in service at a time, so
/// a scheduler that routes around the busy shard always has a clean
/// shard to route to. Each arrival is Batch-class with probability
/// `batch_frac` (0 = all interactive).
fn ol_poisson(
    rate: f64,
    span: Duration,
    seed: u64,
    huge_every: usize,
    min_huge_gap: Duration,
    batch_frac: f64,
) -> Vec<OlArrival> {
    let span_ns = span.as_nanos() as u64;
    let gap_ns = min_huge_gap.as_nanos() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    let mut index = 0usize;
    let mut next_huge = huge_every.saturating_sub(1);
    let mut last_huge_ns: Option<u64> = None;
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / rate;
        let at_ns = (t * 1e9) as u64;
        if at_ns >= span_ns {
            return schedule;
        }
        let mut huge = false;
        if huge_every > 0 && index == next_huge {
            if last_huge_ns.is_some_and(|last| at_ns < last.saturating_add(gap_ns)) {
                next_huge += 2;
            } else {
                huge = true;
                last_huge_ns = Some(at_ns);
                next_huge = index + huge_every;
            }
        }
        // Huge requests are background work: batch-class, like the
        // offline jobs they stand in for. Smalls (and the priority
        // leg's uniform traffic) draw their class from `batch_frac`.
        let priority = if huge || (batch_frac > 0.0 && rng.gen_bool(batch_frac)) {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        schedule.push(OlArrival {
            at_ns,
            huge,
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
            huge: false,
            variant: index % OL_VARIANTS,
            priority: Priority::Interactive,
        });
        index += 1;
    }
}

/// The shard configuration every open-loop leg uses: one worker per
/// shard, small requests exactly one chunk, and a queue deep enough to
/// absorb bursts as latency.
fn ol_config() -> ServeConfig {
    ServeConfig::new(1)
        .with_chunk_rows(OL_SMALL_ROWS)
        .with_queue_depth(OL_QUEUE_DEPTH)
}

/// Calibrates the mean service time (submit → response, payload clone
/// included — the dispatcher pays that clone at run time too) of one
/// request shape through a single dedicated worker.
fn ol_calibrate(
    kernel: &Arc<dyn SoftmaxKernel>,
    payloads: &[Vec<f64>],
    row_len: usize,
    smoke: bool,
) -> Duration {
    let engine = BatchEngine::new(ol_config()).expect("calibration engine");
    let reps = if smoke { 12 } else { 48 };
    for payload in payloads.iter().take(2) {
        engine
            .submit_wait(kernel, payload.clone(), row_len)
            .expect("calibration warmup")
            .wait()
            .expect("calibration warmup");
    }
    let t0 = Instant::now();
    for i in 0..reps {
        engine
            .submit_wait(kernel, payloads[i % OL_VARIANTS].clone(), row_len)
            .expect("calibration request")
            .wait()
            .expect("calibration request");
    }
    t0.elapsed() / reps as u32
}

/// Per-class request deadlines for one open-loop leg; `None` means the
/// class runs without an SLO.
#[derive(Clone, Copy)]
struct OlDeadlines {
    small: Option<Duration>,
    huge: Option<Duration>,
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
    deadlines: OlDeadlines,
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
                    "queued_rows": router.load_rows(),
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
                let deadline = if arrival.huge {
                    deadlines.huge
                } else {
                    deadlines.small
                };
                let row_len = if arrival.huge {
                    OL_HUGE_LEN
                } else {
                    OL_SMALL_LEN
                };
                let mut submission =
                    Submission::new(kernel, payloads.payload(arrival).clone(), row_len)
                        .with_priority(arrival.priority);
                if let Some(d) = deadline {
                    submission = submission.with_deadline(d);
                }
                counters.submitted.fetch_add(1, Ordering::Relaxed);
                match router.submit_request(submission, Admission::Fail) {
                    Ok(ticket) => {
                        let arrival = *arrival;
                        let want = payloads.want(&arrival);
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
                                        .fetch_add(arrival.rows() as u64, Ordering::Relaxed);
                                    if end_ns <= span_ns {
                                        counters
                                            .rows_in_span
                                            .fetch_add(arrival.rows() as u64, Ordering::Relaxed);
                                        if arrival.priority == Priority::Interactive {
                                            counters.interactive_rows_in_span.fetch_add(
                                                arrival.rows() as u64,
                                                Ordering::Relaxed,
                                            );
                                        }
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
    let rows_offered: u64 = schedule.iter().map(|a| a.rows() as u64).sum();
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
        interactive_goodput_rows_per_s: counters.interactive_rows_in_span.load(Ordering::Relaxed)
            as f64
            / span_s,
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

/// The PR-8 open-loop scheduler harness. See the module docs for the
/// leg-by-leg story; `seed` fixes every arrival schedule, `min_speedup`
/// gates the skew comparison, `assert_priority` gates the mixed-class
/// leg.
fn open_loop_harness(
    smoke: bool,
    seed: u64,
    min_speedup: Option<f64>,
    assert_priority: bool,
    out_path: &str,
) {
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
    let s_small = ol_calibrate(&kernel, &payloads.small, OL_SMALL_LEN, smoke);
    let s_huge = ol_calibrate(&kernel, &payloads.huge, OL_HUGE_LEN, smoke);
    let capacity_rows =
        effective_workers as f64 * OL_SMALL_ROWS as f64 / s_small.as_secs_f64().max(1e-9);
    println!(
        "calibration: small {}x{} = {:.3} ms, huge {}x{} = {:.3} ms ({:.0} small rows/s capacity)",
        OL_SMALL_ROWS,
        OL_SMALL_LEN,
        s_small.as_secs_f64() * 1e3,
        OL_HUGE_ROWS,
        OL_HUGE_LEN,
        s_huge.as_secs_f64() * 1e3,
        capacity_rows
    );

    let leg_span = Duration::from_millis(if smoke { 250 } else { 1200 });
    let skew_span = Duration::from_millis(if smoke { 700 } else { 4000 });
    let prio_span = Duration::from_millis(if smoke { 300 } else { 1500 });
    let interval = Duration::from_millis(if smoke { 25 } else { OL_INTERVAL_MS });
    // The sweep deadline only bites deep into saturation (a full shard
    // queue is worth ~64 service times); the skew deadlines are the
    // experiment's contrast knob — tight enough that a small parked
    // behind a huge job (~13 small service times) expires, generous
    // enough that ordinary queueing at the skew leg's 60% load
    // survives, with absolute floors against timer jitter.
    let sweep_deadline = (s_small * 24).max(Duration::from_millis(10));
    let skew_small_deadline = (s_small * 5).max(Duration::from_millis(4));
    let skew_huge_deadline = (s_huge * 6).max(Duration::from_millis(40));

    // --- Leg 1: Poisson offered-load sweep to the saturation knee. ---
    println!(
        "\nknee sweep: Poisson arrivals, adaptive routing + stealing, deadline {:.1} ms",
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
        let rate = fraction * capacity_rows / OL_SMALL_ROWS as f64;
        let schedule = ol_poisson(
            rate,
            leg_span,
            seed.wrapping_add(index as u64),
            0,
            Duration::ZERO,
            0.0,
        );
        let router = ShardedRouter::new(OL_SHARDS, ol_config(), RoutePolicy::Adaptive)
            .expect("sweep router");
        let leg = ol_run(
            &router,
            &kernel,
            &payloads,
            &schedule,
            leg_span,
            OlDeadlines {
                small: Some(sweep_deadline),
                huge: None,
            },
            interval,
        );
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
    let bursty_rate = 0.9 * capacity_rows / OL_SMALL_ROWS as f64;
    let bursty_schedule = ol_bursty(bursty_rate, leg_span, seed ^ 0xB0B5);
    let bursty_router =
        ShardedRouter::new(OL_SHARDS, ol_config(), RoutePolicy::Adaptive).expect("bursty router");
    let bursty = ol_run(
        &bursty_router,
        &kernel,
        &payloads,
        &bursty_schedule,
        leg_span,
        OlDeadlines {
            small: Some(sweep_deadline),
            huge: None,
        },
        interval,
    );
    drop(bursty_router);
    println!(
        "bursty at 0.90 load: goodput {:.0} rows/s, {} dropped, {} expired, p99 {:.2} ms, {} stolen",
        bursty.goodput_rows_per_s, bursty.dropped, bursty.expired, bursty.p99_ms, bursty.jobs_stolen
    );

    // --- Leg 3: the skew pair. One identical schedule mixing huge
    // hot-shard drivers into small traffic, replayed under the dumb
    // baseline (round-robin, no stealing) and the scheduler (adaptive
    // routing + stealing). Deadline-goodput is the headline: a small
    // parked behind a huge job expires at dequeue unless it is stolen
    // or routed around the hot shard.
    let group_span = (OL_HUGE_EVERY - 1) as f64 * s_small.as_secs_f64() + s_huge.as_secs_f64();
    // 0.75 offered load: high enough that the hot shard spends most of
    // its time inside a huge job (the placement pain the pair is
    // contrasting), low enough that neither config is systemically
    // overloaded — past ~0.8 the M/G/1 queueing term, inflated by huge
    // jobs' E[S^2], swamps both configs with waits no scheduler could
    // route around. Huges keep a 2 x s_huge exclusion gap so at most
    // one is in service at a time: the contrast stays "can the policy
    // route around the busy shard", not "did two huges happen to land
    // at once and block every shard of a one-core box".
    let skew_rate = 0.75 * effective_workers as f64 * OL_HUGE_EVERY as f64 / group_span;
    let skew_schedule = ol_poisson(
        skew_rate,
        skew_span,
        seed ^ 0x5CE7,
        OL_HUGE_EVERY,
        s_huge.mul_f64(2.0),
        0.0,
    );
    let run_skew = |policy: RoutePolicy, stealing: bool| {
        let router =
            ShardedRouter::new(OL_SHARDS, ol_config().with_work_stealing(stealing), policy)
                .expect("skew router");
        ol_run(
            &router,
            &kernel,
            &payloads,
            &skew_schedule,
            skew_span,
            OlDeadlines {
                small: Some(skew_small_deadline),
                huge: Some(skew_huge_deadline),
            },
            interval,
        )
    };
    let skew_baseline = run_skew(RoutePolicy::RoundRobin, false);
    let skew_scheduler = run_skew(RoutePolicy::Adaptive, true);
    // The headline compares interactive goodput: batch-class huges are
    // non-urgent background that completes under every policy, so
    // counting their rows would only dilute the placement contrast the
    // pair exists to measure.
    let speedup = if skew_baseline.interactive_goodput_rows_per_s > 0.0 {
        skew_scheduler.interactive_goodput_rows_per_s / skew_baseline.interactive_goodput_rows_per_s
    } else {
        f64::INFINITY
    };
    println!(
        "\nskew pair: every {OL_HUGE_EVERY}th request a huge batch-class job, identical schedule"
    );
    print_header(&[
        "config",
        "int goodput r/s",
        "all rows r/s",
        "done",
        "drop",
        "expired",
        "p50 ms",
        "p99 ms",
        "stolen",
    ]);
    for (name, leg) in [
        ("round-robin, no steal", &skew_baseline),
        ("adaptive + steal", &skew_scheduler),
    ] {
        print_row(&[
            name.to_string(),
            format!("{:.0}", leg.interactive_goodput_rows_per_s),
            format!("{:.0}", leg.goodput_rows_per_s),
            leg.completed.to_string(),
            leg.dropped.to_string(),
            leg.expired.to_string(),
            format!("{:.2}", leg.p50_ms),
            format!("{:.2}", leg.p99_ms),
            leg.jobs_stolen.to_string(),
        ]);
    }
    println!("skew speedup (interactive deadline-goodput rows/s): {speedup:.2}x");

    // --- Leg 4: mixed priority classes under overload. Same-size
    // requests, so any p99 gap is pure dequeue policy, not job size. ---
    let prio_rate = 1.3 * capacity_rows / OL_SMALL_ROWS as f64;
    let prio_schedule = ol_poisson(prio_rate, prio_span, seed ^ 0x9170, 0, Duration::ZERO, 0.5);
    let prio_router =
        ShardedRouter::new(OL_SHARDS, ol_config(), RoutePolicy::Adaptive).expect("priority router");
    let prio = ol_run(
        &prio_router,
        &kernel,
        &payloads,
        &prio_schedule,
        prio_span,
        OlDeadlines {
            small: None,
            huge: None,
        },
        interval,
    );
    drop(prio_router);
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
        .chain([
            bursty.mismatched,
            skew_baseline.mismatched,
            skew_scheduler.mismatched,
            prio.mismatched,
        ])
        .sum::<u64>();

    let report = serde_json::json!({
        "mode": "open-loop",
        "smoke": smoke,
        "seed": seed,
        "kernel": kernel.name(),
        "shards": OL_SHARDS,
        "effective_workers": effective_workers,
        "request": {
            "small_rows": OL_SMALL_ROWS,
            "small_row_len": OL_SMALL_LEN,
            "huge_rows": OL_HUGE_ROWS,
            "huge_row_len": OL_HUGE_LEN,
            "queue_depth": OL_QUEUE_DEPTH,
        },
        "calibration": {
            "small_service_ms": s_small.as_secs_f64() * 1e3,
            "huge_service_ms": s_huge.as_secs_f64() * 1e3,
            "capacity_rows_per_s": capacity_rows,
        },
        "deadlines_ms": {
            "sweep": sweep_deadline.as_secs_f64() * 1e3,
            "skew_small": skew_small_deadline.as_secs_f64() * 1e3,
            "skew_huge": skew_huge_deadline.as_secs_f64() * 1e3,
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
        "skew": {
            "pattern": format!("every {OL_HUGE_EVERY}th arrival huge ({OL_HUGE_ROWS}x{OL_HUGE_LEN}), identical seeded schedule"),
            "baseline_round_robin": skew_baseline.to_json(),
            "adaptive_stealing": skew_scheduler.to_json(),
            "speedup": speedup,
            "min_speedup_gate": min_speedup,
        },
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
    if let Some(gate) = min_speedup {
        if speedup < gate {
            eprintln!("SPEEDUP FLOOR FAILURE: skew speedup {speedup:.2}x under the --min-speedup {gate:.2}x gate");
            std::process::exit(1);
        }
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
