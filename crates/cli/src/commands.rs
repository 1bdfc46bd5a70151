//! Command parsing and dispatch for the `softermax` CLI.
//!
//! Backend selection goes exclusively through the
//! [`softermax::kernel::KernelRegistry`]: the CLI has no knowledge of
//! individual softmax implementations, so newly registered kernels show
//! up in `softmax`, `compare` and `kernels` automatically.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use softermax::kernel::{BaseKind, KernelRegistry, ScratchBuffers, SoftmaxKernel};
use softermax::{metrics, SoftermaxConfig};
use softermax_hw::accel::Accelerator;
use softermax_hw::pe::PeConfig;
use softermax_hw::workload::AttentionShape;
use softermax_serve::{
    traffic, Admission, BatchEngine, RoutePolicy, ServeConfig, ShardedRouter, Submission, Ticket,
};
use softermax_transformer::attention::{head_scratch_estimates, KernelSoftmax, MultiHeadAttention};
use softermax_transformer::tensor::Matrix;

/// Usage text printed on errors.
pub const USAGE: &str = "usage:
  softermax softmax [--backend <name>] <score>...   compute one softmax row
  softermax compare <score>...                      all backends side by side
  softermax kernels                                 list registered backends
  softermax serve [--backend <name>|all] [--rows N] [--len N]
                  [--threads T1,T2,..] [--chunk-rows N] [--repeat N] [--seed N]
                  [--streaming] [--stream-chunk N]   batched serving benchmark
                                                    (--streaming also runs the
                                                    chunked StreamSession path)
                  [--clients M] [--shards S] [--inflight N] [--requests K]
                  [--policy round-robin|least-loaded|adaptive] [--no-steal]
                                                    any of these flags selects
                                                    concurrent mode: M client
                                                    threads submit K requests
                                                    each through a sharded
                                                    router (bounded admission
                                                    queue depth N, single
                                                    --threads value per shard),
                                                    guarded bit-identical vs
                                                    sequential execution;
                                                    --no-steal disables the
                                                    shards' work stealing
                  [--stats-json]                    also selects concurrent
                                                    mode; after the run, print
                                                    the router's full control
                                                    snapshot (per-kernel stats,
                                                    scheduler counters, per-
                                                    shard breaker/worker
                                                    health) as pretty JSON —
                                                    the same payload a
                                                    softermax-server answers
                                                    Stats frames with
  softermax attention [--backend <name>|all] [--seq N] [--heads H] [--dim D]
                      [--tile N] [--seed N] [--streaming]
                                                    attention demo; --streaming
                                                    adds the tiled no-score-
                                                    matrix path + parity check
  softermax hw [--width 16|32] [--seq N]            hardware comparison report
  softermax config                                  print the paper configuration

backends: every name/alias in `softermax kernels`, e.g.
  reference-e (exact) | reference-2 (base2) | online-2 (online) |
  online-intmax (intmax) | fp16 | lut8 (lut) | softermax (default)";

/// Parses and executes one CLI invocation.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags or
/// unparsable scores.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("softmax") => cmd_softmax(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("kernels") => {
            cmd_kernels();
            Ok(())
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("attention") => cmd_attention(&args[1..]),
        Some("hw") => cmd_hw(&args[1..]),
        Some("config") => {
            cmd_config();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_string()),
    }
}

fn parse_scores(args: &[String]) -> Result<Vec<f64>, String> {
    if args.is_empty() {
        return Err("no scores given".to_string());
    }
    args.iter()
        .map(|a| {
            a.parse::<f64>()
                .map_err(|_| format!("'{a}' is not a number"))
        })
        .collect()
}

fn eval_backend(name: &str, scores: &[f64]) -> Result<Vec<f64>, String> {
    let kernel = KernelRegistry::global()
        .get(name)
        .ok_or_else(|| format!("unknown backend '{name}' (see `softermax kernels`)"))?;
    let mut probs = vec![0.0; scores.len()];
    kernel
        .forward_into(scores, &mut probs, &mut ScratchBuffers::default())
        .map_err(|e| e.to_string())?;
    Ok(probs)
}

fn cmd_softmax(args: &[String]) -> Result<(), String> {
    let (backend, rest) = match args.first().map(String::as_str) {
        Some("--backend") => {
            let name = args
                .get(1)
                .ok_or_else(|| "--backend needs a value".to_string())?;
            (name.clone(), &args[2..])
        }
        _ => ("softermax".to_string(), args),
    };
    let scores = parse_scores(rest)?;
    let probs = eval_backend(&backend, &scores)?;
    println!(
        "{}",
        serde_json::json!({ "backend": backend, "scores": scores, "probs": probs })
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let scores = parse_scores(args)?;
    let registry = KernelRegistry::global();
    // Per-family ground truths, looked up from the registry itself.
    let reference_of = |base: BaseKind| {
        let name = match base {
            BaseKind::E => "reference-e",
            BaseKind::Two => "reference-2",
        };
        registry
            .get(name)
            .expect("reference kernels are always registered")
            .forward(&scores)
            .map_err(|e| e.to_string())
    };
    let want_e = reference_of(BaseKind::E)?;
    let want_2 = reference_of(BaseKind::Two)?;
    println!("{:<16} probabilities", "backend");
    for kernel in registry {
        let probs = kernel.forward(&scores).map_err(|e| e.to_string())?;
        let desc = kernel.descriptor();
        let (want, family) = match desc.base {
            BaseKind::E => (&want_e, "e"),
            BaseKind::Two => (&want_2, "2"),
        };
        let rendered: Vec<String> = probs.iter().map(|p| format!("{p:.4}")).collect();
        println!(
            "{:<16} [{}]  (max |Δ| vs base-{family} reference: {:.4})",
            kernel.name(),
            rendered.join(", "),
            metrics::max_abs_error(&probs, want),
        );
    }
    Ok(())
}

fn cmd_kernels() {
    let registry = KernelRegistry::global();
    println!(
        "{:<16} {:<8} {:<18} {:<8} {:<7} {:<10} aliases",
        "name", "base", "normalization", "bits", "passes", "streaming"
    );
    for kernel in registry {
        let d = kernel.descriptor();
        println!(
            "{:<16} {:<8} {:<18} {:<8} {:<7} {:<10} {}",
            d.name,
            match d.base {
                BaseKind::E => "e",
                BaseKind::Two => "2",
            },
            format!("{:?}", d.normalization),
            d.bitwidth
                .map_or_else(|| "f64".to_string(), |b| b.to_string()),
            d.input_passes,
            format!("{:?}", d.streaming),
            d.aliases.join(", "),
        );
    }
}

/// The `serve` subcommand: synthetic-traffic benchmark of the batched
/// serving layer. Generates one deterministic score matrix, guards the
/// engine's output against sequential row-at-a-time execution
/// (bit-identical, by the batch contract), then reports rows/s per kernel
/// per thread count from the engine's own accounting.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut backend = "softermax".to_string();
    let mut rows = 4096usize;
    let mut len = 256usize;
    let mut threads: Option<Vec<usize>> = None;
    let mut chunk_rows: Option<usize> = None;
    let mut repeat: Option<usize> = None;
    let mut seed = 42u64;
    let mut streaming = false;
    let mut stream_chunk: Option<usize> = None;
    // Concurrent-mode flags: any of them being given explicitly selects
    // the concurrent path (so `--clients 1` benchmarks the 1-client
    // baseline, and a lone `--policy ...` is never silently ignored).
    let mut clients: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut inflight: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut policy: Option<RoutePolicy> = None;
    let mut no_steal = false;
    let mut stats_json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--backend" => backend = value("--backend")?,
            "--rows" => rows = parse_count(&value("--rows")?, "--rows")?,
            "--len" => len = parse_count(&value("--len")?, "--len")?,
            "--chunk-rows" => {
                chunk_rows = Some(parse_count(&value("--chunk-rows")?, "--chunk-rows")?)
            }
            "--repeat" => repeat = Some(parse_count(&value("--repeat")?, "--repeat")?),
            "--streaming" => streaming = true,
            "--stream-chunk" => {
                stream_chunk = Some(parse_count(&value("--stream-chunk")?, "--stream-chunk")?)
            }
            "--clients" => clients = Some(parse_count(&value("--clients")?, "--clients")?),
            "--shards" => shards = Some(parse_count(&value("--shards")?, "--shards")?),
            "--inflight" => inflight = Some(parse_count(&value("--inflight")?, "--inflight")?),
            "--requests" => requests = Some(parse_count(&value("--requests")?, "--requests")?),
            "--policy" => {
                policy = Some(match value("--policy")?.as_str() {
                    "round-robin" => RoutePolicy::RoundRobin,
                    "least-loaded" => RoutePolicy::LeastLoaded,
                    "adaptive" => RoutePolicy::Adaptive,
                    other => {
                        return Err(format!(
                            "--policy must be round-robin, least-loaded, or adaptive, got '{other}'"
                        ))
                    }
                });
            }
            "--no-steal" => no_steal = true,
            "--stats-json" => stats_json = true,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .split(',')
                        .map(|t| parse_count(t, "--threads"))
                        .collect::<Result<_, _>>()?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let registry = KernelRegistry::global();
    let kernels: Vec<Arc<dyn SoftmaxKernel>> = if backend == "all" {
        registry.kernels().to_vec()
    } else {
        vec![registry
            .get(&backend)
            .ok_or_else(|| format!("unknown backend '{backend}' (see `softermax kernels`)"))?]
    };

    if clients.is_some()
        || shards.is_some()
        || inflight.is_some()
        || requests.is_some()
        || policy.is_some()
        || no_steal
        || stats_json
    {
        // Concurrent mode runs one router, so a --threads sweep would be
        // ambiguous, and repetition is expressed as --requests — reject
        // what cannot be honored instead of silently ignoring it.
        let threads = threads.unwrap_or_else(|| vec![4]);
        if threads.len() > 1 {
            return Err(format!(
                "concurrent serve mode takes a single --threads value per shard, got {threads:?}"
            ));
        }
        if repeat.is_some() {
            return Err(
                "concurrent serve mode has no --repeat; use --requests per client".to_string(),
            );
        }
        let opts = ConcurrentServeOpts {
            clients: clients.unwrap_or(1),
            shards: shards.unwrap_or(1),
            inflight: inflight.unwrap_or(32),
            requests: requests.unwrap_or(16),
            policy: policy.unwrap_or(RoutePolicy::RoundRobin),
            no_steal,
            streaming,
            stream_chunk,
            threads: threads[0],
            chunk_rows,
            rows,
            len,
            seed,
            stats_json,
        };
        return serve_concurrent(&kernels, &opts);
    }

    // One long-lived engine per thread count, shared by every kernel —
    // pool spawn/teardown stays out of the measured path, and the
    // engine's stats are keyed per kernel anyway.
    let threads = threads.unwrap_or_else(|| vec![1, 4]);
    let repeat = repeat.unwrap_or(3);
    let engines: Vec<BatchEngine> = threads
        .iter()
        .map(|&t| {
            let mut config = ServeConfig::new(t);
            if let Some(c) = chunk_rows {
                config = config.with_chunk_rows(c);
            }
            BatchEngine::new(config).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let matrix = traffic::synthetic_matrix(rows, len, 2.5, seed);
    println!("# softermax serve: {rows} rows x {len}, {repeat} batch(es) per measurement\n");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>14} {:>12} {:>9}",
        "kernel", "threads", "rows/s", "Melem/s", "batch ms", "util", "speedup"
    );

    let mut results: Vec<serde_json::Value> = Vec::new();
    for kernel in &kernels {
        // Sequential per-row ground truth: both the bit-identity guard and
        // the single-threaded row-at-a-time baseline the speedup quotes.
        let mut sequential = vec![0.0; matrix.len()];
        let mut scratch = ScratchBuffers::default();
        let seq_start = std::time::Instant::now();
        for _ in 0..repeat {
            for (row, out_row) in matrix
                .chunks_exact(len)
                .zip(sequential.chunks_exact_mut(len))
            {
                kernel
                    .forward_into(row, out_row, &mut scratch)
                    .map_err(|e| e.to_string())?;
            }
        }
        let seq_rows_per_s = (rows * repeat) as f64 / seq_start.elapsed().as_secs_f64().max(1e-12);

        for engine in &engines {
            let t = engine.config().threads;
            let mut served = Vec::new();
            for _ in 0..repeat {
                served = engine
                    .submit_request(
                        Submission::new(kernel, matrix.clone(), len),
                        Admission::Block,
                    )
                    .and_then(Ticket::wait)
                    .map_err(|e| e.to_string())?;
            }
            if served != sequential {
                return Err(format!(
                    "{} at {t} thread(s): engine output diverged from sequential execution",
                    kernel.name()
                ));
            }
            let stats = engine.stats();
            let s = stats
                .kernel(kernel.name())
                .ok_or_else(|| "engine recorded no traffic".to_string())?;
            let speedup = s.rows_per_sec() / seq_rows_per_s.max(1e-12);
            println!(
                "{:<16} {:>8} {:>12.0} {:>12.1} {:>14.3} {:>12.2} {:>8.2}x",
                kernel.name(),
                t,
                s.rows_per_sec(),
                s.elements_per_sec() / 1e6,
                s.mean_batch_latency_ns() / 1e6,
                s.utilization(t),
                speedup,
            );
            results.push(serde_json::json!({
                "kernel": kernel.name(),
                "threads": t,
                "rows_per_s": s.rows_per_sec(),
                "melem_per_s": s.elements_per_sec() / 1e6,
                "mean_batch_ms": s.mean_batch_latency_ns() / 1e6,
                "utilization": s.utilization(t),
                "sequential_rows_per_s": seq_rows_per_s,
                "speedup_vs_sequential": speedup,
                "bit_identical": true,
            }));

            if streaming {
                // The chunked StreamSession path on the same pool: rows are
                // served in `chunk`-score pushes, exactly as a QK^T tiler
                // would hand them over.
                let chunk = stream_chunk.unwrap_or_else(|| engine.config().vector_width.max(1));
                let mut streamed = Vec::new();
                let stream_start = std::time::Instant::now();
                for _ in 0..repeat {
                    streamed = engine
                        .submit_request(
                            Submission::new(kernel, matrix.clone(), len).streamed(chunk),
                            Admission::Block,
                        )
                        .and_then(Ticket::wait)
                        .map_err(|e| e.to_string())?;
                }
                let stream_rows_per_s =
                    (rows * repeat) as f64 / stream_start.elapsed().as_secs_f64().max(1e-12);
                if streamed != sequential {
                    return Err(format!(
                        "{} at {t} thread(s): streamed output diverged from sequential execution",
                        kernel.name()
                    ));
                }
                let desc = kernel.descriptor();
                let session_elems = desc.stream_scratch_elems(len, chunk);
                println!(
                    "{:<16} {:>8} {:>12.0}   streamed({chunk}/push, {:?}): bit-identical; \
                     per-row session scratch ~{session_elems} elems vs {} matrix elems",
                    format!("  {}", kernel.name()),
                    t,
                    stream_rows_per_s,
                    desc.streaming,
                    rows * len,
                );
                results.push(serde_json::json!({
                    "kernel": kernel.name(),
                    "threads": t,
                    "path": "streamed",
                    "stream_chunk": chunk,
                    "streaming_class": format!("{:?}", desc.streaming),
                    "rows_per_s": stream_rows_per_s,
                    "session_scratch_elems": session_elems,
                    "materialized_matrix_elems": rows * len,
                    "bit_identical": true,
                }));
            }
        }
    }

    println!();
    println!(
        "{}",
        serde_json::json!({
            "command": "serve",
            "rows": rows,
            "row_len": len,
            "repeat": repeat,
            "seed": seed,
            // Resolved chunk geometry (identical across the engines): the
            // hw-PE-derived shape unless --chunk-rows overrode it.
            "chunk_rows": engines[0].config().chunk_rows,
            "vector_width": engines[0].config().vector_width,
            "results": serde_json::Value::Array(results),
        })
    );
    Ok(())
}

/// Geometry and load shape of the concurrent `serve` mode.
struct ConcurrentServeOpts {
    clients: usize,
    shards: usize,
    inflight: usize,
    requests: usize,
    policy: RoutePolicy,
    no_steal: bool,
    streaming: bool,
    stream_chunk: Option<usize>,
    threads: usize,
    chunk_rows: Option<usize>,
    rows: usize,
    len: usize,
    seed: u64,
    stats_json: bool,
}

/// The concurrent `serve` mode: M client threads each submit K owned
/// score matrices through a [`ShardedRouter`] (blocking admission) and
/// collect their tickets, with every response guarded **bit-identical**
/// against sequential row-at-a-time execution before any number is
/// reported. Rows/s and p50/p95/p99 request latency come from the
/// router's merged per-kernel accounting.
fn serve_concurrent(
    kernels: &[Arc<dyn SoftmaxKernel>],
    opts: &ConcurrentServeOpts,
) -> Result<(), String> {
    let mut config = ServeConfig::new(opts.threads)
        .with_queue_depth(opts.inflight)
        .with_work_stealing(!opts.no_steal);
    if let Some(c) = opts.chunk_rows {
        config = config.with_chunk_rows(c);
    }
    let router = ShardedRouter::new(opts.shards, config, opts.policy).map_err(|e| e.to_string())?;
    println!(
        "# softermax serve (concurrent): {} client(s) x {} request(s) of {} rows x {}, \
         {} shard(s) x {} thread(s), inflight {}, {:?}{}\n",
        opts.clients,
        opts.requests,
        opts.rows,
        opts.len,
        opts.shards,
        opts.threads,
        opts.inflight,
        opts.policy,
        if opts.streaming {
            " (alternating batch/streamed submissions)"
        } else {
            ""
        },
    );
    println!(
        "{:<16} {:>8} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "kernel", "clients", "shards", "rows/s", "p50 ms", "p95 ms", "p99 ms"
    );

    let mut results: Vec<serde_json::Value> = Vec::new();
    for kernel in kernels {
        router.reset_stats();
        // Plan every request matrix (deterministic per (client,
        // request)). The sequential ground truth is *recomputed* during
        // the post-wall verification pass instead of stored, so peak
        // memory stays at matrices + responses.
        let plans: Vec<Vec<Vec<f64>>> = (0..opts.clients)
            .map(|client| {
                (0..opts.requests)
                    .map(|request| {
                        traffic::synthetic_matrix(
                            opts.rows,
                            opts.len,
                            2.5,
                            opts.seed ^ (1 + (client * opts.requests + request) as u64),
                        )
                    })
                    .collect()
            })
            .collect();

        // Timed window: clients submit and collect only. The bit
        // comparison against the ground truth runs after the wall is
        // taken, so verification cost never deflates the reported
        // throughput (the per-request matrix clone stays — handing an
        // owned payload to the engine is part of submitting).
        let t0 = std::time::Instant::now();
        let responses: Vec<Vec<Result<Vec<f64>, String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(client, reqs)| {
                    let router = &router;
                    scope.spawn(move || {
                        reqs.iter()
                            .enumerate()
                            .map(|(request, matrix)| {
                                let mut submission =
                                    Submission::new(kernel, matrix.clone(), opts.len);
                                if opts.streaming && (client + request) % 2 == 1 {
                                    let chunk =
                                        opts.stream_chunk.unwrap_or_else(|| opts.len.max(1));
                                    submission = submission.streamed(chunk);
                                }
                                router
                                    .submit_request(submission, Admission::Block)
                                    .and_then(Ticket::wait)
                                    .map_err(|e| e.to_string())
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64().max(1e-12);

        // Post-wall verification (unmeasured): recompute each request's
        // sequential ground truth, bit-compare, and free the response
        // as it is checked. A failed response aborts the report.
        let mut scratch = ScratchBuffers::default();
        let mut mismatches = 0usize;
        let mut want = vec![0.0; opts.rows * opts.len];
        for (reqs, outs) in plans.iter().zip(responses) {
            for (matrix, outcome) in reqs.iter().zip(outs) {
                let got = outcome
                    .map_err(|e| format!("{}: a concurrent request failed: {e}", kernel.name()))?;
                for (row, out_row) in matrix
                    .chunks_exact(opts.len)
                    .zip(want.chunks_exact_mut(opts.len))
                {
                    kernel
                        .forward_into(row, out_row, &mut scratch)
                        .map_err(|e| e.to_string())?;
                }
                if got
                    .iter()
                    .map(|v| v.to_bits())
                    .ne(want.iter().map(|v| v.to_bits()))
                {
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            return Err(format!(
                "{}: {mismatches} concurrent request(s) diverged from sequential execution",
                kernel.name()
            ));
        }

        let stats = router.stats();
        let s = stats
            .kernel(kernel.name())
            .ok_or_else(|| "router recorded no traffic".to_string())?;
        let total_rows = opts.clients * opts.requests * opts.rows;
        let rows_per_s = total_rows as f64 / wall_s;
        let [p50, p95, p99] = s.latency_percentiles_ns();
        println!(
            "{:<16} {:>8} {:>7} {:>12.0} {:>10.3} {:>10.3} {:>10.3}",
            kernel.name(),
            opts.clients,
            opts.shards,
            rows_per_s,
            p50 as f64 / 1e6,
            p95 as f64 / 1e6,
            p99 as f64 / 1e6,
        );
        results.push(serde_json::json!({
            "kernel": kernel.name(),
            "clients": opts.clients,
            "shards": opts.shards,
            "threads_per_shard": opts.threads,
            "inflight": opts.inflight,
            "requests_per_client": opts.requests,
            "request_rows": opts.rows,
            "request_len": opts.len,
            "rows_per_s": rows_per_s,
            "p50_latency_ms": p50 as f64 / 1e6,
            "p95_latency_ms": p95 as f64 / 1e6,
            "p99_latency_ms": p99 as f64 / 1e6,
            "mean_latency_ms": s.mean_batch_latency_ns() / 1e6,
            "bit_identical": true,
        }));
    }

    // The scheduler/health counters the network control plane reports
    // (PR 7's breaker/respawn and PR 8's stealing telemetry) — printed
    // here too so the local CLI and a remote `Stats` frame surface the
    // same fields.
    println!(
        "\nscheduler: {} stolen, {} donated, {} breaker trip(s), {} worker respawn(s)",
        router.jobs_stolen(),
        router.jobs_donated(),
        router.breaker_trips(),
        router.worker_respawns(),
    );

    println!();
    println!(
        "{}",
        serde_json::json!({
            "command": "serve-concurrent",
            "clients": opts.clients,
            "shards": opts.shards,
            "threads_per_shard": opts.threads,
            "inflight": opts.inflight,
            "requests_per_client": opts.requests,
            "request_rows": opts.rows,
            "request_len": opts.len,
            "policy": format!("{:?}", opts.policy),
            "streaming_mix": opts.streaming,
            "seed": opts.seed,
            "scheduler": {
                "jobs_stolen": router.jobs_stolen(),
                "jobs_donated": router.jobs_donated(),
                "breaker_trips": router.breaker_trips(),
                "worker_respawns": router.worker_respawns(),
            },
            "results": serde_json::Value::Array(results),
        })
    );
    if opts.stats_json {
        // The full control snapshot, through the exact code path a
        // `softermax-server` uses to answer a `Stats` frame.
        let snapshot = serde_json::to_string_pretty(&router.control_snapshot())
            .map_err(|e| format!("control snapshot serialization failed: {e}"))?;
        println!("{snapshot}");
    }
    Ok(())
}

/// The `attention` subcommand: multi-head attention demo over a seeded
/// random sequence. The materialized path (full score matrix → batched
/// softmax → P·V) always runs; `--streaming` additionally runs the tiled
/// path — QK^T column tiles streamed straight into per-head
/// `StreamSession`s, no score matrix ever materialized — and reports
/// bit-parity plus the peak-scratch comparison per kernel.
fn cmd_attention(args: &[String]) -> Result<(), String> {
    let mut backend = "softermax".to_string();
    let mut seq = 64usize;
    let mut heads = 2usize;
    let mut dim = 32usize;
    let mut tile = softermax_transformer::attention::DEFAULT_TILE;
    let mut seed = 42u64;
    let mut streaming = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--backend" => backend = value("--backend")?,
            "--seq" => seq = parse_count(&value("--seq")?, "--seq")?,
            "--heads" => heads = parse_count(&value("--heads")?, "--heads")?,
            "--dim" => dim = parse_count(&value("--dim")?, "--dim")?,
            "--tile" => tile = parse_count(&value("--tile")?, "--tile")?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--streaming" => streaming = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !dim.is_multiple_of(heads) {
        return Err(format!("--dim {dim} must be divisible by --heads {heads}"));
    }

    let registry = KernelRegistry::global();
    let kernels: Vec<Arc<dyn SoftmaxKernel>> = if backend == "all" {
        registry.kernels().to_vec()
    } else {
        vec![registry
            .get(&backend)
            .ok_or_else(|| format!("unknown backend '{backend}' (see `softermax kernels`)"))?]
    };

    println!("# softermax attention: seq {seq} x dim {dim}, {heads} head(s), tile {tile}\n");
    let mut results: Vec<serde_json::Value> = Vec::new();
    for kernel in &kernels {
        let mut rng = StdRng::seed_from_u64(seed);
        let softmax = Arc::new(KernelSoftmax::from_kernel(Arc::clone(kernel)));
        let mut mha = MultiHeadAttention::new(dim, heads, softmax, &mut rng);
        let x = Matrix::xavier(seq, dim, &mut rng);

        let mat_start = std::time::Instant::now();
        let materialized = mha.forward(&x);
        let mat_ms = mat_start.elapsed().as_secs_f64() * 1e3;
        let (mat_scratch, stream_scratch) = head_scratch_estimates(kernel.descriptor(), seq, tile);

        if streaming {
            let stream_start = std::time::Instant::now();
            let streamed = mha.forward_streamed(&x, tile);
            let stream_ms = stream_start.elapsed().as_secs_f64() * 1e3;
            let parity = streamed == materialized;
            let desc = kernel.descriptor();
            println!(
                "{:<16} parity={} ({:?})  scratch/head: streamed ~{} elems vs materialized {} \
                 elems  ({:.2} ms vs {:.2} ms)",
                kernel.name(),
                if parity { "bit-identical" } else { "DIVERGED" },
                desc.streaming,
                stream_scratch,
                mat_scratch,
                stream_ms,
                mat_ms,
            );
            if !parity {
                return Err(format!(
                    "{}: streamed attention diverged from materialized attention",
                    kernel.name()
                ));
            }
            results.push(serde_json::json!({
                "kernel": kernel.name(),
                "streaming_class": format!("{:?}", desc.streaming),
                "bit_identical": true,
                "materialized_ms": mat_ms,
                "streamed_ms": stream_ms,
                "materialized_scratch_elems_per_head": mat_scratch,
                "streamed_scratch_elems_per_head": stream_scratch,
            }));
        } else {
            println!(
                "{:<16} materialized forward: {:.2} ms  (scratch/head {} elems; \
                 add --streaming for the tiled no-score-matrix path)",
                kernel.name(),
                mat_ms,
                mat_scratch,
            );
            results.push(serde_json::json!({
                "kernel": kernel.name(),
                "materialized_ms": mat_ms,
                "materialized_scratch_elems_per_head": mat_scratch,
            }));
        }
    }

    println!();
    println!(
        "{}",
        serde_json::json!({
            "command": "attention",
            "seq": seq,
            "dim": dim,
            "heads": heads,
            "tile": tile,
            "seed": seed,
            "streaming": streaming,
            "results": serde_json::Value::Array(results),
        })
    );
    Ok(())
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} must be a positive integer")),
    }
}

fn cmd_hw(args: &[String]) -> Result<(), String> {
    let mut width = 32usize;
    let mut seq = 384usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--width" => {
                width = it
                    .next()
                    .ok_or_else(|| "--width needs a value".to_string())?
                    .parse()
                    .map_err(|_| "--width must be 16 or 32".to_string())?;
            }
            "--seq" => {
                seq = it
                    .next()
                    .ok_or_else(|| "--seq needs a value".to_string())?
                    .parse()
                    .map_err(|_| "--seq must be a positive integer".to_string())?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let pe = match width {
        16 => PeConfig::paper_16(),
        32 => PeConfig::paper_32(),
        _ => return Err("--width must be 16 or 32".to_string()),
    };
    if seq == 0 {
        return Err("--seq must be positive".to_string());
    }
    let ours = Accelerator::softermax_default(pe.clone(), 1);
    let theirs = Accelerator::baseline_default(pe, 1);
    let shape = AttentionShape::bert_large().with_seq_len(seq);
    let a = ours.self_softmax_energy(&shape);
    let b = theirs.self_softmax_energy(&shape);
    println!(
        "{}",
        serde_json::json!({
            "width": width,
            "seq_len": seq,
            "softermax": {
                "pe_area_um2": ours.pe().area_um2(),
                "self_softmax_energy_uj": a.total_uj(),
                "softmax_fraction": a.softmax_fraction(),
            },
            "designware_baseline": {
                "pe_area_um2": theirs.pe().area_um2(),
                "self_softmax_energy_uj": b.total_uj(),
                "softmax_fraction": b.softmax_fraction(),
            },
            "energy_improvement": b.total_pj() / a.total_pj(),
            "area_ratio": ours.pe().area_um2() / theirs.pe().area_um2(),
        })
    );
    Ok(())
}

fn cmd_config() {
    let cfg = SoftermaxConfig::paper();
    println!(
        "{}",
        serde_json::to_string_pretty(&cfg).expect("config serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn softmax_default_backend_works() {
        assert!(run(&s(&["softmax", "2", "1", "3"])).is_ok());
    }

    #[test]
    fn softmax_all_canonical_names_work() {
        for kernel in &KernelRegistry::with_builtins() {
            assert!(
                run(&s(&[
                    "softmax",
                    "--backend",
                    kernel.name(),
                    "1.5",
                    "-0.5",
                    "0.25"
                ]))
                .is_ok(),
                "backend {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn softmax_historical_aliases_still_work() {
        for b in [
            "exact",
            "base2",
            "online",
            "intmax",
            "fp16",
            "lut",
            "softermax",
        ] {
            assert!(
                run(&s(&["softmax", "--backend", b, "1.5", "-0.5", "0.25"])).is_ok(),
                "backend {b}"
            );
        }
    }

    #[test]
    fn softmax_rejects_bad_input() {
        assert!(run(&s(&["softmax", "two"])).is_err());
        assert!(run(&s(&["softmax"])).is_err());
        assert!(run(&s(&["softmax", "--backend", "nope", "1"])).is_err());
        assert!(run(&s(&["softmax", "--backend"])).is_err());
    }

    #[test]
    fn compare_works() {
        assert!(run(&s(&["compare", "2", "1", "3"])).is_ok());
    }

    #[test]
    fn kernels_lists_the_registry() {
        assert!(run(&s(&["kernels"])).is_ok());
    }

    #[test]
    fn serve_reports_and_guards_bit_identity() {
        assert!(run(&s(&[
            "serve",
            "--rows",
            "64",
            "--len",
            "16",
            "--threads",
            "1,2",
            "--repeat",
            "1"
        ]))
        .is_ok());
        assert!(run(&s(&[
            "serve",
            "--backend",
            "all",
            "--rows",
            "8",
            "--len",
            "4",
            "--threads",
            "2",
            "--repeat",
            "1",
            "--chunk-rows",
            "2"
        ]))
        .is_ok());
    }

    #[test]
    fn serve_concurrent_mode_guards_bit_identity() {
        assert!(run(&s(&[
            "serve",
            "--rows",
            "8",
            "--len",
            "8",
            "--threads",
            "2",
            "--clients",
            "3",
            "--shards",
            "2",
            "--inflight",
            "4",
            "--requests",
            "3",
        ]))
        .is_ok());
        assert!(run(&s(&[
            "serve",
            "--backend",
            "online-intmax",
            "--rows",
            "6",
            "--len",
            "4",
            "--threads",
            "2",
            "--clients",
            "2",
            "--requests",
            "2",
            "--policy",
            "least-loaded",
            "--streaming",
            "--stream-chunk",
            "3",
        ]))
        .is_ok());
        // Adaptive routing and the stealing kill-switch parse and run.
        assert!(run(&s(&[
            "serve",
            "--backend",
            "softermax",
            "--rows",
            "6",
            "--len",
            "4",
            "--threads",
            "2",
            "--clients",
            "2",
            "--shards",
            "2",
            "--requests",
            "2",
            "--policy",
            "adaptive",
            "--no-steal",
        ]))
        .is_ok());
    }

    #[test]
    fn serve_concurrent_rejects_bad_flags() {
        assert!(run(&s(&["serve", "--clients", "0"])).is_err());
        assert!(run(&s(&["serve", "--shards", "x"])).is_err());
        assert!(run(&s(&["serve", "--policy", "fastest"])).is_err());
        assert!(run(&s(&["serve", "--inflight"])).is_err());
        // A --threads sweep is ambiguous in concurrent mode, and
        // --repeat is a classic-mode knob: both rejected, never
        // silently ignored.
        assert!(run(&s(&[
            "serve",
            "--clients",
            "2",
            "--repeat",
            "5",
            "--rows",
            "4",
            "--len",
            "4"
        ]))
        .is_err());
        assert!(run(&s(&[
            "serve",
            "--clients",
            "2",
            "--threads",
            "1,4",
            "--rows",
            "4",
            "--len",
            "4"
        ]))
        .is_err());
    }

    #[test]
    fn any_concurrency_flag_selects_concurrent_mode() {
        // A lone concurrency flag must not be silently ignored: it runs
        // the concurrent path (here: the 1-client baseline).
        assert!(run(&s(&[
            "serve",
            "--rows",
            "4",
            "--len",
            "4",
            "--threads",
            "1",
            "--requests",
            "2",
            "--policy",
            "least-loaded",
        ]))
        .is_ok());
    }

    #[test]
    fn serve_streaming_toggle_guards_parity() {
        assert!(run(&s(&[
            "serve",
            "--rows",
            "32",
            "--len",
            "8",
            "--threads",
            "2",
            "--repeat",
            "1",
            "--streaming",
            "--stream-chunk",
            "3"
        ]))
        .is_ok());
    }

    #[test]
    fn attention_demo_runs_and_guards_parity() {
        assert!(run(&s(&[
            "attention",
            "--seq",
            "12",
            "--heads",
            "2",
            "--dim",
            "8",
            "--tile",
            "5",
            "--streaming"
        ]))
        .is_ok());
        assert!(run(&s(&["attention", "--seq", "8", "--dim", "8"])).is_ok());
        assert!(run(&s(&[
            "attention",
            "--backend",
            "all",
            "--seq",
            "6",
            "--dim",
            "4",
            "--heads",
            "2",
            "--tile",
            "1",
            "--streaming"
        ]))
        .is_ok());
    }

    #[test]
    fn attention_rejects_bad_flags() {
        assert!(run(&s(&["attention", "--dim", "6", "--heads", "4"])).is_err());
        assert!(run(&s(&["attention", "--backend", "nope"])).is_err());
        assert!(run(&s(&["attention", "--tile", "0"])).is_err());
        assert!(run(&s(&["attention", "--bogus"])).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run(&s(&["serve", "--rows", "0"])).is_err());
        assert!(run(&s(&["serve", "--threads", "1,x"])).is_err());
        assert!(run(&s(&["serve", "--backend", "nope"])).is_err());
        assert!(run(&s(&["serve", "--bogus"])).is_err());
        assert!(run(&s(&["serve", "--rows"])).is_err());
    }

    #[test]
    fn hw_flags_parse() {
        assert!(run(&s(&["hw"])).is_ok());
        assert!(run(&s(&["hw", "--width", "16", "--seq", "128"])).is_ok());
        assert!(run(&s(&["hw", "--width", "8"])).is_err());
        assert!(run(&s(&["hw", "--seq", "0"])).is_err());
        assert!(run(&s(&["hw", "--bogus"])).is_err());
    }

    #[test]
    fn config_prints() {
        assert!(run(&s(&["config"])).is_ok());
    }

    #[test]
    fn backend_outputs_agree_on_worked_example() {
        let scores = [2.0, 1.0, 3.0];
        let want = eval_backend("base2", &scores).unwrap();
        for b in ["online", "intmax", "softermax"] {
            let got = eval_backend(b, &scores).unwrap();
            assert!(
                metrics::max_abs_error(&got, &want) < 0.02,
                "backend {b} diverged"
            );
        }
    }
}
