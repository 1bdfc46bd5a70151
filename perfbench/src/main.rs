//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! Runs one seeded workload for `S` seconds against the serving stack,
//! bit-checks every reply against sequential ground truth, and prints a
//! summary (lines starting with `#`) followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from a run whose odd half-second slices are traced,
//! followed by single-layer replays. Exits 1 on any mismatch or on a
//! request sent without an outcome, 2 on any other error.
//! `perfbench/README.md` documents the workloads and metrics.

mod drive;
mod inputs;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use drive::{closed_loop, EngineCounters, LocalPipe, Phase, RemotePipe, Tally, Watchdog};
use inputs::Spec;
use stats::percentile;
use trace::Tracer;
use workload::{Ctx, Kind, Workload, KERNELS};

/// Where spans and Unix sockets go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";
/// Set-ups per run; `setup_s` is their median.
const REMOTE_SETUPS: usize = 21;
const LOCAL_SETUPS: usize = 201;
/// Un-measured warm-up before the timed phase.
const WARMUP_S: f64 = 0.5;
/// Length of a closed loop's request plan (cycled).
const PLAN_LEN: usize = 4096;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

/// What one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Counts of the warm-up, which is bit-checked like the timed phase.
    warm: Tally,
    phase: Phase,
    tally: Tally,
    /// Timed phase plus the final drain.
    elapsed_s: f64,
    bench_cpu_ns: u64,
    /// CPU of the server child (remote only).
    server_cpu_ns: u64,
    peak_rss_mb: f64,
    /// Counter deltas of the in-process router (local workloads).
    engine: Option<EngineCounters>,
    /// Counter deltas read through `Stats` frames (remote workload).
    server_engine: Option<EngineCounters>,
    tracer: Tracer,
    plan: Vec<Spec>,
}

fn cpu(pid: u32) -> Result<u64, String> {
    procfs::cpu_ns(pid).map_err(|e| e.to_string())
}

fn plan(args: &Args, ctx: &Ctx) -> Vec<Spec> {
    inputs::closed_plan(
        args.seed,
        KERNELS.len(),
        ctx.pool.payloads.len(),
        ctx.pool.row_len,
        PLAN_LEN,
    )
}

/// Ends a run in which a request went without an outcome: prints the
/// counts and a result with `"correct": false`, and exits 1. Serving
/// threads are not joined on the way out, since one that never answered
/// may never return; a server child must be stopped before.
fn exit_lost(tallies: &[&Tally]) -> ! {
    let sent: u64 = tallies.iter().map(|t| t.sent).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let lost: u64 = tallies.iter().map(|t| t.lost()).sum();
    println!("# {lost} of {sent} requests sent got no outcome");
    println!(
        "{{\"correct\": false, \"attempted\": {sent}, \"failed\": {}, \"metrics\": {{}}}}",
        failed + lost
    );
    std::process::exit(1);
}

fn run_remote(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let socket = Path::new(OUT_DIR).join(format!("srv-{}.sock", std::process::id()));
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..REMOTE_SETUPS {
        let (server, client, took) = drive::remote_setup(&args.server_bin, &socket)?;
        setup_s.push(took.as_secs_f64());
        if let Some((server, client)) = live.replace((server, client)) {
            server.stop(client)?;
        }
    }
    let (server, client) = live.ok_or("no server")?;
    let plan = plan(args, ctx);
    let mut pipe = RemotePipe {
        client,
        watchdog: Watchdog::start(&server),
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut cursor = 0;
    let me = std::process::id();
    let warm_phase = Phase::new(WARMUP_S, false);
    let mut warm = Tally::new(&warm_phase);
    closed_loop(
        &mut pipe,
        ctx,
        &plan,
        &mut cursor,
        &warm_phase,
        &mut warm,
        &mut tracer,
        server.pid(),
    )?;
    if warm.lost() > 0 {
        drop((pipe, server));
        exit_lost(&[&warm]);
    }

    let stats = |pipe: &mut RemotePipe| {
        let v = pipe.client.stats().map_err(|e| format!("stats: {e}"))?;
        EngineCounters::of_stats_frame(&v)
    };
    let engine0 = stats(&mut pipe)?;
    let (bench0, server0) = (cpu(me)?, cpu(server.pid())?);
    let phase = Phase::new(args.seconds as f64, args.trace);
    let mut tally = Tally::new(&phase);
    closed_loop(
        &mut pipe,
        ctx,
        &plan,
        &mut cursor,
        &phase,
        &mut tally,
        &mut tracer,
        server.pid(),
    )?;
    let elapsed_s = phase.start.elapsed().as_secs_f64();
    if tally.lost() > 0 {
        drop((pipe, server));
        exit_lost(&[&warm, &tally]);
    }
    let (bench1, server1) = (cpu(me)?, cpu(server.pid())?);
    let engine1 = stats(&mut pipe)?;
    let peak_rss_mb = procfs::peak_rss_mb(server.pid()).map_err(|e| e.to_string())?;
    let RemotePipe { client, watchdog } = pipe;
    drop(watchdog);
    server.stop(client)?;
    Ok(Run {
        setup_s,
        warm,
        phase,
        tally,
        elapsed_s,
        bench_cpu_ns: bench1 - bench0,
        server_cpu_ns: server1 - server0,
        peak_rss_mb,
        engine: None,
        server_engine: Some(engine1.since(engine0)),
        tracer,
        plan,
    })
}

fn run_local(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    let me = std::process::id();
    // The payloads and ground truth are the benchmark's, not the
    // router's: the peak is taken above what is resident after them.
    let baseline_mb = procfs::rss_mb(me).map_err(|e| e.to_string())?;
    let mut setup_s = Vec::new();
    for _ in 1..LOCAL_SETUPS {
        let t0 = Instant::now();
        let router = workload::local_router().map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(router);
    }
    let t0 = Instant::now();
    let router = workload::local_router().map_err(|e| e.to_string())?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let plan = plan(args, ctx);
    let mut pipe = LocalPipe {
        router: &router,
        tickets: Default::default(),
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut cursor = 0;
    let warm_phase = Phase::new(WARMUP_S, false);
    let mut warm = Tally::new(&warm_phase);
    closed_loop(
        &mut pipe,
        ctx,
        &plan,
        &mut cursor,
        &warm_phase,
        &mut warm,
        &mut tracer,
        me,
    )?;
    if warm.lost() > 0 {
        exit_lost(&[&warm]);
    }
    let (engine0, cpu0) = (EngineCounters::of_router(&router), cpu(me)?);
    let phase = Phase::new(args.seconds as f64, args.trace);
    let mut tally = Tally::new(&phase);
    closed_loop(
        &mut pipe,
        ctx,
        &plan,
        &mut cursor,
        &phase,
        &mut tally,
        &mut tracer,
        me,
    )?;
    let elapsed_s = phase.start.elapsed().as_secs_f64();
    if tally.lost() > 0 {
        exit_lost(&[&warm, &tally]);
    }
    let cpu_ns = cpu(me)? - cpu0;
    let engine = EngineCounters::of_router(&router).since(engine0);
    let peak_rss_mb = procfs::peak_rss_mb(me).map_err(|e| e.to_string())? - baseline_mb;
    Ok(Run {
        setup_s,
        warm,
        phase,
        tally,
        elapsed_s,
        bench_cpu_ns: cpu_ns,
        server_cpu_ns: 0,
        peak_rss_mb,
        engine: Some(engine),
        server_engine: None,
        tracer,
        plan,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A latency percentile of the timed phase by the reporting rule, with
/// its summary line.
fn latency(name: &str, t: &Tally, q: f64, notes: &mut Vec<String>) -> Result<f64, String> {
    let mut sorted = t.latency_ms.clone();
    stats::sort(&mut sorted);
    let p =
        percentile(&sorted, q).ok_or_else(|| format!("{name}: only {} samples", sorted.len()))?;
    notes.push(format!(
        "{name}: p{:.3} of {} samples",
        p.q * 100.0,
        p.samples
    ));
    Ok(p.value)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics, all over the whole timed phase: the bounded
/// ones, then the summary-only ones (`latency_p99_ms` swings with the
/// host's slow episodes far beyond any allowed bound; `deadline_met_frac`
/// is 1 by construction with the closed loops' 30 s deadlines; and
/// `failed_frac` is usually exactly 0).
fn end_to_end(run: &Run, notes: &mut Vec<String>) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let t = &run.tally;
    let rows = t.ok_rows as f64;
    let cpu_ns = (run.bench_cpu_ns + run.server_cpu_ns) as f64;
    let bounded = vec![
        metric(
            "setup_s",
            stats::median(&run.setup_s).ok_or("no set-up")?,
            "s",
        ),
        metric("rows_per_s", rows / run.elapsed_s, "rows/s"),
        metric(
            "latency_p50_ms",
            latency("latency_p50_ms", t, 0.5, notes)?,
            "ms",
        ),
        metric("ok_frac", ratio(t.ok as f64, t.sent as f64), "frac"),
        metric("cpu_us_per_row", ratio(cpu_ns / 1e3, rows), "us"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
    ];
    let summary = vec![
        metric(
            "latency_p99_ms",
            latency("latency_p99_ms", t, 0.99, notes)?,
            "ms",
        ),
        metric(
            "deadline_met_frac",
            ratio(t.deadline_met as f64, t.deadline_sent as f64),
            "frac",
        ),
        metric("failed_frac", ratio(t.failed as f64, t.sent as f64), "frac"),
    ];
    Ok((bounded, summary))
}

/// Engine metrics from counter deltas over the run's elapsed time.
fn engine_metrics(prefix: &str, c: Option<EngineCounters>, elapsed_s: f64) -> Vec<Metric> {
    let c = c.unwrap_or_default();
    let finished = (c.batches + c.failed_batches + c.expired) as f64;
    let busy = ratio(c.busy_ns as f64 / 1e3, finished);
    let wall = ratio(c.wall_ns as f64 / 1e3, c.batches as f64);
    let workers = (workload::SHARDS * workload::THREADS_PER_SHARD) as f64;
    vec![
        metric(format!("{prefix}engine.busy_us_per_request"), busy, "us"),
        metric(format!("{prefix}engine.wall_us_per_request"), wall, "us"),
        metric(
            format!("{prefix}engine.wait_us_per_request"),
            if c.batches > 0 { wall - busy } else { 0.0 },
            "us",
        ),
        metric(
            format!("{prefix}engine.utilization"),
            c.busy_ns as f64 / (workers * elapsed_s * 1e9),
            "frac",
        ),
        metric(format!("{prefix}engine.expired"), c.expired as f64, "count"),
        metric(
            format!("{prefix}engine.failed_batches"),
            c.failed_batches as f64,
            "count",
        ),
    ]
}

fn router_counters(prefix: &str, c: Option<EngineCounters>) -> Vec<Metric> {
    let c = c.unwrap_or_default();
    vec![
        metric(
            format!("{prefix}router.jobs_stolen"),
            c.jobs_stolen as f64,
            "count",
        ),
        metric(
            format!("{prefix}router.jobs_donated"),
            c.jobs_donated as f64,
            "count",
        ),
        metric(
            format!("{prefix}router.breaker_trips"),
            c.breaker_trips as f64,
            "count",
        ),
    ]
}

/// A span-duration percentile, or 0 when the layer is not on this
/// workload's path.
fn span_pct(tracer: &Tracer, name: &str, q: f64) -> f64 {
    let mut d = tracer.durations_us(name);
    stats::sort(&mut d);
    percentile(&d, q).map_or(0.0, |p| p.value)
}

fn per_layer(run: &mut Run, ctx: &Ctx, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let remote = run.server_engine.is_some();
    let sent = run.tally.sent as f64;
    let kernels = replay::kernels(ctx, &run.tally.served, &mut run.tracer)?;
    let wire = replay::wire(ctx, &run.plan, &mut run.tracer)?;
    let t = &run.tally;
    let tracer = &run.tracer;

    let mut m: Vec<Metric> = KERNELS
        .iter()
        .zip(kernels.ns_per_elem)
        .map(|(name, ns)| metric(format!("kernel.{name}.ns_per_elem"), ns, "ns"))
        .collect();
    let serving_cpu_ns = if remote {
        run.server_cpu_ns
    } else {
        run.bench_cpu_ns
    };
    m.push(metric(
        "kernel.share",
        ratio(kernels.served_ns, serving_cpu_ns as f64),
        "frac",
    ));

    m.extend(engine_metrics("", run.engine, run.elapsed_s));
    m.push(metric(
        "router.submit_us_p50",
        span_pct(tracer, "router.submit_request", 0.5),
        "us",
    ));
    m.push(metric(
        "router.submit_us_p99",
        span_pct(tracer, "router.submit_request", 0.99),
        "us",
    ));
    m.push(metric("router.queue_full", t.queue_full as f64, "count"));
    m.extend(router_counters("", run.engine));

    m.push(metric("wire.submit_encode_us", wire.submit_encode_us, "us"));
    m.push(metric("wire.submit_decode_us", wire.submit_decode_us, "us"));
    m.push(metric("wire.reply_encode_us", wire.reply_encode_us, "us"));
    m.push(metric("wire.reply_decode_us", wire.reply_decode_us, "us"));
    m.push(metric("wire.request_bytes", wire.request_bytes, "B"));
    m.push(metric("wire.reply_bytes", wire.reply_bytes, "B"));
    m.push(metric(
        "wire.bytes_per_payload_byte",
        ratio(
            wire.request_bytes + wire.reply_bytes,
            2.0 * wire.payload_bytes,
        ),
        "ratio",
    ));

    m.push(metric(
        "client.submit_us_p50",
        span_pct(tracer, "client.submit", 0.5),
        "us",
    ));
    m.push(metric(
        "client.next_reply_us_p50",
        span_pct(tracer, "client.next_reply", 0.5),
        "us",
    ));
    let client_cpu = if remote {
        ratio(run.bench_cpu_ns as f64 / 1e3, sent)
    } else {
        0.0
    };
    m.push(metric("client.cpu_us_per_request", client_cpu, "us"));

    // The server's CPU per request, split into codec (submit decode +
    // reply encode, replayed), kernel (replayed) and the rest.
    let (server_cpu, codec, kernel) = if remote {
        (
            ratio(run.server_cpu_ns as f64 / 1e3, sent),
            wire.submit_decode_us + wire.reply_encode_us,
            ratio(kernels.served_ns / 1e3, sent),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    m.push(metric("server.cpu_us_per_request", server_cpu, "us"));
    m.push(metric("server.codec_us_per_request", codec, "us"));
    m.push(metric("server.kernel_us_per_request", kernel, "us"));
    m.push(metric(
        "server.unattributed_us_per_request",
        server_cpu - codec - kernel,
        "us",
    ));
    m.push(metric(
        "server.threads_peak",
        if remote { t.threads_peak as f64 } else { 0.0 },
        "count",
    ));
    m.extend(engine_metrics("server.", run.server_engine, run.elapsed_s));
    m.extend(router_counters("server.", run.server_engine));

    m.push(metric("gen.sent", sent, "count"));

    let self_ns = trace::self_times(tracer.spans());
    let request_self: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    m.push(metric(
        "bench.self_us_per_request",
        ratio(request_self.iter().sum(), request_self.len() as f64),
        "us",
    ));
    m.push(metric("failed_frac", ratio(t.failed as f64, sent), "frac"));
    let untraced = stats::median(&t.slice_rates(&run.phase, false)).ok_or("no untraced slice")?;
    let traced = stats::median(&t.slice_rates(&run.phase, true)).ok_or("no traced slice")?;
    m.push(metric(
        "trace.overhead_frac",
        1.0 - ratio(traced, untraced),
        "frac",
    ));
    notes.push(format!(
        "server split (us/request): cpu {server_cpu:.1} = codec {codec:.1} + kernel {kernel:.1} + unattributed {:.1}",
        server_cpu - codec - kernel
    ));
    Ok(m)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let ctx = Ctx::build(args.workload, args.seed)?;
    let mut run = match args.workload.kind {
        Kind::Remote => run_remote(args, &ctx)?,
        Kind::Local => run_local(args, &ctx)?,
    };
    let mut notes = Vec::new();
    let (metrics, summary) = if args.trace {
        let m = per_layer(&mut run, &ctx, &mut notes)?;
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{}.spans.tsv",
            args.workload.name, args.seed
        ));
        run.tracer.write_tsv(&path).map_err(|e| e.to_string())?;
        notes.push(format!(
            "{} spans written to {}",
            run.tracer.spans().len(),
            path.display()
        ));
        (m, Vec::new())
    } else {
        end_to_end(&run, &mut notes)?
    };
    let (w, t) = (&run.warm, &run.tally);
    let rates: Vec<String> = t
        .slice_rows
        .iter()
        .map(|r| (r * 1_000_000_000 / drive::SLICE_NS).to_string())
        .collect();
    notes.push(format!(
        "rows/s per slice: {} (median {})",
        rates.join(" "),
        stats::median(&t.slice_rates(&run.phase, false)).unwrap_or(0.0)
    ));
    let correct = drive::correct(w, t);
    notes.push(format!(
        "warm-up: sent {} ok {} failed {} mismatched {}",
        w.sent, w.ok, w.failed, w.mismatched
    ));
    notes.push(format!(
        "timed: sent {} ok {} failed {} mismatched {} over {:.3} s",
        t.sent, t.ok, t.failed, t.mismatched, run.elapsed_s
    ));
    for note in &notes {
        println!("# {note}");
    }
    let mut body = Vec::with_capacity(metrics.len());
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("# {:<40} {:>16} {}", m.name, m.value, m.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    for m in &summary {
        println!("# {:<40} {:>16} {} (summary only)", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.sent + t.sent,
        w.failed + t.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_need_every_flag() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload local-long --seed 3 --seconds 2 --trace 1 --server-bin x",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("local-long", 3, 2, true)
        );
        assert!(parse_args(&argv(
            "--workload nope --seed 3 --seconds 2 --trace 0 --server-bin x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload local-long --seed 3 --seconds 0 --trace 0 --server-bin x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload local-long --seed 3 --seconds 2 --trace 2 --server-bin x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload local-long --seconds 2 --trace 0 --server-bin x"
        ))
        .is_err());
    }
}
