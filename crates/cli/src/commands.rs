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
use softermax::{metrics, Base, MaxMode, SoftermaxConfig};
use softermax_fixed::QFormat;
use softermax_hw::accel::Accelerator;
use softermax_hw::pe::PeConfig;
use softermax_hw::workload::AttentionShape;
use softermax_transformer::attention::{head_scratch_estimates, KernelSoftmax, MultiHeadAttention};
use softermax_transformer::tensor::Matrix;

/// Usage text printed on errors.
pub const USAGE: &str = "usage:
  softermax softmax [--backend <name>] <score>...   compute one softmax row
  softermax compare <score>...                      all backends side by side
  softermax kernels                                 list registered backends
  softermax attention [--backend <name>|all] [--seq N] [--heads H] [--dim D]
                      [--tile N] [--seed N] [--streaming]
                                                    attention demo; --streaming
                                                    adds the tiled no-score-
                                                    matrix path + parity check;
                                                    --seq and --dim at most 4096
  softermax hw [--width 16|32] [--seq N]            hardware comparison report;
                                                    --seq at most 1048576
  softermax config                                  print the paper configuration

backends: every name/alias in `softermax kernels`, e.g.
  reference-e (exact) | reference-2 (base2) | online-2 (online) |
  online-intmax (intmax) | fp16 | lut8 (lut) | softermax (default)";

/// The largest `attention --seq` and `--dim`: Fig. 5's longest sequence
/// (`fig5_seqlen_sweep`). The demo holds a seq × seq score matrix per
/// head, so much larger sizes cannot be allocated.
const MAX_ATTENTION_SIZE: usize = 4096;

/// The largest `hw --seq`: 2^20, the serving stack's longest row
/// (`softermax_wire::MAX_DIM`).
const MAX_HW_SEQ: usize = 1 << 20;

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
        Some("kernels" | "config") if args.len() > 1 => Err(format!("unknown flag '{}'", args[1])),
        Some("kernels") => {
            cmd_kernels();
            Ok(())
        }
        Some("attention") => cmd_attention(&args[1..]),
        Some("hw") => cmd_hw(&args[1..]),
        Some("config") => {
            println!("{}", config_json().to_json_pretty());
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
            "--seq" => seq = parse_size(&value("--seq")?, "--seq", MAX_ATTENTION_SIZE)?,
            "--heads" => heads = parse_count(&value("--heads")?, "--heads")?,
            "--dim" => dim = parse_size(&value("--dim")?, "--dim", MAX_ATTENTION_SIZE)?,
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

/// [`parse_count`], bounded above by `max`.
fn parse_size(text: &str, flag: &str, max: usize) -> Result<usize, String> {
    match parse_count(text, flag)? {
        n if n <= max => Ok(n),
        _ => Err(format!("{flag} must be at most {max}")),
    }
}

fn cmd_hw(args: &[String]) -> Result<(), String> {
    let mut width = 32usize;
    let mut seq = 384usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--width" => {
                width = value("--width")?
                    .parse()
                    .map_err(|_| "--width must be 16 or 32".to_string())?;
            }
            "--seq" => seq = parse_size(value("--seq")?, "--seq", MAX_HW_SEQ)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let pe = match width {
        16 => PeConfig::paper_16(),
        32 => PeConfig::paper_32(),
        _ => return Err("--width must be 16 or 32".to_string()),
    };
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

/// The paper configuration (`SoftermaxConfig::paper`) as the `config`
/// command prints it.
fn config_json() -> serde_json::Value {
    fn q_format(q: QFormat) -> serde_json::Value {
        serde_json::json!({
            "int_bits": q.int_bits(),
            "frac_bits": q.frac_bits(),
            "signed": q.is_signed(),
        })
    }
    let cfg = SoftermaxConfig::paper();
    serde_json::json!({
        "input_format": q_format(cfg.input_format),
        "max_format": q_format(cfg.max_format),
        "unnormed_format": q_format(cfg.unnormed_format),
        "pow_sum_format": q_format(cfg.pow_sum_format),
        "recip_format": q_format(cfg.recip_format),
        "output_format": q_format(cfg.output_format),
        "pow2_segments": cfg.pow2_segments,
        "recip_segments": cfg.recip_segments,
        "slice_width": cfg.slice_width,
        "max_mode": match cfg.max_mode {
            MaxMode::Integer => "Integer",
            MaxMode::Float => "Float",
        },
        "base": match cfg.base {
            Base::Two => "Two",
            Base::E => "E",
        },
    })
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
        assert!(run(&s(&["serve"])).is_err());
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
        assert!(run(&s(&["kernels", "--bogus"])).is_err());
        assert!(run(&s(&["kernels", "extra"])).is_err());
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

    /// A sequence past the bound is a usage error, not an allocation
    /// that aborts the process.
    #[test]
    fn attention_rejects_a_seq_past_the_bound() {
        let err = run(&s(&["attention", "--seq", "4097"])).expect_err("too long");
        assert_eq!(err, "--seq must be at most 4096");
        let err = run(&s(&["attention", "--seq", "100000"])).expect_err("too long");
        assert_eq!(err, "--seq must be at most 4096");
    }

    #[test]
    fn attention_rejects_a_dim_past_the_bound() {
        let err = run(&s(&["attention", "--dim", "4097"])).expect_err("too wide");
        assert_eq!(err, "--dim must be at most 4096");
        let err =
            run(&s(&["attention", "--dim", "1000000000", "--heads", "1"])).expect_err("too wide");
        assert_eq!(err, "--dim must be at most 4096");
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
    fn hw_seq_is_bounded_at_the_longest_served_row() {
        assert!(run(&s(&["hw", "--seq", "1048576"])).is_ok());
        let err = run(&s(&["hw", "--seq", "1048577"])).expect_err("too long");
        assert_eq!(err, "--seq must be at most 1048576");
        let max = u64::MAX.to_string();
        assert!(run(&s(&["hw", "--seq", &max])).is_err());
    }

    #[test]
    fn config_prints() {
        assert!(run(&s(&["config"])).is_ok());
        assert!(run(&s(&["config", "--width", "32"])).is_err());
        assert!(run(&s(&["config", "extra"])).is_err());
    }

    /// `softermax config`'s exact output: Table I's formats, segment
    /// counts and slice width, with the enums as their variant names.
    #[test]
    fn config_json_matches_the_golden_bytes() {
        let printed = format!("{}\n", config_json().to_json_pretty());
        assert_eq!(printed, include_str!("../tests/config.golden.json"));
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
