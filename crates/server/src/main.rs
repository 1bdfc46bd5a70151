//! `softermax-server` — stand-alone serving binary.
//!
//! ```text
//! softermax-server [--tcp ADDR] [--unix PATH]
//!                  [--shards N] [--threads N] [--queue-depth N]
//!                  [--policy adaptive] [--window N] [--name NAME]
//! ```
//!
//! The router behind the listeners schedules by least-cost routing plus
//! work stealing, with no knob. `--policy` accepts only `adaptive`, the
//! value existing command lines pass, and changes nothing; any other
//! value is an error.
//!
//! At least one of `--tcp` / `--unix` is required. Each bound endpoint
//! is reported on stdout as a `listening tcp:HOST:PORT` /
//! `listening unix:PATH` line (parent processes — the bench harness,
//! the CI smoke job — parse these; with `--tcp 127.0.0.1:0` the
//! resolved ephemeral port is what gets printed). The process then
//! serves until a client sends a `Shutdown` frame, drains in-flight
//! work, prints `drained N connections`, and exits 0.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use softermax_server::{Server, ServerConfig};
use softermax_wire::Endpoint;

fn usage() -> String {
    [
        "usage: softermax-server [--tcp ADDR] [--unix PATH] [options]",
        "",
        "listeners (at least one required):",
        "  --tcp ADDR          bind a TCP listener (e.g. 127.0.0.1:7077; port 0 = ephemeral)",
        "  --unix PATH         bind a Unix-socket listener at PATH",
        "",
        "options:",
        "  --shards N          engine shards behind the router (default 2)",
        "  --threads N         worker threads per shard (default 2)",
        "  --queue-depth N     bounded intake depth per shard (default 64)",
        "  --policy adaptive   accepted for compatibility; least-cost routing + work stealing is the only scheduler",
        "  --window N          per-connection in-flight reply window (default 32)",
        "  --name NAME         server name reported in HelloAck",
    ]
    .join("\n")
}

struct Args {
    endpoints: Vec<Endpoint>,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut endpoints = Vec::new();
    let mut config = ServerConfig::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| v.parse().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--tcp" => endpoints.push(Endpoint::Tcp(value()?)),
            "--unix" => endpoints.push(Endpoint::Unix(value()?.into())),
            "--shards" => config.shards = number(value()?)?,
            "--threads" => config.threads = number(value()?)?,
            "--queue-depth" => config.queue_depth = number(value()?)?,
            "--policy" => match value()?.as_str() {
                "adaptive" => {}
                other => return Err(format!("--policy: unknown policy '{other}'")),
            },
            "--window" => config.inflight_window = number(value()?)?,
            "--name" => config.name = value()?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if endpoints.is_empty() {
        return Err(format!(
            "at least one of --tcp/--unix is required\n\n{}",
            usage()
        ));
    }
    Ok(Args { endpoints, config })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(args.config, &args.endpoints) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("softermax-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Stdout may be a pipe whose parent stops reading once it has the
    // endpoints — write errors (EPIPE) must not take the server down.
    let mut stdout = std::io::stdout();
    for endpoint in server.endpoints() {
        // Parsed by parent processes: one "listening <spec>" per listener.
        let _ = writeln!(stdout, "listening {endpoint}");
        let _ = stdout.flush();
    }
    let drained = server.run();
    let _ = writeln!(stdout, "drained {drained} connections");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn accepts_the_benchmark_server_command_line() {
        let args =
            parse("--unix P --shards 2 --threads 1 --queue-depth 64 --policy adaptive --window 32")
                .expect("valid command line");
        assert_eq!(args.endpoints, vec![Endpoint::Unix("P".into())]);
        assert_eq!(args.config.shards, 2);
        assert_eq!(args.config.threads, 1);
        assert_eq!(args.config.queue_depth, 64);
        assert_eq!(args.config.inflight_window, 32);
    }

    #[test]
    fn rejects_the_deleted_routing_policies() {
        for policy in ["round-robin", "least-loaded"] {
            let err = match parse(&format!("--unix P --policy {policy}")) {
                Ok(_) => panic!("--policy {policy} must be rejected"),
                Err(err) => err,
            };
            assert_eq!(err, format!("--policy: unknown policy '{policy}'"));
        }
    }
}
