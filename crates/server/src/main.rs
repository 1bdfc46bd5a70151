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

/// Bytes of the block [`keep_freed_heap`] allocates and frees.
const TRIM_BLOCK: usize = 1 << 20;

/// Keeps the allocator from handing a thread's freed heap back to the
/// OS while the server runs.
///
/// A connection's reader allocates each request's score block, which the
/// job's probabilities overwrite, and the writer frees it. glibc's malloc
/// trims a thread's heap when a free leaves more than 128 KiB at its top
/// unused, so the reader's heap can shrink and grow again with the
/// requests in flight, and the reader then takes its pages back by page
/// faults. Whether it does depends on where small blocks that live
/// longer happen to sit: the reader took about two page faults per 16×128
/// request in some server runs and none in others, and its CPU per
/// request doubled in the runs that faulted. Freeing a block that glibc
/// served by `mmap` (any block over 128 KiB, up to 32 MiB) raises its
/// trim threshold to twice the block's size, here 2 MiB, more than one
/// connection's requests hold in flight at that size. Other allocators
/// just allocate and free the block.
fn keep_freed_heap() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(TRIM_BLOCK)));
}

fn main() -> ExitCode {
    keep_freed_heap();
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

    /// Minor page faults the calling thread has taken so far. Reads
    /// without allocating, so the count moves only with the caller's own
    /// blocks.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn minor_faults() -> u64 {
        use std::io::Read;
        let mut stat = [0u8; 1024];
        let mut file = std::fs::File::open("/proc/thread-self/stat").expect("thread stat");
        let len = file.read(&mut stat).expect("read thread stat");
        let stat = std::str::from_utf8(stat.get(..len).expect("len fits")).expect("ASCII");
        // `minflt` is the 8th field after the parenthesised command name.
        let after_comm = stat.rsplit_once(") ").expect("command name").1;
        let minflt = after_comm.split(' ').nth(7).expect("minflt field");
        minflt.parse().expect("minflt is a count")
    }

    /// Blocks freed at the top of a thread's heap stay mapped once the
    /// start-up block is freed, so allocating them again takes no page
    /// fault. Without it, each round's 512 KiB is trimmed on free and
    /// faulted in again: about 97 faults a round.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn freed_heap_is_reused_without_page_faults() {
        const BLOCKS: usize = 32;
        const ROUNDS: usize = 10;
        keep_freed_heap();
        let faults = std::thread::spawn(|| {
            let mut batch: Vec<Vec<u8>> = Vec::with_capacity(BLOCKS);
            let mut faults = 0;
            for round in 0..ROUNDS {
                let before = minor_faults();
                batch.extend((0..BLOCKS).map(|_| vec![1; 16 * 1024]));
                // The first round grows the heap; later rounds reuse it.
                if round > 0 {
                    faults += minor_faults() - before;
                }
                batch.clear();
            }
            faults
        })
        .join()
        .expect("allocating thread");
        assert!(faults < 32, "{faults} page faults in {} rounds", ROUNDS - 1);
    }
}
