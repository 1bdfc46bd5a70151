//! Process-level tests of the `softermax-server` binary: it is spawned on
//! TCP and a Unix socket, serves one request per registry kernel on each
//! transport bit-identically to sequential `forward_into`, and drains on
//! a `Shutdown` frame with exit 0, a `drained` line and its socket file
//! removed. Spawned with too few file descriptors for its connections,
//! it waits for one to free without spinning, then serves and drains.

mod common;

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use common::{within, LIMIT};

use softermax::kernel::{KernelRegistry, ScratchBuffers};
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_wire::{encode_frame, Frame, Hello, SubmitRequest, PROTOCOL_VERSION};

/// Kills the server if the test fails before the drain, so a failed run
/// leaves no process behind.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "softermax-binary-test-{}-{tag}.sock",
        std::process::id()
    ))
}

/// Spawns `command` and reads its stdout up to one `listening` line per
/// listener: the running server, the rest of its stdout, and the
/// endpoints it announced.
fn spawn(mut command: Command, listeners: usize) -> (Reap, BufReader<ChildStdout>, Vec<Endpoint>) {
    let mut server = Reap(
        command
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn softermax-server"),
    );
    let stdout = BufReader::new(server.0.stdout.take().expect("stdout piped"));
    let (stdout, endpoints) = within("the server announces its listeners", move || {
        let mut stdout = stdout;
        let mut endpoints = Vec::new();
        while endpoints.len() < listeners {
            let mut line = String::new();
            let read = stdout.read_line(&mut line).expect("read server stdout");
            assert!(read > 0, "server exited before announcing its listeners");
            if let Some(spec) = line.trim_end().strip_prefix("listening ") {
                endpoints.push(Endpoint::parse(spec).expect("endpoint spec"));
            }
        }
        (stdout, endpoints)
    });
    (server, stdout, endpoints)
}

/// Sends `Shutdown` over `endpoint` and waits for the server to exit 0
/// after printing its `drained` line, with `socket` removed.
fn drain(mut server: Reap, mut stdout: BufReader<ChildStdout>, endpoint: &Endpoint, socket: &Path) {
    Client::connect(endpoint.clone(), ClientConfig::default())
        .expect("client connect")
        .shutdown_server()
        .expect("shutdown acknowledged");
    let rest = within("the server drains and closes its stdout", move || {
        let mut rest = String::new();
        stdout
            .read_to_string(&mut rest)
            .expect("read server stdout");
        rest
    });
    // Polled here, not waited on in `within`'s thread: a timeout then
    // drops `server`, which kills the process.
    let deadline = Instant::now() + LIMIT;
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("server exit status") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the server exits: not within {LIMIT:?}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "server exited with {status}");
    assert!(
        rest.lines().any(|line| line.starts_with("drained ")),
        "no drain line in {rest:?}"
    );
    assert!(!socket.exists(), "socket file must be removed on drain");
}

#[test]
fn binary_serves_every_kernel_bit_identically_and_drains() {
    let socket = socket_path("kernels");
    let mut command = Command::new(env!("CARGO_BIN_EXE_softermax-server"));
    command
        .args(["--tcp", "127.0.0.1:0", "--unix"])
        .arg(&socket);
    let (server, stdout, endpoints) = spawn(command, 2);
    assert!(endpoints.iter().any(|e| matches!(e, Endpoint::Tcp(_))));
    assert!(endpoints.iter().any(|e| matches!(e, Endpoint::Unix(_))));

    let row_len = 16;
    let scores: Vec<f64> = (0..4 * row_len)
        .map(|i| (i as f64 * 0.37).sin() * 6.5)
        .collect();
    let registry = KernelRegistry::global();
    let mut scratch = ScratchBuffers::default();
    for endpoint in &endpoints {
        let mut client =
            Client::connect(endpoint.clone(), ClientConfig::default()).expect("client connect");
        for name in registry.names() {
            let kernel = registry.get(&name).expect("registered kernel");
            let mut want = vec![0.0; scores.len()];
            for (row, out) in scores.chunks(row_len).zip(want.chunks_mut(row_len)) {
                kernel
                    .forward_into(row, out, &mut scratch)
                    .expect("forward_into");
            }
            let request = SubmitRequest::build(0, name.clone(), &scores, row_len).expect("build");
            client.submit(request).expect("submit");
            let got = client.next_reply().expect("reply").1.expect("result");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{name} over {endpoint}");
        }
    }
    drain(server, stdout, &endpoints[0], &socket);
}

/// The server binary on a Unix socket at `socket`, started through `sh`
/// with its open files capped at `max_files`.
fn capped(socket: &Path, max_files: usize) -> Command {
    let mut command = Command::new("sh");
    command
        .arg("-c")
        .arg(format!(
            "ulimit -n {max_files} && exec \"$0\" --unix \"$1\" --shards 1 --threads 1"
        ))
        .arg(env!("CARGO_BIN_EXE_softermax-server"))
        .arg(socket);
    command
}

/// Open file descriptors of process `pid`.
fn open_files(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("fd list")
        .count()
}

/// User plus system CPU time of process `pid`, all threads, in clock
/// ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("process stat");
    // `utime` and `stime` are the 12th and 13th fields after the
    // parenthesised command name.
    let after_comm = stat.rsplit_once(") ").expect("command name").1;
    let mut fields = after_comm.split(' ').skip(11);
    let mut tick = || -> u64 { fields.next().expect("time field").parse().expect("ticks") };
    tick() + tick()
}

/// Connects and completes the handshake within [`LIMIT`].
fn connect(endpoint: &Endpoint) -> Client {
    let endpoint = endpoint.clone();
    within("the handshake", move || {
        Client::connect(endpoint, ClientConfig::default()).expect("client connect")
    })
}

/// A server with no file descriptor left for its next connection backs
/// off between failed accepts instead of spinning on them, and serves
/// again once descriptors free.
///
/// Each connection takes three descriptors: the accepted socket and its
/// reader's and drain's clones. A first run finds how many the idle
/// server holds; the second is capped at that plus three per held
/// connection, so once `HELD` clients are served, `accept` fails with
/// `EMFILE` and leaves the next client queued.
#[test]
fn a_server_out_of_file_descriptors_neither_spins_nor_stops() {
    const HELD: usize = 2;
    let socket = socket_path("fds");
    let (probe, stdout, endpoints) = spawn(capped(&socket, 1024), 1);
    let idle = open_files(probe.0.id());
    drain(probe, stdout, &endpoints[0], &socket);

    let max_files = idle + 3 * HELD;
    let (server, stdout, endpoints) = spawn(capped(&socket, max_files), 1);
    let pid = server.0.id();
    assert_eq!(open_files(pid), idle, "the idle server's descriptors");
    let held: Vec<Client> = (0..HELD).map(|_| connect(&endpoints[0])).collect();
    assert_eq!(open_files(pid), max_files, "{HELD} connections held");

    // The next client's connect succeeds (it is queued) and its hello
    // goes unanswered while the server can accept nothing.
    let mut waiting = UnixStream::connect(&socket).expect("queued connect");
    let hello = encode_frame(&Frame::Hello(Hello {
        max_version: PROTOCOL_VERSION,
        client: "waiting".to_string(),
    }))
    .expect("hello");
    waiting.write_all(&hello).expect("send hello");
    let before = cpu_ticks(pid);
    thread::sleep(Duration::from_millis(300));
    let spent = cpu_ticks(pid) - before;
    // A loop that retried at once would take most of the 30 ticks.
    assert!(spent <= 3, "{spent} ticks of CPU in 300 ms");
    waiting
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("read timeout");
    match waiting.read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("the queued client was answered: {other:?}"),
    }

    drop(waiting);
    drop(held);
    let deadline = Instant::now() + LIMIT;
    while open_files(pid) > idle {
        assert!(Instant::now() < deadline, "descriptors not freed");
        thread::sleep(Duration::from_millis(5));
    }
    let mut client = connect(&endpoints[0]);
    client.health().expect("a served connection");
    drop(client);
    drain(server, stdout, &endpoints[0], &socket);
}
