//! Loopback integration tests: a real [`Server`] with real sockets,
//! driven by the real [`softermax_client::Client`] — plus one hostile
//! raw-socket client the codec must survive.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use common::within;
use softermax::kernel::{KernelRegistry, ScratchBuffers};
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_server::{Server, ServerConfig};
use softermax_wire::{
    encode_frame, read_frame, ErrorCode, Frame, Hello, SubmitReply, SubmitRequest, WireError,
    WirePriority, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

fn unique_socket_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "softermax-loopback-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

fn start_server(config: ServerConfig, tag: &str) -> (Server, Endpoint, Endpoint, PathBuf) {
    let path = unique_socket_path(tag);
    let server = Server::start(
        config,
        &[
            Endpoint::Tcp("127.0.0.1:0".to_string()),
            Endpoint::Unix(path.clone()),
        ],
    )
    .expect("server start");
    let mut tcp = None;
    let mut unix = None;
    for ep in server.endpoints() {
        match ep {
            Endpoint::Tcp(_) => tcp = Some(ep.clone()),
            Endpoint::Unix(_) => unix = Some(ep.clone()),
        }
    }
    (
        server,
        tcp.expect("tcp bound"),
        unix.expect("unix bound"),
        path,
    )
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect(endpoint.clone(), ClientConfig::default()).expect("client connect")
}

/// Submits one request and blocks for its reply (no pipelining).
fn call(client: &mut Client, req: SubmitRequest) -> Result<Vec<f64>, WireError> {
    client.submit(req).expect("submit");
    client.next_reply().expect("reply").1
}

/// Drains `server` through the protocol's `Shutdown` frame.
fn stop(server: Server, endpoint: &Endpoint) {
    connect(endpoint).shutdown_server().expect("shutdown ack");
    let _ = within("the server drains", move || server.run());
}

/// Sequential in-process ground truth: `forward_into` row by row.
fn ground_truth(kernel_name: &str, scores: &[f64], row_len: usize) -> Vec<f64> {
    let kernel = KernelRegistry::global().get(kernel_name).expect("kernel");
    let mut scratch = ScratchBuffers::default();
    let mut out = vec![0.0; scores.len()];
    for (row, out_row) in scores.chunks(row_len).zip(out.chunks_mut(row_len)) {
        kernel
            .forward_into(row, out_row, &mut scratch)
            .expect("ground truth forward");
    }
    out
}

fn test_scores(rows: usize, row_len: usize) -> Vec<f64> {
    (0..rows * row_len)
        .map(|i| ((i as f64) * 0.37 - (rows * row_len) as f64 * 0.11).sin() * 6.5)
        .collect()
}

fn assert_bits_equal(kernel: &str, transport: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{kernel}/{transport}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{kernel}/{transport}: bit mismatch at {i}: got {g:?} want {w:?}"
        );
    }
}

/// The cross-process bit-identity gate in miniature: every builtin
/// kernel, batch and streamed and priority-tagged traffic, over both
/// transports, every reply bit-compared against sequential in-process
/// execution.
#[test]
fn every_kernel_bit_identical_over_tcp_and_unix() {
    let (server, tcp, unix, path) = start_server(ServerConfig::default(), "bits");
    let rows = 4;
    let row_len = 16;
    let scores = test_scores(rows, row_len);
    for (endpoint, transport) in [(&tcp, "tcp"), (&unix, "unix")] {
        let mut client = connect(endpoint);
        let names = client.list_kernels().expect("list_kernels");
        assert_eq!(names, KernelRegistry::global().names());
        for name in &names {
            let want = ground_truth(name, &scores, row_len);
            // Batch.
            let req = SubmitRequest::build(0, name.clone(), &scores, row_len).expect("build");
            let got = call(&mut client, req).expect("batch result");
            assert_bits_equal(name, transport, &got, &want);
            // Streamed in 2-row chunks, batch priority, with a roomy
            // deadline that must not alter the numbers.
            let req = SubmitRequest::build(0, name.clone(), &scores, row_len)
                .expect("build")
                .streamed(2 * row_len)
                .expect("streamed")
                .with_deadline_ms(30_000)
                .expect("deadline")
                .with_priority(WirePriority::Batch);
            let got = call(&mut client, req).expect("streamed result");
            assert_bits_equal(name, transport, &got, &want);
        }
    }
    let mut closer = connect(&tcp);
    closer.shutdown_server().expect("shutdown ack");
    let drained = within("the server drains", move || server.run());
    assert!(drained >= 1, "drain must cover the live connection(s)");
    assert!(!path.exists(), "unix socket file must be removed on drain");
}

/// Pipelined submissions come back FIFO with correct ids and bits.
#[test]
fn pipelined_submissions_reply_in_order() {
    let (server, tcp, _unix, _path) = start_server(ServerConfig::default(), "pipeline");
    let mut client = connect(&tcp);
    let row_len = 8;
    let scores = test_scores(2, row_len);
    let want = ground_truth("softermax", &scores, row_len);
    let mut ids = Vec::new();
    for _ in 0..24 {
        let req = SubmitRequest::build(0, "softermax", &scores, row_len).expect("build");
        ids.push(client.submit(req).expect("submit"));
    }
    for expect_id in ids {
        let (id, result) = client.next_reply().expect("reply");
        assert_eq!(id, expect_id, "replies must arrive in submission order");
        assert_bits_equal("softermax", "tcp", &result.expect("result"), &want);
    }
    stop(server, &tcp);
}

/// A 1-shard/1-thread server saturated with heavy work must answer a
/// 1 ms-deadline request with the `DeadlineExceeded` wire code — the
/// end-to-end budget keeps running across admission and ticket wait.
#[test]
fn saturated_server_expires_wire_deadlines() {
    let config = ServerConfig {
        shards: 1,
        threads: 1,
        ..ServerConfig::default()
    };
    let (server, tcp, _unix, _path) = start_server(config, "deadline");
    let mut client = connect(&tcp);
    // 64K scores per heavy frame, in short rows: the engine must still be
    // busy when the deadlined request arrives, so computing the heavy
    // frames has to outlast sending them, and a kernel's per-row cost
    // makes short rows dearer per score than the wire is.
    let row_len = 8;
    let heavy = test_scores(8192, row_len);
    let mut front = Vec::new();
    for _ in 0..16 {
        let req = SubmitRequest::build(0, "softermax", &heavy, row_len).expect("build");
        front.push(client.submit(req).expect("submit heavy"));
    }
    let light = test_scores(1, 8);
    let req = SubmitRequest::build(0, "softermax", &light, 8)
        .expect("build")
        .with_deadline_ms(1)
        .expect("deadline");
    let starved = client.submit(req).expect("submit deadlined");
    for _ in front {
        let (_, result) = client.next_reply().expect("heavy reply");
        assert!(result.is_ok(), "undeadlined work must complete");
    }
    let (id, result) = client.next_reply().expect("deadlined reply");
    assert_eq!(id, starved);
    let err = result.expect_err("a 1 ms deadline behind 16 heavy jobs must expire");
    assert_eq!(err.code, ErrorCode::DeadlineExceeded, "got {err}");
    stop(server, &tcp);
}

/// Wrong kernel names come back as a typed reply, not a dead socket.
#[test]
fn unknown_kernel_is_a_typed_reply() {
    let (server, _tcp, unix, _path) = start_server(ServerConfig::default(), "unknown");
    let mut client = connect(&unix);
    let req = SubmitRequest::build(0, "definitely_not_a_kernel", &[1.0, 2.0], 2).expect("build");
    let err = call(&mut client, req).expect_err("unknown kernel must fail");
    assert_eq!(err.code, ErrorCode::UnknownKernel);
    // The connection survives a data-plane error.
    assert!(client.health().is_ok());
    stop(server, &unix);
}

/// Health and stats expose the serve layer's snapshot
/// (`ShardedRouter::control_snapshot`).
#[test]
fn control_plane_reports_live_state() {
    let (server, tcp, _unix, _path) = start_server(ServerConfig::default(), "control");
    let mut client = connect(&tcp);
    let scores = test_scores(2, 8);
    let req = SubmitRequest::build(0, "reference-e", &scores, 8).expect("build");
    call(&mut client, req).expect("result");

    let health = client.health().expect("health");
    assert_eq!(health.get("healthy"), Some(&serde::Value::Bool(true)));
    assert_eq!(health.get("draining"), Some(&serde::Value::Bool(false)));
    let Some(serde::Value::Array(shards)) = health.get("shards") else {
        panic!("health.shards must be an array, got {health:?}");
    };
    assert_eq!(shards.len(), ServerConfig::default().shards);

    let stats = client.stats().expect("stats");
    for key in ["stats", "scheduler", "shards"] {
        assert!(
            stats.get(key).is_some(),
            "stats reply missing '{key}': {stats:?}"
        );
    }
    let sched = stats.get("scheduler").expect("scheduler");
    for key in [
        "jobs_stolen",
        "jobs_donated",
        "breaker_trips",
        "worker_respawns",
    ] {
        assert!(
            sched.get(key).is_some(),
            "scheduler section missing '{key}'"
        );
    }
    let kernels = stats.get("stats").expect("per-kernel stats");
    let reference = kernels
        .get("reference-e")
        .expect("served kernel appears in stats");
    for key in ["rows", "batches", "availability", "latency"] {
        assert!(reference.get(key).is_some(), "kernel stats missing '{key}'");
    }
    stop(server, &tcp);
}

/// A malicious client declares a body length over the frame cap. The
/// server must refuse without reading (or allocating) the body, send a
/// typed error, close that connection — and keep serving others.
#[test]
fn oversized_declaration_cannot_kill_the_server() {
    let (server, tcp, _unix, _path) = start_server(ServerConfig::default(), "hostile");
    let Endpoint::Tcp(addr) = &tcp else {
        unreachable!()
    };

    let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
    let hello = encode_frame(&Frame::Hello(Hello {
        max_version: PROTOCOL_VERSION,
        client: "hostile".to_string(),
    }))
    .expect("encode hello");
    raw.write_all(&hello).expect("send hello");
    match read_frame(&mut raw).expect("hello ack") {
        Frame::HelloAck(_) => {}
        other => panic!("expected hello ack, got {other:?}"),
    }
    // Header declaring a body one byte over the cap; body never sent.
    let declared = MAX_FRAME_BYTES + 1;
    let mut header = Vec::new();
    header.extend_from_slice(b"SMAX");
    header.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    header.extend_from_slice(&declared.to_be_bytes());
    raw.write_all(&header).expect("send hostile header");
    match read_frame(&mut raw).expect("server's parting frame") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::Protocol, "got {e}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The server hung up on the hostile stream...
    let mut rest = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(
        raw.read_to_end(&mut rest).unwrap_or(0),
        0,
        "stream must close"
    );

    // ...and garbage magic on a fresh socket dies the same way.
    let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("send garbage");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reply = Vec::new();
    let _ = raw.read_to_end(&mut reply); // error frame then EOF, or plain EOF

    // A well-behaved client is still served afterwards.
    let mut client = connect(&tcp);
    let scores = test_scores(2, 8);
    let want = ground_truth("reference-e", &scores, 8);
    let req = SubmitRequest::build(0, "reference-e", &scores, 8).expect("build");
    let got = call(&mut client, req).expect("result");
    assert_bits_equal("reference-e", "tcp", &got, &want);
    stop(server, &tcp);
}

/// A binary submit smuggling a NaN bit pattern is a well-framed but
/// bogus body: the server answers a typed `error` frame, and the *same*
/// connection then serves a valid submit bit-exactly.
#[test]
fn nan_submit_is_refused_and_the_connection_survives() {
    let (server, tcp, _unix, _path) = start_server(ServerConfig::default(), "nan");
    let Endpoint::Tcp(addr) = &tcp else {
        unreachable!()
    };
    let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = encode_frame(&Frame::Hello(Hello {
        max_version: PROTOCOL_VERSION,
        client: "nan-smuggler".to_string(),
    }))
    .expect("encode hello");
    raw.write_all(&hello).expect("send hello");
    match read_frame(&mut raw).expect("hello ack") {
        Frame::HelloAck(_) => {}
        other => panic!("expected hello ack, got {other:?}"),
    }

    let row_len = 8;
    let scores = test_scores(2, row_len);
    let want = ground_truth("softermax", &scores, row_len);
    let valid = encode_frame(&Frame::Submit(
        SubmitRequest::build(5, "softermax", &scores, row_len).expect("build"),
    ))
    .expect("encode submit");
    // Overwrite the third-from-last score with a NaN bit pattern.
    let mut poisoned = valid.clone();
    let at = poisoned.len() - 3 * 8;
    poisoned[at..at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    raw.write_all(&poisoned).expect("send poisoned submit");
    match read_frame(&mut raw).expect("error frame") {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::Protocol, "got {e}");
            assert!(e.message.contains("finite"), "got {e}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    raw.write_all(&valid).expect("send valid submit");
    match read_frame(&mut raw).expect("submit reply") {
        Frame::SubmitReply(SubmitReply { id, result }) => {
            assert_eq!(id, 5);
            let got = result.expect("result").into_vec();
            assert_bits_equal("softermax", "tcp", &got, &want);
        }
        other => panic!("expected submit reply, got {other:?}"),
    }
    stop(server, &tcp);
}

/// A client whose ceiling is below the server's version gets a typed
/// refusal, not silence.
#[test]
fn version_below_minimum_is_refused() {
    let (server, tcp, _unix, _path) = start_server(ServerConfig::default(), "version");
    let Endpoint::Tcp(addr) = &tcp else {
        unreachable!()
    };
    let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
    let hello = encode_frame(&Frame::Hello(Hello {
        max_version: 0,
        client: "antique".to_string(),
    }))
    .expect("encode hello");
    raw.write_all(&hello).expect("send hello");
    match read_frame(&mut raw).expect("refusal") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("expected error frame, got {other:?}"),
    }
    stop(server, &tcp);
}

/// A server drained after another has replaced its socket file leaves
/// that file alone: the second server still accepts by path, and its own
/// drain removes the file. A client connected before the replacement
/// still reaches the first server, and drains it.
#[test]
fn a_drain_keeps_the_socket_file_of_the_server_that_replaced_it() {
    let path = unique_socket_path("replaced");
    let listeners = [Endpoint::Unix(path.clone())];
    let endpoint = &listeners[0];
    let first = Server::start(ServerConfig::default(), &listeners).expect("first start");
    let mut first_client = connect(endpoint);
    let second = Server::start(ServerConfig::default(), &listeners).expect("second start");
    first_client.shutdown_server().expect("shutdown ack");
    let _ = within("the first server drains", move || first.run());
    assert!(path.exists(), "the first drain removed the second's file");
    let mut client = connect(endpoint);
    let scores = test_scores(2, 8);
    let req = SubmitRequest::build(0, "softermax", &scores, 8).expect("build");
    let got = call(&mut client, req).expect("served by the second server");
    assert_bits_equal(
        "softermax",
        "unix",
        &got,
        &ground_truth("softermax", &scores, 8),
    );
    stop(second, endpoint);
    assert!(!path.exists(), "the second drain left its socket file");
}
