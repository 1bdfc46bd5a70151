//! Process-level test of the `softermax-server` binary: it is spawned on
//! TCP and a Unix socket, serves one request per registry kernel on each
//! transport bit-identically to sequential `forward_into`, and drains on
//! a `Shutdown` frame with exit 0, a `drained` line and its socket file
//! removed.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

use softermax::kernel::{KernelRegistry, ScratchBuffers};
use softermax_client::{Client, ClientConfig, Endpoint};
use softermax_wire::SubmitRequest;

/// Kills the server if the test fails before the drain, so a failed run
/// leaves no process behind.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn binary_serves_every_kernel_bit_identically_and_drains() {
    let socket =
        std::env::temp_dir().join(format!("softermax-binary-test-{}.sock", std::process::id()));
    let mut server = Reap(
        Command::new(env!("CARGO_BIN_EXE_softermax-server"))
            .args(["--tcp", "127.0.0.1:0", "--unix"])
            .arg(&socket)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn softermax-server"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout piped"));
    let mut endpoints = Vec::new();
    while endpoints.len() < 2 {
        let mut line = String::new();
        let read = stdout.read_line(&mut line).expect("read server stdout");
        assert!(read > 0, "server exited before announcing both listeners");
        if let Some(spec) = line.trim_end().strip_prefix("listening ") {
            endpoints.push(Endpoint::parse(spec).expect("endpoint spec"));
        }
    }
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

    Client::connect(endpoints[0].clone(), ClientConfig::default())
        .expect("client connect")
        .shutdown_server()
        .expect("shutdown acknowledged");
    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read server stdout");
    let status = server.0.wait().expect("server exit status");
    assert!(status.success(), "server exited with {status}");
    assert!(
        rest.lines().any(|line| line.starts_with("drained ")),
        "no drain line in {rest:?}"
    );
    assert!(!socket.exists(), "socket file must be removed on drain");
}
