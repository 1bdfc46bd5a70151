//! The one bounded wait of the server suites: a server that never
//! announces, drains or exits fails its test in seconds instead of
//! hanging the suite.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long a suite waits on the server before it fails the test.
pub const LIMIT: Duration = Duration::from_secs(20);

/// Runs the blocking call `f` on a thread of its own and returns its
/// result; fails the test, naming `what`, when `f` panics or has not
/// returned within [`LIMIT`].
pub fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(LIMIT)
        .unwrap_or_else(|e| panic!("{what}: no result within {LIMIT:?} ({e})"))
}
