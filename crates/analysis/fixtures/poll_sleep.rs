//! Fixture: sleeps in a no-sleep zone. The self-test's manifest makes
//! `fixtures` one; every line marked for the poll-sleep lint must be
//! flagged, and no other line.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

use std::thread::{self, sleep};
use std::time::Duration;

/// A sleep-polled accept loop: a non-blocking accept retried every 5 ms.
fn accept_loop(listener: &Listener, draining: &AtomicBool) {
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => serve(stream),
            Err(_) => thread::sleep(Duration::from_millis(5)), //~ poll-sleep
        }
    }
}

fn wait_for(ready: &AtomicBool) {
    while !ready.load(Ordering::SeqCst) {
        sleep(Duration::from_millis(1)); //~ poll-sleep
    }
    std::thread::sleep(POLL); //~ poll-sleep
}

fn near_misses(session: &Session, backoff: &Backoff, attempt: u32) {
    // Named but not called: a function value and a field.
    let pause = thread::sleep;
    let asleep = session.sleep;
    // In a comment, thread::sleep(POLL), or in a string:
    let text = "thread::sleep(Duration::ZERO)";
    // analysis:allow(poll-sleep): a backoff after a failed connect, not a poll
    thread::sleep(backoff.delay(attempt));
}

/// Defining a function named `sleep` is no call.
fn sleep(ms: u64) {}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep() {
        std::thread::sleep(Duration::from_millis(1));
    }
}
