//! Fixture: a lock scope whose manifest outlived its code. The
//! self-test's manifest lists `intake`, `slot` and `gone` in `order` and
//! `work` and `slot` in `condvars`. Only `gone` and the condvar `slot`
//! are stale: the `slot` field here is a `Mutex`, and a field of one
//! kind must not keep an entry of the other kind alive.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

struct Shared {
    intake: Mutex<u32>,
    work: Condvar,
}

struct ActiveJob {
    slot: Mutex<Option<u32>>,
}

fn park(shared: &Shared) {
    let mut intake = lock(&shared.intake);
    while *intake == 0 {
        intake = shared.work.wait(intake);
    }
}

#[cfg(test)]
mod tests {
    // Test code declares nothing the scope's code does not.
    struct Fake {
        gone: Mutex<u32>,
    }
}
