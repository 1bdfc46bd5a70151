//! Fixture: real violations covered by well-formed
//! `analysis:allow(<lint>): <reason>` suppressions. The self-test
//! asserts zero *surviving* findings — every suppression here names a
//! known lint, carries a reason, and sits on the flagged line or the
//! line directly above.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

struct Shared {
    first: Mutex<u32>,
    second: Mutex<u32>,
    work: Condvar,
}

fn covered(r: Result<u32, ()>, xs: &[u32]) -> u32 {
    // analysis:allow(panic-surface): fixture shows the line-above suppression form
    let a = r.unwrap();
    let b = xs[0]; // analysis:allow(panic-surface): fixture shows the same-line form
    a + b
}

fn covered_unsafe(p: *const u32) -> u32 {
    // analysis:allow(unsafe-audit): fixture demonstrates suppressing the audit itself
    unsafe { *p }
}

fn covered_lock(shared: &Shared) {
    let second = lock(&shared.second);
    // analysis:allow(lock-discipline): fixture demonstrates an acknowledged order inversion
    let first = lock(&shared.first);
    drop(first);
    drop(second);
}
