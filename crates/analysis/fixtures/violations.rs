// The manifest lists hot function `gone_fn`, defined nowhere here. //~ hot-path-alloc
//! Fixture: every line carrying a `//~` marker naming a lint must be
//! flagged with exactly that lint, and no unmarked line may be
//! flagged. The self-test (`tests/fixtures_selftest.rs`) parses the
//! markers out of this file and diffs them against the analyzer's
//! findings, so the fixture is its own expectation table.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

struct Shared {
    first: Mutex<u32>,
    second: Mutex<u32>,
    third: Mutex<u32>, //~ lock-discipline
    work: Condvar,
    bell: Condvar, //~ lock-discipline
}

fn panics(xs: &[u32], r: Result<u32, ()>) -> u32 {
    let a = xs[0]; //~ panic-surface
    let b = r.unwrap(); //~ panic-surface
    let c = r.expect("fixture"); //~ panic-surface
    if a > b + c {
        panic!("boom"); //~ panic-surface
    }
    unreachable!() //~ panic-surface
}

fn hot_fn(out: &mut Vec<u32>) {
    let mut tmp = Vec::new(); //~ hot-path-alloc
    let s = "x".to_string(); //~ hot-path-alloc
    tmp = (0..4).collect(); //~ hot-path-alloc
    let v = vec![1, 2]; //~ hot-path-alloc
    out.clone_from(&tmp); //~ hot-path-alloc
    drop((s, v));
}

fn wrong_order(shared: &Shared) {
    let second = lock(&shared.second);
    let first = lock(&shared.first); //~ lock-discipline
    drop(first);
    drop(second);
}

fn wait_outside_loop(shared: &Shared) {
    // The exact PR 8 lost-wakeup shape: the predicate is tested once,
    // so a spurious wakeup (or a wakeup that raced the predicate
    // store) leaves the thread parked forever.
    let mut guard = lock(&shared.first);
    if *guard == 0 {
        guard = shared.work.wait(guard); //~ lock-discipline
    }
    drop(guard);
}

fn undeclared_receiver(shared: &Shared) {
    let g = shared.extra.lock(); //~ lock-discipline
    drop(g);
}

fn undocumented_unsafe(p: *const u32) -> u32 {
    unsafe { *p } //~ unsafe-audit
}

// A documented site still cannot hide in a macro: it expands into the
// caller's crate, past that crate's `forbid(unsafe_code)`.
macro_rules! deref_in_caller {
    ($p:expr) => {
        // SAFETY: every caller passes a valid, aligned pointer.
        unsafe { *$p } //~ unsafe-audit
    };
}

fn bad_suppressions(r: Result<u32, ()>) {
    // analysis:allow(panic-surface) //~ bad-suppression
    // analysis:allow(made-up-lint): the lint name does not exist //~ bad-suppression
    drop(r);
}
