//! Fixture: shapes that look like violations but are not. The
//! self-test asserts the analyzer reports *zero* findings here — every
//! construct below is a known near-miss the lints must not flag.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

/// Every lock the fixture manifest lists, declared by a field of its
/// kind: no manifest entry is stale.
struct Shared {
    first: Mutex<u32>,
    second: Mutex<Vec<u32>>,
    work: Condvar,
}

fn predicate_loops(shared: &Shared) {
    // The correct condvar idiom: the wait sits directly in a `while`
    // (or `loop`) body, so the predicate is re-tested on every wakeup.
    let mut guard = lock(&shared.first);
    while *guard == 0 {
        guard = shared.work.wait(guard);
    }
    loop {
        if *guard != 0 {
            break;
        }
        guard = shared.work.wait(guard);
    }
    drop(guard);
}

fn ordered_nesting(shared: &Shared) {
    // Acquisitions in declared order while an earlier guard is held.
    let first = lock(&shared.first);
    let second = lock(&shared.second);
    drop(second);
    drop(first);
}

fn drop_then_reacquire(shared: &Shared) {
    // Releasing via `drop` frees the order constraint.
    let second = lock(&shared.second);
    drop(second);
    let first = lock(&shared.first);
    drop(first);
}

fn statement_temporary(shared: &Shared) {
    // A temporary guard dies at the end of its statement: acquiring
    // `second` here does not constrain the later `first`.
    lock(&shared.second).push(1);
    let first = lock(&shared.first);
    drop(first);
}

fn not_our_lock() {
    // `stdout().lock()` is an io handle, not a Mutex in the manifest's
    // order; the receiver before the dot is a call, not a field.
    let out = std::io::stdout().lock();
    drop(out);
}

fn panic_free(xs: &[u32], pair: [u32; 2]) -> u32 {
    // Destructuring a fixed-size array is panic-free by construction,
    // `get` is checked, and `unwrap_or_else` is not `unwrap`.
    let [a, b] = pair;
    let c = xs.get(0).copied().unwrap_or_else(|| 0);
    let clamped = xs.first().copied().unwrap_or(0);
    a + b + c + clamped
}

fn hot_fn(scratch: &mut [u32]) {
    // The hot path reuses caller-provided scratch: nothing allocates.
    for v in scratch.iter_mut() {
        *v = v.wrapping_add(1);
    }
}

fn audited(p: *const u32) -> u32 {
    // SAFETY: fixture pointer is always valid here — this site
    // demonstrates an *audited* unsafe block the lint accepts.
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        // Inside test code unwrap/indexing/allocation are all fine.
        let v = vec![1u32, 2, 3];
        assert_eq!(v[0], v.iter().copied().min().unwrap());
    }
}
