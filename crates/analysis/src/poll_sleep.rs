//! poll-sleep: inside declared no-sleep zones (the serving stack), a
//! call to `sleep(` is denied outside test code. A thread that sleeps
//! until something happens is polling: it notices the event up to a
//! sleep late and wakes for nothing in between. Block on what is awaited
//! instead (the socket, channel or condvar), so the event itself wakes
//! the thread. A wait that is no poll, such as a backoff after an error,
//! carries `analysis:allow(poll-sleep)` with its reason.

use crate::lexer::Tok;
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// Scans one no-sleep-zone file.
pub fn run(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let ident = |i: usize, name: &str| matches!(&toks[i].tok, Tok::Ident(id) if id == name);
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || !ident(i, "sleep") {
            continue;
        }
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let defined = i > 0 && ident(i - 1, "fn");
        if called && !defined {
            out.push(Violation {
                lint: Lint::PollSleep,
                file: file.rel_path.clone(),
                line: t.line,
                message: "`sleep(` in the serving stack: block on what the thread waits for \
                          (socket, channel, condvar) so the event wakes it, or give a backoff \
                          `analysis:allow(poll-sleep)` with its reason"
                    .to_owned(),
            });
        }
    }
}
