//! lock-discipline: files under a declared lock scope get three
//! checks.
//!
//! 1. **Declared locks only** — every `Mutex`/`Condvar` field and
//!    every acquisition receiver must appear in the manifest, and every
//!    manifest entry must be declared by a field of its kind somewhere
//!    in the scope ([`stale_entries`]), so the manifest cannot silently
//!    rot as the code grows or shrinks.
//! 2. **Acquisition order** — while a guard is held (let-bound), any
//!    further acquisition must be of a lock strictly *later* in the
//!    declared total order. Statement-level temporaries
//!    (`lock(&x).method()`) drop at the end of the statement and do
//!    not constrain later acquisitions.
//! 3. **Condvar predicate loops** — every `.wait(..)`/`.wait_timeout(..)`
//!    on a declared condvar must sit directly in a `while` or `loop`
//!    body. `if !ready { wait() }` is the exact shape of the PR 8
//!    lost-wakeup deadlock; a spurious wakeup or a stale predicate
//!    turns it into a hang.
//!
//! The analysis is lexical and per-function: guards passed across
//! function boundaries are out of scope (documented in
//! `docs/ANALYSIS.md`), which is precisely why the workspace keeps
//! lock-holding helpers small.

use crate::lexer::Tok;
use crate::manifest::LockScope;
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// A live, let-bound guard.
#[derive(Debug)]
struct Guard {
    name: String,
    lock: String,
    /// Brace depth at the binding; the guard dies when the enclosing
    /// block closes.
    depth: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKind {
    /// `while` / `loop` / `for` body: a condvar wait here re-tests its
    /// predicate.
    Loopy,
    Other,
}

/// Scans one lock-scope file.
pub fn run(file: &SourceFile, scope: &LockScope, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut blocks: Vec<BlockKind> = Vec::new();
    let mut pending = BlockKind::Other;

    let order_pos = |name: &str| scope.order.iter().position(|l| l == name);

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Punct('{') => {
                blocks.push(pending);
                pending = BlockKind::Other;
            }
            Tok::Punct('}') => {
                blocks.pop();
                let depth = blocks.len();
                guards.retain(|g| g.depth <= depth);
                pending = BlockKind::Other;
            }
            Tok::Punct(';') => pending = BlockKind::Other,
            Tok::Ident(id) => {
                match id.as_str() {
                    "while" | "loop" | "for" => pending = BlockKind::Loopy,
                    "if" | "else" | "match" => pending = BlockKind::Other,
                    _ => {}
                }
                // Field declarations keep the manifest honest.
                if !file.mask[i] {
                    if let Some(ty) = field_decl_type(toks, i) {
                        let declared = match ty {
                            "Mutex" => scope.order.iter().any(|l| l == id),
                            _ => scope.condvars.iter().any(|c| c == id),
                        };
                        if !declared {
                            out.push(Violation {
                                lint: Lint::LockDiscipline,
                                file: file.rel_path.clone(),
                                line,
                                message: format!(
                                    "`{id}: {ty}` is not declared in the lock manifest for \
                                     `{}`: add it to the {} list with its place in the order",
                                    scope.scope,
                                    if ty == "Mutex" { "order" } else { "condvars" },
                                ),
                            });
                        }
                    }
                }
                // `drop(guard)` releases early.
                if id == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) {
                        guards.retain(|g| g.name != name);
                    }
                }
                // Acquisitions (both the `lock(&x)` helper and
                // `x.lock()` method forms).
                if !file.mask[i] {
                    if let Some((receiver, chain_start, after)) = acquisition(toks, i) {
                        check_acquisition(
                            file,
                            scope,
                            toks,
                            i,
                            &receiver,
                            chain_start,
                            after,
                            &mut guards,
                            blocks.len(),
                            order_pos,
                            out,
                        );
                        i = after;
                        continue;
                    }
                    // Condvar waits.
                    if (id == "wait" || id == "wait_timeout")
                        && i >= 2
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    {
                        if let Some(recv) = toks[i - 2].ident() {
                            if scope.condvars.iter().any(|c| c == recv)
                                && blocks.last() != Some(&BlockKind::Loopy)
                            {
                                out.push(Violation {
                                    lint: Lint::LockDiscipline,
                                    file: file.rel_path.clone(),
                                    line,
                                    message: format!(
                                        "`{recv}.{id}(..)` is not directly inside a \
                                         `while`/`loop` body: a spurious wakeup or stale \
                                         predicate becomes a lost-wakeup hang (the PR 8 bug \
                                         shape) — re-test the predicate in a loop"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Flags the entries of `scope` that no field in its `files` declares:
/// an `order` name with no `Mutex` field, a `condvars` name with no
/// `Condvar` field. Matching goes by kind, so a `Mutex` field does not
/// keep a stale condvar entry of the same name alive. The manifest has
/// no lines of its own, so findings are anchored at the scope, line 1.
pub fn stale_entries(files: &[&SourceFile], scope: &LockScope, out: &mut Vec<Violation>) {
    let fields: Vec<(&str, &str)> = files
        .iter()
        .flat_map(|file| {
            (0..file.tokens.len())
                .filter(|&i| !file.mask[i])
                .filter_map(|i| Some((file.tokens[i].ident()?, field_decl_type(&file.tokens, i)?)))
        })
        .collect();
    for (kind, list, names) in [
        ("Mutex", "order", &scope.order),
        ("Condvar", "condvars", &scope.condvars),
    ] {
        for name in names {
            if !fields.contains(&(name.as_str(), kind)) {
                out.push(Violation {
                    lint: Lint::LockDiscipline,
                    file: scope.scope.clone(),
                    line: 1,
                    message: format!(
                        "the manifest's {list} list names `{name}`, but no `{name}: {kind}` \
                         field is declared in `{}`: drop or rename the stale manifest entry",
                        scope.scope
                    ),
                });
            }
        }
    }
}

/// If `toks[i]` begins an acquisition, returns
/// `(receiver, chain_start_index, index_after_call)`.
fn acquisition(toks: &[crate::lexer::Token], i: usize) -> Option<(String, usize, usize)> {
    let id = toks[i].ident()?;
    let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
    if id == "lock" && !prev_is_dot && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        // Helper form `lock(&a.b.c)`: receiver is the last identifier
        // before the closing paren.
        let mut depth = 0usize;
        let mut last = None;
        let mut j = i + 1;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(name) => last = Some(name.clone()),
                _ => {}
            }
            j += 1;
        }
        return last.map(|r| (r, i, j + 1));
    }
    if id == "lock" && prev_is_dot && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        // Method form `a.b.lock()`: receiver is the identifier before
        // the final dot; the chain starts where the `x.y.z` run does.
        let receiver = toks.get(i.wrapping_sub(2)).and_then(|t| t.ident())?;
        let mut start = i - 2;
        while start >= 2 && toks[start - 1].is_punct('.') && toks[start - 2].ident().is_some() {
            start -= 2;
        }
        return Some((receiver.to_owned(), start, i + 2));
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn check_acquisition(
    file: &SourceFile,
    scope: &LockScope,
    toks: &[crate::lexer::Token],
    i: usize,
    receiver: &str,
    chain_start: usize,
    after: usize,
    guards: &mut Vec<Guard>,
    depth: usize,
    order_pos: impl Fn(&str) -> Option<usize>,
    out: &mut Vec<Violation>,
) {
    let line = toks[i].line;
    let Some(pos) = order_pos(receiver) else {
        out.push(Violation {
            lint: Lint::LockDiscipline,
            file: file.rel_path.clone(),
            line,
            message: format!(
                "lock acquisition on `{receiver}` which is not in the declared order for \
                 `{}` ({:?}): declare it in the manifest",
                scope.scope, scope.order,
            ),
        });
        return;
    };
    for g in guards.iter() {
        let held = order_pos(&g.lock);
        if held.is_some_and(|h| h >= pos) {
            out.push(Violation {
                lint: Lint::LockDiscipline,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "`{receiver}` acquired while `{}` (guard `{}`) is held, violating the \
                     declared order {:?} — release the earlier guard or re-order",
                    g.lock, g.name, scope.order,
                ),
            });
        }
    }
    if let Some(name) = binding_name(toks, chain_start) {
        guards.retain(|g| g.name != name);
        guards.push(Guard {
            name,
            lock: receiver.to_owned(),
            depth,
        });
    }
    let _ = after;
}

/// If the acquisition chain starting at `chain_start` is the entire
/// right-hand side of a `let` binding or a plain reassignment, returns
/// the bound name: that guard is *held* beyond the statement.
/// Anything else (`drop(lock(..))`, `if !lock(..).admit()`,
/// `a && lock(..).len() == n`) is a temporary.
fn binding_name(toks: &[crate::lexer::Token], chain_start: usize) -> Option<String> {
    if chain_start == 0 {
        return None;
    }
    // Walk back to the statement boundary.
    let mut j = chain_start;
    while j > 0 {
        match &toks[j - 1].tok {
            Tok::Punct(';' | '{' | '}') => break,
            _ => j -= 1,
        }
    }
    let stmt = &toks[j..chain_start];
    // `[let] [mut] name =` (tuple patterns etc. never bind a bare lock
    // guard in this codebase; condvar waits return tuples, locks do
    // not).
    let mut idx = 0;
    if stmt.get(idx).and_then(|t| t.ident()) == Some("let") {
        idx += 1;
    }
    if stmt.get(idx).and_then(|t| t.ident()) == Some("mut") {
        idx += 1;
    }
    let name = stmt.get(idx).and_then(|t| t.ident())?;
    if crate::scan::KEYWORDS.contains(&name) {
        return None;
    }
    if stmt.get(idx + 1).is_some_and(|t| t.is_punct('=')) && stmt.len() == idx + 2 {
        return Some(name.to_owned());
    }
    None
}

/// Detects `name: Mutex<` / `name: Condvar` field declarations (and
/// the matching struct-literal initializers, which reuse the field
/// name and therefore stay consistent). Returns the type name.
fn field_decl_type(toks: &[crate::lexer::Token], i: usize) -> Option<&str> {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    // `::` paths (`sync::Mutex`) are not a field declaration here.
    if toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    match toks.get(i + 2).and_then(|t| t.ident()) {
        Some(ty @ ("Mutex" | "Condvar")) => Some(ty),
        _ => None,
    }
}
