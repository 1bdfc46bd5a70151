//! Tracks the enclosing item (`fn` / `impl` / `mod` / `trait`) while
//! scanning a token stream, so findings can be reported with a human
//! context ("block in `fn run_batch`") instead of a bare line number.

use crate::lexer::Token;

#[derive(Debug)]
struct Frame {
    label: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    None,
    /// Saw `fn`, waiting for the name.
    Fn,
    /// Saw `impl` / `mod` / `trait`; accumulating the signature words.
    Item,
}

/// Feed tokens in order via [`ItemTracker::observe`]; ask for the
/// current context at any point via [`ItemTracker::context`].
#[derive(Debug)]
pub struct ItemTracker {
    stack: Vec<Frame>,
    pending: Pending,
    pending_label: String,
}

impl Default for ItemTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ItemTracker {
    #[must_use]
    pub fn new() -> Self {
        ItemTracker {
            stack: Vec::new(),
            pending: Pending::None,
            pending_label: String::new(),
        }
    }

    /// Observe the next code token (comments must already be filtered
    /// out of the stream).
    pub fn observe(&mut self, token: &Token) {
        if let Some(id) = token.ident() {
            match (id, self.pending) {
                ("fn", _) => {
                    self.pending = Pending::Fn;
                    self.pending_label = "fn".to_owned();
                }
                ("impl" | "mod" | "trait", Pending::None | Pending::Item) => {
                    self.pending = Pending::Item;
                    self.pending_label = id.to_owned();
                }
                (_, Pending::Fn) => {
                    // The name right after `fn`; later idents (params,
                    // generics) are not appended.
                    if self.pending_label == "fn" {
                        self.pending_label.push(' ');
                        self.pending_label.push_str(id);
                    }
                }
                (_, Pending::Item) => {
                    self.pending_label.push(' ');
                    self.pending_label.push_str(id);
                }
                (_, Pending::None) => {}
            }
            return;
        }
        if token.is_punct('{') {
            let label = match self.pending {
                // `fn` with no captured name (an `fn(...)` type) gets
                // no label.
                Pending::Fn if self.pending_label != "fn" => Some(self.pending_label.clone()),
                Pending::Item => Some(self.pending_label.clone()),
                _ => None,
            };
            self.pending = Pending::None;
            self.stack.push(Frame { label });
        } else if token.is_punct('}') {
            self.stack.pop();
        } else if token.is_punct(';') {
            self.pending = Pending::None;
        } else if token.is_punct('(') && self.pending == Pending::Fn && self.pending_label == "fn" {
            // `fn(` — a function *type*, not an item declaration.
            self.pending = Pending::None;
        }
    }

    /// The innermost labeled scope, preferring function labels over
    /// `impl`/`mod` blocks; `"module scope"` at the top level.
    #[must_use]
    pub fn context(&self) -> String {
        let mut fallback = None;
        for frame in self.stack.iter().rev() {
            if let Some(label) = &frame.label {
                if label.starts_with("fn ") {
                    return format!("`{label}`");
                }
                if fallback.is_none() {
                    fallback = Some(label.clone());
                }
            }
        }
        fallback.map_or_else(|| "module scope".to_owned(), |l| format!("`{l}`"))
    }
}
