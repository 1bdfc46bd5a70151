// The kind table documents 0x02 for `submit_reply`; no const has it. //~ wire-stability
//! Fixture: a wire `frame.rs` whose binary kind bytes drift from the
//! kind table in `fixtures/wire_protocol.md`. Every line carrying a
//! `//~` marker must be flagged by `wire-stability`, and nothing else.

pub mod kind {
    /// Matches its table row.
    pub const SUBMIT: u8 = 0x01;
    /// Drifted: the table says 0x02.
    pub const SUBMIT_REPLY: u8 = 0x03; //~ wire-stability
    /// Documented, but for a frame `fn tag` does not know.
    pub const WARP_CORE: u8 = 0x04; //~ wire-stability
}

pub enum ErrorCode {
    Protocol = 8,
}

impl Frame {
    pub fn tag(&self) -> &'static str {
        match self {
            // Binary frames: documented by the kind table, no JSON
            // example needed.
            Frame::Submit(_) => "submit",
            Frame::SubmitReply(_) => "submit_reply",
            // A JSON frame with its example in the document.
            Frame::Health => "health",
        }
    }
}
