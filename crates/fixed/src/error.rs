use std::error::Error;
use std::fmt;

use crate::QFormat;

/// Errors produced by fallible fixed-point operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FixedError {
    /// Two operands were required to share a format but did not.
    FormatMismatch {
        /// Format of the left operand.
        lhs: QFormat,
        /// Format of the right operand.
        rhs: QFormat,
    },
}

impl fmt::Display for FixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedError::FormatMismatch { lhs, rhs } => {
                write!(f, "operand formats differ: {lhs} vs {rhs}")
            }
        }
    }
}

impl Error for FixedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FixedError::FormatMismatch {
            lhs: QFormat::signed(6, 2),
            rhs: QFormat::unsigned(1, 15),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("operand formats differ"));
        assert!(msg.contains("Q(6,2)"));
        assert!(msg.contains("UQ(1,15)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FixedError>();
    }
}
