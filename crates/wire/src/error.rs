//! Error type for encoding and decoding.

use std::fmt;

/// Error produced while encoding or decoding the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A custom message produced through serde's error hooks.
    Message(String),
    /// Input ended before a complete value was decoded.
    UnexpectedEof,
    /// An unknown or out-of-place type tag was encountered.
    BadTag(u8),
    /// A varint ran over its maximum width.
    VarintOverflow,
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A char code point was invalid.
    InvalidChar(u32),
    /// The type is not representable in the wire format (e.g. `i128`).
    Unsupported(&'static str),
    /// Trailing bytes remained after decoding a complete value.
    TrailingBytes(usize),
    /// A declared length exceeds the remaining input.
    LengthOverflow(u64),
    /// A value nests deeper than the decoder follows (128 levels).
    TooDeep,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Message(m) => f.write_str(m),
            WireError::UnexpectedEof => f.write_str("unexpected end of input"),
            WireError::BadTag(t) => write!(f, "invalid type tag 0x{t:02x}"),
            WireError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            WireError::InvalidUtf8 => f.write_str("string is not valid utf-8"),
            WireError::InvalidChar(c) => write!(f, "invalid char code point {c}"),
            WireError::Unsupported(what) => write!(f, "unsupported type: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::LengthOverflow(n) => write!(f, "declared length {n} exceeds input"),
            WireError::TooDeep => f.write_str("value nested deeper than 128 levels"),
        }
    }
}

impl std::error::Error for WireError {}

impl serde::ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

impl serde::de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

/// Convenience alias for results of wire operations.
pub type WireResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        assert_eq!(
            WireError::UnexpectedEof.to_string(),
            "unexpected end of input"
        );
        assert_eq!(WireError::BadTag(0xff).to_string(), "invalid type tag 0xff");
        assert_eq!(
            WireError::TrailingBytes(3).to_string(),
            "3 trailing bytes after value"
        );
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<WireError>();
    }
}
