//! The deserialization half: types reconstructible from a [`Value`].

use std::error::Error;
use std::fmt;

use crate::Value;

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }

    /// Shorthand for a type-mismatch error.
    #[must_use]
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for DeError {}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Attempts to build `Self` from a value.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the value has the wrong shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Fetches and deserializes one field of an object.
///
/// # Errors
///
/// Returns [`DeError`] when the field is missing or has the wrong shape.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    let f = v
        .get(name)
        .ok_or_else(|| DeError(format!("missing field '{name}'")))?;
    T::from_value(f).map_err(|e| DeError(format!("field '{name}': {e}")))
}

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError(format!("{i} out of range for {}", stringify!($t)))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError(format!("{u} out of range for {}", stringify!($t)))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_de_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_and_range_check() {
        assert_eq!(u8::from_value(&Value::Int(200)), Ok(200));
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u8::from_value(&Value::Str("no".into())).is_err());
        assert_eq!(i64::from_value(&Value::Int(-5)), Ok(-5));
    }

    #[test]
    fn field_helper_reports_context() {
        let v = Value::Object(vec![("raw".into(), Value::Int(7))]);
        assert_eq!(field::<i64>(&v, "raw"), Ok(7));
        let err = field::<i64>(&v, "missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
