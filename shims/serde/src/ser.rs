//! The serialization half: types that can turn themselves into a [`Value`].

use crate::Value;

/// A type that can be represented as a [`Value`] tree.
///
/// Implemented below for primitives and standard containers; other types
/// implement it by hand.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(i64::from(*self))
            }
        }
    )*};
}

impl_ser_int!(i8, i16, i32, i64, u8, u16, u32);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        match i64::try_from(*self) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::UInt(*self),
        }
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        (*self as u64).to_value()
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(5u32.to_value(), Value::Int(5));
        assert_eq!(u64::MAX.to_value(), Value::UInt(u64::MAX));
        assert_eq!((-1i64).to_value(), Value::Int(-1));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
    }

    #[test]
    fn containers_serialize() {
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
    }
}
