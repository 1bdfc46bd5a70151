//! Offline stand-in for the `serde_json` crate, over the serde shim's
//! [`Value`] tree: `to_string` / `to_string_pretty` / `from_str_value`, plus a
//! [`json!`] macro covering the literal-keyed object/array forms this
//! workspace uses.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

mod parse;

pub use parse::from_str_value;
pub use serde::DeError as Error;
pub use serde::Value;

use serde::Serialize;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable type into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Serializes to compact JSON text.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors serde_json's API.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    Ok(v.to_value().to_json())
}

/// Serializes to pretty-printed JSON text.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors serde_json's API.
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    Ok(v.to_value().to_json_pretty())
}

/// Builds a [`Value`] from JSON-shaped syntax.
///
/// Supports the forms used in this workspace: `null`, booleans, object
/// literals with string-literal keys, array literals, nested objects,
/// and arbitrary serializable expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elems:tt)* ]) => {
        $crate::build_array(|items| {
            $crate::json_array_entries!(items; $($elems)*);
        })
    };
    ({ $($entries:tt)* }) => {
        $crate::build_object(|fields| {
            $crate::json_object_entries!(fields; $($entries)*);
        })
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Support function for [`json!`] array literals. Not public API.
#[doc(hidden)]
pub fn build_array(fill: impl FnOnce(&mut Vec<Value>)) -> Value {
    let mut items = Vec::new();
    fill(&mut items);
    Value::Array(items)
}

/// Support function for [`json!`] object literals. Not public API.
#[doc(hidden)]
pub fn build_object(fill: impl FnOnce(&mut Vec<(String, Value)>)) -> Value {
    let mut fields = Vec::new();
    fill(&mut fields);
    Value::Object(fields)
}

/// Internal muncher for [`json!`] object bodies. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ($fields:ident;) => {};
    // Nested object value (must precede the expr arm: a brace group would
    // otherwise be rejected as a block expression).
    ($fields:ident; $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $crate::json_object_entries!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : { $($inner:tt)* }) => {
        $fields.push(($key.to_string(), $crate::json!({ $($inner)* })));
    };
    // Nested array value.
    ($fields:ident; $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $crate::json_object_entries!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : [ $($inner:tt)* ]) => {
        $fields.push(($key.to_string(), $crate::json!([ $($inner)* ])));
    };
    // Null value (`null` is not a Rust expression, so it gets its own arm).
    ($fields:ident; $key:literal : null , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::Value::Null));
        $crate::json_object_entries!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : null) => {
        $fields.push(($key.to_string(), $crate::Value::Null));
    };
    // Plain expression value (an expr cannot contain a top-level comma,
    // so `,` cleanly separates entries).
    ($fields:ident; $key:literal : $value:expr , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::to_value(&$value)));
        $crate::json_object_entries!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : $value:expr) => {
        $fields.push(($key.to_string(), $crate::to_value(&$value)));
    };
}

/// Internal muncher for [`json!`] array bodies. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_entries {
    ($items:ident;) => {};
    ($items:ident; { $($inner:tt)* } , $($rest:tt)*) => {
        $items.push($crate::json!({ $($inner)* }));
        $crate::json_array_entries!($items; $($rest)*);
    };
    ($items:ident; { $($inner:tt)* }) => {
        $items.push($crate::json!({ $($inner)* }));
    };
    ($items:ident; null , $($rest:tt)*) => {
        $items.push($crate::Value::Null);
        $crate::json_array_entries!($items; $($rest)*);
    };
    ($items:ident; null) => {
        $items.push($crate::Value::Null);
    };
    ($items:ident; $value:expr , $($rest:tt)*) => {
        $items.push($crate::to_value(&$value));
        $crate::json_array_entries!($items; $($rest)*);
    };
    ($items:ident; $value:expr) => {
        $items.push($crate::to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_objects() {
        let x = 2.5f64;
        let v = json!({
            "a": 1,
            "nested": { "b": x, "c": "s" },
            "list": [1, 2],
            "tail": x * 2.0,
        });
        assert_eq!(
            v.to_json(),
            r#"{"a":1,"nested":{"b":2.5,"c":"s"},"list":[1,2],"tail":5.0}"#
        );
    }

    #[test]
    fn round_trip_through_text() {
        let v = json!({ "k": [1, -2.5, true, null], "s": "x\"y" });
        let text = to_string(&v).unwrap();
        let back = from_str_value(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn vec_of_values_nests() {
        let series: Vec<Value> = vec![json!({"n": 1}), json!({"n": 2})];
        let v = json!({"series": series});
        assert_eq!(v.to_json(), r#"{"series":[{"n":1},{"n":2}]}"#);
    }
}
