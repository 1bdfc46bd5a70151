//! Offline stand-in for the `serde` crate.
//!
//! This build environment has no access to crates.io, so the workspace
//! ships a minimal self-contained replacement under the `serde` name.
//! Instead of serde's visitor architecture, serialization goes through a
//! concrete JSON-like [`Value`] tree, and every impl is written by hand
//! (there are no derive macros):
//!
//! * [`Serialize::to_value`] converts a type into a [`Value`];
//! * [`Deserialize::from_value`] reconstructs the type from a [`Value`],
//!   with [`field`] fetching one object field.
//!
//! Rendering/parsing of the `Value` tree as JSON text lives in the
//! sibling `serde_json` shim.

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

mod de;
mod ser;
mod value;

pub use de::{field, DeError, Deserialize};
pub use ser::Serialize;
pub use value::Value;
