//! Fixture: another library crate, calling into `a`.

/// Docs are not callers: [`a::named_only_in_docs`].
pub use a::named_only_by_pub_use;

pub fn entry() {
    a::called_from_other_crate();
}
