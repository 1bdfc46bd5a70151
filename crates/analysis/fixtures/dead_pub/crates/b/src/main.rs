//! Fixture: a binary's items are not judged, but its calls count.

pub fn binary_only() {}

fn main() {
    b::entry();
}
