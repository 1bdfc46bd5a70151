//! Fixture: an example is a caller.

fn main() {
    a::called_from_example();
}
