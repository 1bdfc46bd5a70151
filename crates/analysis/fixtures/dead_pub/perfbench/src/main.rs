//! Fixture: the benchmark is a caller.

fn main() {
    a::called_from_perfbench();
}
