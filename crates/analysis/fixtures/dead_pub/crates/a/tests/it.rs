//! Fixture: an integration test is not a caller.

#[test]
fn calls() {
    a::called_only_from_tests_dir();
    a::kept_as_a_test_oracle();
}
