//! Fixture: the library crate whose `pub` items the `dead-pub` lint
//! judges. The self-test analyzes this file set as a workspace and
//! expects a finding on exactly the lines marked `dead-pub`.

pub fn never_called() {} //~ dead-pub

pub fn called_only_from_tests_dir() {} //~ dead-pub

pub fn called_only_from_cfg_test() {} //~ dead-pub

pub fn named_only_in_docs() {} //~ dead-pub

pub fn named_only_by_pub_use() {} //~ dead-pub

pub const UNUSED_LIMIT: u32 = 3; //~ dead-pub

pub struct Unused; //~ dead-pub

pub fn called_from_other_crate() {}

pub fn called_from_example() {}

pub fn called_from_perfbench() {}

pub(crate) fn crate_private() {}

// analysis:allow(dead-pub): fixture shows a finding kept with a reason
pub fn kept_as_a_test_oracle() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}

    #[test]
    fn calls() {
        super::called_only_from_cfg_test();
        test_helper();
    }
}
