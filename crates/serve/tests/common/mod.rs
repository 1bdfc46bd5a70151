//! Test support shared by the serving suites.

pub mod fault;
