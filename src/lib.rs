//! Workspace facade for the SCORPIO reproduction.
//!
//! This root crate exists to host the cross-crate integration tests
//! (`tests/`) and runnable examples (`examples/`); the library surface
//! lives in the member crates, headlined by [`scorpio`].

#![forbid(unsafe_code)]

pub use scorpio;
