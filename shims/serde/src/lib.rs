//! Offline stand-in named `serde`.
//!
//! It holds one module, [`json`]: a small JSON value model, parser and
//! writer, standing in for `serde_json`. Real serde has no such module.
//! The `vqd-server` wire protocol and the bench reports are built on it.

#![warn(missing_docs)]

pub mod json;
