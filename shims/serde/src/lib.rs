//! Offline stand-in for `serde`.
//!
//! The workspace derives `Serialize`/`Deserialize` on its data types but
//! never serializes through them today (reports are hand-rendered text /
//! JSON). With no network access to crates.io, this shim supplies the
//! trait names and no-op derive macros so those derives remain
//! source-compatible until the real dependency can be vendored.
//!
//! The [`json`] module is the exception: it is a *real* (if small) JSON
//! value model, parser, and writer, standing in for `serde_json`. The
//! `vqd-server` wire protocol and the bench reports are built on it.

#![warn(missing_docs)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize` (no methods in the shim).
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize` (no methods in the shim).
pub trait Deserialize<'de> {}
