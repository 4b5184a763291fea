//! # fcc-serve — the compile service
//!
//! A long-running daemon (`fcc serve`) that speaks a versioned JSONL
//! protocol over stdin/stdout and keeps a **content-addressed
//! incremental function cache** between requests, so an edit-compile
//! loop recompiles only the functions that changed. Its modules:
//!
//! | module | contents |
//! |---|---|
//! | [`json`] | dependency-free JSON reader/writer (the workspace has no serde) |
//! | [`protocol`] | request parsing, error taxonomy, response rendering |
//! | [`cache`] | FNV-1a content-addressed [`FnCache`] with LRU byte-budget eviction, shared single-flight by [`SharedCache`] |
//! | [`codec`] | [`FunctionReport`](fcc_driver::FunctionReport) ⇄ JSON, for the persistent store |
//! | [`fsio`] | crash-safe file primitives, with the disk-fault injection points |
//! | [`disk`] | the checksummed, quarantining on-disk entry store (`--cache-dir`) |
//! | [`daemon`] | the [`Daemon`] state machine and the [`serve_loop`] transport |
//! | [`socket`] | the Unix-domain-socket transport (`--socket`), serving connections in parallel |
//!
//! The service compiles through the driver's unified
//! [`CompileRequest`](fcc_driver::CompileRequest) entry point: the same
//! struct is the protocol body, the library call, and the cache-key
//! input, and the protocol sets its fields through
//! [`CompileRequest::set`](fcc_driver::CompileRequest::set), the setter
//! behind the CLI flags, so the wire format cannot drift from the CLI.
//!
//! Responses are **replay-stable by default**: resubmitting a module
//! yields byte-identical response lines whether every function hit the
//! cache or none did, at any `jobs` width, with a cold cache, a
//! memory-warm cache, or a disk-warm cache after a crash — under any
//! injected disk fault, over either transport (wall times and cumulative
//! counters are opt-in fields and a separate `stats` verb). Concurrent
//! socket connections do not change a byte either: a compile is a pure
//! function of its cache key, and a key several requests miss at once
//! is compiled once. Overload (503) and deadline (504) responses are
//! typed, deterministic, and counted. DESIGN.md §11 specifies the
//! grammar and the determinism argument; §15 the durability design
//! (on-disk format, atomicity, quarantine, faults) and the socket
//! transport.

pub mod cache;
pub mod codec;
pub mod daemon;
pub mod disk;
pub mod fsio;
pub mod json;
pub mod protocol;
pub mod socket;

pub use cache::{
    cache_key, compile_module_cached, CacheStats, CachedBatch, FnCache, SharedCache, CACHE_SCHEMA,
};
pub use codec::{decode_report, encode_report};
pub use daemon::{serve_loop, Daemon, ServeOptions};
pub use disk::{DiskCache, DiskStats};
pub use protocol::{parse_request, Request, ServeError, Verb, PROTOCOL_VERSION};
pub use socket::serve_socket;
