#![warn(missing_docs)]
//! # acidrain-net
//!
//! The network front end for the ACIDRain reproduction: everything in
//! this repository up to PR 7 exercised the engine through in-process
//! function calls, but the paper's adversary is *remote* — ACIDRain
//! attacks are mounted by firing rapid successive requests at a web
//! application over real connections, where network scheduling decides
//! the interleaving (Warszawski & Bailis, SIGMOD 2017, §5). This crate
//! closes that gap with two pieces and one attack:
//!
//! * [`server`] — a dependency-free line-protocol server (one acceptor
//!   thread, and one long-lived blocking thread per admitted session
//!   that reads, executes and replies) that maps each socket onto an
//!   engine [`acidrain_db::Connection`], with per-session isolation
//!   negotiation, admission control, idle/in-transaction timeouts as
//!   socket timeouts, and abort-on-disconnect through the normal
//!   rollback path.
//! * [`client`] — [`client::RemoteConn`], a socket-backed
//!   [`acidrain_apps::SqlConn`], so the entire application corpus and
//!   its retry wrappers run unmodified across the wire.
//! * [`loadgen`] — the over-socket flexcoin attack.
//!
//! Storefront load over these sockets — closed loop with flaky clients,
//! or open loop at a rate over a thousand persistent sockets — is a
//! configuration of the harness's one storefront driver
//! (`acidrain_harness::storefront`), not a second driver here.
//!
//! The wire protocol itself (framing, commands, error-code mapping,
//! session lifecycle) is specified in DESIGN.md §14 and implemented in
//! [`protocol`].

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::RemoteConn;
pub use loadgen::{flexcoin_attack, AttackOutcome, Zipf};
pub use protocol::{isolation_code, parse_isolation, Request};
pub use server::{Server, ServerConfig, ServerHandle};
