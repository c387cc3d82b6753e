//! `newtond` — the Newton controller as a resident service.
//!
//! The paper's workflow is interactive: operators express monitoring
//! intents in a textual language, the controller compiles and installs
//! them into the running network, and later drills down, retunes, or
//! removes them — all without interrupting other queries (§4, Fig. 11).
//! The rest of this workspace exercises that pipeline in batch harnesses;
//! this crate keeps it resident: a daemon owns a live
//! [`NewtonSystem`](newton::NewtonSystem) and serves intents over a local
//! TCP socket as newline-delimited JSON, so many concurrent clients share
//! one network's slot budget, telemetry journal, and repair loop.
//!
//! * [`proto`] — the wire protocol: request/response shapes, error kinds.
//! * [`server`] — the daemon: core thread owning the system, acceptor,
//!   per-connection threads, journal streaming to subscribers.
//! * [`client`] — a small blocking client (used by the `--client` CLI
//!   mode, the examples, and the integration tests).
//! * [`json`] — the dependency-free JSON tree both sides share (the
//!   workspace's one JSON module, re-exported from `newton-telemetry`).

pub mod client;
pub mod proto;
pub mod server;

pub use newton::telemetry::json;

pub use client::{Client, ClientError, StreamItem, Subscription};
pub use proto::{ErrorKind, Op, Request};
pub use server::{Daemon, DaemonConfig};
