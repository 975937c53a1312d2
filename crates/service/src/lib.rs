//! # realloc-service
//!
//! The client-facing serving tier: a std-only request/response TCP
//! front-end over the workspace's length-prefixed framing, mapping a
//! four-verb text protocol onto [`realloc_engine::Engine`] with
//! per-tenant QoS in front.
//!
//! * [`proto`] — the wire protocol: `place`/`remove`/`window`/`metrics`
//!   commands, `ok …`/`overloaded …`/`err …` replies, one per frame —
//!   the grammar's one home, written and parsed both ways;
//! * [`client`] — the client end: [`QosClient`] sends commands and
//!   reads replies over one framed connection, pipelining allowed, and
//!   [`drive_feed`] runs batches of tenant requests through it;
//! * [`qos`] — admission control: per-tenant token buckets, a global
//!   in-service cap, typed shedding with a retry hint (never an
//!   unbounded queue);
//! * [`server`] — the accept loop and per-connection pipelined
//!   batching, in the `ReplicaServer`/`ObsServer` threading shape, with
//!   silent-client reaping and per-tenant service-time telemetry
//!   (`service_request_nanos{tenant="N"}` and friends — scrape them
//!   live over [`realloc_telemetry::ObsServer`]).
//!
//! ```no_run
//! use realloc_engine::{Engine, EngineConfig};
//! use realloc_service::{ServiceConfig, ServiceServer};
//! use realloc_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let server = ServiceServer::bind(
//!     "127.0.0.1:0",
//!     Engine::new(EngineConfig::default()),
//!     ServiceConfig::default(),
//!     &telemetry,
//! )
//! .unwrap();
//! println!("serving on {}", server.addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod qos;
pub mod server;
mod tele;

pub use client::{drive_feed, DriveStats, QosClient};
pub use proto::{Command, Reply};
pub use qos::{AdmitGuard, Qos, QosConfig, RateLimit};
pub use server::{ServiceConfig, ServiceServer};
