//! # rnnhm_serve
//!
//! A vendor-free, robustness-first HTTP/1.1 serving front end for the
//! RkNN heat-map [`ExplorationEngine`](rnn_heatmap::ExplorationEngine):
//! std-`TcpListener`, a fixed worker pool behind a **bounded admission
//! queue** (overload ⇒ immediate `503`, never unbounded memory),
//! per-request **deadlines** that degrade viewports to coarse previews
//! instead of blocking, per-request **panic isolation**, socket
//! timeouts against slow-loris clients, idle-session GC, and a
//! deterministic **fault-injection** harness driving the chaos tests.
//!
//! See [`server`] for the endpoint table and the
//! admission → deadline → degrade → shed pipeline, [`fault`] for the
//! injectable fault points, and [`http`] for the bounded wire-format
//! reader.
//!
//! ```no_run
//! use std::sync::Arc;
//! use rnn_heatmap::prelude::*;
//! use rnn_heatmap::HeatMapBuilder;
//! use rnnhm_serve::{serve, ServerConfig};
//!
//! let data = Dataset::zipfian(10_000, 42);
//! let (clients, facilities) = sample_clients_facilities(&data.points, 9_000, 1_000, 7);
//! let engine = Arc::new(
//!     HeatMapBuilder::bichromatic(clients, facilities)
//!         .build_engine(CountMeasure)
//!         .expect("non-empty input"),
//! );
//! let server = serve(engine, ServerConfig::default()).expect("bind");
//! println!("serving on http://{}", server.addr());
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod http;
pub mod json;
pub mod server;

pub use fault::{FaultCounts, FaultPlan};
pub use http::{Body, Request, Response};
pub use server::{serve, Server, ServerConfig, ServerStats, ROOT_SESSION};
