//! # engage-config
//!
//! The constraint-based configuration engine of the Engage deployment
//! management system (PLDI 2012, §4): expands a *partial* installation
//! specification into a *full* one by
//!
//! 1. **GraphGen** — a worklist algorithm that chases dependencies (with
//!    abstract types replaced by their concrete frontier and version ranges
//!    expanded) and builds a directed resource-instance hypergraph
//!    (Figure 5);
//! 2. **constraint generation** — a unit clause per user-specified instance
//!    and `rsrc(v) → ⊕targets` per hyperedge (Theorem 1), with a choice of
//!    exactly-one encodings;
//! 3. **SAT solving** (the CDCL solver from `engage-sat`); and
//! 4. **port propagation** — a linear topological pass computing every
//!    input/config/output port value.
//!
//! # Examples
//!
//! ```
//! use engage_config::ConfigEngine;
//! use engage_model::{PartialInstallSpec, PartialInstance};
//!
//! let src = r#"
//! abstract resource "Server" {
//!   config port hostname: string = "localhost";
//!   output port host: { hostname: string } = { hostname: config.hostname };
//! }
//! resource "Ubuntu 10.10" extends "Server" {}
//! resource "Redis 2.4" {
//!   inside "Server" { input host <- host; }
//!   input port host: { hostname: string };
//!   config port port: int = 6379;
//!   output port redis: { hostname: string, port: int }
//!       = { hostname: input.host.hostname, port: config.port };
//! }"#;
//! let universe = engage_dsl::parse_universe(src).unwrap();
//! let partial: PartialInstallSpec = [
//!     PartialInstance::new("server", "Ubuntu 10.10"),
//!     PartialInstance::new("cache", "Redis 2.4").inside("server"),
//! ].into_iter().collect();
//! let outcome = ConfigEngine::new(&universe).configure(&partial).unwrap();
//! assert_eq!(outcome.spec.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constraints;
mod diagnose;
mod engine;
mod graph;
mod propagate;

pub use constraints::{generate, generate_legacy, Constraints};
pub use diagnose::{diagnose, ConstraintGroup, Diagnosis};
pub use engine::{ConfigEngine, ConfigError, ConfigOutcome, ConfigSession, SolverMode};
pub use graph::{
    edge_for, graph_gen, graph_gen_indexed, graph_gen_naive, HyperEdge, HyperGraph, Node,
};
pub use propagate::{build_full_spec, build_full_spec_indexed, build_full_spec_legacy};
