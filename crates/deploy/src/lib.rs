//! # engage-deploy
//!
//! The Engage runtime (PLDI 2012, §5): resource **drivers** as guarded
//! state machines over `{uninstalled, inactive, active}`, a **driver
//! registry** binding resource keys to action implementations (generic
//! package/service actions by default), the **deployment engine** whose
//! one command, [`DeploymentEngine::run`], drives a starting estate to a
//! [`Target`] — provisioning machines, every driver to `active` in
//! dependency order (reverse order for shutdown) — per-node spec
//! splitting for master/slave multi-host installs, **monit**-style
//! monitoring integration, and the **upgrade engine** with backup and
//! automatic rollback.
//!
//! Everything executes against the simulated data center of `engage-sim`.
//!
//! # Examples
//!
//! ```
//! use engage_deploy::{Deployment, DeploymentEngine, Target};
//! use engage_model::{BasicState, InstallSpec, ResourceInstance, Value};
//! use engage_sim::{Sim, DownloadSource};
//!
//! let universe = engage_dsl::parse_universe(r#"
//! abstract resource "Server" {
//!   config port hostname: string = "localhost";
//!   output port host: { hostname: string } = { hostname: config.hostname };
//! }
//! resource "Ubuntu 10.10" extends "Server" {}
//! resource "Redis 2.4" {
//!   inside "Server";
//!   config port port: int = 6379;
//!   output port redis: { port: int } = { port: config.port };
//!   driver service;
//! }"#).unwrap();
//!
//! let mut spec = InstallSpec::new();
//! let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
//! server.set_config("hostname", Value::from("localhost"));
//! server.set_output("host", Value::structure([("hostname", Value::from("localhost"))]));
//! spec.push(server).unwrap();
//! let mut redis = ResourceInstance::new("cache", "Redis 2.4");
//! redis.set_inside_link("server");
//! redis.set_config("port", Value::from(6379i64));
//! redis.set_output("redis", Value::structure([("port", Value::from(6379i64))]));
//! spec.push(redis).unwrap();
//!
//! let engine = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &universe);
//! let mut dep = Deployment::new(&spec);
//! engine.run(&mut dep, Target::all(BasicState::Active)).unwrap();
//! assert!(dep.is_deployed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod action;
mod deployment;
mod discovery;
mod engine;
mod error;
mod journal;
mod reconcile;
mod retry;
mod schedule;
mod upgrade;

pub use action::{
    generic_action, package_name, service_name, ActionCtx, ActionFn, DriverBinding, DriverRegistry,
};
pub use deployment::{Deployment, TimelineEntry};
pub use discovery::{discover_all, discover_machine};
pub use engine::{
    os_for_key, DeploymentEngine, ParallelOutcome, ProvisionMode, ResumeMode, Target,
};
pub use error::{DeployError, DeployFailure};
pub use journal::{
    load_jsonl, parse_driver_state, parse_os, DeployJournal, JournalError, JournalRecord,
};
pub use reconcile::{InstanceHealth, ReconcileLoop, ReconcileRound, ReconcileStats};
pub use retry::RetryPolicy;
pub use upgrade::{plan_upgrade, ReplanInfo, UpgradePlanEntry, UpgradeReport, UpgradeStrategy};

#[cfg(test)]
mod parallel;
