//! # engage-model
//!
//! Core data model of the Engage deployment management system
//! (Fischer, Majumdar, Esmaeilsabzali — *Engage: A Deployment Management
//! System*, PLDI 2012): resource types with typed input/config/output
//! ports, inside/environment/peer dependencies, abstract types and
//! subtyping, resource instances and installation specifications, plus the
//! paper's static checks (well-formedness §3.1, subtyping Figure 4, install
//! spec checking §2).
//!
//! # Examples
//!
//! Modeling a fragment of the paper's OpenMRS stack and checking it:
//!
//! ```
//! use engage_model::{
//!     Universe, ResourceType, PortDef, ValueType, Expr, Namespace,
//!     Dependency, DepKind, PortMapping,
//! };
//!
//! let mut u = Universe::new();
//! u.insert(ResourceType::builder("Server").abstract_type()
//!     .port(PortDef::config("hostname", ValueType::Str, Expr::lit("localhost")))
//!     .port(PortDef::output("host", ValueType::record([("hostname", ValueType::Str)]),
//!         Expr::Struct(vec![("hostname".into(), Expr::reference(Namespace::Config, ["hostname"]))])))
//!     .build()).unwrap();
//! u.insert(ResourceType::builder("Mac-OSX 10.6").extends("Server").build()).unwrap();
//! u.insert(ResourceType::builder("Tomcat 6.0.18")
//!     .inside(Dependency::on(DepKind::Inside, "Server",
//!         vec![PortMapping::forward("host", "host")]))
//!     .port(PortDef::input("host", ValueType::record([("hostname", ValueType::Str)])))
//!     .port(PortDef::output("tomcat", ValueType::record([("hostname", ValueType::Str)]),
//!         Expr::Struct(vec![("hostname".into(),
//!             Expr::reference(Namespace::Input, ["host", "hostname"]))])))
//!     .build()).unwrap();
//! assert!(u.check().is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod deps;
mod driver;
mod error;
mod expr;
mod index;
mod instance;
mod key;
mod ports;
mod rtype;
mod subtype;
mod universe;
mod value;
mod version;

pub use check::{
    check_install_spec, check_install_spec_indexed, topological_order, topological_positions,
};
pub use deps::{DepKind, DepTarget, Dependency, PortMapping};
pub use driver::{BasicState, DriverSpec, DriverState, Guard, StatePred, Transition};
pub use error::ModelError;
pub use expr::{EvalEnv, EvalError, Expr, Namespace, TypeEnv};
pub use index::{IndexStats, UniverseIndex};
pub use instance::{
    InstallSpec, InstanceId, PartialInstallSpec, PartialInstance, ResourceInstance,
};
pub use key::{ParseKeyError, ResourceKey};
pub use ports::{Binding, PortDef, PortKind};
pub use rtype::{ResourceType, ResourceTypeBuilder};
pub use subtype::{check_declared_subtyping, explain_violation, is_structural_subtype};
pub use universe::Universe;
pub use value::{Value, ValueType};
pub use version::{Bound, ParseVersionError, Version, VersionRange};
