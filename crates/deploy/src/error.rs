//! Deployment-engine errors.

use std::collections::BTreeMap;
use std::fmt;

use engage_model::{DriverState, InstanceId, ModelError};
use engage_sim::SimError;

use crate::engine::TimelineEntry;

/// Error from deploying, managing, or upgrading an application stack.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// An underlying simulated operation failed.
    Sim(SimError),
    /// A model-level problem (unknown key, ill-formed spec).
    Model(ModelError),
    /// No machine could be mapped for an instance.
    NoMachine {
        /// The instance whose machine is missing.
        instance: InstanceId,
    },
    /// A driver has no transition path from its current state to the
    /// requested state.
    NoPath {
        /// The stuck instance.
        instance: InstanceId,
        /// Current state (rendered).
        from: String,
        /// Requested state (rendered).
        to: String,
    },
    /// A transition guard did not hold when the engine needed to fire the
    /// transition (dependency order violated or upstream failure).
    GuardFailed {
        /// The blocked instance.
        instance: InstanceId,
        /// The action whose guard failed.
        action: String,
        /// The guard, rendered.
        guard: String,
    },
    /// A driver action failed.
    ActionFailed {
        /// The instance whose action failed.
        instance: InstanceId,
        /// The action name.
        action: String,
        /// Why.
        detail: String,
    },
    /// The full spec references an instance that does not exist.
    UnknownInstance {
        /// The missing id.
        instance: InstanceId,
    },
    /// An upgrade failed and was rolled back.
    UpgradeRolledBack {
        /// The underlying failure that triggered the rollback.
        cause: String,
    },
    /// The engine was killed at a chaos kill-point between transitions
    /// (simulated crash; see `DeploymentEngine::with_kill_point`).
    EngineKilled {
        /// How many transitions had committed when the engine died.
        after: u64,
    },
    /// A journal could not be resumed.
    ResumeFailed {
        /// Why.
        detail: String,
    },
    /// The reconciler could not re-plan around observed drift: the
    /// configuration engine found no full specification even after
    /// relaxing the healthy-placement pins.
    ReplanFailed {
        /// Why.
        detail: String,
    },
}

impl DeployError {
    /// Whether the failure is transient — retrying the same transition
    /// may succeed. Only simulated-operation faults carry transience;
    /// structural errors (no path, guard violations, bad specs) and
    /// engine kills are always permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            DeployError::Sim(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Sim(e) => write!(f, "{e}"),
            DeployError::Model(e) => write!(f, "{e}"),
            DeployError::NoMachine { instance } => {
                write!(f, "no machine mapped for instance `{instance}`")
            }
            DeployError::NoPath { instance, from, to } => write!(
                f,
                "driver of `{instance}` has no transition path from `{from}` to `{to}`"
            ),
            DeployError::GuardFailed {
                instance,
                action,
                guard,
            } => write!(
                f,
                "guard `{guard}` of action `{action}` on `{instance}` does not hold"
            ),
            DeployError::ActionFailed {
                instance,
                action,
                detail,
            } => write!(f, "action `{action}` on `{instance}` failed: {detail}"),
            DeployError::UnknownInstance { instance } => {
                write!(f, "unknown instance `{instance}`")
            }
            DeployError::UpgradeRolledBack { cause } => {
                write!(f, "upgrade failed and was rolled back: {cause}")
            }
            DeployError::EngineKilled { after } => {
                write!(f, "engine killed after {after} committed transitions")
            }
            DeployError::ResumeFailed { detail } => {
                write!(f, "cannot resume from journal: {detail}")
            }
            DeployError::ReplanFailed { detail } => {
                write!(f, "reconciler could not re-plan: {detail}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// A failed run that keeps the partial state instead of dropping it: what
/// the run completed, where every driver stood, and whether the automatic
/// rollback ran — the structured report the CLI prints. Returned (boxed —
/// it is much larger than the happy path) by `DeploymentEngine::run`.
#[derive(Debug, Clone)]
pub struct DeployFailure {
    /// The underlying error.
    pub error: DeployError,
    /// Driver transitions that completed before the failure, in order.
    pub completed: Vec<TimelineEntry>,
    /// Driver states at the moment of failure (before any rollback).
    pub states: BTreeMap<InstanceId, DriverState>,
    /// `None` if rollback was not attempted (disabled, or the engine was
    /// killed); `Some(clean)` when it ran, with `clean` true iff every
    /// instance reached `uninstalled`.
    pub rolled_back: Option<bool>,
}

impl fmt::Display for DeployFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} transitions completed)",
            self.error,
            self.completed.len()
        )
    }
}

impl std::error::Error for DeployFailure {}

impl From<SimError> for DeployError {
    fn from(e: SimError) -> Self {
        DeployError::Sim(e)
    }
}

impl From<ModelError> for DeployError {
    fn from(e: ModelError) -> Self {
        DeployError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DeployError::GuardFailed {
            instance: "openmrs".into(),
            action: "start".into(),
            guard: "upstream active".into(),
        };
        let s = e.to_string();
        assert!(s.contains("openmrs") && s.contains("start") && s.contains("upstream active"));
    }
}
