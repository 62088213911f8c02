//! Checkers of the paper's statements, small enough to trust, that the
//! big system is judged against.
//!
//! [`check_guard_trace`] is Figure 3's runtime rule as an executable
//! property: a driver transition fires only from its driver's current
//! state and only while its `↑s` / `↓s` guard holds. It replays a
//! journal and knows nothing of how the executor ordered the run.

use std::collections::BTreeMap;

use engage_deploy::JournalRecord;
use engage_model::{BasicState, DriverState, InstallSpec, InstanceId, StatePred, Universe};

/// Replays `commits` (a journal slice, in journal order) over
/// `initial_states` and checks every committed transition: its instance
/// is in `spec`, its `from` is the instance's replayed state, it is a
/// transition of the instance's driver, and its guard holds against the
/// replayed states — `↑s` over the instances it links to, `↓s` over the
/// instances linking to it. With `relaxed` (teardown), `uninstalled`
/// also meets a required `inactive`. `Observed` records adopt their
/// state, as resume does; `Attempt` and `Provisioned` records change no
/// state. Instances missing from `initial_states` start `uninstalled`.
///
/// # Errors
///
/// The first violation, naming the record's position in `commits`.
pub fn check_guard_trace(
    universe: &Universe,
    spec: &InstallSpec,
    initial_states: &BTreeMap<InstanceId, DriverState>,
    commits: &[JournalRecord],
    relaxed: bool,
) -> Result<BTreeMap<InstanceId, DriverState>, String> {
    let mut states: BTreeMap<InstanceId, DriverState> = spec
        .iter()
        .map(|i| {
            let initial = initial_states.get(i.id()).cloned();
            let fresh = DriverState::Basic(BasicState::Uninstalled);
            (i.id().clone(), initial.unwrap_or(fresh))
        })
        .collect();
    let dependents = spec.dependents_table();
    let insts = spec.instances();
    let holds = |states: &BTreeMap<InstanceId, DriverState>, id: &InstanceId, s: BasicState| {
        let state = states.get(id);
        state == Some(&DriverState::Basic(s))
            || relaxed
                && s == BasicState::Inactive
                && state == Some(&DriverState::Basic(BasicState::Uninstalled))
    };
    for (n, record) in commits.iter().enumerate() {
        let (instance, action, from, to) = match record {
            JournalRecord::Commit {
                instance,
                action,
                from,
                to,
                ..
            } => (instance, action, from, to),
            JournalRecord::Observed { instance, state } => {
                let Some(slot) = states.get_mut(instance) else {
                    return Err(format!(
                        "#{n}: observation of `{instance}`, not in the spec"
                    ));
                };
                *slot = state.clone();
                continue;
            }
            JournalRecord::Attempt { .. } | JournalRecord::Provisioned { .. } => continue,
        };
        let what = format!("#{n}: `{instance}` {action} {from}>{to}");
        let Some(me) = spec.position(instance) else {
            return Err(format!("{what}: instance not in the spec"));
        };
        let current = &states[instance];
        if current != from {
            return Err(format!("{what}: replayed state is {current}"));
        }
        let driver = universe
            .effective_driver(insts[me].key())
            .map_err(|e| format!("{what}: {e}"))?;
        let Some(t) = driver.transition(current, action) else {
            return Err(format!("{what}: no such transition in the driver"));
        };
        if t.to() != to {
            return Err(format!("{what}: the driver's transition enters {}", t.to()));
        }
        for pred in t.guard().preds() {
            let violator = match *pred {
                StatePred::Upstream(s) => {
                    insts[me].links().find(|l| !holds(&states, l, s)).cloned()
                }
                StatePred::Downstream(s) => dependents[me]
                    .iter()
                    .map(|&d| insts[d].id())
                    .find(|d| !holds(&states, d, s))
                    .cloned(),
            };
            if let Some(v) = violator {
                let seen = states
                    .get(&v)
                    .map_or("absent".to_owned(), ToString::to_string);
                return Err(format!("{what}: guard `{pred}` fails on `{v}` ({seen})"));
            }
        }
        let entered = t.to().clone();
        states.insert(instance.clone(), entered);
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::ResourceInstance;

    /// server <- db (service), server <- app (service, peer db).
    fn fixture() -> (Universe, InstallSpec) {
        let u = engage_dsl::parse_universe(
            r#"
        resource "Ubuntu 10.10" {}
        resource "MySQL 5.1" { inside "Ubuntu 10.10"; driver service; }
        resource "App 1.0" {
          inside "Ubuntu 10.10";
          peer "MySQL 5.1" {}
          driver service;
        }"#,
        )
        .unwrap();
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("server", "Ubuntu 10.10"))
            .unwrap();
        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("server");
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        spec.push(app).unwrap();
        (u, spec)
    }

    fn commit(instance: &str, action: &str, from: &str, to: &str) -> JournalRecord {
        JournalRecord::Commit {
            instance: instance.into(),
            action: action.into(),
            from: engage_deploy::parse_driver_state(from),
            to: engage_deploy::parse_driver_state(to),
            start_ns: 0,
            end_ns: 0,
        }
    }

    fn all(spec: &InstallSpec, s: BasicState) -> BTreeMap<InstanceId, DriverState> {
        spec.iter()
            .map(|i| (i.id().clone(), DriverState::Basic(s)))
            .collect()
    }

    /// Checks `trace` strict and relaxed from `initial`.
    fn verdicts(initial: BasicState, trace: &[JournalRecord]) -> [Result<(), String>; 2] {
        let (u, spec) = fixture();
        let initial = all(&spec, initial);
        [false, true]
            .map(|relaxed| check_guard_trace(&u, &spec, &initial, trace, relaxed).map(|_| ()))
    }

    #[test]
    fn a_guarded_bring_up_and_teardown_pass() {
        let mut trace = Vec::new();
        for id in ["server", "db", "app"] {
            trace.push(commit(id, "install", "uninstalled", "inactive"));
            trace.push(commit(id, "start", "inactive", "active"));
        }
        for id in ["app", "db", "server"] {
            trace.push(commit(id, "stop", "active", "inactive"));
        }
        let (u, spec) = fixture();
        let initial = all(&spec, BasicState::Uninstalled);
        let end = check_guard_trace(&u, &spec, &initial, &trace, false).unwrap();
        assert_eq!(end, all(&spec, BasicState::Inactive));
    }

    #[test]
    fn start_before_an_upstream_is_active_is_rejected() {
        let trace = [
            commit("app", "install", "uninstalled", "inactive"),
            commit("app", "start", "inactive", "active"),
        ];
        for verdict in verdicts(BasicState::Uninstalled, &trace) {
            let err = verdict.unwrap_err();
            assert!(
                err.contains("#1") && err.contains("upstream active"),
                "{err}"
            );
        }
    }

    #[test]
    fn stop_while_a_dependent_is_active_is_rejected() {
        let trace = [commit("db", "stop", "active", "inactive")];
        for verdict in verdicts(BasicState::Active, &trace) {
            let err = verdict.unwrap_err();
            assert!(
                err.contains("downstream inactive") && err.contains("`app`"),
                "{err}"
            );
        }
    }

    #[test]
    fn uninstalled_meets_a_required_inactive_only_when_relaxed() {
        // The app is torn all the way down before the db stops.
        let trace = [
            commit("app", "stop", "active", "inactive"),
            commit("app", "uninstall", "inactive", "uninstalled"),
            commit("db", "stop", "active", "inactive"),
        ];
        let [strict, relaxed] = verdicts(BasicState::Active, &trace);
        let err = strict.unwrap_err();
        assert!(err.contains("#2") && err.contains("(uninstalled)"), "{err}");
        assert_eq!(relaxed, Ok(()));
    }

    #[test]
    fn a_from_that_is_not_the_replayed_state_is_rejected() {
        let trace = [
            commit("server", "install", "uninstalled", "inactive"),
            commit("server", "install", "uninstalled", "inactive"),
        ];
        for verdict in verdicts(BasicState::Uninstalled, &trace) {
            let err = verdict.unwrap_err();
            assert!(
                err.contains("#1") && err.contains("replayed state is inactive"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_commit_for_an_instance_outside_the_spec_is_rejected() {
        let trace = [commit("ghost", "install", "uninstalled", "inactive")];
        for verdict in verdicts(BasicState::Uninstalled, &trace) {
            let err = verdict.unwrap_err();
            assert!(
                err.contains("`ghost`") && err.contains("not in the spec"),
                "{err}"
            );
        }
    }
}
