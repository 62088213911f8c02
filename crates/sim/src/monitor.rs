//! The monit substitute: a process monitor with automatic restart (§5.2).
//!
//! "Engage integrates with monit, a process monitoring/restart service ...
//! If the process associated with a service fails, it will be automatically
//! restarted by monit using a set of runtime services provided by Engage."

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use crate::os::HostId;
use crate::sim::{Sim, SimError};

/// One entry of the generated monit configuration: which service to watch
/// on which host, and how to bring it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEntry {
    /// Host the service runs on.
    pub host: HostId,
    /// Service name.
    pub service: String,
    /// Port to rebind on restart, if the service listens.
    pub port: Option<u16>,
}

/// One observed divergence between the watch list (desired state) and
/// the live data center, as reported by [`Monitor::scan`]. Detection
/// only — `scan` never repairs anything and never advances the clock;
/// a reconciler decides what to do with the drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftEvent {
    /// A watched service is down on a host that is still alive.
    ServiceDown {
        /// Host the service should run on.
        host: HostId,
        /// The down service.
        service: String,
    },
    /// A watched host has been lost entirely ([`Sim::fail_host`]).
    HostLost {
        /// The dead host.
        host: HostId,
        /// Every watched service that went down with it.
        services: Vec<String>,
    },
}

/// A restart performed by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartRecord {
    /// Host the service runs on.
    pub host: HostId,
    /// Service restarted.
    pub service: String,
    /// Simulated time of the restart.
    pub at: Duration,
}

/// The process monitor. One instance per deployment (the runtime "adds an
/// instance of monit to the installation specification for each target
/// host"; here a single monitor watches all hosts for simplicity of the
/// harness — per-host sharding is a registration detail).
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// The watch list, in registration order (what `scan`, `tick` and
    /// `render_config` walk).
    watches: Vec<WatchEntry>,
    /// The distinct service names, numbered: the keyed index below holds
    /// a number per watch, not a second copy of its name.
    names: HashMap<String, u32>,
    /// `(host, service number)` → position in `watches`, so registering
    /// N services is not N scans of the list.
    slots: HashMap<(HostId, u32), u32>,
    restarts: Vec<RestartRecord>,
}

impl Monitor {
    /// A monitor with no watches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service to watch (what the monit plugin does from the
    /// resource type after deployment). Re-watching an already-watched
    /// `(host, service)` pair updates its port in place rather than
    /// appending a duplicate entry, so repeated registration (e.g. a
    /// redeploy over a live monitor) cannot double restarts.
    pub fn watch(&mut self, host: HostId, service: impl Into<String>, port: Option<u16>) {
        let service = service.into();
        let name = match self.names.get(&service) {
            Some(&name) => name,
            None => {
                let name = self.names.len() as u32;
                self.names.insert(service.clone(), name);
                name
            }
        };
        match self.slots.entry((host, name)) {
            Entry::Occupied(slot) => self.watches[*slot.get() as usize].port = port,
            Entry::Vacant(slot) => {
                slot.insert(self.watches.len() as u32);
                self.watches.push(WatchEntry {
                    host,
                    service,
                    port,
                });
            }
        }
    }

    /// Stops watching every `(host, service)` pair of `pairs` (used on
    /// shutdown/uninstall), in one pass over the list however many go.
    /// Pairs not watched are ignored.
    pub fn unwatch<'s>(&mut self, pairs: impl IntoIterator<Item = (HostId, &'s str)>) {
        let mut gone = vec![false; self.watches.len()];
        for (host, service) in pairs {
            let name = self.names.get(service);
            if let Some(slot) = name.and_then(|&name| self.slots.remove(&(host, name))) {
                gone[slot as usize] = true;
            }
        }
        let mut slot = 0;
        self.watches.retain(|_| {
            slot += 1;
            !gone[slot - 1]
        });
        self.renumber();
    }

    /// Stops watching every service of `host` (the host is gone).
    pub fn unwatch_host(&mut self, host: HostId) {
        self.watches.retain(|w| w.host != host);
        self.slots.retain(|&(of, _), _| of != host);
        self.renumber();
    }

    /// Points every slot at its entry again after entries were removed.
    fn renumber(&mut self) {
        for (slot, w) in self.watches.iter().enumerate() {
            let key = (w.host, self.names[&w.service]);
            *self.slots.get_mut(&key).expect("every entry has a slot") = slot as u32;
        }
    }

    /// The current watch list (the "monit configuration file").
    pub fn watches(&self) -> &[WatchEntry] {
        &self.watches
    }

    /// One monitoring cycle: every watched service that is down on a
    /// live host is restarted (lost hosts are skipped — nothing monit
    /// can do there; see [`Monitor::scan`]). Returns the restarts
    /// performed this cycle, and emits one `sim.monitor.tick` obs event
    /// summarizing it alongside the per-restart `sim.monitor_restart`
    /// events.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (e.g. the port was stolen while the
    /// service was down).
    pub fn tick(&mut self, sim: &Sim) -> Result<Vec<RestartRecord>, SimError> {
        let obs = sim.obs();
        obs.counter("sim.monitor_ticks").incr();
        let mut performed = Vec::new();
        for w in &self.watches {
            if !sim.host_alive(w.host) {
                continue;
            }
            if !sim.service_running(w.host, &w.service) {
                sim.start_service(w.host, &w.service, w.port)?;
                let rec = RestartRecord {
                    host: w.host,
                    service: w.service.clone(),
                    at: sim.now(),
                };
                obs.event(
                    "sim.monitor_restart",
                    &[("service", &w.service), ("host", &w.host.to_string())],
                );
                obs.counter("sim.monitor_restarts").incr();
                performed.push(rec.clone());
                self.restarts.push(rec);
            }
        }
        let watched = self.watches.len().to_string();
        let restarted = performed.len().to_string();
        obs.event(
            "sim.monitor.tick",
            &[("watched", &watched), ("restarted", &restarted)],
        );
        sim.advance(Duration::from_secs(30)); // monit polling interval
        Ok(performed)
    }

    /// Detection without repair: reports every watched service that is
    /// not running, distinguishing services down on live hosts
    /// ([`DriftEvent::ServiceDown`]) from services lost with their host
    /// ([`DriftEvent::HostLost`], one event per dead host). Unlike
    /// [`Monitor::tick`] this restarts nothing and does not advance the
    /// simulated clock, so a reconciler can poll it freely.
    pub fn scan(&self, sim: &Sim) -> Vec<DriftEvent> {
        let mut drift = Vec::new();
        let mut lost: BTreeMap<HostId, Vec<String>> = BTreeMap::new();
        for w in &self.watches {
            if !sim.host_alive(w.host) {
                lost.entry(w.host).or_default().push(w.service.clone());
            } else if !sim.service_running(w.host, &w.service) {
                drift.push(DriftEvent::ServiceDown {
                    host: w.host,
                    service: w.service.clone(),
                });
            }
        }
        drift.extend(
            lost.into_iter()
                .map(|(host, services)| DriftEvent::HostLost { host, services }),
        );
        drift
    }

    /// All restarts ever performed.
    pub fn restarts(&self) -> &[RestartRecord] {
        &self.restarts
    }

    /// Renders the watch list as a monit-style configuration file.
    pub fn render_config(&self) -> String {
        let mut out = String::new();
        for w in &self.watches {
            out.push_str(&format!("check process {} on {} ", w.service, w.host));
            match w.port {
                Some(p) => out.push_str(&format!("if failed port {p} then restart\n")),
                None => out.push_str("if not exist then restart\n"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::Os;
    use crate::pkg::DownloadSource;

    #[test]
    fn restarts_crashed_services() {
        let sim = Sim::new(DownloadSource::local_cache());
        let h = sim.provision_local("web", Os::Ubuntu1010);
        sim.start_service(h, "gunicorn", Some(8000)).unwrap();
        let mut mon = Monitor::new();
        mon.watch(h, "gunicorn", Some(8000));

        // Healthy tick: nothing to do.
        assert!(mon.tick(&sim).unwrap().is_empty());

        sim.crash_service(h, "gunicorn").unwrap();
        let restarted = mon.tick(&sim).unwrap();
        assert_eq!(restarted.len(), 1);
        assert!(sim.service_running(h, "gunicorn"));
        assert_eq!(mon.restarts().len(), 1);
        // The service state reflects crash + restart.
        let st = sim.service_state(h, "gunicorn").unwrap();
        assert_eq!(st.crashes, 1);
        assert_eq!(st.starts, 2);
    }

    #[test]
    fn rewatch_updates_in_place() {
        let mut mon = Monitor::new();
        mon.watch(HostId(0), "web", Some(80));
        mon.watch(HostId(0), "web", Some(8080));
        mon.watch(HostId(1), "web", Some(80));
        assert_eq!(mon.watches().len(), 2);
        assert_eq!(mon.watches()[0].port, Some(8080));
    }

    fn listing(mon: &Monitor) -> Vec<(u32, &str, Option<u16>)> {
        mon.watches()
            .iter()
            .map(|w| (w.host.0, w.service.as_str(), w.port))
            .collect()
    }

    #[test]
    fn order_survives_watch_unwatch_watch() {
        let mut mon = Monitor::new();
        for (host, service) in [(0, "a"), (1, "a"), (0, "b"), (1, "c")] {
            mon.watch(HostId(host), service, None);
        }
        mon.unwatch([(HostId(1), "a"), (HostId(1), "never-watched")]);
        // The slots behind the removed entry moved down: a re-watch must
        // still find them, and a new pair goes to the end.
        mon.watch(HostId(0), "b", Some(1));
        mon.watch(HostId(1), "c", Some(2));
        mon.watch(HostId(1), "a", Some(3));
        assert_eq!(
            listing(&mon),
            [
                (0, "a", None),
                (0, "b", Some(1)),
                (1, "c", Some(2)),
                (1, "a", Some(3))
            ]
        );
    }

    #[test]
    fn unwatch_host_removes_exactly_that_hosts_entries() {
        let mut mon = Monitor::new();
        for (host, service) in [(0, "a"), (1, "a"), (0, "b"), (2, "a"), (1, "b")] {
            mon.watch(HostId(host), service, None);
        }
        mon.unwatch_host(HostId(1));
        mon.unwatch_host(HostId(7));
        assert_eq!(
            listing(&mon),
            [(0, "a", None), (0, "b", None), (2, "a", None)]
        );
        // The survivors are still found in place; the host can come back.
        mon.watch(HostId(2), "a", Some(9));
        mon.watch(HostId(1), "a", None);
        assert_eq!(
            listing(&mon),
            [
                (0, "a", None),
                (0, "b", None),
                (2, "a", Some(9)),
                (1, "a", None)
            ]
        );
    }

    #[test]
    fn tick_emits_obs_events() {
        use engage_util::obs::{MemorySink, Obs};
        use std::sync::Arc;
        let sim = Sim::new(DownloadSource::local_cache());
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new().with_sink(sink.clone());
        sim.set_obs(obs.clone());
        let h = sim.provision_local("web", Os::Ubuntu1010);
        sim.start_service(h, "gunicorn", Some(8000)).unwrap();
        let mut mon = Monitor::new();
        mon.watch(h, "gunicorn", Some(8000));
        mon.tick(&sim).unwrap();
        sim.crash_service(h, "gunicorn").unwrap();
        mon.tick(&sim).unwrap();
        assert_eq!(obs.metrics().counter("sim.monitor_ticks"), 2);
        assert_eq!(obs.metrics().counter("sim.monitor_restarts"), 1);
        let ticks = sink.events_named("sim.monitor.tick");
        assert_eq!(ticks.len(), 2);
        let restarted = |r: &engage_util::obs::Record| match r {
            engage_util::obs::Record::Event { fields, .. } => fields
                .iter()
                .find(|(k, _)| k == "restarted")
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        assert_eq!(restarted(&ticks[0]).as_deref(), Some("0"));
        assert_eq!(restarted(&ticks[1]).as_deref(), Some("1"));
    }

    #[test]
    fn scan_reports_drift_without_repairing() {
        let sim = Sim::new(DownloadSource::local_cache());
        let a = sim.provision_local("a", Os::Ubuntu1010);
        let b = sim.provision_local("b", Os::Ubuntu1010);
        sim.start_service(a, "s1", None).unwrap();
        sim.start_service(b, "s2", None).unwrap();
        sim.start_service(b, "s3", None).unwrap();
        let mut mon = Monitor::new();
        mon.watch(a, "s1", None);
        mon.watch(b, "s2", None);
        mon.watch(b, "s3", None);
        assert!(mon.scan(&sim).is_empty());

        sim.crash_service(a, "s1").unwrap();
        sim.fail_host(b).unwrap();
        let before = sim.now();
        let drift = mon.scan(&sim);
        assert_eq!(sim.now(), before, "scan must not advance the clock");
        assert!(!sim.service_running(a, "s1"), "scan must not repair");
        assert_eq!(
            drift,
            vec![
                DriftEvent::ServiceDown {
                    host: a,
                    service: "s1".into()
                },
                DriftEvent::HostLost {
                    host: b,
                    services: vec!["s2".into(), "s3".into()]
                },
            ]
        );
        // tick skips the dead host instead of erroring, repairs the live one.
        let restarted = mon.tick(&sim).unwrap();
        assert_eq!(restarted.len(), 1);
        assert_eq!(restarted[0].service, "s1");
    }

    #[test]
    fn unwatch_stops_restarting() {
        let sim = Sim::new(DownloadSource::local_cache());
        let h = sim.provision_local("web", Os::Ubuntu1010);
        sim.start_service(h, "celery", None).unwrap();
        let mut mon = Monitor::new();
        mon.watch(h, "celery", None);
        mon.unwatch([(h, "celery")]);
        sim.crash_service(h, "celery").unwrap();
        assert!(mon.tick(&sim).unwrap().is_empty());
        assert!(!sim.service_running(h, "celery"));
    }

    #[test]
    fn config_rendering_mentions_ports() {
        let mut mon = Monitor::new();
        mon.watch(HostId(0), "mysqld", Some(3306));
        mon.watch(HostId(1), "celery", None);
        let cfg = mon.render_config();
        assert!(cfg.contains("check process mysqld on host-0 if failed port 3306"));
        assert!(cfg.contains("check process celery on host-1 if not exist"));
    }

    #[test]
    fn watches_multiple_hosts() {
        let sim = Sim::new(DownloadSource::local_cache());
        let a = sim.provision_local("a", Os::Ubuntu1010);
        let b = sim.provision_local("b", Os::Ubuntu1010);
        sim.start_service(a, "s1", None).unwrap();
        sim.start_service(b, "s2", None).unwrap();
        let mut mon = Monitor::new();
        mon.watch(a, "s1", None);
        mon.watch(b, "s2", None);
        sim.crash_service(a, "s1").unwrap();
        sim.crash_service(b, "s2").unwrap();
        assert_eq!(mon.tick(&sim).unwrap().len(), 2);
    }
}
