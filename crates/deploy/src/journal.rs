//! The write-ahead deployment journal: every attempted and committed
//! driver transition, durable enough to resume a crashed run.
//!
//! The engine appends an [`JournalRecord::Attempt`] *before* running an
//! action and a [`JournalRecord::Commit`] after it succeeds, so a journal
//! that ends in an `Attempt` with no matching `Commit` pinpoints the
//! in-flight transition at the moment of the crash. Machine provisioning
//! is journaled too ([`JournalRecord::Provisioned`]), which lets
//! [`DeploymentEngine::replay`](crate::DeploymentEngine::replay) rebuild
//! the instance→host map — either attaching to the surviving simulated
//! data center or replaying into a fresh one.
//!
//! Records are typed; only the JSON Lines sink renders and parses them.
//! What a record does to the estate is `Deployment::apply`, its one writer.
//!
//! Sinks are pluggable, mirroring the obs layer: [`DeployJournal::in_memory`]
//! for tests, [`DeployJournal::jsonl_create`] for a durable JSON Lines
//! file (flushed after every record — it is a write-ahead log).

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use engage_model::{BasicState, DriverState, InstanceId};
use engage_sim::{HostId, Os};
use engage_util::obs::json_string;
use engage_util::sync::Mutex;

/// One journaled fact about a deployment in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A machine instance was mapped to a (possibly freshly provisioned)
    /// simulated host.
    Provisioned {
        /// The machine instance.
        instance: InstanceId,
        /// The host it landed on.
        host: HostId,
        /// The hostname used at provisioning time.
        hostname: String,
        /// The OS, as its resource key (e.g. `Ubuntu 10.10`).
        os: String,
    },
    /// The engine is about to run a driver action (write-ahead: logged
    /// *before* the action executes).
    Attempt {
        /// The instance acted on.
        instance: InstanceId,
        /// The action name.
        action: String,
        /// 1-based attempt number (retries increment it).
        attempt: u32,
    },
    /// A driver action succeeded and the instance's state advanced.
    Commit {
        /// The instance acted on.
        instance: InstanceId,
        /// The action name.
        action: String,
        /// State before (rendered `uninstalled` / `inactive` / `active` or
        /// a custom state name in the JSON Lines form).
        from: DriverState,
        /// State after.
        to: DriverState,
        /// Simulated start time, nanoseconds.
        start_ns: u64,
        /// Simulated end time, nanoseconds.
        end_ns: u64,
    },
    /// An instance's state was *observed* rather than driven: the
    /// reconciler journaling drift it found in the live data center
    /// (a crashed service, a lost host), and the snapshot records
    /// [`DeployJournal::compact`] rewrites history into. On resume the
    /// state is adopted directly — no action is replayed — so commits
    /// after an observation chain from the observed state.
    Observed {
        /// The instance whose state was observed.
        instance: InstanceId,
        /// The observed state.
        state: DriverState,
    },
}

impl JournalRecord {
    fn to_json(&self) -> String {
        match self {
            JournalRecord::Provisioned {
                instance,
                host,
                hostname,
                os,
            } => format!(
                "{{\"type\":\"provisioned\",\"instance\":{},\"host\":{},\"hostname\":{},\"os\":{}}}",
                json_string(instance.as_str()),
                host.0,
                json_string(hostname),
                json_string(os)
            ),
            JournalRecord::Attempt {
                instance,
                action,
                attempt,
            } => format!(
                "{{\"type\":\"attempt\",\"instance\":{},\"action\":{},\"attempt\":{}}}",
                json_string(instance.as_str()),
                json_string(action),
                attempt
            ),
            JournalRecord::Commit {
                instance,
                action,
                from,
                to,
                start_ns,
                end_ns,
            } => format!(
                "{{\"type\":\"commit\",\"instance\":{},\"action\":{},\"from\":{},\"to\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_string(instance.as_str()),
                json_string(action),
                json_string(&from.to_string()),
                json_string(&to.to_string()),
                start_ns,
                end_ns
            ),
            JournalRecord::Observed { instance, state } => format!(
                "{{\"type\":\"observed\",\"instance\":{},\"state\":{}}}",
                json_string(instance.as_str()),
                json_string(&state.to_string())
            ),
        }
    }

    fn from_json(line: &str) -> Result<Self, JournalError> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| JournalError::new(format!("missing field `{k}` in `{line}`")))
        };
        let get_str = |k: &str| match get(k)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(JournalError::new(format!("field `{k}` is not a string"))),
        };
        let get_num = |k: &str| match get(k)? {
            JsonValue::Num(n) => Ok(n),
            _ => Err(JournalError::new(format!("field `{k}` is not a number"))),
        };
        let record = match get_str("type")?.as_str() {
            "provisioned" => JournalRecord::Provisioned {
                instance: InstanceId::new(get_str("instance")?),
                host: HostId(
                    u32::try_from(get_num("host")?)
                        .map_err(|_| JournalError::new("host id out of range"))?,
                ),
                hostname: get_str("hostname")?,
                os: get_str("os")?,
            },
            "attempt" => JournalRecord::Attempt {
                instance: InstanceId::new(get_str("instance")?),
                action: get_str("action")?,
                attempt: u32::try_from(get_num("attempt")?)
                    .map_err(|_| JournalError::new("attempt out of range"))?,
            },
            "commit" => JournalRecord::Commit {
                instance: InstanceId::new(get_str("instance")?),
                action: get_str("action")?,
                from: parse_driver_state(&get_str("from")?),
                to: parse_driver_state(&get_str("to")?),
                start_ns: get_num("start_ns")?,
                end_ns: get_num("end_ns")?,
            },
            "observed" => JournalRecord::Observed {
                instance: InstanceId::new(get_str("instance")?),
                state: parse_driver_state(&get_str("state")?),
            },
            other => return Err(JournalError::new(format!("unknown record type `{other}`"))),
        };
        // Only what `to_json` writes: another rendering is damage.
        if record.to_json() != line {
            return Err(JournalError::new(format!("not as written: `{line}`")));
        }
        Ok(record)
    }
}

/// Parses a rendered driver state back into a [`DriverState`].
pub fn parse_driver_state(s: &str) -> DriverState {
    match s {
        "uninstalled" => DriverState::Basic(BasicState::Uninstalled),
        "inactive" => DriverState::Basic(BasicState::Inactive),
        "active" => DriverState::Basic(BasicState::Active),
        other => DriverState::Custom(other.to_owned()),
    }
}

/// Parses an OS resource key (as journaled) back into an [`Os`].
pub fn parse_os(key: &str) -> Option<Os> {
    Os::all().into_iter().find(|os| os.resource_key() == key)
}

/// A malformed or unreadable journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    what: String,
}

impl JournalError {
    fn new(what: impl Into<String>) -> Self {
        JournalError { what: what.into() }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal error: {}", self.what)
    }
}

impl std::error::Error for JournalError {}

enum JournalSink {
    Memory(Mutex<Vec<JournalRecord>>),
    Jsonl {
        path: PathBuf,
        writer: Mutex<std::io::BufWriter<std::fs::File>>,
    },
}

/// The write-ahead deployment journal. Cheap to clone (shared sink);
/// attach one with
/// [`DeploymentEngine::with_journal`](crate::DeploymentEngine::with_journal).
#[derive(Clone)]
pub struct DeployJournal {
    sink: Arc<JournalSink>,
}

impl fmt::Debug for DeployJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.sink {
            JournalSink::Memory(v) => f
                .debug_struct("DeployJournal")
                .field("sink", &"memory")
                .field("records", &v.lock().len())
                .finish(),
            JournalSink::Jsonl { path, .. } => f
                .debug_struct("DeployJournal")
                .field("sink", &"jsonl")
                .field("path", path)
                .finish(),
        }
    }
}

impl DeployJournal {
    /// A journal kept in memory (tests, and the default for
    /// resumable-in-process deployments).
    pub fn in_memory() -> Self {
        DeployJournal {
            sink: Arc::new(JournalSink::Memory(Mutex::new(Vec::new()))),
        }
    }

    /// A journal writing JSON Lines to a freshly created/truncated file,
    /// flushed after every record.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn jsonl_create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_owned();
        let file = std::fs::File::create(&path)?;
        Ok(DeployJournal {
            sink: Arc::new(JournalSink::Jsonl {
                path,
                writer: Mutex::new(std::io::BufWriter::new(file)),
            }),
        })
    }

    /// Appends one record (and, for file sinks, flushes it — this is a
    /// write-ahead log, so durability beats throughput). I/O errors are
    /// swallowed: a failing journal never takes the deployment down.
    pub fn append(&self, record: JournalRecord) {
        match &*self.sink {
            JournalSink::Memory(v) => v.lock().push(record),
            JournalSink::Jsonl { writer, .. } => {
                let mut w = writer.lock();
                let _ = writeln!(w, "{}", record.to_json());
                let _ = w.flush();
            }
        }
    }

    /// The records so far (memory sinks only; file sinks return the path
    /// via [`DeployJournal::path`] and are read back with
    /// [`load_jsonl`]).
    pub fn records(&self) -> Vec<JournalRecord> {
        match &*self.sink {
            JournalSink::Memory(v) => v.lock().clone(),
            JournalSink::Jsonl { path, .. } => load_jsonl(path).unwrap_or_default(),
        }
    }

    /// The backing file, if this is a JSONL journal.
    pub fn path(&self) -> Option<&Path> {
        match &*self.sink {
            JournalSink::Memory(_) => None,
            JournalSink::Jsonl { path, .. } => Some(path),
        }
    }

    /// Rewrites the journal down to a snapshot of its latest committed
    /// state: the newest `Provisioned` record per machine instance plus
    /// one [`JournalRecord::Observed`] per instance at its last reached
    /// state. Resuming the compacted journal with `ResumeMode::Attach`
    /// is equivalent to resuming the full history — the observations
    /// restore exactly the states the dropped commits chained to. (A
    /// `ResumeMode::Replay` into a *fresh* data center needs the full
    /// action history and is not supported after compaction.)
    ///
    /// A trailing in-flight `Attempt` is dropped, the same write-ahead
    /// argument [`load_jsonl`] uses for a torn final line: the action it
    /// described was never confirmed complete.
    ///
    /// For JSONL sinks the rewrite is atomic — records stream to a
    /// sibling temp file which is renamed over the journal — and the
    /// sink keeps appending to the rotated file afterwards. Returns the
    /// number of records the journal holds after compaction.
    ///
    /// # Errors
    ///
    /// I/O failures or a malformed journal file (JSONL sinks only).
    pub fn compact(&self) -> Result<usize, JournalError> {
        match &*self.sink {
            JournalSink::Memory(v) => {
                let mut records = v.lock();
                *records = compact_records(&records);
                Ok(records.len())
            }
            JournalSink::Jsonl { path, writer } => {
                // Hold the writer lock across the whole rotation so no
                // append can slip between the snapshot and the rename.
                let mut w = writer.lock();
                let _ = w.flush();
                let compacted = compact_records(&load_jsonl(path)?);
                let io_err = |what: &str, e: std::io::Error| {
                    JournalError::new(format!("{what} {}: {e}", path.display()))
                };
                let tmp = path.with_extension("compact-tmp");
                {
                    let file = std::fs::File::create(&tmp)
                        .map_err(|e| io_err("creating temp file for", e))?;
                    let mut out = std::io::BufWriter::new(file);
                    for rec in &compacted {
                        writeln!(out, "{}", rec.to_json())
                            .map_err(|e| io_err("writing compacted", e))?;
                    }
                    out.flush().map_err(|e| io_err("flushing compacted", e))?;
                }
                std::fs::rename(&tmp, path).map_err(|e| io_err("rotating", e))?;
                let reopened = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| io_err("reopening", e))?;
                *w = std::io::BufWriter::new(reopened);
                Ok(compacted.len())
            }
        }
    }
}

/// Folds a record history into its snapshot form: latest provisioning
/// per machine instance (in first-provisioned order), then the latest
/// reached state per instance (in first-touched order) as `Observed`
/// records. Attempts never survive compaction.
fn compact_records(records: &[JournalRecord]) -> Vec<JournalRecord> {
    use std::collections::btree_map::{BTreeMap, Entry};
    let (mut machines, mut states) = (Vec::new(), Vec::new());
    // Where each (kind, instance)'s latest record sits in its list.
    let mut slots: BTreeMap<(bool, &InstanceId), usize> = BTreeMap::new();
    for rec in records {
        let (machine, instance, latest) = match rec {
            JournalRecord::Provisioned { instance, .. } => (true, instance, rec.clone()),
            JournalRecord::Commit {
                instance,
                to: state,
                ..
            }
            | JournalRecord::Observed { instance, state } => {
                let observed = JournalRecord::Observed {
                    instance: instance.clone(),
                    state: state.clone(),
                };
                (false, instance, observed)
            }
            JournalRecord::Attempt { .. } => continue,
        };
        let list = if machine { &mut machines } else { &mut states };
        match slots.entry((machine, instance)) {
            Entry::Occupied(slot) => list[*slot.get()] = latest,
            Entry::Vacant(slot) => {
                slot.insert(list.len());
                list.push(latest);
            }
        }
    }
    machines.append(&mut states);
    machines
}

/// Reads a JSONL journal file back into records.
///
/// A malformed *final* line is tolerated with a warning: an engine that
/// crashed mid-append leaves a truncated trailing record, and the
/// write-ahead discipline makes dropping it safe (the action it described
/// was never confirmed complete). Corruption anywhere else still fails
/// the load — that is not a crash signature, it is a damaged journal.
///
/// # Errors
///
/// I/O failures or malformed non-final lines.
pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Vec<JournalRecord>, JournalError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| JournalError::new(format!("reading {}: {e}", path.as_ref().display())))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match JournalRecord::from_json(line) {
            Ok(record) => records.push(record),
            Err(e) if i + 1 == lines.len() => {
                eprintln!(
                    "warning: {}: skipping truncated trailing journal record ({e})",
                    path.as_ref().display()
                );
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(records)
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(u64),
}

/// Parses one flat JSON object (`{"k":"v","n":3}`) — exactly the shape
/// [`JournalRecord::to_json`] emits; nested values are rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, JournalError> {
    let bad = |what: &str| JournalError::new(format!("{what} in `{line}`"));
    let mut chars = line.chars().peekable();
    if chars.next() != Some('{') {
        return Err(bad("expected `{`"));
    }
    let mut fields = Vec::new();
    let mut closed = chars.next_if_eq(&'}').is_some();
    while !closed {
        let key = parse_json_string(&mut chars).ok_or_else(|| bad("bad key"))?;
        if chars.next() != Some(':') {
            return Err(bad("expected `:`"));
        }
        let value = match chars.peek() {
            Some('"') => {
                JsonValue::Str(parse_json_string(&mut chars).ok_or_else(|| bad("bad string"))?)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n = 0u64;
                while let Some(c) = chars.peek() {
                    let Some(d) = c.to_digit(10) else { break };
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d)))
                        .ok_or_else(|| bad("number overflow"))?;
                    chars.next();
                }
                JsonValue::Num(n)
            }
            _ => return Err(bad("unsupported value")),
        };
        fields.push((key, value));
        closed = match chars.next() {
            Some(',') => false,
            Some('}') => true,
            _ => return Err(bad("expected `,` or `}`")),
        };
    }
    Ok(fields)
}

/// Parses a JSON string literal (cursor on the opening quote), undoing
/// the escapes [`json_string`] produces.
fn parse_json_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    // Four hex digits: `from_str_radix` alone takes a sign.
                    let hex = |_| chars.next().filter(char::is_ascii_hexdigit);
                    let code: String = (0..4).map(hex).collect::<Option<_>>()?;
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_util::prop::prelude::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Provisioned {
                instance: InstanceId::new("server"),
                host: HostId(0),
                hostname: "db.example.com".into(),
                os: "Ubuntu 10.10".into(),
            },
            JournalRecord::Attempt {
                instance: InstanceId::new("db"),
                action: "install".into(),
                attempt: 1,
            },
            JournalRecord::Commit {
                instance: InstanceId::new("db"),
                action: "install".into(),
                from: BasicState::Uninstalled.into(),
                to: BasicState::Inactive.into(),
                start_ns: 0,
                end_ns: 1_500_000_000,
            },
            JournalRecord::Observed {
                instance: InstanceId::new("db"),
                state: BasicState::Inactive.into(),
            },
        ]
    }

    #[test]
    fn json_roundtrip() {
        for rec in samples() {
            let line = rec.to_json();
            assert_eq!(JournalRecord::from_json(&line).unwrap(), rec, "{line}");
        }
    }

    #[test]
    fn json_escapes_roundtrip() {
        let rec = JournalRecord::Attempt {
            instance: InstanceId::new("we\"ird\\name\n"),
            action: "inst\tall".into(),
            attempt: 3,
        };
        assert_eq!(JournalRecord::from_json(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn memory_sink_accumulates() {
        let j = DeployJournal::in_memory();
        for rec in samples() {
            j.append(rec);
        }
        assert_eq!(j.records(), samples());
        assert_eq!(j.path(), None);
        // Clones share the sink.
        let j2 = j.clone();
        j2.append(samples().remove(1));
        assert_eq!(j.records().len(), samples().len() + 1);
    }

    #[test]
    fn jsonl_sink_roundtrips_through_file() {
        let path =
            std::env::temp_dir().join(format!("engage-journal-{}.jsonl", std::process::id()));
        let j = DeployJournal::jsonl_create(&path).unwrap();
        for rec in samples() {
            j.append(rec);
        }
        assert_eq!(load_jsonl(&path).unwrap(), samples());
        assert_eq!(j.records(), samples());
        assert_eq!(j.path(), Some(path.as_path()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_lines_error() {
        assert!(JournalRecord::from_json("not json").is_err());
        assert!(JournalRecord::from_json("{\"type\":\"bogus\"}").is_err());
        assert!(JournalRecord::from_json("{\"type\":\"attempt\",\"instance\":\"x\"}").is_err());
    }

    #[test]
    fn lenient_forms_are_rejected() {
        let line = samples()[1].to_json();
        for bad in [
            line.replace("\"db\"", "\"\\u+041\""),
            format!("{line}x"),
            line.replacen(',', "", 1),
            line.replacen('{', "{,,,", 1),
            format!(" {line}"),
            line.replace(":1}", ":01}"),
        ] {
            assert!(JournalRecord::from_json(&bad).is_err(), "accepted {bad}");
        }
    }

    /// Valid lines to mutate: the samples, escapes and a custom state.
    fn sample_lines() -> Vec<String> {
        let mut records = samples();
        records.push(JournalRecord::Observed {
            instance: InstanceId::new("we\"ird\\\u{1}\n"),
            state: DriverState::Custom("migrating".into()),
        });
        records.iter().map(JournalRecord::to_json).collect()
    }

    /// The hostile-input rule for one line: parsing does not panic, and a
    /// line it accepts is what its record renders to, byte for byte.
    fn line_holds(line: &str) -> Result<(), TestCaseError> {
        if let Ok(record) = JournalRecord::from_json(line) {
            prop_assert_eq!(record.to_json(), line);
        }
        Ok(())
    }

    #[test]
    fn line_parser_survives_every_truncation() {
        for line in sample_lines() {
            for cut in 0..line.len() {
                let prefix = String::from_utf8_lossy(&line.as_bytes()[..cut]);
                if let Err(e) = line_holds(&prefix) {
                    panic!("cut at byte {cut}: {e:?}");
                }
            }
            assert!(JournalRecord::from_json(&line).is_ok(), "{line}");
        }
    }

    /// Bytes a mutation writes half the time: JSON punctuation, escapes,
    /// digits and hex letters, a space, and a UTF-8 lead byte.
    const JSON_BYTES: &[u8] = b"{}:,\"\\u+-0123456789abcdefnrt \xc3";

    proptest! {
        #[test]
        fn line_parser_survives_byte_mutations(
            which in 0usize..5,
            edits in engage_util::prop::collection::vec(
                (0u8..3, any::<usize>(), any::<u8>()),
                1..5
            )
        ) {
            let lines = sample_lines();
            let mut bytes = lines[which % lines.len()].clone().into_bytes();
            for (kind, at, byte) in edits {
                let syntax = JSON_BYTES[usize::from(byte / 2) % JSON_BYTES.len()];
                let byte = if byte % 2 == 0 { syntax } else { byte };
                let at = at % (bytes.len() + 1);
                match kind {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => bytes[at] = byte,
                    _ if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.push(byte),
                }
            }
            line_holds(&String::from_utf8_lossy(&bytes))?;
        }
    }

    /// Regression (crash mid-write): a journal truncated at *every* byte
    /// offset of its last record must still load, yielding exactly the
    /// fully-written prefix — the torn trailing record is skipped.
    #[test]
    fn truncated_trailing_record_is_skipped_at_every_offset() {
        let full: String = samples().iter().map(|r| r.to_json() + "\n").collect();
        let prefix = samples()[..samples().len() - 1].to_vec();
        let last_start = full.trim_end().rfind('\n').unwrap() + 1;
        let path = std::env::temp_dir().join(format!(
            "engage-journal-truncated-{}.jsonl",
            std::process::id()
        ));
        for cut in last_start..full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let loaded = load_jsonl(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            if cut == full.len() - 1 {
                // Only the trailing newline is missing: the last record
                // is intact and must be recovered in full.
                assert_eq!(loaded, samples(), "cut at {cut}");
            } else {
                assert_eq!(loaded, prefix, "cut at {cut}");
            }
        }
        // Corruption on a *non*-final line is still an error.
        let mut torn_middle = full.clone();
        torn_middle.replace_range(last_start - 2..last_start - 1, "");
        std::fs::write(&path, &torn_middle).unwrap();
        assert!(load_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A history with re-provisioning, several commits per instance, and
    /// a trailing in-flight attempt.
    fn chatty_history() -> Vec<JournalRecord> {
        let prov = |inst: &str, host: u32| JournalRecord::Provisioned {
            instance: InstanceId::new(inst),
            host: HostId(host),
            hostname: inst.to_owned(),
            os: "Ubuntu 10.10".into(),
        };
        let commit = |inst: &str, action: &str, from: &str, to: &str| JournalRecord::Commit {
            instance: InstanceId::new(inst),
            action: action.into(),
            from: parse_driver_state(from),
            to: parse_driver_state(to),
            start_ns: 0,
            end_ns: 1,
        };
        vec![
            prov("server", 0),
            commit("db", "install", "uninstalled", "inactive"),
            commit("db", "start", "inactive", "active"),
            commit("app", "install", "uninstalled", "inactive"),
            // The reconciler observed drift and re-drove the db.
            JournalRecord::Observed {
                instance: InstanceId::new("db"),
                state: BasicState::Inactive.into(),
            },
            commit("db", "start", "inactive", "active"),
            // A replacement host for the same machine instance.
            prov("server", 7),
            JournalRecord::Attempt {
                instance: InstanceId::new("app"),
                action: "start".into(),
                attempt: 1,
            },
        ]
    }

    #[test]
    fn compaction_folds_to_latest_snapshot() {
        let j = DeployJournal::in_memory();
        for rec in chatty_history() {
            j.append(rec);
        }
        let n = j.compact().unwrap();
        let records = j.records();
        assert_eq!(records.len(), n);
        assert_eq!(
            records,
            vec![
                JournalRecord::Provisioned {
                    instance: InstanceId::new("server"),
                    host: HostId(7),
                    hostname: "server".into(),
                    os: "Ubuntu 10.10".into(),
                },
                JournalRecord::Observed {
                    instance: InstanceId::new("db"),
                    state: BasicState::Active.into(),
                },
                JournalRecord::Observed {
                    instance: InstanceId::new("app"),
                    state: BasicState::Inactive.into(),
                },
            ]
        );
        // Compaction is idempotent.
        assert_eq!(j.compact().unwrap(), n);
        assert_eq!(j.records().len(), n);
    }

    #[test]
    fn jsonl_compaction_rotates_file_and_keeps_appending() {
        let path = std::env::temp_dir().join(format!(
            "engage-journal-compact-{}.jsonl",
            std::process::id()
        ));
        let j = DeployJournal::jsonl_create(&path).unwrap();
        for rec in chatty_history() {
            j.append(rec);
        }
        let n = j.compact().unwrap();
        assert_eq!(load_jsonl(&path).unwrap().len(), n);
        // The sink keeps appending to the rotated file.
        let tail = JournalRecord::Observed {
            instance: InstanceId::new("app"),
            state: BasicState::Active.into(),
        };
        j.append(tail.clone());
        let after = load_jsonl(&path).unwrap();
        assert_eq!(after.len(), n + 1);
        assert_eq!(after.last(), Some(&tail));
        // No temp file left behind.
        assert!(!path.with_extension("compact-tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_parse_helpers() {
        assert_eq!(
            parse_driver_state("active"),
            DriverState::Basic(BasicState::Active)
        );
        assert_eq!(
            parse_driver_state("weird"),
            DriverState::Custom("weird".into())
        );
        assert_eq!(parse_os("Ubuntu 10.10"), Some(Os::Ubuntu1010));
        assert_eq!(parse_os("BeOS"), None);
    }
}
