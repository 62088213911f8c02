//! Integration tests for the observability layer: span nesting and
//! timing invariants, counter atomicity under contention, and the JSONL
//! sink's on-disk shape.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use engage_util::obs::{MemorySink, Obs, Record};

fn obs_with_memory() -> (Obs, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new().with_sink(sink.clone());
    (obs, sink)
}

#[test]
fn nested_spans_record_parentage_and_order() {
    let (obs, sink) = obs_with_memory();
    {
        let outer = obs.span("outer");
        assert_eq!(obs.current_span(), Some(outer.id()));
        {
            let inner = obs.span("inner");
            assert_eq!(obs.current_span(), Some(inner.id()));
            obs.event("tick", &[("k", "v")]);
        }
        assert_eq!(obs.current_span(), Some(outer.id()));
    }
    assert_eq!(obs.current_span(), None);

    let spans = sink.finished_spans();
    // Children finish first: MemorySink orders by end time.
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "inner");
    assert_eq!(spans[1].name, "outer");
    assert_eq!(spans[0].parent, Some(spans[1].id));
    assert_eq!(spans[1].parent, None);

    // The event landed under the innermost open span.
    let events = sink.events_named("tick");
    assert_eq!(events.len(), 1);
    let Record::Event { parent, fields, .. } = &events[0] else {
        panic!("not an event");
    };
    assert_eq!(*parent, Some(spans[0].id));
    assert_eq!(fields, &[("k".to_owned(), "v".to_owned())]);
}

#[test]
fn span_timing_invariants_hold() {
    let (obs, sink) = obs_with_memory();
    {
        let _outer = obs.span("outer");
        thread::sleep(Duration::from_millis(2));
        {
            let _inner = obs.span("inner");
            thread::sleep(Duration::from_millis(2));
        }
        thread::sleep(Duration::from_millis(2));
    }
    let spans = sink.finished_spans();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    // The child starts after its parent and fits inside it.
    assert!(inner.start >= outer.start);
    assert!(inner.elapsed <= outer.elapsed);
    // Each span covered its sleeps.
    assert!(inner.elapsed >= Duration::from_millis(2));
    assert!(outer.elapsed >= Duration::from_millis(6));
    // End timestamps never precede starts.
    for s in &spans {
        assert!(s.elapsed >= Duration::ZERO);
    }
}

#[test]
fn span_ids_are_unique_and_stable() {
    let (obs, sink) = obs_with_memory();
    let mut ids = Vec::new();
    for i in 0..10 {
        let s = obs.span(&format!("s{i}"));
        ids.push(s.id());
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 10, "span ids must be unique");
    assert_eq!(sink.finished_spans().len(), 10);
}

#[test]
fn explicit_parent_crosses_threads() {
    let (obs, sink) = obs_with_memory();
    let root = obs.span("deploy.parallel");
    let root_id = root.id();
    thread::scope(|scope| {
        for host in 0..3 {
            let obs = obs.clone();
            scope.spawn(move || {
                let _worker = obs.span_under(
                    "deploy.worker",
                    Some(root_id),
                    &[("host", &host.to_string())],
                );
                obs.event("work", &[]);
            });
        }
    });
    drop(root);
    let spans = sink.finished_spans();
    let workers: Vec<_> = spans.iter().filter(|s| s.name == "deploy.worker").collect();
    assert_eq!(workers.len(), 3);
    for s in &workers {
        assert_eq!(s.parent, Some(root_id), "worker spans parent to the root");
    }
    // Each worker thread's event nests under its own worker span.
    for e in sink.events_named("work") {
        let Record::Event { parent, .. } = e else {
            unreachable!()
        };
        assert!(workers.iter().any(|s| Some(s.id) == parent));
    }
}

#[test]
fn counters_are_atomic_under_eight_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let (obs, _sink) = obs_with_memory();
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            scope.spawn(move || {
                let c = obs.counter("contended");
                for _ in 0..PER_THREAD {
                    c.incr();
                }
                obs.counter("late-resolved").add(2);
            });
        }
    });
    let snapshot = obs.metrics();
    assert_eq!(snapshot.counter("contended"), THREADS as u64 * PER_THREAD);
    assert_eq!(snapshot.counter("late-resolved"), THREADS as u64 * 2);
}

#[test]
fn gauges_keep_last_and_max_values() {
    let (obs, _sink) = obs_with_memory();
    let g = obs.gauge("depth");
    g.set(5);
    g.set(3);
    assert_eq!(obs.metrics().gauge("depth"), 3);
    g.set_max(10);
    g.set_max(7); // lower than current max: ignored
    assert_eq!(obs.metrics().gauge("depth"), 10);
}

#[test]
fn disabled_obs_is_a_no_op() {
    let obs = Obs::disabled();
    assert!(!obs.is_enabled());
    let span = obs.span("ignored");
    assert_eq!(span.id(), 0);
    assert_eq!(obs.current_span(), None);
    obs.event("ignored", &[("a", "b")]);
    let c = obs.counter("ignored");
    c.incr();
    assert_eq!(c.get(), 0);
    let snapshot = obs.metrics();
    assert!(snapshot.counters.is_empty());
    assert!(snapshot.gauges.is_empty());
}

#[test]
fn jsonl_sink_emits_one_valid_object_per_line() {
    use engage_util::obs::JsonlSink;

    let path = std::env::temp_dir().join(format!("engage-obs-test-{}.jsonl", std::process::id()));
    {
        let obs = Obs::new().with_sink(Arc::new(JsonlSink::create(&path).unwrap()));
        let outer = obs.span_with("outer", &[("key", "va\"lue")]);
        obs.event("evt", &[("n", "1")]);
        drop(outer);
        obs.counter("c").add(3);
        obs.gauge("g").set(-4);
        obs.flush_metrics();
    }
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 4, "start, event, end, metrics: {body}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(lines[0].contains("\"type\":\"span_start\""), "{}", lines[0]);
    assert!(lines[0].contains("\"name\":\"outer\""), "{}", lines[0]);
    assert!(lines[0].contains("\"parent\":null"), "{}", lines[0]);
    // The quote inside the field value must be escaped.
    assert!(lines[0].contains("\"key\":\"va\\\"lue\""), "{}", lines[0]);
    assert!(lines[1].contains("\"type\":\"event\""), "{}", lines[1]);
    assert!(lines[1].contains("\"name\":\"evt\""), "{}", lines[1]);
    assert!(lines[2].contains("\"type\":\"span_end\""), "{}", lines[2]);
    assert!(lines[2].contains("\"elapsed_ns\":"), "{}", lines[2]);
    assert!(lines[3].contains("\"type\":\"metrics\""), "{}", lines[3]);
    assert!(lines[3].contains("\"c\":3"), "{}", lines[3]);
    assert!(lines[3].contains("\"g\":-4"), "{}", lines[3]);
}

#[test]
fn multiple_sinks_all_receive_records() {
    let a = Arc::new(MemorySink::new());
    let b = Arc::new(MemorySink::new());
    let obs = Obs::new().with_sink(a.clone());
    obs.add_sink(b.clone());
    obs.span("s");
    obs.event("e", &[]);
    assert_eq!(a.records().len(), 3);
    assert_eq!(a.records().len(), b.records().len());
}
