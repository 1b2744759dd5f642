//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! A span is (name, start, end, parent, op id, thread). Spans are recorded
//! from the benchmark's own files only — spans inside the crates are a
//! later issue — kept in memory, and written out as Chrome-trace JSON when
//! the run ends. Off (the default, and always for end-to-end numbers) a
//! span costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The op (training step, request, batch) this span belongs to.
    pub op: u64,
    pub tid: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

// Relaxed: the flag publishes no data, it only selects whether to record.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    tracer();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tags spans opened on this thread from now on with `op`.
pub fn set_op(op: u64) {
    OP.with(|o| o.set(op));
}

/// Runs `f` inside a span named `name` (or bare, when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let t = tracer();
    let tid = TID.with(|c| {
        if c.get() == 0 {
            c.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    });
    let parent = STACK.with(|s| s.borrow().last().copied());
    let index = {
        let mut spans = t.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: OP.with(Cell::get),
            tid,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    let end = t.epoch.elapsed().as_nanos() as u64;
    // The slot is gone only if the spans were taken while this one was open.
    if let Some(slot) = t
        .spans
        .lock()
        .expect("no span holder panics")
        .get_mut(index)
    {
        slot.end_ns = end;
    }
    out
}

pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("no span holder panics"))
}

/// Per span name: (count, total ms, self ms), self time being a span's
/// duration minus the part its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e6;
        e.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
    }
    by_name
}

/// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    Json::obj(vec![
                        ("op", Json::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))])
}

/// Cargo runs tests on parallel threads and the recorder is process-global:
/// every test that records spans holds this while it does.
#[cfg(test)]
pub static RECORDER_IN_USE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_carry_the_op_id_and_give_self_time() {
        let _recorder = RECORDER_IN_USE.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(span("off", || 7), 7);
        assert!(take_spans().is_empty(), "nothing is recorded while off");

        set_enabled(true);
        set_op(42);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("inner", || ());
        });
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 42 && s.end_ns >= s.start_ns));

        let by_name = self_times(&spans);
        let (n_outer, total_outer, self_outer) = by_name["outer"];
        let (n_inner, total_inner, _) = by_name["inner"];
        assert_eq!((n_outer, n_inner), (1, 2));
        assert!(total_inner >= 2.0);
        assert!((self_outer - (total_outer - total_inner)).abs() < 1e-9);

        let doc = chrome_trace(&spans);
        let parsed = Json::parse(&doc.encode()).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
    }
}
