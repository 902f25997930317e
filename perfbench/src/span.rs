//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls it makes into the workspace crates. A span's name starts with
//! the layer (crate) it times, e.g. `core.pair_run`; the layer of a span
//! is the part of its name before the first dot. Spans live in memory
//! until [`write_jsonl`] writes them out at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers of the ledger, in dependency order (`hwcost` is analytic
/// and left out).
pub const LAYERS: [&str; 10] = [
    "workloads",
    "isa",
    "sim",
    "mem",
    "exec",
    "core",
    "reunion",
    "fault",
    "bench",
    "obs",
];

/// One recorded span: nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Restarts the clock and drops any earlier spans on this thread.
pub fn reset() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.origin = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Hands back every span recorded since [`reset`].
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans[index].end_ns = end_ns;
        r.open.pop();
    });
    out
}

/// The layer a span belongs to: its name up to the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer self time (seconds) and span count. A span's self time is
/// its duration minus the time its direct children cover; children
/// never overlap because spans nest on one thread.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> =
        LAYERS.iter().map(|&l| (l, (0.0, 0))).collect();
    for (s, child) in spans.iter().zip(&child_ns) {
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(*child);
        let layer = LAYERS
            .iter()
            .copied()
            .find(|&l| l == layer_of(s.name))
            .expect("every span name starts with a ledger layer");
        let entry = out.entry(layer).or_default();
        entry.0 += self_ns as f64 * 1e-9;
        entry.1 += 1;
    }
    out
}

/// Renders spans as JSON lines: name, start, end and parent index.
pub fn write_jsonl(spans: &[Span]) -> String {
    let mut text = String::with_capacity(spans.len() * 64);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.name, s.start_ns, s.end_ns, parent
        );
    }
    text
}
