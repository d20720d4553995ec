//! In-memory spans around the benchmark's calls into each layer, and the
//! counting allocator that gives each span its peak heap use.
//!
//! A span records its name, start, end, parent and the peak bytes
//! allocated above the live heap at its start. A layer's self time is
//! its span's duration minus the time its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The system allocator, counting live and peak heap bytes per thread.
///
/// The benchmark allocates from one thread. Thread-local cells keep the
/// counters exact without a locked update on every allocation, which
/// made the traced calls measurably slower than the same calls in
/// `postal-cli`. A block freed by another thread than the one that
/// allocated it moves both threads' counts, so they are signed.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with` fails only while a thread's locals are torn down; the
    // allocation is then simply not counted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every operation is delegated to `System` unchanged; the
// wrapper only updates thread-local counters, which no allocation
// depends on and whose access never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-signed(layout.size()));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which traced iteration the span belongs to.
    pub iter: usize,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Peak heap bytes above the live heap at the span's start.
    pub peak_bytes: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans in memory; a disabled tracer runs the closures bare.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub iter: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            iter: self.iter,
            start: 0.0,
            end: 0.0,
            parent: self.stack.last().copied(),
            peak_bytes: 0,
        });
        self.stack.push(idx);
        // The enclosing span's running peak is kept aside and restored
        // below, so nested spans each see their own peak.
        let live0 = LIVE.with(Cell::get);
        let outer_peak = PEAK.with(|peak| peak.replace(live0));
        let start = self.t0.elapsed().as_secs_f64();
        let out = std::hint::black_box(f(self));
        let end = self.t0.elapsed().as_secs_f64();
        let peak = PEAK.with(|p| p.replace(p.get().max(outer_peak)));
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.start = start;
        span.end = end;
        span.peak_bytes = usize::try_from(peak - live0).unwrap_or(0);
        out
    }

    /// Whether the current iteration already has a span named `name`.
    pub fn ran(&self, name: &str) -> bool {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.iter == self.iter)
            .any(|s| s.name == name)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"iter\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"self_s\": {}, \"parent\": {parent}, \"peak_bytes\": {}}}",
                s.iter,
                s.name,
                crate::json::num(s.start),
                crate::json::num(s.end),
                crate::json::num(own),
                s.peak_bytes
            )
            .map_err(fail)?;
        }
        w.flush().map_err(fail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_peaks_nest() {
        let mut tr = Tracer::new(true);
        let kept = tr.span("outer", |tr| {
            let big = tr.span("inner", |_| vec![0u8; 1 << 20]);
            std::thread::sleep(std::time::Duration::from_millis(5));
            big.len()
        });
        assert_eq!(kept, 1 << 20);
        let spans = tr.spans();
        assert_eq!((spans[0].name, spans[1].parent), ("outer", Some(0)));
        let own = tr.self_times();
        assert!((own[0] + spans[1].duration() - spans[0].duration()).abs() < 1e-12);
        assert!(spans[1].peak_bytes >= 1 << 20);
        assert!(spans[0].peak_bytes >= spans[1].peak_bytes);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
