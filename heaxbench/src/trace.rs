//! In-memory spans for the traced run, and the counting allocator that
//! tallies large allocations while the traced in-process leg runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Allocations at or above this size count as large (the 128 KiB glibc
/// mmap threshold halved, so every ciphertext-sized buffer counts).
pub const LARGE_ALLOC: usize = 64 * 1024;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations of at least
/// [`LARGE_ALLOC`] bytes while counting is switched on.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        // Relaxed: a statistic that publishes no other data.
        if size >= LARGE_ALLOC && COUNTING.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// update allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting large allocations from zero.
pub fn count_large_allocs() {
    LARGE_ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the count.
pub fn stop_counting() -> u64 {
    COUNTING.store(false, Ordering::Relaxed);
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `net.poll`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Request, burst or turn id the span belongs to.
    pub id: u64,
}

/// Most spans one tracer keeps; later spans are counted, not stored.
const MAX_SPANS: usize = 1 << 20;

/// A span recorder; off unless built with [`Tracer::on`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: false,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer.
    pub fn on(epoch: Instant) -> Self {
        // Reserved up front so span storage does not grow (and count as
        // large allocations) mid-measurement.
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(1 << 18),
            ..Tracer::off(epoch)
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its index (or [`ROOT`] when
    /// not recorded).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that later spans can name as their parent; its end
    /// is set by [`Tracer::close`]. Returns [`ROOT`] when not recording.
    pub fn open(&mut self, name: &'static str, id: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, ROOT, id)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: u32) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.end_ns = end;
        }
    }

    /// Appends another tracer's spans (re-parented into this one).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Total and self time per span name, in seconds. Self time is the
    /// span's duration minus the part its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as tab-separated text.
    ///
    /// # Errors
    ///
    /// The underlying write failure.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "# index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "# {} spans not stored (cap {MAX_SPANS})", self.dropped)?;
        }
        Ok(())
    }
}
