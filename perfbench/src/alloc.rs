//! A counting global allocator for the benchmark binary.
//!
//! It wraps the system allocator and keeps three process-wide counters:
//! allocation calls, live heap bytes, and the peak of live bytes since
//! the last [`reset_peak`]. The counters are statistics that publish no
//! other data, so every update is `Relaxed`.
//!
//! The benchmark's own per-operation records live in [`QuietVec`]s, whose
//! memory the counters skip, so the heap figures describe the system under
//! test and not how many operations the benchmark happened to record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator plus counters.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs benchmark bookkeeping the counters skip.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

fn quiet() -> bool {
    QUIET.with(Cell::get)
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && !quiet() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && !quiet() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if !quiet() {
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && !quiet() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Allocation calls (alloc, alloc_zeroed and realloc) since start.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `f` with this thread's allocations left out of the counters.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    QUIET.with(|q| q.set(true));
    let r = f();
    QUIET.with(|q| q.set(false));
    r
}

/// A growable log whose buffer the counters never see: it grows and is
/// freed only with counting off. `T: Copy` keeps owned heap data (which
/// would be counted on the way in) out of it.
#[derive(Debug, Default)]
pub struct QuietVec<T: Copy>(Vec<T>);

impl<T: Copy> QuietVec<T> {
    /// An empty log.
    pub fn new() -> Self {
        QuietVec(Vec::new())
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        quietly(|| self.0.push(value));
    }

    /// Removes the last value (the buffer keeps its capacity).
    pub fn pop(&mut self) -> Option<T> {
        self.0.pop()
    }
}

impl<T: Copy> Deref for QuietVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T: Copy> DerefMut for QuietVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T: Copy> Drop for QuietVec<T> {
    fn drop(&mut self) {
        let buffer = std::mem::take(&mut self.0);
        quietly(|| drop(buffer));
    }
}
