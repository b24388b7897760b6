//! The Q-D-CNN compressor's training memory, measured by a counting
//! global allocator: past the auxiliary set itself, the heap that
//! `train_cnn_scaler` holds must not grow with the number of auxiliary
//! samples by anything near a gather per (sample, source) pair.
//!
//! The allocator counts every allocation in the process, so this file is
//! its own test binary with a single test: nothing else runs while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use qugeo::pipeline::{train_cnn_scaler, CnnScalingConfig, FwScalingConfig};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Time steps and receivers of the test gathers.
const NT: usize = 160;
const NR: usize = 24;

fn aux_set(num_samples: usize) -> Dataset {
    Dataset::generate(&DatasetConfig {
        num_samples,
        grid: Grid::new(24, 24, 10.0, 0.001, NT).unwrap(),
        survey: Survey::surface(24, 5, NR, 1).unwrap(),
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed: 61,
    })
    .unwrap()
}

/// Peak heap bytes above those live when compressor training starts.
fn training_peak(aux: &Dataset) -> usize {
    let fw = FwScalingConfig {
        sim_steps: 48,
        ..FwScalingConfig::default()
    };
    let cnn = CnnScalingConfig {
        epochs: 2,
        initial_lr: 0.01,
        seed: 5,
    };
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let compressor = train_cnn_scaler(aux, &ScaledLayout::paper_default(), &fw, &cnn).unwrap();
    let peak = PEAK.load(Relaxed) - base;
    drop(compressor);
    peak
}

#[test]
fn compressor_training_peak_heap_does_not_grow_with_the_aux_set() {
    let n = 3;
    let small = training_peak(&aux_set(n));
    let large = training_peak(&aux_set(2 * n));
    // A materialised copy of every picked gather would add
    // n × 4 × NT × NR × 8 bytes (about 369 kB here). What may grow is
    // only the per-pair bookkeeping, 4 × (a 64-value target and a
    // gather's view and statistics): about 2.3 kB per sample.
    let gather = NT * NR * std::mem::size_of::<f64>();
    assert!(
        large < small + gather,
        "peak heap grew from {small} to {large} bytes when the aux set doubled \
         (one gather is {gather} bytes)"
    );
}
