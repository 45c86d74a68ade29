//! Heap footprint of the label store, counted by this test binary's own
//! allocator so the bound holds on any host, at any speed.
//!
//! Full shards are sealed: no intern index, tables cut to exact length,
//! 12-byte labels. On a BioAID run a sealed shard holds about 19 B per
//! label (≈ 0.6 packed trie nodes of 12 B each, plus the 12-byte label).
//! With the unsealed tail shard (its 16-byte intern buckets included) and
//! the returned id vector, the run below retains 25.9 B per label through
//! `insert_all`; the loaded store retains 20.9 B. With 32-byte trie nodes
//! they retained 40.3 and 35.4 B; with an intern index per shard, padded
//! labels and capacity slack, about 103 B. The bound is the larger
//! measured value plus about 2 B.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use wf_analysis::ProdGraph;
use wf_bitio::{BitReader, BitWriter};
use wf_core::Fvl;
use wf_engine::LabelStore;
use wf_workloads::{bioaid, sample};

/// The system allocator, keeping a running count of live heap bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is
// bookkeeping only and never influences what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns what it returned plus the heap bytes it left live.
fn retained<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) - before)
}

/// Upper bound on retained heap bytes per stored label.
const MAX_BYTES_PER_LABEL: f64 = 28.0;

/// One test only: the counter is process-wide, so nothing may allocate
/// concurrently with the measured windows.
#[test]
fn sealed_store_retains_at_most_28_bytes_per_label() {
    let w = bioaid(1);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(1);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 6 * 4096 + 2000);
    let fvl = Fvl::new(&w.spec).unwrap();
    let labels = fvl.labeler(&run).labels().to_vec();

    let mut store = LabelStore::new();
    let (ids, bytes) = retained(|| store.try_insert_all(&labels).unwrap());
    drop(ids);
    assert!(store.shard_count() > 5, "at least five full shards: {}", store.shard_count());
    let per_label = bytes as f64 / labels.len() as f64;
    assert!(
        per_label <= MAX_BYTES_PER_LABEL,
        "insert_all retained {per_label:.1} B/label over {} labels (bound {MAX_BYTES_PER_LABEL})",
        labels.len()
    );

    // A store loaded from a snapshot has the same sealed layout, so the
    // same bound holds for what the loader leaves behind.
    let mut wr = BitWriter::new();
    store.write_snapshot(fvl.codec(), &mut wr);
    let bits = wr.finish();
    let (loaded, bytes) = retained(|| {
        LabelStore::read_snapshot(&mut BitReader::new(&bits), fvl.codec(), &w.spec.grammar, &pg)
            .unwrap()
    });
    assert_eq!(loaded.len(), store.len());
    let per_label = bytes as f64 / labels.len() as f64;
    assert!(
        per_label <= MAX_BYTES_PER_LABEL,
        "read_snapshot retained {per_label:.1} B/label (bound {MAX_BYTES_PER_LABEL})"
    );
}
