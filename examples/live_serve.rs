//! Live updates under serving: the generational engine end to end.
//!
//! `parallel_serve` shows many readers over one *frozen* engine; this
//! example shows what the generational refactor adds — writes landing
//! while those readers keep flowing. A single [`EngineWriter`] stages
//! label inserts and view registrations against copy-on-write clones and
//! publishes immutable [`EngineGeneration`]s through a [`LiveEngine`]
//! (atomic `Arc` swap; readers use a lock-free fast path and finish
//! in-flight work on whatever generation they hold). Every publish also
//! appends a *delta record* to an on-disk stream, and a warm restart
//! replays base ‖ deltas to exactly the last published state.
//!
//! Run with: `cargo run --release --example live_serve`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wfprov::analysis::ProdGraph;
use wfprov::engine::{
    EngineCore, EngineGeneration, EngineWriter, LabelStore, LiveEngine, ViewRegistry, WorkerScratch,
};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::workloads::churn::{churn_stream, ChurnOp, ChurnSpec};
use wfprov::workloads::queries::PairDist;
use wfprov::workloads::{bioaid, sample, views};

fn main() {
    // A BioAID-like workload; the scheme *owns* its spec via Arc, so no
    // borrow chains anything to this stack frame.
    let w = bioaid(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 4_000);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 8);

    // --- Generation 1: initial state, saved as the base snapshot. -------
    let initial = labels.len() / 2;
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.insert_labels(&labels[..initial]);
    let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
    let live = LiveEngine::new(writer.base().clone());
    let g1 = writer.publish(&live);
    let mut disk = Vec::new();
    g1.save(&mut disk).unwrap();
    println!(
        "generation {}: {} items, {} view(s) — base snapshot {} bytes",
        g1.seqno(),
        g1.store().len(),
        g1.registry().view_count(),
        disk.len()
    );

    // --- Readers serve while the writer churns and publishes. -----------
    let mut churn_rng = StdRng::seed_from_u64(13);
    let spec = ChurnSpec {
        initial_items: initial,
        insert_chunk: 64,
        batch: 256,
        view_weight: 0.08,
        dist: PairDist::HotKey { hot_items: 32, hot_prob: 0.5 },
        ..ChurnSpec::default()
    };
    let ops = churn_stream(&mut churn_rng, 60, &spec);
    let stop = AtomicBool::new(false);
    let publishes = std::thread::scope(|s| {
        let live_ref = &live;
        let stop_ref = &stop;
        let items_ref = &items;
        // Two readers: batched queries through the lock-free read path,
        // each batch against whatever generation is current.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut ws = WorkerScratch::new();
                    let mut batches = 0u64;
                    let pairs: Vec<_> = items_ref
                        .iter()
                        .zip(items_ref.iter().rev())
                        .map(|(&a, &b)| (a, b))
                        .take(256)
                        .collect();
                    while !stop_ref.load(Ordering::Relaxed) {
                        let gen = live_ref.read();
                        std::hint::black_box(gen.query_batch(&mut ws, vref, &pairs));
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        // The writer replays the churn stream: inserts and view
        // registrations stage up; every query op publishes what is staged
        // (with its delta appended to the same on-disk stream).
        let mut label_cursor = initial;
        let mut published = 0u32;
        let mut view_rng = StdRng::seed_from_u64(23);
        for op in &ops {
            match op {
                ChurnOp::Insert { count } => {
                    let end = (label_cursor + count).min(labels.len());
                    writer.insert_labels(&labels[label_cursor..end]);
                    label_cursor = end;
                }
                ChurnOp::RegisterView { .. } => {
                    let v = views::random_safe_view(&w, &mut view_rng, 6);
                    writer.register_view(v, VariantKind::Default).unwrap();
                }
                ChurnOp::QueryBatch { .. } => {
                    if writer.has_staged_changes() {
                        writer.publish_with_delta(live_ref, &mut disk).unwrap();
                        published += 1;
                    }
                    // Yield the (possibly single) core so the readers
                    // demonstrably serve *between* publishes.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        if writer.has_staged_changes() {
            writer.publish_with_delta(live_ref, &mut disk).unwrap();
            published += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let batches: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        assert!(batches > 0, "readers must have served while the writer published");
        println!("served {batches} read batches concurrently with {published} publishes");
        published
    });
    let last = live.snapshot();
    assert_eq!(last.seqno(), 1 + publishes as u64);
    println!(
        "generation {}: {} items, {} view(s) — stream grew to {} bytes",
        last.seqno(),
        last.store().len(),
        last.registry().view_count(),
        disk.len()
    );

    // --- Warm restart: replay base ‖ deltas, compare against cold. ------
    let fvl2 = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let replayed = EngineGeneration::replay(fvl2, &mut disk.as_slice()).unwrap();
    assert_eq!(replayed.seqno(), last.seqno());
    assert_eq!(replayed.store().len(), last.store().len());
    assert_eq!(replayed.registry().view_count(), last.registry().view_count());

    // The cold reference is built from the parts: one store, one registry.
    let mut cold_store = LabelStore::new();
    let all_items = cold_store.try_insert_all(&labels[..last.store().len()]).unwrap();
    let mut cold_registry = ViewRegistry::new();
    let cold_id = cold_registry.add_view(view);
    let cold_ref = cold_registry.compile(&fvl, cold_id, VariantKind::Default).unwrap();
    assert_eq!(cold_ref, vref, "handles are chain-stable");
    let sample: Vec<_> = all_items.iter().copied().step_by(7).collect();
    let mut ws = WorkerScratch::new();
    let warm_answers = replayed.all_pairs(&mut ws, vref, &sample);
    let mut cold_answers = Vec::new();
    EngineCore::new(&fvl, &cold_registry, &cold_store)
        .try_all_pairs_into(&mut ws, cold_ref, &sample, &mut cold_answers)
        .unwrap();
    assert_eq!(warm_answers, cold_answers, "replayed state must answer like a cold-built engine");
    println!(
        "warm restart replayed {} generations: {} dependent pairs over a {}-item sample — \
         identical to a cold build",
        replayed.seqno(),
        warm_answers.len(),
        sample.len()
    );

    // --- Bad streams are rejected, never half-applied. -------------------
    let truncated = &disk[..disk.len() - 9];
    assert!(EngineGeneration::replay(
        Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap()),
        &mut &truncated[..]
    )
    .is_err());
    println!("truncated stream rejected with a typed error — live serving demo complete");
}
