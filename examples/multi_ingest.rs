//! Concurrent multi-producer ingest: the op-log pipeline end to end.
//!
//! `live_serve` shows one writer publishing under live readers; this
//! example shows what the ingest pipeline adds — *four* producer threads
//! feeding the same generation chain at once, with no writer hand-off
//! protocol between them. Each producer pushes typed [`IngestOp`]s into
//! the bounded [`IngestQueue`] (full queue = backpressure, never loss)
//! and gets a [`Ticket`] per op that resolves to the seqno of the
//! generation that published it. One publisher thread drains the queue,
//! coalesces ops into copy-on-write staging, appends every publish's
//! delta record to a durable op-log ([`DurableEngine`], here on in-memory
//! [`MemStorage`]), and swaps generations into the [`LiveEngine`] — which
//! two reader threads query throughout, lock-free.
//!
//! Shutdown is graceful by contract: closing the queue lets the publisher
//! drain and publish everything already accepted, so every ticket
//! resolves. Recovering `base ‖ op-log` then lands on the exact final
//! generation — and a *new* pipeline resumes ingesting on top of the
//! recovered state, through the same log.
//!
//! Run with: `cargo run --release --example multi_ingest`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wfprov::engine::{
    shared_durable, DurableEngine, EngineCore, EngineWriter, IngestOp, IngestPipeline, ItemId,
    LabelStore, LiveEngine, PipelineOptions, PublishPolicy, Ticket, ViewRegistry, WorkerScratch,
};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::snapshot::MemStorage;
use wfprov::workloads::{bioaid, sample, views};

const PRODUCERS: usize = 4;
const READERS: usize = 2;
const CHUNK: usize = 32;
const PER_PRODUCER: usize = 1_024;

fn main() {
    let w = bioaid(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, 4_000);
    let mut pool = fvl.labeler(&run).labels().to_vec();
    let mut i = 0usize;
    while pool.len() < PRODUCERS * PER_PRODUCER {
        pool.push(pool[i].clone());
        i += 1;
    }
    let view = views::random_safe_view(&w, &mut rng, 8);

    // --- Base generation: an initial view the readers can query, saved
    // as the durable store's base snapshot. ------------------------------
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    writer.publish(&live);
    let mut base = Vec::new();
    writer.base().save(&mut base).unwrap();
    println!("base generation saved: {} bytes, 1 compiled view", base.len());
    let storage = MemStorage::with_state(Some(base), Vec::new());
    let (durable, _, _) = DurableEngine::open(
        fvl.clone(),
        Box::new(storage.clone()),
        LabelStore::DEFAULT_SHARD_CAPACITY,
    )
    .unwrap();

    // --- The pipeline: one publisher thread, a durable op-log, and as
    // many producers as want to push. ------------------------------------
    let policy = PublishPolicy { max_batch_ops: 64, ..PublishPolicy::default() };
    let pipeline = IngestPipeline::spawn_with(
        writer,
        live.clone(),
        policy,
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );

    let stop = AtomicBool::new(false);
    let (tickets, read_batches) = std::thread::scope(|s| {
        // Two readers: batched queries through the lock-free fast path,
        // each batch against whatever generation is current — publishes
        // from four producers land *under* them, atomically.
        let (live_ref, stop_ref) = (&live, &stop);
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(move || {
                    let mut ws = WorkerScratch::new();
                    let mut batches = 0u64;
                    while !stop_ref.load(Ordering::Relaxed) {
                        let gen = live_ref.read();
                        let n = gen.store().len() as u32;
                        let pairs: Vec<_> = (0..256u32)
                            .map(|k| (ItemId(k % n.max(1)), ItemId((k * 7 + 3) % n.max(1))))
                            .collect();
                        if n > 0 {
                            std::hint::black_box(gen.query_batch(&mut ws, vref, &pairs));
                        }
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        // Four producers, each pushing its own disjoint slice of labels in
        // chunks, plus the shared view (the registry dedups — no producer
        // needs to know the others compile it too).
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = pipeline.queue().clone();
                let slice = &pool[p * PER_PRODUCER..(p + 1) * PER_PRODUCER];
                let view = view.clone();
                s.spawn(move || {
                    let mut tickets: Vec<Ticket> = Vec::new();
                    for (k, chunk) in slice.chunks(CHUNK).enumerate() {
                        tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
                        if k % 8 == 0 {
                            tickets.push(
                                q.push(IngestOp::CompileView(view.clone(), VariantKind::Default))
                                    .unwrap(),
                            );
                        }
                    }
                    tickets
                })
            })
            .collect();

        let mut tickets: Vec<Ticket> = Vec::new();
        for h in producers {
            tickets.extend(h.join().expect("producer panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        let batches: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        (tickets, batches)
    });

    // --- Graceful shutdown: the queue closes, the publisher drains, and
    // every accepted op's ticket resolves with its publishing seqno. ------
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none(), "op-log persist failed");
    assert_eq!(report.stats.op_errors, 0);
    assert_eq!(report.stats.labels_ingested as usize, PRODUCERS * PER_PRODUCER);
    let mut max_seq = 0u64;
    for t in &tickets {
        let seq = t.wait().expect("drained pipeline resolves every ticket");
        max_seq = max_seq.max(seq);
    }
    let last = live.snapshot();
    assert!(last.seqno() >= max_seq, "every resolved seqno is live");
    println!(
        "{PRODUCERS} producers ingested {} labels over {} publishes while {READERS} readers \
         served {read_batches} batches; final generation {} holds {} items",
        report.stats.labels_ingested,
        report.stats.publishes,
        last.seqno(),
        last.store().len(),
    );

    // --- The racing run is recoverable: base ‖ op-log lands on the exact
    // final generation, bytes and answers included. ----------------------
    let restarted = storage.survivor();
    let (base_bytes, log_bytes) = restarted.contents();
    let fvl2 = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let (durable2, replayed, recovery) =
        DurableEngine::open(fvl2, Box::new(restarted.clone()), LabelStore::DEFAULT_SHARD_CAPACITY)
            .unwrap();
    assert_eq!(recovery.dropped_bytes, 0, "a clean shutdown leaves no torn tail");
    assert_eq!(replayed.seqno(), last.seqno());
    assert_eq!(replayed.store().len(), last.store().len());
    let (mut live_image, mut replayed_image) = (Vec::new(), Vec::new());
    last.save(&mut live_image).unwrap();
    replayed.save(&mut replayed_image).unwrap();
    assert_eq!(live_image, replayed_image, "recovery must reproduce the live generation");

    // The store's id order *is* the global apply order — materialize it
    // back out to rebuild the same state cold, from the parts.
    let store = report.writer.base().store();
    let ordered: Vec<_> = (0..store.len() as u32).map(|i| store.materialize(ItemId(i))).collect();
    let mut cold_store = LabelStore::new();
    let all_items = cold_store.try_insert_all(&ordered).unwrap();
    let mut cold_registry = ViewRegistry::new();
    let cold_id = cold_registry.add_view(view);
    let cold_ref = cold_registry.compile(&fvl, cold_id, VariantKind::Default).unwrap();
    assert_eq!(cold_ref, vref);
    let sample_items: Vec<_> = all_items.iter().copied().step_by(13).collect();
    let mut ws = WorkerScratch::new();
    let mut cold_answers = Vec::new();
    EngineCore::new(&fvl, &cold_registry, &cold_store)
        .try_all_pairs_into(&mut ws, cold_ref, &sample_items, &mut cold_answers)
        .unwrap();
    assert_eq!(
        replayed.all_pairs(&mut ws, vref, &sample_items),
        cold_answers,
        "replayed state must answer like a cold-built engine"
    );
    println!(
        "warm restart recovered {} base + {} op-log bytes ({} frames) to generation {} — \
         answers identical to a cold build",
        base_bytes.map_or(0, |b| b.len()),
        log_bytes.len(),
        recovery.replayed_frames,
        replayed.seqno()
    );

    // --- Resume: a fresh pipeline on the recovered generation keeps
    // ingesting where the old one left off, through the same op-log. -----
    let live2 = Arc::new(LiveEngine::new(replayed));
    let pipeline2 = IngestPipeline::spawn_with(
        EngineWriter::new(live2.snapshot()),
        live2.clone(),
        policy,
        PipelineOptions { durable: Some(shared_durable(durable2)), ..PipelineOptions::default() },
    );
    let t = pipeline2.queue().push(IngestOp::InsertLabels(pool[..CHUNK].to_vec())).unwrap();
    let seq = t.wait().expect("resumed pipeline serves new ops");
    let report2 = pipeline2.shutdown();
    assert_eq!(report2.stats.labels_ingested as usize, CHUNK);
    assert_eq!(live2.snapshot().store().len(), last.store().len() + CHUNK);
    let (_, resumed, _) = DurableEngine::open(
        fvl,
        Box::new(restarted.survivor()),
        LabelStore::DEFAULT_SHARD_CAPACITY,
    )
    .unwrap();
    assert_eq!(resumed.seqno(), seq, "the resumed publish is durable too");
    println!(
        "resumed pipeline published generation {seq}: {} items — multi-producer ingest demo \
         complete",
        live2.snapshot().store().len()
    );
}
