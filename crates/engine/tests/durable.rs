//! Crash-safe durability end to end: the durable pipeline must never
//! lose an acknowledged op, every torn prefix of the op-log must recover
//! to a published generation's exact state or fail typed (never panic,
//! never answer wrongly), and background compaction must trim the log
//! without changing what recovery rebuilds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{
    serialize_base, shared_durable, CompactionPolicy, DurableEngine, EngineGeneration,
    EngineWriter, IngestOp, IngestPipeline, LiveEngine, PipelineOptions, PublishPolicy,
    WorkerScratch,
};
use wf_snapshot::{scan_log, FaultKind, FaultPlan, MemStorage, SnapshotError};
use wf_workloads::{bioaid, sample, views, Workload};

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

fn save_bytes(gen: &EngineGeneration) -> Vec<u8> {
    serialize_base(gen).expect("serializing a generation cannot fail in memory")
}

/// Build a durable chain of several publishes (with one mid-chain
/// compaction) directly through the writer, returning the shared storage
/// handle and the save-bytes of every published generation by seqno.
fn build_chain(seed: u64) -> (MemStorage, Vec<Vec<u8>>, Arc<Fvl<'static>>) {
    let w = bioaid(seed % 3);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 80);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 4);

    let storage = MemStorage::new();
    let (mut durable, gen0, report) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).expect("fresh open");
    assert_eq!(report.recovered_seqno, 0);
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0.clone());
    let mut golden = vec![save_bytes(&gen0)];

    let chunks: Vec<&[wf_core::DataLabel]> = labels.chunks(labels.len() / 5 + 1).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        writer.insert_labels(chunk);
        if i == 1 {
            writer.register_view(view.clone(), VariantKind::Default).unwrap();
        }
        let mut record = Vec::new();
        let gen = writer.publish_with_delta(&live, &mut record).unwrap();
        durable.append(gen.seqno(), &record).unwrap();
        golden.push(save_bytes(&gen));
        if i == 2 {
            // Fold the head into a fresh base mid-chain so recovery must
            // handle base_seqno > 0 and frames both sides of it.
            let base = save_bytes(&gen);
            let stats = durable.install_base(&base, gen.seqno()).unwrap().expect("compacts");
            assert_eq!(stats.covered_seqno, gen.seqno());
        }
    }
    (storage, golden, fvl)
}

/// The satellite property: truncate the durable op-log at **every** byte
/// offset. Each prefix either recovers to a published generation's exact
/// state (identical save bytes, element-identical answers) or fails with
/// a typed error — never a panic, never a wrong answer.
#[test]
fn every_byte_truncation_recovers_a_published_prefix_or_fails_typed() {
    for seed in [3u64, 11, 42] {
        let (storage, golden, fvl) = build_chain(seed);
        let (base, log) = storage.contents();
        let base = base.expect("chain has a base");
        let base_covered = 4u64.min(golden.len() as u64 - 1);
        for cut in 0..=log.len() {
            let truncated = MemStorage::with_state(Some(base.clone()), log[..cut].to_vec());
            let opened = std::panic::catch_unwind(|| {
                DurableEngine::open(fvl.clone(), Box::new(truncated), 64)
            })
            .unwrap_or_else(|_| panic!("seed {seed} cut {cut}: recovery panicked"));
            match opened {
                Ok((_, gen, report)) => {
                    let seq = gen.seqno();
                    assert!(
                        seq >= base_covered.min(report.base_seqno) && (seq as usize) < golden.len(),
                        "seed {seed} cut {cut}: recovered seqno {seq} out of range"
                    );
                    assert_eq!(
                        save_bytes(&gen),
                        golden[seq as usize],
                        "seed {seed} cut {cut}: recovered state diverges from published seqno {seq}"
                    );
                    assert_eq!(report.recovered_seqno, seq);
                }
                Err(_typed) => {
                    // Typed rejection is legal for prefixes that corrupt
                    // the *base* chain invariants; reaching here without
                    // a panic is the property.
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized chains stay recoverable at every truncation, and the
    /// final state always recovers exactly.
    #[test]
    fn truncation_property_holds_on_random_chains(seed in 100u64..10_000) {
        let (storage, golden, fvl) = build_chain(seed);
        let (base, log) = storage.contents();
        let base = base.expect("chain has a base");
        // Full log: exact final state.
        let full = MemStorage::with_state(Some(base.clone()), log.clone());
        let (_, gen, report) = DurableEngine::open(fvl.clone(), Box::new(full), 64).unwrap();
        prop_assert_eq!(gen.seqno() as usize, golden.len() - 1);
        prop_assert_eq!(report.dropped_bytes, 0);
        prop_assert_eq!(&save_bytes(&gen), golden.last().unwrap());
        // A sampled set of cuts (the exhaustive sweep runs in the
        // deterministic test above).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        for _ in 0..40 {
            let cut = rand::Rng::gen_range(&mut rng, 0..=log.len());
            let truncated = MemStorage::with_state(Some(base.clone()), log[..cut].to_vec());
            if let Ok((_, gen, _)) = DurableEngine::open(fvl.clone(), Box::new(truncated), 64) {
                let seq = gen.seqno() as usize;
                prop_assert!(seq < golden.len());
                prop_assert_eq!(&save_bytes(&gen), &golden[seq]);
            }
        }
    }
}

/// The durable pipeline round trip: ingest through producers, crash
/// (drop everything), reopen, and the recovered generation must be
/// byte-identical to the last acknowledged live state — including after
/// background compactions trimmed the log.
#[test]
fn durable_pipeline_with_compaction_recovers_exactly() {
    let w = bioaid(7);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(909);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 200);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 5);

    let storage = MemStorage::new();
    let (durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let shared = shared_durable(durable);
    let policy = PublishPolicy {
        max_batch_ops: 8,
        max_delay: Duration::from_millis(1),
        ..PublishPolicy::default()
    };
    let options = PipelineOptions {
        durable: Some(shared.clone()),
        // Tiny thresholds: compact after every few publishes.
        compaction: Some(CompactionPolicy { max_log_bytes: 1 << 14, max_log_frames: 4 }),
        ..PipelineOptions::default()
    };
    let pipeline =
        IngestPipeline::spawn_with(EngineWriter::new(gen0), live.clone(), policy, options);
    let q = pipeline.queue().clone();
    let mut tickets = Vec::new();
    for chunk in labels.chunks(9) {
        tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
    }
    tickets.push(q.push(IngestOp::CompileView(view.clone(), VariantKind::Default)).unwrap());
    for t in &tickets {
        t.wait().expect("acknowledged");
    }
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none());
    let totals = report.compaction.expect("driver ran");
    assert!(totals.compactions >= 1, "tiny thresholds must have compacted");
    assert!(totals.last_error.is_none(), "compaction failed: {:?}", totals.last_error);

    let final_gen = live.snapshot();
    // "Crash": forget the pipeline, reopen from the surviving bytes.
    let (recovered_durable, recovered, rec) =
        DurableEngine::open(fvl.clone(), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!(rec.recovered_seqno, final_gen.seqno());
    assert_eq!(save_bytes(&recovered), save_bytes(&final_gen));
    assert_eq!(recovered_durable.last_seqno(), final_gen.seqno());

    // Element-identical answers on the recovered engine.
    let mut ws = WorkerScratch::new();
    let vref = wf_engine::ViewRef { id: wf_engine::ViewId(0), kind: VariantKind::Default };
    let sample: Vec<_> =
        (0..recovered.store().len().min(40) as u32).map(wf_engine::ItemId).collect();
    assert_eq!(
        recovered.all_pairs(&mut ws, vref, &sample),
        final_gen.all_pairs(&mut ws, vref, &sample)
    );
}

/// Transient storage faults are absorbed by the retry policy; fatal ones
/// stop the pipeline with every ticket resolved `Err`, never hung.
#[test]
fn transient_faults_retry_and_fatal_faults_resolve_tickets() {
    let w = bioaid(2);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(55);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let labels = fvl.labeler(&run).labels().to_vec();

    // Two transient failures on the first two append calls: the retry
    // policy must absorb both and acknowledge everything.
    let storage = MemStorage::with_plan(FaultPlan::new().transient_calls(0, 2));
    let (durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let options =
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() };
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live.clone(),
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        options,
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(labels.clone())).unwrap();
    t.wait().expect("retries absorb transient faults");
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none());
    assert!(report.stats.persist_retries >= 1, "retries must be counted");
    // The surviving log replays to the acknowledged state.
    let (_, recovered, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!(recovered.seqno(), live.snapshot().seqno());

    // A fatal fault (permission denied) gives up immediately: the ticket
    // resolves Err(Persist) and the pipeline reports the failure.
    let storage = MemStorage::with_plan(
        FaultPlan::new().at_call(0, FaultKind::Fail(std::io::ErrorKind::PermissionDenied)),
    );
    let (durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(storage), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let options =
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() };
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live.clone(),
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        options,
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(labels)).unwrap();
    match t.wait() {
        Err(wf_engine::IngestError::Persist(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected persist error: {msg}")
        }
        other => panic!("expected a persist failure, got {other:?}"),
    }
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_some());
    assert_eq!(report.stats.persist_retries, 0, "fatal errors must not burn retries");
}

/// A failed append can leave a torn partial frame in storage.
/// `DurableLog::append` truncates it back to the last frame boundary, so
/// the retry lands on a clean tail instead of burying the torn bytes
/// mid-log. Here a transient failure tears the first frame's header and a
/// short write tears the second frame's payload: the retry policy absorbs
/// both, and reopening recovers every acknowledged seqno with nothing to
/// heal.
#[test]
fn torn_appends_roll_back_so_retries_recover_every_ack() {
    let w = bioaid(3);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(21);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let labels = fvl.labeler(&run).labels().to_vec();
    let chunks: Vec<_> = labels.chunks(labels.len() / 3 + 1).map(<[_]>::to_vec).collect();

    // One publish per chunk: each ticket is waited out before the next push.
    let ingest = |storage: &MemStorage| {
        let (durable, gen0, _) =
            DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
        let live = Arc::new(LiveEngine::new(gen0.clone()));
        let options = PipelineOptions {
            durable: Some(shared_durable(durable)),
            ..PipelineOptions::default()
        };
        let pipeline = IngestPipeline::spawn_with(
            EngineWriter::new(gen0),
            live.clone(),
            PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
            options,
        );
        let acked: Vec<u64> = chunks
            .iter()
            .map(|c| {
                let t = pipeline.queue().push(IngestOp::InsertLabels(c.clone())).unwrap();
                t.wait().expect("retries absorb the torn appends")
            })
            .collect();
        (acked, pipeline.shutdown(), live.snapshot())
    };

    // A fault-free run fixes the frame layout the faults aim into.
    let golden = MemStorage::new();
    let (golden_acked, _, _) = ingest(&golden);
    let golden_log = golden.contents().1;
    let frames = scan_log(&golden_log).unwrap().frames;
    assert_eq!(frames.len(), chunks.len(), "one frame per publish");
    let first_len = frames[0].payload.end as u64;
    let second_len = (frames[1].payload.end - frames[1].start) as u64;

    // The plan meters every byte handed to `append_log`, torn ones
    // included: 20 bytes into frame 1 (its header), then halfway into
    // frame 2 once frame 1 has landed whole.
    let torn_header = 20;
    let plan = FaultPlan::new()
        .at_byte(torn_header, FaultKind::Fail(std::io::ErrorKind::Interrupted))
        .at_byte(torn_header + first_len + second_len / 2, FaultKind::ShortWrite);
    let storage = MemStorage::with_plan(plan);
    let (acked, report, final_gen) = ingest(&storage);
    assert!(report.persist_error.is_none());
    assert_eq!(report.stats.persist_retries, 2, "both torn appends were retried");
    assert_eq!(acked, golden_acked);

    let (_, recovered, recovery) =
        DurableEngine::open(fvl.clone(), Box::new(storage.survivor()), 64)
            .expect("a rolled-back log reopens");
    assert_eq!(recovery.dropped_bytes, 0);
    assert_eq!(recovered.seqno(), *acked.last().unwrap());
    assert_eq!(save_bytes(&recovered), save_bytes(&final_gen));
    assert!(storage.contents().1 == golden_log, "no torn byte survives a rollback");
}

/// `wait_timeout` bounds waiting on a stalled pipeline: `None` while the
/// op is in flight, the real outcome once the publisher gets to it.
#[test]
fn wait_timeout_bounds_stalled_waits() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let writer = EngineWriter::from_fvl(fvl);
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    // A policy that effectively never publishes on its own.
    let policy = PublishPolicy {
        max_batch_ops: usize::MAX,
        max_batch_bytes: usize::MAX,
        max_delay: Duration::from_secs(3600),
        ..PublishPolicy::default()
    };
    let pipeline = IngestPipeline::spawn(writer, live, policy);
    let t = pipeline
        .queue()
        .push(IngestOp::AddView(views::random_safe_view(&w, &mut StdRng::seed_from_u64(9), 3)))
        .unwrap();
    assert!(
        t.wait_timeout(Duration::from_millis(30)).is_none(),
        "an unpublished op must time out, not resolve"
    );
    // Shutdown publishes the staged op; the same ticket now resolves.
    let report = pipeline.shutdown();
    assert!(t.wait_timeout(Duration::from_millis(100)).expect("resolved").is_ok());
    assert_eq!(report.stats.op_errors, 0);
}

/// A zero shard capacity is a typed [`SnapshotError::InvalidArgument`]
/// from both loaders that take one, raised before anything is read or
/// written: `open` must leave a fresh storage without a base.
#[test]
fn zero_shard_capacity_is_a_typed_error_not_a_panic() {
    let (storage, golden, fvl) = build_chain(5);
    let got = EngineGeneration::load_with_shard_capacity(fvl.clone(), &mut &golden[1][..], 0);
    assert!(matches!(got, Err(SnapshotError::InvalidArgument(_))));

    let before = storage.contents();
    let got = DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 0);
    assert!(matches!(got, Err(SnapshotError::InvalidArgument(_))));
    assert_eq!(storage.contents(), before, "a rejected open leaves the storage as it was");

    let fresh = MemStorage::new();
    let got = DurableEngine::open(fvl, Box::new(fresh.clone()), 0);
    assert!(matches!(got, Err(SnapshotError::InvalidArgument(_))));
    assert_eq!(fresh.contents(), (None, Vec::new()), "no base is bootstrapped");
}

/// An append whose seqno does not chain onto the newest durable publish —
/// a repeat or a gap — is refused with `InvalidInput` before anything is
/// written, in every build profile. Had it been written, the next open
/// would reject the whole store; instead the log is unchanged and a
/// reopen recovers the last good seqno.
#[test]
fn non_chaining_append_is_rejected_before_anything_is_written() {
    let w = bioaid(2);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let (_, run) = sample::sample_run(&w, &pg, &mut StdRng::seed_from_u64(2), 40);
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.insert_labels(fvl.labeler(&run).labels());
    let mut record = Vec::new();
    let g1 = writer.publish_with_delta(&live, &mut record).unwrap();
    durable.append(g1.seqno(), &record).unwrap();
    let before = durable.status();

    for bad_seqno in [g1.seqno(), g1.seqno() + 2] {
        let err = durable.append(bad_seqno, &record).expect_err("non-chaining append");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "seqno {bad_seqno}");
        assert_eq!(durable.status().bytes, before.bytes, "seqno {bad_seqno} wrote bytes");
        assert_eq!(durable.status().frames, before.frames, "seqno {bad_seqno} wrote a frame");
        assert_eq!(durable.last_seqno(), g1.seqno());
    }

    let (_, recovered, report) = DurableEngine::open(fvl, Box::new(storage), 64).unwrap();
    assert_eq!(recovered.seqno(), g1.seqno());
    assert_eq!(report.replayed_frames, 1);
    assert_eq!(save_bytes(&recovered), save_bytes(&g1));
}
