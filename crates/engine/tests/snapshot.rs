//! Snapshot persistence: a loaded generation must be indistinguishable from
//! the generation that wrote the snapshot — same answers, same ids, same
//! trie — and bad bytes must be rejected with typed errors, never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_bitio::BitWriter;
use wf_core::{Fvl, VariantKind};
use wf_engine::{
    EngineGeneration, EngineWriter, LiveEngine, SnapshotError, ViewRef, WorkerScratch,
};
use wf_snapshot::{spec_fingerprint, write_container};
use wf_workloads::{bioaid, sample, views, Workload};

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

/// Publishes everything `writer` staged as the next generation.
fn publish(writer: &mut EngineWriter) -> Arc<EngineGeneration> {
    writer.publish(&LiveEngine::new(writer.base().clone()))
}

/// Builds a generation with a labeled run and one view compiled under
/// every variant, returning its base-snapshot bytes.
fn build_and_save(seed: u64, run_size: usize, view_size: usize) -> Vec<u8> {
    let w = bioaid(seed);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, view_size);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    writer.insert_labels(labeler.labels());
    let vid = writer.add_view(view);
    for kind in VARIANTS {
        writer.compile(vid, kind).unwrap();
    }
    let mut bytes = Vec::new();
    publish(&mut writer).save(&mut bytes).unwrap();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A snapshot-loaded generation answers `all_pairs` (and with it every
    /// pairwise query, visibility included) identically to a freshly
    /// labeled one, for all three variants. The item subset deliberately
    /// includes the run's boundary items — labels whose `out` or `inp`
    /// side is `None` exercise the store's root-pointing empty paths.
    #[test]
    fn loaded_engine_agrees_with_fresh_one(
        seed in 0u64..500,
        view_size in 2usize..10,
        run_size in 40usize..200,
    ) {
        let w = bioaid(seed % 5);
        let fvl = shared_fvl(&w);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labeler = fvl.labeler(&run);
        let view = views::random_safe_view(&w, &mut rng, view_size);

        let mut writer = EngineWriter::from_fvl(fvl.clone());
        let items = writer.insert_labels(labeler.labels());
        let vid = writer.add_view(view);
        for kind in VARIANTS {
            writer.compile(vid, kind).unwrap();
        }
        let fresh = publish(&mut writer);
        let mut bytes = Vec::new();
        fresh.save(&mut bytes).unwrap();
        let loaded = EngineGeneration::load(fvl.clone(), &mut bytes.as_slice()).unwrap();

        prop_assert_eq!(loaded.seqno(), fresh.seqno());
        prop_assert_eq!(loaded.store().len(), fresh.store().len());
        prop_assert_eq!(loaded.store().edge_stats(), fresh.store().edge_stats());
        prop_assert_eq!(loaded.registry().view_count(), 1);
        prop_assert_eq!(loaded.registry().compiled_count(), 3);

        // Boundary items first (None-sided labels), then a spread of the
        // run's interior.
        let mut subset: Vec<_> = run
            .initial_inputs()
            .chain(run.final_outputs())
            .map(|d| items[d.0 as usize])
            .collect();
        subset.extend(items.iter().copied().step_by(5));
        subset.truncate(40);
        let mut ws = WorkerScratch::new();
        for kind in VARIANTS {
            let vref = ViewRef { id: vid, kind };
            prop_assert_eq!(
                loaded.all_pairs(&mut ws, vref, &subset),
                fresh.all_pairs(&mut ws, vref, &subset),
                "{:?}", kind
            );
        }
    }
}

/// Mutate-after-load: a loaded generation is a *live* base, not a
/// read-only replica. Inserting more labels and registering a new view on
/// a writer over it, then saving and loading again, must agree with a
/// cold-built generation that saw everything from the start — ids, trie
/// sharing and `all_pairs` answers included.
#[test]
fn mutate_after_load_roundtrips_like_a_cold_engine() {
    let w = bioaid(9);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(9);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 200);
    let labeler = fvl.labeler(&run);
    let labels = labeler.labels();
    let half = labels.len() / 2;
    let view_a = views::random_safe_view(&w, &mut rng, 6);
    let view_b = views::random_safe_view(&w, &mut rng, 10);

    // Save with half the labels and one view…
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    writer.insert_labels(&labels[..half]);
    let va = writer.add_view(view_a.clone());
    writer.compile(va, VariantKind::Default).unwrap();
    let mut bytes = Vec::new();
    publish(&mut writer).save(&mut bytes).unwrap();
    drop(writer);

    // …load, grow (rest of the labels + a second view), save again…
    let loaded = EngineGeneration::load(fvl.clone(), &mut bytes.as_slice()).unwrap();
    let mut grown = EngineWriter::new(Arc::new(loaded));
    let more_ids = grown.insert_labels(&labels[half..]);
    assert_eq!(more_ids.first().map(|id| id.0 as usize), Some(half), "ids continue densely");
    let vb = grown.add_view(view_b.clone());
    for kind in VARIANTS {
        grown.compile(vb, kind).unwrap();
    }
    let mut bytes2 = Vec::new();
    publish(&mut grown).save(&mut bytes2).unwrap();

    // …and the re-load must be indistinguishable from a cold build.
    let warm = EngineGeneration::load(fvl.clone(), &mut bytes2.as_slice()).unwrap();
    let mut cold = EngineWriter::from_fvl(fvl.clone());
    let items = cold.insert_labels(labels);
    assert_eq!(cold.add_view(view_a), va);
    assert_eq!(cold.add_view(view_b), vb);
    cold.compile(va, VariantKind::Default).unwrap();
    for kind in VARIANTS {
        cold.compile(vb, kind).unwrap();
    }
    let cold = publish(&mut cold);
    assert_eq!(warm.store().len(), cold.store().len());
    assert_eq!(
        warm.store().edge_stats().0,
        cold.store().edge_stats().0,
        "the grown trie shares prefixes exactly like a cold one"
    );
    let mut ws = WorkerScratch::new();
    for (vid, kinds) in [(va, &VARIANTS[1..2]), (vb, &VARIANTS[..])] {
        for &kind in kinds {
            let vref = ViewRef { id: vid, kind };
            assert!(warm.registry().label(vref).is_some(), "{kind:?} arrives compiled");
            assert_eq!(
                warm.all_pairs(&mut ws, vref, &items),
                cold.all_pairs(&mut ws, vref, &items),
                "{kind:?} diverges after mutate-and-reload"
            );
        }
    }
}

#[test]
fn truncation_at_every_byte_is_rejected_typed() {
    let bytes = build_and_save(3, 60, 6);
    // Every strict prefix must fail with a typed error — never panic,
    // never succeed (the container checks the declared length first).
    let fvl = shared_fvl(&bioaid(3));
    for cut in 0..bytes.len() {
        match EngineGeneration::load(fvl.clone(), &mut &bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("prefix of {cut} bytes loaded successfully"),
        }
    }
}

#[test]
fn corruption_of_any_byte_is_rejected_typed() {
    let bytes = build_and_save(4, 60, 6);
    let fvl = shared_fvl(&bioaid(4));
    // Flip one bit in each of a spread of byte positions (every byte would
    // be slow at release-test sizes); all flips must be caught.
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        assert!(
            EngineGeneration::load(fvl.clone(), &mut bad.as_slice()).is_err(),
            "bit flip at byte {i} went undetected"
        );
    }
}

#[test]
fn version_and_spec_mismatches_are_typed() {
    let bytes = build_and_save(5, 60, 6);
    let w = bioaid(5);
    let fvl = shared_fvl(&w);
    let load = |bytes: &[u8]| EngineGeneration::load(fvl.clone(), &mut &bytes[..]);

    // Foreign format version.
    let mut versioned = bytes.clone();
    versioned[8] = 0x7F;
    assert!(matches!(load(&versioned), Err(SnapshotError::UnsupportedVersion { found: 0x7F, .. })));

    // Snapshot of a different specification.
    let other_fvl = shared_fvl(&bioaid(1));
    assert!(matches!(
        EngineGeneration::load(other_fvl, &mut bytes.as_slice()),
        Err(SnapshotError::SpecMismatch { .. })
    ));

    // Not a snapshot at all.
    assert!(matches!(load(b"definitely not a snapshot"), Err(SnapshotError::BadMagic)));
    // Empty stream.
    assert!(matches!(load(b""), Err(SnapshotError::Truncated)));

    // An honest container whose payload opens with the store section and
    // no generation header (the retired generation-less format).
    let mut bw = BitWriter::new();
    bw.write_bits(0x01, 8);
    let mut headerless = Vec::new();
    write_container(
        &mut headerless,
        spec_fingerprint(&w.spec.grammar, fvl.prod_graph()),
        &bw.finish(),
    )
    .unwrap();
    assert!(matches!(load(&headerless), Err(SnapshotError::Malformed(_))));
}

/// A warm-restart stream whose delta record carries a *valid* checksum but
/// a forged label — one whose first edge uses a production that does not
/// expand the start module. The integrity layer admits the container, so
/// only the path-chaining validator behind it
/// ([`wf_snapshot::edge_target_module`]) stands between the forgery and π
/// being handed mismatched matrices. It must reject structurally — a
/// `Malformed`, never `ChecksumMismatch` (the checksum is honest here) and
/// never a panic — and the stream's base prefix must stay replayable.
#[test]
fn valid_checksum_delta_with_broken_label_chain_is_rejected_structurally() {
    use wf_run::EdgeLabel;

    let w = bioaid(8);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(8);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    writer.insert_labels(fvl.labeler(&run).labels());
    let live = LiveEngine::new(writer.base().clone());
    let g1 = writer.publish(&live);
    let mut stream = Vec::new();
    g1.save(&mut stream).unwrap();
    let base_len = stream.len();

    // Hand-assemble the delta record exactly as the writer frames it
    // (0x04 section tag, γ base/new seqnos chaining onto g1, one op-log
    // entry: an insert run of one label) — except the label's edge is
    // forged.
    let g = &w.spec.grammar;
    let (k_deep, _) = g
        .productions()
        .find(|(_, p)| p.lhs != g.start())
        .expect("workload grammar has non-start productions");
    let mut bw = BitWriter::new();
    bw.write_bits(0x04, 8); // SECTION_DELTA
    bw.write_gamma(g1.seqno() + 1);
    bw.write_gamma(g1.seqno() + 2);
    bw.write_gamma(2); // one op…
    wf_snapshot::oplog::write_insert_header(&mut bw, 1); // …inserting one label…
    bw.push_bit(true); // …out side only…
    bw.push_bit(false);
    bw.write_gamma(2); // …with a one-edge path that breaks at the root.
    fvl.codec().write_edge(&mut bw, &EdgeLabel::Plain { k: k_deep, i: 0 });
    bw.write_bits(0, 8);
    write_container(&mut stream, spec_fingerprint(g, fvl.prod_graph()), &bw.finish()).unwrap();

    match EngineGeneration::replay(fvl.clone(), &mut stream.as_slice()) {
        Err(SnapshotError::Malformed(_)) => {}
        Err(other) => panic!("forged delta must fail structurally, got {other}"),
        Ok(_) => panic!("forged delta must not replay"),
    }
    let recovered = EngineGeneration::replay(fvl, &mut &stream[..base_len])
        .expect("the honest base prefix still replays");
    assert_eq!(recovered.seqno(), g1.seqno());
}

#[test]
fn save_load_save_is_byte_identical() {
    // Determinism check: a loaded generation re-saves to the exact same
    // bytes, so snapshots can be content-addressed / diffed.
    let bytes = build_and_save(6, 80, 8);
    let fvl = shared_fvl(&bioaid(6));
    let loaded = EngineGeneration::load(fvl, &mut bytes.as_slice()).unwrap();
    let mut again = Vec::new();
    loaded.save(&mut again).unwrap();
    assert_eq!(again, bytes);
}

#[test]
fn loaded_engine_serves_and_reaches_steady_state() {
    // A loaded generation is not just correct once: it serves batches
    // allocation-free like a fresh one (scratch reaches a fixed point).
    let w = bioaid(7);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 300);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 8);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.insert_labels(labeler.labels());
    let vid = writer.add_view(view);
    writer.compile(vid, VariantKind::Default).unwrap();
    let mut bytes = Vec::new();
    publish(&mut writer).save(&mut bytes).unwrap();
    drop(writer);

    let loaded = EngineGeneration::load(fvl.clone(), &mut bytes.as_slice()).unwrap();
    // The snapshot carries the compiled label: the handle is valid as is.
    let vref = ViewRef { id: vid, kind: VariantKind::Default };
    let core = loaded.core();
    let pairs = sample::sample_query_pairs(&run, &mut rng, 300);
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();
    let mut ws = WorkerScratch::new();
    let mut out = Vec::with_capacity(id_pairs.len());
    core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let want = fvl.query(
            &fvl.label_view(loaded.registry().view(vid), VariantKind::Default).unwrap(),
            labeler.label(a),
            labeler.label(b),
        );
        assert_eq!(out[i], want, "pair {i}");
    }
    core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
    let warm = ws.stats();
    for _ in 0..3 {
        core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
        assert_eq!(ws.stats(), warm, "loaded engine scratch grew after warm-up");
    }
}
