//! The generational engine: owned, atomically-published generations that
//! let writes land while reads keep flowing.
//!
//! [`crate::EngineCore`] is borrow-chained to one [`Fvl`], registry and
//! store: correct, fast — and *static*. Any mutation (a new view, freshly
//! labeled items) needs `&mut` access to the parts, which invalidates every
//! frozen reader; a serving process would have to stop the world to grow.
//! Real provenance stores never stop growing: runs are append-heavy, and
//! views accrete as users search and refine them.
//!
//! The split here is RCU-shaped — readers pay nothing, writers pay copies:
//!
//! * [`EngineGeneration`] — one immutable, *owned* engine state: shared
//!   scheme ([`Fvl::from_arc`], so no borrow chain), view registry, label
//!   store, and a sequence number. `Send + Sync` is a compile-checked
//!   invariant; a generation answers queries through `&self` exactly like
//!   the frozen core (it *is* one, via [`EngineGeneration::core`]).
//! * [`EngineWriter`] — the single writer. Mutations stage against a lazy
//!   copy-on-write clone of the base generation (registry clones are
//!   refcount bumps per compiled label; the store clone is a refcount bump
//!   per *shard*, and staging un-shares only the tail shards an insert
//!   batch lands in — see [`LabelStore`]), so nothing a reader can see is
//!   ever mutated in place, and the cost of a publish cycle tracks the
//!   *increment*, not the store size.
//! * [`LiveEngine`] — the publication point. `publish` swaps the current
//!   `Arc<EngineGeneration>` under a `std::sync::Mutex` (publishes are
//!   rare); readers obtain the current generation with a **lock-free fast
//!   path** — an atomic seqno check against a thread-local cache, then a
//!   lock-free `Arc` clone — and fall back to the brief mutex only on the
//!   first read after a publish. In-flight readers simply finish on the
//!   generation they hold; its memory is reclaimed when the last `Arc`
//!   drops. No reader ever blocks a writer, and a writer never blocks the
//!   query path.
//!
//! Persistence is generation-aware and has one format:
//! [`EngineGeneration::save`] writes a full base snapshot,
//! [`EngineWriter::publish_with_delta`] appends a *delta record* (just what
//! this publish added) to the same stream, [`EngineGeneration::load`]
//! restores a base, and [`EngineGeneration::replay`] warm-starts by reading
//! base ‖ delta ‖ … until end of stream — restart cost proportional to what
//! changed, not to the store.

use crate::error::EngineError;
use crate::frozen::{EngineCore, WorkerScratch};
use crate::registry::{ViewId, ViewRef, ViewRegistry};
use crate::staging::StagedState;
use crate::store::{ItemId, LabelStore};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wf_bitio::{BitReader, BitWriter};
use wf_core::{DataLabel, Fvl, FvlError, VariantKind};
use wf_model::View;
use wf_snapshot::{
    oplog::{self, OplogOp},
    read_container, read_container_opt, read_label, spec_fingerprint, write_container, Container,
    SnapshotError,
};

/// Section tags inside a snapshot payload (one byte each, in order). A
/// base snapshot is [`SECTION_GENERATION`] ‖ seqno ‖ [`SECTION_STORE`] ‖
/// store ‖ [`SECTION_REGISTRY`] ‖ registry; a delta record opens with
/// [`SECTION_DELTA`]. A payload that opens with any other tag is rejected
/// as malformed.
const SECTION_STORE: u64 = 0x01;
const SECTION_REGISTRY: u64 = 0x02;
const SECTION_GENERATION: u64 = 0x03;
const SECTION_DELTA: u64 = 0x04;

/// The store + registry payload sections of a base snapshot.
fn write_engine_sections(
    fvl: &Fvl<'_>,
    store: &LabelStore,
    registry: &ViewRegistry,
    w: &mut BitWriter,
) {
    w.write_bits(SECTION_STORE, 8);
    store.write_snapshot(fvl.codec(), w);
    w.write_bits(SECTION_REGISTRY, 8);
    registry.write_snapshot(&fvl.spec().grammar, w);
}

/// Inverse of [`write_engine_sections`]. The wire format is shard-agnostic
/// (one merged trie — see [`LabelStore::write_snapshot`]); `shard_capacity`
/// is the layout the loaded store is re-sharded into.
fn read_engine_sections(
    fvl: &Fvl<'_>,
    r: &mut BitReader<'_>,
    shard_capacity: u32,
) -> Result<(LabelStore, ViewRegistry), SnapshotError> {
    expect_section(r, SECTION_STORE)?;
    let store = LabelStore::read_snapshot_with_capacity(
        r,
        fvl.codec(),
        &fvl.spec().grammar,
        fvl.prod_graph(),
        shard_capacity,
    )?;
    expect_section(r, SECTION_REGISTRY)?;
    let registry = ViewRegistry::read_snapshot(r, &fvl.spec().grammar, fvl.prod_graph())?;
    Ok((store, registry))
}

fn expect_section(r: &mut BitReader<'_>, tag: u64) -> Result<(), SnapshotError> {
    if r.read_bits(8)? != tag {
        return Err(SnapshotError::Malformed("unexpected section tag"));
    }
    Ok(())
}

/// One immutable, owned engine state: everything the read path needs, with
/// no borrow reaching outside the `Arc` it is published in.
pub struct EngineGeneration {
    fvl: Arc<Fvl<'static>>,
    registry: ViewRegistry,
    store: LabelStore,
    seqno: u64,
}

// The whole point of owning the parts: a generation crosses threads freely
// behind its `Arc`, and `LiveEngine` is shared by every reader and the
// writer. If any field ever gains a borrow or interior mutability that
// breaks this, the build fails here.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<EngineGeneration>();
    shared_across_threads::<LiveEngine>();
};

impl EngineGeneration {
    /// The empty first generation (seqno 0): no items, no views. Mutations
    /// flow through an [`EngineWriter`] from here.
    pub fn empty(fvl: Arc<Fvl<'static>>) -> Self {
        Self::empty_with_shard_capacity(fvl, LabelStore::DEFAULT_SHARD_CAPACITY)
    }

    /// [`EngineGeneration::empty`] over a store of `shard_capacity`-item
    /// shards (see [`LabelStore::with_shard_capacity`]). The capacity is
    /// inherited by every later generation of the chain: staging clones the
    /// store, and the clone keeps its layout.
    pub fn empty_with_shard_capacity(fvl: Arc<Fvl<'static>>, shard_capacity: u32) -> Self {
        Self {
            fvl,
            registry: ViewRegistry::new(),
            store: LabelStore::with_shard_capacity(shard_capacity),
            seqno: 0,
        }
    }

    pub fn fvl(&self) -> &Arc<Fvl<'static>> {
        &self.fvl
    }

    /// The generation's position in the publish chain (0 = empty origin;
    /// each publish increments by exactly one).
    pub fn seqno(&self) -> u64 {
        self.seqno
    }

    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// The generation as a frozen serving core: the lock-free, `Sync`,
    /// `&self` read path, including the `try_par_*` fan-outs. Building one
    /// is free.
    pub fn core(&self) -> EngineCore<'_> {
        EngineCore::new(self.fvl.as_ref(), &self.registry, &self.store)
    }

    /// One dependency query against this generation (typed-error form).
    pub fn try_query(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        a: ItemId,
        b: ItemId,
    ) -> Result<Option<bool>, EngineError> {
        self.core().try_query(ws, view, a, b)
    }

    /// A batch of pairs answered against this generation (allocating
    /// convenience; panics on bad handles — [`EngineCore::try_query_batch_into`]
    /// is the typed form).
    pub fn query_batch(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        pairs: &[(ItemId, ItemId)],
    ) -> Vec<Option<bool>> {
        let mut out = Vec::with_capacity(pairs.len());
        self.core()
            .try_query_batch_into(ws, view, pairs, &mut out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Every dependent ordered pair of `items` under `view` (row-major).
    pub fn all_pairs(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        items: &[ItemId],
    ) -> Vec<(ItemId, ItemId)> {
        let mut out = Vec::new();
        self.core().try_all_pairs_into(ws, view, items, &mut out).unwrap_or_else(|e| panic!("{e}"));
        out
    }

    fn fingerprint(&self) -> u64 {
        spec_fingerprint(&self.fvl.spec().grammar, self.fvl.prod_graph())
    }

    /// Persists this generation as a *base* snapshot — seqno, the interned
    /// label store (trie nodes in creation order, so shared prefixes stay
    /// shared on disk), every registered view and every compiled label
    /// including the Query-Efficient power caches — under the versioned,
    /// checksummed `wf-snapshot` container. Scratch state (matrix pool,
    /// chain-power memo) is not persisted: it rebuilds in a handful of
    /// queries. Delta records appended to the same stream by
    /// [`EngineWriter::publish_with_delta`] chain onto it;
    /// [`EngineGeneration::replay`] restores the latest state.
    pub fn save(&self, to: &mut impl Write) -> Result<(), SnapshotError> {
        let mut w = BitWriter::new();
        w.write_bits(SECTION_GENERATION, 8);
        w.write_gamma(self.seqno + 1);
        write_engine_sections(&self.fvl, &self.store, &self.registry, &mut w);
        write_container(to, self.fingerprint(), &w.finish())
    }

    /// Restores one base snapshot written by [`EngineGeneration::save`]
    /// (stopping at its end — see [`EngineGeneration::replay`] for the
    /// base-plus-deltas form) against the *same* specification: the header
    /// fingerprint is checked before any payload bit is read, and a
    /// snapshot of another spec is [`SnapshotError::SpecMismatch`].
    ///
    /// `ItemId`s and `ViewId`s are stable across save/load, and every
    /// compiled `(view, variant)` arrives compiled — a warm start never
    /// re-runs labeling, compilation or cycle-finding. Truncated, corrupted
    /// or version-mismatched input yields a typed [`SnapshotError`]; this
    /// constructor never panics on bad bytes.
    pub fn load(fvl: Arc<Fvl<'static>>, from: &mut impl Read) -> Result<Self, SnapshotError> {
        Self::load_with_shard_capacity(fvl, from, LabelStore::DEFAULT_SHARD_CAPACITY)
    }

    /// [`EngineGeneration::load`] re-sharding the store at `shard_capacity`
    /// — the wire format carries no layout (see
    /// [`LabelStore::write_snapshot`]), so a stream saved at any capacity
    /// (including pre-shard streams) loads at any other. A zero
    /// `shard_capacity` is [`SnapshotError::InvalidArgument`], raised
    /// before anything is read.
    pub fn load_with_shard_capacity(
        fvl: Arc<Fvl<'static>>,
        from: &mut impl Read,
        shard_capacity: u32,
    ) -> Result<Self, SnapshotError> {
        LabelStore::check_shard_capacity(shard_capacity)?;
        let container = read_container(from)?;
        let expected = spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
        if container.fingerprint != expected {
            return Err(SnapshotError::SpecMismatch { expected, found: container.fingerprint });
        }
        let mut r = BitReader::new(&container.payload);
        expect_section(&mut r, SECTION_GENERATION)?;
        let seqno = r.read_gamma()? - 1;
        let (store, registry) = read_engine_sections(&fvl, &mut r, shard_capacity)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing payload bits"));
        }
        Ok(Self { fvl, registry, store, seqno })
    }

    /// Warm restart from an append-only stream: one base snapshot followed
    /// by any number of delta records, replayed in order. Each delta must
    /// chain exactly onto the generation before it (consecutive seqnos
    /// against the same spec fingerprint); gaps, reordering and every form
    /// of corruption are rejected with typed errors. Returns the newest
    /// generation — hand it to [`LiveEngine::new`] and serving resumes
    /// where the last publish left off.
    pub fn replay(
        fvl: Arc<Fvl<'static>>,
        from: &mut impl Read,
    ) -> Result<EngineGeneration, SnapshotError> {
        Self::replay_with_shard_capacity(fvl, from, LabelStore::DEFAULT_SHARD_CAPACITY)
    }

    /// [`EngineGeneration::replay`] re-sharding at `shard_capacity` (see
    /// [`EngineGeneration::load_with_shard_capacity`]); the deltas replay
    /// into the re-sharded store, crossing its boundaries wherever the ids
    /// land.
    pub fn replay_with_shard_capacity(
        fvl: Arc<Fvl<'static>>,
        from: &mut impl Read,
        shard_capacity: u32,
    ) -> Result<EngineGeneration, SnapshotError> {
        let mut gen = Self::load_with_shard_capacity(fvl, from, shard_capacity)?;
        while let Some(record) = read_container_opt(from)? {
            gen = gen.apply_delta(&record)?;
        }
        Ok(gen)
    }

    /// Applies one container-framed delta record, yielding the successor
    /// generation — the one decode step shared by
    /// [`EngineGeneration::replay`] and `DurableEngine::open`. The record
    /// must carry this generation's spec fingerprint and no trailing
    /// payload bits. Its payload is the op-log framing
    /// ([`wf_snapshot::oplog`]): the increment as typed ops in the order the
    /// publisher applied them. Replay reproduces exactly what was staged:
    /// labels re-intern into the same dense ids, views re-register
    /// (structural dedup makes that deterministic) and must land on their
    /// recorded ids, and compiled labels install into empty slots only.
    pub(crate) fn apply_delta(
        &self,
        record: &Container,
    ) -> Result<EngineGeneration, SnapshotError> {
        let expected = self.fingerprint();
        if record.fingerprint != expected {
            return Err(SnapshotError::SpecMismatch { expected, found: record.fingerprint });
        }
        let r = &mut BitReader::new(&record.payload);
        expect_section(r, SECTION_DELTA)?;
        let base = r.read_gamma()? - 1;
        let seqno = r.read_gamma()? - 1;
        if base != self.seqno || seqno != self.seqno + 1 {
            return Err(SnapshotError::Malformed("delta does not chain onto this generation"));
        }
        let grammar = &self.fvl.spec().grammar;
        let pg = self.fvl.prod_graph();
        let cycles =
            pg.cycles().map_err(|_| SnapshotError::Malformed("spec has no cycle tables"))?;
        let mut store = self.store.clone();
        let mut registry = self.registry.clone();

        let op_count = (r.read_gamma()? - 1) as usize;
        for _ in 0..op_count {
            match oplog::read_op(r, grammar, pg)? {
                OplogOp::InsertLabels { count } => {
                    for _ in 0..count {
                        let d = read_label(r, self.fvl.codec(), grammar, cycles)?;
                        store.try_insert(&d).map_err(|_| {
                            SnapshotError::Malformed("label store overflow during replay")
                        })?;
                    }
                }
                OplogOp::AddView { id, view } => {
                    if registry.add_view(view).0 != id {
                        return Err(SnapshotError::Malformed("view id drift during delta replay"));
                    }
                }
                OplogOp::CompileView { id, label } => {
                    registry.adopt_compiled(ViewId(id), label)?;
                }
            }
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing payload bits"));
        }
        Ok(EngineGeneration { fvl: self.fvl.clone(), registry, store, seqno })
    }
}

/// The single-producer façade over the staging core (the crate-private
/// `StagedState`) — one thread mutating, publishing, and optionally
/// persisting a generation chain directly.
///
/// Mutations stage against a lazy copy-on-write clone of the base
/// generation — the first mutation after a publish pays the clone, and
/// readers of the published generations are never affected. `publish`
/// freezes the staged state into the next [`EngineGeneration`] and swaps
/// it into a [`LiveEngine`]; the writer then continues from the new base.
///
/// Concurrent producers do not share an `EngineWriter`: they feed an
/// [`crate::IngestQueue`] and the pipeline's publisher drives one writer
/// on their behalf ([`crate::IngestPipeline`]) — same staging core, same
/// publish path, same delta records, so a single-producer chain and a
/// multi-producer one are indistinguishable on disk and on replay.
///
/// Ids are stable across publishes: an [`ItemId`] or [`ViewRef`] handed
/// out while staging is valid in the generation that publish produces and
/// in every later one (the store and registry only grow).
pub struct EngineWriter {
    base: Arc<EngineGeneration>,
    staged: Option<StagedState>,
}

impl EngineWriter {
    /// A writer continuing the chain from `base` (freshly built, loaded,
    /// or the result of an earlier publish).
    pub fn new(base: Arc<EngineGeneration>) -> Self {
        Self { base, staged: None }
    }

    /// A writer starting a brand-new chain from the empty generation.
    pub fn from_fvl(fvl: Arc<Fvl<'static>>) -> Self {
        Self::new(Arc::new(EngineGeneration::empty(fvl)))
    }

    /// [`EngineWriter::from_fvl`] with an explicit store shard capacity
    /// (see [`EngineGeneration::empty_with_shard_capacity`]).
    pub fn from_fvl_with_shard_capacity(fvl: Arc<Fvl<'static>>, shard_capacity: u32) -> Self {
        Self::new(Arc::new(EngineGeneration::empty_with_shard_capacity(fvl, shard_capacity)))
    }

    /// The generation this writer's staged changes build on (the most
    /// recently published one, once anything was published).
    pub fn base(&self) -> &Arc<EngineGeneration> {
        &self.base
    }

    /// Whether anything is staged and unpublished.
    pub fn has_staged_changes(&self) -> bool {
        self.staged.is_some()
    }

    fn staged(&mut self) -> &mut StagedState {
        self.staged.get_or_insert_with(|| StagedState::from_base(&self.base))
    }

    /// Stages one data label; the returned id is valid from the next
    /// publish on. The staged store is the single copy of the label — the
    /// delta writer re-materializes the `base.len()..staged.len()` id range
    /// on demand, so heavy ingest never pays double storage for its
    /// increment.
    pub fn try_insert_label(&mut self, d: &DataLabel) -> Result<ItemId, EngineError> {
        self.staged().try_insert(d)
    }

    /// Stages a slice of labels in order. Panics on a full store —
    /// [`EngineWriter::try_insert_labels`] is the typed form.
    pub fn insert_labels(&mut self, labels: &[DataLabel]) -> Vec<ItemId> {
        self.try_insert_labels(labels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`EngineWriter::insert_labels`]: stops at the first
    /// label that cannot be staged, leaving the earlier ones staged. The
    /// error is [`EngineError::BatchStoreFull`] with the failing label's
    /// batch index, so the caller can retry `labels[index..]`.
    pub fn try_insert_labels(&mut self, labels: &[DataLabel]) -> Result<Vec<ItemId>, EngineError> {
        self.staged().try_insert_all(labels)
    }

    /// Stages a view registration (structural dedup applies: re-adding a
    /// known view returns its existing id and stages nothing).
    pub fn add_view(&mut self, view: View) -> ViewId {
        self.staged().add_view(view)
    }

    /// Stages the compilation of `(id, kind)` (idempotent across the whole
    /// chain: a label compiled in any earlier generation is reused).
    pub fn compile(&mut self, id: ViewId, kind: VariantKind) -> Result<ViewRef, FvlError> {
        let fvl = self.base.fvl.clone();
        self.staged().compile(&fvl, id, kind)
    }

    /// Register + compile in one step.
    pub fn register_view(&mut self, view: View, kind: VariantKind) -> Result<ViewRef, FvlError> {
        let id = self.add_view(view);
        self.compile(id, kind)
    }

    fn freeze_staged(&mut self, st: StagedState) -> Arc<EngineGeneration> {
        let gen = Arc::new(EngineGeneration {
            fvl: self.base.fvl.clone(),
            registry: st.registry,
            store: st.store,
            seqno: self.base.seqno + 1,
        });
        self.base = gen.clone();
        gen
    }

    /// Freezes the staged state into the next generation and publishes it
    /// on `live`. In-flight readers finish on their old generation; new
    /// reads see this one. With nothing staged this is a no-op returning
    /// the current base (publishing an unchanged state would only churn
    /// reader caches).
    pub fn publish(&mut self, live: &LiveEngine) -> Arc<EngineGeneration> {
        match self.staged.take() {
            None => self.base.clone(),
            Some(st) => {
                let gen = self.freeze_staged(st);
                live.publish(gen.clone());
                gen
            }
        }
    }

    /// [`EngineWriter::publish`] that first appends a delta record — what
    /// this publish added, nothing more — to `out`. Appending every
    /// publish to the stream that starts with a base
    /// [`EngineGeneration::save`] keeps an on-disk replica that
    /// [`EngineGeneration::replay`] can warm-start from at any moment; the
    /// write happens *before* the swap, so a crash between the two loses
    /// the publish, never the stream. On `Err` nothing is consumed: the
    /// staged state stays intact for a retry, no generation is published,
    /// and the record was handed to `out` as one buffered `write_all` (a
    /// sink that accepts writes atomically — or is truncated back to the
    /// last record boundary on recovery — keeps the stream replayable).
    pub fn publish_with_delta(
        &mut self,
        live: &LiveEngine,
        out: &mut impl Write,
    ) -> Result<Arc<EngineGeneration>, SnapshotError> {
        if self.staged.is_none() {
            return Ok(self.base.clone());
        }
        let record = self.delta_record()?;
        out.write_all(&record)?;
        let st = self.staged.take().expect("staged presence checked above");
        let gen = self.freeze_staged(st);
        live.publish(gen.clone());
        Ok(gen)
    }

    /// The staged increment as `(next_seqno, delta_record)` without
    /// consuming it — the durable pipeline appends the record (with
    /// retries) to its op-log *before* committing the publish, so the
    /// fsync is the acknowledgement barrier. `None` with nothing staged.
    pub(crate) fn staged_record(&self) -> Option<Result<(u64, Vec<u8>), SnapshotError>> {
        self.staged.as_ref()?;
        Some(self.delta_record().map(|record| (self.base.seqno + 1, record)))
    }

    /// Serializes the staged increment into one container-framed delta
    /// record — the op-log of this publish, in application order
    /// (borrowing the staged state — nothing is consumed).
    fn delta_record(&self) -> Result<Vec<u8>, SnapshotError> {
        let st = self.staged.as_ref().expect("caller checked staged presence");
        let fvl = &self.base.fvl;
        let mut w = BitWriter::new();
        w.write_bits(SECTION_DELTA, 8);
        st.write_delta(fvl, self.base.seqno, &mut w);
        let fp = spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
        let mut record = Vec::new();
        write_container(&mut record, fp, &w.finish())?;
        Ok(record)
    }
}

/// Global id source for [`LiveEngine`]s — what keys the thread-local
/// reader cache, so generations of distinct live engines can never be
/// confused for one another.
static NEXT_LIVE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread reader cache: `(live engine id, seqno, generation)` of
    /// the last generation this thread read. One entry suffices — a thread
    /// serving one live engine (the overwhelmingly common shape) hits it
    /// every time; alternating between several live engines falls back to
    /// the brief mutex path, never to wrong answers.
    static READER_CACHE: RefCell<Option<(u64, u64, Arc<EngineGeneration>)>> =
        const { RefCell::new(None) };
}

/// The publication point readers poll and the writer swaps.
///
/// Reads are wait-free in steady state: one atomic load, one thread-local
/// compare, one lock-free `Arc` refcount bump. The `Mutex` is touched only
/// by `publish` (rare by construction) and by the first read after a
/// publish — and it guards nothing but the pointer swap, so even that read
/// blocks for nanoseconds, never for the duration of anyone's query.
pub struct LiveEngine {
    id: u64,
    seq: AtomicU64,
    current: Mutex<Arc<EngineGeneration>>,
}

impl LiveEngine {
    pub fn new(initial: Arc<EngineGeneration>) -> Self {
        Self {
            id: NEXT_LIVE_ID.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(initial.seqno),
            current: Mutex::new(initial),
        }
    }

    /// The seqno of the most recently published generation.
    pub fn seqno(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// The current generation via the mutex (no thread-local involvement;
    /// diagnostics and single-shot callers).
    pub fn snapshot(&self) -> Arc<EngineGeneration> {
        self.current.lock().expect("live engine mutex poisoned").clone()
    }

    /// The current generation via the lock-free fast path. Always returns
    /// *some published* generation; immediately after a publish it may be
    /// the previous one (a reader that must observe its own writer's
    /// publish should use [`LiveEngine::snapshot`]).
    ///
    /// The thread-local cache retains one `Arc` per thread until that
    /// thread's next `read` — an idle reader thread therefore keeps at
    /// most one old generation alive, a deliberate trade for a read path
    /// with no locks and no reclamation machinery.
    pub fn read(&self) -> Arc<EngineGeneration> {
        let seq = self.seq.load(Ordering::Acquire);
        let hit = READER_CACHE.with(|c| match &*c.borrow() {
            Some((id, s, gen)) if *id == self.id && *s == seq => Some(gen.clone()),
            _ => None,
        });
        if let Some(gen) = hit {
            return gen;
        }
        let gen = self.snapshot();
        READER_CACHE.with(|c| *c.borrow_mut() = Some((self.id, gen.seqno, gen.clone())));
        gen
    }

    /// Atomically replaces the current generation. Readers holding the old
    /// generation finish undisturbed; new reads see `gen`. Panics if `gen`
    /// does not advance the chain (a writer bug, not an input).
    pub fn publish(&self, gen: Arc<EngineGeneration>) {
        let mut cur = self.current.lock().expect("live engine mutex poisoned");
        assert!(
            gen.seqno > cur.seqno,
            "published generations must have strictly increasing seqnos ({} -> {})",
            cur.seqno,
            gen.seqno
        );
        *cur = gen;
        self.seq.store(cur.seqno, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    fn shared_fvl() -> Arc<Fvl<'static>> {
        let ex = paper_example();
        Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap())
    }

    #[test]
    fn writer_stages_and_publishes_without_disturbing_readers() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let (run, ids) = figure3_run(&ex);
        let labels = Fvl::new(&ex.spec).unwrap().labeler(&run).labels().to_vec();

        let mut writer = EngineWriter::from_fvl(fvl);
        let items = writer.insert_labels(&labels);
        let u2 = writer.register_view(ex.view_u2(), VariantKind::Default).unwrap();
        let live = LiveEngine::new(writer.base().clone());
        assert_eq!(live.seqno(), 0, "nothing published yet");
        let g1 = writer.publish(&live);
        assert_eq!(g1.seqno(), 1);
        assert_eq!(live.seqno(), 1);

        // Example 8 answered by the published generation.
        let mut ws = WorkerScratch::new();
        let (d17, d31) = (items[ids.d17.0 as usize], items[ids.d31.0 as usize]);
        let old = live.read();
        assert_eq!(old.try_query(&mut ws, u2, d17, d31).unwrap(), Some(true));

        // Stage + publish a second view; the held generation is unchanged.
        let u1 = writer.register_view(ex.view_u1(), VariantKind::Default).unwrap();
        let g2 = writer.publish(&live);
        assert_eq!(g2.seqno(), 2);
        assert_eq!(old.seqno(), 1, "readers keep their generation across publishes");
        assert!(old.registry().label(u1).is_none(), "old generation never sees new views");
        let new = live.read();
        assert_eq!(new.seqno(), 2);
        assert_eq!(new.try_query(&mut ws, u1, d17, d31).unwrap(), Some(false));
        assert_eq!(new.try_query(&mut ws, u2, d17, d31).unwrap(), Some(true));

        // Publishing with nothing staged is a no-op.
        assert!(!writer.has_staged_changes());
        let g2b = writer.publish(&live);
        assert_eq!(g2b.seqno(), 2);
        assert_eq!(live.seqno(), 2);
    }

    #[test]
    fn read_fast_path_tracks_publishes() {
        let fvl = shared_fvl();
        let mut writer = EngineWriter::from_fvl(fvl);
        let live = LiveEngine::new(writer.base().clone());
        // Warm the thread-local cache, then publish and read again: the
        // fast path must move to the new generation (seqno check), and a
        // repeated read must hit the cache (same Arc).
        let a = live.read();
        assert_eq!(a.seqno(), 0);
        let ex = paper_example();
        writer.add_view(ex.view_u1());
        writer.publish(&live);
        let b = live.read();
        assert_eq!(b.seqno(), 1);
        let c = live.read();
        assert!(Arc::ptr_eq(&b, &c), "cached fast path returns the same generation");
    }

    #[test]
    fn compile_reuses_labels_across_generations() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let mut writer = EngineWriter::from_fvl(fvl);
        let v = writer.register_view(ex.view_u1(), VariantKind::Default).unwrap();
        let live = LiveEngine::new(writer.base().clone());
        let g1 = writer.publish(&live);
        let uid1 = g1.registry().label(v).unwrap().uid();
        // A later generation that recompiles the same pair shares the
        // compiled label (same uid — scratch memos stay warm and sound).
        writer.add_view(ex.view_u2());
        let v_again = writer.compile(v.id, VariantKind::Default).unwrap();
        assert_eq!(v_again, v);
        let g2 = writer.publish(&live);
        assert_eq!(g2.registry().label(v).unwrap().uid(), uid1);
    }
}
