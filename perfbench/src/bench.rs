//! One benchmark run: inputs drawn from the seed, the phases, the answer
//! checks, and the metrics.
//!
//! The run, in order (README.md has the full story):
//!
//! 1. set-up — replay the served prefix of the derivation with dynamic
//!    labeling, intern the labels, compile the views, publish, answer a
//!    first query; repeated before serving, during the serving rounds and
//!    at the end, and `setup_s` is the median;
//! 2. serving rounds — per-call queries (`LiveEngine::read` +
//!    `EngineCore::try_query`, closed loop, one client), batches of 1024
//!    pairs through `try_query_batch_into`, fresh views registered one at
//!    a time until they answer, and snapshot restarts up to the first
//!    answer, interleaved over `ROUNDS` rounds;
//! 3. layer ladder (traced run only) — one pair set timed at every layer;
//! 4. durable ingest — the rest of the derivation, labeled step by step
//!    and pushed in chunks through `IngestPipeline` onto a
//!    `DurableEngine` on disk, in `ROUNDS` rounds of a saturating
//!    closed-loop burst and an open-loop slice at a fixed rate with
//!    queries served between ops;
//! 5. restart — durable recovery up to the first answered query, then the
//!    recovery check.

use std::collections::VecDeque;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wf_core::{DataLabel, Fvl, RunLabeler, VariantKind, ViewLabel};
use wf_engine::{
    serialize_base, shared_durable, CompactionPolicy, DurableEngine, EngineError, EngineGeneration,
    EngineWriter, IngestOp, IngestPipeline, IngestQueue, ItemId, LabelStore, LiveEngine,
    PipelineOptions, PublishPolicy, Ticket, ViewId, ViewRef, WorkerScratch,
};
use wf_model::{ProdId, View};
use wf_run::{InstanceId, Run};
use wf_snapshot::DiskStorage;
use wf_workloads::{queries, views, Workload};

use crate::loadgen::{ack_latency_ns, due_ns, lateness_ns};
use crate::stats::{median, Samples};
use crate::storage::{CountingStorage, IoCounters};
use crate::sys::{heap_delta, rss_bytes};
use crate::trace::{self_times, SpanId, Tracer, NONE};
use crate::workload::Params;

/// Labels per ingest op.
const CHUNK: usize = 32;
/// Set-up repetitions before serving starts.
const SETUP_REPS: usize = 3;
/// Labels the saturating closed loop ingests.
const CLOSED_LABELS: usize = 200_000;
/// Label ops between two view registration ops.
const VIEW_OP_EVERY: usize = 1000;
/// Offered rate of the open loop, in ops per second. The default policy's
/// 2 ms publish deadline expires before the next op is due, so an op is
/// normally published and persisted on its own.
const OPEN_RATE: f64 = 250.0;
/// Single queries the open loop serves after each op, and one batch
/// after every `BESIDE_BATCH_EVERY` ops.
const BESIDE_QUERIES: usize = 32;
const BESIDE_BATCH_EVERY: u64 = 2;
/// Pairs per query batch.
const BATCH: usize = 1024;
/// Ops the saturating closed loop keeps in flight (half the default queue,
/// so a push is never refused for want of room).
const WINDOW: usize = 512;
/// Answers per phase checked against the reference path.
const CHECKED: usize = 2000;
/// Pairs in the layer ladder's pair set.
const LADDER_PAIRS: usize = 16_384;
/// Untraced repetitions of each ladder rung.
const LADDER_REPS: usize = 3;
/// Rounds the serving and the ingest phases are interleaved in: every
/// metric samples its phase's whole stretch of the run, not one moment of
/// a shared host's changing speed.
const ROUNDS: usize = 10;
/// Most requests a traced phase records spans for.
const TRACED_REQUESTS: usize = 100_000;
/// Most spans the tracer keeps.
const SPAN_CAP: usize = 2_000_000;
/// The BioAID-fine specification every workload runs on.
const SPEC_SEED: u64 = 1;
/// The run every workload serves and ingests is one fixed derivation of
/// that specification: random derivations differ widely in shape (label
/// size, depth), which would swamp every other difference between seeds.
/// The seed draws the views, query pairs and op interleaving.
const DERIVATION_SEED: u64 = 0;
/// Expandable modules per sampled view.
const VIEW_SIZE: usize = 8;
/// The open loop sleeps until this close to an op's due time, then spins.
const SPIN_NS: u64 = 100_000;

// Span names: one per layer entry point the benchmark calls.
const S_SETUP: &str = "setup";
const S_STEP: &str = "labeler.on_step";
const S_INSERT: &str = "store.insert_labels";
const S_REGISTER: &str = "viewlabel.register_view";
const S_PUBLISH: &str = "generation.publish";
const S_READ: &str = "generation.read";
const S_QUERY: &str = "frozen.try_query";
const S_BATCH: &str = "frozen.try_query_batch_into";
const S_FETCH: &str = "store.label_ref";
const S_PI: &str = "decode.query_ref";
const S_PUSH: &str = "ingest.try_push";
const S_WAIT: &str = "ingest.ticket_wait";
const S_SAVE: &str = "container.save";
const S_LOAD: &str = "container.load";
const S_OPEN: &str = "durable.open";
const S_REQUEST: &str = "request";

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Declared, with a bound, in `BENCHMARK.json`.
    pub gated: bool,
}

/// The end-to-end metrics `BENCHMARK.json` declares with a bound: the ones
/// whose run-to-run spread does not follow the shared host's speed. The
/// timings are measured and reported beside them; CHANGES.md records
/// their measured spreads.
const GATED: [&str; 3] = ["setup_s", "bytes_per_item", "label_bits_mean"];

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable detail: sample counts, tails, the self-time table.
    pub lines: Vec<String>,
    /// The recorded spans as CSV (traced run only).
    pub spans_csv: Option<String>,
}

/// A seeded generator for one input stream of the run.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Everything the seed decides, drawn before anything is timed.
struct Inputs {
    fvl: Arc<Fvl<'static>>,
    steps: Vec<(InstanceId, ProdId)>,
    /// Steps replayed at set-up (the served prefix).
    split: usize,
    /// Served `(view, variant)` labels, with reference compilations.
    served: Vec<(View, VariantKind)>,
    served_refs: Vec<ViewLabel>,
    fresh: Vec<(View, VariantKind)>,
    fresh_refs: Vec<ViewLabel>,
    /// Views registered through the ingest pipeline (Default variant).
    ingest_views: Vec<View>,
    ingest_refs: Vec<ViewLabel>,
}

impl Inputs {
    fn draw(p: &Params, seed: u64, seconds: f64) -> Self {
        let w: Workload = wf_workloads::bioaid(SPEC_SEED);
        let fvl = Fvl::from_arc(Arc::new(w.spec.clone())).expect("BioAID is strictly linear");
        let fvl = Arc::new(fvl);
        let grammar = &fvl.spec().grammar;
        let open_labels = OPEN_RATE * p.open_share * seconds * CHUNK as f64;
        let target = p.prefix_items + CLOSED_LABELS + (open_labels * 1.5) as usize + 50_000;
        let deriv = wf_run::random_derivation(
            grammar,
            fvl.prod_graph(),
            &mut rng(DERIVATION_SEED, 1),
            target,
        );
        let sig = grammar.sig(grammar.start());
        let mut items = sig.inputs() + sig.outputs();
        let mut split = deriv.steps.len();
        for (i, &(_, prod)) in deriv.steps.iter().enumerate() {
            if items >= p.prefix_items {
                split = i;
                break;
            }
            items += grammar.production(prod).rhs.edges().len();
        }

        let mut view_rng = rng(seed, 2);
        let mut draw_views = |count: usize, kinds: &[VariantKind]| {
            let (mut out, mut refs) = (Vec::new(), Vec::new());
            let mut tries = 0;
            while out.len() < count * kinds.len() {
                tries += 1;
                assert!(tries < 100 * (count + 1), "no compilable safe views found");
                let v = views::random_safe_view(&w, &mut view_rng, VIEW_SIZE);
                let compiled: Result<Vec<ViewLabel>, _> =
                    kinds.iter().map(|&k| fvl.label_view(&v, k)).collect();
                // A view some variant rejects is not a valid input; draw again.
                let Ok(compiled) = compiled else { continue };
                for (&k, vl) in kinds.iter().zip(compiled) {
                    out.push((v.clone(), k));
                    refs.push(vl);
                }
            }
            (out, refs)
        };
        let (served, served_refs) = draw_views(p.views, p.variants);
        let (fresh, fresh_refs) = draw_views(p.fresh_views, p.fresh_variants);
        let view_ops = 1 + (CLOSED_LABELS + open_labels as usize) / CHUNK / VIEW_OP_EVERY;
        let (ingest, ingest_refs) = draw_views(view_ops, &[VariantKind::Default]);
        let ingest_views = ingest.into_iter().map(|(v, _)| v).collect();
        Self {
            fvl,
            steps: deriv.steps,
            split,
            served,
            served_refs,
            fresh,
            fresh_refs,
            ingest_views,
            ingest_refs,
        }
    }
}

/// Ops attempted and failed; a failed op is an error, a wrong answer or a
/// refused push.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A check on an op already counted as attempted.
    fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }
}

/// A query answer to verify: pair, index of the view's reference label,
/// answer.
type Check = (ItemId, ItemId, usize, Result<Option<bool>, EngineError>);

/// What queries are served from: the live engine and the served views.
#[derive(Clone, Copy)]
struct Serving<'s> {
    live: &'s LiveEngine,
    vrefs: &'s [ViewRef],
}

/// The state set-up builds.
struct Served {
    run: Run,
    labeler: RunLabeler,
    writer: EngineWriter,
    live: Arc<LiveEngine>,
    vrefs: Vec<ViewRef>,
}

impl Served {
    fn serving(&self) -> Serving<'_> {
        Serving { live: &self.live, vrefs: &self.vrefs }
    }
}

/// The served prefix's query pairs, each with the served view it asks,
/// drawn up front and cycled through.
struct PairPool {
    pairs: Vec<(ItemId, ItemId, usize)>,
    at: usize,
}

impl PairPool {
    fn next(&mut self) -> (ItemId, ItemId, usize) {
        let pair = self.pairs[self.at];
        self.at = (self.at + 1) % self.pairs.len();
        pair
    }
}

/// The ingest generator's source: the rest of the derivation, labeled
/// step by step as the run grows.
struct Producer<'a> {
    inp: &'a Inputs,
    run: Run,
    labeler: RunLabeler,
    cursor: usize,
    /// Labels handed to the pipeline so far (the store's length).
    handed: usize,
    views_pushed: usize,
    ops: usize,
}

impl Producer<'_> {
    /// The next `CHUNK` labels, labeling new steps as needed; `None` once
    /// the derivation is exhausted.
    fn next_chunk(&mut self, tr: &mut Tracer, req: u64) -> Option<Range<usize>> {
        let grammar = &self.inp.fvl.spec().grammar;
        let pg = self.inp.fvl.prod_graph();
        while self.labeler.label_count() < self.handed + CHUNK {
            let &(inst, prod) = self.inp.steps.get(self.cursor)?;
            self.cursor += 1;
            let s = self.run.apply(grammar, inst, prod).expect("sampled derivation replays");
            tr.span(S_STEP, req, || self.labeler.on_step(pg, &self.run, s));
        }
        let range = self.handed..self.handed + CHUNK;
        self.handed += CHUNK;
        Some(range)
    }

    /// The next op: a view registration after every `VIEW_OP_EVERY` label
    /// ops, otherwise the next label chunk. `None` once exhausted.
    fn next_op(&mut self, tr: &mut Tracer, req: u64) -> Option<Op> {
        self.ops += 1;
        if self.ops.is_multiple_of(VIEW_OP_EVERY + 1)
            && self.views_pushed < self.inp.ingest_views.len()
        {
            self.views_pushed += 1;
            return Some(Op::View(self.views_pushed - 1));
        }
        self.next_chunk(tr, req).map(Op::Labels)
    }

    fn ingest_op(&self, op: &Op) -> IngestOp {
        match op {
            Op::Labels(r) => IngestOp::InsertLabels(self.labeler.labels()[r.clone()].to_vec()),
            Op::View(k) => {
                IngestOp::CompileView(self.inp.ingest_views[*k].clone(), VariantKind::Default)
            }
        }
    }
}

/// One ingest op, by reference into the producer's labels or views.
enum Op {
    Labels(Range<usize>),
    View(usize),
}

impl Op {
    fn labels(&self) -> usize {
        match self {
            Op::Labels(r) => r.len(),
            Op::View(_) => 0,
        }
    }
}

/// Set-up durations and how many labels the reps labeled.
#[derive(Default)]
struct SetupLog {
    /// Nanoseconds per rep.
    times: Samples,
    labeled: usize,
    /// Items in the served population.
    items: usize,
}

/// What the serving rounds (or the queries beside writes) recorded.
#[derive(Default)]
struct ServeLog {
    queries: Samples,
    batches: Samples,
    checks: Vec<Check>,
    views: Samples,
    view_checks: Vec<Check>,
    /// Reused batch buffers.
    pairs: Vec<(ItemId, ItemId)>,
    out: Vec<Option<bool>>,
}

/// What the ingest rounds recorded.
#[derive(Default)]
struct IngestLog {
    /// Duration of each closed-loop burst.
    bursts: Samples,
    closed_acked: usize,
    open_ops: usize,
    open_labels: usize,
    open_secs: f64,
    ack: Samples,
    late: Samples,
    serve: ServeLog,
    depth_max: usize,
    rejected: u64,
}

pub struct Bench<'a> {
    p: &'a Params,
    seed: u64,
    seconds: f64,
    tr: Tracer,
    tally: Tally,
    lines: Vec<String>,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    req: u64,
    work_dir: &'a Path,
}

impl<'a> Bench<'a> {
    pub fn new(p: &'a Params, seed: u64, seconds: f64, trace: bool, work_dir: &'a Path) -> Self {
        Self {
            p,
            seed,
            seconds,
            tr: Tracer::new(trace, SPAN_CAP),
            tally: Tally::default(),
            lines: Vec::new(),
            e2e: Vec::new(),
            layer: Vec::new(),
            req: 0,
            work_dir,
        }
    }

    fn next_req(&mut self) -> u64 {
        self.req += 1;
        self.req
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit, gated: GATED.contains(&name) });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit, gated: true });
    }

    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Whether a traced phase still records spans for its `n`th request.
    fn traced(&self, n: usize) -> bool {
        self.tr.is_on() && n < TRACED_REQUESTS
    }

    /// Opens a span only when `on`.
    fn begin_if(&mut self, on: bool, name: &'static str, req: u64) -> SpanId {
        if on {
            self.tr.begin(name, req)
        } else {
            NONE
        }
    }

    fn span_median(&self, name: &str) -> u64 {
        Samples::from(self.tr.durations(name)).quantile(0.5)
    }

    pub fn run(mut self) -> Outcome {
        let p = self.p;
        let wall = Instant::now();
        let t = Instant::now();
        let inp = Inputs::draw(p, self.seed, self.seconds);
        self.line(format!(
            "inputs: {} steps ({} served), {} served view labels, {} fresh, {} ingest views, drawn in {:.2}s",
            inp.steps.len(),
            inp.split,
            inp.served.len(),
            inp.fresh.len(),
            inp.ingest_views.len(),
            t.elapsed().as_secs_f64()
        ));

        let mut setup = SetupLog::default();
        let mut served = None;
        for _ in 0..SETUP_REPS {
            // Free the previous rep's state first so reps do not compete
            // for memory.
            drop(served.take());
            served = Some(self.setup_rep(&inp, &mut setup));
        }
        let mut served = served.expect("at least one set-up rep");
        let mut pool = self.pair_pool(&served);
        let mut ws = WorkerScratch::new();
        let mut log = ServeLog::default();
        let snapshot = {
            let gen = served.live.read();
            self.tr.span(S_SAVE, 0, || serialize_base(&gen)).expect("generation saves")
        };
        let mut loads = Samples::default();
        // Serving phases run in interleaved rounds, so every metric samples
        // the whole run rather than one stretch of it.
        for round in 0..ROUNDS {
            self.query_slice(served.serving(), &mut pool, &mut ws, &mut log);
            self.batch_slice(served.serving(), &mut pool, &mut ws, &mut log);
            let n = inp.fresh.len();
            self.register_views(
                &inp,
                &mut served,
                n * round / ROUNDS..n * (round + 1) / ROUNDS,
                &mut ws,
                &mut log,
            );
            for _ in 0..p.setup_reps_per_round {
                drop(self.setup_rep(&inp, &mut setup));
            }
            for _ in 0..p.loads_per_round {
                self.snapshot_restart(&inp, &served, &snapshot, &mut loads);
            }
        }
        drop(snapshot);
        self.report_setup(&inp, &served, &setup);
        self.report_serving(&inp, &served, &mut log, &ws);
        if self.tr.is_on() {
            self.ladder(&inp, &served, &pool);
        }
        self.ingest_and_restart(&inp, served, &mut pool, &mut ws, &mut loads);
        // More set-ups at the end, so `setup_s` samples both ends of the run.
        for _ in 0..SETUP_REPS {
            drop(self.setup_rep(&inp, &mut setup));
        }
        self.e2e("setup_s", setup.times.quantile(0.5) as f64 / 1e9, "s");
        self.line(format!("setup of {} items: {}", setup.items, setup.times.describe(1e9, "s")));

        self.finish_trace(wall.elapsed().as_nanos() as u64);
        let peak = wf_bench::peak_rss_bytes().unwrap_or(0);
        self.line(format!("peak RSS: {:.1} MB", peak as f64 / 1e6));
        let frac = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        self.line(format!(
            "ops failed: {} of {} attempted",
            self.tally.failed, self.tally.attempted
        ));
        self.e2e("ops_failed_frac", frac, "ratio");
        let spans_csv = self.tr.is_on().then(|| self.tr.to_csv());
        Outcome {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            end_to_end: self.e2e,
            per_layer: self.layer,
            lines: self.lines,
            spans_csv,
        }
    }

    // ---- 1. set-up -------------------------------------------------------

    /// One set-up: replay the served prefix with dynamic labeling, intern
    /// the labels, compile the served views, publish, answer a first query.
    fn setup_rep(&mut self, inp: &Inputs, log: &mut SetupLog) -> Served {
        let first = log.times.len() == 0;
        let root = self.tr.begin(S_SETUP, 0);
        let t = Instant::now();
        let grammar = &inp.fvl.spec().grammar;
        let pg = inp.fvl.prod_graph();
        let mut run = Run::start(grammar);
        let mut labeler = inp.fvl.labeler(&run);
        for &(inst, prod) in &inp.steps[..inp.split] {
            let s = run.apply(grammar, inst, prod).expect("sampled derivation replays");
            self.tr.span(S_STEP, 0, || labeler.on_step(pg, &run, s));
        }
        let mut writer = EngineWriter::from_fvl(inp.fvl.clone());
        let rss_before = rss_bytes();
        let tr = &mut self.tr;
        let (items, heap) =
            heap_delta(|| tr.span(S_INSERT, 0, || writer.insert_labels(labeler.labels())));
        let rss_after = rss_bytes();
        let dense = items.iter().enumerate().all(|(i, id)| id.0 as usize == i);
        self.tally.op(dense && items.len() == labeler.label_count());
        if first {
            let n = items.len() as f64;
            self.e2e("bytes_per_item", rss_after.saturating_sub(rss_before) as f64 / n, "B");
            self.layer("store.bytes_per_item", heap as f64 / n, "B");
        }
        let mut vrefs = Vec::new();
        for (v, k) in &inp.served {
            let r = self.tr.span(S_REGISTER, 0, || writer.register_view(v.clone(), *k));
            vrefs.push(r.expect("views that compiled for the reference compile here"));
        }
        let live = Arc::new(LiveEngine::new(writer.base().clone()));
        self.tr.span(S_PUBLISH, 0, || writer.publish(&live));
        let mut ws = WorkerScratch::new();
        let first_answer = live.read().core().try_query(&mut ws, vrefs[0], ItemId(0), ItemId(1));
        self.tally.op(first_answer.is_ok());
        log.times.record(t.elapsed().as_nanos() as u64);
        log.labeled += labeler.label_count();
        log.items = labeler.label_count();
        self.tr.end(root);
        Served { run, labeler, writer, live, vrefs }
    }

    /// One snapshot restart: `EngineGeneration::load` of the saved bytes
    /// up to the first answered query. The first one's answers are checked.
    fn snapshot_restart(
        &mut self,
        inp: &Inputs,
        served: &Served,
        snapshot: &[u8],
        loads: &mut Samples,
    ) {
        let root = self.tr.begin("phase.restart", 0);
        let mut ws = WorkerScratch::new();
        let t = Instant::now();
        let gen =
            self.tr.span(S_LOAD, 0, || EngineGeneration::load(inp.fvl.clone(), &mut &snapshot[..]));
        let Ok(gen) = gen else {
            self.tally.op(false);
            self.tr.end(root);
            return;
        };
        let live = LiveEngine::new(Arc::new(gen));
        let serving = Serving { live: &live, vrefs: &served.vrefs };
        let (ans, _) = self.request(serving, &mut ws, (ItemId(0), ItemId(1), 0), false);
        loads.record(t.elapsed().as_nanos() as u64);
        self.tally.op(ans.is_ok());
        if loads.len() == 1 {
            let n = served.labeler.label_count();
            let checks = sample_checks(&live, &served.vrefs, n, self.seed, &mut ws);
            self.verify(inp, served.labeler.labels(), &inp.served_refs, &checks);
        }
        self.tr.end(root);
    }

    /// Label size and the per-layer set-up costs (`setup_s` waits for the
    /// last reps, at the end of the run).
    fn report_setup(&mut self, inp: &Inputs, served: &Served, log: &SetupLog) {
        let items = served.labeler.label_count();
        let codec = inp.fvl.codec();
        let bits: usize = served.labeler.labels().iter().map(|d| codec.encoded_bits(d)).sum();
        let bits_mean = bits as f64 / items as f64;
        self.e2e("label_bits_mean", bits_mean, "bits");
        self.layer("labeler.bits_per_label", bits_mean, "bits");
        let labeled = log.labeled as f64;
        self.layer("labeler.ns_per_item", self.tr.total(S_STEP) as f64 / labeled, "ns");
        self.layer("store.insert_ns_per_label", self.tr.total(S_INSERT) as f64 / labeled, "ns");
    }

    fn pair_pool(&self, served: &Served) -> PairPool {
        let mut r = rng(self.seed, 3);
        let pairs = queries::sample_pairs(&served.run, &mut r, self.p.pair_pool, self.p.pairs);
        let n_views = served.vrefs.len();
        let pairs = pairs
            .into_iter()
            .map(|(a, b)| (ItemId(a.0), ItemId(b.0), r.gen_range(0..n_views)))
            .collect();
        PairPool { pairs, at: 0 }
    }

    /// Checks answers against `Fvl::query` on the labeler's raw labels
    /// with independently compiled view labels — a path that never touches
    /// the interned store or the engine's registry.
    fn verify(&mut self, inp: &Inputs, labels: &[DataLabel], refs: &[ViewLabel], checks: &[Check]) {
        let mut wrong = 0;
        for (a, b, v, got) in checks {
            let want = inp.fvl.query(&refs[*v], &labels[a.0 as usize], &labels[b.0 as usize]);
            let ok = matches!(got, Ok(g) if *g == want);
            wrong += u64::from(!ok);
            self.tally.check(ok);
        }
        if wrong > 0 {
            self.line(format!("CHECK FAILED: {wrong} of {} answers disagree", checks.len()));
        }
    }

    // ---- 2. per-call queries and 3. batches -------------------------------

    /// One request, `LiveEngine::read` + `EngineCore::try_query`; returns
    /// the answer and its latency in ns.
    fn request(
        &mut self,
        s: Serving,
        ws: &mut WorkerScratch,
        (a, b, v): (ItemId, ItemId, usize),
        traced: bool,
    ) -> (Result<Option<bool>, EngineError>, u64) {
        let req = self.next_req();
        let t = Instant::now();
        let root = self.begin_if(traced, S_REQUEST, req);
        let id = self.begin_if(traced, S_READ, req);
        let g = s.live.read();
        self.tr.end(id);
        let id = self.begin_if(traced, S_QUERY, req);
        let out = g.core().try_query(ws, s.vrefs[v], a, b);
        self.tr.end(id);
        drop(g);
        self.tr.end(root);
        (out, t.elapsed().as_nanos() as u64)
    }

    /// A single query from the pool, recorded in `log`.
    fn logged_request(
        &mut self,
        s: Serving,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
        log: &mut ServeLog,
    ) {
        let pair = pool.next();
        let traced = self.traced(log.queries.len());
        let (r, ns) = self.request(s, ws, pair, traced);
        log.queries.record(ns);
        self.tally.op(r.is_ok());
        if log.checks.len() < CHECKED {
            log.checks.push((pair.0, pair.1, pair.2, r));
        }
    }

    /// One batch of `BATCH` pool pairs against one served view, recorded
    /// in `log` (every 16th answer is kept for checking).
    fn logged_batch(
        &mut self,
        s: Serving,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
        log: &mut ServeLog,
    ) {
        let (_, _, v) = pool.next();
        log.pairs.clear();
        log.pairs.extend((0..BATCH).map(|_| {
            let (a, b, _) = pool.next();
            (a, b)
        }));
        let traced = self.traced(log.batches.len() * BATCH);
        let req = self.next_req();
        let t = Instant::now();
        let root = self.begin_if(traced, S_REQUEST, req);
        let id = self.begin_if(traced, S_READ, req);
        let g = s.live.read();
        self.tr.end(id);
        let id = self.begin_if(traced, S_BATCH, req);
        let r = g.core().try_query_batch_into(ws, s.vrefs[v], &log.pairs, &mut log.out);
        self.tr.end(id);
        drop(g);
        self.tr.end(root);
        log.batches.record(t.elapsed().as_nanos() as u64);
        self.tally.attempted += BATCH as u64;
        if r.is_err() {
            self.tally.failed += BATCH as u64;
        } else if log.checks.len() < CHECKED {
            let kept = log.pairs.iter().zip(&log.out).step_by(16);
            log.checks.extend(kept.map(|(&(a, b), &o)| (a, b, v, Ok(o))));
        }
    }

    /// Per-call queries for one round's share of the query time (closed
    /// loop, one client).
    fn query_slice(
        &mut self,
        s: Serving,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
        log: &mut ServeLog,
    ) {
        let root = self.tr.begin("phase.query", 0);
        let dur = Duration::from_secs_f64(self.seconds * self.p.query_share / ROUNDS as f64);
        let start = Instant::now();
        let mut n = 0usize;
        while !n.is_multiple_of(256) || start.elapsed() < dur {
            if self.tr.is_on() && n >= TRACED_REQUESTS / ROUNDS {
                break;
            }
            self.logged_request(s, pool, ws, log);
            n += 1;
        }
        self.tr.end(root);
    }

    /// Batches for one round's share of the batch time (closed loop).
    fn batch_slice(
        &mut self,
        s: Serving,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
        log: &mut ServeLog,
    ) {
        let root = self.tr.begin("phase.batch", 0);
        let dur = Duration::from_secs_f64(self.seconds * self.p.batch_share / ROUNDS as f64);
        let start = Instant::now();
        let mut n = 0usize;
        while n < 2 || start.elapsed() < dur {
            if self.tr.is_on() && n * BATCH >= TRACED_REQUESTS / ROUNDS * 4 {
                break;
            }
            self.logged_batch(s, pool, ws, log);
            n += 1;
        }
        self.tr.end(root);
    }

    fn report_queries(&mut self, lat: &mut Samples, how: &str) {
        self.line(format!("query ({how}): {}", lat.describe(1.0, "ns")));
        self.e2e("query_p50_ns", lat.quantile(0.5) as f64, "ns");
        self.e2e("query_p99_ns", lat.quantile(0.99) as f64, "ns");
    }

    fn report_batches(&mut self, lat: &mut Samples, how: &str) {
        self.line(format!("batch of {BATCH} ({how}): {}", lat.describe(1e3, "us")));
        self.tally.op(lat.len() > 0);
        let p50_s = lat.quantile(0.5) as f64 / 1e9;
        self.e2e("batch_qps", BATCH as f64 / p50_s.max(1e-9), "1/s");
    }

    /// Checks the serving rounds' answers and reports view registration,
    /// and queries and batches unless those come from beside the writes.
    fn report_serving(
        &mut self,
        inp: &Inputs,
        served: &Served,
        log: &mut ServeLog,
        ws: &WorkerScratch,
    ) {
        let labels = served.labeler.labels();
        self.verify(inp, labels, &inp.served_refs, &log.checks);
        if !self.p.durable_focus {
            self.report_queries(&mut log.queries, "closed loop, one client");
            self.report_batches(&mut log.batches, "closed loop");
            self.layer("decode.memo_powers", ws.stats().1 as f64, "count");
        }
        self.verify(inp, labels, &inp.fresh_refs, &log.view_checks);
        self.line(format!("view registration until it answers: {}", log.views.describe(1e3, "us")));
        self.e2e("view_register_p50_us", log.views.quantile(0.5) as f64 / 1e3, "us");
        self.layer("viewlabel.compile_us", self.span_median(S_REGISTER) as f64 / 1e3, "us");
        self.layer("writer.publish_us", self.span_median(S_PUBLISH) as f64 / 1e3, "us");
    }

    // ---- 4. the layer ladder ---------------------------------------------

    /// Times one pair set at every layer, innermost first: label fetch, π
    /// on pre-fetched labels, `EngineCore::try_query`, batches, and
    /// `LiveEngine::read` + query. Each rung runs untraced `LADDER_REPS`
    /// times (its cost is the median) and then once traced; the traced
    /// pass gives the π distribution and the tracing overhead.
    fn ladder(&mut self, inp: &Inputs, served: &Served, pool: &PairPool) {
        let root = self.tr.begin("phase.ladder", 0);
        let set: Vec<(ItemId, ItemId, usize)> =
            pool.pairs.iter().copied().cycle().take(LADDER_PAIRS).collect();
        let gen = served.live.read();
        let store = gen.store();
        let core = gen.core();
        // Every pair's two labels, fetched once up front and laid out in
        // pair order, so the π rung times decode alone.
        let prefetched: Vec<(DataLabel, DataLabel)> =
            set.iter().map(|&(a, b, _)| (store.materialize(a), store.materialize(b))).collect();
        let mut sessions: Vec<_> = served
            .vrefs
            .iter()
            .map(|&r| gen.fvl().session(gen.registry().label(r).expect("served view is compiled")))
            .collect();
        let mut by_view: Vec<Vec<(ItemId, ItemId)>> = vec![Vec::new(); served.vrefs.len()];
        for &(a, b, v) in &set {
            by_view[v].push((a, b));
        }
        let mut ws = WorkerScratch::new();
        let (mut o1, mut i1, mut o2, mut i2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        let mut answers: [Vec<Option<bool>>; 5] = Default::default();
        let mut passes: Vec<[f64; 5]> = Vec::new();
        let n = set.len() as f64;
        for rep in 0..=LADDER_REPS {
            let traced = rep == LADDER_REPS;
            let keep = rep == 0;
            let mut rung_ns = [0f64; 5];

            let t = Instant::now();
            for &(a, b, _) in &set {
                let id = self.begin_if(traced, S_FETCH, 0);
                let r1 = store.label_ref(a, &mut o1, &mut i1);
                let r2 = store.label_ref(b, &mut o2, &mut i2);
                std::hint::black_box((r1, r2));
                self.tr.end(id);
            }
            rung_ns[0] = t.elapsed().as_nanos() as f64 / n;

            let t = Instant::now();
            for (&(_, _, v), (la, lb)) in set.iter().zip(&prefetched) {
                let id = self.begin_if(traced, S_PI, 0);
                let ans = sessions[v].query_ref(la.to_ref(), lb.to_ref());
                self.tr.end(id);
                if keep {
                    answers[1].push(ans);
                }
            }
            rung_ns[1] = t.elapsed().as_nanos() as f64 / n;

            let t = Instant::now();
            for &(a, b, v) in &set {
                let id = self.begin_if(traced, S_QUERY, 0);
                let ans = core.try_query(&mut ws, served.vrefs[v], a, b);
                self.tr.end(id);
                if keep {
                    answers[2].push(ans.ok().flatten());
                }
            }
            rung_ns[2] = t.elapsed().as_nanos() as f64 / n;

            let t = Instant::now();
            for (v, pairs) in by_view.iter().enumerate() {
                for chunk in pairs.chunks(BATCH) {
                    let id = self.begin_if(traced, S_BATCH, 0);
                    let r = core.try_query_batch_into(&mut ws, served.vrefs[v], chunk, &mut out);
                    self.tr.end(id);
                    if keep {
                        self.tally.op(r.is_ok());
                        answers[3].extend_from_slice(&out);
                    }
                }
            }
            rung_ns[3] = t.elapsed().as_nanos() as f64 / n;

            let t = Instant::now();
            for &pair in &set {
                let (ans, _) = self.request(served.serving(), &mut ws, pair, traced);
                if keep {
                    answers[4].push(ans.ok().flatten());
                }
            }
            rung_ns[4] = t.elapsed().as_nanos() as f64 / n;
            passes.push(rung_ns);
        }
        self.tr.end(root);

        // Every rung must answer like the reference. Batches answer in
        // per-view order.
        let step = LADDER_PAIRS / CHECKED;
        let mut checks = Vec::new();
        for (i, &(a, b, v)) in set.iter().enumerate().step_by(step) {
            for rung in [1, 2, 4] {
                checks.push((a, b, v, Ok(answers[rung][i])));
            }
        }
        let per_view =
            by_view.iter().enumerate().flat_map(|(v, ps)| ps.iter().map(move |&(a, b)| (a, b, v)));
        for (i, (a, b, v)) in per_view.enumerate().step_by(step) {
            checks.push((a, b, v, Ok(answers[3].get(i).copied().flatten())));
        }
        self.tally.attempted += checks.len() as u64;
        self.verify(inp, served.labeler.labels(), &inp.served_refs, &checks);

        let untraced =
            |r: usize| median(&passes[..LADDER_REPS].iter().map(|p| p[r]).collect::<Vec<_>>());
        let names = ["fetch", "pi", "core", "batch", "live"];
        let table: Vec<String> =
            (0..5).map(|r| format!("{}={:.1}", names[r], untraced(r))).collect();
        self.line(format!(
            "ladder ({} pairs, ns per pair, median of {LADDER_REPS} untraced passes): {}",
            set.len(),
            table.join(" ")
        ));
        self.layer("store.fetch_ns", untraced(0), "ns");
        self.layer("core.query_ns", untraced(2), "ns");
        self.layer("core.batch_ns_per_query", untraced(3), "ns");
        self.layer("live.read_ns", untraced(4) - untraced(2), "ns");
        let mut pi = Samples::from(self.tr.durations(S_PI));
        self.line(format!("decode.query_ref spans: {}", pi.describe(1.0, "ns")));
        self.layer("decode.pi_p50_ns", pi.quantile(0.5) as f64, "ns");
        self.layer("decode.pi_p99_ns", pi.quantile(0.99) as f64, "ns");
        let traced_total: f64 = passes[LADDER_REPS].iter().sum();
        let untraced_total: f64 = (0..5).map(untraced).sum();
        let overhead = (traced_total - untraced_total) / untraced_total * 100.0;
        self.line(format!(
            "tracing overhead on the ladder: {untraced_total:.1} -> {traced_total:.1} ns per pair summed over rungs ({overhead:+.1}%)"
        ));
        self.layer("trace.overhead_pct", overhead, "%");
    }

    // ---- 5. view registration --------------------------------------------

    /// Registers `inp.fresh[range]` one at a time, each timed from
    /// register + compile + publish until the view answers a query.
    fn register_views(
        &mut self,
        inp: &Inputs,
        served: &mut Served,
        range: Range<usize>,
        ws: &mut WorkerScratch,
        log: &mut ServeLog,
    ) {
        let root = self.tr.begin("phase.views", 0);
        let n_items = served.labeler.label_count();
        for i in range {
            let (v, k) = &inp.fresh[i];
            let req = self.next_req();
            let t = Instant::now();
            let id = self.tr.begin(S_REQUEST, req);
            let r = self.tr.span(S_REGISTER, req, || served.writer.register_view(v.clone(), *k));
            let answered = r.map(|vref| {
                self.tr.span(S_PUBLISH, req, || served.writer.publish(&served.live));
                let g = self.tr.span(S_READ, req, || served.live.read());
                let a = ItemId((i * 131 % n_items) as u32);
                let b = ItemId((i * 977 % n_items) as u32);
                let ans = self.tr.span(S_QUERY, req, || g.core().try_query(ws, vref, a, b));
                (a, b, ans)
            });
            self.tr.end(id);
            log.views.record(t.elapsed().as_nanos() as u64);
            self.tally.op(answered.is_ok());
            if let Ok((a, b, ans)) = answered {
                log.view_checks.push((a, b, i, ans));
            }
        }
        self.tr.end(root);
    }

    // ---- 6 + 7. durable ingest and restart ---------------------------------

    fn ingest_and_restart(
        &mut self,
        inp: &Inputs,
        served: Served,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
        loads: &mut Samples,
    ) {
        let p = self.p;
        let Served { run, labeler, writer, live, vrefs } = served;
        let dir = self.work_dir.join(format!("durable-{}-{}", p.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = Arc::new(IoCounters::default());
        let (mut durable, _, _) =
            open_durable(inp, &dir, &io).expect("a fresh durable store opens");
        // The served generation becomes the durable base, so the op-log
        // continues exactly where serving stands.
        let base = writer.base().clone();
        let bytes = self.tr.span(S_SAVE, 0, || serialize_base(&base)).expect("generation saves");
        self.tally.op(matches!(durable.install_base(&bytes, base.seqno()), Ok(Some(_))));
        drop(bytes);
        let (base_len, base_views) = (base.store().len(), base.registry().view_count());
        drop(base);
        io.reset();
        let shared = shared_durable(durable);

        // Per publish: shards the publish touched.
        let touched: Arc<Mutex<Vec<usize>>> = Arc::default();
        let hook_log = touched.clone();
        let mut prev_len = base_len;
        let options = PipelineOptions {
            durable: Some(shared.clone()),
            compaction: Some(CompactionPolicy::default()),
            on_publish: Some(Box::new(move |g: &Arc<EngineGeneration>| {
                let store = g.store();
                hook_log
                    .lock()
                    .expect("publish log lock")
                    .push(store.shards_touched_since(prev_len));
                prev_len = store.len();
            })),
            ..PipelineOptions::default()
        };
        let pipeline =
            IngestPipeline::spawn_with(writer, live.clone(), PublishPolicy::default(), options);
        let handed = labeler.label_count();
        let mut producer =
            Producer { inp, run, labeler, cursor: inp.split, handed, views_pushed: 0, ops: 0 };
        let serving = Serving { live: &live, vrefs: &vrefs };
        let mut log = IngestLog::default();
        for _ in 0..ROUNDS {
            self.closed_burst(&pipeline, &mut producer, &mut log);
            self.open_slice(&pipeline, &mut producer, &mut log, serving, pool, ws);
        }
        self.report_ingest(inp, &producer, &mut log, ws);

        let report = pipeline.shutdown();
        self.tally.op(report.persist_error.is_none());
        let compaction = report.compaction.clone().unwrap_or_default();
        self.tally.op(compaction.last_error.is_none());
        let stats = report.stats;
        drop(report);
        drop(shared);
        let final_gen = live.snapshot();
        let expect_items = final_gen.store().len();
        let expect_views = final_gen.registry().view_count();
        self.tally.op(expect_items == producer.handed);
        drop(final_gen);
        drop(live);

        let payload_bits: usize = producer.labeler.labels()[base_len..producer.handed]
            .iter()
            .map(|d| inp.fvl.codec().encoded_bits(d))
            .sum();
        let written = IoCounters::get(&io.bytes_written);
        let frames = IoCounters::get(&io.frames);
        let syncs = IoCounters::get(&io.syncs).max(1);
        self.e2e("write_amp", written as f64 / (payload_bits as f64 / 8.0), "ratio");
        self.line(format!(
            "durable: {frames} frames, {written} bytes written for {} label payload bytes, {} compactions, fsync mean {:.1}us",
            payload_bits / 8,
            compaction.compactions,
            IoCounters::get(&io.sync_ns) as f64 / syncs as f64 / 1e3
        ));
        self.layer("durable.frames", frames as f64, "count");
        self.layer("durable.compactions", compaction.compactions as f64, "count");
        self.layer("durable.bytes_written", written as f64, "B");
        let per_publish = stats.ops_applied as f64 / stats.publishes.max(1) as f64;
        self.layer("ingest.ops_per_publish", per_publish, "count");
        let touched = touched.lock().expect("publish log lock").clone();
        let mean_touched = touched.iter().sum::<usize>() as f64 / touched.len().max(1) as f64;
        self.layer("writer.touched_shards", mean_touched, "count");
        self.line(format!(
            "pipeline: {} ops applied, {} errors, {} publishes, {} labels",
            stats.ops_applied, stats.op_errors, stats.publishes, stats.labels_ingested
        ));

        let expect = Expected { items: expect_items, views: expect_views, base_len, base_views };
        self.recover(inp, &producer, &vrefs, loads, &expect, &dir, &io);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Phase (a), one burst: a saturating closed loop keeping `WINDOW` ops
    /// in flight until a `ROUNDS`th of `CLOSED_LABELS` is acknowledged.
    fn closed_burst(
        &mut self,
        pipeline: &IngestPipeline,
        producer: &mut Producer,
        log: &mut IngestLog,
    ) {
        let root = self.tr.begin("phase.ingest_closed", 0);
        let queue = pipeline.queue().clone();
        let mut inflight: VecDeque<(Ticket, usize)> = VecDeque::new();
        let first = producer.handed;
        let start = Instant::now();
        let mut acked = 0;
        while producer.handed - first < CLOSED_LABELS / ROUNDS {
            if inflight.len() >= WINDOW {
                let (t, n) = inflight.pop_front().expect("window is non-empty");
                acked += self.wait_ticket(&t, n);
            }
            let req = self.next_req();
            let Some(op) = producer.next_op(&mut self.tr, req) else { break };
            if let Some(t) = self.push(&queue, &op, producer, log, req) {
                inflight.push_back((t, op.labels()));
            }
        }
        for (t, n) in inflight.drain(..) {
            acked += self.wait_ticket(&t, n);
        }
        log.bursts.record(start.elapsed().as_nanos() as u64);
        log.closed_acked += acked;
        self.tr.end(root);
    }

    /// `try_push`. A refused push counts as failed and is then retried
    /// with the blocking `push`, so item ids stay aligned with the labeler.
    fn push(
        &mut self,
        queue: &IngestQueue,
        op: &Op,
        producer: &Producer,
        c: &mut IngestLog,
        req: u64,
    ) -> Option<Ticket> {
        if self.tr.is_on() {
            c.depth_max = c.depth_max.max(queue.len());
        }
        let ingest_op = producer.ingest_op(op);
        match self.tr.span(S_PUSH, req, || queue.try_push(ingest_op)) {
            Ok(t) => {
                self.tally.op(true);
                Some(t)
            }
            Err(e) => {
                self.tally.op(false);
                if !matches!(e, EngineError::IngestBackpressure { .. }) {
                    return None;
                }
                c.rejected += 1;
                let t = queue.push(producer.ingest_op(op));
                self.tally.check(t.is_ok());
                t.ok()
            }
        }
    }

    /// Waits for a ticket; returns the labels it acknowledged.
    fn wait_ticket(&mut self, t: &Ticket, labels: usize) -> usize {
        let outcome = self.tr.span(S_WAIT, 0, || t.wait());
        self.tally.check(outcome.is_ok());
        if outcome.is_ok() {
            labels
        } else {
            0
        }
    }

    /// Phase (b), one round's slice: ops sent on a fixed schedule at
    /// `OPEN_RATE`, each timed from its due time to its durable
    /// acknowledgement, with a fixed query load served between ops.
    fn open_slice(
        &mut self,
        pipeline: &IngestPipeline,
        producer: &mut Producer,
        log: &mut IngestLog,
        serving: Serving,
        pool: &mut PairPool,
        ws: &mut WorkerScratch,
    ) {
        let root = self.tr.begin("phase.ingest_open", 0);
        let queue = pipeline.queue().clone();
        let rate = OPEN_RATE;
        let total = (rate * self.seconds * self.p.open_share / ROUNDS as f64).round() as u64;
        let mut sent: Vec<(u64, u64, usize, Ticket)> = Vec::new();
        let start = Instant::now();
        let now = || start.elapsed().as_nanos() as u64;
        for i in 0..total {
            let due = due_ns(i, rate);
            wait_until(due, now);
            log.late.record(lateness_ns(due, now()));
            let req = self.next_req();
            let Some(op) = producer.next_op(&mut self.tr, req) else {
                self.line("open loop: derivation exhausted early".into());
                self.tally.op(false);
                break;
            };
            let pushed = now();
            if let Some(t) = self.push(&queue, &op, producer, log, req) {
                sent.push((due, pushed, op.labels(), t));
            }
            // The gap's fixed query load: single queries, and every
            // `BESIDE_BATCH_EVERY` ops one batch. Work that overruns the
            // gap makes the next op late, which its latency then shows.
            for _ in 0..BESIDE_QUERIES {
                self.logged_request(serving, pool, ws, &mut log.serve);
            }
            if i.is_multiple_of(BESIDE_BATCH_EVERY) {
                self.logged_batch(serving, pool, ws, &mut log.serve);
            }
        }
        // Harvest: due time to durable acknowledgement.
        for (due, pushed, labels, t) in &sent {
            let outcome = self.tr.span(S_WAIT, 0, || t.wait());
            self.tally.check(outcome.is_ok());
            if outcome.is_ok() {
                log.ack.record(ack_latency_ns(*due, *pushed, t.lag_ns().unwrap_or(0)));
                log.open_labels += labels;
            }
        }
        log.open_ops += sent.len();
        log.open_secs += start.elapsed().as_secs_f64();
        self.tr.end(root);
    }

    fn report_ingest(
        &mut self,
        inp: &Inputs,
        producer: &Producer,
        log: &mut IngestLog,
        ws: &WorkerScratch,
    ) {
        let busy_s = log.bursts.mean() * log.bursts.len() as f64 / 1e9;
        let rate = log.closed_acked as f64 / busy_s;
        self.line(format!(
            "closed-loop ingest, {} labels in {} bursts ({WINDOW} ops in flight): {} per burst",
            log.closed_acked,
            log.bursts.len(),
            log.bursts.describe(1e6, "ms")
        ));
        self.e2e("ingest_labels_per_s", rate, "1/s");
        let checks = std::mem::take(&mut log.serve.checks);
        self.verify(inp, producer.labeler.labels(), &inp.served_refs, &checks);
        self.line(format!(
            "open loop: {} ops offered at {}/s in {:.2}s ({} labels; fsync per publish); {} queries and {} batches served between ops",
            log.open_ops,
            OPEN_RATE,
            log.open_secs,
            log.open_labels,
            log.serve.queries.len(),
            log.serve.batches.len()
        ));
        let ack = &mut log.ack;
        self.line(format!("ack from due time: {}", ack.describe(1e3, "us")));
        self.line(format!("generator lateness: {}", log.late.describe(1e3, "us")));
        self.e2e("ack_p50_us", ack.quantile(0.5) as f64 / 1e3, "us");
        self.e2e("ack_p99_us", ack.quantile(0.99) as f64 / 1e3, "us");
        self.layer("loadgen.late_p99_us", log.late.quantile(0.99) as f64 / 1e3, "us");
        self.layer("queue.push_ns", self.span_median(S_PUSH) as f64, "ns");
        self.layer("queue.depth_max", log.depth_max as f64, "count");
        self.layer("queue.rejected", log.rejected as f64, "count");
        if self.p.durable_focus {
            self.report_queries(&mut log.serve.queries, "beside open-loop writes");
            self.report_batches(&mut log.serve.batches, "beside open-loop writes");
            self.layer("decode.memo_powers", ws.stats().1 as f64, "count");
        } else {
            self.line(format!("queries beside writes: {}", log.serve.queries.describe(1.0, "ns")));
        }
    }

    /// Durable recovery: `DurableEngine::open` of base plus op-log up to
    /// the first answered query, then the check that recovery kept every
    /// acknowledged label and view. Reports `restart_ms` from whichever
    /// restart path the workload names.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        inp: &Inputs,
        producer: &Producer,
        vrefs: &[ViewRef],
        loads: &mut Samples,
        expect: &Expected,
        dir: &Path,
        io: &Arc<IoCounters>,
    ) {
        let root = self.tr.begin("phase.restart", 0);
        let mut ws = WorkerScratch::new();
        let first_pair = (ItemId(0), ItemId(1), 0);
        let mut recover = Samples::default();
        let mut replayed = 0;
        for rep in 0..self.p.recover_reps {
            let t = Instant::now();
            let opened = self.tr.span(S_OPEN, 0, || open_durable(inp, dir, io));
            let Ok((_durable, gen, report)) = opened else {
                self.tally.op(false);
                continue;
            };
            let live = LiveEngine::new(gen);
            let (ans, _) = self.request(Serving { live: &live, vrefs }, &mut ws, first_pair, false);
            recover.record(t.elapsed().as_nanos() as u64);
            self.tally.op(ans.is_ok());
            replayed = report.replayed_frames;
            if rep == 0 {
                self.check_recovered(inp, producer, &live, vrefs, expect, &mut ws);
            }
        }
        self.tr.end(root);
        self.line(format!("snapshot load to first answer: {}", loads.describe(1e6, "ms")));
        self.line(format!(
            "durable recovery to first answer: {} ({replayed} frames replayed)",
            recover.describe(1e6, "ms")
        ));
        let restart =
            if self.p.durable_focus { recover.quantile(0.5) } else { loads.quantile(0.5) };
        self.e2e("restart_ms", restart as f64 / 1e6, "ms");
        self.layer("recover.replayed_frames", replayed as f64, "count");
        self.layer("recover.ms", self.span_median(S_OPEN) as f64 / 1e6, "ms");
        self.layer("snapshot.load_ms", self.span_median(S_LOAD) as f64 / 1e6, "ms");
        self.layer("snapshot.save_ms", self.span_median(S_SAVE) as f64 / 1e6, "ms");
    }

    /// Recovery must find every acknowledged label (byte for byte what the
    /// labeler issued) and every acknowledged view, and answer sampled
    /// queries like the reference.
    fn check_recovered(
        &mut self,
        inp: &Inputs,
        producer: &Producer,
        live: &LiveEngine,
        vrefs: &[ViewRef],
        expect: &Expected,
        ws: &mut WorkerScratch,
    ) {
        let gen = live.read();
        let store = gen.store();
        let labels = producer.labeler.labels();
        self.tally.op(store.len() == expect.items && gen.registry().view_count() == expect.views);
        let mut missing = 0;
        // Every ingested label, and every 97th label of the base.
        let ids = (0..expect.base_len).step_by(97).chain(expect.base_len..producer.handed);
        for i in ids.filter(|&i| i < store.len()) {
            let same = store.materialize(ItemId(i as u32)) == labels[i];
            missing += u64::from(!same);
        }
        missing += producer.handed.saturating_sub(store.len()) as u64;
        self.tally.op(missing == 0);
        self.tally.failed += missing;
        if missing > 0 {
            self.line(format!(
                "CHECK FAILED: {missing} acknowledged labels missing after recovery"
            ));
        }
        let checks = sample_checks(live, vrefs, producer.handed, self.seed, ws);
        self.verify(inp, labels, &inp.served_refs, &checks);
        // Views registered through the pipeline, in push order after the
        // views that were registered before it.
        let mut view_checks = Vec::new();
        for k in 0..producer.views_pushed {
            let vref =
                ViewRef { id: ViewId((expect.base_views + k) as u32), kind: VariantKind::Default };
            let compiled = gen.registry().is_compiled(vref.id, vref.kind);
            self.tally.op(compiled);
            let (a, b) = (
                ItemId((k * 7919 % producer.handed) as u32),
                ItemId((k * 104_729 % producer.handed) as u32),
            );
            view_checks.push((a, b, k, gen.core().try_query(ws, vref, a, b)));
        }
        self.tally.attempted += view_checks.len() as u64;
        self.verify(inp, labels, &inp.ingest_refs, &view_checks);
    }

    /// Self-time table over every recorded span, and the check that it
    /// never sums to more than the run's wall time.
    fn finish_trace(&mut self, wall_ns: u64) {
        if !self.tr.is_on() {
            return;
        }
        let rows = self_times(self.tr.spans());
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        self.line(format!(
            "self time by span ({} spans, {} dropped; sum {:.1} ms of {:.1} ms wall):",
            self.tr.spans().len(),
            self.tr.dropped(),
            self_sum as f64 / 1e6,
            wall_ns as f64 / 1e6
        ));
        for r in &rows {
            self.lines.push(format!(
                "  {:<30} n={:<9} total={:>10.3}ms self={:>10.3}ms",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            ));
        }
        let ok = self_sum <= wall_ns;
        self.tally.op(ok);
        if !ok {
            self.line("CHECK FAILED: self times sum to more than the wall time".into());
        }
        self.layer("trace.spans", self.tr.spans().len() as f64, "count");
        self.layer("trace.self_share", self_sum as f64 / wall_ns as f64, "ratio");
    }
}

/// What recovery must reproduce.
struct Expected {
    /// Items and views of the last published generation.
    items: usize,
    views: usize,
    /// Items and views of the base installed before ingest.
    base_len: usize,
    base_views: usize,
}

/// Sleeps, then spins, until `now()` reaches `due`.
fn wait_until(due: u64, now: impl Fn() -> u64) {
    loop {
        let t = now();
        if t >= due {
            return;
        }
        if due - t > SPIN_NS + 50_000 {
            std::thread::sleep(Duration::from_nanos(due - t - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn open_durable(
    inp: &Inputs,
    dir: &Path,
    io: &Arc<IoCounters>,
) -> Result<
    (DurableEngine, Arc<EngineGeneration>, wf_engine::RecoveryReport),
    wf_engine::SnapshotError,
> {
    let disk = DiskStorage::open(PathBuf::from(dir))?;
    let storage = Box::new(CountingStorage::new(disk, io.clone()));
    DurableEngine::open(inp.fvl.clone(), storage, LabelStore::DEFAULT_SHARD_CAPACITY)
}

/// `CHECKED` uniform pairs over the first `items` items, across the served
/// views, answered by `live`.
fn sample_checks(
    live: &LiveEngine,
    vrefs: &[ViewRef],
    items: usize,
    seed: u64,
    ws: &mut WorkerScratch,
) -> Vec<Check> {
    let mut r = rng(seed, 4);
    let gen = live.read();
    (0..CHECKED)
        .map(|_| {
            let a = ItemId(r.gen_range(0..items as u32));
            let b = ItemId(r.gen_range(0..items as u32));
            let v = r.gen_range(0..vrefs.len());
            (a, b, v, gen.core().try_query(ws, vrefs[v], a, b))
        })
        .collect()
}
