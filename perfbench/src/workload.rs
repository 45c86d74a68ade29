//! The named workloads: what each one serves, writes and restarts from.
//!
//! Every workload runs the same phases (set-up, per-call queries, query
//! batches, view registration, durable ingest, restart), so every metric
//! exists on every workload; the parameters decide which layer dominates.
//! README.md says why each workload was chosen.

use wf_core::VariantKind;
use wf_workloads::queries::PairDist;

const ALL_VARIANTS: &[VariantKind] =
    &[VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];
const DEFAULT_ONLY: &[VariantKind] = &[VariantKind::Default];

#[derive(Clone, Debug)]
pub struct Params {
    pub name: &'static str,
    /// Items in the served population built at set-up.
    pub prefix_items: usize,
    /// Set-up repetitions during each serving round, on top of the ones
    /// before serving starts.
    pub setup_reps_per_round: usize,
    /// Random safe grey-box views compiled at set-up, each under every
    /// variant in `variants`; queries pick one of those labels uniformly.
    pub views: usize,
    pub variants: &'static [VariantKind],
    /// How query endpoints are drawn from the served population.
    pub pairs: PairDist,
    /// Query pairs drawn up front and cycled through.
    pub pair_pool: usize,
    /// Fresh views registered one at a time, each under every variant in
    /// `fresh_variants`.
    pub fresh_views: usize,
    pub fresh_variants: &'static [VariantKind],
    /// Snapshot restarts per serving round.
    pub loads_per_round: usize,
    /// Repetitions of the durable reopen.
    pub recover_reps: usize,
    /// The workload is judged on its durable path: the query metrics come
    /// from the queries served beside the open-loop writes, and
    /// `restart_ms` times `DurableEngine::open` recovery. Otherwise they
    /// come from the serving rounds and a snapshot load.
    pub durable_focus: bool,
    /// Shares of `--seconds` spent on per-call queries, batches and the
    /// open loop.
    pub query_share: f64,
    pub batch_share: f64,
    pub open_share: f64,
}

pub fn by_name(name: &str) -> Option<Params> {
    let base = Params {
        name: "",
        prefix_items: 0,
        setup_reps_per_round: 4,
        views: 1,
        variants: DEFAULT_ONLY,
        pairs: PairDist::Uniform,
        pair_pool: 1 << 16,
        fresh_views: 48,
        fresh_variants: DEFAULT_ONLY,
        loads_per_round: 4,
        recover_reps: 3,
        durable_focus: false,
        query_share: 0.25,
        batch_share: 0.15,
        open_share: 0.45,
    };
    let p = match name {
        "multiview_hot" => Params {
            name: "multiview_hot",
            prefix_items: 20_000,
            views: 16,
            variants: ALL_VARIANTS,
            pairs: PairDist::HotKey { hot_items: 256, hot_prob: 0.5 },
            fresh_views: 32,
            fresh_variants: ALL_VARIANTS,
            ..base
        },
        "scan_1m" => Params {
            name: "scan_1m",
            prefix_items: 1_000_000,
            setup_reps_per_round: 0,
            pair_pool: 1 << 20,
            loads_per_round: 1,
            recover_reps: 1,
            ..base
        },
        "ingest_durable" => Params {
            name: "ingest_durable",
            prefix_items: 20_000,
            recover_reps: 5,
            durable_focus: true,
            // The serving rounds still run, so that set-up, view
            // registration and snapshot restarts are sampled across a
            // stretch of the run.
            query_share: 0.1,
            batch_share: 0.05,
            open_share: 0.7,
            ..base
        },
        _ => return None,
    };
    Some(p)
}

pub const NAMES: [&str; 3] = ["multiview_hot", "scan_1m", "ingest_durable"];
