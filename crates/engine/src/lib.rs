//! `wf-engine` — the batched, allocation-free query-serving layer over FVL.
//!
//! The paper proves π answers a dependency query in constant time from
//! compact labels (§4.4, Theorem 10); this crate makes that constant small
//! under the workload shape a provenance service actually faces: *many
//! queries against few views over one labeled run*. There is one engine,
//! built from these pieces:
//!
//! * [`ViewRegistry`] — views registered once, their [`wf_core::ViewLabel`]s
//!   precompiled per §6.3 variant and addressed by dense [`ViewRef`]s;
//! * [`LabelStore`] — data labels interned with trie-shared path prefixes
//!   and addressed by dense [`ItemId`]s, partitioned into fixed-capacity
//!   copy-on-write shards so cloning a store is a directory copy and
//!   mutating it touches only the shards an insert batch lands in;
//! * [`EngineCore`] / [`WorkerScratch`] — the immutable, `Sync` read path
//!   over a registry and a store, plus per-thread mutable state threaded
//!   through the scratch-aware decode path ([`wf_core::pi_with`]). Steady
//!   state serving performs no heap allocation, Default-variant recursion
//!   chains are exponentiated once per distinct exponent, not per query,
//!   and `try_par_query_batch` / `try_par_all_pairs` shard a workload
//!   across `std::thread::scope` workers and merge deterministically,
//!   answering exactly like the sequential path. Every entry point returns
//!   a typed [`EngineError`] for a bad handle;
//! * [`EngineGeneration`] / [`EngineWriter`] / [`LiveEngine`] — the owned
//!   engine state and its *live updates under serving*: immutable
//!   generations published by atomic `Arc` swap, a copy-on-write staging
//!   writer, and a lock-free reader fast path, so labels and views keep
//!   landing while readers keep answering through
//!   [`EngineGeneration::core`];
//! * [`IngestQueue`] / [`IngestPipeline`] — concurrent multi-producer
//!   ingest over that same staging core: producers submit typed
//!   [`IngestOp`]s into a bounded MPSC queue (typed backpressure, never
//!   silent drops) and a publisher thread batches, coalesces and
//!   publishes them on a [`PublishPolicy`] cadence;
//! * [`DurableEngine`] / [`CompactionDriver`] — the pipeline's one
//!   persistence path ([`PipelineOptions::durable`]): every publish's
//!   delta record is framed, checksummed, appended and fsynced as the
//!   acknowledgement barrier, a recovery reader heals torn tails, skips
//!   compaction-stale frames and converges byte-identically with the
//!   live run, background compaction folds the replayed head into a
//!   fresh base by atomic rename, and a [`RetryPolicy`] absorbs transient
//!   storage faults.
//!
//! Generations persist themselves in one format: [`EngineGeneration::save`]
//! writes the interned store, the registered views and every compiled label
//! (power caches included) into the versioned, checksummed `wf-snapshot`
//! container, [`EngineWriter::publish_with_delta`] appends what each publish
//! added, and [`EngineGeneration::load`] / [`EngineGeneration::replay`]
//! restore a serving-ready generation without re-running labeling, view
//! compilation or cycle-finding — the "label once, query forever" economics
//! of §4 survive process restarts.
//!
//! Semantics are identical to [`wf_core::Fvl::query`] — the agreement is
//! enforced by the engine tests here and by the workspace-level property
//! tests; only the cost model changes.
//!
//! ```
//! use std::sync::Arc;
//! use wf_core::{Fvl, VariantKind};
//! use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
//! use wf_model::fixtures::paper_example;
//! use wf_run::fixtures::figure3_run;
//!
//! let ex = paper_example();
//! let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
//! let (run, ids) = figure3_run(&ex);
//!
//! let mut writer = EngineWriter::from_fvl(fvl.clone());
//! let items = writer.try_insert_labels(fvl.labeler(&run).labels()).unwrap();
//! let u2 = writer.register_view(ex.view_u2(), VariantKind::Default).unwrap();
//! let live = LiveEngine::new(writer.base().clone());
//! let gen = writer.publish(&live);
//!
//! // Example 8 as a batch of one:
//! let d17 = items[ids.d17.0 as usize];
//! let d31 = items[ids.d31.0 as usize];
//! let (mut ws, mut out) = (WorkerScratch::new(), Vec::new());
//! gen.core().try_query_batch_into(&mut ws, u2, &[(d17, d31)], &mut out).unwrap();
//! assert_eq!(out, vec![Some(true)]);
//! ```

mod durability;
mod error;
mod frozen;
mod generation;
mod ingest;
mod registry;
mod staging;
mod store;

pub use durability::{
    lock_durable, serialize_base, shared_durable, CompactionDriver, CompactionPolicy,
    CompactionStats, CompactionTotals, DurableEngine, LogStatus, RecoveryReport, SharedDurable,
};
pub use error::EngineError;
pub use frozen::{EngineCore, WorkerScratch};
pub use generation::{EngineGeneration, EngineWriter, LiveEngine};
pub use ingest::{
    classify_io_error, IngestError, IngestOp, IngestOutcome, IngestPipeline, IngestQueue,
    IngestStats, PipelineOptions, PipelineReport, PublishPolicy, RetryPolicy, SinkErrorClass,
    Ticket,
};
pub use registry::{ViewId, ViewRef, ViewRegistry};
pub use store::{ItemId, LabelStore};
// The error type `EngineGeneration::save` / `load` / `replay` surface, so
// engine users need not name `wf-snapshot` directly.
pub use wf_snapshot::SnapshotError;
