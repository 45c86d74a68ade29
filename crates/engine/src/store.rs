//! The interned data-label store: dense [`ItemId`]s over trie-shared paths,
//! partitioned into copy-on-write shards.
//!
//! A provenance service holds the labels of *every* item of a run (often
//! millions) and serves queries against arbitrary pairs of them. Owning
//! [`DataLabel`]s store each parse-tree path as its own `Vec<EdgeLabel>`,
//! even though sibling labels share almost all of their edges — the paper
//! itself observes that "the size of φr(d) can be reduced almost by half by
//! factoring out the common prefix" (§4.2.2), and a run's labels
//! collectively share far more than pairwise prefixes.
//!
//! [`LabelStore`] exploits that: paths are interned into a trie keyed by
//! `(parent node, edge label)`, so every shared prefix is stored exactly
//! once per shard. A trie node is 12 bytes — its parent plus the edge
//! packed into one 64-bit word — and a stored label is two `(path node,
//! port)` pairs packed into 12 bytes, so an [`ItemId`] is a dense index
//! suitable for slicing, batching and bitmap bookkeeping.
//!
//! # Packed edges
//!
//! An [`EdgeLabel`] is 24 bytes (`Rec` carries a `u64` chain index). In a
//! trie node it is packed into 64 bits: a 2-bit tag, then fixed-width
//! fields — `Plain` holds `k` and `i` in 31 bits each, `Rec` holds `s` and
//! `t` in 11 bits each and `i` in 40. An edge whose fields do not fit (a
//! snapshot may legally carry a `Rec` chain index up to `u64::MAX`) goes
//! into its shard's escape table, deduplicated, and the word holds its
//! index under a third tag. Every edge thus has exactly one word per
//! shard, so `(parent, word)` is the unique key the tail's intern index
//! and the snapshot loader's duplicate check hash. Paths are unpacked on
//! the fly as they are walked.
//!
//! # Sharding (the generational-engine contract)
//!
//! The store is a *persistent* (structure-sharing) data structure: items
//! are partitioned into fixed-capacity shards, each behind an `Arc`, and
//! the store itself is just the shard directory. The invariants
//! (DESIGN.md S10):
//!
//! * **Id ranges never straddle shards.** Every shard except the last
//!   holds exactly [`LabelStore::shard_capacity`] labels, so shard lookup
//!   is pure arithmetic (`id / capacity`) — no search, no extra memory
//!   traffic on the read path.
//! * **Trie prefix sharing is per-shard.** Each shard interns its own
//!   slice of the paths; nothing in a query ever reaches across shards,
//!   so a shard is immutable the moment it fills.
//! * **Cloning is O(#shards), mutating is O(touched shards).** `Clone`
//!   copies the directory (one refcount bump per shard); an insert batch
//!   `Arc::make_mut`s only the tail shard(s) it lands in. This is what
//!   turns the generational writer's publish from an O(n) blob copy into
//!   an O(touched) increment — publish latency stays flat as the store
//!   grows to millions of items (`update_throughput` bench).
//!
//! # Sealed and tail shards
//!
//! A shard is *sealed* by the insert that fills it: no later insert can
//! reach it, so its intern indexes are dropped and its node, escape and
//! label tables move into exact-length allocations. A sealed shard is flat
//! creation-order arrays — 12-byte parent-pointer trie nodes, the
//! (usually empty) escape table and the label table — and nothing else.
//! Only the last, not-yet-full *tail* shard keeps an intern index. Sealing
//! needs no flag: "non-tail shards are exactly full" already says which
//! shards are sealed.
//!
//! The on-disk format is *unchanged* from the single-blob store:
//! [`LabelStore::write_snapshot`] merges the per-shard tries back into the
//! one creation-order trie of the §5 wire format (byte-identical to what
//! the pre-shard store wrote, since labels are always interned in id
//! order). It maps each shard's nodes into the merged trie once per node,
//! through a dense local→merged array, rather than re-interning every
//! label's path. [`LabelStore::read_snapshot_with_capacity`] decodes and
//! checks that trie once, then fills the shards directly: each label's
//! nodes are mapped into its shard through a dense merged→local array,
//! creating a local node parent-first the first time the shard sees it.
//! That is the node order insertion builds, with no per-label path or
//! hash lookup. Old streams load into sharded stores; new streams load in
//! old readers.

use crate::error::EngineError;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_bitio::{BitReader, BitWriter};
use wf_core::{DataLabel, LabelCodec, LabelRef, PortLabel, PortRef};
use wf_model::{Grammar, ModuleId, ProdId};
use wf_run::EdgeLabel;
use wf_snapshot::{edge_target_module, SnapshotError};

/// Dense id of a stored data label (assigned in insertion order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ItemId(pub u32);

/// Sentinel parent of the trie root (the empty path).
const ROOT: u32 = u32::MAX;

/// One trie node: its parent and the packed edge from that parent (see
/// the module docs). The 64-bit edge word is held as two `u32` halves,
/// low first, so the node is 12 bytes with 4-byte alignment rather than
/// 16 with 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Node {
    parent: u32,
    edge: [u32; 2],
}

impl Node {
    fn new(parent: u32, word: u64) -> Self {
        Self { parent, edge: [word as u32, (word >> 32) as u32] }
    }

    fn word(self) -> u64 {
        (self.edge[1] as u64) << 32 | self.edge[0] as u64
    }
}

/// Hashes the 12 bytes of the node once each (a derived impl would add
/// the array's length prefix).
impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.parent);
        state.write_u64(self.word());
    }
}

/// Tags of a packed edge word (its top two bits).
const TAG_PLAIN: u64 = 0;
const TAG_REC: u64 = 1;
const TAG_ESCAPED: u64 = 2;
const TAG_SHIFT: u32 = 62;

/// Field widths of the inline forms; the three `Rec` fields fill the 62
/// bits below the tag, as do `Plain`'s two.
const PLAIN_BITS: u32 = 31;
const REC_ST_BITS: u32 = 11;
const REC_I_BITS: u32 = 40;

const fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// `e` packed inline, or `None` if a field is too wide for its slot.
fn pack_inline(e: EdgeLabel) -> Option<u64> {
    match e {
        EdgeLabel::Plain { k, i } => {
            let (k, i) = (k.0 as u64, i as u64);
            (k <= mask(PLAIN_BITS) && i <= mask(PLAIN_BITS))
                .then_some(TAG_PLAIN << TAG_SHIFT | k << PLAIN_BITS | i)
        }
        EdgeLabel::Rec { s, t, i } => {
            let (s, t) = (s as u64, t as u64);
            (s <= mask(REC_ST_BITS) && t <= mask(REC_ST_BITS) && i <= mask(REC_I_BITS)).then_some(
                TAG_REC << TAG_SHIFT | s << (REC_ST_BITS + REC_I_BITS) | t << REC_I_BITS | i,
            )
        }
    }
}

/// Inverse of [`pack_inline`]; an escaped word yields its escape-table
/// index as the error.
fn unpack_inline(word: u64) -> Result<EdgeLabel, u32> {
    match word >> TAG_SHIFT {
        TAG_PLAIN => Ok(EdgeLabel::Plain {
            k: ProdId((word >> PLAIN_BITS & mask(PLAIN_BITS)) as u32),
            i: (word & mask(PLAIN_BITS)) as u32,
        }),
        TAG_REC => Ok(EdgeLabel::Rec {
            s: (word >> (REC_ST_BITS + REC_I_BITS) & mask(REC_ST_BITS)) as u32,
            t: (word >> REC_I_BITS & mask(REC_ST_BITS)) as u32,
            i: word & mask(REC_I_BITS),
        }),
        _ => Err(word as u32),
    }
}

/// One stored label: `(path node, port)` per side, either side absent
/// (mirroring [`DataLabel`]'s boundary cases). Path nodes index the owning
/// shard's trie. Packed into 12 bytes — two nodes, two ports and a
/// presence byte — where two `Option<(u32, u8)>`s would pad to 24.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct StoredLabel {
    out_node: u32,
    inp_node: u32,
    out_port: u8,
    inp_port: u8,
    /// [`StoredLabel::OUT`] | [`StoredLabel::INP`]: which sides exist.
    present: u8,
}

const _: () = assert!(std::mem::size_of::<StoredLabel>() == 12);

impl StoredLabel {
    const OUT: u8 = 1;
    const INP: u8 = 2;

    fn new(out: Option<(u32, u8)>, inp: Option<(u32, u8)>) -> Self {
        let (out_node, out_port) = out.unwrap_or((ROOT, 0));
        let (inp_node, inp_port) = inp.unwrap_or((ROOT, 0));
        let present =
            if out.is_some() { Self::OUT } else { 0 } | if inp.is_some() { Self::INP } else { 0 };
        Self { out_node, inp_node, out_port, inp_port, present }
    }

    fn out(self) -> Option<(u32, u8)> {
        (self.present & Self::OUT != 0).then_some((self.out_node, self.out_port))
    }

    fn inp(self) -> Option<(u32, u8)> {
        (self.present & Self::INP != 0).then_some((self.inp_node, self.inp_port))
    }
}

/// One fixed-capacity slice of the store: its labels plus the trie their
/// paths are interned into. Shards never reference one another, so a full
/// shard is immutable forever and shares structure across every generation
/// that contains it.
#[derive(Clone, Default)]
struct Shard {
    /// Trie nodes, 12 bytes each. Node ids are creation-ordered and local
    /// to this shard; parents always precede their children.
    nodes: Vec<Node>,
    /// Edges too wide to pack inline, each once, in first-use order; an
    /// escaped node's edge word holds its index here.
    escaped: Vec<EdgeLabel>,
    /// `node → id` — the interning index over `(parent, edge word)`. Only
    /// the tail shard keeps one; [`Shard::seal`] empties it.
    intern: HashMap<Node, u32>,
    /// `edge → index` into `escaped`, which keeps every edge at a single
    /// word per shard. Tail only, like `intern`.
    escape_index: HashMap<EdgeLabel, u32>,
    labels: Vec<StoredLabel>,
    /// Total edges across this shard's labels *before* sharing (metric).
    raw_edges: usize,
}

impl Shard {
    /// The edge word of `e` in this shard, if it has one: inline, or the
    /// index of an escape entry `e` already has.
    fn find_word(&self, e: EdgeLabel) -> Option<u64> {
        pack_inline(e)
            .or_else(|| self.escape_index.get(&e).map(|&idx| TAG_ESCAPED << TAG_SHIFT | idx as u64))
    }

    /// The edge word of `e` in this shard, adding an escape entry if `e`
    /// needs one and has none yet.
    fn intern_word(&mut self, e: EdgeLabel) -> u64 {
        pack_inline(e).unwrap_or_else(|| {
            // Entries are distinct node edges, so the count stays in u32.
            let next = self.escaped.len() as u32;
            let idx = *self.escape_index.entry(e).or_insert_with(|| {
                self.escaped.push(e);
                next
            });
            TAG_ESCAPED << TAG_SHIFT | idx as u64
        })
    }

    /// The edge into node `n`, unpacked.
    fn edge(&self, n: Node) -> EdgeLabel {
        unpack_inline(n.word()).unwrap_or_else(|idx| self.escaped[idx as usize])
    }

    /// Appends node `(parent, e)` without interning it; the caller knows
    /// the key is new.
    fn push(&mut self, parent: u32, e: EdgeLabel) -> u32 {
        let n = self.nodes.len() as u32;
        let word = self.intern_word(e);
        self.nodes.push(Node::new(parent, word));
        n
    }

    /// The id of node `(parent, e)`, interning it if new; at most `cap`
    /// nodes.
    fn try_intern_edge(&mut self, parent: u32, e: EdgeLabel, cap: u32) -> Result<u32, EngineError> {
        let found = self.find_word(e).and_then(|w| self.intern.get(&Node::new(parent, w)));
        if let Some(&n) = found {
            return Ok(n);
        }
        if self.nodes.len() as u64 >= cap as u64 {
            return Err(EngineError::StoreFull { what: "trie node", capacity: cap as u64 });
        }
        let n = self.push(parent, e);
        self.intern.insert(self.nodes[n as usize], n);
        Ok(n)
    }

    fn try_intern_path(&mut self, path: &[EdgeLabel], cap: u32) -> Result<u32, EngineError> {
        path.iter().try_fold(ROOT, |cur, &e| self.try_intern_edge(cur, e, cap))
    }

    /// Seals a full shard: nothing can be interned into it again, so the
    /// intern indexes go and every table moves into an exact-length
    /// allocation. Copying rather than shrinking in place frees each whole
    /// growth buffer for the next shard's growth to reuse; a buffer shrunk
    /// in place leaves its freed tail pinned between live tables, resident
    /// but unusable.
    fn seal(&mut self) {
        self.intern = HashMap::new();
        self.escape_index = HashMap::new();
        self.nodes = self.nodes.to_vec();
        self.escaped = self.escaped.to_vec();
        self.labels = self.labels.to_vec();
    }

    /// Builds the intern index of a tail shard whose nodes were filled
    /// without one (the snapshot loader).
    fn index_nodes(&mut self) {
        self.intern = self.nodes.iter().enumerate().map(|(n, &key)| (key, n as u32)).collect();
    }

    /// Writes the root→node path into `buf` (cleared first). Reusable-buffer
    /// form: the serving path materializes into per-worker scratch vectors.
    fn write_path(&self, mut node: u32, buf: &mut Vec<EdgeLabel>) {
        buf.clear();
        while node != ROOT {
            let n = self.nodes[node as usize];
            buf.push(self.edge(n));
            node = n.parent;
        }
        buf.reverse();
    }
}

/// Interned label storage with shared-prefix paths and dense item ids,
/// partitioned into copy-on-write shards (see the module docs).
///
/// Cloning a store is the copy-on-write step of the generational engine:
/// the clone shares every shard with the original, so a writer can keep
/// interning into its copy — un-sharing only the shards it touches —
/// while readers serve from the original.
#[derive(Clone)]
pub struct LabelStore {
    /// The shard directory. Every shard but the last holds exactly
    /// `shard_capacity` labels.
    shards: Vec<Arc<Shard>>,
    shard_capacity: u32,
    /// Total stored labels (cached; equals the sum of shard lengths).
    len: usize,
}

impl LabelStore {
    /// Items per shard for stores built with [`LabelStore::new`]. A
    /// publish pays one ≤-capacity tail-shard copy plus an n/capacity
    /// directory clone; the directory clone's per-shard constant (Arc
    /// traffic on stage, publish and generation drop) is what shows up
    /// at the million-item end of the bench sweep, so the default sits
    /// above √n: 4096 keeps a 10⁶-item store at 256 shards and the
    /// whole cycle in the tens of microseconds at every swept size.
    pub const DEFAULT_SHARD_CAPACITY: u32 = 4096;

    pub fn new() -> Self {
        Self::with_shard_capacity(Self::DEFAULT_SHARD_CAPACITY)
    }

    /// A store whose shards hold `shard_capacity` labels each. Tiny
    /// capacities exercise shard boundaries in tests; `u32::MAX`
    /// effectively disables sharding (one ever-growing shard — the
    /// pre-shard store, used as the bench baseline and the differential
    /// reference).
    ///
    /// Panics if `shard_capacity` is 0; loaders that take a capacity from
    /// their caller reject it with a typed error instead (see
    /// [`LabelStore::read_snapshot_with_capacity`]).
    pub fn with_shard_capacity(shard_capacity: u32) -> Self {
        assert!(shard_capacity >= 1, "shard capacity must be at least 1");
        Self { shards: Vec::new(), shard_capacity, len: 0 }
    }

    /// The typed form of [`LabelStore::with_shard_capacity`]'s capacity
    /// check, for entry points that return a `Result`.
    pub(crate) fn check_shard_capacity(shard_capacity: u32) -> Result<(), SnapshotError> {
        if shard_capacity == 0 {
            return Err(SnapshotError::InvalidArgument("shard capacity must be at least 1"));
        }
        Ok(())
    }

    /// Items per shard of this store.
    pub fn shard_capacity(&self) -> u32 {
        self.shard_capacity
    }

    /// Number of shards currently in the directory.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many shards the id range `base_len..self.len()` spans — the
    /// shards a writer that staged exactly that increment had to touch
    /// (copy, or freshly create). What the `update_throughput` bench
    /// reports along its "touched shards" axis.
    pub fn shards_touched_since(&self, base_len: usize) -> usize {
        if self.len <= base_len {
            return 0;
        }
        let cap = self.shard_capacity as usize;
        (self.len - 1) / cap - base_len / cap + 1
    }

    /// Interns one label; returns its dense id. Insertion order defines the
    /// id sequence, so inserting a run's labels in data-item order makes
    /// `ItemId(i)` coincide with the run's `DataId(i)`.
    ///
    /// An exhausted `u32` id space (≈ 4 × 10⁹ trie nodes or labels) is a
    /// typed [`EngineError::StoreFull`]. A failed insert stores no label;
    /// path nodes interned before the overflow was detected remain in the
    /// tail shard's trie (they are consistent and re-usable — the next
    /// successful insert of a sharing label picks them up).
    pub fn try_insert(&mut self, d: &DataLabel) -> Result<ItemId, EngineError> {
        self.try_insert_bounded(d, ROOT)
    }

    /// Capacity-parameterized core of [`LabelStore::try_insert`]; `cap` is
    /// `ROOT` in production and tiny in tests (a 2³²-node trie cannot be
    /// built to exercise the overflow path for real). `cap` bounds the
    /// total label count and each shard's trie node count.
    pub(crate) fn try_insert_bounded(
        &mut self,
        d: &DataLabel,
        cap: u32,
    ) -> Result<ItemId, EngineError> {
        if self.len as u64 >= cap as u64 {
            return Err(EngineError::StoreFull { what: "label id", capacity: cap as u64 });
        }
        let id = ItemId(self.len as u32);
        // Open a fresh shard when the tail is at capacity — never earlier,
        // so every non-tail shard is exactly full and id→shard stays pure
        // arithmetic.
        if self.shards.last().is_none_or(|s| s.labels.len() as u64 >= self.shard_capacity as u64) {
            self.shards.push(Arc::new(Shard::default()));
        }
        let tail = self.shards.last_mut().expect("tail shard was just ensured");
        // The copy-on-write step: the first insert into a shard some
        // published generation still shares pays the copy; every later
        // insert finds the Arc unique and mutates in place.
        let shard = Arc::make_mut(tail);
        let out = match &d.out {
            Some(p) => Some((shard.try_intern_path(&p.path, cap)?, p.port)),
            None => None,
        };
        let inp = match &d.inp {
            Some(p) => Some((shard.try_intern_path(&p.path, cap)?, p.port)),
            None => None,
        };
        // Count raw edges only once the label is definitely stored, so a
        // rejected insert cannot skew the sharing metric.
        shard.raw_edges +=
            d.out.as_ref().map_or(0, |p| p.path.len()) + d.inp.as_ref().map_or(0, |p| p.path.len());
        shard.labels.push(StoredLabel::new(out, inp));
        if shard.labels.len() as u64 == self.shard_capacity as u64 {
            shard.seal();
        }
        self.len += 1;
        Ok(id)
    }

    /// Interns a slice of labels, returning their ids (in order). Stops at
    /// the first label that cannot be interned, leaving every earlier label
    /// stored. The error is [`EngineError::BatchStoreFull`], carrying the
    /// index of the label that failed — `labels[..index]` are stored, so a
    /// caller can retry `labels[index..]` against a fresh store (or shard)
    /// without double-inserting the prefix.
    pub fn try_insert_all(&mut self, labels: &[DataLabel]) -> Result<Vec<ItemId>, EngineError> {
        self.try_insert_all_bounded(labels, ROOT)
    }

    /// Capacity-parameterized core of [`LabelStore::try_insert_all`] (see
    /// [`LabelStore::try_insert_bounded`]).
    pub(crate) fn try_insert_all_bounded(
        &mut self,
        labels: &[DataLabel],
        cap: u32,
    ) -> Result<Vec<ItemId>, EngineError> {
        // Sized up front: collecting an iterator of `Result`s loses the
        // exact length and would grow the id vector by doubling.
        let mut ids = Vec::with_capacity(labels.len());
        for (index, d) in labels.iter().enumerate() {
            ids.push(self.try_insert_bounded(d, cap).map_err(|e| e.at_batch_index(index))?);
        }
        Ok(ids)
    }

    /// Number of stored labels.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(stored trie edges, raw label edges)` across all shards — how much
    /// the shared-prefix tries saved over per-label path storage.
    pub fn edge_stats(&self) -> (usize, usize) {
        self.shards
            .iter()
            .fold((0, 0), |(nodes, raw), s| (nodes + s.nodes.len(), raw + s.raw_edges))
    }

    /// The shard holding `id`, and `id`'s label index within it.
    fn locate(&self, id: ItemId) -> (&Shard, usize) {
        let shard = &self.shards[(id.0 / self.shard_capacity) as usize];
        (shard, (id.0 % self.shard_capacity) as usize)
    }

    /// A borrowed [`LabelRef`] over caller-owned path buffers — the form
    /// [`wf_core::pi_with`] consumes. Ports are copied; paths are
    /// materialized into `out_buf` / `inp_buf` (tiny: label paths are
    /// `O(|Δ|)` long, Lemma 4 — reachability matrices dwarf this). Shard
    /// lookup is one divide; the walk itself touches a single shard.
    pub fn label_ref<'b>(
        &self,
        id: ItemId,
        out_buf: &'b mut Vec<EdgeLabel>,
        inp_buf: &'b mut Vec<EdgeLabel>,
    ) -> LabelRef<'b> {
        let (shard, local) = self.locate(id);
        let stored = shard.labels[local];
        let out = stored.out().map(|(node, port)| {
            shard.write_path(node, out_buf);
            PortRef { path: &*out_buf, port }
        });
        let inp = stored.inp().map(|(node, port)| {
            shard.write_path(node, inp_buf);
            PortRef { path: &*inp_buf, port }
        });
        LabelRef { out, inp }
    }

    /// Serializes the store in the v1 (pre-shard) wire format: the trie
    /// nodes in creation order (so shared prefixes stay shared on disk —
    /// each node is its parent link plus one edge in the §5 wire format),
    /// then the dense label table, then the raw-edge metric. Per-shard
    /// tries are merged back into one creation-order trie: walking the
    /// labels in id order, each shard node a label reaches is mapped into
    /// the merged trie once, missing ancestors first, through a dense
    /// local→merged array. That creates merged nodes in the order
    /// re-interning every label's path would — labels are only ever
    /// interned in id order — so the merged trie is *identical* to what
    /// the pre-shard store wrote and snapshots stay byte-compatible in
    /// both directions. Node references use a γ-coded `root+1 / node+2`
    /// scheme because a stored path can legitimately be the *empty* path
    /// (boundary items of the start production point at the trie root).
    pub fn write_snapshot(&self, codec: &LabelCodec, w: &mut BitWriter) {
        let mut merged = Shard::default();
        let mut labels: Vec<StoredLabel> = Vec::with_capacity(self.len);
        let mut map = NodeMap::new(0);
        let mut raw_edges = 0usize;
        for shard in &self.shards {
            raw_edges += shard.raw_edges;
            map.next_source(shard.nodes.len());
            for l in &shard.labels {
                let mut side = |side: Option<(u32, u8)>| {
                    side.map(|(node, port)| {
                        let n = map.map(node, shard, &mut merged, |merged, parent, e| {
                            merged
                                .try_intern_edge(parent, e, ROOT)
                                .expect("merged trie cannot exceed the per-shard id space")
                        });
                        (n, port)
                    })
                };
                let (out, inp) = (side(l.out()), side(l.inp()));
                labels.push(StoredLabel::new(out, inp));
            }
        }
        w.write_gamma(merged.nodes.len() as u64 + 1);
        for &n in &merged.nodes {
            w.write_gamma(node_code(n.parent));
            codec.write_edge(w, &merged.edge(n));
        }
        w.write_gamma(labels.len() as u64 + 1);
        for l in &labels {
            for side in [l.out(), l.inp()] {
                w.push_bit(side.is_some());
                if let Some((node, port)) = side {
                    w.write_gamma(node_code(node));
                    w.write_bits(port as u64, 8);
                }
            }
        }
        w.write_gamma(raw_edges as u64 + 1);
    }

    /// Inverse of [`LabelStore::write_snapshot`], re-sharding at
    /// [`LabelStore::DEFAULT_SHARD_CAPACITY`] — see
    /// [`LabelStore::read_snapshot_with_capacity`].
    pub fn read_snapshot(
        r: &mut BitReader<'_>,
        codec: &LabelCodec,
        grammar: &Grammar,
        pg: &ProdGraph,
    ) -> Result<Self, SnapshotError> {
        Self::read_snapshot_with_capacity(r, codec, grammar, pg, Self::DEFAULT_SHARD_CAPACITY)
    }

    /// Inverse of [`LabelStore::write_snapshot`]. The wire format carries
    /// one merged trie; it is decoded and checked once, then the labels go
    /// straight into shards of `shard_capacity` (ids are positions in the
    /// label table, so they come back identical). Each label's nodes are
    /// mapped into its shard through a dense merged→local array stamped
    /// per shard; a node the shard has not seen yet is created there
    /// parent-first, which is exactly the node order
    /// [`LabelStore::try_insert`] builds. No path is materialized and no hash
    /// lookup happens per label: full shards come out sealed, and only the
    /// tail's intern index is built, once, from its nodes.
    ///
    /// Decoding validates everything a later query indexes with: forward
    /// parent references and duplicate `(parent, edge)` keys are rejected,
    /// every edge's fields are range-checked against the grammar and must
    /// continue its parent's path, every stored port is checked against its
    /// path's terminal module, every label needs an endpoint, and the
    /// recorded raw-edge metric must match the labels — bad bytes fail
    /// *here*, typed, not inside π. A zero `shard_capacity` is
    /// [`SnapshotError::InvalidArgument`], raised before reading.
    pub fn read_snapshot_with_capacity(
        r: &mut BitReader<'_>,
        codec: &LabelCodec,
        grammar: &Grammar,
        pg: &ProdGraph,
        shard_capacity: u32,
    ) -> Result<Self, SnapshotError> {
        Self::check_shard_capacity(shard_capacity)?;
        let cycles = pg
            .cycles()
            .map_err(|_| SnapshotError::Malformed("production graph has no cycle tables"))?;
        let node_count = (r.read_gamma()? - 1) as usize;
        if node_count >= ROOT as usize {
            return Err(SnapshotError::Malformed("trie larger than the id space"));
        }
        let reserve = node_count.min(1 << 20);
        let mut merged = Shard { nodes: Vec::with_capacity(reserve), ..Shard::default() };
        // Per node: the module its path ends at — what its labels' ports
        // index into — and its depth, the raw edges each reference to it
        // counts. The root (the empty path) ends at the start module.
        let mut ends: Vec<(ModuleId, usize)> = Vec::with_capacity(reserve);
        let mut seen = HashSet::with_capacity(reserve);
        let end_of = |ends: &[(ModuleId, usize)], node: u32| {
            if node == ROOT {
                (grammar.start(), 0)
            } else {
                ends[node as usize]
            }
        };
        for n in 0..node_count {
            let parent = decode_node(r.read_gamma()?, n)?;
            let e = codec.read_edge(r)?;
            // Each edge must continue its parent's path — the chaining rule
            // shared with the delta-label reader
            // ([`wf_snapshot::edge_target_module`]); without it a forged
            // trie would feed π mismatched matrix dimensions.
            let (parent_module, parent_depth) = end_of(&ends, parent);
            let module = edge_target_module(grammar, cycles, parent_module, e)?;
            let n = Node::new(parent, merged.intern_word(e));
            if !seen.insert(n) {
                return Err(SnapshotError::Malformed("duplicate trie edge"));
            }
            merged.nodes.push(n);
            ends.push((module, parent_depth + 1));
        }
        drop(seen);
        let label_count = (r.read_gamma()? - 1) as usize;
        if label_count >= ROOT as usize {
            return Err(SnapshotError::Malformed("label table larger than the id space"));
        }
        let cap = shard_capacity as usize;
        let mut store = Self::with_shard_capacity(shard_capacity);
        let mut map = NodeMap::new(node_count);
        let mut shard = Shard::default();
        for i in 0..label_count {
            let mut side = |outputs: bool| -> Result<Option<(u32, u8)>, SnapshotError> {
                if !r.read_bit()? {
                    return Ok(None);
                }
                let node = decode_node(r.read_gamma()?, node_count)?;
                let port = r.read_bits(8)? as u8;
                let sig = grammar.sig(end_of(&ends, node).0);
                let arity = if outputs { sig.outputs() } else { sig.inputs() };
                if port as usize >= arity {
                    return Err(SnapshotError::Malformed("label port out of range"));
                }
                Ok(Some((node, port)))
            };
            let out = side(true)?;
            let inp = side(false)?;
            if out.is_none() && inp.is_none() {
                return Err(SnapshotError::Malformed("label with no endpoint"));
            }
            if shard.labels.is_empty() {
                shard.labels.reserve_exact((label_count - i).min(cap).min(1 << 20));
            }
            let mut local = |side: Option<(u32, u8)>| {
                side.map(|(node, port)| {
                    shard.raw_edges += end_of(&ends, node).1;
                    let local = map.map(node, &merged, &mut shard, Shard::push);
                    (local, port)
                })
            };
            let (out, inp) = (local(out), local(inp));
            shard.labels.push(StoredLabel::new(out, inp));
            if shard.labels.len() == cap {
                shard.seal();
                store.shards.push(Arc::new(std::mem::take(&mut shard)));
                map.next_source(0);
            }
        }
        if !shard.labels.is_empty() {
            shard.index_nodes();
            store.shards.push(Arc::new(shard));
        }
        store.len = label_count;
        let raw_edges = (r.read_gamma()? - 1) as usize;
        // The metric is a pure function of the stored labels; a stream
        // whose recorded value disagrees with the labels it carries was
        // not written by any honest writer.
        if store.edge_stats().1 != raw_edges {
            return Err(SnapshotError::Malformed("raw edge metric disagrees with stored labels"));
        }
        Ok(store)
    }

    /// Rebuilds the owning [`DataLabel`] (allocates; diagnostics and tests).
    pub fn materialize(&self, id: ItemId) -> DataLabel {
        let (shard, local) = self.locate(id);
        let stored = shard.labels[local];
        let port = |(node, port): (u32, u8)| {
            let mut path = Vec::new();
            shard.write_path(node, &mut path);
            PortLabel::new(path, port)
        };
        DataLabel { out: stored.out().map(port), inp: stored.inp().map(port) }
    }
}

impl Default for LabelStore {
    fn default() -> Self {
        Self::new()
    }
}

/// A dense node map from a source trie into a trie being built: source
/// node `m` is target node `slots[m].1` iff `slots[m].0` is the current
/// stamp, so starting over is one increment rather than a clear. The
/// snapshot loader maps the merged trie into each shard it fills (one
/// stamp per shard); the writer maps each shard into the merged trie (one
/// stamp per source shard).
struct NodeMap {
    slots: Vec<(u32, u32)>,
    stamp: u32,
    /// Scratch: the source nodes a lookup still has to map, leaf first.
    missing: Vec<u32>,
}

impl NodeMap {
    fn new(source_len: usize) -> Self {
        Self { slots: vec![(0, 0); source_len], stamp: 1, missing: Vec::new() }
    }

    /// Forgets every mapping and makes room for a source of `source_len`
    /// nodes.
    fn next_source(&mut self, source_len: usize) {
        self.stamp += 1;
        if self.slots.len() < source_len {
            self.slots.resize(source_len, (0, 0));
        }
    }

    /// The id in `target` of source node `node` (the root maps to itself).
    /// A node not mapped yet is added with every unmapped ancestor, parent
    /// first, by `add(target, target parent, edge)` — the order interning
    /// its path would create them in.
    fn map(
        &mut self,
        node: u32,
        source: &Shard,
        target: &mut Shard,
        mut add: impl FnMut(&mut Shard, u32, EdgeLabel) -> u32,
    ) -> u32 {
        let mut m = node;
        while m != ROOT && self.slots[m as usize].0 != self.stamp {
            self.missing.push(m);
            m = source.nodes[m as usize].parent;
        }
        let mut mapped = if m == ROOT { ROOT } else { self.slots[m as usize].1 };
        while let Some(m) = self.missing.pop() {
            mapped = add(target, mapped, source.edge(source.nodes[m as usize]));
            self.slots[m as usize] = (self.stamp, mapped);
        }
        mapped
    }
}

/// γ-friendly code of a trie node reference: `1` for the root sentinel,
/// `node + 2` otherwise (γ codes positive integers only).
fn node_code(node: u32) -> u64 {
    if node == ROOT {
        1
    } else {
        node as u64 + 2
    }
}

/// Inverse of [`node_code`]; `bound` is the number of already-known nodes,
/// so parents reference strictly earlier nodes and labels reference any
/// node of the finished trie.
fn decode_node(code: u64, bound: usize) -> Result<u32, SnapshotError> {
    if code == 1 {
        return Ok(ROOT);
    }
    let node = code - 2;
    if node >= bound as u64 {
        return Err(SnapshotError::Malformed("trie node reference out of range"));
    }
    Ok(node as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_core::Fvl;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    const _: () = assert!(std::mem::size_of::<Node>() == 12);

    #[test]
    fn roundtrips_every_figure3_label() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();
        assert_eq!(store.len(), run.item_count());
        for (i, d) in labeler.labels().iter().enumerate() {
            assert_eq!(&store.materialize(ids[i]), d, "item {i}");
        }
    }

    /// The same roundtrip with a shard capacity small enough that every
    /// shard boundary of the Figure 3 run is crossed: ids stay dense,
    /// non-tail shards are exactly full, and every label materializes
    /// identically from whichever shard it landed in.
    #[test]
    fn tiny_shards_roundtrip_across_boundaries() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        for cap in [1u32, 2, 3, 7] {
            let mut store = LabelStore::with_shard_capacity(cap);
            let ids = store.try_insert_all(labeler.labels()).unwrap();
            let n = labeler.labels().len();
            assert_eq!(store.len(), n);
            assert_eq!(store.shard_count(), n.div_ceil(cap as usize), "cap {cap}");
            for (i, d) in labeler.labels().iter().enumerate() {
                assert_eq!(&store.materialize(ids[i]), d, "cap {cap} item {i}");
            }
            let (mut ob, mut ib) = (Vec::new(), Vec::new());
            for (i, d) in labeler.labels().iter().enumerate() {
                let r = store.label_ref(ids[i], &mut ob, &mut ib);
                assert_eq!(r.out.is_some(), d.out.is_some(), "cap {cap} item {i}");
                assert_eq!(r.inp.is_some(), d.inp.is_some(), "cap {cap} item {i}");
            }
        }
    }

    /// Whether `shard` has the sealed layout: exactly full, no intern or
    /// escape-index entries, and node, escape and label tables cut to
    /// exact length.
    fn is_sealed(shard: &Shard, cap: u32) -> bool {
        shard.labels.len() == cap as usize
            && shard.intern.capacity() == 0
            && shard.escape_index.capacity() == 0
            && shard.nodes.len() == shard.nodes.capacity()
            && shard.escaped.len() == shard.escaped.capacity()
            && shard.labels.len() == shard.labels.capacity()
    }

    /// Every shard's escape table holds distinct edges that do not pack
    /// inline, every non-tail shard is sealed, and the tail (if not full)
    /// interns exactly its own nodes and escape entries.
    fn assert_sealed_layout(store: &LabelStore, what: &str) {
        let cap = store.shard_capacity();
        for (k, shard) in store.shards.iter().enumerate() {
            let distinct: HashSet<_> = shard.escaped.iter().collect();
            assert_eq!(distinct.len(), shard.escaped.len(), "{what}: cap {cap} shard {k} escapes");
            assert!(shard.escaped.iter().all(|&e| pack_inline(e).is_none()), "{what}: shard {k}");
        }
        let (tail, sealed) = store.shards.split_last().expect("a non-empty store");
        for (k, shard) in sealed.iter().enumerate() {
            assert!(is_sealed(shard, cap), "{what}: cap {cap} shard {k} is not sealed");
        }
        if tail.labels.len() == cap as usize {
            assert!(is_sealed(tail, cap), "{what}: cap {cap} full tail is not sealed");
        } else {
            assert_eq!(tail.intern.len(), tail.nodes.len(), "{what}: cap {cap} tail index");
            for (n, key) in tail.nodes.iter().enumerate() {
                assert_eq!(tail.intern.get(key), Some(&(n as u32)), "{what}: cap {cap} node {n}");
            }
            assert_eq!(tail.escape_index.len(), tail.escaped.len(), "{what}: cap {cap} escapes");
            for (i, e) in tail.escaped.iter().enumerate() {
                assert_eq!(tail.escape_index.get(e), Some(&(i as u32)), "{what}: cap {cap}");
            }
        }
    }

    /// Inserts `labels` at `cap`, checks the sealed layout, then writes a
    /// snapshot, loads it back at the same capacity and asserts the loaded
    /// store is the *same* layout — per-shard node, escape and label
    /// tables, raw-edge counts and tail indexes equal to what `insert_all`
    /// built. Returns the inserted store and the snapshot bytes.
    fn assert_load_matches_insert(
        labels: &[DataLabel],
        fvl: &Fvl,
        grammar: &Grammar,
        cap: u32,
    ) -> (LabelStore, wf_bitio::BitVec) {
        let mut built = LabelStore::with_shard_capacity(cap);
        built.try_insert_all(labels).unwrap();
        assert_sealed_layout(&built, "inserted");
        let mut wr = BitWriter::new();
        built.write_snapshot(fvl.codec(), &mut wr);
        let bits = wr.finish();
        let mut r = BitReader::new(&bits);
        let loaded = LabelStore::read_snapshot_with_capacity(
            &mut r,
            fvl.codec(),
            grammar,
            fvl.prod_graph(),
            cap,
        )
        .unwrap();
        assert_eq!(r.remaining(), 0);
        assert_sealed_layout(&loaded, "loaded");
        assert_eq!((loaded.len(), loaded.shard_count()), (built.len(), built.shard_count()));
        for (k, (a, b)) in built.shards.iter().zip(&loaded.shards).enumerate() {
            assert_eq!(a.nodes, b.nodes, "cap {cap} shard {k} nodes");
            assert_eq!(a.escaped, b.escaped, "cap {cap} shard {k} escape table");
            assert_eq!(a.labels, b.labels, "cap {cap} shard {k} labels");
            assert_eq!(a.raw_edges, b.raw_edges, "cap {cap} shard {k} raw edges");
            assert_eq!(a.intern, b.intern, "cap {cap} shard {k} intern index");
            assert_eq!(a.escape_index, b.escape_index, "cap {cap} shard {k} escape index");
        }
        (built, bits)
    }

    /// A BioAID run with a few full 4096-item shards, for layout pins at
    /// the default capacity.
    fn bioaid_labels(items: usize) -> (wf_workloads::Workload, Vec<DataLabel>) {
        use rand::SeedableRng;
        let w = wf_workloads::bioaid(1);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (_, run) = wf_workloads::sample::sample_run(&w, &pg, &mut rng, items);
        let labels = Fvl::new(&w.spec).unwrap().labeler(&run).labels().to_vec();
        (w, labels)
    }

    /// The layout pins of DESIGN.md S10: inserting seals each shard as it
    /// fills, and a store loaded from a snapshot is the *same* layout —
    /// per-shard node tables, label tables, raw-edge counts and tail
    /// index equal to what `insert_all` built — at every capacity,
    /// including the default and the unsharded `u32::MAX`.
    #[test]
    fn loaded_layout_equals_inserted_layout_and_full_shards_are_sealed() {
        let (w, labels) = bioaid_labels(9000);
        let fvl = Fvl::new(&w.spec).unwrap();
        assert!(labels.len() > 2 * 4096, "two full default shards plus a tail");
        for cap in [1u32, 3, 8, 4096, u32::MAX] {
            assert_load_matches_insert(&labels, &fvl, &w.spec.grammar, cap);
        }
    }

    /// Every edge field at its extreme packs and unpacks losslessly, and
    /// exactly the edges whose fields overflow their slots escape.
    #[test]
    fn edge_words_roundtrip_and_escape_only_past_their_widths() {
        let plain = |k: u32, i: u32| EdgeLabel::Plain { k: ProdId(k), i };
        let rec = |s: u32, t: u32, i: u64| EdgeLabel::Rec { s, t, i };
        let (p, st, ri) = (mask(PLAIN_BITS) as u32, mask(REC_ST_BITS) as u32, mask(REC_I_BITS));
        for e in [plain(0, 0), plain(p, p), rec(0, 0, 0), rec(st, st, ri), rec(st, 0, ri)] {
            let word = pack_inline(e).expect("fits inline");
            assert_eq!(unpack_inline(word), Ok(e));
        }
        for e in [plain(p + 1, 0), plain(0, p + 1), rec(st + 1, 0, 0), rec(0, st + 1, 0)] {
            assert_eq!(pack_inline(e), None, "{e:?}");
        }
        assert_eq!(pack_inline(rec(0, 0, ri + 1)), None);
        assert_eq!(pack_inline(rec(u32::MAX, u32::MAX, u64::MAX)), None);
    }

    /// Labels whose edges need the escape table — fields at `u32::MAX`
    /// and a chain index at `u64::MAX`, under several parents and mixed
    /// with inline edges — insert, materialize, borrow and survive a
    /// clone plus insert after a seal, at every capacity. Each escaped
    /// edge is stored once per shard, so re-inserting a label adds no
    /// node.
    #[test]
    fn escaped_edges_roundtrip_at_every_capacity() {
        let wide_plain = EdgeLabel::Plain { k: ProdId(u32::MAX), i: u32::MAX };
        let wide_rec = EdgeLabel::Rec { s: u32::MAX, t: u32::MAX, i: u64::MAX };
        let small = |i: u32| EdgeLabel::Plain { k: ProdId(i % 3), i };
        let label = |j: usize| {
            let j32 = j as u32;
            let out = match j % 4 {
                0 => vec![wide_plain, wide_rec, small(j32 % 5)],
                1 => vec![small(j32 % 7), wide_rec],
                2 => vec![
                    wide_rec,
                    wide_plain,
                    EdgeLabel::Rec { s: 1, t: 2, i: u64::MAX - j as u64 },
                ],
                _ => vec![],
            };
            let inp = (j % 3 != 0).then(|| PortLabel::new(vec![wide_plain, small(j32)], 1));
            DataLabel { out: Some(PortLabel::new(out, (j % 4) as u8)), inp }
        };
        let labels: Vec<DataLabel> = (0..4096 + 5).map(label).collect();
        for cap in [1u32, 3, 8, 4096, u32::MAX] {
            let mut store = LabelStore::with_shard_capacity(cap);
            let ids = store.try_insert_all(&labels).unwrap();
            assert_sealed_layout(&store, "escaped");
            assert!(store.shards.iter().any(|s| !s.escaped.is_empty()), "cap {cap}");
            let (mut ob, mut ib) = (Vec::new(), Vec::new());
            for (i, d) in labels.iter().enumerate() {
                assert_eq!(&store.materialize(ids[i]), d, "cap {cap} item {i}");
                let r = store.label_ref(ids[i], &mut ob, &mut ib);
                assert_eq!(
                    r.out.map(|p| (p.path.to_vec(), p.port)),
                    d.out.as_ref().map(|p| (p.path.clone(), p.port))
                );
                assert_eq!(
                    r.inp.map(|p| (p.path.to_vec(), p.port)),
                    d.inp.as_ref().map(|p| (p.path.clone(), p.port))
                );
            }
            // Re-inserting labels the tail already holds reuses its nodes
            // and escape entries.
            let mut staged = store.clone();
            let tail = staged.shards.len() - 1;
            let local = (staged.len() - 1) % cap as usize;
            let (nodes, escapes) =
                (staged.shards[tail].nodes.len(), staged.shards[tail].escaped.len());
            if staged.shards[tail].labels.len() < cap as usize {
                staged.try_insert(&labels[staged.len() - 1 - local]).unwrap();
                assert_eq!(staged.shards[tail].nodes.len(), nodes, "cap {cap}");
                assert_eq!(staged.shards[tail].escaped.len(), escapes, "cap {cap}");
            }
            // After a seal: fill the tail, then a clone plus one insert
            // opens a fresh tail and shares every sealed `Arc`.
            if cap != u32::MAX {
                while staged.len() % cap as usize != 0 {
                    staged.try_insert(&labels[staged.len() % labels.len()]).unwrap();
                }
                assert!(staged.shards.iter().all(|s| is_sealed(s, cap)), "cap {cap}");
            }
            let mut again = staged.clone();
            let id = again.try_insert(&labels[0]).unwrap();
            assert_eq!(again.shards_touched_since(staged.len()), 1, "cap {cap}");
            for (a, b) in staged.shards.iter().zip(&again.shards).take(staged.len() / cap as usize)
            {
                assert!(Arc::ptr_eq(a, b), "cap {cap}: sealed shards stay shared");
            }
            assert_sealed_layout(&again, "escaped, after a seal");
            assert_eq!(&again.materialize(id), &labels[0], "cap {cap}");
            let r = again.label_ref(id, &mut ob, &mut ib);
            assert_eq!(
                r.out.map(|p| p.path.to_vec()),
                labels[0].out.as_ref().map(|p| p.path.clone())
            );
            for i in 0..staged.len() {
                let id = ItemId(i as u32);
                assert_eq!(again.materialize(id), staged.materialize(id), "cap {cap} item {i}");
            }
        }
    }

    /// A valid `Rec` edge whose chain index is at least 2^40 escapes but
    /// changes nothing on the wire: the paper example plus copies of its
    /// recursive labels with such indices writes the same bytes at every
    /// capacity, and loads back into the inserted layout, escape tables
    /// included.
    #[test]
    fn escaped_rec_edges_snapshot_to_identical_bytes_and_layout() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let mut labels = fvl.labeler(&run).labels().to_vec();
        let cycles = fvl.prod_graph().cycles().unwrap();
        // Keeping `i` modulo the cycle length keeps every later edge and
        // the port valid.
        let widen = |path: &mut Vec<EdgeLabel>| {
            for e in path {
                if let EdgeLabel::Rec { s, i, .. } = e {
                    *i += (1 << REC_I_BITS) * cycles[*s as usize].len() as u64;
                }
            }
        };
        let wide: Vec<DataLabel> = labels
            .iter()
            .filter(|d| {
                d.out
                    .iter()
                    .chain(&d.inp)
                    .any(|p| p.path.iter().any(|e| matches!(e, EdgeLabel::Rec { .. })))
            })
            .map(|d| {
                let mut d = d.clone();
                d.out.iter_mut().chain(&mut d.inp).for_each(|p| widen(&mut p.path));
                d
            })
            .collect();
        assert!(!wide.is_empty(), "the Figure 3 run has recursive labels");
        let interleaved: Vec<DataLabel> =
            wide.iter().flat_map(|d| [d.clone(), labels[0].clone()]).collect();
        labels.extend(interleaved);
        let (store, single) = assert_load_matches_insert(&labels, &fvl, &ex.spec.grammar, u32::MAX);
        assert!(!store.shards[0].escaped.is_empty(), "the widened edges escape");
        for cap in [1u32, 3, 8] {
            let (_, bits) = assert_load_matches_insert(&labels, &fvl, &ex.spec.grammar, cap);
            assert_eq!(bits, single, "cap {cap} must write identical bytes");
        }
        let mut r = BitReader::new(&single);
        let back =
            LabelStore::read_snapshot(&mut r, fvl.codec(), &ex.spec.grammar, fvl.prod_graph())
                .unwrap();
        for (i, d) in labels.iter().enumerate() {
            assert_eq!(&back.materialize(ItemId(i as u32)), d, "item {i}");
        }
    }

    /// Cloning shares every shard; inserting into the clone un-shares only
    /// the tail — the O(touched) contract the generational writer's
    /// publish cost rests on.
    #[test]
    fn clone_shares_shards_and_insert_touches_only_the_tail() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        let mut store = LabelStore::with_shard_capacity(8);
        store.try_insert_all(&labels).unwrap();
        let shard_count = store.shard_count();
        assert!(shard_count >= 3, "the Figure 3 run should span several 8-item shards");

        let mut staged = store.clone();
        for (a, b) in store.shards.iter().zip(&staged.shards) {
            assert!(Arc::ptr_eq(a, b), "a clone must share every shard");
        }
        let base_len = store.len();
        staged.try_insert(&labels[0]).unwrap();
        let touched = staged.shards_touched_since(base_len);
        assert!(touched <= 2, "one insert touches at most the tail and a fresh shard");
        // Every full shard below the touched range is still the same Arc.
        let untouched = staged.shard_count() - touched;
        for (a, b) in store.shards.iter().zip(&staged.shards).take(untouched) {
            assert!(Arc::ptr_eq(a, b), "inserts must not copy untouched shards");
        }
        // The original is unaffected (readers never see staged state).
        assert_eq!(store.len(), base_len);
    }

    /// Sealing keeps the O(touched) contract: once every shard is full
    /// (so sealed), a clone plus one insert opens a fresh tail and shares
    /// every sealed `Arc`; a further insert un-shares only that tail.
    #[test]
    fn clone_after_seal_shares_sealed_shards_and_touches_only_the_tail() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels: Vec<DataLabel> =
            fvl.labeler(&run).labels().iter().cycle().take(24).cloned().collect();
        let mut store = LabelStore::with_shard_capacity(8);
        store.try_insert_all(&labels).unwrap();
        assert_eq!(store.shard_count(), 3);
        assert!(store.shards.iter().all(|s| is_sealed(s, 8)), "three full shards are sealed");

        let deep = labels.iter().find(|d| d.out.as_ref().is_some_and(|p| !p.path.is_empty()));
        let deep = deep.expect("the Figure 3 run has labels below the root");
        let mut staged = store.clone();
        staged.try_insert(deep).unwrap();
        assert_eq!(staged.shard_count(), 4);
        assert_eq!(staged.shards_touched_since(store.len()), 1);
        for (a, b) in store.shards.iter().zip(&staged.shards) {
            assert!(Arc::ptr_eq(a, b), "an insert after a seal must not copy sealed shards");
        }
        assert!(!staged.shards[3].intern.is_empty(), "the fresh tail interns");
        assert_sealed_layout(&staged, "staged");

        let mut again = staged.clone();
        again.try_insert(&labels[1]).unwrap();
        for (a, b) in staged.shards.iter().zip(&again.shards).take(3) {
            assert!(Arc::ptr_eq(a, b), "sealed shards stay shared");
        }
        assert!(!Arc::ptr_eq(&staged.shards[3], &again.shards[3]), "the tail is copied on write");
        assert_eq!((store.len(), staged.len(), again.len()), (24, 25, 26));
        assert_eq!(&again.materialize(ItemId(25)), &labels[1]);
    }

    #[test]
    fn label_refs_match_owned_refs() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();
        let (mut ob, mut ib) = (Vec::new(), Vec::new());
        for (i, d) in labeler.labels().iter().enumerate() {
            let r = store.label_ref(ids[i], &mut ob, &mut ib);
            assert_eq!(r.out.is_some(), d.out.is_some());
            if let (Some(stored), Some(owned)) = (r.out, d.out.as_ref()) {
                assert_eq!(stored.path, &owned.path[..]);
                assert_eq!(stored.port, owned.port);
            }
            if let (Some(stored), Some(owned)) = (r.inp, d.inp.as_ref()) {
                assert_eq!(stored.path, &owned.path[..]);
                assert_eq!(stored.port, owned.port);
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_store_and_rebuilds_intern() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();

        let mut w = BitWriter::new();
        store.write_snapshot(fvl.codec(), &mut w);
        let bits = w.finish();
        let pg = fvl.prod_graph();
        let mut r = BitReader::new(&bits);
        let back = LabelStore::read_snapshot(&mut r, fvl.codec(), &ex.spec.grammar, pg).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.len(), store.len());
        assert_eq!(back.edge_stats(), store.edge_stats());
        for &id in &ids {
            assert_eq!(back.materialize(id), store.materialize(id), "{id:?}");
        }
        // The rebuilt intern map must keep interning consistently: inserting
        // an existing label afresh reuses the shared trie (no new nodes).
        let mut grown = back;
        let (nodes_before, _) = grown.edge_stats();
        grown.try_insert(&store.materialize(ids[0])).unwrap();
        assert_eq!(grown.edge_stats().0, nodes_before, "re-insert must not grow the trie");
    }

    /// The wire format is shard-agnostic: a store sliced into tiny shards
    /// serializes to the exact bytes the single-shard (pre-shard, PR-5)
    /// store writes, and both load back answer-identically at any
    /// capacity. This is the byte-compatibility contract of DESIGN.md S10.
    #[test]
    fn snapshot_bytes_are_identical_across_shard_capacities() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        let snapshot = |cap: u32| {
            let mut store = LabelStore::with_shard_capacity(cap);
            store.try_insert_all(&labels).unwrap();
            let mut w = BitWriter::new();
            store.write_snapshot(fvl.codec(), &mut w);
            w.finish()
        };
        let single = snapshot(u32::MAX);
        for cap in [1u32, 3, 8] {
            assert_eq!(snapshot(cap), single, "cap {cap} must write identical bytes");
        }
        // Loading re-shards at the requested capacity without changing any
        // label.
        let pg = fvl.prod_graph();
        let mut r = BitReader::new(&single);
        let back =
            LabelStore::read_snapshot_with_capacity(&mut r, fvl.codec(), &ex.spec.grammar, pg, 3)
                .unwrap();
        assert_eq!(back.shard_capacity(), 3);
        assert_eq!(back.shard_count(), labels.len().div_ceil(3));
        for (i, d) in labels.iter().enumerate() {
            assert_eq!(&back.materialize(ItemId(i as u32)), d, "item {i}");
        }
    }

    #[test]
    fn snapshot_rejects_structural_corruption() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let g = &ex.spec.grammar;
        let pg = fvl.prod_graph();
        let read = |bits: &wf_bitio::BitVec| {
            LabelStore::read_snapshot(&mut BitReader::new(bits), fvl.codec(), g, pg)
        };
        // A forward parent reference (node 0 pointing at node 5) is invalid.
        let mut w = BitWriter::new();
        w.write_gamma(2); // one node
        w.write_gamma(7); // parent = 5: out of range for node 0
        fvl.codec().write_edge(&mut w, &EdgeLabel::Plain { k: wf_model::ProdId(0), i: 0 });
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A label with neither endpoint is invalid.
        let mut w = BitWriter::new();
        w.write_gamma(1); // zero nodes
        w.write_gamma(2); // one label
        w.push_bit(false);
        w.push_bit(false);
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // An edge whose position is past its own production's RHS is
        // invalid even though it fits the codec's fixed field width (sized
        // by the grammar-wide maximum RHS).
        let (k_small, n_small) = g
            .productions()
            .map(|(k, p)| (k, p.rhs.node_count()))
            .find(|&(_, n)| n < g.max_rhs_len())
            .expect("paper grammar has productions below the max RHS length");
        let mut w = BitWriter::new();
        w.write_gamma(2); // one node
        w.write_gamma(1); // parent = root
        fvl.codec().write_edge(&mut w, &EdgeLabel::Plain { k: k_small, i: n_small as u32 });
        w.write_gamma(1); // zero labels
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A boundary label whose port is past the start module's arity is
        // invalid (ports index signature matrices at query time).
        let mut w = BitWriter::new();
        w.write_gamma(1); // zero nodes
        w.write_gamma(2); // one label
        w.push_bit(false); // no out side
        w.push_bit(true); // inp side at the root...
        w.write_gamma(1); // ...node = ROOT (empty path, start module)
        w.write_bits(200, 8); // ...port 200
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A valid first edge under the root, taken from an honest store.
        let root_edge = {
            let (run, _) = figure3_run(&ex);
            let mut s = LabelStore::new();
            s.try_insert_all(fvl.labeler(&run).labels()).unwrap();
            let Node { parent, .. } = s.shards[0].nodes[0];
            assert_eq!(parent, ROOT);
            s.shards[0].edge(s.shards[0].nodes[0])
        };
        // Two trie nodes with the same `(parent, edge)` key are invalid:
        // paths would no longer name nodes uniquely.
        let mut w = BitWriter::new();
        w.write_gamma(3); // two nodes
        for _ in 0..2 {
            w.write_gamma(1); // parent = root
            fvl.codec().write_edge(&mut w, &root_edge);
        }
        w.write_gamma(1); // zero labels
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed("duplicate trie edge"))));
        // A label referencing a node past the end of the trie is invalid.
        let mut w = BitWriter::new();
        w.write_gamma(2); // one node
        w.write_gamma(1); // parent = root
        fvl.codec().write_edge(&mut w, &root_edge);
        w.write_gamma(2); // one label
        w.push_bit(true); // out side...
        w.write_gamma(3); // ...node 1: past the one-node trie
        w.write_bits(0, 8);
        w.push_bit(false);
        w.write_gamma(1);
        assert!(matches!(
            read(&w.finish()),
            Err(SnapshotError::Malformed("trie node reference out of range"))
        ));
        // A lying raw-edge metric (the labels sum to something else) is
        // invalid: the metric is derivable, so a mismatch proves forgery.
        let ex_store = {
            let (run, _) = figure3_run(&ex);
            let labeler = fvl.labeler(&run);
            let mut s = LabelStore::new();
            s.try_insert_all(labeler.labels()).unwrap();
            s
        };
        let mut w = BitWriter::new();
        ex_store.write_snapshot(fvl.codec(), &mut w);
        let honest = w.finish();
        // Rewrite just the trailing metric.
        let mut r = BitReader::new(&honest);
        let mut forged = BitWriter::new();
        let node_count = r.read_gamma().unwrap() - 1;
        forged.write_gamma(node_count + 1);
        for _ in 0..node_count {
            forged.write_gamma(r.read_gamma().unwrap());
            let e = fvl.codec().read_edge(&mut r).unwrap();
            fvl.codec().write_edge(&mut forged, &e);
        }
        let label_count = r.read_gamma().unwrap() - 1;
        forged.write_gamma(label_count + 1);
        for _ in 0..label_count {
            for _ in 0..2 {
                let present = r.read_bit().unwrap();
                forged.push_bit(present);
                if present {
                    forged.write_gamma(r.read_gamma().unwrap());
                    forged.write_bits(r.read_bits(8).unwrap(), 8);
                }
            }
        }
        let true_metric = r.read_gamma().unwrap();
        forged.write_gamma(true_metric + 100);
        assert!(matches!(read(&forged.finish()), Err(SnapshotError::Malformed(_))));
    }

    /// A zero shard capacity is a typed error from the loader, not the
    /// panic of [`LabelStore::with_shard_capacity`].
    #[test]
    fn loading_at_zero_capacity_is_a_typed_error() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let mut w = BitWriter::new();
        LabelStore::new().write_snapshot(fvl.codec(), &mut w);
        let bits = w.finish();
        let got = LabelStore::read_snapshot_with_capacity(
            &mut BitReader::new(&bits),
            fvl.codec(),
            &ex.spec.grammar,
            fvl.prod_graph(),
            0,
        );
        assert!(matches!(got, Err(SnapshotError::InvalidArgument(_))));
    }

    /// Id-space exhaustion must surface as a typed [`EngineError::StoreFull`]
    /// through the `try_*` path (the panicking forms document the same
    /// contract). A 2³²-node trie cannot be built in a test, so the
    /// capacity-parameterized core is exercised with a tiny bound; the
    /// public path uses the same code with `cap = ROOT`.
    #[test]
    fn overflow_is_a_typed_error_through_try_insert() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let labels = labeler.labels();

        // A bound big enough for the first label but not the whole run.
        let mut store = LabelStore::new();
        let mut full = None;
        for (i, d) in labels.iter().enumerate() {
            match store.try_insert_bounded(d, 4) {
                Ok(id) => assert_eq!(id.0 as usize, i, "ids stay dense until overflow"),
                Err(e) => {
                    assert!(
                        matches!(e, EngineError::StoreFull { capacity: 4, .. }),
                        "expected StoreFull, got {e:?}"
                    );
                    full = Some(i);
                    break;
                }
            }
        }
        let failed_at = full.expect("a 4-node budget cannot hold the Figure 3 run");
        // The failed insert stored no label; the store stays consistent
        // and serviceable (earlier labels still materialize).
        assert_eq!(store.len(), failed_at);
        for (i, d) in labels.iter().enumerate().take(failed_at) {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
        // The unbounded path accepts the same labels fine.
        assert!(store.try_insert(&labels[failed_at]).is_ok());
    }

    /// Batch inserts report *which* label hit the capacity wall — the
    /// regression pin for the retry contract, placed at an exact shard
    /// boundary so the failing index is also the first id of a shard that
    /// never got created.
    #[test]
    fn batch_overflow_reports_the_failing_index_at_a_shard_boundary() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        assert!(labels.len() >= 6, "the Figure 3 run has enough labels for two shards");

        // Shards of 2, id budget of exactly 4: the batch fails at index 4,
        // precisely where shard 2 would have to open.
        let mut store = LabelStore::with_shard_capacity(2);
        let err = store.try_insert_all_bounded(&labels, 4).expect_err("the budget must run out");
        match err {
            EngineError::BatchStoreFull { index, what, capacity } => {
                assert_eq!(index, 4, "the failing label's batch index");
                assert_eq!(what, "label id");
                assert_eq!(capacity, 4);
            }
            other => panic!("expected BatchStoreFull, got {other:?}"),
        }
        // The prefix is stored: exactly two full shards, ids 0..4.
        assert_eq!(store.len(), 4);
        assert_eq!(store.shard_count(), 2);
        for (i, d) in labels.iter().enumerate().take(4) {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
        // The reported index is exactly where the caller resumes: retrying
        // `labels[index..]` stores the remainder with densely continuing
        // ids and no duplicates.
        let resumed = store.try_insert_all(&labels[4..]).expect("an unbounded retry succeeds");
        assert_eq!(resumed.first(), Some(&ItemId(4)));
        assert_eq!(store.len(), labels.len());
        for (i, d) in labels.iter().enumerate() {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
    }

    #[test]
    fn trie_shares_prefixes() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        store.try_insert_all(labeler.labels()).unwrap();
        let (stored, raw) = store.edge_stats();
        assert!(
            stored * 2 < raw,
            "trie should at least halve path storage: {stored} stored vs {raw} raw"
        );
    }
}
