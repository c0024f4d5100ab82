//! Assemble a serving tier from a PS snapshot on the DFS.

use psgraph_dfs::Dfs;
use psgraph_net::Network;
use psgraph_ps::snapshot::{
    load_object, DeltaEntry, PatchRegion, SnapshotDelta, SnapshotManifest, SnapshotWriter,
};
use psgraph_ps::{
    ColMatrixHandle, Element, NeighborTableHandle, Partitioner, Ps, PsConfig, RecoveryMode,
    VectorHandle,
};
use psgraph_sim::{CostModel, NodeClock};
use std::ops::Range;
use std::sync::Arc;

use crate::error::{Result, ServeError};
use crate::frontend::{
    CacheKey, Frontend, SloPolicy, TAG_COMMUNITY, TAG_EMBEDDING, TAG_NEIGHBORS, TAG_RANK,
};
use crate::router::Router;
use crate::shard::{
    col_range, vertex_range, Adjacency, EmbedSlice, Replica, ShardData, ShardSpec,
};

/// Sizing and policy for a serving tier.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub shards: usize,
    pub replicas_per_shard: usize,
    /// Byte budget for the frontend hot-key cache (0 disables caching).
    pub cache_budget: u64,
    pub policy: SloPolicy,
    pub cost: CostModel,
    /// Thread pool for the frontend's multi-shard scatter phases; `None`
    /// uses the process-global pool (thread-count sweeps pass their own).
    pub pool: Option<Arc<psgraph_harness::Pool>>,
    /// Whether the frontend's planner may push plan prefixes shard-side
    /// (`FrontendOnly` is the pushdown-ablation baseline).
    pub push: psgraph_query::PushPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            replicas_per_shard: 2,
            cache_budget: 1 << 20,
            policy: SloPolicy::default(),
            cost: CostModel::default(),
            pool: None,
            push: psgraph_query::PushPolicy::Auto,
        }
    }
}

impl ServeConfig {
    /// Run the frontend's scatter phases on an explicit pool.
    pub fn with_pool(mut self, pool: Arc<psgraph_harness::Pool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

/// Which snapshot objects play which serving role.
#[derive(Debug, Clone, Default)]
pub struct ObjectMap {
    pub ranks: Option<String>,
    pub communities: Option<String>,
    pub embeddings: Option<String>,
    pub adjacency: Option<String>,
}

impl ObjectMap {
    /// Each served object's name with the cache tag of its role — the
    /// one role → tag table.
    fn roles(&self) -> impl Iterator<Item = (&str, u8)> {
        [
            (&self.ranks, TAG_RANK),
            (&self.communities, TAG_COMMUNITY),
            (&self.embeddings, TAG_EMBEDDING),
            (&self.adjacency, TAG_NEIGHBORS),
        ]
        .into_iter()
        .filter_map(|(name, tag)| Some((name.as_deref()?, tag)))
    }
}

/// The serving tier: replicated shards plus the frontend driving them.
pub struct ServeCluster {
    replicas: Vec<Arc<Replica>>,
    frontend: Frontend,
    num_vertices: u64,
    /// The role → snapshot-object mapping the cluster was loaded with;
    /// [`ServeCluster::swap_in`] uses it to route delta entries to shard
    /// fields and cache tags.
    objects: ObjectMap,
}

impl ServeCluster {
    /// Load a snapshot directory into `cfg.shards × cfg.replicas_per_shard`
    /// read replicas, charging the DFS reads to `client`. Each served
    /// object is read as the region that rewrites all of it and patched
    /// into zero-filled shards by the region loop [`ServeCluster::swap_in`]
    /// uses, so a snapshot is checked exactly as a delta is.
    pub fn load(
        dfs: &Dfs,
        dir: &str,
        objects: &ObjectMap,
        cfg: &ServeConfig,
        client: &NodeClock,
    ) -> Result<Self> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.replicas_per_shard > 0, "need at least one replica per shard");
        let manifest = SnapshotManifest::load(dfs, dir, client)?;
        // Each served object as a delta entry whose one region rewrites
        // all of it.
        let entries = objects
            .roles()
            .map(|(name, _)| {
                let e =
                    manifest.entry(name).ok_or_else(|| ServeError::MissingObject(name.into()))?;
                Ok(DeltaEntry {
                    name: e.name.clone(),
                    kind: e.kind,
                    rows: e.rows,
                    cols: e.cols,
                    part_versions: Vec::new(),
                    regions: vec![load_object(dfs, dir, e, client)?],
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let n = entries
            .first()
            .ok_or_else(|| ServeError::Dfs("snapshot maps no objects to serve".into()))?
            .rows;
        let dim = objects
            .embeddings
            .as_deref()
            .and_then(|name| manifest.entry(name))
            .map_or(0, |e| e.cols as usize);
        let specs: Vec<ShardSpec> = (0..cfg.shards)
            .map(|s| {
                let (vertex_lo, vertex_hi) = vertex_range(s, n, cfg.shards);
                let (col_lo, col_hi) = col_range(s, dim, cfg.shards);
                ShardSpec { num_shards: cfg.shards, shard: s, vertex_lo, vertex_hi, col_lo, col_hi }
            })
            .collect();
        let zeroed = |s: usize| zero_shard(specs[s], n, dim, objects);
        let mut working: Vec<Option<ShardData>> = specs.iter().map(|_| None).collect();
        patch_regions(objects, &entries, &specs, n, dim, &mut working, zeroed)?;

        let mut replicas = Vec::new();
        let mut shards = Vec::with_capacity(cfg.shards);
        let queue_depth = cfg.policy.queue_cap + cfg.policy.batch_max;
        for (s, data) in working.into_iter().enumerate() {
            // A shard no region reached (no vertices, no columns) stays
            // zero-filled.
            let data = Arc::new(data.unwrap_or_else(|| zeroed(s)));
            let mut shard_reps = Vec::with_capacity(cfg.replicas_per_shard);
            for i in 0..cfg.replicas_per_shard {
                let global = s * cfg.replicas_per_shard + i;
                let rep = Replica::new(s, i, global, Arc::clone(&data), queue_depth);
                replicas.push(Arc::clone(&rep));
                shard_reps.push(rep);
            }
            shards.push(shard_reps);
        }

        let pool = cfg
            .pool
            .clone()
            .unwrap_or_else(|| Arc::clone(psgraph_harness::Pool::global()));
        let mut frontend = Frontend::with_pool(
            Router::new(shards),
            Network::new(cfg.cost.clone()),
            cfg.cache_budget,
            cfg.policy.clone(),
            n,
            pool,
        );
        frontend.set_push_policy(cfg.push);
        Ok(ServeCluster { replicas, frontend, num_vertices: n, objects: objects.clone() })
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn replicas(&self) -> &[Arc<Replica>] {
        &self.replicas
    }

    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Kill replica `global_id` (a `ReplicaCrash` point of the load
    /// generator's fault schedule, or the chaos soak). Returns whether it
    /// was alive. The router stops sending it traffic from the next query
    /// on; already-completed answers are unaffected because shard data is
    /// immutable.
    pub fn kill_replica(&self, global_id: usize) -> bool {
        self.replicas
            .get(global_id)
            .map(|r| r.kill())
            .unwrap_or(false)
    }

    /// Bring replica `global_id` back into service with an empty queue
    /// (the [`crate::monitor::Monitor`] calls this when a container
    /// restart completes). Returns whether it was dead.
    pub fn revive_replica(&self, global_id: usize) -> bool {
        self.replicas
            .get(global_id)
            .map(|r| r.revive())
            .unwrap_or(false)
    }

    /// Count of live replicas (for degraded-service assertions).
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_alive()).count()
    }

    /// Hot-swap a snapshot delta into the live tier: rebuild only the
    /// shards a patch touches, atomically install the new `Arc` on every
    /// replica of those shards (dead ones included — they must rejoin
    /// with current data), and invalidate exactly the cached keys the
    /// delta made stale. Queries already in flight keep the version they
    /// started with; every later answer reflects the delta. A malformed
    /// delta is rejected before any replica is touched.
    pub fn swap_in(&mut self, delta: &SnapshotDelta) -> Result<SwapStats> {
        let n = self.num_vertices;
        let router = self.frontend.router();
        let specs: Vec<ShardSpec> =
            (0..router.num_shards()).map(|s| router.replicas(s)[0].data().spec).collect();
        // Column shards tile `[0, dim)` in ascending order.
        let dim = specs.last().map_or(0, |s| s.col_hi);
        // Working copies of patched shards, cloned from the live data on
        // first touch.
        let mut rebuilt: Vec<Option<ShardData>> = specs.iter().map(|_| None).collect();
        let live = |s: usize| (*router.replicas(s)[0].data()).clone();
        // Vertex ranges whose cached answers are stale, per cache tag.
        let dirty_rows =
            patch_regions(&self.objects, &delta.entries, &specs, n, dim, &mut rebuilt, live)?;
        let regions_applied = dirty_rows.len();

        let mut shards_rebuilt = 0;
        for (s, slot) in rebuilt.into_iter().enumerate() {
            if let Some(data) = slot {
                shards_rebuilt += 1;
                let data = Arc::new(data);
                for rep in self.replicas.iter().filter(|r| r.shard() == s) {
                    rep.install(Arc::clone(&data));
                }
            }
        }
        let keys_invalidated = self.frontend.invalidate_keys(|&(tag, v): &CacheKey| {
            !dirty_rows.iter().any(|(t, rows)| *t == tag && rows.contains(&v))
        });
        // The swapped data may have moved rank spans, community counts,
        // or degrees — re-pull shard statistics so the pushdown planner
        // costs against the live tier.
        self.frontend.refresh_stats();
        Ok(SwapStats { shards_rebuilt, keys_invalidated, regions_applied })
    }

    /// Simulated bytes moved and RPCs made by the serving tier so far.
    pub fn network(&self) -> &Network {
        self.frontend.network()
    }

    /// Build a serving tier directly from truth arrays: writes them
    /// through PS handles into an in-memory snapshot and loads that —
    /// the same path production data takes, so shard slicing, column
    /// partitioning, and the planner's statistics all come out exactly
    /// as a real load. Any object may be `None` (the tier then refuses
    /// the queries needing it); at least one must be present, all
    /// present objects must agree on the vertex count (checked before any
    /// PS object is built), every adjacency target must be a vertex, and
    /// every embedding row must have the first row's width.
    pub fn from_arrays(
        ranks: Option<&[f64]>,
        communities: Option<&[u64]>,
        adjacency: Option<&[Vec<u64>]>,
        embeddings: Option<&[Vec<f32>]>,
        cfg: &ServeConfig,
    ) -> Result<Self> {
        Ok(Self::build("arr", ranks, communities, adjacency, embeddings, cfg)?.0)
    }

    /// The one arrays → PS handles → [`SnapshotWriter`] → [`ObjectMap`] →
    /// [`ServeCluster::load`] path behind [`ServeCluster::from_arrays`]
    /// and [`ServeCluster::demo_with_ps`]. Objects are named
    /// `<prefix>.rank` / `.community` / `.adj` / `.embed` and snapshotted
    /// under `/snapshot/<prefix>`; the returned backend holds a handle
    /// for each array that was present.
    fn build(
        prefix: &str,
        ranks: Option<&[f64]>,
        communities: Option<&[u64]>,
        adjacency: Option<&[Vec<u64>]>,
        embeddings: Option<&[Vec<f32>]>,
        cfg: &ServeConfig,
    ) -> Result<(Self, Backend)> {
        let mut lens = [
            ranks.map(<[f64]>::len),
            communities.map(<[u64]>::len),
            adjacency.map(<[Vec<u64>]>::len),
            embeddings.map(<[Vec<f32>]>::len),
        ]
        .into_iter()
        .flatten();
        let n = lens
            .next()
            .ok_or_else(|| ServeError::Dfs("from_arrays needs at least one object".into()))?;
        if let Some(len) = lens.find(|&len| len != n) {
            let msg = format!("from_arrays: objects of {n} and of {len} vertices");
            return Err(ServeError::Dfs(msg));
        }
        let n = n as u64;

        let ps = Ps::new(PsConfig::default());
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let ids: Vec<u64> = (0..n).collect();
        let name = |object: &str| format!("{prefix}.{object}");

        let ranks = ranks.map(|r| vector(&ps, name("rank"), &ids, r, &client)).transpose()?;
        let communities =
            communities.map(|c| vector(&ps, name("community"), &ids, c, &client)).transpose()?;
        let adjacency = adjacency
            .map(|adj| -> Result<_> {
                let (range, mode) = (Partitioner::Range, RecoveryMode::Consistent);
                let h = NeighborTableHandle::create(&ps, name("adj"), n, range, mode)?;
                let tables: Vec<(u64, Vec<u64>)> =
                    adj.iter().enumerate().map(|(i, ns)| (i as u64, ns.clone())).collect();
                h.push(&client, &tables)?;
                Ok(h)
            })
            .transpose()?;
        let embeddings = embeddings
            .map(|rows| -> Result<_> {
                let dim = rows.first().map_or(0, Vec::len);
                let mode = RecoveryMode::Inconsistent;
                let h = ColMatrixHandle::create(&ps, name("embed"), n, dim, mode)?;
                h.push_add_rows(&client, &ids, rows)?;
                Ok(h)
            })
            .transpose()?;

        let dir = format!("/snapshot/{prefix}");
        let mut w = SnapshotWriter::new(&dfs, &dir, &client);
        let mut objects = ObjectMap::default();
        if let Some(h) = &ranks {
            w.vector_f64(h)?;
            objects.ranks = Some(name("rank"));
        }
        if let Some(h) = &communities {
            w.vector_u64(h)?;
            objects.communities = Some(name("community"));
        }
        if let Some(h) = &adjacency {
            w.neighbor_table(h)?;
            objects.adjacency = Some(name("adj"));
        }
        if let Some(h) = &embeddings {
            w.colmatrix(h)?;
            objects.embeddings = Some(name("embed"));
        }
        let manifest = w.finish()?;
        let cluster = ServeCluster::load(&dfs, &dir, &objects, cfg, &client)?;
        let backend =
            Backend { ps, dfs, client, dir, manifest, ranks, communities, adjacency, embeddings };
        Ok((cluster, backend))
    }

    /// A tiny in-memory snapshot + cluster for tests: `n` vertices with
    /// rank `i/n`, community `i % 7`, a ring adjacency, and a `dim`-wide
    /// deterministic embedding.
    pub fn demo(n: u64, dim: usize, cfg: &ServeConfig) -> Result<(Self, DemoTruth)> {
        let (cluster, truth, _) = Self::demo_with_ps(n, dim, cfg)?;
        Ok((cluster, truth))
    }

    /// Like [`ServeCluster::demo`] but also returns the live PS backend,
    /// so tests and benches can keep training (mutating the PS objects)
    /// and hot-swap deltas into the running tier.
    pub(crate) fn demo_with_ps(
        n: u64,
        dim: usize,
        cfg: &ServeConfig,
    ) -> Result<(Self, DemoTruth, DemoBackend)> {
        let truth = DemoTruth {
            ranks: (0..n).map(|i| i as f64 / n as f64).collect(),
            communities: (0..n).map(|i| i % 7).collect(),
            adjacency: (0..n).map(|i| vec![(i + 1) % n, (i + 2) % n]).collect(),
            embeddings: (0..n)
                .map(|i| {
                    (0..dim).map(|j| ((i * 31 + j as u64 * 7) % 13) as f32 * 0.1 - 0.6).collect()
                })
                .collect(),
        };
        let (cluster, b) = Self::build(
            "demo",
            Some(&truth.ranks),
            Some(&truth.communities),
            Some(&truth.adjacency),
            Some(&truth.embeddings),
            cfg,
        )?;
        let built = "the demo tier builds every object";
        let backend = DemoBackend {
            ps: b.ps,
            dfs: b.dfs,
            client: b.client,
            dir: b.dir,
            manifest: b.manifest,
            ranks: b.ranks.expect(built),
            communities: b.communities.expect(built),
            adjacency: b.adjacency.expect(built),
            embeddings: b.embeddings.expect(built),
        };
        Ok((cluster, truth, backend))
    }
}

/// A range-partitioned PS vector holding `values`.
fn vector<E: Element>(
    ps: &Arc<Ps>,
    name: String,
    ids: &[u64],
    values: &[E],
    client: &NodeClock,
) -> Result<VectorHandle<E>> {
    let n = ids.len() as u64;
    let h = VectorHandle::create(ps, name, n, Partitioner::Range, RecoveryMode::Consistent)?;
    h.push_set(client, ids, values)?;
    Ok(h)
}

/// The PS side [`ServeCluster::build`] leaves behind: a [`DemoBackend`]
/// whose handles exist only for the arrays that were given.
struct Backend {
    ps: Arc<Ps>,
    dfs: Dfs,
    client: NodeClock,
    dir: String,
    manifest: SnapshotManifest,
    ranks: Option<VectorHandle<f64>>,
    communities: Option<VectorHandle<u64>>,
    adjacency: Option<NeighborTableHandle>,
    embeddings: Option<ColMatrixHandle>,
}

/// Shard `spec`'s working copy before any object is patched in: every
/// object `objects` serves, zero-filled at its shape on the shard.
fn zero_shard(spec: ShardSpec, n: u64, dim: usize, objects: &ObjectMap) -> ShardData {
    let rows = (spec.vertex_hi - spec.vertex_lo) as usize;
    let embeddings = objects.embeddings.as_ref();
    let embed = |rows: u64, width: usize| {
        EmbedSlice { rows, width, data: vec![0.0; rows as usize * width] }
    };
    ShardData {
        spec,
        ranks: objects.ranks.as_ref().map(|_| vec![0.0; rows]),
        communities: objects.communities.as_ref().map(|_| vec![0; rows]),
        adjacency: objects
            .adjacency
            .as_ref()
            .map(|_| Adjacency { offsets: vec![0; rows + 1], targets: Vec::new() }),
        embed: embeddings.map(|_| embed(n, spec.col_hi - spec.col_lo)),
        embed_rows: embeddings.map(|_| embed(rows as u64, dim)),
    }
}

/// The one region loop behind [`ServeCluster::load`] and
/// [`ServeCluster::swap_in`]. Every region of every served entry is
/// checked first ([`region_span`]); then each is clipped to each shard's
/// vertex and column ranges and copied ([`patch_shard`]) into the working
/// copy of every shard it reaches, which `first_touch(s)` makes the first
/// time shard `s` is reached. Returns each region's cache tag and the
/// vertex rows it rewrote, in order.
fn patch_regions(
    objects: &ObjectMap,
    entries: &[DeltaEntry],
    specs: &[ShardSpec],
    n: u64,
    dim: usize,
    working: &mut [Option<ShardData>],
    first_touch: impl Fn(usize) -> ShardData,
) -> Result<Vec<(u8, Range<u64>)>> {
    let mut checked = Vec::new();
    for entry in entries {
        // Objects the cluster does not serve are none of our business.
        let Some((_, tag)) = objects.roles().find(|&(name, _)| name == entry.name) else {
            continue;
        };
        for region in &entry.regions {
            checked.push((tag, entry, region, region_span(tag, entry, region, n, dim)?));
        }
    }
    let mut rewritten = Vec::with_capacity(checked.len());
    for (tag, entry, region, span) in checked {
        for (s, spec) in specs.iter().enumerate() {
            let (r, c) = (&span.rows, &span.cols);
            let rows = r.start.max(spec.vertex_lo)..r.end.min(spec.vertex_hi);
            let cols = c.start.max(spec.col_lo)..c.end.min(spec.col_hi);
            if rows.is_empty() && cols.is_empty() {
                continue;
            }
            let data = working[s].get_or_insert_with(|| first_touch(s));
            patch_shard(data, entry, region, rows, cols)?;
        }
        rewritten.push((tag, span.rows));
    }
    Ok(rewritten)
}

/// The rows × columns of a served table that one patch region rewrites.
/// Vertex-keyed regions span no columns; a column stripe spans every
/// row; a row-matrix patch spans every column (each column shard holds
/// all rows of its slice).
struct Span {
    rows: Range<u64>,
    cols: Range<usize>,
}

/// Check `region` against its entry and the tier's shape, and return the
/// span it rewrites. Decoding only checks lengths against the buffer, so
/// everything the copy kernels in [`patch_shard`] index by — row and
/// column bounds, payload sizes, CSR offsets — is checked here, once,
/// before any shard is patched; so is every adjacency target, which later
/// hops use as a vertex id.
fn region_span(
    tag: u8,
    entry: &DeltaEntry,
    region: &PatchRegion,
    n: u64,
    dim: usize,
) -> Result<Span> {
    let bad = |what: &str| ServeError::Dfs(format!("snapshot object {}: {what}", entry.name));
    if entry.rows != n {
        return Err(bad(&format!("has {} rows but the tier serves {n} vertices", entry.rows)));
    }
    let rows_from = |row_lo: u64, len: usize| {
        row_lo
            .checked_add(len as u64)
            .filter(|&row_hi| row_hi <= n)
            .map(|row_hi| row_lo..row_hi)
            .ok_or_else(|| bad("region rows run past the last vertex"))
    };
    let cols = entry.cols as usize;
    if tag == TAG_EMBEDDING && cols != dim {
        return Err(bad(&format!("has {cols} columns but the tier serves {dim}")));
    }
    match (tag, region) {
        (TAG_RANK, PatchRegion::RowsF64 { row_lo, values }) => {
            Ok(Span { rows: rows_from(*row_lo, values.len())?, cols: 0..0 })
        }
        (TAG_COMMUNITY, PatchRegion::RowsU64 { row_lo, values }) => {
            Ok(Span { rows: rows_from(*row_lo, values.len())?, cols: 0..0 })
        }
        (TAG_EMBEDDING, PatchRegion::Cols { col_lo, col_hi, data }) => {
            let (lo, hi) = (*col_lo as usize, *col_hi as usize);
            if lo > hi || hi > cols {
                return Err(bad("column stripe out of range"));
            }
            if data.len() as u64 != n * (hi - lo) as u64 {
                return Err(bad("column stripe payload is not rows × stripe"));
            }
            Ok(Span { rows: 0..n, cols: lo..hi })
        }
        (TAG_EMBEDDING, PatchRegion::RowsF32 { row_lo, data }) => {
            if cols == 0 || data.len() % cols != 0 {
                return Err(bad("row payload is not a whole number of rows"));
            }
            Ok(Span { rows: rows_from(*row_lo, data.len() / cols)?, cols: 0..cols })
        }
        (TAG_NEIGHBORS, PatchRegion::Adj { row_lo, offsets, targets }) => {
            let Some(&last) = offsets.last() else {
                return Err(bad("adjacency region has no offsets"));
            };
            if offsets.windows(2).any(|w| w[0] > w[1]) || last > targets.len() as u64 {
                return Err(bad("adjacency offsets are not monotone within the targets"));
            }
            if targets.iter().any(|&t| t >= n) {
                return Err(bad("an adjacency target is not a vertex"));
            }
            Ok(Span { rows: rows_from(*row_lo, offsets.len() - 1)?, cols: 0..0 })
        }
        _ => Err(bad("carries a region of the wrong kind")),
    }
}

/// Copy one shard's share of a validated `region` into its working copy:
/// `rows` / `cols` are the region's span clipped to the shard.
fn patch_shard(
    data: &mut ShardData,
    entry: &DeltaEntry,
    region: &PatchRegion,
    rows: Range<u64>,
    cols: Range<usize>,
) -> Result<()> {
    let unserved = |what: &str| ServeError::Dfs(format!("delta patches unserved {what}"));
    let (vlo, clo) = (data.spec.vertex_lo, data.spec.col_lo);
    // The clipped rows as positions past `base` — the shard's first
    // vertex or the region's first row (nothing when the clip is empty).
    let past = |base: u64| {
        if rows.is_empty() { 0..0 } else { (rows.start - base) as usize..(rows.end - base) as usize }
    };
    let local = past(vlo);
    match region {
        PatchRegion::RowsF64 { row_lo, values } => {
            let ranks = data.ranks.as_mut().ok_or_else(|| unserved("ranks"))?;
            ranks[local].copy_from_slice(&values[past(*row_lo)]);
        }
        PatchRegion::RowsU64 { row_lo, values } => {
            let coms = data.communities.as_mut().ok_or_else(|| unserved("communities"))?;
            coms[local].copy_from_slice(&values[past(*row_lo)]);
        }
        PatchRegion::Cols { col_lo, col_hi, data: patch } => {
            // A column stripe cuts across every shard: the column-sliced
            // `embed` on shards whose col range intersects, and the
            // row-major `embed_rows` on all of them.
            let (col_lo, col_hi) = (*col_lo as usize, *col_hi as usize);
            let stripe = col_hi - col_lo;
            if !cols.is_empty() {
                let embed = data.embed.as_mut().ok_or_else(|| unserved("embeddings"))?;
                for r in 0..embed.rows as usize {
                    for j in cols.clone() {
                        embed.data[r * embed.width + (j - clo)] = patch[r * stripe + (j - col_lo)];
                    }
                }
            }
            if let Some(er) = data.embed_rows.as_mut() {
                for v in rows {
                    let dst = (v - vlo) as usize * er.width;
                    let src = v as usize * stripe;
                    er.data[dst + col_lo..dst + col_hi].copy_from_slice(&patch[src..src + stripe]);
                }
            }
        }
        PatchRegion::RowsF32 { row_lo, data: patch } => {
            let dim = entry.cols as usize;
            if !cols.is_empty() {
                let embed = data.embed.as_mut().ok_or_else(|| unserved("embeddings"))?;
                for (i, row) in patch.chunks_exact(dim).enumerate() {
                    let dst = (*row_lo as usize + i) * embed.width;
                    embed.data[dst..dst + cols.len()].copy_from_slice(&row[cols.clone()]);
                }
            }
            if let Some(er) = data.embed_rows.as_mut() {
                let src = past(*row_lo);
                er.data[local.start * dim..local.end * dim]
                    .copy_from_slice(&patch[src.start * dim..src.end * dim]);
            }
        }
        PatchRegion::Adj { row_lo, offsets, targets } => {
            let adj = data.adjacency.as_mut().ok_or_else(|| unserved("adjacency"))?;
            // Splice the replacement lists into the shard's CSR: rows
            // before the clip, the patched rows, rows after it.
            let patched = past(*row_lo);
            let (plo, phi) = (offsets[patched.start] as usize, offsets[patched.end] as usize);
            let (olo, ohi) = (adj.offsets[local.start] as usize, adj.offsets[local.end] as usize);
            let mut new_offsets = adj.offsets[..local.start].to_vec();
            new_offsets.extend(offsets[patched].iter().map(|o| o - plo as u64 + olo as u64));
            let shift = (olo + phi - plo) as u64;
            new_offsets.extend(adj.offsets[local.end..].iter().map(|o| o - ohi as u64 + shift));
            adj.targets.splice(olo..ohi, targets[plo..phi].iter().copied());
            adj.offsets = new_offsets;
        }
    }
    Ok(())
}

/// Outcome of one [`ServeCluster::swap_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Shards whose data was rebuilt and re-installed.
    pub shards_rebuilt: usize,
    /// Cached answers invalidated as stale.
    pub keys_invalidated: usize,
    /// Patch regions applied to served objects.
    pub regions_applied: usize,
}

/// The live PS side of a `ServeCluster::demo_with_ps` tier: keep
/// writing to the handles, export a delta against `manifest`, and
/// [`ServeCluster::swap_in`] the result.
pub struct DemoBackend {
    pub ps: Arc<Ps>,
    pub dfs: Dfs,
    pub client: NodeClock,
    /// Snapshot directory the tier was loaded from.
    pub dir: String,
    /// Base manifest deltas are diffed against.
    pub manifest: SnapshotManifest,
    pub ranks: VectorHandle<f64>,
    pub communities: VectorHandle<u64>,
    pub adjacency: NeighborTableHandle,
    pub embeddings: ColMatrixHandle,
}

/// Ground truth backing [`ServeCluster::demo`].
#[derive(Debug, Clone)]
pub struct DemoTruth {
    pub ranks: Vec<f64>,
    pub communities: Vec<u64>,
    pub adjacency: Vec<Vec<u64>>,
    pub embeddings: Vec<Vec<f32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Outcome;
    use crate::shard::{Query, Value};
    use psgraph_query::{GraphTruth, Interpreter, Plan, PlanOutput};
    use psgraph_sim::SimTime;

    fn small() -> (ServeCluster, DemoTruth) {
        ServeCluster::demo(24, 4, &ServeConfig::default()).unwrap()
    }

    fn graph_truth(t: &DemoTruth) -> GraphTruth {
        let mut truth = GraphTruth::new(t.ranks.len() as u64);
        truth.adjacency = Some(t.adjacency.clone());
        truth.embeddings = Some(t.embeddings.clone());
        truth
    }

    /// `got` must equal the interpreter's ranking for `plan`, bit for bit.
    fn assert_ranked(got: &[(u64, f64)], truth: &GraphTruth, plan: &Plan) {
        let want = match Interpreter::new(truth, 2).run(plan) {
            Ok(PlanOutput::Ranked(want)) => want,
            other => panic!("{plan:?} must yield a ranking, got {other:?}"),
        };
        assert_eq!(got.len(), want.len());
        for ((gv, gs), (wv, ws)) in got.iter().zip(&want) {
            assert_eq!(gv, wv);
            assert_eq!(gs.to_bits(), ws.to_bits());
        }
    }

    #[test]
    fn demo_cluster_serves_exact_point_lookups() {
        let (mut cluster, truth) = small();
        let mut t = SimTime::ZERO;
        for v in 0..24u64 {
            for (i, q) in [Query::Rank(v), Query::Community(v), Query::Neighbors(v)]
                .into_iter()
                .enumerate()
            {
                let outs = cluster.frontend_mut().execute_now(v as usize * 3 + i, t, q);
                let (_, o) = outs.last().expect("outcome");
                match (q, o) {
                    (Query::Rank(_), Outcome::Answered { value: Value::Rank(r), .. }) => {
                        assert_eq!(r.to_bits(), truth.ranks[v as usize].to_bits());
                    }
                    (Query::Community(_), Outcome::Answered { value: Value::Community(c), .. }) => {
                        assert_eq!(*c, truth.communities[v as usize]);
                    }
                    (Query::Neighbors(_), Outcome::Answered { value: Value::Neighbors(n), .. }) => {
                        assert_eq!(n, &truth.adjacency[v as usize]);
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
                t += SimTime::from_micros(50);
            }
        }
        assert_eq!(cluster.frontend().failed(), 0);
    }

    #[test]
    fn embedding_gather_reassembles_full_rows() {
        let (mut cluster, truth) = small();
        let outs = cluster.frontend_mut().execute_now(0, SimTime::ZERO, Query::Embedding(5));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Embedding(e), cached, .. } => {
                assert!(!cached);
                let got: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = truth.embeddings[5].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Second fetch is a cache hit with the identical value.
        let outs = cluster
            .frontend_mut()
            .execute_now(1, SimTime::from_millis(10), Query::Embedding(5));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Embedding(e), cached, .. } => {
                assert!(cached);
                assert_eq!(e.len(), 4);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cluster.frontend().cache().hits(), 1);
    }

    #[test]
    fn khop_and_topk_match_reference() {
        let (mut cluster, truth) = small();
        let truth = graph_truth(&truth);
        let outs = cluster
            .frontend_mut()
            .execute_now(0, SimTime::ZERO, Query::KHop { v: 3, hops: 2 });
        match &outs[0].1 {
            Outcome::Answered { value: Value::Vertices(vs), .. } => {
                let want = Interpreter::new(&truth, 2).run(&Plan::khop(3, 2));
                assert_eq!(want, Ok(PlanOutput::Vertices(vs.clone())));
                assert_eq!(vs, &[4, 5, 6, 7]); // ring: +1/+2 twice
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let outs = cluster
            .frontend_mut()
            .execute_now(1, SimTime::from_millis(1), Query::TopK { v: 3, k: 3 });
        match &outs[0].1 {
            Outcome::Answered { value: Value::Ranked(r), .. } => {
                assert_ranked(r, &truth, &Plan::topk(3, 3));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn topk_all_scatter_gather_matches_reference() {
        let (mut cluster, truth) = small();
        let truth = graph_truth(&truth);
        let mut t = SimTime::ZERO;
        for (i, v) in [0u64, 5, 13, 23].into_iter().enumerate() {
            let outs =
                cluster.frontend_mut().execute_now(i, t, Query::TopKAll { v, k: 6 });
            match &outs[0].1 {
                Outcome::Answered { value: Value::Ranked(r), .. } => {
                    assert_ranked(r, &truth, &Plan::topk_all(v, 6));
                    assert!(!r.iter().any(|&(u, _)| u == v), "query vertex excluded");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            t += SimTime::from_millis(1);
        }
        // A warm embedding cache entry feeds the scatter: same answer.
        cluster.frontend_mut().execute_now(10, t, Query::Embedding(5));
        let hits = cluster.frontend().cache().hits();
        let outs = cluster
            .frontend_mut()
            .execute_now(11, t + SimTime::from_millis(1), Query::TopKAll { v: 5, k: 6 });
        match &outs[0].1 {
            Outcome::Answered { value: Value::Ranked(r), .. } => {
                assert_ranked(r, &truth, &Plan::topk_all(5, 6));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cluster.frontend().cache().hits(), hits + 1, "reused cached query row");
    }

    #[test]
    fn row_matrix_delta_swaps_rows_and_invalidates_per_row() {
        use psgraph_ps::snapshot::DeltaWriter;
        use psgraph_ps::MatrixHandle;

        let ps = Ps::new(PsConfig::default());
        let dfs = Dfs::in_memory();
        let client = NodeClock::new();
        let (n, dim) = (24u64, 4usize);
        let h = MatrixHandle::<f32>::create(
            &ps,
            "m.embed",
            n,
            dim,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )
        .unwrap();
        let ids: Vec<u64> = (0..n).collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|j| ((i * 17 + j as u64 * 5) % 11) as f32 * 0.2 - 1.0).collect())
            .collect();
        h.push_set_rows(&client, &ids, &rows).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/snapshot/rowmat", &client);
        w.matrix_f32(&h).unwrap();
        let manifest = w.finish().unwrap();
        let objects = ObjectMap { embeddings: Some("m.embed".into()), ..ObjectMap::default() };
        let mut cluster =
            ServeCluster::load(&dfs, "/snapshot/rowmat", &objects, &ServeConfig::default(), &client)
                .unwrap();

        // Warm the cache: one row the delta dirties, one it does not.
        cluster.frontend_mut().execute_now(0, SimTime::ZERO, Query::Embedding(2));
        cluster.frontend_mut().execute_now(1, SimTime::ZERO, Query::Embedding(20));

        // Touch rows 0..3 — one Range partition of twelve rows.
        let patch: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32 + 0.5; dim]).collect();
        h.push_set_rows(&client, &[0, 1, 2], &patch).unwrap();
        let fresh = h.pull_rows(&client, &ids).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/snapshot/rowmat", &manifest, &client);
        assert_eq!(dw.matrix_f32(&h).unwrap(), 1, "one dirty partition");
        let delta = dw.finish().unwrap();
        let stats = cluster.swap_in(&delta).unwrap();
        assert!(stats.regions_applied >= 1);

        // Row-precise invalidation: the patched partition's cached row is
        // gone, the far row survived.
        assert!(cluster.frontend().cache().peek(&(TAG_EMBEDDING, 2)).is_none());
        assert!(cluster.frontend().cache().peek(&(TAG_EMBEDDING, 20)).is_some());

        // Post-swap gather and cross-shard top-k both see the new rows.
        let t = SimTime::from_millis(5);
        let outs = cluster.frontend_mut().execute_now(10, t, Query::Embedding(1));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Embedding(e), cached, .. } => {
                assert!(!cached);
                let got: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = fresh[1].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let outs = cluster.frontend_mut().execute_now(11, t, Query::TopKAll { v: 1, k: 5 });
        match &outs[0].1 {
            Outcome::Answered { value: Value::Ranked(r), .. } => {
                let mut truth = GraphTruth::new(n);
                truth.embeddings = Some(fresh);
                assert_ranked(r, &truth, &Plan::topk_all(1, 5));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn swap_in_patches_shards_and_invalidates_exactly() {
        use psgraph_ps::snapshot::DeltaWriter;

        let (mut cluster, truth, backend) =
            ServeCluster::demo_with_ps(24, 4, &ServeConfig::default()).unwrap();

        // Warm the cache: a rank and a neighbour list the delta will
        // touch, one of each it won't, and an embedding row.
        let mut t = SimTime::ZERO;
        let warm = [
            Query::Rank(1),
            Query::Rank(23),
            Query::Embedding(5),
            Query::Neighbors(3),
            Query::Neighbors(20),
        ];
        for (i, q) in warm.into_iter().enumerate() {
            cluster.frontend_mut().execute_now(i, t, q);
            t += SimTime::from_millis(1);
        }

        // Train a little more: ranks 0..3 change (one PS partition of
        // twelve vertices → shard 0 only), one embedding row changes
        // (dirties every column partition), and vertex 3 drops neighbour
        // 4 and gains 10 the way the streaming ingestor edits the table
        // (shard 0 again).
        backend
            .ranks
            .push_set(&backend.client, &[0, 1, 2], &[10.0, 11.0, 12.0])
            .unwrap();
        backend
            .embeddings
            .push_add_rows(&backend.client, &[5], &[vec![1.0f32; 4]])
            .unwrap();
        let new_embed_5 = backend.embeddings.pull_rows(&backend.client, &[5]).unwrap().remove(0);
        backend.adjacency.update_edges(&backend.client, &[(3, 4, false), (3, 10, true)]).unwrap();

        let mut dw =
            DeltaWriter::new(&backend.dfs, &backend.dir, &backend.manifest, &backend.client);
        assert_eq!(dw.vector_f64(&backend.ranks).unwrap(), 1);
        assert!(dw.colmatrix(&backend.embeddings).unwrap() >= 1);
        assert_eq!(dw.vector_u64(&backend.communities).unwrap(), 0);
        assert_eq!(dw.neighbor_table(&backend.adjacency).unwrap(), 1);
        let delta = dw.finish().unwrap();

        let stats = cluster.swap_in(&delta).unwrap();
        assert_eq!(stats.shards_rebuilt, 2, "rank patch hits shard 0, embed patch hits both");
        // Stale keys gone — rank 1, embedding 5 and vertex 3's list —
        // untouched rank 23 and vertex 20's list kept.
        assert!(stats.keys_invalidated >= 3);
        assert!(cluster.frontend().cache().peek(&(TAG_RANK, 1)).is_none());
        assert!(cluster.frontend().cache().peek(&(TAG_EMBEDDING, 5)).is_none());
        assert!(cluster.frontend().cache().peek(&(TAG_NEIGHBORS, 3)).is_none());
        assert!(cluster.frontend().cache().peek(&(TAG_RANK, 23)).is_some());
        assert!(cluster.frontend().cache().peek(&(TAG_NEIGHBORS, 20)).is_some());

        // Post-swap answers match post-update PS state, bit for bit.
        let outs = cluster.frontend_mut().execute_now(10, t, Query::Rank(1));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Rank(r), cached, .. } => {
                assert!(!cached);
                assert_eq!(r.to_bits(), 11.0f64.to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let outs = cluster.frontend_mut().execute_now(11, t, Query::Embedding(5));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Embedding(e), cached, .. } => {
                assert!(!cached);
                let got: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = new_embed_5.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let outs = cluster.frontend_mut().execute_now(13, t, Query::Neighbors(3));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Neighbors(ns), cached, .. } => {
                assert!(!cached);
                assert_eq!((&truth.adjacency[3], ns), (&vec![4, 5], &vec![5, 10]));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // The surviving cache entry still answers, correctly.
        let outs = cluster.frontend_mut().execute_now(12, t, Query::Rank(23));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Rank(r), cached, .. } => {
                assert!(cached);
                assert_eq!(r.to_bits(), truth.ranks[23].to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Arrays that disagree on the vertex count, a ragged embedding row
    /// and an adjacency target past the last vertex are each an error,
    /// never a panic or a tier serving empty lists.
    #[test]
    fn from_arrays_refuses_inconsistent_arrays() {
        let cfg = ServeConfig::default();
        let (_, t) = ServeCluster::demo(8, 2, &cfg).unwrap();
        let build = |r: &[f64], c: &[u64], a: &[Vec<u64>], e: &[Vec<f32>]| {
            ServeCluster::from_arrays(Some(r), Some(c), Some(a), Some(e), &cfg).map(|_| ())
        };
        assert!(build(&t.ranks, &t.communities, &t.adjacency, &t.embeddings).is_ok());
        for len in [7, 9] {
            let mut r = t.ranks.clone();
            r.resize(len, 0.5);
            let mut c = t.communities.clone();
            c.resize(len, 1);
            let mut a = t.adjacency.clone();
            a.resize(len, Vec::new());
            let mut e = t.embeddings.clone();
            e.resize(len, vec![0.5; 2]);
            let results = [
                build(&r, &t.communities, &t.adjacency, &t.embeddings),
                build(&t.ranks, &c, &t.adjacency, &t.embeddings),
                build(&t.ranks, &t.communities, &a, &t.embeddings),
                build(&t.ranks, &t.communities, &t.adjacency, &e),
            ];
            for (object, got) in results.into_iter().enumerate() {
                assert!(got.is_err(), "object {object} with {len} of 8 entries: {got:?}");
            }
        }
        let mut ragged = t.embeddings.clone();
        ragged[3].push(0.5);
        assert!(build(&t.ranks, &t.communities, &t.adjacency, &ragged).is_err());
        let mut past = t.adjacency.clone();
        past[2].push(8);
        assert!(build(&t.ranks, &t.communities, &past, &t.embeddings).is_err());
    }

    /// `SnapshotDelta::decode` accepts all of these (it checks lengths
    /// against the buffer only); `swap_in` must reject each one with an
    /// error — not an out-of-bounds panic — and leave the tier serving
    /// the old data, including the shard a valid region earlier in the
    /// same delta had already patched in its working copy.
    #[test]
    fn swap_in_rejects_inconsistent_deltas_and_keeps_serving() {
        use psgraph_ps::snapshot::SnapshotKind;

        let (mut cluster, truth) = small();
        let entry = |name: &str, kind, cols, region| DeltaEntry {
            name: name.into(),
            kind,
            rows: 24,
            cols,
            part_versions: Vec::new(),
            regions: vec![region],
        };
        let rank = |region| entry("demo.rank", SnapshotKind::VecF64, 0, region);
        let community = |region| entry("demo.community", SnapshotKind::VecU64, 0, region);
        let adj = |row_lo, offsets: &[u64], targets: &[u64]| {
            let region =
                PatchRegion::Adj { row_lo, offsets: offsets.to_vec(), targets: targets.to_vec() };
            entry("demo.adj", SnapshotKind::Adjacency, 0, region)
        };
        let embed = |cols, region| entry("demo.embed", SnapshotKind::MatF32, cols, region);
        let stripe =
            |col_lo, col_hi, len| PatchRegion::Cols { col_lo, col_hi, data: vec![0.5; len] };
        let malformed = vec![
            ("adjacency without offsets", adj(0, &[], &[])),
            ("adjacency offsets decrease", adj(0, &[0, 2, 1], &[1, 2])),
            ("adjacency offsets past the targets", adj(0, &[0, 3], &[1])),
            ("adjacency rows past the last vertex", adj(23, &[0, 0, 0], &[])),
            ("column stripe inverted", embed(4, stripe(3, 1, 0))),
            ("column stripe past the matrix width", embed(4, stripe(2, 6, 24 * 4))),
            ("column stripe payload short", embed(4, stripe(0, 2, 7))),
            ("matrix wider than the tier", embed(8, stripe(0, 8, 24 * 8))),
            (
                "f64 rows past the last vertex",
                rank(PatchRegion::RowsF64 { row_lo: 22, values: vec![9.0; 5] }),
            ),
            (
                "f64 row range overflows",
                rank(PatchRegion::RowsF64 { row_lo: u64::MAX, values: vec![9.0; 2] }),
            ),
            (
                "u64 rows past the last vertex",
                community(PatchRegion::RowsU64 { row_lo: 24, values: vec![1] }),
            ),
            (
                "f32 rows past the last vertex",
                embed(4, PatchRegion::RowsF32 { row_lo: 23, data: vec![0.5; 8] }),
            ),
            (
                "f32 payload not whole rows",
                embed(4, PatchRegion::RowsF32 { row_lo: 0, data: vec![0.5; 5] }),
            ),
            (
                "region kind does not match the object",
                rank(PatchRegion::RowsU64 { row_lo: 0, values: vec![1] }),
            ),
        ];
        for (what, bad) in malformed {
            let good = rank(PatchRegion::RowsF64 { row_lo: 1, values: vec![99.0] });
            let delta = SnapshotDelta { entries: vec![good, bad] };
            match cluster.swap_in(&delta) {
                Err(ServeError::Dfs(_)) => {}
                other => panic!("{what}: expected a Dfs error, got {other:?}"),
            }
        }

        let mut ask = |i: usize, q: Query| {
            let outs = cluster.frontend_mut().execute_now(i, SimTime::from_millis(i as u64), q);
            match &outs[0].1 {
                Outcome::Answered { value, cached: false, .. } => value.clone(),
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        assert_eq!(ask(0, Query::Rank(1)), Value::Rank(truth.ranks[1]));
        assert_eq!(ask(1, Query::Community(23)), Value::Community(truth.communities[23]));
        assert_eq!(ask(2, Query::Neighbors(0)), Value::Neighbors(truth.adjacency[0].clone()));
        assert_eq!(ask(3, Query::Embedding(5)), Value::Embedding(truth.embeddings[5].clone()));
    }

    #[test]
    fn swap_reaches_dead_replicas_when_they_rejoin() {
        use psgraph_ps::snapshot::DeltaWriter;

        let cfg = ServeConfig { replicas_per_shard: 1, ..ServeConfig::default() };
        let (mut cluster, _, backend) = ServeCluster::demo_with_ps(24, 4, &cfg).unwrap();
        assert!(cluster.kill_replica(0));

        backend.ranks.push_set(&backend.client, &[1], &[42.0]).unwrap();
        let mut dw =
            DeltaWriter::new(&backend.dfs, &backend.dir, &backend.manifest, &backend.client);
        dw.vector_f64(&backend.ranks).unwrap();
        let delta = dw.finish().unwrap();
        cluster.swap_in(&delta).unwrap();

        // Dead shard: query fails. After revival it serves the *swapped*
        // data — the install reached it while dead.
        let outs = cluster.frontend_mut().execute_now(0, SimTime::ZERO, Query::Rank(1));
        assert!(matches!(outs[0].1, Outcome::Failed(_)));
        assert!(cluster.revive_replica(0));
        let outs =
            cluster.frontend_mut().execute_now(1, SimTime::from_millis(1), Query::Rank(1));
        match &outs[0].1 {
            Outcome::Answered { value: Value::Rank(r), .. } => {
                assert_eq!(r.to_bits(), 42.0f64.to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn killing_a_replica_degrades_but_stays_correct() {
        let (mut cluster, truth) = small();
        assert_eq!(cluster.live_replicas(), 4);
        assert!(cluster.kill_replica(1));
        assert!(!cluster.kill_replica(1), "already dead");
        assert_eq!(cluster.live_replicas(), 3);
        let mut t = SimTime::ZERO;
        for v in 0..24u64 {
            let outs = cluster.frontend_mut().execute_now(v as usize, t, Query::Rank(v));
            match &outs.last().unwrap().1 {
                Outcome::Answered { value: Value::Rank(r), .. } => {
                    assert_eq!(r.to_bits(), truth.ranks[v as usize].to_bits());
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            t += SimTime::from_micros(20);
        }
        // Kill the whole shard: its uncached queries fail, cached answers
        // and other shards keep working.
        assert!(cluster.kill_replica(0));
        let outs = cluster.frontend_mut().execute_now(100, t, Query::Community(0));
        assert!(matches!(outs[0].1, Outcome::Failed(_)));
        let outs = cluster.frontend_mut().execute_now(101, t, Query::Rank(0));
        assert!(
            matches!(outs[0].1, Outcome::Answered { cached: true, .. }),
            "cached rank survives a dead shard"
        );
        let outs = cluster.frontend_mut().execute_now(102, t, Query::Community(23));
        assert!(matches!(outs[0].1, Outcome::Answered { .. }));
    }
}
