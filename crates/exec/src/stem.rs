//! State Modules (STeMs) — the shared join state (§2.2, §5.1).
//!
//! RouLette keeps one STeM per base relation, shared across all queries and
//! joins. Entries are *unified*: `(index-vector, vID, version, query-set)`
//! stored columnarly; each hash index materializes its join key and chains
//! entries through a self-referential `next` vector (the paper's
//! index-vector element).
//!
//! ## Insert-probe atomicity (scalable versioning, §5.2)
//!
//! Symmetric-join correctness requires each match be produced by exactly
//! one side: a probe only sees entries with a *strictly older* version.
//! Versions are assigned per inserted vector ("batch versioning" — one
//! version per 1024-tuple vector, not per tuple) from a global atomic
//! counter, *inside* the STeM's write latch. Probes hold the read latch.
//! This gives the required invariant cheaply: if `entry.version <
//! probe.version`, the entry's insert critical section completed before the
//! probe's read latch, so the entry is visible; otherwise the entry's
//! inserter holds the later version and will see the prober's tuples when
//! it probes. Latches are taken once per *vector*, so synchronization cost
//! is two atomic acquisitions per episode per STeM — the same granularity
//! the paper's wait-free scheme achieves.
//!
//! ## Sharding (DESIGN.md §15)
//!
//! A STeM may be split into `S` shards by join-key hash
//! ([`EngineConfig::stem_shards`](roulette_core::EngineConfig::stem_shards)),
//! each an independent `(entries, versions, query-sets, indices)` block
//! behind its own latch. The *routing index* is index 0 — the first key
//! column the STeM was constructed with; [`shard_for_key`] decides the
//! owning shard. Inserts touch only the shards their rows route to, each
//! insert critical section drawing its own version from the **global**
//! counter, so the strictly-older-version argument above holds pairwise
//! per shard: a probe's read latch on shard `t` still orders against every
//! insert critical section on shard `t`, and version comparisons remain
//! globally meaningful because the counter is shared. Probes on the
//! routing index visit exactly one shard per key; probes on secondary
//! indices and semi-joins visit all shards, one latch at a time. A STeM
//! constructed without key columns has no routing index: everything lives
//! in shard 0 and probes scan all shards (only shard 0 is nonempty).

use crate::kernels::pairs;
use parking_lot::{RwLock, RwLockReadGuard};
use roulette_core::{ColId, QuerySetColumn, RelId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Version value meaning "see everything" (semi-joins against completed
/// scans).
///
/// Versions are `u32` and one is consumed per inserted vector; a session
/// would need ~4.3 billion episodes (quadrillions of tuples at the default
/// vector size) to exhaust them, far beyond the in-memory datasets STeMs
/// can hold. Sessions are per-batch, so the counter resets naturally.
pub const VERSION_ALL: u32 = u32::MAX;

/// Hard cap on shards per STeM; mirrors
/// `EngineConfig::with_stem_shards`'s validation and bounds the fixed-size
/// per-probe partition buffers.
pub const MAX_STEM_SHARDS: usize = 64;

/// Capacity of the probe's match-pair tile: the chain walk hands pairs to
/// the AND and gather passes this many at a time, so the staging of one
/// probe is 32 KB of pairs whatever the fan-out (DESIGN.md §10).
pub const PROBE_TILE: usize = 4096;

#[inline]
fn hash_key(key: i64) -> u64 {
    // SplitMix64 finalizer — cheap and well-distributed for integer keys.
    let mut z = key as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard owning `key` in a STeM routed across `n_shards` shards: a
/// pure, total function of the key and the shard count. Every key maps to
/// exactly one shard, and re-sharding a relation only ever *moves* keys
/// between shards — the union over shards is invariant.
#[inline]
pub fn shard_for_key(key: i64, n_shards: usize) -> usize {
    if n_shards <= 1 { 0 } else { (hash_key(key) % n_shards as u64) as usize }
}

/// One hash index of a STeM (per join-key column).
#[derive(Debug)]
struct StemIndex {
    /// Materialized join key per entry (avoids late materialization on the
    /// probe's inner loop).
    keys: Vec<i64>,
    /// Bucket heads: entry index + 1, 0 = empty.
    buckets: Vec<u32>,
    /// Chain links: next entry index + 1, 0 = end.
    next: Vec<u32>,
    mask: usize,
    /// Size the bucket table is allocated at by the first insert. Until
    /// then the table is empty: an index nothing was ever inserted into —
    /// the STeM of a relation whose builds were all elided — owns no
    /// memory, and every probe of it finds an empty chain.
    initial_buckets: usize,
}

impl StemIndex {
    /// Smallest bucket table; tiny relations no longer pay a fixed
    /// 1024-bucket tax per index.
    const MIN_BUCKETS: usize = 16;

    /// Sizes the bucket table for an expected `hint` entries at the 3/4
    /// load factor, so a correctly hinted index never rehashes during its
    /// build. `hint = 0` (unknown cardinality) starts at the minimum and
    /// grows by doubling as usual. The table is allocated by the first
    /// insert, not here.
    fn with_capacity(hint: usize) -> Self {
        let initial_buckets = (hint + hint / 3 + 1)
            .next_power_of_two()
            .max(Self::MIN_BUCKETS);
        StemIndex {
            keys: Vec::new(),
            buckets: Vec::new(),
            next: Vec::new(),
            mask: 0,
            initial_buckets,
        }
    }

    // lint: hot-loop
    fn insert(&mut self, key: i64) {
        if self.keys.len() + 1 > self.buckets.len() - self.buckets.len() / 4 {
            self.grow();
        }
        let idx = self.keys.len() as u32;
        self.keys.push(key);
        let b = (hash_key(key) as usize) & self.mask;
        if let Some(slot) = self.buckets.get_mut(b) {
            self.next.push(*slot);
            *slot = idx + 1;
        }
    }

    fn grow(&mut self) {
        let new_size = (self.buckets.len() * 2).max(self.initial_buckets);
        self.buckets.clear();
        self.buckets.resize(new_size, 0);
        self.mask = new_size - 1;
        for (i, (nx, &k)) in self.next.iter_mut().zip(self.keys.iter()).enumerate() {
            let b = (hash_key(k) as usize) & self.mask;
            if let Some(slot) = self.buckets.get_mut(b) {
                *nx = *slot;
                *slot = i as u32 + 1;
            }
        }
    }

    /// Bucket-chain head for a precomputed `hash` (0 = empty chain).
    // lint: hot-loop
    #[inline]
    fn head_of_hash(&self, hash: u64) -> u32 {
        self.buckets.get(hash as usize & self.mask).copied().unwrap_or(0)
    }

    /// Walks the chain starting at `head`, calling `f(entry_index)` for
    /// every entry whose key equals `key` until `f` returns `false`;
    /// returns whether the walk ran to the end. A corrupt link ends the
    /// walk instead of panicking mid-episode. This is the only chain-walk
    /// loop: per-key and tiled probes both go through it.
    // lint: hot-loop
    #[inline]
    fn walk_chain(&self, head: u32, key: i64, mut f: impl FnMut(u32) -> bool) -> bool {
        let mut cur = head;
        while cur != 0 {
            let e = cur - 1;
            let (Some(&k), Some(&nx)) = (self.keys.get(e as usize), self.next.get(e as usize))
            else {
                break;
            };
            if k == key && !f(e) {
                return false;
            }
            cur = nx;
        }
        true
    }

    /// Calls `f(entry_index)` for every entry with this key.
    // lint: hot-loop
    #[inline]
    fn for_each_match(&self, key: i64, mut f: impl FnMut(usize)) {
        self.walk_chain(self.head_of_hash(hash_key(key)), key, |e| {
            f(e as usize);
            true
        });
    }
}

#[derive(Debug)]
struct StemInner {
    vids: Vec<u32>,
    versions: Vec<u32>,
    qsets: QuerySetColumn,
    indices: Vec<StemIndex>,
}

impl StemInner {
    /// Per-key probe of this shard: `f(entry_qset_words, entry_vid)` for
    /// every match of `key` with version strictly older than `version`.
    #[inline]
    fn probe(&self, index_id: usize, key: i64, version: u32, f: &mut impl FnMut(&[u64], u32)) {
        let Some(index) = self.indices.get(index_id) else {
            return;
        };
        index.for_each_match(key, |e| {
            if let (Some(&v), Some(&vid)) = (self.versions.get(e), self.vids.get(e)) {
                if v < version {
                    f(self.qsets.row(e), vid);
                }
            }
        });
    }
}

/// Resident bytes of one shard's entry block + indices.
fn inner_memory_bytes(inner: &StemInner) -> usize {
    let entries = inner.vids.capacity() * std::mem::size_of::<u32>()
        + inner.versions.capacity() * std::mem::size_of::<u32>()
        + inner.qsets.capacity_words() * std::mem::size_of::<u64>();
    let indices: usize = inner
        .indices
        .iter()
        .map(|i| {
            i.keys.capacity() * std::mem::size_of::<i64>()
                + (i.buckets.capacity() + i.next.capacity()) * std::mem::size_of::<u32>()
        })
        .sum();
    entries + indices
}

/// Upper bound on one shard's growth if `n` more tuples landed in it.
///
/// Models `Vec`'s amortized doubling (`reserve` grows to
/// `max(2·cap, len + n)`) for the entry block and index columns, and
/// bucket-table doubling past the 3/4 load factor.
fn inner_projected_insert_bytes(inner: &StemInner, n: usize) -> usize {
    fn vec_growth(len: usize, cap: usize, n: usize, elem: usize) -> usize {
        if len + n <= cap { 0 } else { ((cap * 2).max(len + n) - cap) * elem }
    }
    let len = inner.vids.len();
    let wps = inner.qsets.words_per_set();
    let mut bytes = vec_growth(len, inner.vids.capacity(), n, 4)
        + vec_growth(len, inner.versions.capacity(), n, 4)
        // The qset block is reserved once per insert (see
        // `insert_shard`), so single-step growth models it exactly —
        // in words, since that is the column's allocation unit.
        + vec_growth(len * wps, inner.qsets.capacity_words(), n * wps, 8);
    for idx in &inner.indices {
        bytes += vec_growth(idx.keys.len(), idx.keys.capacity(), n, 8)
            + vec_growth(idx.next.len(), idx.next.capacity(), n, 4);
        let mut buckets = idx.buckets.len().max(idx.initial_buckets);
        while idx.keys.len() + n > buckets - buckets / 4 {
            buckets *= 2;
        }
        bytes += buckets.saturating_sub(idx.buckets.capacity()) * 4;
    }
    bytes
}

/// A shared, versioned, multi-index state module for one relation,
/// optionally hash-partitioned into shards (module docs).
#[derive(Debug)]
pub struct Stem {
    rel: RelId,
    key_cols: Vec<ColId>,
    /// Whether index 0 routes: fixed at construction. A STeM born without
    /// key columns keeps all entries in shard 0 forever, even if
    /// `ensure_index` later adds indices — routing by a late index would
    /// strand already-stored entries in the wrong shard.
    routed: bool,
    shards: Box<[RwLock<StemInner>]>,
}

impl Stem {
    /// Creates an unsharded STeM for `rel` with one hash index per key
    /// column. `words_per_set` fixes the query-set width. Indices start at
    /// the minimum bucket-table size; pass the relation's expected
    /// cardinality via [`with_capacity_hint`](Self::with_capacity_hint) to
    /// avoid build-time rehashing.
    pub fn new(rel: RelId, key_cols: Vec<ColId>, words_per_set: usize) -> Self {
        Self::with_capacity_hint(rel, key_cols, words_per_set, 0)
    }

    /// Like [`new`](Self::new), but sizes each index's bucket table for
    /// `hint` expected entries (e.g. the base relation's row count). The
    /// tables are allocated by the first insert, so a STeM that is never
    /// built costs nothing and [`memory_bytes`](Self::memory_bytes) reports
    /// built state only.
    pub fn with_capacity_hint(
        rel: RelId,
        key_cols: Vec<ColId>,
        words_per_set: usize,
        hint: usize,
    ) -> Self {
        Self::with_shards(rel, key_cols, words_per_set, hint, 1)
    }

    /// Like [`with_capacity_hint`](Self::with_capacity_hint), but splits
    /// the STeM into `n_shards` hash shards (clamped to
    /// `1..=`[`MAX_STEM_SHARDS`]); `hint` is the *total* expected
    /// cardinality, divided evenly across shards.
    pub fn with_shards(
        rel: RelId,
        key_cols: Vec<ColId>,
        words_per_set: usize,
        hint: usize,
        n_shards: usize,
    ) -> Self {
        let n_shards = n_shards.clamp(1, MAX_STEM_SHARDS);
        let shard_hint = if n_shards > 1 { hint / n_shards } else { hint };
        let shards: Box<[RwLock<StemInner>]> = (0..n_shards)
            .map(|_| {
                RwLock::new(StemInner {
                    vids: Vec::new(),
                    versions: Vec::new(),
                    qsets: QuerySetColumn::new(words_per_set),
                    indices: key_cols.iter().map(|_| StemIndex::with_capacity(shard_hint)).collect(),
                })
            })
            .collect();
        Stem { rel, routed: n_shards > 1 && !key_cols.is_empty(), key_cols, shards }
    }

    /// The STeM's relation.
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The indexed key columns, in index order.
    #[inline]
    pub fn key_cols(&self) -> &[ColId] {
        &self.key_cols
    }

    /// Index id of `col`, if indexed.
    pub fn index_of(&self, col: ColId) -> Option<usize> {
        self.key_cols.iter().position(|&c| c == col)
    }

    /// Number of hash shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether index 0 routes keys to shards (false for unsharded STeMs
    /// and STeMs constructed without key columns).
    #[inline]
    pub fn is_routed(&self) -> bool {
        self.routed
    }

    /// The shard that tuples with routing key `key` (index 0) belong to.
    #[inline]
    pub fn shard_of_key(&self, key: i64) -> usize {
        if self.routed { shard_for_key(key, self.shards.len()) } else { 0 }
    }

    /// Inserts a sub-vector of tuples that all route to `shard`, assigning
    /// it a fresh global version under that shard's write latch (module
    /// docs). `keys[k][i]` is tuple `i`'s key for index `k`. Returns the
    /// assigned version.
    ///
    /// This is the sharded hot path: concurrent workers inserting into
    /// different shards never contend. The caller partitions rows with
    /// [`shard_of_key`](Self::shard_of_key) and must probe each sub-vector
    /// with *its own* returned version for the exactly-once guarantee.
    pub fn insert_shard(
        &self,
        shard: usize,
        vids: &[u32],
        qsets: &QuerySetColumn,
        keys: &[Vec<i64>],
        global_version: &AtomicU32,
    ) -> u32 {
        debug_assert_eq!(keys.len(), self.key_cols.len());
        debug_assert_eq!(qsets.len(), vids.len());
        #[cfg(debug_assertions)]
        if self.routed {
            for &k in keys.first().map(Vec::as_slice).unwrap_or(&[]) {
                debug_assert_eq!(self.shard_of_key(k), shard, "misrouted key {k}");
            }
        } else {
            debug_assert_eq!(shard, 0, "unrouted STeM stores everything in shard 0");
        }
        let Some(lock) = self.shards.get(shard) else {
            // A shard id out of range is a caller bug (`shard_of_key` is a
            // modulus); drop the insert rather than panic mid-episode.
            debug_assert!(false, "shard {shard} out of range");
            return 0;
        };
        let mut inner = lock.write();
        let version = global_version.fetch_add(1, Ordering::Relaxed);
        inner.vids.extend_from_slice(vids);
        let new_len = inner.versions.len() + vids.len();
        inner.versions.resize(new_len, version);
        // One up-front reservation: the row-at-a-time fill below then never
        // reallocates, which both avoids repeated amortized doubling and
        // keeps `projected_insert_bytes`'s single-reserve growth model an
        // upper bound.
        inner.qsets.reserve_rows(vids.len());
        for i in 0..vids.len() {
            inner.qsets.push_row_from(qsets, i);
        }
        for (idx, index_keys) in inner.indices.iter_mut().zip(keys.iter()) {
            debug_assert_eq!(index_keys.len(), vids.len());
            for &key in index_keys {
                idx.insert(key);
            }
        }
        version
    }

    /// Inserts a vector of tuples, assigning versions under the write
    /// latch (see module docs). `keys[k][i]` is tuple `i`'s key for index
    /// `k`.
    ///
    /// On an unsharded STeM this is one critical section with one version,
    /// which it returns. On a sharded STeM the rows are partitioned by
    /// routing key and inserted per shard via
    /// [`insert_shard`](Self::insert_shard) — each sub-vector gets its own
    /// version and the *last* one is returned, which is only safe to probe
    /// with when no concurrent inserter exists (single-threaded loaders,
    /// benchmarks). The engine's episode path calls `insert_shard`
    /// directly and keeps the per-shard versions.
    pub fn insert_vector(
        &self,
        vids: &[u32],
        qsets: &QuerySetColumn,
        keys: &[Vec<i64>],
        global_version: &AtomicU32,
    ) -> u32 {
        if !self.routed {
            return self.insert_shard(0, vids, qsets, keys, global_version);
        }
        let n_shards = self.shards.len();
        let mut version = 0;
        let Some(keys0) = keys.first() else {
            return version;
        };
        // Cold-path partition (bench/test convenience): per-shard gather
        // of vids, key columns, and query-set rows.
        let mut sub_vids: Vec<u32> = Vec::new();
        let mut sub_keys: Vec<Vec<i64>> = vec![Vec::new(); keys.len()];
        for shard in 0..n_shards {
            sub_vids.clear();
            for sk in &mut sub_keys {
                sk.clear();
            }
            let mut sub_qsets = QuerySetColumn::new(qsets.words_per_set());
            for (i, &k0) in keys0.iter().enumerate() {
                if shard_for_key(k0, n_shards) != shard {
                    continue;
                }
                sub_vids.extend(vids.get(i).copied());
                for (sk, kc) in sub_keys.iter_mut().zip(keys.iter()) {
                    sk.extend(kc.get(i).copied());
                }
                sub_qsets.push_row_from(qsets, i);
            }
            if sub_vids.is_empty() {
                continue;
            }
            version = self.insert_shard(shard, &sub_vids, &sub_qsets, &sub_keys, global_version);
        }
        version
    }

    /// Adds a hash index on `col` if absent, retroactively indexing stored
    /// entries by gathering their keys from the base column (dynamic query
    /// admission can introduce new join keys mid-run).
    pub fn ensure_index(&mut self, col: ColId, column: &roulette_storage::Column) -> usize {
        if let Some(i) = self.index_of(col) {
            return i;
        }
        for shard in self.shards.iter_mut() {
            let inner = shard.get_mut();
            let mut idx = StemIndex::with_capacity(inner.vids.len());
            for &vid in &inner.vids {
                idx.insert(column.value(vid as usize));
            }
            inner.indices.push(idx);
        }
        self.key_cols.push(col);
        self.key_cols.len() - 1
    }

    /// Acquires the probe-side read latch on every shard (ascending shard
    /// order) for the duration of one probe vector. The engine's episode
    /// path uses the shard-at-a-time [`probe_tiles`](Self::probe_tiles)
    /// instead; a reader pins a consistent snapshot across shards for
    /// loaders, benchmarks, and tests.
    pub fn read(&self) -> StemReader<'_> {
        let mut guards = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            guards.push(shard.read()); // lint:allow(lock-order) — same-class shard latches are always acquired in ascending shard order
        }
        StemReader { guards }
    }

    /// Calls `f(entry_qset_words, entry_vid)` for every match of `key` in
    /// index `index_id` with version strictly older than `version` (pass
    /// [`VERSION_ALL`] to see everything), taking one shard read latch at
    /// a time. The routing index visits only the key's shard.
    #[inline]
    pub fn probe(&self, index_id: usize, key: i64, version: u32, mut f: impl FnMut(&[u64], u32)) {
        if self.routed && index_id == 0 {
            if let Some(shard) = self.shards.get(self.shard_of_key(key)) {
                shard.read().probe(index_id, key, version, &mut f);
            }
        } else {
            for shard in self.shards.iter() {
                shard.read().probe(index_id, key, version, &mut f);
            }
        }
    }

    /// The one batched chain walker behind [`probe_tiles`](Self::probe_tiles)
    /// and [`semijoin_batch`](Self::semijoin_batch): for every key in
    /// `keys` (one per probe row) it emits a `(probe_row, entry)` pair per
    /// match with version strictly older than `version` into the
    /// fixed-capacity pair tile of `scratch`, and hands the tile to
    /// `on_tile(rows, entries, shard)` whenever it fills and when a shard's
    /// walk ends (entry indices are shard-local, and the shard's read latch
    /// is held across the call). A hot key's fan-out therefore never grows
    /// a buffer. `on_tile` returns whether to keep walking.
    ///
    /// Unsharded, pairs come in probe-row order then chain order. Sharded,
    /// rows are counting-sorted by owning shard (routing index) or
    /// re-probed per shard (secondary indices), so the order is
    /// shard-grouped — a permutation of the unsharded matches. Only one
    /// shard's read latch is held at a time.
    ///
    /// Per shard, phase one fetches every bucket head of the batch in a
    /// tight loop over the bucket table (independent loads the hardware
    /// can overlap and prefetch); only phase two walks the dependent chain
    /// links.
    // lint: hot-loop
    fn walk_tiles(
        &self,
        index_id: usize,
        keys: &[i64],
        version: u32,
        scratch: &mut ProbeScratch,
        mut on_tile: impl FnMut(&mut [u32], &mut [u32], &StemInner) -> bool,
    ) {
        let ProbeScratch { hashes, heads, shard_of, order, counts, tile_rows, tile_entries } =
            scratch;
        hashes.clear();
        hashes.extend(keys.iter().map(|&k| hash_key(k)));
        // The tile is a pair of fixed `PROBE_TILE`-slot arrays with a
        // cursor: a match is written to the cursor's slot unconditionally
        // and the cursor advances only if the entry's version qualifies, so
        // the version filter costs no branch.
        tile_rows.resize(PROBE_TILE, 0);
        tile_entries.resize(PROBE_TILE, 0);
        let mut pending = 0usize;
        let offs = if self.routed && index_id == 0 {
            Some(partition_probe_rows(self.shards.len(), hashes, shard_of, order, counts))
        } else {
            // Full scan: every shard sees the whole batch in row order.
            order.clear();
            order.extend(0..keys.len() as u32);
            counts.clear();
            None
        };
        for (s, shard) in self.shards.iter().enumerate() {
            let rows = match &offs {
                Some(offs) => {
                    let (Some(&start), Some(&end)) = (offs.get(s), offs.get(s + 1)) else {
                        break;
                    };
                    order.get(start as usize..end as usize).unwrap_or(&[])
                }
                None => order.as_slice(),
            };
            if rows.is_empty() {
                continue;
            }
            let inner = shard.read();
            let Some(index) = inner.indices.get(index_id) else {
                continue;
            };
            if offs.is_none() {
                counts.push(keys.len() as u32);
            }
            heads.clear();
            heads.extend(rows.iter().map(|&i| {
                hashes.get(i as usize).map_or(0, |&h| index.head_of_hash(h))
            }));
            for (&i, &head) in rows.iter().zip(heads.iter()) {
                let Some(&key) = keys.get(i as usize) else {
                    continue;
                };
                let go = index.walk_chain(head, key, |e| {
                    if let (Some(r), Some(x)) =
                        (tile_rows.get_mut(pending), tile_entries.get_mut(pending))
                    {
                        *r = i;
                        *x = e;
                    }
                    // `VERSION_ALL` sees everything: skip the version load.
                    let visible = version == VERSION_ALL
                        || inner.versions.get(e as usize).is_some_and(|&v| v < version);
                    pending += usize::from(visible);
                    if pending < PROBE_TILE {
                        return true;
                    }
                    pending = 0;
                    on_tile(tile_rows, tile_entries, &inner)
                });
                if !go {
                    return;
                }
            }
            // Entry indices are shard-local: drain before the latch drops.
            if pending > 0 {
                let (rows, entries) = (tile_rows.get_mut(..pending), tile_entries.get_mut(..pending));
                pending = 0;
                if let (Some(rows), Some(entries)) = (rows, entries) {
                    if !on_tile(rows, entries, &inner) {
                        return;
                    }
                }
            }
        }
    }

    /// The shared probe operator: for every key in `keys` (one per probe
    /// row, whose query-set is the same row of `row_masks`), joins the row
    /// with each matching entry of index `index_id` whose version is
    /// strictly older than `version` and whose query-set intersects the
    /// row's. It runs as column-at-a-time passes over tiles of at most
    /// [`PROBE_TILE`] match pairs: the chain walk emits pairs, one AND
    /// pass appends the non-empty intersections to `out` and compacts the
    /// pairs, and `on_tile` then gets the surviving pairs of the
    /// [`MatchTile`] to gather whatever columns it carries, together with
    /// `out` itself, which grew by exactly `tile.len()` rows, in pair order.
    /// A consumer that lets `out` accumulate materialises the probe output;
    /// one that consumes the tile's rows and clears `out` before returning
    /// (a fused leaf routes them) keeps the output tile-local. `on_tile`
    /// returns whether to keep probing, so a watchdog can stop an exploding
    /// probe within one tile. It runs under the shard's read latch and must
    /// not take a lock.
    ///
    /// Unsharded, output order is probe-row order then chain order —
    /// byte-identical to calling [`probe`](Self::probe) per key; sharded it
    /// is the shard-grouped permutation of that. After the call,
    /// [`ProbeScratch::shard_key_counts`] exposes how many keys each
    /// visited shard saw.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_tiles(
        &self,
        index_id: usize,
        keys: &[i64],
        version: u32,
        row_masks: &QuerySetColumn,
        scratch: &mut ProbeScratch,
        out: &mut QuerySetColumn,
        mut on_tile: impl FnMut(MatchTile<'_>, &mut QuerySetColumn) -> bool,
    ) {
        debug_assert_eq!(row_masks.len(), keys.len());
        self.walk_tiles(index_id, keys, version, scratch, |rows, entries, inner| {
            let kept = pairs::and_select_pairs(row_masks, &inner.qsets, rows, entries, out);
            let tile = MatchTile {
                rows: rows.get(..kept).unwrap_or(&[]),
                entries: entries.get(..kept).unwrap_or(&[]),
                vids: &inner.vids,
            };
            on_tile(tile, out)
        });
    }

    /// Batched semi-join for symmetric join pruning (§5.2): ORs into row
    /// `i` of `row_masks` the query-sets of all matches of `keys[i]` (any
    /// version). Same tile walker as [`probe_tiles`](Self::probe_tiles)
    /// with an OR pass in place of the AND; since the pass ORs, visit
    /// order is immaterial.
    pub fn semijoin_batch(
        &self,
        index_id: usize,
        keys: &[i64],
        scratch: &mut ProbeScratch,
        row_masks: &mut QuerySetColumn,
    ) {
        debug_assert_eq!(row_masks.len(), keys.len());
        self.walk_tiles(index_id, keys, VERSION_ALL, scratch, |rows, entries, inner| {
            pairs::or_pairs(row_masks, &inner.qsets, rows, entries);
            true
        });
    }

    /// Number of stored entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().vids.len()).sum()
    }

    /// Entries stored per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().vids.len()).collect()
    }

    /// Approximate resident bytes (entry blocks + indices, summed over
    /// shards). STeM footprint bounds the dataset size RouLette can
    /// process (§3), so the engine surfaces it in its statistics.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| inner_memory_bytes(&s.read())).sum()
    }

    /// Per-shard resident bytes, in shard order; sums to
    /// [`memory_bytes`](Self::memory_bytes).
    pub fn shard_memory_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| inner_memory_bytes(&s.read())).collect()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on how much [`memory_bytes`](Self::memory_bytes) would
    /// grow if `n` more tuples were inserted now, with no knowledge of
    /// where they route. Unsharded this is exact to the growth model;
    /// sharded it charges every shard for the full `n` (any distribution
    /// of the rows grows each shard by at most its `n`-row projection), so
    /// callers that know the routing keys should use
    /// [`projected_insert_bytes_routed`](Self::projected_insert_bytes_routed)
    /// for a tight per-shard sum.
    pub fn projected_insert_bytes(&self, n: usize) -> usize {
        self.shards.iter().map(|s| inner_projected_insert_bytes(&s.read(), n)).sum()
    }

    /// Projected growth of an `n`-row insert whose routing keys (index 0)
    /// are `keys0`: counts the rows landing in each shard and sums the
    /// per-shard growth projections, so the memory governor's eviction
    /// ladder gates on what the sharded insert will actually allocate —
    /// a single oversized shard is fully charged. Unrouted STeMs charge
    /// shard 0 for all `n` rows (and ignore `keys0`).
    pub fn projected_insert_bytes_routed(&self, n: usize, keys0: &[i64]) -> usize {
        if !self.routed {
            return self
                .shards
                .first()
                .map(|s| inner_projected_insert_bytes(&s.read(), n))
                .unwrap_or(0);
        }
        debug_assert_eq!(keys0.len(), n);
        let n_shards = self.shards.len();
        let mut per_shard = [0usize; MAX_STEM_SHARDS];
        for &k in keys0 {
            if let Some(rows) = per_shard.get_mut(shard_for_key(k, n_shards)) {
                *rows += 1;
            }
        }
        let mut bytes = 0;
        for (shard, &rows) in self.shards.iter().zip(per_shard.iter()) {
            if rows > 0 {
                bytes += inner_projected_insert_bytes(&shard.read(), rows);
            }
        }
        bytes
    }
}

/// Counting-sorts probe rows by owning shard: fills `shard_of` (row →
/// shard), `order` (row indices grouped by shard), `counts` (keys per
/// shard), and returns the per-shard offsets into `order`.
fn partition_probe_rows(
    n_shards: usize,
    hashes: &[u64],
    shard_of: &mut Vec<u8>,
    order: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) -> [u32; MAX_STEM_SHARDS + 1] {
    shard_of.clear();
    shard_of.extend(hashes.iter().map(|&h| (h % n_shards as u64) as u8));
    counts.clear();
    counts.resize(n_shards, 0);
    for &s in shard_of.iter() {
        if let Some(c) = counts.get_mut(s as usize) {
            *c += 1;
        }
    }
    let mut offs = [0u32; MAX_STEM_SHARDS + 1];
    let mut acc = 0u32;
    for (o, &c) in offs.iter_mut().skip(1).zip(counts.iter()) {
        acc += c;
        *o = acc;
    }
    order.clear();
    order.resize(hashes.len(), 0);
    let mut cursor = offs;
    for (i, &s) in shard_of.iter().enumerate() {
        if let Some(c) = cursor.get_mut(s as usize) {
            if let Some(slot) = order.get_mut(*c as usize) {
                *slot = i as u32;
            }
            *c += 1;
        }
    }
    offs
}

/// One tile of surviving match pairs, handed to the consumer of
/// [`Stem::probe_tiles`] while the owning shard's read latch is held.
pub struct MatchTile<'a> {
    rows: &'a [u32],
    entries: &'a [u32],
    vids: &'a [u32],
}

impl MatchTile<'_> {
    /// Number of surviving pairs (rows the tile appended to the output).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no pair of the tile survived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Probe row (index into the probed `keys`) of each surviving pair.
    #[inline]
    pub fn rows(&self) -> &[u32] {
        self.rows
    }

    /// Appends the matched entry's vID of each surviving pair to `out`.
    #[inline]
    pub fn extend_vids(&self, out: &mut Vec<u32>) {
        pairs::gather_u32(self.vids, self.entries, out);
    }
}

/// Reusable working state for [`Stem::probe_tiles`] and
/// [`Stem::semijoin_batch`]: the batched hash, bucket-head and
/// shard-partition slices, and the fixed-capacity match-pair tile. Owned
/// by the episode scratch arena so steady-state probing never allocates.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    hashes: Vec<u64>,
    heads: Vec<u32>,
    shard_of: Vec<u8>,
    order: Vec<u32>,
    counts: Vec<u32>,
    /// Probe row of each pending match pair (at most [`PROBE_TILE`]).
    tile_rows: Vec<u32>,
    /// Shard-local entry index of each pending match pair.
    tile_entries: Vec<u32>,
}

impl ProbeScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keys-per-shard of the most recent tiled probe/semi-join through
    /// this scratch: one entry per visited shard (telemetry hook). Routed
    /// probes report the partition histogram; full scans report the whole
    /// batch size once per shard.
    pub fn shard_key_counts(&self) -> &[u32] {
        &self.counts
    }
}

/// Read access to a STeM — all shards — for the duration of one probe
/// vector.
pub struct StemReader<'a> {
    guards: Vec<RwLockReadGuard<'a, StemInner>>,
}

impl StemReader<'_> {
    /// Calls `f(entry_qset_words, entry_vid)` for every match of `key` in
    /// index `index_id` with version strictly older than `version` (pass
    /// [`VERSION_ALL`] to see everything), in shard order.
    #[inline]
    pub fn probe(&self, index_id: usize, key: i64, version: u32, mut f: impl FnMut(&[u64], u32)) {
        for inner in &self.guards {
            inner.probe(index_id, key, version, &mut f);
        }
    }

    /// Number of entries visible to this reader.
    pub fn len(&self) -> usize {
        self.guards.iter().map(|g| g.vids.len()).sum()
    }

    /// Whether the STeM is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_core::QuerySet;

    fn qcol(sets: &[&QuerySet]) -> QuerySetColumn {
        let mut c = QuerySetColumn::new(sets[0].width());
        for s in sets {
            c.push(s.words());
        }
        c
    }

    #[test]
    fn insert_and_probe_round_trip() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(2);
        let v = stem.insert_vector(&[10, 11, 12], &qcol(&[&q, &q, &q]), &[vec![5, 7, 5]], &global);
        assert_eq!(v, 0);
        assert_eq!(stem.len(), 3);
        let r = stem.read();
        let mut hits = Vec::new();
        r.probe(0, 5, VERSION_ALL, |_, vid| hits.push(vid));
        hits.sort_unstable();
        assert_eq!(hits, vec![10, 12]);
        let mut none = 0;
        r.probe(0, 99, VERSION_ALL, |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn version_filtering_enforces_atomicity() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(1);
        let v0 = stem.insert_vector(&[1], &qcol(&[&q]), &[vec![42]], &global);
        let v1 = stem.insert_vector(&[2], &qcol(&[&q]), &[vec![42]], &global);
        assert!(v0 < v1);
        let r = stem.read();
        // A probe at version v1 sees only the v0 entry.
        let mut hits = Vec::new();
        r.probe(0, 42, v1, |_, vid| hits.push(vid));
        assert_eq!(hits, vec![1]);
        // A probe at version v0 sees nothing (no strictly older entries).
        hits.clear();
        r.probe(0, 42, v0, |_, vid| hits.push(vid));
        assert!(hits.is_empty());
    }

    #[test]
    fn multiple_indices_are_independent() {
        let stem = Stem::new(RelId(0), vec![ColId(0), ColId(3)], 1);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(1);
        stem.insert_vector(&[7], &qcol(&[&q]), &[vec![1], vec![100]], &global);
        assert_eq!(stem.index_of(ColId(3)), Some(1));
        assert_eq!(stem.index_of(ColId(9)), None);
        let r = stem.read();
        let mut hits = 0;
        r.probe(1, 100, VERSION_ALL, |_, _| hits += 1);
        assert_eq!(hits, 1);
        hits = 0;
        r.probe(0, 100, VERSION_ALL, |_, _| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn index_growth_preserves_entries() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(1);
        let n = 10_000u32;
        let vids: Vec<u32> = (0..n).collect();
        let keys: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
        let mut qc = QuerySetColumn::new(1);
        for _ in 0..n {
            qc.push(q.words());
        }
        stem.insert_vector(&vids, &qc, &[keys], &global);
        let r = stem.read();
        let mut hits = 0;
        r.probe(0, 13, VERSION_ALL, |_, _| hits += 1);
        let expected = (0..n as i64).filter(|i| i % 97 == 13).count();
        assert_eq!(hits, expected);
    }

    #[test]
    fn ensure_index_retroactively_indexes_entries() {
        let mut stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(1);
        // Entries reference base rows 0..4 before the second index exists.
        stem.insert_vector(&[0, 1, 2, 3], &qcol(&[&q, &q, &q, &q]), &[vec![0, 1, 2, 3]], &global);
        let base = roulette_storage::Column::Int64(vec![7, 8, 7, 8]);
        let idx = stem.ensure_index(ColId(5), &base);
        assert_eq!(idx, 1);
        // Idempotent.
        assert_eq!(stem.ensure_index(ColId(5), &base), 1);
        let r = stem.read();
        let mut hits = Vec::new();
        r.probe(1, 7, VERSION_ALL, |_, vid| hits.push(vid));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn memory_accounting_grows_with_entries() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 2);
        let global = AtomicU32::new(0);
        let empty = stem.memory_bytes();
        let q = QuerySet::full(100);
        let n = 4096u32;
        let mut qc = QuerySetColumn::new(2);
        for _ in 0..n {
            qc.push(q.words());
        }
        let vids: Vec<u32> = (0..n).collect();
        let keys: Vec<i64> = (0..n as i64).collect();
        stem.insert_vector(&vids, &qc, &[keys], &global);
        let full = stem.memory_bytes();
        // At least vids + versions + qsets + keys worth of growth.
        assert!(full > empty + n as usize * (4 + 4 + 16 + 8) - 1, "{empty} → {full}");
    }

    #[test]
    fn projected_insert_bytes_bounds_actual_growth() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 2);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(100);
        for round in 0..8 {
            let n = 1024;
            let before = stem.memory_bytes();
            let projected = stem.projected_insert_bytes(n);
            let mut qc = QuerySetColumn::new(2);
            for _ in 0..n {
                qc.push(q.words());
            }
            let vids: Vec<u32> = (0..n as u32).collect();
            let keys: Vec<i64> = (0..n as i64).collect();
            stem.insert_vector(&vids, &qc, &[keys], &global);
            let actual = stem.memory_bytes() - before;
            assert!(actual <= projected, "round {round}: actual {actual} > projected {projected}");
        }
    }

    #[test]
    fn memory_accounting_charges_qset_capacity() {
        // The governor must see reserved capacity, not just filled length:
        // a vector insert reserves the whole batch's qset block up front,
        // and that memory is resident immediately.
        let stem = Stem::new(RelId(0), vec![ColId(0)], 4);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(256);
        let mut qc = QuerySetColumn::new(4);
        for _ in 0..100 {
            qc.push(q.words());
        }
        let vids: Vec<u32> = (0..100).collect();
        let keys: Vec<i64> = (0..100).collect();
        stem.insert_vector(&vids, &qc, &[keys], &global);
        let inner = stem.shards[0].read();
        let cap_bytes = inner.qsets.capacity_words() * 8;
        let len_bytes = inner.qsets.raw().len() * 8;
        assert!(cap_bytes >= len_bytes);
        let accounted = stem.memory_bytes();
        // memory_bytes must include the full reserved qset block: strip the
        // other components and compare against capacity, not length.
        let non_qset: usize = inner.vids.capacity() * 4
            + inner.versions.capacity() * 4
            + inner
                .indices
                .iter()
                .map(|i| i.keys.capacity() * 8 + (i.buckets.capacity() + i.next.capacity()) * 4)
                .sum::<usize>();
        assert_eq!(accounted - non_qset, cap_bytes);
    }

    #[test]
    fn capacity_hint_sizes_buckets_and_shrinks_tiny_indices() {
        // Nothing is allocated before the first insert: a STeM whose builds
        // were all elided is free, and probing it finds nothing.
        let tiny = Stem::new(RelId(0), vec![ColId(0), ColId(1)], 1);
        let hinted = Stem::with_capacity_hint(RelId(0), vec![ColId(0)], 1, 6000);
        assert_eq!(tiny.memory_bytes(), 0);
        assert_eq!(hinted.memory_bytes(), 0);
        let mut hits = 0;
        hinted.probe(0, 5, VERSION_ALL, |_, _| hits += 1);
        assert_eq!(tiled(&hinted, 0, &[5, 6], VERSION_ALL, 1).0.len() + hits, 0);
        // The governor's projection charges the table the first insert
        // will allocate.
        assert!(hinted.projected_insert_bytes(1) > tiny.projected_insert_bytes(1));
        let global = AtomicU32::new(0);
        let q = QuerySet::full(1);
        let mut one = QuerySetColumn::new(1);
        one.push(q.words());
        // Unhinted (tiny) indices start at the minimum table...
        tiny.insert_vector(&[0], &one, &[vec![1], vec![2]], &global);
        for idx in &tiny.shards[0].read().indices {
            assert_eq!(idx.buckets.len(), StemIndex::MIN_BUCKETS);
        }
        // ...a hinted index is sized to hold the hint at ≤3/4 load...
        let projected = hinted.projected_insert_bytes(1);
        hinted.insert_vector(&[0], &one, &[vec![0]], &global);
        let buckets = hinted.shards[0].read().indices[0].buckets.len();
        assert!(buckets.is_power_of_two());
        assert!(6000 <= buckets - buckets / 4, "{buckets} buckets under-sized");
        assert!(buckets <= 16384, "{buckets} buckets over-sized");
        assert!(projected >= buckets * 4, "projection {projected} misses the bucket table");
        // ...and the footprint gap is visible to the memory governor.
        assert!(tiny.memory_bytes() < hinted.memory_bytes());
        // A correctly hinted build never rehashes: insert exactly `hint`
        // keys and check the table kept its initial size.
        let n = 5999u32;
        let mut qc = QuerySetColumn::new(1);
        for _ in 0..n {
            qc.push(q.words());
        }
        let vids: Vec<u32> = (1..=n).collect();
        let keys: Vec<i64> = (1..=n as i64).collect();
        hinted.insert_vector(&vids, &qc, &[keys], &global);
        assert_eq!(hinted.len(), 6000);
        assert_eq!(hinted.shards[0].read().indices[0].buckets.len(), buckets);
    }

    /// Drives `probe_tiles` with full row masks and collects `(probe_row,
    /// first entry-qset word, vid)` per surviving pair, in output order.
    fn tiled(
        stem: &Stem,
        index_id: usize,
        keys: &[i64],
        version: u32,
        width: usize,
    ) -> (Vec<(usize, u64, u32)>, ProbeScratch) {
        let mut masks = QuerySetColumn::new(width);
        masks.push_repeat(&vec![u64::MAX; width], keys.len());
        let mut scratch = ProbeScratch::new();
        let mut out = QuerySetColumn::new(width);
        let (mut rows, mut vids) = (Vec::new(), Vec::new());
        stem.probe_tiles(index_id, keys, version, &masks, &mut scratch, &mut out, |tile, _| {
            assert!(tile.len() <= PROBE_TILE);
            rows.extend_from_slice(tile.rows());
            tile.extend_vids(&mut vids);
            true
        });
        assert_eq!(out.len(), rows.len());
        let got = (0..rows.len()).map(|k| (rows[k] as usize, out.row(k)[0], vids[k])).collect();
        (got, scratch)
    }

    #[test]
    fn probe_tiles_matches_per_key_probes() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 2);
        let global = AtomicU32::new(0);
        let q = QuerySet::full(100);
        let n = 5000u32;
        let mut qc = QuerySetColumn::new(2);
        for _ in 0..n {
            qc.push(q.words());
        }
        let vids: Vec<u32> = (0..n).collect();
        let keys: Vec<i64> = (0..n as i64).map(|i| i % 301).collect();
        let v0 = stem.insert_vector(&vids, &qc, &[keys], &global);
        let v1 = stem.insert_vector(&[n], &qcol(&[&q]), &[vec![7]], &global);
        assert!(v0 < v1);
        // 512 keys × ~17 entries per hit: more than one tile of pairs.
        let probe_keys: Vec<i64> = (0..512).map(|i| (i * 37) % 400).collect();
        for version in [v0, v1, VERSION_ALL] {
            let mut single: Vec<(usize, u64, u32)> = Vec::new();
            for (i, &k) in probe_keys.iter().enumerate() {
                stem.probe(0, k, version, |qs, vid| single.push((i, qs[0], vid)));
            }
            let (batched, _) = tiled(&stem, 0, &probe_keys, version, 2);
            // Same matches in the same visit order.
            assert_eq!(single, batched, "version {version}");
            if version == VERSION_ALL {
                assert!(batched.len() > PROBE_TILE);
            }
        }
    }

    #[test]
    fn semijoin_batch_unions_query_sets() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let q0 = QuerySet::singleton(roulette_core::QueryId(0), 3);
        let q2 = QuerySet::singleton(roulette_core::QueryId(2), 3);
        stem.insert_vector(&[1, 2], &qcol(&[&q0, &q2]), &[vec![5, 5]], &global);
        let mut masks = QuerySetColumn::new(1);
        masks.push_repeat(&[0], 2);
        stem.semijoin_batch(0, &[5, 9], &mut ProbeScratch::new(), &mut masks);
        assert_eq!(masks.raw(), &[0b101, 0]);
    }

    #[test]
    fn concurrent_insert_probe_exactly_once() {
        // Two threads symmetric-join R and S: each inserts its vector then
        // probes the other side. Every (r, s) match must be found exactly
        // once across both threads — at every shard count.
        use std::sync::Arc;
        for shards in [1usize, 2, 8] {
            let stem_r = Arc::new(Stem::with_shards(RelId(0), vec![ColId(0)], 1, 0, shards));
            let stem_s = Arc::new(Stem::with_shards(RelId(1), vec![ColId(0)], 1, 0, shards));
            let global = Arc::new(AtomicU32::new(0));
            let q = QuerySet::full(1);

            for trial in 0..50 {
                let found = Arc::new(std::sync::Mutex::new(Vec::new()));
                let mk = |own: Arc<Stem>, other: Arc<Stem>, vid: u32| {
                    let global = Arc::clone(&global);
                    let q = q.clone();
                    let found = Arc::clone(&found);
                    move || {
                        let key = 1000 + trial;
                        let mut qc = QuerySetColumn::new(1);
                        qc.push(q.words());
                        let shard = own.shard_of_key(key);
                        let v = own.insert_shard(shard, &[vid], &qc, &[vec![key]], &global);
                        other.probe(0, key, v, |_, other_vid| {
                            found.lock().unwrap().push((vid, other_vid));
                        });
                    }
                };
                let t1 =
                    std::thread::spawn(mk(Arc::clone(&stem_r), Arc::clone(&stem_s), trial as u32));
                let t2 =
                    std::thread::spawn(mk(Arc::clone(&stem_s), Arc::clone(&stem_r), trial as u32));
                t1.join().unwrap();
                t2.join().unwrap();
                let matches = found.lock().unwrap();
                assert_eq!(matches.len(), 1, "shards {shards} trial {trial}: {:?}", *matches);
            }
        }
    }

    #[test]
    fn sharded_insert_routes_and_probes_find_everything() {
        let global = AtomicU32::new(0);
        let q = QuerySet::full(4);
        let n = 4000u32;
        let vids: Vec<u32> = (0..n).collect();
        let keys0: Vec<i64> = (0..n as i64).map(|i| i * 13 % 509).collect();
        let keys1: Vec<i64> = (0..n as i64).map(|i| i % 17).collect();
        let mut qc = QuerySetColumn::new(q.width());
        for _ in 0..n {
            qc.push(q.words());
        }
        let flat = Stem::new(RelId(0), vec![ColId(0), ColId(1)], q.width());
        flat.insert_vector(&vids, &qc, &[keys0.clone(), keys1.clone()], &global);
        for shards in [2usize, 8, 64] {
            let sharded =
                Stem::with_shards(RelId(0), vec![ColId(0), ColId(1)], q.width(), n as usize, shards);
            sharded.insert_vector(&vids, &qc, &[keys0.clone(), keys1.clone()], &global);
            assert_eq!(sharded.len(), flat.len());
            assert_eq!(sharded.shard_lens().iter().sum::<usize>(), flat.len());
            // Every entry landed in the shard its routing key owns.
            for (s, lock) in sharded.shards.iter().enumerate() {
                let inner = lock.read();
                for &k in &inner.indices[0].keys {
                    assert_eq!(sharded.shard_of_key(k), s);
                }
            }
            // Routed (index 0) and full-scan (index 1) probes both find
            // exactly the unsharded match multiset.
            for index_id in [0usize, 1] {
                let probe_keys: Vec<i64> =
                    (0..777).map(|i| if index_id == 0 { i * 7 % 520 } else { i % 20 }).collect();
                let (mut expect, _) = tiled(&flat, index_id, &probe_keys, VERSION_ALL, q.width());
                let (mut got, mut scratch) =
                    tiled(&sharded, index_id, &probe_keys, VERSION_ALL, q.width());
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "shards {shards} index {index_id}");
                if index_id == 0 {
                    let total: u32 = scratch.shard_key_counts().iter().sum();
                    assert_eq!(total as usize, probe_keys.len());
                }
                // Semi-join agreement too, against the per-key reference.
                let mut flat_acc = QuerySetColumn::new(q.width());
                flat_acc.push_repeat(QuerySet::empty(4).words(), probe_keys.len());
                let mut shard_acc = flat_acc.clone();
                let mut per_key = flat_acc.clone();
                flat.semijoin_batch(index_id, &probe_keys, &mut scratch, &mut flat_acc);
                sharded.semijoin_batch(index_id, &probe_keys, &mut scratch, &mut shard_acc);
                for (i, &k) in probe_keys.iter().enumerate() {
                    sharded.probe(index_id, k, VERSION_ALL, |qs, _| per_key.row_mut(i)[0] |= qs[0]);
                }
                assert_eq!(flat_acc.raw(), per_key.raw(), "shards {shards} index {index_id}");
                assert_eq!(shard_acc.raw(), per_key.raw(), "shards {shards} index {index_id}");
            }
        }
    }

    #[test]
    fn shard_memory_sums_to_total_and_routed_projection_delegates() {
        let global = AtomicU32::new(0);
        let q = QuerySet::full(8);
        let n = 2048u32;
        let vids: Vec<u32> = (0..n).collect();
        let keys: Vec<i64> = (0..n as i64).map(|i| i * 31 % 1009).collect();
        let mut qc = QuerySetColumn::new(q.width());
        for _ in 0..n {
            qc.push(q.words());
        }
        for shards in [1usize, 2, 8] {
            let stem = Stem::with_shards(RelId(0), vec![ColId(0)], q.width(), 0, shards);
            stem.insert_vector(&vids, &qc, std::slice::from_ref(&keys), &global);
            let per_shard = stem.shard_memory_bytes();
            assert_eq!(per_shard.len(), shards);
            assert_eq!(per_shard.iter().sum::<usize>(), stem.memory_bytes());
            // The routed projection with real keys never exceeds the
            // keys-unknown upper bound, and unsharded they coincide.
            let next: Vec<i64> = (0..512i64).map(|i| i * 77 % 1013).collect();
            let routed = stem.projected_insert_bytes_routed(next.len(), &next);
            let blind = stem.projected_insert_bytes(next.len());
            assert!(routed <= blind, "shards {shards}: routed {routed} > blind {blind}");
            if shards == 1 {
                assert_eq!(routed, blind);
            }
        }
    }

    #[test]
    fn oversized_single_shard_is_fully_charged() {
        // Skew every row onto one key → one shard absorbs the whole
        // insert. The routed projection must charge that shard for all n
        // rows, not n/S.
        let stem = Stem::with_shards(RelId(0), vec![ColId(0)], 2, 0, 8);
        // One stored row per shard first: bucket tables are allocated by a
        // shard's first insert, and the comparison below is about growth,
        // not about who still owes its first table.
        let global = AtomicU32::new(0);
        let q = QuerySet::full(70);
        let mut seeded = [false; 8];
        for k in 0i64.. {
            let s = stem.shard_of_key(k);
            if !std::mem::replace(&mut seeded[s], true) {
                stem.insert_shard(s, &[k as u32], &qcol(&[&q]), &[vec![k]], &global);
            }
            if seeded.iter().all(|&b| b) {
                break;
            }
        }
        let n = 4096usize;
        let hot = vec![77i64; n];
        let shard = stem.shard_of_key(77);
        let routed = stem.projected_insert_bytes_routed(n, &hot);
        let single = inner_projected_insert_bytes(&stem.shards[shard].read(), n);
        assert_eq!(routed, single);
        // And that is far more than an even-split estimate.
        let even: usize =
            stem.shards.iter().map(|s| inner_projected_insert_bytes(&s.read(), n / 8)).sum();
        assert!(routed > even, "skewed projection {routed} ≤ even-split {even}");
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        for &n_shards in &[1usize, 2, 3, 8, 64] {
            for k in -500i64..500 {
                let s = shard_for_key(k, n_shards);
                assert!(s < n_shards);
                assert_eq!(s, shard_for_key(k, n_shards), "routing must be deterministic");
            }
        }
    }
}
