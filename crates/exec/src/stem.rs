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
//! ## Pausing a probe
//!
//! A tiled probe may pause between tiles ([`Walk::Yield`]): the walker
//! drops the latch and returns a [`WalkCursor`], and a later call
//! resumes exactly where it paused, inserts made in between notwithstanding
//! (DESIGN.md §12). The engine pauses an inner probe to hand its output to
//! the next operator with no latch held.
//!
//! ## Dense-key views
//!
//! §5.2 scans the largest relation last, so most probing happens against
//! STeMs that will take no more inserts. A tiled walk whose version hides
//! nothing in the STeM reads each index through a read-only *view* instead
//! of its chains: the entries grouped by key over the key span, so a
//! probe is two adjacent loads per key. The first [`VERSION_ALL`] walk of
//! an index builds it under the read latch, the next insert drops
//! it under the write latch, and indices whose keys are sparse keep no
//! view. The chained index stays the only build structure and the
//! reference (DESIGN.md §14).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::kernels::pairs;
use roulette_core::sync::{LockRank, RwLock, RwLockReadGuard};
use roulette_core::{ColId, QuerySetColumn, RelId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Version value meaning "see everything" (semi-joins against completed
/// scans).
///
/// Versions are `u32` and one is consumed per inserted vector; a session
/// would need ~4.3 billion episodes (quadrillions of tuples at the default
/// vector size) to exhaust them, far beyond the in-memory datasets STeMs
/// can hold. Sessions are per-batch, so the counter resets naturally.
pub const VERSION_ALL: u32 = u32::MAX;

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
    /// The read-only dense-key view of the entries (DESIGN.md §14): built
    /// under the read latch by the first walk that sees every entry,
    /// reset by the next insert under the write latch. `Some(None)` caches
    /// that the keys are too sparse for one.
    view: OnceLock<Option<DenseView>>,
}

/// A [`StemIndex`]'s entries grouped by key, for probes that see every
/// entry (DESIGN.md §14): `ids[offs[k − lo]..offs[k − lo + 1]]` are the
/// entries with key `k` in descending index order — the chain's order — so
/// a probe is two adjacent loads per key, with no hash, bucket head, chain
/// link, key compare or version check.
#[derive(Debug)]
struct DenseView {
    lo: i64,
    offs: Vec<u32>,
    ids: Vec<u32>,
}

impl DenseView {
    /// Smallest key span a view may always take; above it the span must
    /// stay within [`Self::SPAN_PER_ENTRY`] slots per entry.
    const MIN_SPAN: u64 = 1024;
    const SPAN_PER_ENTRY: u64 = 4;

    /// Groups `keys` (entry `e` has key `keys[e]`) by key, or `None` when
    /// there are none or their span exceeds `max(4·entries, 1024)`.
    fn build(keys: &[i64]) -> Option<DenseView> {
        let lo = keys.iter().copied().min()?;
        let hi = keys.iter().copied().max()?;
        let limit = (Self::SPAN_PER_ENTRY * keys.len() as u64).max(Self::MIN_SPAN);
        let span = hi.abs_diff(lo).checked_add(1).filter(|&s| s <= limit)?;
        let mut offs = vec![0u32; span as usize + 1];
        for &k in keys {
            if let Some(c) = offs.get_mut(k.wrapping_sub(lo) as usize + 1) {
                *c += 1;
            }
        }
        let mut acc = 0;
        for o in offs.iter_mut() {
            acc += *o;
            *o = acc;
        }
        // `offs[s + 1]` is now the end of slot `s`'s run: fill each run
        // from its end, entries ascending, so it reads descending.
        let mut ids = vec![0u32; keys.len()];
        for (e, &k) in keys.iter().enumerate() {
            if let Some(end) = offs.get_mut(k.wrapping_sub(lo) as usize + 1) {
                *end -= 1;
                if let Some(slot) = ids.get_mut(*end as usize) {
                    *slot = e as u32;
                }
            }
        }
        // Each end moved down to its run's start, which is slot `s`'s
        // start — one place left of where `offs[s]` must hold it.
        offs.rotate_left(1);
        if let Some(last) = offs.last_mut() {
            *last = keys.len() as u32;
        }
        Some(DenseView { lo, offs, ids })
    }

    /// The entries with key `key`, in descending index order.
    #[inline]
    fn run_of(&self, key: i64) -> &[u32] {
        // A key below `lo` wraps to a slot past the span.
        let slot = key.wrapping_sub(self.lo) as u64 as usize;
        let Some(&[start, end]) = self.offs.get(slot..slot.wrapping_add(2)) else {
            return &[];
        };
        self.ids.get(start as usize..end as usize).unwrap_or(&[])
    }

    fn memory_bytes(&self) -> usize {
        (self.offs.capacity() + self.ids.capacity()) * std::mem::size_of::<u32>()
    }
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
            view: OnceLock::new(),
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

    /// The chain link after entry `e` (0 = end): where a walk that yielded
    /// at `e` resumes.
    #[inline]
    fn next_of(&self, e: u32) -> u32 {
        self.next.get(e as usize).copied().unwrap_or(0)
    }

    /// Bucket-table size; it only ever grows, so an unchanged size means
    /// no rehash happened in between.
    #[inline]
    fn table_len(&self) -> usize {
        self.buckets.len()
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
    /// Per-key probe: `f(entry_qset_words, entry_vid)` for every match of
    /// `key` with version strictly older than `version`.
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

/// A shared, versioned, multi-index state module for one relation (module
/// docs): one entry block and its indices behind one latch.
#[derive(Debug)]
pub struct Stem {
    rel: RelId,
    key_cols: Vec<ColId>,
    /// Whether walks that see every entry may build dense-key views
    /// ([`with_views`](Self::with_views)).
    views: bool,
    inner: RwLock<StemInner>,
}

impl Stem {
    /// Creates a STeM for `rel` with one hash index per key column.
    /// `words_per_set` fixes the query-set width. Indices start at the
    /// minimum bucket-table size; pass the relation's expected cardinality
    /// via [`with_capacity_hint`](Self::with_capacity_hint) to avoid
    /// build-time rehashing.
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
        let inner = RwLock::new(
            LockRank::Stem,
            StemInner {
                vids: Vec::new(),
                versions: Vec::new(),
                qsets: QuerySetColumn::new(words_per_set),
                indices: key_cols.iter().map(|_| StemIndex::with_capacity(hint)).collect(),
            },
        );
        Stem { rel, key_cols, views: true, inner }
    }

    /// Whether walks may build dense-key views of complete indices (on by
    /// default). Views are read-only copies outside
    /// [`memory_bytes`](Self::memory_bytes), so a session under a memory
    /// budget builds none and always walks its chains.
    pub(crate) fn with_views(mut self, views: bool) -> Self {
        self.views = views;
        self
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

    /// Inserts a vector of tuples in one critical section under the write
    /// latch, assigning it one fresh version from `global_version` (module
    /// docs), which it returns. `keys[k][i]` is tuple `i`'s key for index
    /// `k`.
    pub fn insert_vector(
        &self,
        vids: &[u32],
        qsets: &QuerySetColumn,
        keys: &[Vec<i64>],
        global_version: &AtomicU32,
    ) -> u32 {
        debug_assert_eq!(keys.len(), self.key_cols.len());
        debug_assert_eq!(qsets.len(), vids.len());
        let mut inner = self.inner.write();
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
            // The view no longer matches the entries: the next walk that
            // sees every entry builds a new one.
            idx.view.take();
            for &key in index_keys {
                idx.insert(key);
            }
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
        let inner = self.inner.get_mut();
        let mut idx = StemIndex::with_capacity(inner.vids.len());
        let mut keys = Vec::new();
        column.gather(&inner.vids, &mut keys);
        for key in keys {
            idx.insert(key);
        }
        inner.indices.push(idx);
        self.key_cols.push(col);
        self.key_cols.len() - 1
    }

    /// Acquires the probe-side read latch for the duration of one probe
    /// vector. The engine's episode path uses
    /// [`probe_tiles`](Self::probe_tiles) instead; a reader pins a
    /// consistent snapshot for loaders, benchmarks, and tests.
    pub fn read(&self) -> StemReader<'_> {
        StemReader { inner: self.inner.read() }
    }

    /// Calls `f(entry_qset_words, entry_vid)` for every match of `key` in
    /// index `index_id` with version strictly older than `version` (pass
    /// [`VERSION_ALL`] to see everything), under the read latch.
    #[inline]
    pub fn probe(&self, index_id: usize, key: i64, version: u32, mut f: impl FnMut(&[u64], u32)) {
        self.inner.read().probe(index_id, key, version, &mut f);
    }

    /// The one batched walker behind [`probe_tiles`](Self::probe_tiles)
    /// and [`semijoin_batch`](Self::semijoin_batch): for every key in
    /// `keys` (one per probe row) it emits a `(probe_row, entry)` pair per
    /// match with version strictly older than `version` into the
    /// fixed-capacity pair tile of `scratch`, and hands the tile to
    /// `on_tile(rows, entries, inner)` whenever it fills and when the walk
    /// ends (the read latch is held across the call). A hot key's fan-out
    /// therefore never grows a buffer. `on_tile` says whether to continue,
    /// stop, or yield. Pairs come in probe-row order, then chain order.
    ///
    /// The walk takes one of two paths that emit the same pairs in the same
    /// order (DESIGN.md §14). When `version` hides no entry — [`VERSION_ALL`],
    /// or a version above the last insert — and the index has a dense-key
    /// view, each row's matches are one run of the view. A `VERSION_ALL`
    /// walk builds that view if the index has none yet (unless the STeM was
    /// built [`with_views(false)`](Self::with_views)); the next insert drops
    /// it. Otherwise the walk follows the hash chains: phase one fetches
    /// every row's bucket head in a tight loop over the bucket table
    /// (independent loads the hardware can overlap and prefetch), phase two
    /// walks the dependent chain links. Key hashes are computed once per
    /// probe, when it first walks the chains.
    ///
    /// On [`Walk::Yield`] the walker returns a [`WalkCursor`] — the tile was
    /// drained by the call that asked to yield — and drops the latch; a
    /// later call with `from = Some(cursor)` and the same `keys`, `version`
    /// and `scratch` re-takes the latch and continues after the last
    /// emitted entry, on whichever path the STeM offers now: a view may
    /// have been built or dropped in between. A view resume skips the row's
    /// run up to that entry; a chain resume continues at its link, with the
    /// bucket heads kept in `scratch` — re-fetched only if the bucket table
    /// grew or the walk last went through the view. Resuming is exact
    /// (DESIGN.md §12): entries are append-only, a key's entries share one
    /// bucket chain in descending index order before and after any
    /// bucket-table growth, and whatever was inserted while the latch was
    /// dropped drew its version after the probe's own, so the version
    /// filter hides it (a `VERSION_ALL` probe of a complete relation can
    /// only meet entries of queries admitted later, which its query-set AND
    /// drops).
    // lint: hot-loop
    fn walk_tiles(
        &self,
        index_id: usize,
        keys: &[i64],
        version: u32,
        scratch: &mut ProbeScratch,
        from: Option<WalkCursor>,
        mut on_tile: impl FnMut(&mut [u32], &mut [u32], &StemInner) -> Walk,
    ) -> Option<WalkCursor> {
        let ProbeScratch { hashes, heads, tile_rows, tile_entries, path_keys } = scratch;
        // Resuming, the yielded row's walk goes on after its last emitted
        // entry; a walk that yielded as it ended has nothing left.
        let resumed = match from {
            None => {
                hashes.clear();
                *path_keys = [0, 0];
                None
            }
            Some(WalkCursor { last: None, .. }) => return None,
            Some(cursor) => Some(cursor),
        };
        if keys.is_empty() {
            return None;
        }
        // The tile is a pair of fixed `PROBE_TILE`-slot arrays with a
        // cursor: a match is written to the cursor's slot unconditionally
        // and the cursor advances only if the entry's version qualifies, so
        // the version filter costs no branch.
        tile_rows.resize(PROBE_TILE, 0);
        tile_entries.resize(PROBE_TILE, 0);
        let mut pending = 0usize;
        let inner = self.inner.read();
        let index = inner.indices.get(index_id)?;
        let start = resumed.map_or(0, |c| c.pos);
        let resumed_at = resumed.and_then(|c| c.last);
        let view = self.view_of(&inner, index, version);
        if resumed.is_none() {
            if let Some(n) = path_keys.get_mut(usize::from(view.is_none())) {
                *n += keys.len() as u64;
            }
        }
        if let Some(view) = view {
            for (pos, &key) in keys.iter().enumerate().skip(start) {
                let i = pos as u32;
                let mut run = view.run_of(key);
                if let Some(e) = resumed_at.filter(|_| pos == start) {
                    run = run.get(run.partition_point(|&x| x >= e)..).unwrap_or(&[]);
                }
                // A dimension's key has one entry: while the tile has room
                // after it, it takes no run copy.
                if let [e] = run {
                    if pending + 1 < PROBE_TILE {
                        if let (Some(r), Some(x)) =
                            (tile_rows.get_mut(pending), tile_entries.get_mut(pending))
                        {
                            (*r, *x) = (i, *e);
                        }
                        pending += 1;
                        continue;
                    }
                }
                // A run is copied into the tile as whole as it fits.
                while !run.is_empty() {
                    let n = run.len().min(PROBE_TILE - pending);
                    let (now, rest) = run.split_at(n);
                    let end = pending + n;
                    if let (Some(r), Some(x)) =
                        (tile_rows.get_mut(pending..end), tile_entries.get_mut(pending..end))
                    {
                        for ((r, x), &e) in r.iter_mut().zip(x.iter_mut()).zip(now) {
                            (*r, *x) = (i, e);
                        }
                    }
                    run = rest;
                    pending = end;
                    if pending < PROBE_TILE {
                        break;
                    }
                    pending = 0;
                    let step = on_tile(tile_rows, tile_entries, &inner);
                    if step != Walk::Continue {
                        // No bucket table has 0 slots once walked: a chain
                        // resume fetches its heads.
                        return (step == Walk::Yield).then_some(WalkCursor {
                            pos,
                            last: now.last().copied(),
                            table_len: 0,
                        });
                    }
                }
            }
        } else {
            if hashes.len() != keys.len() {
                hashes.clear();
                hashes.extend(keys.iter().map(|&k| hash_key(k)));
            }
            // Starting, fetch every row's bucket head. Resuming, the kept
            // heads still reach every entry they did unless the bucket
            // table grew — a head names its bucket's newest entry, which may
            // hold another key and move chain on a growth — or the walk went
            // through the view and fetched none (its cursor holds a table of
            // 0 slots).
            if resumed.is_none() {
                heads.clear();
                heads.extend(hashes.iter().map(|&h| index.head_of_hash(h)));
            } else if resumed.is_some_and(|c| c.table_len != index.table_len()) {
                heads.resize(keys.len(), 0);
                for (head, &h) in heads.iter_mut().zip(hashes.iter()).skip(start) {
                    *head = index.head_of_hash(h);
                }
            }
            // The yielded row's walk goes on at the link after its last
            // emitted entry: that link becomes the row's head.
            if let (Some(e), Some(head)) = (resumed_at, heads.get_mut(start)) {
                *head = index.next_of(e);
            }
            let (mut step, mut last) = (Walk::Continue, 0);
            for (pos, (&key, &head)) in keys.iter().zip(heads.iter()).enumerate().skip(start) {
                let i = pos as u32;
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
                    (step, last) = (on_tile(tile_rows, tile_entries, &inner), e);
                    step == Walk::Continue
                });
                if !go {
                    let table_len = index.table_len();
                    return (step == Walk::Yield)
                        .then_some(WalkCursor { pos, last: Some(last), table_len });
                }
            }
        }
        // The rest of the tile, before the latch drops.
        let (rows, entries) = (tile_rows.get_mut(..pending)?, tile_entries.get_mut(..pending)?);
        if pending > 0 && on_tile(rows, entries, &inner) == Walk::Yield {
            return Some(WalkCursor { pos: keys.len(), last: None, table_len: 0 });
        }
        None
    }

    /// The dense-key view a walk at `version` may take through `index` of
    /// `inner`: only if `version` hides none of the entries, built here by a
    /// [`VERSION_ALL`] walk if there is none yet. The build runs under the
    /// read latch; a concurrent walk of the same index waits for it and
    /// takes no lock of its own meanwhile.
    #[inline]
    fn view_of<'a>(
        &self,
        inner: &StemInner,
        index: &'a StemIndex,
        version: u32,
    ) -> Option<&'a DenseView> {
        if version == VERSION_ALL {
            if self.views {
                return index.view.get_or_init(|| DenseView::build(&index.keys)).as_ref();
            }
        } else if inner.versions.last().is_some_and(|&v| v >= version) {
            return None;
        }
        index.view.get()?.as_ref()
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
    /// returns whether to continue, to stop — so a watchdog can stop an
    /// exploding probe within one tile — or to yield. It runs under the
    /// read latch and must not take a lock.
    ///
    /// A yield returns a [`WalkCursor`] with no latch held; passing it back
    /// as `from` (with the same keys, version, row masks and scratch)
    /// resumes the probe exactly where it paused, and the two calls'
    /// outputs together equal one uninterrupted probe. This is how an inner
    /// probe hands its output to the next operator mid-walk. A walk that
    /// ends or stops returns `None`; `from = None` starts a probe.
    ///
    /// Output order is probe-row order then chain order — byte-identical
    /// to calling [`probe`](Self::probe) per key.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_tiles(
        &self,
        index_id: usize,
        keys: &[i64],
        version: u32,
        row_masks: &QuerySetColumn,
        scratch: &mut ProbeScratch,
        out: &mut QuerySetColumn,
        from: Option<WalkCursor>,
        mut on_tile: impl FnMut(MatchTile<'_>, &mut QuerySetColumn) -> Walk,
    ) -> Option<WalkCursor> {
        debug_assert_eq!(row_masks.len(), keys.len());
        self.walk_tiles(index_id, keys, version, scratch, from, |rows, entries, inner| {
            let kept = pairs::and_select_pairs(row_masks, &inner.qsets, rows, entries, out);
            let tile = MatchTile {
                rows: rows.get(..kept).unwrap_or(&[]),
                entries: entries.get(..kept).unwrap_or(&[]),
                vids: &inner.vids,
            };
            on_tile(tile, out)
        })
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
        self.walk_tiles(index_id, keys, VERSION_ALL, scratch, None, |rows, entries, inner| {
            pairs::or_pairs(row_masks, &inner.qsets, rows, entries);
            Walk::Continue
        });
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.read().vids.len()
    }

    /// Approximate resident bytes (entry block + indices). STeM footprint
    /// bounds the dataset size RouLette can process (§3), so the engine
    /// surfaces it in its statistics.
    pub fn memory_bytes(&self) -> usize {
        let inner = self.inner.read();
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

    /// Resident bytes of the dense-key views currently built, summed over
    /// indices. Not part of [`memory_bytes`](Self::memory_bytes): a view is
    /// a read-only copy that the next insert drops.
    pub fn view_bytes(&self) -> usize {
        let inner = self.inner.read();
        let views = inner.indices.iter().filter_map(|i| i.view.get()?.as_ref());
        views.map(DenseView::memory_bytes).sum()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on how much [`memory_bytes`](Self::memory_bytes) would
    /// grow if `n` more tuples were inserted now.
    ///
    /// Models `Vec`'s amortized doubling (`reserve` grows to
    /// `max(2·cap, len + n)`) for the entry block and index columns, and
    /// bucket-table doubling past the 3/4 load factor.
    pub fn projected_insert_bytes(&self, n: usize) -> usize {
        fn vec_growth(len: usize, cap: usize, n: usize, elem: usize) -> usize {
            if len + n <= cap { 0 } else { ((cap * 2).max(len + n) - cap) * elem }
        }
        let inner = self.inner.read();
        let len = inner.vids.len();
        let wps = inner.qsets.words_per_set();
        let mut bytes = vec_growth(len, inner.vids.capacity(), n, 4)
            + vec_growth(len, inner.versions.capacity(), n, 4)
            // The qset block is reserved once per insert (see
            // `insert_vector`), so single-step growth models it exactly —
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
}

/// What a tile consumer of [`Stem::probe_tiles`] asks of the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Keep walking.
    Continue,
    /// End the probe here (a tripped watchdog).
    Stop,
    /// Pause: drop the latch and return a [`WalkCursor`] to resume from.
    Yield,
}

/// Where a yielded [`Stem::probe_tiles`] walk resumes: the probe row, the
/// last entry emitted for that row (`None`: the walk yielded as it ended,
/// and a resume finds nothing left), and the size of the walked index's
/// bucket table at the yield (0 if the walk went through the dense-key
/// view). Only meaningful together with the [`ProbeScratch`] that walked
/// it, which keeps the probe's hashes and bucket heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkCursor {
    pos: usize,
    last: Option<u32>,
    table_len: usize,
}

/// One tile of surviving match pairs, handed to the consumer of
/// [`Stem::probe_tiles`] while the STeM's read latch is held.
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
/// [`Stem::semijoin_batch`]: the batched hash and bucket-head slices, the
/// per-path key counts, and the fixed-capacity match-pair tile. Owned by
/// the episode scratch arena so steady-state probing never allocates;
/// between a yield and its resume it holds the paused probe's state.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    hashes: Vec<u64>,
    /// Bucket head of each probe row, fetched when the walk starts.
    heads: Vec<u32>,
    /// Probe row of each pending match pair (at most [`PROBE_TILE`]).
    tile_rows: Vec<u32>,
    /// Entry index of each pending match pair.
    tile_entries: Vec<u32>,
    /// Keys the current probe walked through a view (`[0]`) and along
    /// chains (`[1]`).
    path_keys: [u64; 2],
}

impl ProbeScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(view, chain)`: how many keys of the most recent tiled probe or
    /// semi-join through this scratch were matched through the dense-key
    /// view and how many along the hash chains (telemetry hook).
    pub fn path_key_counts(&self) -> (u64, u64) {
        let [view, chain] = self.path_keys;
        (view, chain)
    }
}

/// Read access to a STeM for the duration of one probe vector.
pub struct StemReader<'a> {
    inner: RwLockReadGuard<'a, StemInner>,
}

impl StemReader<'_> {
    /// Calls `f(entry_qset_words, entry_vid)` for every match of `key` in
    /// index `index_id` with version strictly older than `version` (pass
    /// [`VERSION_ALL`] to see everything).
    #[inline]
    pub fn probe(&self, index_id: usize, key: i64, version: u32, mut f: impl FnMut(&[u64], u32)) {
        self.inner.probe(index_id, key, version, &mut f);
    }

    /// Number of entries visible to this reader.
    pub fn len(&self) -> usize {
        self.inner.vids.len()
    }

    /// Whether the STeM is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_core::sync::Mutex;
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
        let base = roulette_storage::Column::from_i64(&[7, 8, 7, 8]);
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
        // Before taking the latch: `memory_bytes` takes it too, and one
        // thread must not hold a STeM latch twice.
        let accounted = stem.memory_bytes();
        let inner = stem.inner.read();
        let cap_bytes = inner.qsets.capacity_words() * 8;
        let len_bytes = inner.qsets.raw().len() * 8;
        assert!(cap_bytes >= len_bytes);
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
        for idx in &tiny.inner.read().indices {
            assert_eq!(idx.buckets.len(), StemIndex::MIN_BUCKETS);
        }
        // ...a hinted index is sized to hold the hint at ≤3/4 load...
        let projected = hinted.projected_insert_bytes(1);
        hinted.insert_vector(&[0], &one, &[vec![0]], &global);
        let buckets = hinted.inner.read().indices[0].buckets.len();
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
        assert_eq!(hinted.inner.read().indices[0].buckets.len(), buckets);
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
        let end = stem.probe_tiles(
            index_id,
            keys,
            version,
            &masks,
            &mut scratch,
            &mut out,
            None,
            |tile, _| {
                assert!(tile.len() <= PROBE_TILE);
                rows.extend_from_slice(tile.rows());
                tile.extend_vids(&mut vids);
                Walk::Continue
            },
        );
        assert_eq!(end, None);
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

    /// Index-0 key of entry `i`: one of 30 hot keys for even `i`, a key of
    /// its own for odd `i` — so a bucket's newest entry often holds another
    /// key than the one a probe row is after.
    fn key0(i: i64) -> i64 {
        if i % 2 == 0 { (i / 2) % 30 } else { 1000 + i }
    }

    /// Entries `base..base + n` of a two-index STeM (index 0 keys [`key0`],
    /// index 1 keys `i % 23`), every entry carrying the query-set `bits`.
    fn insert_entries(stem: &Stem, global: &AtomicU32, base: u32, n: u32, bits: u64) {
        let vids: Vec<u32> = (base..base + n).collect();
        let keys0: Vec<i64> = vids.iter().map(|&i| key0(i as i64)).collect();
        let keys1: Vec<i64> = vids.iter().map(|&i| i as i64 % 23).collect();
        let mut qc = QuerySetColumn::new(1);
        qc.push_repeat(&[bits], n as usize);
        stem.insert_vector(&vids, &qc, &[keys0, keys1], global);
    }

    /// Probes yielding after every tile; at each pause `between(pause)`
    /// runs with no latch held. Returns `(probe_row, ANDed query-set, vid)`
    /// per output row, in order, and the number of pauses.
    fn tiled_yielding(
        stem: &Stem,
        index_id: usize,
        keys: &[i64],
        version: u32,
        masks: &QuerySetColumn,
        mut between: impl FnMut(usize),
    ) -> (Vec<(u32, u64, u32)>, usize) {
        let mut scratch = ProbeScratch::new();
        let mut out = QuerySetColumn::new(1);
        let (mut rows, mut vids) = (Vec::new(), Vec::new());
        let (mut from, mut pauses) = (None, 0);
        loop {
            let on_tile = |tile: MatchTile<'_>, _: &mut QuerySetColumn| {
                rows.extend_from_slice(tile.rows());
                tile.extend_vids(&mut vids);
                Walk::Yield
            };
            let (scratch, out) = (&mut scratch, &mut out);
            from = stem.probe_tiles(index_id, keys, version, masks, scratch, out, from, on_tile);
            if from.is_none() {
                break;
            }
            between(pauses);
            pauses += 1;
        }
        let got = (0..rows.len()).map(|k| (rows[k], out.row(k)[0], vids[k])).collect();
        (got, pauses)
    }

    #[test]
    fn yielded_probe_resumes_exactly_across_inserts_and_growth() {
        // Probe rows alternate hot keys (50 entries each, several tiles)
        // with single-entry keys, and hit and miss the secondary index's
        // keys too.
        let probe_keys: Vec<i64> = (0..1500).map(|i| key0(i * 7 % 3000)).collect();
        let mut masks = QuerySetColumn::new(1);
        masks.push_repeat(&[0b011], probe_keys.len());
        for index_id in [0usize, 1] {
            // `version`: drawn after the stored entries and before the
            // inserts made while the walk is paused, which reuse the probed
            // keys (any bits: the version hides them). `VERSION_ALL`: the
            // paused inserts carry only a query bit the probe rows do not
            // hold, as a later admission's would.
            for all in [false, true] {
                let stem = Stem::new(RelId(0), vec![ColId(0), ColId(1)], 1);
                let global = AtomicU32::new(0);
                insert_entries(&stem, &global, 0, 3000, 0b001);
                insert_entries(&stem, &global, 3000, 300, 0b010);
                let version =
                    if all { VERSION_ALL } else { global.fetch_add(1, Ordering::Relaxed) };
                let late = if all { 0b100 } else { 0b011 };
                let (want, _) =
                    tiled_yielding(&stem, index_id, &probe_keys, version, &masks, |_| {});
                let mut next = 3300;
                let (got, pauses) =
                    tiled_yielding(&stem, index_id, &probe_keys, version, &masks, |pause| {
                        // The first pause grows every bucket table; later
                        // ones add a few same-key entries.
                        let n = if pause == 0 { 3000 } else { 40 };
                        insert_entries(&stem, &global, next, n, late);
                        next += n;
                    });
                let tag = format!("index {index_id} all {all}");
                assert!(pauses >= 4, "{tag}: only {pauses} pauses");
                assert!(want.len() > 4 * PROBE_TILE, "{tag}: {} rows", want.len());
                assert_eq!(got, want, "{tag}: a resumed walk diverged from a whole one");
                // And the uninterrupted walk agrees with per-key probing.
                let mut single = Vec::new();
                for (i, &k) in probe_keys.iter().enumerate() {
                    stem.probe(index_id, k, version, |qs, vid| {
                        if qs[0] & 0b011 != 0 {
                            single.push((i as u32, qs[0] & 0b011, vid));
                        }
                    });
                }
                let mut sorted = want.clone();
                sorted.sort_unstable();
                single.sort_unstable();
                assert_eq!(sorted, single, "{tag}");
            }
        }
    }

    #[test]
    fn dense_view_runs_follow_the_chain_order() {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let keys: Vec<i64> = (0..3000i64).map(|i| (i * 7) % 500 - 250).collect();
        let mut qc = QuerySetColumn::new(1);
        qc.push_repeat(&[1], keys.len());
        let vids: Vec<u32> = (0..keys.len() as u32).collect();
        stem.insert_vector(&vids, &qc, std::slice::from_ref(&keys), &global);
        let inner = stem.inner.read();
        let index = &inner.indices[0];
        let view = DenseView::build(&index.keys).expect("500 keys over 3000 entries are dense");
        assert_eq!(view.lo, -250);
        for key in -260..260 {
            let mut chain = Vec::new();
            index.for_each_match(key, |e| chain.push(e as u32));
            assert_eq!(view.run_of(key), chain.as_slice(), "key {key}");
        }
        // Keys far outside the span, either side, wrap to no slot.
        for key in [i64::MIN, i64::MIN + 1, -251, 250, i64::MAX] {
            assert!(view.run_of(key).is_empty(), "key {key}");
        }
        // The density rule: a span of up to max(4·entries, 1024) slots.
        assert!(DenseView::build(&[]).is_none());
        assert!(DenseView::build(&[5, 5 + 1023]).is_some());
        assert!(DenseView::build(&[5, 5 + 1024]).is_none());
        let wide: Vec<i64> = (0..2000).map(|i| i * 4).collect();
        assert!(DenseView::build(&wide).is_some());
        let sparse: Vec<i64> = (0..2000).map(|i| i * 5).collect();
        assert!(DenseView::build(&sparse).is_none());
        assert!(DenseView::build(&[i64::MIN, i64::MAX]).is_none());
        let single = DenseView::build(&[i64::MAX, i64::MAX]).expect("one key");
        assert_eq!(single.run_of(i64::MAX), &[1, 0]);
        assert!(single.run_of(i64::MIN).is_empty());
    }

    #[test]
    fn single_entry_runs_fill_and_resume_tiles_like_the_chains() {
        // A dimension's primary key: one entry per key, so runs of one
        // entry fill the tile to its last slot and across it.
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let n = 3 * PROBE_TILE as u32 + 7;
        let vids: Vec<u32> = (0..n).collect();
        let keys: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % n as i64).collect();
        let mut qc = QuerySetColumn::new(1);
        qc.push_repeat(&[1], n as usize);
        stem.insert_vector(&vids, &qc, &[keys], &global);
        let probe_keys: Vec<i64> = (0..n as i64 + 500).rev().collect();
        let mut masks = QuerySetColumn::new(1);
        masks.push_repeat(&[1], probe_keys.len());
        let mut want = Vec::new();
        for (i, &k) in probe_keys.iter().enumerate() {
            stem.probe(0, k, VERSION_ALL, |qs, vid| want.push((i as u32, qs[0], vid)));
        }
        let (got, pauses) = tiled_yielding(&stem, 0, &probe_keys, VERSION_ALL, &masks, |_| {});
        assert!(stem.view_bytes() > 0);
        // Three full tiles, then the walk's end drains the last 7 pairs.
        assert_eq!(pauses, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn views_are_built_by_complete_walks_dropped_by_inserts_and_not_under_a_budget() {
        let probe_keys: Vec<i64> = (0..64).collect();
        let mut masks = QuerySetColumn::new(1);
        masks.push_repeat(&[1], probe_keys.len());
        for views in [true, false] {
            let stem = Stem::new(RelId(0), vec![ColId(0), ColId(1)], 1).with_views(views);
            let global = AtomicU32::new(0);
            insert_entries(&stem, &global, 0, 200, 1);
            // Index 0's keys span 1200 slots for 200 entries: too sparse.
            let (_, scratch) = tiled(&stem, 0, &probe_keys, VERSION_ALL, 1);
            assert_eq!(scratch.path_key_counts(), (0, 64));
            let footprint = stem.memory_bytes();
            // A versioned walk sees every entry but builds nothing.
            let above = global.fetch_add(1, Ordering::Relaxed);
            let (versioned, scratch) = tiled(&stem, 1, &probe_keys, above, 1);
            assert_eq!(scratch.path_key_counts(), (0, 64));
            assert_eq!(stem.view_bytes(), 0);
            // A `VERSION_ALL` walk builds the view — unless views are off,
            // as under a memory budget — and the versioned walk takes it.
            let (all, scratch) = tiled(&stem, 1, &probe_keys, VERSION_ALL, 1);
            assert_eq!(all, versioned);
            let built = if views { (64, 0) } else { (0, 64) };
            assert_eq!(scratch.path_key_counts(), built);
            assert_eq!(stem.view_bytes() > 0, views);
            assert_eq!(tiled(&stem, 1, &probe_keys, above, 1).0, versioned);
            let mut acc = masks.clone();
            stem.semijoin_batch(1, &probe_keys, &mut ProbeScratch::new(), &mut acc);
            // Views are not STeM state: the governed footprint is unchanged.
            assert_eq!(stem.memory_bytes(), footprint);
            // An insert drops the view; a walk at a version at or below it
            // takes the chains, and only a complete walk builds a new view.
            insert_entries(&stem, &global, 200, 10, 1);
            assert_eq!(stem.view_bytes(), 0);
            let (_, scratch) = tiled(&stem, 1, &probe_keys, above, 1);
            assert_eq!(scratch.path_key_counts(), (0, 64));
            stem.semijoin_batch(1, &probe_keys, &mut ProbeScratch::new(), &mut acc);
            assert_eq!(stem.view_bytes() > 0, views);
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
        // once across both threads.
        use std::sync::Arc;
        let stem_r = Arc::new(Stem::new(RelId(0), vec![ColId(0)], 1));
        let stem_s = Arc::new(Stem::new(RelId(1), vec![ColId(0)], 1));
        let global = Arc::new(AtomicU32::new(0));
        let q = QuerySet::full(1);

        for trial in 0..50 {
            // A result sink taken under the STeM latch, as the engine's are.
            let found = Arc::new(Mutex::new(LockRank::OutputsCollected, Vec::new()));
            let mk = |own: Arc<Stem>, other: Arc<Stem>, vid: u32| {
                let global = Arc::clone(&global);
                let q = q.clone();
                let found = Arc::clone(&found);
                move || {
                    let key = 1000 + trial;
                    let mut qc = QuerySetColumn::new(1);
                    qc.push(q.words());
                    let v = own.insert_vector(&[vid], &qc, &[vec![key]], &global);
                    other.probe(0, key, v, |_, other_vid| {
                        found.lock().push((vid, other_vid));
                    });
                }
            };
            let t1 = std::thread::spawn(mk(Arc::clone(&stem_r), Arc::clone(&stem_s), trial as u32));
            let t2 = std::thread::spawn(mk(Arc::clone(&stem_s), Arc::clone(&stem_r), trial as u32));
            t1.join().unwrap();
            t2.join().unwrap();
            let matches = found.lock();
            assert_eq!(matches.len(), 1, "trial {trial}: {:?}", *matches);
        }
    }
}
