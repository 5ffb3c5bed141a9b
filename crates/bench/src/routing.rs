//! The router micro-benchmark fixture of `perfbench`: one routed vector
//! in each of the two shapes the engine's router
//! ([`roulette_exec::route`]) distinguishes.

use roulette_core::{ColId, QuerySet, QuerySetColumn, RelId};
use roulette_exec::Leaf;
use roulette_storage::{Catalog, RelationBuilder};

/// The two leaf shapes the router distinguishes, as `(name, capacity,
/// density, projected)` arguments of [`routing_fixture`]: *count-only* —
/// 256 queries (4-word sets, ~33 owners per row) that project nothing —
/// and *projected* — 8 queries (1-word sets, ~4.5 owners per row) that
/// each project three columns.
pub const SHAPES: [(&str, usize, u32, bool); 2] =
    [("count_only", 256, 8, false), ("projected", 8, 32, true)];

/// One vector ready to be routed: three carried vID columns over three
/// 4096-row base relations, pseudo-random query-sets, and the resolved
/// [`Leaf`] of the `capacity` queries it is routed to.
pub struct RoutingFixture {
    /// The base relations the projected columns live in.
    pub catalog: Catalog,
    /// All `capacity` queries, resolved against `cols`.
    pub leaf: Leaf,
    /// One query-set per tuple, never empty.
    pub qsets: QuerySetColumn,
    /// The carried vID columns, in the order `leaf` was resolved against.
    pub cols: Vec<(RelId, Vec<u32>)>,
    /// `(query, row)` pairs one routing of the vector emits.
    pub emitted: u64,
}

/// Builds the fixture: `rows` tuples, each owned by about `density` of
/// every 64 queries. With `projected`, every query projects one column of
/// each carried relation (the column-hash shape); without, nothing is
/// projected (the count-only shape). Fixed seed.
pub fn routing_fixture(capacity: usize, density: u32, projected: bool, rows: usize) -> RoutingFixture {
    let mut state = 42i64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u64
    };
    let mut catalog = Catalog::new();
    for rel in ["a", "b", "c"] {
        let mut b = RelationBuilder::new(rel);
        b.int64("x", (0..4096).map(|_| next() as i64).collect());
        catalog.add(b.build()).expect("bench relation");
    }
    let rels: Vec<RelId> = (0..3).map(RelId).collect();
    let queries = QuerySet::full(capacity);
    let projections: Vec<Vec<(RelId, ColId)>> = (0..capacity)
        .map(|_| if projected { rels.iter().map(|&r| (r, ColId(0))).collect() } else { vec![] })
        .collect();
    let leaf = Leaf::resolve(queries.clone(), &rels, &projections);
    let cols: Vec<(RelId, Vec<u32>)> =
        rels.iter().map(|&r| (r, (0..rows).map(|_| next() as u32 % 4096).collect())).collect();
    // The AND of `k` random words keeps about 64/2^k bits of a full word.
    let ands = (64 / density.max(1)).trailing_zeros();
    let mut qsets = QuerySetColumn::new(queries.width());
    for _ in 0..rows {
        let row: Vec<u64> = queries
            .words()
            .iter()
            .map(|&full| (0..ands).fold(full, |w, _| w & (next() ^ next() << 31)) | 1)
            .collect();
        qsets.push(&row);
    }
    let emitted = qsets.raw().iter().map(|w| w.count_ones() as u64).sum();
    RoutingFixture { catalog, leaf, qsets, cols, emitted }
}
