//! The router micro-benchmark fixture of `perfbench`: one routed vector
//! in each of the leaf shapes the engine's router
//! ([`roulette_exec::route`]) is benched in.

use roulette_core::{ColId, QuerySet, QuerySetColumn, RelId};
use roulette_exec::Leaf;
use roulette_storage::{Catalog, RelationBuilder};

/// The router's leaf shapes, as `(name, capacity, density, relations,
/// orders)` arguments of [`routing_fixture`]: *count-only* — 256 queries
/// (4-word sets, ~33 owners per row) that project nothing; *projected* —
/// 8 queries (1-word sets, ~4.5 owners per row) that each project the
/// same three columns, one projection class; and *projected_classes* —
/// 16 queries (~15 owners per row) projecting four columns in one of
/// three orders, three classes each owning nearly every row, as a
/// `stream-window` leaf does.
pub const SHAPES: [(&str, usize, u32, usize, usize); 3] = [
    ("count_only", 256, 8, 3, 0),
    ("projected", 8, 32, 3, 1),
    ("projected_classes", 16, 60, 4, 3),
];

/// One vector ready to be routed: a carried vID column over each of
/// three or four 4096-row base relations, pseudo-random query-sets, and
/// the resolved [`Leaf`] of the `capacity` queries it is routed to.
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

/// Builds the fixture: `rows` tuples over `relations` carried relations,
/// each tuple owned by about `density` of every 64 queries. With `orders`
/// 0 nothing is projected (the count-only shape); otherwise query `q`
/// projects one column of each carried relation, in the `q % orders`-th
/// of three fixed orders. Fixed seed.
pub fn routing_fixture(
    capacity: usize,
    density: u32,
    relations: usize,
    orders: usize,
    rows: usize,
) -> RoutingFixture {
    let mut state = 42i64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u64
    };
    let mut catalog = Catalog::new();
    for rel in ["a", "b", "c", "d"].into_iter().take(relations) {
        let mut b = RelationBuilder::new(rel);
        b.int64("x", (0..4096).map(|_| next() as i64).collect());
        catalog.add(b.build()).expect("bench relation");
    }
    let rels: Vec<RelId> = (0..relations as u16).map(RelId).collect();
    let queries = QuerySet::full(capacity);
    let order = |q: usize| -> Vec<(RelId, ColId)> {
        let mut cols: Vec<(RelId, ColId)> = rels.iter().map(|&r| (r, ColId(0))).collect();
        match q % orders.max(1) {
            0 => {}
            1 => cols.reverse(),
            _ => cols.rotate_left(1),
        }
        cols
    };
    let projections: Vec<Vec<(RelId, ColId)>> =
        (0..capacity).map(|q| if orders > 0 { order(q) } else { vec![] }).collect();
    let leaf = Leaf::resolve(queries.clone(), &rels, &projections);
    let cols: Vec<(RelId, Vec<u32>)> =
        rels.iter().map(|&r| (r, (0..rows).map(|_| next() as u32 % 4096).collect())).collect();
    // The AND of `k` random words keeps about 64/2^k bits of a full word;
    // above 32 of 64, the bits of such an AND are cleared instead.
    let sparse = density <= 32;
    let k = if sparse { 64 / density.max(1) } else { 64 / (64 - density.min(63)) }.trailing_zeros();
    let mut qsets = QuerySetColumn::new(queries.width());
    for _ in 0..rows {
        let row: Vec<u64> = queries
            .words()
            .iter()
            .map(|&full| {
                let and = (0..k).fold(u64::MAX, |w, _| w & (next() ^ next() << 31));
                (if sparse { full & and } else { full & !and }) | 1
            })
            .collect();
        qsets.push(&row);
    }
    let emitted = qsets.raw().iter().map(|w| w.count_ones() as u64).sum();
    RoutingFixture { catalog, leaf, qsets, cols, emitted }
}
