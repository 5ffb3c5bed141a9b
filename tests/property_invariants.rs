//! Property tests for the Data-Query model primitives and shared
//! operators, checked against straightforward set-based models.

use proptest::prelude::*;
use roulette::core::{QueryId, QuerySet, RelId, RelSet};
use roulette::exec::{GroupedFilter, PlainFilter};
use std::collections::BTreeSet;

/// Size of the demo SQL pool the parser fuzz draws from.
const DEMO_POOL: usize = 16;

/// Tokens the parser fuzz splices into demo SQL.
const HOSTILE: &[&str] = &[
    "é",
    "🦀",
    "\u{feff}",
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "'",
    "'unterminated",
    "\"",
    "\0",
    " ",
    "(",
    ")",
    ",",
    ";",
    "=",
    "AND",
    "SELECT",
    "WHERE",
];

/// The server's demo catalog and a pool of SQL over it, built once.
fn demo() -> &'static (roulette::storage::Catalog, Vec<String>) {
    static DEMO: std::sync::OnceLock<(roulette::storage::Catalog, Vec<String>)> =
        std::sync::OnceLock::new();
    DEMO.get_or_init(|| {
        let seed = 7;
        let sql = roulette_server::demo_sql(seed, DEMO_POOL).expect("demo SQL generates");
        (roulette_server::demo_dataset(seed).catalog, sql)
    })
}

/// The largest char boundary of `s` at or below `at`.
fn floor_char_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len())).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0)
}

fn qs_from(ids: &BTreeSet<u32>, capacity: usize) -> QuerySet {
    let mut s = QuerySet::empty(capacity);
    for &i in ids {
        s.insert(QueryId(i));
    }
    s
}

proptest! {
    #[test]
    fn queryset_ops_match_btreeset_model(
        a in prop::collection::btree_set(0u32..200, 0..40),
        b in prop::collection::btree_set(0u32..200, 0..40),
    ) {
        let cap = 200;
        let qa = qs_from(&a, cap);
        let qb = qs_from(&b, cap);

        let inter: BTreeSet<u32> = a.intersection(&b).copied().collect();
        let diff: BTreeSet<u32> = a.difference(&b).copied().collect();
        let union: BTreeSet<u32> = a.union(&b).copied().collect();

        prop_assert_eq!(qa.intersection(&qb), qs_from(&inter, cap));
        prop_assert_eq!(qa.difference(&qb), qs_from(&diff, cap));
        let mut u = qa.clone();
        u.union_with(&qb);
        prop_assert_eq!(u, qs_from(&union, cap));

        prop_assert_eq!(qa.len(), a.len());
        prop_assert_eq!(qa.intersects(&qb), !inter.is_empty());
        prop_assert_eq!(qa.is_subset_of(&qb), a.is_subset(&b));
        prop_assert_eq!(qa.first().map(|q| q.0), a.first().copied());
        let iterated: Vec<u32> = qa.iter().map(|q| q.0).collect();
        let expected: Vec<u32> = a.iter().copied().collect();
        prop_assert_eq!(iterated, expected);
    }

    #[test]
    fn relset_ops_match_btreeset_model(
        a in prop::collection::btree_set(0u16..64, 0..20),
        b in prop::collection::btree_set(0u16..64, 0..20),
    ) {
        let ra = RelSet::from_iter(a.iter().map(|&i| RelId(i)));
        let rb = RelSet::from_iter(b.iter().map(|&i| RelId(i)));
        let inter: BTreeSet<u16> = a.intersection(&b).copied().collect();
        let diff: BTreeSet<u16> = a.difference(&b).copied().collect();
        prop_assert_eq!(ra.intersect(rb), RelSet::from_iter(inter.iter().map(|&i| RelId(i))));
        prop_assert_eq!(ra.minus(rb), RelSet::from_iter(diff.iter().map(|&i| RelId(i))));
        prop_assert_eq!(ra.len(), a.len());
        prop_assert_eq!(ra.is_subset_of(rb), a.is_subset(&b));
        let iterated: Vec<u16> = ra.iter().map(|r| r.0).collect();
        let expected: Vec<u16> = a.iter().copied().collect();
        prop_assert_eq!(iterated, expected);
    }

    /// The §5.1 grouped filter must agree with per-query evaluation for
    /// every value — including at and around every predicate boundary.
    #[test]
    fn grouped_filter_equals_plain_filter(
        preds in prop::collection::vec((0u32..128, -50i64..50, 0i64..60), 1..20),
        probes in prop::collection::vec(-80i64..80, 0..40),
    ) {
        let preds: Vec<(QueryId, i64, i64)> = preds
            .into_iter()
            .map(|(q, lo, w)| (QueryId(q), lo, lo + w))
            .collect();
        let grouped = GroupedFilter::build(&preds, 128);
        let plain = PlainFilter::new(&preds, 128);
        let mut mask = vec![0u64; 2];
        let mut check = |v: i64| {
            plain.mask_into(v, &mut mask);
            assert_eq!(mask.as_slice(), grouped.mask_for(v), "divergence at v={v}");
        };
        for v in probes {
            check(v);
        }
        for &(_, lo, hi) in &preds {
            for v in [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1] {
                check(v);
            }
        }
    }

    /// SQL round-trip: printing then parsing any valid SPJ query is the
    /// identity.
    #[test]
    fn sql_round_trip(
        use_join in any::<bool>(),
        pred_lo in -100i64..100,
        pred_w in 0i64..100,
        project in any::<bool>(),
        eq_value in -5i64..5,
    ) {
        use roulette::query::{parse, to_sql, SpjQuery};
        use roulette::storage::{Catalog, RelationBuilder};
        let mut c = Catalog::new();
        let mut r = RelationBuilder::new("r");
        r.int64("a", vec![1, 2]);
        r.int64("b", vec![1, 2]);
        c.add(r.build()).unwrap();
        let mut s = RelationBuilder::new("s");
        s.int64("a", vec![1]);
        c.add(s.build()).unwrap();

        let mut b = SpjQuery::builder(&c).relation("r");
        if use_join {
            b = b.relation("s").join(("r", "a"), ("s", "a"));
        }
        b = b.range("r", "b", pred_lo, pred_lo + pred_w).eq("r", "a", eq_value);
        if project {
            b = b.project("r", "b");
        }
        let q = b.build().unwrap();
        let sql = to_sql(&c, &q);
        let q2 = parse(&c, &sql).unwrap();
        prop_assert_eq!(q, q2);
    }

    /// Parser fuzz: the server's demo SQL, truncated anywhere and with
    /// hostile tokens spliced in (non-ASCII, `i64`-overflowing literals,
    /// unterminated quotes, NUL), parses to `Ok` or a typed `Err` through
    /// the SQL parser and both wire-protocol parsers, and never panics.
    #[test]
    fn parsers_never_panic_on_mangled_demo_sql(
        pick in 0usize..DEMO_POOL,
        keep in 0usize..400,
        truncate in any::<bool>(),
        splices in prop::collection::vec((0usize..400, 0usize..HOSTILE.len()), 0..4),
    ) {
        use roulette::query::parse;
        use roulette_server::protocol::{Request, Response};
        let (catalog, pool) = demo();
        let mut text = pool[pick].clone();
        if truncate {
            text.truncate(floor_char_boundary(&text, keep));
        }
        for &(at, token) in &splices {
            text.insert_str(floor_char_boundary(&text, at), HOSTILE[token]);
        }
        let parsed = parse(catalog, &text);
        if !truncate && splices.is_empty() {
            prop_assert!(parsed.is_ok(), "demo SQL must parse: {text:?} → {parsed:?}");
        }
        for line in [
            text.clone(),
            format!("QUERY {text}"),
            format!("QUERY ROWS DEADLINE={text}"),
            format!("CHAOS {text}"),
            format!("OK {text}"),
            format!("ROW {text}"),
            format!("ERR {text}"),
        ] {
            let _ = Request::parse(&line);
            let _ = Response::parse(&line);
        }
    }
}

#[test]
fn queryset_column_retain_matches_filter_model() {
    use roulette::core::QuerySetColumn;
    let mut col = QuerySetColumn::new(2);
    let rows: Vec<[u64; 2]> = (0..50).map(|i| [i as u64, (i * 7) as u64 % 13]).collect();
    for r in &rows {
        col.push(r);
    }
    let keep: Vec<bool> = (0..50).map(|i| i % 3 != 0).collect();
    col.retain_rows(&keep);
    let expected: Vec<&[u64; 2]> =
        rows.iter().zip(&keep).filter(|(_, &k)| k).map(|(r, _)| r).collect();
    assert_eq!(col.len(), expected.len());
    for (i, r) in expected.iter().enumerate() {
        assert_eq!(col.row(i), *r as &[u64]);
    }
}
