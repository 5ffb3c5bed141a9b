//! The catalog's footprint: every base column is packed by its span
//! (`roulette_storage::Column`), so the TPC-DS-like fact table holds a few
//! bytes a row where 8-byte storage would hold 96. A slide back to
//! unpacked integers fails here.

use roulette::exec::row_hash;
use roulette::storage::datagen::{imdb, tpcds};
use roulette::storage::Catalog;

#[test]
fn tpcds_store_sales_packs_under_24_bytes_a_row() {
    let ds = tpcds::generate(1.0, 42);
    let catalog = &ds.catalog;
    let store_sales = catalog.relation(catalog.relation_id("store_sales").unwrap());
    let per_row = store_sales.memory_bytes() as f64 / store_sales.rows() as f64;
    // Twelve columns: 96 B/row as `i64`s.
    assert_eq!(store_sales.width(), 12);
    assert!(per_row <= 24.0, "store_sales holds {per_row:.1} B/row");
    let relations: usize = catalog.relations().map(|(_, r)| r.memory_bytes()).sum();
    assert_eq!(catalog.memory_bytes(), relations);
    let rows: usize = catalog.relations().map(|(_, r)| r.rows() * r.width()).sum();
    assert!(catalog.memory_bytes() < rows * 8 / 3, "{} bytes", catalog.memory_bytes());
}

/// A digest of every value of every column, read through the `i64`
/// logical view.
fn catalog_digest(catalog: &Catalog) -> u64 {
    let mut values = Vec::new();
    catalog.relations().flat_map(|(_, r)| r.columns()).fold(0u64, |digest, (_, col)| {
        col.gather_range(0, col.len(), &mut values);
        digest.wrapping_mul(31).wrapping_add(row_hash(&values))
    })
}

#[test]
fn packed_catalogs_hold_the_values_the_generators_drew() {
    // Digests recorded from the unpacked (`Vec<i64>`) storage these
    // generators filled before columns were packed.
    assert_eq!(catalog_digest(&tpcds::generate(1.0, 42).catalog), 0x0c96_5289_a7e9_3a16);
    assert_eq!(catalog_digest(&imdb::generate(1.0, 42).catalog), 0xe21c_8a44_ec51_d5e8);
}
