//! The map-based Q-table (§4.3).
//!
//! `Q((L, Q), o)` estimates are stored in one map keyed by the
//! `(scope, lineage, query-set, op)` key — "concatenating the bytes of L,
//! Q and o forms a unique key". Optimistic initialization means values
//! start at 0 and only non-zero entries are materialized: failed lookups
//! return 0 without allocating, which keeps the hot decision path free of
//! heap traffic (the query-set is hashed from its borrowed words).
//!
//! The map is one flat open-addressing table (DESIGN.md §10): a slot array
//! probed linearly at a load factor of at most ½, the entries in insertion
//! order, and every entry's query-set words in one shared arena. A slot
//! holds an entry index beside the top half of that entry's hash, so a
//! probe passes over other keys' slots without loading their entries. A
//! key is hashed once; growth re-places entries by their stored hashes
//! without touching a query-set.

use crate::space::{Lineage, OpId, Scope};

/// A slot no entry occupies (no entry has index `u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// Slot-array size of the first allocation.
const MIN_SLOTS: usize = 16;

#[derive(Debug)]
struct Entry {
    hash: u64,
    scope: Scope,
    lineage: Lineage,
    op: OpId,
    /// The query-set's words: `words[qoff..qoff + qlen]`. The width is per
    /// entry because one policy can outlive sessions of different
    /// capacities.
    qoff: u32,
    qlen: u32,
    value: f64,
}

/// Sparse Q-value table with zero-default lookups.
#[derive(Debug, Default)]
pub struct QTable {
    /// Per slot, the entry's hash with its low half replaced by the entry
    /// index ([`slot_word`]), or [`EMPTY`]. The length is zero or a power of
    /// two at least twice `entries.len()`.
    slots: Vec<u64>,
    entries: Vec<Entry>,
    /// Query-set words of every entry, back to back.
    words: Vec<u64>,
}

/// A borrowed `(scope, lineage, op, query-set)` key.
struct Key<'a> {
    scope: Scope,
    lineage: Lineage,
    op: OpId,
    qwords: &'a [u64],
}

impl Key<'_> {
    /// FNV-1a over the key components, then a 64-bit finaliser so the low
    /// bits that pick the slot depend on every input bit. Computed from
    /// borrowed parts so lookups never allocate.
    #[inline]
    fn hash(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.scope.0 as u64);
        mix(self.lineage);
        mix(self.op as u64);
        for &w in self.qwords {
            mix(w);
        }
        // The murmur3 finaliser.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The slot word of entry `idx` with hash `hash`.
#[inline]
fn slot_word(hash: u64, idx: usize) -> u64 {
    (hash & !0xffff_ffff) | idx as u64
}

impl QTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry holding `key`, or the empty slot where it would go
    /// (`Err`). The table must have slots.
    #[inline]
    fn find(&self, hash: u64, key: &Key<'_>) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Err(i);
            }
            if s >> 32 == hash >> 32 {
                let idx = s as u32 as usize;
                let e = &self.entries[idx];
                if e.hash == hash
                    && e.lineage == key.lineage
                    && e.op == key.op
                    && e.scope == key.scope
                    && e.qlen as usize == key.qwords.len()
                    && self.words[e.qoff as usize..][..key.qwords.len()] == *key.qwords
                {
                    return Ok(idx);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Current Q-value estimate (0 when never updated — optimistic
    /// initialization for negative rewards).
    #[inline]
    pub fn get(&self, scope: Scope, lineage: Lineage, op: OpId, qwords: &[u64]) -> f64 {
        let key = Key { scope, lineage, op, qwords };
        self.get_hashed(key.hash(), &key)
    }

    #[inline]
    fn get_hashed(&self, hash: u64, key: &Key<'_>) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.find(hash, key).map_or(0.0, |e| self.entries[e].value)
    }

    /// Replaces the Q-value with `f(old)`.
    pub fn update(
        &mut self,
        scope: Scope,
        lineage: Lineage,
        op: OpId,
        qwords: &[u64],
        f: impl FnOnce(f64) -> f64,
    ) {
        let key = Key { scope, lineage, op, qwords };
        self.update_hashed(key.hash(), &key, f);
    }

    fn update_hashed(&mut self, hash: u64, key: &Key<'_>, f: impl FnOnce(f64) -> f64) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.find(hash, key) {
            Ok(e) => {
                let e = &mut self.entries[e];
                e.value = f(e.value);
            }
            Err(slot) => {
                self.slots[slot] = slot_word(hash, self.entries.len());
                self.entries.push(Entry {
                    hash,
                    scope: key.scope,
                    lineage: key.lineage,
                    op: key.op,
                    qoff: self.words.len() as u32,
                    qlen: key.qwords.len() as u32,
                    value: f(0.0),
                });
                self.words.extend_from_slice(key.qwords);
            }
        }
    }

    /// Doubles the slot array (or makes the first one) and re-places every
    /// entry by its stored hash.
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(n, EMPTY);
        let mask = n - 1;
        for (idx, e) in self.entries.iter().enumerate() {
            let mut i = e.hash as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot_word(e.hash, idx);
        }
    }

    /// Number of materialized (touched) state-action entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has been materialized.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries (the paper discards learned state after queries
    /// finish processing — learning is per-batch). Keeps the allocations.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.entries.clear();
        self.words.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Scope = Scope::JOIN;

    #[test]
    fn default_is_zero() {
        let t = QTable::new();
        assert_eq!(t.get(S, 0b11, 4, &[0b101]), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn update_and_get_round_trip() {
        let mut t = QTable::new();
        t.update(S, 0b11, 4, &[0b101], |old| old - 5.0);
        assert_eq!(t.get(S, 0b11, 4, &[0b101]), -5.0);
        t.update(S, 0b11, 4, &[0b101], |old| old * 0.5);
        assert_eq!(t.get(S, 0b11, 4, &[0b101]), -2.5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut t = QTable::new();
        t.update(S, 1, 0, &[0b1], |_| 1.0);
        t.update(S, 1, 1, &[0b1], |_| 2.0);
        t.update(S, 2, 0, &[0b1], |_| 3.0);
        t.update(S, 1, 0, &[0b10], |_| 4.0);
        t.update(Scope(0), 1, 0, &[0b1], |_| 5.0);
        assert_eq!(t.get(S, 1, 0, &[0b1]), 1.0);
        assert_eq!(t.get(S, 1, 1, &[0b1]), 2.0);
        assert_eq!(t.get(S, 2, 0, &[0b1]), 3.0);
        assert_eq!(t.get(S, 1, 0, &[0b10]), 4.0);
        assert_eq!(t.get(Scope(0), 1, 0, &[0b1]), 5.0);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn multiword_query_sets_compare_fully() {
        let mut t = QTable::new();
        t.update(S, 7, 2, &[1, 0], |_| -1.0);
        assert_eq!(t.get(S, 7, 2, &[1, 0]), -1.0);
        assert_eq!(t.get(S, 7, 2, &[1, 1]), 0.0);
        assert_eq!(t.get(S, 7, 2, &[0, 1]), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut t = QTable::new();
        t.update(S, 1, 0, &[1], |_| 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(S, 1, 0, &[1]), 0.0);
    }

    #[test]
    fn hash_collisions_resolved_by_full_compare() {
        // Force many keys through the table; values must all survive.
        let mut t = QTable::new();
        for lineage in 0..200u64 {
            for op in 0..4u16 {
                t.update(S, lineage, op, &[lineage ^ 0xAA], |_| (lineage * 4 + op as u64) as f64);
            }
        }
        for lineage in 0..200u64 {
            for op in 0..4u16 {
                assert_eq!(
                    t.get(S, lineage, op, &[lineage ^ 0xAA]),
                    (lineage * 4 + op as u64) as f64
                );
            }
        }
    }

    /// Random get/update/clear sequences against a `HashMap` model, over a
    /// key space small enough to revisit keys and large enough to grow the
    /// table many times, with query-sets of one to four words mixed in one
    /// table (so equal-prefix keys of different widths must stay apart).
    #[test]
    fn matches_a_hashmap_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(0x0ab1e);
        let mut t = QTable::new();
        let mut model: HashMap<(Scope, Lineage, OpId, Vec<u64>), f64> = HashMap::new();
        let key = |rng: &mut StdRng| {
            let scope = if rng.gen_ratio(1, 2) { S } else { Scope(rng.gen_range(0..3u32)) };
            let width = rng.gen_range(1..=4usize);
            let mut words = vec![0u64; width];
            words[0] = rng.gen_range(0..8u64);
            if width > 1 && rng.gen_ratio(1, 2) {
                words[width - 1] = 1 << rng.gen_range(0..64u32);
            }
            (scope, rng.gen_range(0..64u64), rng.gen_range(0..6u16), words)
        };
        for step in 0..50_000u32 {
            let (scope, lineage, op, words) = key(&mut rng);
            if step % 20_000 == 19_999 {
                t.clear();
                model.clear();
            }
            match rng.gen_range(0..100u32) {
                0..=44 => {
                    let delta = rng.gen_range(-100i64..100) as f64 / 8.0;
                    t.update(scope, lineage, op, &words, |old| old * 0.5 + delta);
                    let v = model.entry((scope, lineage, op, words.clone())).or_insert(0.0);
                    *v = *v * 0.5 + delta;
                }
                _ => {
                    let want = model.get(&(scope, lineage, op, words.clone())).copied();
                    assert_eq!(t.get(scope, lineage, op, &words), want.unwrap_or(0.0), "step {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "step {step}");
        }
        for ((scope, lineage, op, words), v) in &model {
            assert_eq!(t.get(*scope, *lineage, *op, words), *v);
        }
        assert!(t.len() > 1000, "the model run should grow the table: {}", t.len());
    }

    /// Every key forced onto one hash: each lookup walks one long probe
    /// run and only the full key compare tells entries apart, including
    /// keys that differ in one component or in query-set width alone.
    #[test]
    fn forced_hash_collisions_resolved_by_full_key_compare() {
        let words: Vec<Vec<u64>> = vec![vec![1], vec![1, 0], vec![1, 0, 0], vec![0, 1], vec![2]];
        let mut keys = Vec::new();
        for scope in [S, Scope(0)] {
            for lineage in 0..4u64 {
                for op in 0..3u16 {
                    for q in &words {
                        keys.push((scope, lineage, op, q.clone()));
                    }
                }
            }
        }
        let mut t = QTable::new();
        for (i, (scope, lineage, op, q)) in keys.iter().enumerate() {
            let key = Key { scope: *scope, lineage: *lineage, op: *op, qwords: q };
            t.update_hashed(42, &key, |old| old + i as f64 + 1.0);
        }
        assert_eq!(t.len(), keys.len());
        for (i, (scope, lineage, op, q)) in keys.iter().enumerate() {
            let key = Key { scope: *scope, lineage: *lineage, op: *op, qwords: q };
            assert_eq!(t.get_hashed(42, &key), i as f64 + 1.0, "{:?}", (scope, lineage, op, q));
        }
        let absent = Key { scope: S, lineage: 9, op: 0, qwords: &[1] };
        assert_eq!(t.get_hashed(42, &absent), 0.0);
    }
}
