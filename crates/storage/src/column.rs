//! Packed in-memory columns.
//!
//! The prototype targets in-memory analytics with columnar data and late
//! materialization (§3): operators carry virtual IDs and *gather*
//! mini-columns of required attributes on demand, so a base column's byte
//! width buys only footprint. Every column therefore has one physical
//! form, *frame of reference*: row `i` holds `base + offsets[i]`, with the
//! offsets in the narrowest of `u8`/`u16`/`u32`/`u64` that holds the
//! column's span `max − min`. The frame `base` is `min`, or 0 when the
//! values are non-negative and `max` alone fits that same width — most
//! keys and measures — so a kernel that adds the frame per value can skip
//! it. Integer columns (keys, measures, the synthetic `sel`
//! selectivity-control column) and dictionary-encoded strings (JOB-style
//! categorical attributes, whose codes are the packed values) share it.
//! Predicates and join keys always operate on the `i64` *logical view* —
//! [`Column::value`], [`Column::gather`] and [`Column::gather_range`]
//! widen the offsets once per call — so the execution engine stays
//! monomorphic in its hot loops. A kernel that reads the offsets itself
//! ([`Column::packed`]) dispatches on their width once per call, never per
//! value.

use roulette_core::{Error, Result};
use std::collections::HashMap;

/// The offsets of a packed column, in the narrowest unsigned width that
/// holds the column's span.
#[derive(Debug, Clone)]
pub enum Offsets {
    /// Span ≤ 255.
    U8(Vec<u8>),
    /// Span ≤ 65 535.
    U16(Vec<u16>),
    /// Span ≤ 4 294 967 295.
    U32(Vec<u32>),
    /// Any wider span, up to the whole `i64` range.
    U64(Vec<u64>),
}

/// Runs `$body` with `$o` bound to the offsets slice, whatever its width:
/// one `match` per call, the body monomorphized per width.
macro_rules! with_offsets {
    ($offsets:expr, $o:ident => $body:expr) => {
        match $offsets {
            Offsets::U8($o) => $body,
            Offsets::U16($o) => $body,
            Offsets::U32($o) => $body,
            Offsets::U64($o) => $body,
        }
    };
}

impl Offsets {
    /// Bytes per stored offset (1, 2, 4 or 8).
    pub fn width(&self) -> usize {
        match self {
            Offsets::U8(_) => 1,
            Offsets::U16(_) => 2,
            Offsets::U32(_) => 4,
            Offsets::U64(_) => 8,
        }
    }

    /// Number of offsets.
    pub fn len(&self) -> usize {
        with_offsets!(self, o => o.len())
    }

    /// Whether there are no offsets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn capacity(&self) -> usize {
        with_offsets!(self, o => o.capacity())
    }
}

/// The logical value of `offset` in a frame starting at `base`.
#[inline(always)]
fn decode<T: Into<u64>>(base: i64, offset: T) -> i64 {
    base.wrapping_add(offset.into() as i64)
}

/// An offset width: narrowing from `u64` truncates.
trait Offset: Copy {
    fn narrow(offset: u64) -> Self;
}

macro_rules! offset_width {
    ($($t:ty),*) => {$(
        impl Offset for $t {
            #[inline(always)]
            fn narrow(offset: u64) -> Self {
                offset as $t
            }
        }
    )*};
}
offset_width!(u8, u16, u32, u64);

/// Packs `values` as offsets from `base`; every offset fits `T` by the
/// caller's choice of width.
fn pack<T: Offset>(values: &[i64], base: i64) -> Vec<T> {
    values.iter().map(|&v| T::narrow(v.wrapping_sub(base) as u64)).collect()
}

/// Bytes per offset for a span: the narrowest width that holds it.
fn width_of(span: u64) -> usize {
    if span <= u64::from(u8::MAX) {
        1
    } else if span <= u64::from(u16::MAX) {
        2
    } else if span <= u64::from(u32::MAX) {
        4
    } else {
        8
    }
}

/// A typed, immutable column of values.
#[derive(Debug, Clone)]
pub struct Column {
    /// The frame of reference: row `i` is `base + offsets[i]`.
    base: i64,
    /// The smallest logical value (0 when empty).
    min: i64,
    /// The largest logical value (0 when empty).
    max: i64,
    offsets: Offsets,
    /// The dictionary of a string column, in code order; the logical
    /// values are its codes. `None` for an integer column.
    dict: Option<Vec<String>>,
}

impl Column {
    /// Packs an integer column: the span of `values` picks the offset
    /// width.
    pub fn from_i64(values: &[i64]) -> Column {
        let (min, max) = match values.first() {
            Some(&v) => values.iter().fold((v, v), |(mn, mx), &v| (mn.min(v), mx.max(v))),
            None => (0, 0),
        };
        let width = width_of(max.wrapping_sub(min) as u64);
        let base = if min >= 0 && width_of(max as u64) == width { 0 } else { min };
        let offsets = match width {
            1 => Offsets::U8(pack(values, base)),
            2 => Offsets::U16(pack(values, base)),
            4 => Offsets::U32(pack(values, base)),
            _ => Offsets::U64(pack(values, base)),
        };
        Column { base, min, max, offsets, dict: None }
    }

    /// Builds a dictionary column from raw strings, assigning codes in
    /// first-appearance order.
    pub fn dict_from_strings<S: AsRef<str>, I: IntoIterator<Item = S>>(items: I) -> Column {
        let mut lookup: HashMap<String, i64> = HashMap::new();
        let mut values: Vec<String> = Vec::new();
        let mut codes = Vec::new();
        for s in items {
            let s = s.as_ref();
            let code = match lookup.get(s) {
                Some(&c) => c,
                None => {
                    let c = values.len() as i64;
                    lookup.insert(s.to_string(), c);
                    values.push(s.to_string());
                    c
                }
            };
            codes.push(code);
        }
        Column { dict: Some(values), ..Column::from_i64(&codes) }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed form: the offsets and the frame of reference they are
    /// relative to. Row `i`'s logical value is `base + offsets[i]`
    /// (wrapping), for a kernel that reads base storage itself.
    #[inline]
    pub fn packed(&self) -> (&Offsets, i64) {
        (&self.offsets, self.base)
    }

    /// The `i64` logical view of row `i` (dictionary code for strings).
    /// One width dispatch per call: loops gather instead.
    #[inline]
    pub fn value(&self, i: usize) -> i64 {
        with_offsets!(&self.offsets, o => decode(self.base, o[i]))
    }

    /// Gathers the logical view of the given rows into `out` (cleared
    /// first). This is the engine's late-materialization primitive.
    pub fn gather(&self, rows: &[u32], out: &mut Vec<i64>) {
        out.clear();
        let base = self.base;
        with_offsets!(&self.offsets, o => {
            out.extend(rows.iter().map(|&r| decode(base, o[r as usize])))
        });
    }

    /// Gathers a contiguous row range `[start, end)`.
    pub fn gather_range(&self, start: usize, end: usize, out: &mut Vec<i64>) {
        out.clear();
        let base = self.base;
        with_offsets!(&self.offsets, o => {
            out.extend(o[start..end].iter().map(|&x| decode(base, x)))
        });
    }

    /// Decoded string for row `i` (dict columns only).
    pub fn string(&self, i: usize) -> Result<&str> {
        match &self.dict {
            Some(values) => Ok(&values[self.value(i) as usize]),
            None => Err(Error::Schema("string() on an integer column".into())),
        }
    }

    /// Dictionary code for a string value, if present (dict columns only).
    pub fn code_of(&self, s: &str) -> Option<i64> {
        self.dict.as_ref()?.iter().position(|v| v == s).map(|p| p as i64)
    }

    /// Minimum and maximum of the logical view, or `None` if empty. O(1):
    /// both are stored when the column is packed.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        (!self.is_empty()).then_some((self.min, self.max))
    }

    /// Heap bytes held: the offsets and, for a string column, its
    /// dictionary.
    pub fn memory_bytes(&self) -> usize {
        let dict = self.dict.as_ref().map_or(0, |d| {
            d.capacity() * std::mem::size_of::<String>()
                + d.iter().map(String::capacity).sum::<usize>()
        });
        self.offsets.capacity() * self.offsets.width() + dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every reader of `c` agrees with the `i64` source `src`.
    fn assert_logical_view(c: &Column, src: &[i64]) {
        assert_eq!(c.len(), src.len());
        for (i, &v) in src.iter().enumerate() {
            assert_eq!(c.value(i), v, "value({i})");
        }
        let mut out = vec![99];
        let rows: Vec<u32> = (0..src.len() as u32).rev().collect();
        c.gather(&rows, &mut out);
        assert_eq!(out, src.iter().rev().copied().collect::<Vec<_>>());
        c.gather_range(0, src.len(), &mut out);
        assert_eq!(out, src);
        if src.len() > 2 {
            c.gather_range(1, src.len() - 1, &mut out);
            assert_eq!(out, &src[1..src.len() - 1]);
        }
        let expect = src.iter().copied().min().zip(src.iter().copied().max());
        assert_eq!(c.min_max(), expect);
    }

    #[test]
    fn width_is_the_narrowest_that_holds_the_span() {
        // (min, span, width, frame): the frame is 0 where non-negative
        // values fit the same width from 0, else `min`.
        let cases: &[(i64, u64, usize, i64)] = &[
            (0, 0, 1, 0),
            (-7, 0, 1, -7),
            (0, 255, 1, 0),
            (-300, 255, 1, -300),
            (1_000, 200, 1, 1_000),
            (0, 256, 2, 0),
            (300, 256, 2, 0),
            (-1_000_000, 256, 2, -1_000_000),
            (0, 65_535, 2, 0),
            (-5, 65_535, 2, -5),
            (0, 65_536, 4, 0),
            (-70_000, 65_536, 4, -70_000),
            (0, u32::MAX as u64, 4, 0),
            (-(1 << 40), u32::MAX as u64, 4, -(1 << 40)),
            (1 << 40, u32::MAX as u64, 4, 1 << 40),
            (0, u32::MAX as u64 + 1, 8, 0),
            (-(1 << 40), u32::MAX as u64 + 1, 8, -(1 << 40)),
            (i64::MIN, u64::MAX, 8, i64::MIN),
        ];
        for &(min, span, width, frame) in cases {
            let max = min.wrapping_add(span as i64);
            let mid = min.wrapping_add((span / 2) as i64);
            let src = vec![mid, max, min, max, mid.wrapping_add(1), min];
            let c = Column::from_i64(&src);
            assert_eq!(c.packed().0.width(), width, "min {min} span {span}");
            assert_eq!(c.packed().1, frame, "min {min} span {span}");
            assert_logical_view(&c, &src);
            assert_eq!(c.memory_bytes(), src.len() * width);
        }
    }

    #[test]
    fn empty_columns_have_no_range() {
        let c = Column::from_i64(&[]);
        assert!(c.is_empty());
        assert_eq!(c.min_max(), None);
        assert_eq!(c.packed().0.width(), 1);
        assert_logical_view(&c, &[]);
        let d = Column::dict_from_strings(Vec::<String>::new());
        assert_eq!(d.min_max(), None);
        assert_eq!(d.code_of("x"), None);
    }

    #[test]
    fn dict_assigns_codes_in_first_appearance_order() {
        let c = Column::dict_from_strings(["b", "a", "b", "c"]);
        assert_logical_view(&c, &[0, 1, 0, 2]);
        assert_eq!(c.packed().0.width(), 1);
        assert_eq!(c.string(3).unwrap(), "c");
        assert_eq!(c.code_of("a"), Some(1));
        assert_eq!(c.code_of("zzz"), None);
        assert!(c.memory_bytes() >= 4 + 3 * std::mem::size_of::<String>() + 3);
    }

    #[test]
    fn dict_codes_widen_past_256_strings() {
        let names: Vec<String> = (0..300).map(|i| format!("s{i}")).collect();
        let c = Column::dict_from_strings(names.iter().chain(names.iter().take(5)));
        assert_eq!(c.packed().0.width(), 2);
        let codes: Vec<i64> = (0..300).chain(0..5).collect();
        assert_logical_view(&c, &codes);
        assert_eq!(c.string(302).unwrap(), "s2");
    }

    #[test]
    fn string_on_int_column_errors() {
        let c = Column::from_i64(&[1]);
        assert!(c.string(0).is_err());
        assert_eq!(c.code_of("1"), None);
    }
}
