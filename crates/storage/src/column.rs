//! Typed columnar storage.
//!
//! All column data is held as `Vec<i64>` codes. The [`ColumnType`] records
//! how codes map back to logical values (plain integers, dates as day
//! numbers, fixed-point decimals, or dictionary-coded strings). Keeping a
//! single physical representation makes scans, comparisons and index key
//! ordering uniform and fast, mirroring dictionary/fixed-point encodings in
//! real columnar engines.

use serde::{Deserialize, Serialize};

/// Logical interpretation of a column's `i64` codes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Plain 64-bit integer (keys, quantities, flags).
    Int,
    /// Date stored as days since an epoch.
    Date,
    /// Fixed-point decimal with `scale` fractional digits (e.g. scale 2 →
    /// code 1234 means 12.34).
    Decimal { scale: u8 },
    /// Dictionary-coded string; codes index a (conceptual) dictionary of
    /// `cardinality` distinct strings. The dictionary itself is not
    /// materialised — workloads only compare codes.
    Dict { cardinality: u32 },
}

impl ColumnType {
    /// Logical width in bytes used for size accounting (what the value would
    /// occupy in a tuned on-disk layout, not our in-memory `i64`).
    pub fn logical_width(&self) -> u32 {
        match self {
            ColumnType::Int => 8,
            ColumnType::Date => 4,
            ColumnType::Decimal { .. } => 8,
            // Dictionary-coded strings store a code; charge a typical
            // string payload amortised into the column for realism.
            ColumnType::Dict { .. } => 16,
        }
    }
}

/// A single materialised column.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    ctype: ColumnType,
    data: Vec<i64>,
}

impl Column {
    pub fn new(name: impl Into<String>, ctype: ColumnType, data: Vec<i64>) -> Self {
        Column {
            name: name.into(),
            ctype,
            data,
        }
    }

    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    pub fn ctype(&self) -> &ColumnType {
        &self.ctype
    }

    /// Raw codes.
    #[inline]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn value(&self, row: usize) -> i64 {
        self.data[row]
    }

    /// Count rows whose code lies in `[lo, hi]` (inclusive). This is the
    /// ground-truth selectivity oracle used by the executor.
    pub fn count_in_range(&self, lo: i64, hi: i64) -> usize {
        self.data.iter().filter(|&&v| v >= lo && v <= hi).count()
    }

    /// Minimum and maximum code, or `None` for an empty column.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut it = self.data.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Number of distinct codes (exact; O(n log n)).
    pub fn distinct_count(&self) -> usize {
        let mut sorted = self.data.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Append the row ids in `[start, end)` whose code lies in `[lo, hi]`
    /// (inclusive) to `out`. The batch-scan seed: one tight pass over a
    /// contiguous slice producing an ascending selection vector.
    ///
    /// Branch-free on each row's outcome: every row id is written into the
    /// next free slot and the cursor advances by the predicate's truth
    /// value, so a selectivity near one half costs no mispredictions.
    #[inline]
    pub fn fill_matching_in(&self, lo: i64, hi: i64, start: usize, end: usize, out: &mut Vec<u32>) {
        let base = out.len();
        out.resize(base + (end - start), 0);
        let slots = &mut out[base..];
        let mut n = 0;
        for (off, &v) in self.data[start..end].iter().enumerate() {
            slots[n] = (start + off) as u32;
            n += ((lo <= v) & (v <= hi)) as usize;
        }
        out.truncate(base + n);
    }

    /// Retain only the selected rows whose code lies in `[lo, hi]`
    /// (inclusive). Refines a selection vector in place, preserving order,
    /// with the same branch-free cursor as [`Column::fill_matching_in`].
    #[inline]
    pub fn retain_matching(&self, lo: i64, hi: i64, sel: &mut Vec<u32>) {
        let mut n = 0;
        for i in 0..sel.len() {
            let r = sel[i];
            let v = self.data[r as usize];
            sel[n] = r;
            n += ((lo <= v) & (v <= hi)) as usize;
        }
        sel.truncate(n);
    }

    /// Gather the codes of `rows` into `out` (cleared first). The heap-fetch
    /// primitive of the measured backend: materialises the selected values
    /// in selection order.
    #[inline]
    pub fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(rows.len());
        for &r in rows {
            out.push(self.data[r as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn col(values: &[i64]) -> Column {
        Column::new("c", ColumnType::Int, values.to_vec())
    }

    #[test]
    fn count_in_range_inclusive_bounds() {
        let c = col(&[1, 2, 3, 4, 5, 5, 5]);
        assert_eq!(c.count_in_range(2, 4), 3);
        assert_eq!(c.count_in_range(5, 5), 3);
        assert_eq!(c.count_in_range(6, 10), 0);
        assert_eq!(c.count_in_range(i64::MIN, i64::MAX), 7);
    }

    #[test]
    fn min_max_and_distinct() {
        let c = col(&[4, -1, 9, 4, 9]);
        assert_eq!(c.min_max(), Some((-1, 9)));
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(col(&[]).min_max(), None);
    }

    #[test]
    fn fill_matching_in_matches_scalar_filter() {
        let c = col(&[5, 1, 9, 5, 2, 7, 5, 0]);
        let mut sel = Vec::new();
        c.fill_matching_in(2, 7, 0, c.len(), &mut sel);
        let scalar: Vec<u32> = (0..c.len() as u32)
            .filter(|&r| (2..=7).contains(&c.value(r as usize)))
            .collect();
        assert_eq!(sel, scalar);

        // Batch windows concatenate to the full result.
        let mut batched = Vec::new();
        c.fill_matching_in(2, 7, 0, 3, &mut batched);
        c.fill_matching_in(2, 7, 3, c.len(), &mut batched);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn retain_matching_refines_in_order() {
        let c = col(&[5, 1, 9, 5, 2, 7, 5, 0]);
        let mut sel: Vec<u32> = vec![0, 2, 3, 5, 7];
        c.retain_matching(5, 9, &mut sel);
        assert_eq!(sel, vec![0, 2, 3, 5]);
        c.retain_matching(100, 200, &mut sel);
        assert!(sel.is_empty());
    }

    /// The scalar definition of a range predicate, as
    /// `dba_engine::Predicate::matches` states it.
    fn scalar(lo: i64, hi: i64, v: i64) -> bool {
        v >= lo && v <= hi
    }

    /// Codes and bounds drawn from the extremes, a few small values around
    /// zero and the odd arbitrary code, so `lo > hi`, `lo == hi` and bounds
    /// at `i64::MIN`/`i64::MAX` all come up often.
    fn code(rng: &mut StdRng) -> i64 {
        const EDGES: [i64; 9] = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        match rng.gen_range(0..4u32) {
            0 => rng.gen::<i64>(),
            _ => EDGES[rng.gen_range(0..EDGES.len())],
        }
    }

    #[test]
    fn kernels_match_the_scalar_definition() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Lengths straddle the executor's 4096-row windows.
            let len = rng.gen_range(0..9000usize);
            let c = col(&(0..len).map(|_| code(&mut rng)).collect::<Vec<_>>());
            let (lo, hi) = (code(&mut rng), code(&mut rng));
            let want = |range: std::ops::Range<usize>| -> Vec<u32> {
                range
                    .filter(|&r| scalar(lo, hi, c.value(r)))
                    .map(|r| r as u32)
                    .collect()
            };

            // An unaligned window, appended after a non-empty prefix.
            let start = rng.gen_range(0..=len);
            let end = rng.gen_range(start..=len);
            let prefix: Vec<u32> = (0..rng.gen_range(0..5u32)).map(|i| 7 * i + 3).collect();
            let mut out = prefix.clone();
            c.fill_matching_in(lo, hi, start, end, &mut out);
            assert_eq!(out[..prefix.len()], prefix[..], "seed {seed}: prefix kept");
            assert_eq!(out[prefix.len()..], want(start..end)[..], "seed {seed}");

            // Refine an arbitrary ordered selection, the empty one included.
            let sel: Vec<u32> = (0..len as u32).filter(|_| rng.gen::<bool>()).collect();
            let mut kept = sel.clone();
            c.retain_matching(lo, hi, &mut kept);
            let want_kept: Vec<u32> = sel
                .iter()
                .copied()
                .filter(|&r| scalar(lo, hi, c.value(r as usize)))
                .collect();
            assert_eq!(kept, want_kept, "seed {seed}");
            let mut empty = Vec::new();
            c.retain_matching(lo, hi, &mut empty);
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn kernels_honour_extreme_and_degenerate_bounds() {
        let c = col(&[i64::MIN, -1, 0, 1, i64::MAX, i64::MIN, i64::MAX]);
        let fill = |lo, hi| {
            let mut out = Vec::new();
            c.fill_matching_in(lo, hi, 0, c.len(), &mut out);
            out
        };
        assert_eq!(fill(i64::MIN, i64::MAX), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(fill(i64::MIN, i64::MIN), vec![0, 5]);
        assert_eq!(fill(i64::MAX, i64::MAX), vec![4, 6]);
        assert_eq!(fill(0, 0), vec![2]);
        assert!(fill(1, 0).is_empty(), "lo > hi selects nothing");
        assert!(fill(i64::MAX, i64::MIN).is_empty());
        let mut none = vec![9];
        c.fill_matching_in(i64::MIN, i64::MAX, 3, 3, &mut none);
        assert_eq!(none, vec![9], "an empty window appends nothing");
        let mut sel = vec![6, 4, 2, 0];
        c.retain_matching(i64::MAX, i64::MAX, &mut sel);
        assert_eq!(sel, vec![6, 4], "order is kept, even when not ascending");
        c.retain_matching(1, -1, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn gather_into_follows_selection_order() {
        let c = col(&[10, 20, 30, 40]);
        let mut out = vec![99]; // must be cleared
        c.gather_into(&[3, 0, 2], &mut out);
        assert_eq!(out, vec![40, 10, 30]);
    }

    #[test]
    fn logical_widths() {
        assert_eq!(ColumnType::Int.logical_width(), 8);
        assert_eq!(ColumnType::Date.logical_width(), 4);
        assert_eq!(ColumnType::Decimal { scale: 2 }.logical_width(), 8);
        assert_eq!(ColumnType::Dict { cardinality: 10 }.logical_width(), 16);
    }
}
