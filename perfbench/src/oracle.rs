//! Answers computed apart from the program, for checking its outputs.
//!
//! * [`SortedOracle`] — the inline workloads: a value-sorted copy of the
//!   column with row ids and prefix sums answers COUNT, SUM, MIN, MAX and
//!   POSITIONS by two binary searches.
//! * [`Mirror`] — the service workload: a tombstone mirror that follows
//!   the service's documented mutation semantics (an update tombstones the
//!   old row and appends the new value under a fresh row id; compaction
//!   repacks the live rows in order), plus a value multiset for the
//!   aggregates.
//!
//! Neither shares code with the program beyond the answer type it is
//! compared against.

use ads_engine::{AggKind, QueryAnswer};
use std::collections::BTreeMap;

/// Builds the answer the engine returns for `agg` from the qualifying
/// rows' count, sum, extremes and (for POSITIONS) row ids.
fn answer(
    agg: AggKind,
    count: u64,
    sum: i64,
    extremes: Option<(i64, i64)>,
    positions: impl FnOnce() -> Vec<u32>,
) -> QueryAnswer<i64> {
    QueryAnswer {
        count,
        sum: (agg == AggKind::Sum).then_some(sum as f64),
        min: if agg == AggKind::Min {
            extremes.map(|e| e.0)
        } else {
            None
        },
        max: if agg == AggKind::Max {
            extremes.map(|e| e.1)
        } else {
            None
        },
        positions: (agg == AggKind::Positions).then(positions),
    }
}

/// A value-sorted copy of one column.
pub struct SortedOracle {
    /// `(value, row id)` ascending.
    sorted: Vec<(i64, u32)>,
    /// `prefix[i]` = sum of the first `i` sorted values.
    prefix: Vec<i64>,
}

impl SortedOracle {
    /// Sorts a copy of `column`.
    pub fn new(column: &[i64]) -> Self {
        let mut sorted: Vec<(i64, u32)> = column
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, i as u32))
            .collect();
        sorted.sort_unstable();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut acc = 0i64;
        prefix.push(0);
        for &(x, _) in &sorted {
            acc += x;
            prefix.push(acc);
        }
        SortedOracle { sorted, prefix }
    }

    /// The index range of base rows with values in `[lo, hi]`.
    fn base_range(&self, lo: i64, hi: i64) -> std::ops::Range<usize> {
        let i = self.sorted.partition_point(|&(x, _)| x < lo);
        let j = self.sorted.partition_point(|&(x, _)| x <= hi);
        i..j.max(i)
    }

    /// The expected answer of `agg` over rows with values in `[lo, hi]`.
    pub fn query(&self, lo: i64, hi: i64, agg: AggKind) -> QueryAnswer<i64> {
        let r = self.base_range(lo, hi);
        let extremes = (!r.is_empty()).then(|| (self.sorted[r.start].0, self.sorted[r.end - 1].0));
        let sum = self.prefix[r.end] - self.prefix[r.start];
        answer(agg, r.len() as u64, sum, extremes, || {
            let mut pos: Vec<u32> = self.sorted[r.clone()].iter().map(|&(_, id)| id).collect();
            pos.sort_unstable();
            pos
        })
    }

    /// `(count, sum of other)` over base rows with this column in
    /// `[lo, hi]` and `other` in `[other_lo, other_hi]`.
    pub fn conj(
        &self,
        lo: i64,
        hi: i64,
        other: &[i64],
        other_lo: i64,
        other_hi: i64,
    ) -> (u64, i64) {
        let mut count = 0u64;
        let mut sum = 0i64;
        for &(_, id) in &self.sorted[self.base_range(lo, hi)] {
            let y = other[id as usize];
            if (other_lo..=other_hi).contains(&y) {
                count += 1;
                sum += y;
            }
        }
        (count, sum)
    }
}

/// The service's column as the documented mutation semantics leave it.
pub struct Mirror {
    /// Values in row-id order, dead rows included until compaction.
    values: Vec<i64>,
    dead: Vec<bool>,
    dead_count: usize,
    /// The live value multiset: a sorted base plus a signed delta.
    base: SortedOracle,
    delta: BTreeMap<i64, i64>,
}

impl Mirror {
    /// A mirror of a freshly loaded column.
    pub fn new(column: &[i64]) -> Self {
        Mirror {
            values: column.to_vec(),
            dead: vec![false; column.len()],
            dead_count: 0,
            base: SortedOracle::new(column),
            delta: BTreeMap::new(),
        }
    }

    fn bump(&mut self, x: i64, by: i64) {
        let e = self.delta.entry(x).or_insert(0);
        *e += by;
        if *e == 0 {
            self.delta.remove(&x);
        }
    }

    /// Tombstones `row`; returns false when it was already dead (the
    /// service counts such a mutation out).
    fn kill(&mut self, row: usize) -> bool {
        if self.dead[row] {
            return false;
        }
        self.dead[row] = true;
        self.dead_count += 1;
        let x = self.values[row];
        self.bump(x, -1);
        true
    }

    /// Applies one batch: updates, then deletes. Returns how many took
    /// effect.
    pub fn mutate(&mut self, updates: &[(usize, i64)], deletes: &[usize]) -> usize {
        let mut applied = 0;
        for &(row, x) in updates {
            if self.kill(row) {
                self.values.push(x);
                self.dead.push(false);
                self.bump(x, 1);
                applied += 1;
            }
        }
        for &row in deletes {
            applied += usize::from(self.kill(row));
        }
        applied
    }

    /// Order-preserving compaction; returns the rows reclaimed.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.dead_count;
        let mut keep = self.dead.iter().map(|d| !d);
        self.values.retain(|_| keep.next().unwrap_or(false));
        self.dead = vec![false; self.values.len()];
        self.dead_count = 0;
        reclaimed
    }

    /// The expected answer of `agg` over live rows with values in
    /// `[lo, hi]`.
    pub fn query(&self, lo: i64, hi: i64, agg: AggKind) -> QueryAnswer<i64> {
        let r = self.base.base_range(lo, hi);
        let changed: Vec<(i64, i64)> = if lo <= hi {
            self.delta.range(lo..=hi).map(|(&x, &d)| (x, d)).collect()
        } else {
            Vec::new()
        };
        let count = r.len() as i64 + changed.iter().map(|c| c.1).sum::<i64>();
        let sum = self.base.prefix[r.end] - self.base.prefix[r.start]
            + changed.iter().map(|&(x, d)| x * d).sum::<i64>();
        // A value's live count is its base count plus its delta; the
        // smallest and largest values with a positive count are the
        // extremes.
        let extremes = if count > 0 && matches!(agg, AggKind::Min | AggKind::Max) {
            let mut live: BTreeMap<i64, i64> = changed.iter().copied().collect();
            for &(x, _) in &self.base.sorted[r] {
                *live.entry(x).or_insert(0) += 1;
            }
            let mut values = live.into_iter().filter(|&(_, n)| n > 0).map(|(x, _)| x);
            let min = values.next();
            min.zip(values.next_back().or(min))
        } else {
            None
        };
        answer(agg, count as u64, sum, extremes, || {
            self.values
                .iter()
                .zip(&self.dead)
                .enumerate()
                .filter(|(_, (&x, &dead))| !dead && (lo..=hi).contains(&x))
                .map(|(i, _)| i as u32)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(values: &[i64], dead: &[bool], lo: i64, hi: i64, agg: AggKind) -> QueryAnswer<i64> {
        let rows: Vec<(usize, i64)> = values
            .iter()
            .enumerate()
            .filter(|(i, &x)| !dead[*i] && (lo..=hi).contains(&x))
            .map(|(i, &x)| (i, x))
            .collect();
        let extremes = rows
            .iter()
            .map(|r| r.1)
            .min()
            .zip(rows.iter().map(|r| r.1).max());
        answer(
            agg,
            rows.len() as u64,
            rows.iter().map(|r| r.1).sum(),
            extremes,
            || rows.iter().map(|r| r.0 as u32).collect(),
        )
    }

    const AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];

    #[test]
    fn sorted_oracle_matches_naive() {
        let col: Vec<i64> = (0..500).map(|i| (i * 37) % 101).collect();
        let o = SortedOracle::new(&col);
        let dead = vec![false; col.len()];
        for (lo, hi) in [(0, 10), (5, 7), (99, 300), (50, 40), (7, 7), (-5, -1)] {
            for agg in AGGS {
                assert_eq!(
                    o.query(lo, hi, agg),
                    naive(&col, &dead, lo, hi, agg),
                    "{lo}..{hi} {agg:?}"
                );
            }
        }
    }

    #[test]
    fn mirror_follows_tombstones_updates_and_compaction() {
        let col: Vec<i64> = (0..300).map(|i| (i * 13) % 50).collect();
        let mut m = Mirror::new(&col);
        assert_eq!(m.mutate(&[(3, 999), (10, 4)], &[3, 20, 21]), 4);
        for (lo, hi) in [(0, 10), (4, 4), (900, 1000), (0, 2000)] {
            for agg in AGGS {
                assert_eq!(m.query(lo, hi, agg), naive(&m.values, &m.dead, lo, hi, agg));
            }
        }
        assert_eq!(m.compact(), 4);
        assert_eq!(m.values.len(), 298);
        assert_eq!(m.mutate(&[(0, 1)], &[297]), 2);
        for agg in AGGS {
            assert_eq!(m.query(0, 60, agg), naive(&m.values, &m.dead, 0, 60, agg));
        }
    }
}
