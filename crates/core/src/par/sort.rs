//! The comparator merge sort: per-chunk unstable sorts, pairwise index-run
//! merges with a left-run tie preference, and an in-place cycle
//! permutation. `SortAlgo::Comparator` is the reference the radix engine is
//! tested against and the fallback for tensors of order above 4.

use std::cmp::Ordering;

use super::{chunks_mut, current_threads, map_collect, Schedule};

/// Below this length a parallel sort is all overhead; fall back to the
/// standard library's sequential unstable sort.
const PAR_SORT_MIN: usize = 4096;

/// Smallest per-chunk slice worth sorting independently.
const PAR_SORT_MIN_CHUNK: usize = 1024;

/// Merge two sorted index runs over `data`, preferring the left run on ties
/// (keeps the merge deterministic for any comparator).
fn merge_runs<T, F>(a: &[u32], b: &[u32], data: &[T], cmp: &F) -> Vec<u32>
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(&data[b[j] as usize], &data[a[i] as usize]) == Ordering::Less {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sort `data` in place, unstably, on up to [`current_threads`] workers.
/// The result is the same permutation at every width whenever `cmp` is a
/// total order without ties (the COO sorts break ties by position).
pub(crate) fn sort_unstable_by<T, F>(data: &mut [T], cmp: F)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    let threads = current_threads().max(1);
    let nchunks = threads.min(n / PAR_SORT_MIN_CHUNK).max(1);
    if threads <= 1 || n < PAR_SORT_MIN || nchunks < 2 || n > u32::MAX as usize {
        data.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    let bounds: Vec<usize> = (0..=nchunks).map(|i| i * n / nchunks).collect();

    // Phase 1: sort each chunk independently, in parallel.
    {
        let mut parts: Vec<&mut [T]> = Vec::with_capacity(nchunks);
        let mut rest: &mut [T] = data;
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            parts.push(head);
            rest = tail;
        }
        chunks_mut(&mut parts, 1, Schedule::DYNAMIC, |_, p| {
            p[0].sort_unstable_by(|a, b| cmp(a, b))
        });
    }

    // Phase 2: merge the sorted runs as index permutations, pairwise per
    // round, each round's merges running in parallel.
    let perm = {
        let snapshot: &[T] = data;
        let mut runs: Vec<Vec<u32>> = bounds
            .windows(2)
            .map(|w| (w[0] as u32..w[1] as u32).collect())
            .collect();
        while runs.len() > 1 {
            let mut iter = runs.into_iter();
            let mut pairs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            let mut leftover = None;
            loop {
                match (iter.next(), iter.next()) {
                    (Some(a), Some(b)) => pairs.push((a, b)),
                    (Some(a), None) => {
                        leftover = Some(a);
                        break;
                    }
                    (None, _) => break,
                }
            }
            let mut merged: Vec<Vec<u32>> = map_collect(pairs.len(), 1, |i| {
                merge_runs(&pairs[i].0, &pairs[i].1, snapshot, &cmp)
            });
            if let Some(l) = leftover {
                merged.push(l);
            }
            runs = merged;
        }
        runs.pop().expect("at least one run")
    };

    // Phase 3: apply the gather permutation in place. Invert it into a
    // scatter map, then follow swap cycles (O(n), no element clones).
    let mut dest = vec![0u32; n];
    for (k, &src) in perm.iter().enumerate() {
        dest[src as usize] = k as u32;
    }
    drop(perm);
    for i in 0..n {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            data.swap(i, j);
            dest.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::with_threads;
    use super::*;

    #[test]
    fn sort_by_orders() {
        let mut v: Vec<u32> = (0..1000).rev().collect();
        sort_unstable_by(&mut v, |a, b| a.cmp(b));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn par_sort_matches_sequential_on_large_input() {
        let mut v: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        with_threads(4, || sort_unstable_by(&mut v, |a, b| a.cmp(b)));
        assert_eq!(v, expect);

        // Heavy ties: any order within a key class is acceptable.
        let mut w: Vec<u32> = (0..20_000u32).rev().collect();
        with_threads(4, || sort_unstable_by(&mut w, |a, b| (a % 7).cmp(&(b % 7))));
        assert!(w.windows(2).all(|p| p[0] % 7 <= p[1] % 7));
    }
}
