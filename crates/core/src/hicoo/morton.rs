//! Morton (Z-order) utilities for block sorting.
//!
//! HiCOO construction sorts nonzeros by the Morton order of their block
//! coordinates, which gives blocks good multi-dimensional locality (paper
//! §3.3: "data locality is increased due to blocking and Morton order
//! sorting"). Two implementations are provided: packed 128-bit keys for
//! orders up to 4 (every tensor in the paper's datasets) and a
//! comparison-based fallback for higher orders.

use std::cmp::Ordering;

/// Interleave the bits of up to four 32-bit coordinates into one 128-bit
/// Morton key. Bit `b` of mode `m` lands at position `b * order + (order -
/// 1 - m)`, so mode 0 is the most significant at each bit level.
///
/// # Panics
/// Panics if `coords.len() > 4` (the packed key would overflow 128 bits).
pub(crate) fn interleave_key(coords: &[u32]) -> u128 {
    interleave_key_bits(coords, 32)
}

/// Interleave only the low `bits` bits of each coordinate. When every
/// coordinate is below `2^bits` this orders identically to
/// [`interleave_key`] while producing a key of only `bits * order` bits —
/// the compact form the radix conversion pipeline packs element indices
/// next to.
///
/// # Panics
/// Panics if `coords.len() > 4` or if `bits * coords.len() > 128`.
pub(crate) fn interleave_key_bits(coords: &[u32], bits: usize) -> u128 {
    let order = coords.len();
    assert!(
        (1..=4).contains(&order),
        "packed Morton keys support order 1..=4"
    );
    assert!(bits * order <= 128, "packed Morton key overflows 128 bits");
    let mut key: u128 = 0;
    for b in 0..bits.min(32) {
        for (m, &c) in coords.iter().enumerate() {
            let bit = ((c >> b) & 1) as u128;
            key |= bit << (b * order + (order - 1 - m));
        }
    }
    key
}

/// `true` if the most significant set bit of `a ^ b`-style comparison says
/// `x`'s highest differing bit is below `y`'s (the classic "less msb" test).
#[inline]
fn less_msb(x: u32, y: u32) -> bool {
    x < y && x < (x ^ y)
}

/// Compare two coordinate tuples in Morton order without materializing keys.
/// Works for any tensor order. Mode 0 is most significant at equal bit
/// levels, matching [`interleave_key`].
pub(crate) fn morton_cmp(a: &[u32], b: &[u32]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    let mut msd = 0usize; // mode with the most significant differing bit
    let mut best = 0u32; // XOR value at that mode
    for m in 0..a.len() {
        let x = a[m] ^ b[m];
        if less_msb(best, x) {
            msd = m;
            best = x;
        }
    }
    if best == 0 {
        Ordering::Equal
    } else {
        a[msd].cmp(&b[msd])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_matches_hand_computation() {
        // 2D: (1, 0) -> bit 0 of mode 0 at position 0*2 + (2-1-0) = 1 -> key 2.
        assert_eq!(interleave_key(&[1, 0]), 2);
        assert_eq!(interleave_key(&[0, 1]), 1);
        assert_eq!(interleave_key(&[1, 1]), 3);
        // 3D: (1,0,0)->4, (0,1,0)->2, (0,0,1)->1.
        assert_eq!(interleave_key(&[1, 0, 0]), 4);
        assert_eq!(interleave_key(&[0, 1, 0]), 2);
        assert_eq!(interleave_key(&[0, 0, 1]), 1);
    }

    #[test]
    fn interleave_handles_high_bits() {
        let k = interleave_key(&[u32::MAX, 0, 0, 0]);
        // Mode 0 bits occupy positions 3, 7, 11, ..., 127.
        let expect = (0..32).fold(0u128, |acc, b| acc | (1u128 << (b * 4 + 3)));
        assert_eq!(k, expect);
    }

    #[test]
    fn cmp_agrees_with_packed_keys() {
        let cases = [
            (vec![0u32, 0, 0], vec![0u32, 0, 1]),
            (vec![5, 3, 2], vec![5, 3, 2]),
            (vec![7, 0, 0], vec![0, 7, 7]),
            (vec![1, 2, 3], vec![3, 2, 1]),
            (vec![123, 456, 789], vec![123, 457, 788]),
            (vec![u32::MAX, 0, 0], vec![0, u32::MAX, u32::MAX]),
        ];
        for (a, b) in cases {
            let packed = interleave_key(&a).cmp(&interleave_key(&b));
            assert_eq!(morton_cmp(&a, &b), packed, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn cmp_is_total_order_on_small_grid() {
        // Collect all 3D coords in a 4^3 grid, sort by morton_cmp, and check
        // the result equals sorting by packed key.
        let mut coords: Vec<Vec<u32>> = (0..4)
            .flat_map(|i| (0..4).flat_map(move |j| (0..4).map(move |k| vec![i, j, k])))
            .collect();
        // Reference side: cache each key once instead of re-interleaving on
        // every comparison, and sort unstably (keys are unique here).
        let mut keyed: Vec<(u128, Vec<u32>)> = coords
            .iter()
            .map(|c| (interleave_key(c), c.clone()))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let by_key: Vec<Vec<u32>> = keyed.into_iter().map(|(_, c)| c).collect();
        coords.sort_unstable_by(|a, b| morton_cmp(a, b));
        assert_eq!(coords, by_key);
    }

    #[test]
    fn cmp_supports_order_above_four() {
        let a = vec![1u32, 0, 0, 0, 0, 0];
        let b = vec![0u32, 0, 0, 0, 0, 1];
        assert_eq!(morton_cmp(&a, &b), Ordering::Greater);
        assert_eq!(morton_cmp(&b, &a), Ordering::Less);
        assert_eq!(morton_cmp(&a, &a), Ordering::Equal);
    }
}
