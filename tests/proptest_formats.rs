//! Property-based tests on the format layer: every conversion preserves
//! the coordinate → value map, sorting never loses entries, and the storage
//! accounting matches the structures.

use proptest::prelude::*;
use tenbench::core::coo::CooTensor;
use tenbench::core::hicoo::{GHicooTensor, HicooTensor};
use tenbench::io::{bin, tns};
use tenbench::prelude::*;

/// A random small tensor: order 2–5 (order 5 exercises the
/// comparison-based Morton path that packed 128-bit keys cannot cover),
/// dims 1–12, up to 40 distinct entries.
fn arb_tensor() -> impl Strategy<Value = CooTensor<f32>> {
    (2usize..=5)
        .prop_flat_map(|order| {
            let dims = prop::collection::vec(1u32..12, order);
            dims.prop_flat_map(move |dims| {
                let shape = Shape::new(dims.clone());
                let coord = dims.iter().map(|&d| (0u32..d).boxed()).collect::<Vec<_>>();
                let entry = (coord, -100i32..100).prop_map(|(c, v)| (c, v as f32 * 0.5));
                prop::collection::vec(entry, 0..40).prop_map(move |entries| {
                    CooTensor::from_entries(shape.clone(), entries).unwrap()
                })
            })
        })
        .no_shrink()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hicoo_round_trip(x in arb_tensor(), bits in 1u8..=8) {
        let h = HicooTensor::from_coo(&x, bits).unwrap();
        prop_assert!(h.validate().is_ok());
        prop_assert_eq!(h.to_map(), x.to_map());
        prop_assert_eq!(h.nnz(), x.nnz());
    }

    #[test]
    fn ghicoo_round_trip_any_plan(x in arb_tensor(), bits in 1u8..=8, plan_bits in 0usize..32) {
        let order = x.order();
        let compressed: Vec<bool> = (0..order).map(|m| (plan_bits >> m) & 1 == 1).collect();
        let g = GHicooTensor::from_coo(&x, bits, &compressed).unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.to_map(), x.to_map());
    }

    #[test]
    fn sorting_preserves_entries(x in arb_tensor(), perm_seed in 0usize..24, bits in 1u8..=8) {
        let order = x.order();
        // Build some permutation of the modes from the seed.
        let mut modes: Vec<usize> = (0..order).collect();
        let mut s = perm_seed;
        for i in (1..order).rev() {
            modes.swap(i, s % (i + 1));
            s /= i + 1;
        }
        let mut a = x.clone();
        a.sort_lexicographic(&modes);
        prop_assert_eq!(a.to_map(), x.to_map());
        prop_assert!(a.sort_state().is_lexicographic(&modes));
        let mut b = x.clone();
        b.sort_morton(bits);
        prop_assert_eq!(b.to_map(), x.to_map());
    }

    #[test]
    fn fibers_partition_the_tensor(x in arb_tensor(), mode in 0usize..5) {
        let mode = mode % x.order();
        let mut xm = x.clone();
        let fp = xm.fibers(mode).unwrap();
        let covered: usize = (0..fp.num_fibers()).map(|f| fp.fiber_range(f).len()).sum();
        prop_assert_eq!(covered, x.nnz());
        // Within a fiber, all non-product-mode coordinates agree.
        for f in 0..fp.num_fibers() {
            let r = fp.fiber_range(f);
            for md in 0..x.order() {
                if md == mode { continue; }
                let first = xm.mode_inds(md)[r.start];
                prop_assert!(xm.mode_inds(md)[r.clone()].iter().all(|&i| i == first));
            }
        }
    }

    #[test]
    fn io_round_trips(x in arb_tensor()) {
        let mut text = Vec::new();
        tns::write_tns(&x, &mut text).unwrap();
        let t: CooTensor<f32> = tns::read_tns_with_shape(text.as_slice(), x.shape().clone()).unwrap();
        prop_assert_eq!(t.to_map(), x.to_map());

        let mut blob = Vec::new();
        bin::write_bin(&x, &mut blob).unwrap();
        let b: CooTensor<f32> = bin::read_bin(blob.as_slice()).unwrap();
        prop_assert_eq!(b.to_map(), x.to_map());
        prop_assert_eq!(b.shape(), x.shape());
    }

    #[test]
    fn storage_accounting_is_exact(x in arb_tensor(), bits in 1u8..=8) {
        // COO: 4 bytes per index per mode plus 4 per value.
        let m = x.nnz() as u64;
        prop_assert_eq!(x.storage_bytes(), m * (4 * x.order() as u64 + 4));
        let h = HicooTensor::from_coo(&x, bits).unwrap();
        let nb = h.num_blocks() as u64;
        let n = x.order() as u64;
        prop_assert_eq!(h.storage_bytes(), 8 * (nb + 1) + 4 * n * nb + n * m + 4 * m);
    }
}
