//! Streaming edge generation — the FireHose front-end the paper extends
//! (§4.2.2): "the generator produces a stream of edges that when combined
//! form a graph respecting the power law distribution. This is used to
//! create tensors by combining together the sparse graphs to form slices
//! of a third order tensor ... This process, when repeated on 3rd order
//! tensors can generate a sparse tensor with N modes."
//!
//! [`EdgeStream`] is the unbounded packet source; [`stack_slices`] folds
//! consecutive stream windows into the slices of a third-order tensor
//! (values count packet multiplicity within a window, FireHose-style).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;

use crate::zipf::ZipfSampler;

/// An unbounded stream of `(src, dst)` edge packets whose endpoints follow
/// bounded power laws — the biased generator's output.
#[derive(Debug)]
pub struct EdgeStream {
    src: ZipfSampler,
    dst: ZipfSampler,
    rng: StdRng,
}

impl EdgeStream {
    /// A stream over `src_dim x dst_dim` endpoints with exponent `alpha`.
    pub fn new(src_dim: u32, dst_dim: u32, alpha: f64, seed: u64) -> Self {
        EdgeStream {
            src: ZipfSampler::new(src_dim as u64, alpha),
            dst: ZipfSampler::new(dst_dim as u64, alpha),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for EdgeStream {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        Some((
            self.src.sample_index(&mut self.rng) as u32,
            self.dst.sample_index(&mut self.rng) as u32,
        ))
    }
}

/// Consume `num_slices` windows of `edges_per_slice` packets and stack them
/// as the slices of a third-order `src x dst x num_slices` tensor. The
/// value of `(i, j, k)` is the number of times edge `(i, j)` appeared in
/// window `k` (packet counting, as in FireHose's analytics).
pub fn stack_slices(
    stream: &mut EdgeStream,
    src_dim: u32,
    dst_dim: u32,
    edges_per_slice: usize,
    num_slices: usize,
) -> CooTensor<f32> {
    let mut counts: HashMap<(u32, u32, u32), u32> = HashMap::new();
    for k in 0..num_slices as u32 {
        for _ in 0..edges_per_slice {
            let (i, j) = stream.next().expect("stream is unbounded");
            *counts.entry((i, j, k)).or_insert(0) += 1;
        }
    }
    let entries: Vec<(Vec<u32>, f32)> = counts
        .into_iter()
        .map(|((i, j, k), c)| (vec![i, j, k], c as f32))
        .collect();
    CooTensor::from_entries(
        Shape::new(vec![src_dim, dst_dim, num_slices as u32]),
        entries,
    )
    .expect("coordinates in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_in_range() {
        let a: Vec<(u32, u32)> = EdgeStream::new(1000, 500, 1.5, 7).take(200).collect();
        let b: Vec<(u32, u32)> = EdgeStream::new(1000, 500, 1.5, 7).take(200).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&(i, j)| i < 1000 && j < 500));
        let c: Vec<(u32, u32)> = EdgeStream::new(1000, 500, 1.5, 8).take(200).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn slices_partition_the_packet_budget() {
        let mut s = EdgeStream::new(4096, 4096, 1.4, 1);
        let t = stack_slices(&mut s, 4096, 4096, 2_000, 5);
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape().dims()[2], 5);
        // Total multiplicity equals the packet count.
        let total: f64 = t.vals().iter().map(|&v| v as f64).sum();
        assert_eq!(total, 10_000.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn hot_edges_accumulate_multiplicity() {
        // With a strong bias the head edge repeats within a window.
        let mut s = EdgeStream::new(100_000, 100_000, 2.0, 3);
        let t = stack_slices(&mut s, 100_000, 100_000, 20_000, 1);
        let max_count = t.vals().iter().cloned().fold(0.0f32, f32::max);
        assert!(max_count > 1.0, "no repeated packets at all?");
        assert!(t.nnz() < 20_000);
    }

    #[test]
    fn every_slice_is_nonempty() {
        let mut s = EdgeStream::new(512, 512, 1.3, 11);
        let t = stack_slices(&mut s, 512, 512, 300, 8);
        let mut seen = [false; 8];
        for &k in t.mode_inds(2) {
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
