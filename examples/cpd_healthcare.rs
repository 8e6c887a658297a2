//! CP decomposition of a healthcare-analytics-style tensor.
//!
//! The paper motivates Mttkrp as the bottleneck of CANDECOMP/PARAFAC, with
//! healthcare analytics (the CHOA patient x diagnosis x time tensor) among
//! its applications. This example decomposes the `r3` ("choa") surrogate
//! and reports fit and per-iteration Mttkrp throughput.
//!
//! ```text
//! cargo run --release --example cpd_healthcare
//! ```

use std::time::Instant;

use tenbench::core::kernels::Kernel;
use tenbench::core::methods::{cp_als, CpAlsOptions};
use tenbench::gen::registry::find;

fn main() {
    let dataset = find("r3").expect("registry has r3");
    let x = dataset.generate_with(60_000, 42);
    println!(
        "Surrogate '{}' tensor: {} (order {}), {} nonzeros",
        dataset.name,
        x.shape(),
        x.order(),
        x.nnz()
    );

    for rank in [4usize, 8, 16] {
        let opts = CpAlsOptions {
            rank,
            max_iters: 20,
            tol: 1e-4,
            seed: 7,
            backend: Default::default(),
        };
        let t0 = Instant::now();
        let d = cp_als(&x, &opts).expect("cp-als");
        let dt = t0.elapsed().as_secs_f64();
        // Each sweep runs one Mttkrp per mode.
        let mttkrps = d.iterations * x.order();
        let flops = Kernel::Mttkrp.flops(x.order(), x.nnz() as u64, rank as u64) * mttkrps as u64;
        println!(
            "rank {rank:>2}: fit {:.4} after {} sweeps in {:.2}s (~{:.2} GFLOPS of Mttkrp work)",
            d.fit,
            d.iterations,
            dt,
            flops as f64 / dt / 1e9
        );
        // Show the dominant component's weight.
        let mut lambda: Vec<f64> = d.lambda.iter().map(|&l| l as f64).collect();
        lambda.sort_by(|a, b| b.partial_cmp(a).unwrap());
        println!(
            "         top component weights: {:?}",
            &lambda[..rank.min(4)]
        );
    }
}
