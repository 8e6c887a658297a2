//! Degenerate-tensor battery: every cell of `tenbench_bench::cells` — every
//! kernel on both formats under every strategy, and both conversion
//! pipelines — must handle an empty (nnz = 0) tensor and a singleton
//! (nnz = 1) tensor, as well as an order-3 and an order-4 one, at 1 and 4
//! threads, without panicking and without producing non-finite values, and
//! the statistics and Roofline paths that summarize them must stay finite
//! too. A serving layer cannot pick its inputs, so "no nonzeros" is an
//! input class, not an error.

use std::sync::Arc;

use tenbench_bench::cells::{prepare, Cell, Inputs, Output, CELLS, STRATEGIES};
use tenbench_bench::supervisor::{mttkrp_reference_digest, validate_matrix, SupervisorConfig};
use tenbench_core::coo::CooTensor;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::Kernel;
use tenbench_core::shape::Shape;

const RANK: usize = 4;
const BLOCK_BITS: u8 = 3;

fn empty() -> CooTensor<f32> {
    CooTensor::empty(Shape::new(vec![8, 8, 8]))
}

fn singleton() -> CooTensor<f32> {
    CooTensor::from_entries(Shape::new(vec![8, 8, 8]), vec![(vec![3, 5, 2], 2.5)]).unwrap()
}

/// `nnz` distinct nonzeros spread over `dims` (37 is coprime to both
/// products used here, so the linear indices never repeat).
fn spread(dims: &[u32], nnz: u32) -> CooTensor<f32> {
    let total: u32 = dims.iter().product();
    let entries = (0..nnz)
        .map(|i| {
            let mut lin = (i * 37) % total;
            let coords = dims
                .iter()
                .map(|&d| {
                    let c = lin % d;
                    lin /= d;
                    c
                })
                .collect();
            (coords, (i % 17) as f32 * 0.5 + 1.0)
        })
        .collect();
    CooTensor::from_entries(Shape::new(dims.to_vec()), entries).unwrap()
}

#[test]
fn every_cell_runs_and_validates_on_every_tensor_class() {
    let mut names: Vec<&str> = CELLS.iter().map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CELLS.len(), "cell names are unique");

    let cfg = SupervisorConfig::default();
    let tensors = [
        ("order3", spread(&[20, 16, 12], 900)),
        ("order4", spread(&[12, 10, 9, 7], 600)),
        ("empty", empty()),
        ("singleton", singleton()),
    ];
    println!("{:<22} {:<10} threads modes", "cell", "tensor");
    for (tname, x) in &tensors {
        let inputs = Inputs::new(x.clone(), RANK, BLOCK_BITS);
        let mut converted = Vec::new();
        for cell in &CELLS {
            for threads in [1, 4] {
                for mode in 0..x.order() {
                    let label = format!("{}/{tname}/{threads}t/mode{mode}", cell.name);
                    let out = tenbench_core::par::with_threads(threads, || {
                        prepare(&inputs, cell, mode).and_then(|p| p.call())
                    })
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(out.nonfinite(), 0, "{label}");
                    if matches!(cell.kernel, Some(Kernel::Tew | Kernel::Ts)) {
                        assert_eq!(out.vals().len(), x.nnz(), "{label}");
                    }
                    match out {
                        Output::Matrix(m) => {
                            let reference =
                                mttkrp_reference_digest(x, &inputs.factors, mode, cfg.sample)
                                    .unwrap();
                            validate_matrix(&m, &reference, cfg.sample, cfg.rel_tol)
                                .unwrap_or_else(|e| panic!("{label}: {e}"));
                        }
                        Output::Hicoo(h) if cell.kernel.is_none() => converted.push(h),
                        _ => {}
                    }
                }
                println!(
                    "{:<22} {tname:<10} {threads:<7} 0..{}",
                    cell.name,
                    x.order()
                );
            }
        }
        // Radix and comparator conversions, at every width, agree.
        let reference = HicooTensor::from_coo(x, BLOCK_BITS).unwrap();
        assert_eq!(converted.len(), 2 * 2 * x.order(), "{tname}");
        assert!(converted.iter().all(|h| *h == reference), "{tname}");
    }
}

#[test]
fn documented_kernel_format_strategy_triples_resolve() {
    for kernel in Kernel::ALL {
        for format in ["coo", "hicoo"] {
            for strategy in STRATEGIES {
                let cell = Cell::resolve(&kernel.name().to_lowercase(), format, strategy)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(cell.kernel, Some(kernel));
                assert_eq!(cell.format, format);
            }
        }
    }
    // "ttv on hicoo" is one of two named cells, chosen by the strategy.
    let name = |s| Cell::resolve("ttv", "hicoo", s).unwrap().name;
    assert_eq!(name("atomic"), "ttv.ghicoo");
    assert_eq!(name("scheduled"), "ttv.hicoo_sched");
    let err = Cell::resolve("ttv", "hicoo", "bogus")
        .err()
        .expect("rejected");
    assert!(err.contains("ttv.hicoo_sched"), "{err}");
    assert!(Cell::resolve("convert", "hicoo", "atomic").is_err());
    assert!(Cell::resolve("ttv", "csf", "atomic").is_err());
}

#[test]
fn empty_tensor_statistics_stay_finite() {
    let x = empty();
    let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
    assert_eq!(hx.num_blocks(), 0);
    // The mean over zero blocks is defined as 0, not 0/0.
    assert!(hx.mean_nnz_per_block().is_finite());
    let stats = tenbench_gen::TensorStats::compute(&x, BLOCK_BITS).unwrap();
    assert!(stats.density.is_finite());
    assert!(stats.mean_nnz_per_block.is_finite());
}

#[test]
fn roofline_annotation_of_a_zero_work_cell_stays_finite() {
    // A shed or empty cell reports zero flops and zero bytes; the model
    // must annotate it with finite figures (OI defined as 0), because
    // these numbers flow into hand-rolled JSON.
    let model = tenbench_roofline::Roofline::from_platform(&tenbench_roofline::PLATFORMS[0]);
    let z = model.annotate(0, 0, 0.0);
    assert!(z.oi.is_finite(), "oi = {}", z.oi);
    assert!(z.bound_gflops.is_finite());
    assert!(z.pct_of_roof.is_finite());
    let z = model.annotate(100, 0, 0.0);
    assert!(z.oi.is_finite(), "oi = {}", z.oi);
}

#[test]
fn degenerate_tensors_serve_through_the_service() {
    use tenbench_serve::{DirectExecutor, FormatKind, KernelService, Request, ServeConfig};
    let svc = KernelService::start(
        ServeConfig {
            workers: 1,
            block_bits: BLOCK_BITS,
            ..ServeConfig::default()
        },
        Box::new(DirectExecutor),
    );
    for x in [Arc::new(empty()), Arc::new(singleton())] {
        for kernel in Kernel::ALL {
            for format in [FormatKind::Coo, FormatKind::Hicoo] {
                let r = svc
                    .submit(Request {
                        kernel,
                        format,
                        mode: 0,
                        rank: RANK,
                        tensor: x.clone(),
                        deadline: None,
                    })
                    .expect("admitted")
                    .wait()
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}/{} on nnz={}: {e}",
                            kernel.name(),
                            format.as_str(),
                            x.nnz()
                        )
                    });
                assert!(r.digest.is_finite());
            }
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.failed, 0);
}
