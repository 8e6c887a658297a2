//! The measured CPU suite (Figures 4–5) and simulated GPU suite (Figures
//! 6–7): five kernels x two formats per tensor, with per-tensor Roofline
//! bounds.
//!
//! Measurement methodology follows the paper (§5.1.2): kernels run five
//! times and report the average; Ttv, Ttm, and Mttkrp are further averaged
//! over all tensor modes; `R = 16` reflects low-rank tensor methods; the
//! HiCOO block size is 128 (`block_bits = 7`); pre-processing (sorting,
//! fiber partitions, format conversion, output allocation plans) is done
//! once outside the timed region.

use std::time::Instant;

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::kernels::{EwOp, Kernel};
use tenbench_gen::TensorStats;
use tenbench_gpusim::device::DeviceSpec;
use tenbench_gpusim::kernels as gpuk;
use tenbench_obs as obs;
use tenbench_roofline::bounds;
use tenbench_roofline::model::{Ceiling, Roofline};

use crate::cells::{self, Cell, Inputs, TS_SCALAR};

/// Rank used for Ttm and Mttkrp, as in the paper.
pub(crate) const DEFAULT_RANK: usize = 16;
/// HiCOO block bits (B = 128), as in the paper.
pub(crate) const DEFAULT_BLOCK_BITS: u8 = 7;
/// Repetitions per measurement, as in the paper.
pub const DEFAULT_REPS: usize = 5;

/// The machine a suite run is measured on or modeled for.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Display name.
    pub name: String,
    /// Obtainable (ERT-DRAM) bandwidth in GB/s, for the Roofline bounds.
    pub ert_dram_gbs: f64,
    /// Peak single-precision GFLOPS.
    pub peak_gflops: f64,
}

impl MachineModel {
    /// Model for a simulated GPU.
    pub(crate) fn from_device(dev: &DeviceSpec) -> Self {
        MachineModel {
            name: dev.name.to_string(),
            ert_dram_gbs: dev.dram_bw_gbs,
            peak_gflops: dev.peak_sp_gflops,
        }
    }

    /// The single-ceiling Roofline used to annotate measured cells.
    pub(crate) fn roofline(&self) -> Roofline {
        Roofline {
            name: self.name.clone(),
            peak_gflops: self.peak_gflops,
            ceilings: vec![Ceiling {
                name: "ERT-DRAM".into(),
                gbs: self.ert_dram_gbs,
            }],
        }
    }
}

/// One kernel x format measurement on one tensor.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Which kernel.
    pub kernel: Kernel,
    /// "COO" or "HiCOO".
    pub(crate) format: &'static str,
    /// Average kernel time in seconds (measured or modeled).
    pub time_s: f64,
    /// Achieved GFLOPS (Table 1 work over time).
    pub gflops: f64,
    /// Exact operational intensity used for the bound.
    pub(crate) oi: f64,
    /// Roofline performance bound in GFLOPS.
    pub(crate) bound_gflops: f64,
    /// Arithmetic intensity from the instrumented FLOP/byte counters
    /// charged by the kernel itself (per-call delta over the timed cell).
    pub ai_measured: f64,
    /// Which roof binds at the measured AI: `"memory"` or `"compute"`.
    pub bound_by: &'static str,
    /// Achieved GFLOPS as a percentage of the binding roof at the
    /// measured AI.
    pub pct_of_roof: f64,
}

impl KernelResult {
    /// Performance efficiency vs the Roofline bound (can exceed 1 for
    /// cache-resident tensors).
    pub(crate) fn efficiency(&self) -> f64 {
        if self.bound_gflops > 0.0 {
            self.gflops / self.bound_gflops
        } else {
            0.0
        }
    }
}

/// What [`sample`] measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Mean seconds per call over the timed batches: the figure `tenbench
    /// paper` prints.
    pub(crate) mean_s: f64,
    /// Seconds per call of the fastest batch: the figure the gates use.
    pub(crate) min_s: f64,
    /// Calls made: the calibration call plus `reps` batches.
    pub(crate) calls: u64,
}

/// The one timing loop. One call is timed alone to warm up and to size the
/// inner batch (calls under 1 ms are batched so timer resolution does not
/// dominate), then `reps` batches are timed. `setup` builds what each call
/// consumes and is never inside the timed region; `before_timed` runs
/// between the calibration call and the first batch.
pub(crate) fn sample<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
    before_timed: impl FnOnce(),
) -> Sample {
    let reps = reps.max(1);
    let scratch = setup();
    let t0 = Instant::now();
    std::hint::black_box(run(scratch));
    let once = t0.elapsed().as_secs_f64();
    let batch = if once < 1e-3 {
        ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000)
    } else {
        1
    };
    before_timed();
    let mut total = 0.0;
    let mut min_s = f64::INFINITY;
    for _ in 0..reps {
        let scratch: Vec<S> = (0..batch).map(|_| setup()).collect();
        let t = Instant::now();
        for s in scratch {
            std::hint::black_box(run(s));
        }
        let per_call = t.elapsed().as_secs_f64() / batch as f64;
        total += per_call;
        min_s = min_s.min(per_call);
    }
    Sample {
        mean_s: total / reps as f64,
        min_s,
        calls: (1 + reps * batch) as u64,
    }
}

/// One timed cell with its instrumented-counter deltas: the average call
/// time plus the FLOPs, cost-model bytes, and kernel entries charged while
/// the cell ran. Per-call figures divide by `calls`, which includes the
/// calibration call `sample` makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellMeasure {
    /// Mean seconds per call (`Sample::mean_s`).
    pub(crate) secs: f64,
    /// `kernel.flops` counter delta across the whole cell.
    pub flops: u64,
    /// `kernel.bytes` counter delta across the whole cell.
    pub bytes: u64,
    /// Calls the cell made (`Sample::calls`).
    pub calls: u64,
}

impl CellMeasure {
    /// Fold another cell into this one (counters add; times add — divide
    /// `secs` yourself when averaging over modes).
    pub(crate) fn accumulate(&mut self, other: &CellMeasure) {
        self.secs += other.secs;
        self.flops += other.flops;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }

    /// Place this measurement against a roofline using the per-call
    /// counter deltas (the achieved-GFLOPS / AI / %-of-roof annotation).
    pub(crate) fn annotate(&self, roof: &Roofline) -> tenbench_roofline::model::Achieved {
        let calls = self.calls.max(1);
        roof.annotate(self.flops / calls, self.bytes / calls, self.secs)
    }
}

/// `sample` with counter accounting: reports the `kernel.flops` /
/// `kernel.bytes` deltas across the cell alongside the mean call time. The
/// kernels charge their Table 1 costs on entry, so the deltas are the
/// *measured* work of exactly the calls this cell made (plus any concurrent
/// charges — the counters are process-wide).
pub fn measure_cell<T>(reps: usize, mut f: impl FnMut() -> T) -> CellMeasure {
    use obs::counters as ctr;
    let f0 = ctr::FLOPS.get();
    let b0 = ctr::BYTES.get();
    let s = sample(reps, || (), |()| f(), || ());
    CellMeasure {
        secs: s.mean_s,
        flops: ctr::FLOPS.get().wrapping_sub(f0),
        bytes: ctr::BYTES.get().wrapping_sub(b0),
        calls: s.calls,
    }
}

/// Build the per-mode factor matrices used by Ttm and Mttkrp.
pub fn make_factors(x: &CooTensor<f32>, r: usize) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                (((i * 31 + j * 17 + m * 7) % 1000) as f32) * 1e-3
            })
        })
        .collect()
}

/// A same-pattern element-wise partner for `x` (values doubled).
pub fn make_partner(x: &CooTensor<f32>) -> CooTensor<f32> {
    let mut y = x.clone();
    y.vals_mut().iter_mut().for_each(|v| *v = *v * 2.0 + 0.5);
    y
}

/// The (`--format` value, paper column label) pairs, in the paper's order.
const FORMATS: [(&str, &str); 2] = [("coo", "COO"), ("hicoo", "HiCOO")];

/// Whether the paper averages a kernel's time over all tensor modes.
fn averaged_over_modes(kernel: Kernel) -> bool {
    matches!(kernel, Kernel::Ttv | Kernel::Ttm | Kernel::Mttkrp)
}

/// Divide the accumulated time by the mode count. The counter deltas and
/// call counts stay summed, so per-call figures are mode-averaged too.
fn mode_average(mut acc: CellMeasure, modes: usize) -> CellMeasure {
    acc.secs /= modes as f64;
    acc
}

/// One row of a suite: a measurement placed against the machine's roofline
/// and the paper's bound for its (kernel, format).
fn paper_row(
    kernel: Kernel,
    format: &'static str,
    cell: CellMeasure,
    stats: &TensorStats,
    r: usize,
    machine: &MachineModel,
) -> KernelResult {
    let (order, m, r) = (stats.order, stats.nnz as u64, r as u64);
    let (bw, peak) = (machine.ert_dram_gbs, machine.peak_gflops);
    let mean_mf = stats.mean_fibers() as u64;
    let bound = match kernel {
        Kernel::Tew => bounds::tew_bound(m, bw, peak),
        Kernel::Ts => bounds::ts_bound(m, bw, peak),
        Kernel::Ttv => bounds::ttv_bound(order, m, mean_mf, bw, peak),
        Kernel::Ttm => bounds::ttm_bound(order, m, mean_mf, r, bw, peak),
        Kernel::Mttkrp if format == "COO" => bounds::mttkrp_coo_bound(order, m, r, bw, peak),
        Kernel::Mttkrp => bounds::mttkrp_hicoo_bound(
            order,
            m,
            r,
            stats.hicoo_blocks as u64,
            stats.block_size as u64,
            bw,
            peak,
        ),
    };
    let a = cell.annotate(&machine.roofline());
    KernelResult {
        kernel,
        format,
        time_s: cell.secs,
        gflops: a.gflops,
        oi: bound.oi,
        bound_gflops: bound.gflops,
        ai_measured: a.oi,
        bound_by: a.bound_by,
        pct_of_roof: a.pct_of_roof,
    }
}

/// Run the full measured CPU suite on one tensor: the paper's ten cells
/// (the ones the reference strategy `"atomic"` selects), each through
/// [`measure_cell`].
pub fn run_cpu_suite(
    x: &CooTensor<f32>,
    machine: &MachineModel,
    r: usize,
    block_bits: u8,
    reps: usize,
) -> Vec<KernelResult> {
    let stats = TensorStats::compute(x, block_bits).expect("valid block bits");
    let inputs = Inputs::new(x.clone(), r, block_bits);
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        for (format, label) in FORMATS {
            let cell = Cell::resolve(kernel.name(), format, "atomic").expect("a paper cell");
            let modes = if averaged_over_modes(kernel) {
                x.order()
            } else {
                1
            };
            let mut acc = CellMeasure::default();
            for mode in 0..modes {
                let p = cells::prepare(&inputs, cell, mode).expect("valid suite inputs");
                acc.accumulate(&measure_cell(reps, || p.call().unwrap()));
            }
            let cell = mode_average(acc, modes);
            out.push(paper_row(kernel, label, cell, &stats, r, machine));
        }
    }
    out
}

/// Run the full simulated GPU suite on one tensor.
pub(crate) fn run_gpu_suite(
    x: &CooTensor<f32>,
    dev: &DeviceSpec,
    r: usize,
    block_bits: u8,
) -> Vec<KernelResult> {
    let stats = TensorStats::compute(x, block_bits).expect("valid block bits");
    let machine = MachineModel::from_device(dev);

    // The same operands the CPU cells read.
    let inputs = Inputs::new(x.clone(), r, block_bits);
    let y = &*inputs.y;
    let hx = inputs.hx().expect("valid block bits");
    let hy = inputs.hy().expect("valid block bits");
    let frefs: Vec<&DenseMatrix<f32>> = inputs.factors.iter().collect();

    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        for (format, label) in FORMATS {
            let modes = if averaged_over_modes(kernel) {
                x.order()
            } else {
                1
            };
            let mut acc = CellMeasure::default();
            for mode in 0..modes {
                let v = inputs.vector(mode);
                let u = &inputs.factors[mode];
                let s = match (kernel, format) {
                    (Kernel::Tew, "coo") => gpuk::tew_coo_gpu(dev, x, y, EwOp::Add).unwrap().1,
                    (Kernel::Tew, _) => gpuk::tew_hicoo_gpu(dev, &hx, &hy, EwOp::Add).unwrap().1,
                    (Kernel::Ts, "coo") => {
                        gpuk::ts_coo_gpu(dev, x, TS_SCALAR, EwOp::Mul).unwrap().1
                    }
                    (Kernel::Ts, _) => {
                        gpuk::ts_hicoo_gpu(dev, &hx, TS_SCALAR, EwOp::Mul)
                            .unwrap()
                            .1
                    }
                    (Kernel::Ttv, "coo") => gpuk::ttv_coo_gpu(dev, x, &v, mode).unwrap().1,
                    (Kernel::Ttv, _) => gpuk::ttv_hicoo_gpu(dev, &hx, &v, mode).unwrap().1,
                    (Kernel::Ttm, "coo") => gpuk::ttm_coo_gpu(dev, x, u, mode).unwrap().1,
                    (Kernel::Ttm, _) => gpuk::ttm_hicoo_gpu(dev, &hx, u, mode).unwrap().1,
                    (Kernel::Mttkrp, "coo") => {
                        gpuk::mttkrp_coo_gpu(dev, x, &frefs, mode).unwrap().1
                    }
                    (Kernel::Mttkrp, _) => {
                        gpuk::mttkrp_hicoo_gpu(dev, &hx, &frefs, mode).unwrap().1
                    }
                };
                // Simulated launches report modeled FLOPs and DRAM bytes
                // directly, so the annotation uses the simulator's own
                // accounting in place of the CPU counters.
                acc.accumulate(&CellMeasure {
                    secs: s.time_s,
                    flops: s.flops,
                    bytes: s.dram_bytes,
                    calls: 1,
                });
            }
            let cell = mode_average(acc, modes);
            out.push(paper_row(kernel, label, cell, &stats, r, &machine));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use tenbench_gen::registry::find;

    use super::*;

    fn small_tensor() -> CooTensor<f32> {
        find("s4").unwrap().generate_with(4000, 7)
    }

    fn host() -> MachineModel {
        MachineModel {
            name: "test-host".into(),
            ert_dram_gbs: 20.0,
            peak_gflops: 200.0,
        }
    }

    #[test]
    fn cpu_suite_covers_all_kernels_and_formats() {
        let x = small_tensor();
        let res = run_cpu_suite(&x, &host(), 8, 4, 1);
        assert_eq!(res.len(), 10);
        for r in &res {
            assert!(r.time_s > 0.0, "{:?}", r.kernel);
            assert!(r.gflops > 0.0);
            assert!(r.bound_gflops > 0.0);
            assert!(r.oi > 0.0);
            // The roofline annotation comes from the instrumented
            // counters: every row must carry a measured AI, a binding
            // roof, and a % of roof.
            assert!(r.ai_measured > 0.0, "{:?}/{}", r.kernel, r.format);
            assert!(r.pct_of_roof > 0.0, "{:?}/{}", r.kernel, r.format);
            assert!(
                r.bound_by == "memory" || r.bound_by == "compute",
                "{:?}",
                r.bound_by
            );
        }
        let kernels: Vec<&str> = res.iter().map(|r| r.kernel.name()).collect();
        assert_eq!(kernels.iter().filter(|&&k| k == "Mttkrp").count(), 2);
    }

    #[test]
    fn gpu_suite_covers_all_kernels_and_formats() {
        let x = small_tensor();
        let dev = DeviceSpec::p100();
        let res = run_gpu_suite(&x, &dev, 8, 4);
        assert_eq!(res.len(), 10);
        for r in &res {
            assert!(r.time_s > 0.0);
            assert!(r.gflops > 0.0);
            assert!(r.ai_measured > 0.0);
            assert!(r.pct_of_roof > 0.0);
        }
    }

    #[test]
    fn sample_batches_fast_functions() {
        let mut n = 0u64;
        let s = sample(2, || (), |()| n += 1, || ());
        assert!(s.min_s >= 0.0 && s.min_s <= s.mean_s);
        assert!(n > 3); // batching kicked in
        assert_eq!(s.calls, n);
    }
}
