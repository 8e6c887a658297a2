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

use std::sync::Arc;
use std::time::Instant;

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{GHicooTensor, HicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::par::Schedule;
use tenbench_gen::TensorStats;
use tenbench_gpusim::device::DeviceSpec;
use tenbench_gpusim::kernels as gpuk;
use tenbench_obs as obs;
use tenbench_roofline::bounds;
use tenbench_roofline::model::{Ceiling, Roofline};

use crate::supervisor::{
    mttkrp_reference_digest, supervise, validate_matrix, RunStatus, SupervisorConfig, Trial,
};

/// Rank used for Ttm and Mttkrp, as in the paper.
pub const DEFAULT_RANK: usize = 16;
/// HiCOO block bits (B = 128), as in the paper.
pub const DEFAULT_BLOCK_BITS: u8 = 7;
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
    pub fn from_device(dev: &DeviceSpec) -> Self {
        MachineModel {
            name: dev.name.to_string(),
            ert_dram_gbs: dev.dram_bw_gbs,
            peak_gflops: dev.peak_sp_gflops,
        }
    }

    /// The single-ceiling Roofline used to annotate measured cells.
    pub fn roofline(&self) -> Roofline {
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
    pub format: &'static str,
    /// Average kernel time in seconds (measured or modeled).
    pub time_s: f64,
    /// Achieved GFLOPS (Table 1 work over time).
    pub gflops: f64,
    /// Exact operational intensity used for the bound.
    pub oi: f64,
    /// Roofline performance bound in GFLOPS.
    pub bound_gflops: f64,
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
    pub fn efficiency(&self) -> f64 {
        if self.bound_gflops > 0.0 {
            self.gflops / self.bound_gflops
        } else {
            0.0
        }
    }
}

/// Average wall time of `f` over `reps` runs, with inner batching for
/// sub-millisecond kernels so timer resolution does not dominate.
pub fn time_avg<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // Calibrate: one untimed warmup that also sizes the inner batch.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let batch = if once < 1e-3 {
        ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000)
    } else {
        1
    };
    let mut total = 0.0;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        total += t.elapsed().as_secs_f64() / batch as f64;
    }
    total / reps.max(1) as f64
}

/// One timed cell with its instrumented-counter deltas: the average call
/// time plus the FLOPs, cost-model bytes, and kernel entries charged while
/// the cell ran. Per-call figures divide by `calls`, which includes the
/// calibration warmup [`time_avg`] performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellMeasure {
    /// Average seconds per call (see [`time_avg`]).
    pub secs: f64,
    /// `kernel.flops` counter delta across the whole cell.
    pub flops: u64,
    /// `kernel.bytes` counter delta across the whole cell.
    pub bytes: u64,
    /// `kernel.calls` counter delta across the whole cell.
    pub calls: u64,
}

impl CellMeasure {
    /// Fold another cell into this one (counters add; times add — divide
    /// `secs` yourself when averaging over modes).
    pub fn accumulate(&mut self, other: &CellMeasure) {
        self.secs += other.secs;
        self.flops += other.flops;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }

    /// Place this measurement against a roofline using the per-call
    /// counter deltas (the achieved-GFLOPS / AI / %-of-roof annotation).
    pub fn annotate(&self, roof: &Roofline) -> tenbench_roofline::model::Achieved {
        let calls = self.calls.max(1);
        roof.annotate(self.flops / calls, self.bytes / calls, self.secs)
    }
}

/// [`time_avg`] with counter accounting: enables the obs counters for the
/// duration and reports the `kernel.flops` / `kernel.bytes` /
/// `kernel.calls` deltas alongside the average call time. The kernels
/// charge their Table 1 costs on entry, so the deltas are the *measured*
/// work of exactly the calls this cell made (plus any concurrent charges —
/// the counters are process-wide).
pub fn measure_cell<F: FnMut()>(reps: usize, f: F) -> CellMeasure {
    use obs::counters as ctr;
    let _scope = ctr::counters_scope();
    let f0 = ctr::FLOPS.get();
    let b0 = ctr::BYTES.get();
    let c0 = ctr::KERNEL_CALLS.get();
    let secs = time_avg(reps, f);
    CellMeasure {
        secs,
        flops: ctr::FLOPS.get().wrapping_sub(f0),
        bytes: ctr::BYTES.get().wrapping_sub(b0),
        calls: ctr::KERNEL_CALLS.get().wrapping_sub(c0),
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

/// Run the full measured CPU suite on one tensor.
pub fn run_cpu_suite(
    x: &CooTensor<f32>,
    machine: &MachineModel,
    r: usize,
    block_bits: u8,
    reps: usize,
) -> Vec<KernelResult> {
    let stats = TensorStats::compute(x, block_bits);
    let order = x.order();
    let m = x.nnz() as u64;
    let bw = machine.ert_dram_gbs;
    let peak = machine.peak_gflops;

    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, block_bits).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, block_bits).expect("valid block bits");
    let factors = make_factors(x, r);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();

    let roof = machine.roofline();
    let mut out = Vec::new();
    let push = |out: &mut Vec<KernelResult>,
                kernel: Kernel,
                format: &'static str,
                cell: CellMeasure,
                bound: bounds::KernelBound| {
        let a = cell.annotate(&roof);
        out.push(KernelResult {
            kernel,
            format,
            time_s: cell.secs,
            gflops: a.gflops,
            oi: bound.oi,
            bound_gflops: bound.gflops,
            ai_measured: a.oi,
            bound_by: a.bound_by,
            pct_of_roof: a.pct_of_roof,
        });
    };

    // Tew / Ts: nonzero-parallel value loops.
    let cell = measure_cell(reps, || {
        std::hint::black_box(tew::tew_same_pattern(x, &y, EwOp::Add).unwrap());
    });
    push(
        &mut out,
        Kernel::Tew,
        "COO",
        cell,
        bounds::tew_bound(m, bw, peak),
    );
    let cell = measure_cell(reps, || {
        std::hint::black_box(tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add).unwrap());
    });
    push(
        &mut out,
        Kernel::Tew,
        "HiCOO",
        cell,
        bounds::tew_bound(m, bw, peak),
    );

    let cell = measure_cell(reps, || {
        std::hint::black_box(ts::ts(x, 1.000_1, EwOp::Mul).unwrap());
    });
    push(
        &mut out,
        Kernel::Ts,
        "COO",
        cell,
        bounds::ts_bound(m, bw, peak),
    );
    let cell = measure_cell(reps, || {
        std::hint::black_box(ts::ts_hicoo(&hx, 1.000_1, EwOp::Mul).unwrap());
    });
    push(
        &mut out,
        Kernel::Ts,
        "HiCOO",
        cell,
        bounds::ts_bound(m, bw, peak),
    );

    // Ttv / Ttm / Mttkrp: averaged over modes; pre-processing untimed.
    let mean_mf = stats.mean_fibers() as u64;
    let mut ttv_coo = CellMeasure::default();
    let mut ttv_hic = CellMeasure::default();
    let mut ttm_coo = CellMeasure::default();
    let mut ttm_hic = CellMeasure::default();
    let mut mtt_coo = CellMeasure::default();
    let mut mtt_hic = CellMeasure::default();
    for mode in 0..order {
        let mut xm = x.clone();
        let fp = xm.fibers(mode).expect("mode in range");
        let g = GHicooTensor::from_coo_for_mode(x, block_bits, mode).expect("valid plan");
        let gfp = g.fibers(mode).expect("ttv layout");
        let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01);
        let u = &factors[mode];

        ttv_coo.accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttv::ttv_prepared(&xm, &fp, &v, Schedule::default()).unwrap());
        }));
        ttv_hic.accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttv::ttv_ghicoo(&g, &gfp, &v, Schedule::default()).unwrap());
        }));
        ttm_coo.accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttm::ttm_prepared(&xm, &fp, u, Schedule::default()).unwrap());
        }));
        ttm_hic.accumulate(&measure_cell(reps, || {
            std::hint::black_box(ttm::ttm_ghicoo(&g, &gfp, u, Schedule::default()).unwrap());
        }));
        mtt_coo.accumulate(&measure_cell(reps, || {
            std::hint::black_box(mttkrp::mttkrp_atomic(x, &frefs, mode).unwrap());
        }));
        mtt_hic.accumulate(&measure_cell(reps, || {
            std::hint::black_box(mttkrp::mttkrp_hicoo(&hx, &frefs, mode).unwrap());
        }));
    }
    // Mode-averaged rows: average the per-call time; the counter deltas
    // and call counts sum, so per-call figures stay mode-averaged too.
    let n = order as f64;
    for c in [
        &mut ttv_coo,
        &mut ttv_hic,
        &mut ttm_coo,
        &mut ttm_hic,
        &mut mtt_coo,
        &mut mtt_hic,
    ] {
        c.secs /= n;
    }
    push(
        &mut out,
        Kernel::Ttv,
        "COO",
        ttv_coo,
        bounds::ttv_bound(order, m, mean_mf, bw, peak),
    );
    push(
        &mut out,
        Kernel::Ttv,
        "HiCOO",
        ttv_hic,
        bounds::ttv_bound(order, m, mean_mf, bw, peak),
    );
    push(
        &mut out,
        Kernel::Ttm,
        "COO",
        ttm_coo,
        bounds::ttm_bound(order, m, mean_mf, r as u64, bw, peak),
    );
    push(
        &mut out,
        Kernel::Ttm,
        "HiCOO",
        ttm_hic,
        bounds::ttm_bound(order, m, mean_mf, r as u64, bw, peak),
    );
    push(
        &mut out,
        Kernel::Mttkrp,
        "COO",
        mtt_coo,
        bounds::mttkrp_coo_bound(order, m, r as u64, bw, peak),
    );
    push(
        &mut out,
        Kernel::Mttkrp,
        "HiCOO",
        mtt_hic,
        bounds::mttkrp_hicoo_bound(
            order,
            m,
            r as u64,
            stats.hicoo_blocks as u64,
            stats.block_size as u64,
            bw,
            peak,
        ),
    );
    out
}

/// One row of the Mttkrp scheduling ablation: a strategy/format pair with
/// its per-mode-averaged kernel time and supervised run status.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Strategy label, e.g. `"coo/scheduled"` or `"hicoo/atomic"`.
    pub name: String,
    /// Average time per Mttkrp call in seconds (averaged over modes).
    /// Infinite when the row did not produce a trusted number.
    pub time_s: f64,
    /// Throughput in millions of nonzero-updates per second
    /// (`order * nnz * R / time`); zero for failed rows.
    pub melem_s: f64,
    /// Supervised status: `Ok` for a clean run, or the failure that kept
    /// this strategy from producing a trusted number.
    pub status: crate::supervisor::RunStatus,
}

/// Measure every COO Mttkrp strategy plus atomic and scheduled HiCOO
/// Mttkrp on one tensor, averaged over all modes. Schedule construction is
/// pre-warmed outside the timed region (the schedule is cached and reused
/// across calls, matching the suite's untimed pre-processing methodology).
/// Runs supervised with no wall-clock cap; a panicking or invalid strategy
/// yields a failed row instead of killing the ablation.
pub fn run_mttkrp_ablation(
    x: &CooTensor<f32>,
    r: usize,
    block_bits: u8,
    reps: usize,
) -> Vec<AblationRow> {
    run_mttkrp_ablation_supervised(x, r, block_bits, reps, &SupervisorConfig::default())
}

/// The strategy labels `run_mttkrp_ablation_supervised` reports, in order.
pub const ABLATION_STRATEGIES: [&str; 6] = [
    "coo/seq",
    "coo/atomic",
    "coo/privatized",
    "coo/scheduled",
    "hicoo/atomic",
    "hicoo/scheduled",
];

/// Supervised Mttkrp ablation: every cell runs on a watchdogged worker
/// thread and its output is checksum-validated against the sequential
/// reference. Each row is a single strategy, so there is no fallback
/// chain — a strategy that panics, times out, or produces bad numbers is
/// reported as a failed row (`time_s` infinite, `melem_s` zero) and the
/// remaining rows still run.
pub fn run_mttkrp_ablation_supervised(
    x: &CooTensor<f32>,
    r: usize,
    block_bits: u8,
    reps: usize,
    cfg: &SupervisorConfig,
) -> Vec<AblationRow> {
    run_mttkrp_ablation_supervised_at(x, r, block_bits, reps, None, cfg)
}

/// [`run_mttkrp_ablation_supervised`] pinned to an explicit pool size.
///
/// The supervisor runs each trial on a freshly spawned watchdog thread, so
/// a `with_threads` scope around the whole ablation would not reach the
/// measured kernels (the pool-size override is thread-local). Instead the
/// override is installed *inside* each trial closure, on the watchdog
/// thread itself. `None` keeps whatever pool size the watchdog thread
/// defaults to.
pub fn run_mttkrp_ablation_supervised_at(
    x: &CooTensor<f32>,
    r: usize,
    block_bits: u8,
    reps: usize,
    threads: Option<usize>,
    cfg: &SupervisorConfig,
) -> Vec<AblationRow> {
    use tenbench_core::kernels::mttkrp::MttkrpStrategy;
    use tenbench_core::sched;

    #[derive(Clone, Copy)]
    enum Variant {
        Coo(MttkrpStrategy),
        HicooAtomic,
        HicooSched,
    }
    let variants: [(&str, Variant); 6] = [
        ("coo/seq", Variant::Coo(MttkrpStrategy::Seq)),
        ("coo/atomic", Variant::Coo(MttkrpStrategy::Atomic)),
        ("coo/privatized", Variant::Coo(MttkrpStrategy::Privatized)),
        ("coo/scheduled", Variant::Coo(MttkrpStrategy::Scheduled)),
        ("hicoo/atomic", Variant::HicooAtomic),
        ("hicoo/scheduled", Variant::HicooSched),
    ];

    let order = x.order();
    let m = x.nnz() as u64;
    let elems = (order as u64) * m * r as u64;
    let xa = Arc::new(x.clone());
    let factors = Arc::new(make_factors(x, r));
    let hx = Arc::new(HicooTensor::from_coo(x, block_bits).expect("valid block bits"));
    // Pre-warm the schedule cache for every mode, under the same pool
    // size the trials will install (schedules are keyed on thread count).
    let warm = || {
        for mode in 0..order {
            let _ = sched::row_schedule(x, mode);
            let _ = sched::mode_schedule(&hx, mode);
        }
    };
    match threads {
        Some(t) => tenbench_core::par::with_threads(t, warm),
        None => warm(),
    }
    // Sequential reference digests, one per mode (the trust anchor every
    // cell is validated against).
    let refs: Vec<Vec<f64>> = match (0..order)
        .map(|mode| mttkrp_reference_digest(x, &factors, mode, cfg.sample))
        .collect()
    {
        Ok(v) => v,
        Err(e) => {
            return variants
                .iter()
                .map(|(name, _)| AblationRow {
                    name: name.to_string(),
                    time_s: f64::INFINITY,
                    melem_s: 0.0,
                    status: RunStatus::Failed(format!("sequential reference failed: {e}")),
                })
                .collect()
        }
    };

    let mut rows = Vec::new();
    for (name, variant) in variants {
        let mut total = 0.0;
        let mut status = RunStatus::Ok;
        for mode in 0..order {
            let xa = xa.clone();
            let factors = factors.clone();
            let hx = hx.clone();
            let trial = Trial::new(name, move || {
                let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
                let run_once = || {
                    match variant {
                        Variant::Coo(s) => mttkrp::mttkrp_with(&xa, &frefs, mode, s),
                        Variant::HicooAtomic => mttkrp::mttkrp_hicoo(&hx, &frefs, mode),
                        Variant::HicooSched => mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode),
                    }
                    .map_err(|e| e.to_string())
                };
                let body = || {
                    let out = run_once()?;
                    let secs = time_avg(reps, || {
                        std::hint::black_box(run_once().unwrap());
                    });
                    Ok((secs, out))
                };
                match threads {
                    Some(t) => tenbench_core::par::with_threads(t, body),
                    None => body(),
                }
            });
            let reference = &refs[mode];
            // Each cell gets its own trace context: the supervisor relays
            // it onto the watchdog thread, so a traced ablation renders
            // one connected lane per cell and a fault dump names the cell
            // that was executing.
            let cell_ctx = obs::TraceCtx::mint("cell");
            let _cell_guard = obs::ctx::install(cell_ctx);
            obs::ctx::async_begin("cell", cell_ctx);
            let (report, value) = supervise(
                &format!("mttkrp/{name}/mode{mode}"),
                &[trial],
                |(_, out): &(f64, DenseMatrix<f32>)| {
                    validate_matrix(out, reference, cfg.sample, cfg.rel_tol)
                },
                cfg,
            );
            obs::ctx::async_end("cell", cell_ctx);
            match value {
                Some((secs, _)) => {
                    total += secs;
                    // A retry that recovered still taints the row's status.
                    if status == RunStatus::Ok && report.status != RunStatus::Ok {
                        status = report.status;
                    }
                }
                None => {
                    status = report.status;
                    break;
                }
            }
        }
        let (time_s, melem_s) = if status.is_success() {
            let t = total / order as f64;
            (t, elems as f64 / t / 1e6)
        } else {
            (f64::INFINITY, 0.0)
        };
        rows.push(AblationRow {
            name: name.to_string(),
            time_s,
            melem_s,
            status,
        });
    }
    rows
}

/// Run the full simulated GPU suite on one tensor.
pub fn run_gpu_suite(
    x: &CooTensor<f32>,
    dev: &DeviceSpec,
    r: usize,
    block_bits: u8,
) -> Vec<KernelResult> {
    let stats = TensorStats::compute(x, block_bits);
    let machine = MachineModel::from_device(dev);
    let order = x.order();
    let m = x.nnz() as u64;
    let bw = machine.ert_dram_gbs;
    let peak = machine.peak_gflops;

    let y = make_partner(x);
    let hx = HicooTensor::from_coo(x, block_bits).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, block_bits).expect("valid block bits");
    let factors = make_factors(x, r);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();

    // Simulated launches report modeled FLOPs and DRAM bytes directly, so
    // the annotation uses the simulator's own accounting in place of the
    // CPU counters.
    let roof = machine.roofline();
    let cell_of = |s: &tenbench_gpusim::report::GpuKernelStats| CellMeasure {
        secs: s.time_s,
        flops: s.flops,
        bytes: s.dram_bytes,
        calls: 1,
    };
    let mut out = Vec::new();
    let mut push =
        |kernel: Kernel, format: &'static str, cell: CellMeasure, bound: bounds::KernelBound| {
            let a = cell.annotate(&roof);
            out.push(KernelResult {
                kernel,
                format,
                time_s: cell.secs,
                gflops: a.gflops,
                oi: bound.oi,
                bound_gflops: bound.gflops,
                ai_measured: a.oi,
                bound_by: a.bound_by,
                pct_of_roof: a.pct_of_roof,
            });
        };

    let (_, s) = gpuk::tew_coo_gpu(dev, x, &y, EwOp::Add).unwrap();
    push(
        Kernel::Tew,
        "COO",
        cell_of(&s),
        bounds::tew_bound(m, bw, peak),
    );
    let (_, s) = gpuk::tew_hicoo_gpu(dev, &hx, &hy, EwOp::Add).unwrap();
    push(
        Kernel::Tew,
        "HiCOO",
        cell_of(&s),
        bounds::tew_bound(m, bw, peak),
    );

    let (_, s) = gpuk::ts_coo_gpu(dev, x, 1.000_1, EwOp::Mul).unwrap();
    push(
        Kernel::Ts,
        "COO",
        cell_of(&s),
        bounds::ts_bound(m, bw, peak),
    );
    let (_, s) = gpuk::ts_hicoo_gpu(dev, &hx, 1.000_1, EwOp::Mul).unwrap();
    push(
        Kernel::Ts,
        "HiCOO",
        cell_of(&s),
        bounds::ts_bound(m, bw, peak),
    );

    let mean_mf = stats.mean_fibers() as u64;
    let mut ttv_c = [CellMeasure::default(); 2];
    let mut ttm_c = [CellMeasure::default(); 2];
    let mut mtt_c = [CellMeasure::default(); 2];
    for mode in 0..order {
        let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01);
        let u = &factors[mode];
        let (_, s) = gpuk::ttv_coo_gpu(dev, x, &v, mode).unwrap();
        ttv_c[0].accumulate(&cell_of(&s));
        let (_, s) = gpuk::ttv_hicoo_gpu(dev, &hx, &v, mode).unwrap();
        ttv_c[1].accumulate(&cell_of(&s));
        let (_, s) = gpuk::ttm_coo_gpu(dev, x, u, mode).unwrap();
        ttm_c[0].accumulate(&cell_of(&s));
        let (_, s) = gpuk::ttm_hicoo_gpu(dev, &hx, u, mode).unwrap();
        ttm_c[1].accumulate(&cell_of(&s));
        let (_, s) = gpuk::mttkrp_coo_gpu(dev, x, &frefs, mode).unwrap();
        mtt_c[0].accumulate(&cell_of(&s));
        let (_, s) = gpuk::mttkrp_hicoo_gpu(dev, &hx, &frefs, mode).unwrap();
        mtt_c[1].accumulate(&cell_of(&s));
    }
    let n = order as f64;
    for c in ttv_c.iter_mut().chain(&mut ttm_c).chain(&mut mtt_c) {
        c.secs /= n;
    }
    push(
        Kernel::Ttv,
        "COO",
        ttv_c[0],
        bounds::ttv_bound(order, m, mean_mf, bw, peak),
    );
    push(
        Kernel::Ttv,
        "HiCOO",
        ttv_c[1],
        bounds::ttv_bound(order, m, mean_mf, bw, peak),
    );
    push(
        Kernel::Ttm,
        "COO",
        ttm_c[0],
        bounds::ttm_bound(order, m, mean_mf, r as u64, bw, peak),
    );
    push(
        Kernel::Ttm,
        "HiCOO",
        ttm_c[1],
        bounds::ttm_bound(order, m, mean_mf, r as u64, bw, peak),
    );
    push(
        Kernel::Mttkrp,
        "COO",
        mtt_c[0],
        bounds::mttkrp_coo_bound(order, m, r as u64, bw, peak),
    );
    push(
        Kernel::Mttkrp,
        "HiCOO",
        mtt_c[1],
        bounds::mttkrp_hicoo_bound(
            order,
            m,
            r as u64,
            stats.hicoo_blocks as u64,
            stats.block_size as u64,
            bw,
            peak,
        ),
    );
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
    fn mttkrp_ablation_covers_all_strategies() {
        let x = small_tensor();
        let rows = run_mttkrp_ablation(&x, 8, 4, 1);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "coo/seq",
                "coo/atomic",
                "coo/privatized",
                "coo/scheduled",
                "hicoo/atomic",
                "hicoo/scheduled"
            ]
        );
        for r in &rows {
            assert!(r.time_s > 0.0, "{}", r.name);
            assert!(r.melem_s > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn time_avg_batches_fast_functions() {
        let mut n = 0u64;
        let t = time_avg(2, || {
            n += 1;
        });
        assert!(t >= 0.0);
        assert!(n > 2); // batching kicked in
    }
}
