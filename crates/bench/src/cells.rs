//! The kernel-cell table: the one place the CLI and the paper suite name a
//! kernel entry point.
//!
//! A [`Cell`] is one timed thing — a kernel on a format under a
//! parallelization strategy, or the COO→HiCOO conversion pipeline under a
//! sort algorithm. [`Inputs`] holds everything the cells of one tensor
//! read, [`prepare`] does a cell's untimed work and returns the timed call,
//! and `crate::suite::sample` is the one loop that times it. Every
//! consumer (`tenbench kernel`, `tenbench scale-bench`, `tenbench paper`)
//! is a loop over [`CELLS`].

use std::sync::{Arc, OnceLock};

use tenbench_core::coo::{CooTensor, FiberPartition, SemiSparseTensor, SortAlgo};
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::{GHicooTensor, GhFiberPartition, HicooTensor, SemiSparseHicooTensor};
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::par::Schedule;
use tenbench_core::{sched, Result};

use crate::suite::{make_factors, make_partner, sample, Sample};
use crate::supervisor::MttkrpFn;

/// Scalar operand of Ts.
pub(crate) const TS_SCALAR: f32 = 1.000_1;

/// The `--strategy` values; a cell lists the ones that select it.
pub const STRATEGIES: [&str; 3] = ["seq", "atomic", "scheduled"];
/// Cells without strategy variants take any of them.
const ANY: &[&str] = &STRATEGIES;
/// HiCOO Ttv/Ttm: `scheduled` selects the scheduled kernel, the rest gHiCOO.
const UNSCHEDULED: &[&str] = &["seq", "atomic"];
const SCHEDULED: &[&str] = &["scheduled"];

/// One row of the table.
pub struct Cell {
    /// The name every report line, supervisor label, sweep row and floors
    /// key prints.
    pub name: &'static str,
    /// The kernel timed; `None` for the conversion pipeline.
    pub kernel: Option<Kernel>,
    /// The `--format` value that selects it (the paper's format column).
    pub format: &'static str,
    /// The `--strategy` values that select it; empty for cells `tenbench
    /// kernel` does not reach.
    pub(crate) strategies: &'static [&'static str],
    /// Sequential by construction: a thread sweep measures it once.
    pub(crate) sequential: bool,
    prepare: fn(&Inputs, usize) -> Result<Prepared>,
}

const fn cell(
    name: &'static str,
    kernel: Option<Kernel>,
    format: &'static str,
    strategies: &'static [&'static str],
    prepare: fn(&Inputs, usize) -> Result<Prepared>,
) -> Cell {
    Cell {
        name,
        kernel,
        format,
        strategies,
        sequential: false,
        prepare,
    }
}

const fn sequential(mut c: Cell) -> Cell {
    c.sequential = true;
    c
}

const TEW: Option<Kernel> = Some(Kernel::Tew);
const TS: Option<Kernel> = Some(Kernel::Ts);
const TTV: Option<Kernel> = Some(Kernel::Ttv);
const TTM: Option<Kernel> = Some(Kernel::Ttm);
const MTTKRP: Option<Kernel> = Some(Kernel::Mttkrp);

/// Every cell, in report order.
pub static CELLS: [Cell; 18] = [
    cell("tew.coo", TEW, "coo", ANY, |i, _| {
        let (x, y) = (i.x.clone(), i.y.clone());
        Ok(timed(Output::Coo, move || {
            tew::tew_same_pattern(&x, &y, EwOp::Add)
        }))
    }),
    cell("tew.hicoo", TEW, "hicoo", ANY, |i, _| {
        let (hx, hy) = (i.hx()?, i.hy()?);
        Ok(timed(Output::Hicoo, move || {
            tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add)
        }))
    }),
    cell("ts.coo", TS, "coo", ANY, |i, _| {
        let x = i.x.clone();
        Ok(timed(Output::Coo, move || ts::ts(&x, TS_SCALAR, EwOp::Mul)))
    }),
    cell("ts.hicoo", TS, "hicoo", ANY, |i, _| {
        let hx = i.hx()?;
        Ok(timed(Output::Hicoo, move || {
            ts::ts_hicoo(&hx, TS_SCALAR, EwOp::Mul)
        }))
    }),
    cell("ttv.coo", TTV, "coo", ANY, |i, mode| {
        let (f, v) = (i.fibers(mode)?, i.vector(mode));
        Ok(timed(Output::Coo, move || {
            ttv::ttv_prepared(&f.0, &f.1, &v, Schedule::default())
        }))
    }),
    cell("ttv.ghicoo", TTV, "hicoo", UNSCHEDULED, |i, mode| {
        let (g, v) = (i.ghicoo(mode)?, i.vector(mode));
        Ok(timed(Output::Hicoo, move || {
            ttv::ttv_ghicoo(&g.0, &g.1, &v, Schedule::default())
        }))
    }),
    cell("ttv.hicoo_sched", TTV, "hicoo", SCHEDULED, |i, mode| {
        let (hx, v) = (i.hx()?, i.vector(mode));
        let _ = sched::complement_schedule(&hx, mode);
        Ok(timed(Output::Hicoo, move || {
            ttv::ttv_hicoo_sched(&hx, &v, mode)
        }))
    }),
    cell("ttm.coo", TTM, "coo", ANY, |i, mode| {
        let (f, u) = (i.fibers(mode)?, i.factors.clone());
        Ok(timed(Output::Scoo, move || {
            ttm::ttm_prepared(&f.0, &f.1, &u[mode], Schedule::default())
        }))
    }),
    cell("ttm.ghicoo", TTM, "hicoo", UNSCHEDULED, |i, mode| {
        let (g, u) = (i.ghicoo(mode)?, i.factors.clone());
        Ok(timed(Output::Shicoo, move || {
            ttm::ttm_ghicoo(&g.0, &g.1, &u[mode], Schedule::default())
        }))
    }),
    cell("ttm.hicoo_sched", TTM, "hicoo", SCHEDULED, |i, mode| {
        let (hx, u) = (i.hx()?, i.factors.clone());
        let _ = sched::complement_schedule(&hx, mode);
        Ok(timed(Output::Shicoo, move || {
            ttm::ttm_hicoo_sched(&hx, &u[mode], mode)
        }))
    }),
    sequential(cell(
        "mttkrp.coo_seq",
        MTTKRP,
        "coo",
        &["seq"],
        |i, mode| mttkrp_coo(i, mode, mttkrp::mttkrp_seq),
    )),
    // The paper's Algorithm: nonzero-parallel, atomic updates.
    cell(
        "mttkrp.coo_atomic",
        MTTKRP,
        "coo",
        &["atomic"],
        |i, mode| mttkrp_coo(i, mode, mttkrp::mttkrp_atomic),
    ),
    cell("mttkrp.coo_sched", MTTKRP, "coo", SCHEDULED, |i, mode| {
        let _ = sched::row_schedule(&i.x, mode);
        mttkrp_coo(i, mode, mttkrp::mttkrp_sched)
    }),
    sequential(cell(
        "mttkrp.hicoo_seq",
        MTTKRP,
        "hicoo",
        &["seq"],
        |i, mode| mttkrp_hicoo(i, mode, mttkrp::mttkrp_hicoo_seq),
    )),
    cell(
        "mttkrp.hicoo_atomic",
        MTTKRP,
        "hicoo",
        &["atomic"],
        |i, mode| mttkrp_hicoo(i, mode, mttkrp::mttkrp_hicoo),
    ),
    cell(
        "mttkrp.hicoo_sched",
        MTTKRP,
        "hicoo",
        SCHEDULED,
        |i, mode| {
            let _ = sched::mode_schedule(&*i.hx()?, mode);
            mttkrp_hicoo(i, mode, mttkrp::mttkrp_hicoo_sched)
        },
    ),
    cell("convert.radix", None, "hicoo", &[], |i, _| {
        Ok(convert(i, SortAlgo::Radix))
    }),
    cell("convert.comparator", None, "hicoo", &[], |i, _| {
        Ok(convert(i, SortAlgo::Comparator))
    }),
];

fn refs(factors: &[DenseMatrix<f32>]) -> Vec<&DenseMatrix<f32>> {
    factors.iter().collect()
}

fn mttkrp_coo(i: &Inputs, mode: usize, kernel: MttkrpFn<CooTensor<f32>>) -> Result<Prepared> {
    let (x, u) = (i.x.clone(), i.factors.clone());
    Ok(timed(Output::Matrix, move || kernel(&x, &refs(&u), mode)))
}

fn mttkrp_hicoo(i: &Inputs, mode: usize, kernel: MttkrpFn<HicooTensor<f32>>) -> Result<Prepared> {
    let (hx, u) = (i.hx()?, i.factors.clone());
    Ok(timed(Output::Matrix, move || kernel(&hx, &refs(&u), mode)))
}

/// Morton sort then block build. Each call consumes a fresh COO copy (its
/// scratch), so every sort starts from the generator's order.
fn convert(i: &Inputs, algo: SortAlgo) -> Prepared {
    let bits = i.block_bits;
    Prepared {
        scratch: Some(i.x.clone()),
        run: Arc::new(move |c| {
            let mut c = c.expect("a convert call is handed its COO copy");
            c.sort_morton_with(bits, algo);
            // The sort state already says Morton(bits): this is the build alone.
            HicooTensor::from_coo_inplace(&mut c, bits).map(Output::Hicoo)
        }),
    }
}

impl Cell {
    /// The cell `--format`/`--strategy` select for a kernel named as on the
    /// command line. The paper's ten cells are the ones `"atomic"` selects.
    pub fn resolve(
        kernel: &str,
        format: &str,
        strategy: &str,
    ) -> std::result::Result<&'static Cell, String> {
        CELLS
            .iter()
            .find(|c| {
                c.kernel
                    .is_some_and(|k| k.name().eq_ignore_ascii_case(kernel))
                    && c.format == format
                    && c.strategies.contains(&strategy)
            })
            .ok_or_else(|| {
                let valid: Vec<String> = CELLS
                    .iter()
                    .filter_map(|c| {
                        let k = c.kernel?.name().to_lowercase();
                        Some(format!(
                            "  {k} --format {} --strategy {}  ({})",
                            c.format,
                            c.strategies.join("|"),
                            c.name
                        ))
                    })
                    .collect();
                format!(
                    "no cell for kernel {kernel:?} --format {format:?} --strategy {strategy:?}; \
                     valid cells:\n{}",
                    valid.join("\n")
                )
            })
    }

    /// The cell with this name.
    pub(crate) fn named(name: &str) -> Option<&'static Cell> {
        CELLS.iter().find(|c| c.name == name)
    }
}

/// What a cell's call returns: enough to validate it.
#[derive(Debug)]
pub enum Output {
    /// Tew, Ts and Ttv on COO.
    Coo(CooTensor<f32>),
    /// Tew, Ts and Ttv on HiCOO, and the converted tensor.
    Hicoo(HicooTensor<f32>),
    /// Ttm on COO.
    Scoo(SemiSparseTensor<f32>),
    /// Ttm on HiCOO.
    Shicoo(SemiSparseHicooTensor<f32>),
    /// Mttkrp.
    Matrix(DenseMatrix<f32>),
}

impl Output {
    /// The output's stored values.
    pub fn vals(&self) -> &[f32] {
        match self {
            Output::Coo(t) => t.vals(),
            Output::Hicoo(t) => t.vals(),
            Output::Scoo(t) => t.vals(),
            Output::Shicoo(t) => t.vals(),
            Output::Matrix(m) => m.data(),
        }
    }

    /// How many of them are NaN or infinite.
    pub fn nonfinite(&self) -> usize {
        self.vals().iter().filter(|v| !v.is_finite()).count()
    }
}

/// Everything the cells of one tensor read. The HiCOO pair and the
/// per-mode fiber and gHiCOO preparations are built on first use and
/// shared by the cells that read them.
pub struct Inputs {
    /// The tensor.
    pub(crate) x: Arc<CooTensor<f32>>,
    /// Its same-pattern Tew partner.
    pub(crate) y: Arc<CooTensor<f32>>,
    /// One rank-`rank` factor matrix per mode: Mttkrp's operands, and
    /// Ttm's at the contracted mode.
    pub factors: Arc<Vec<DenseMatrix<f32>>>,
    /// Columns of the factor matrices.
    pub(crate) rank: usize,
    /// HiCOO block bits.
    pub(crate) block_bits: u8,
    hx: Lazy<HicooTensor<f32>>,
    hy: Lazy<HicooTensor<f32>>,
    fibers: Vec<Lazy<(CooTensor<f32>, FiberPartition)>>,
    ghicoo: Vec<Lazy<(GHicooTensor<f32>, GhFiberPartition)>>,
}

type Lazy<T> = OnceLock<Result<Arc<T>>>;

fn lazy<T>(slot: &Lazy<T>, build: impl FnOnce() -> Result<T>) -> Result<Arc<T>> {
    slot.get_or_init(|| build().map(Arc::new)).clone()
}

impl Inputs {
    /// Operands for `x` at one rank and block size.
    pub fn new(x: CooTensor<f32>, rank: usize, block_bits: u8) -> Inputs {
        let order = x.order();
        Inputs {
            y: Arc::new(make_partner(&x)),
            factors: Arc::new(make_factors(&x, rank)),
            x: Arc::new(x),
            rank,
            block_bits,
            hx: OnceLock::new(),
            hy: OnceLock::new(),
            fibers: (0..order).map(|_| OnceLock::new()).collect(),
            ghicoo: (0..order).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `x` in HiCOO.
    pub(crate) fn hx(&self) -> Result<Arc<HicooTensor<f32>>> {
        lazy(&self.hx, || HicooTensor::from_coo(&self.x, self.block_bits))
    }

    /// The Tew partner in HiCOO.
    pub(crate) fn hy(&self) -> Result<Arc<HicooTensor<f32>>> {
        lazy(&self.hy, || HicooTensor::from_coo(&self.y, self.block_bits))
    }

    /// A copy of `x` sorted for `mode` and its fiber partition (COO Ttv/Ttm).
    pub(crate) fn fibers(&self, mode: usize) -> Result<Arc<(CooTensor<f32>, FiberPartition)>> {
        lazy(&self.fibers[mode], || {
            let mut xm = (*self.x).clone();
            let fp = xm.fibers(mode)?;
            Ok((xm, fp))
        })
    }

    /// `x` in gHiCOO laid out for `mode` and its fiber partition.
    pub(crate) fn ghicoo(&self, mode: usize) -> Result<Arc<(GHicooTensor<f32>, GhFiberPartition)>> {
        lazy(&self.ghicoo[mode], || {
            let g = GHicooTensor::from_coo_for_mode(&self.x, self.block_bits, mode)?;
            let fp = g.fibers(mode)?;
            Ok((g, fp))
        })
    }

    /// Ttv's vector operand at `mode`.
    pub(crate) fn vector(&self, mode: usize) -> DenseVector<f32> {
        let n = self.x.shape().dim(mode) as usize;
        DenseVector::from_fn(n, |i| (i % 100) as f32 * 0.01)
    }
}

/// What one call consumes: the COO copy `convert` sorts in place, nothing
/// for the kernels.
type Scratch = Option<CooTensor<f32>>;

/// A prepared cell: the timed region (`run`) and the tensor each call's
/// scratch is cloned from, outside it.
pub struct Prepared {
    scratch: Option<Arc<CooTensor<f32>>>,
    run: Arc<dyn Fn(Scratch) -> Result<Output> + Send + Sync>,
}

fn timed<T: 'static>(
    wrap: fn(T) -> Output,
    f: impl Fn() -> Result<T> + Send + Sync + 'static,
) -> Prepared {
    Prepared {
        scratch: None,
        run: Arc::new(move |_| f().map(wrap)),
    }
}

/// Do all of a cell's untimed work for one mode — operands, fiber
/// partition, format conversion, and the schedule for the current pool
/// width — and return its timed call.
pub fn prepare(inputs: &Inputs, cell: &Cell, mode: usize) -> Result<Prepared> {
    inputs.x.shape().check_mode(mode)?;
    (cell.prepare)(inputs, mode)
}

impl Prepared {
    fn scratch(&self) -> Scratch {
        self.scratch.as_deref().cloned()
    }

    /// One call, set-up included: for validation and for
    /// [`crate::suite::measure_cell`], which wraps `sample` in counters.
    pub fn call(&self) -> Result<Output> {
        (self.run)(self.scratch())
    }

    /// Time the cell with [`sample`]; `before_timed` runs between the
    /// calibration call and the timed batches.
    pub(crate) fn sample_with(&self, reps: usize, before_timed: impl FnOnce()) -> Result<Sample> {
        let mut failed = None;
        let s = sample(
            reps,
            || self.scratch(),
            |c| (self.run)(c).map_err(|e| failed = Some(e)),
            before_timed,
        );
        failed.map_or(Ok(s), Err)
    }

    /// [`Prepared::sample_with`] with nothing to do before the timed batches.
    pub(crate) fn sample(&self, reps: usize) -> Result<Sample> {
        self.sample_with(reps, || ())
    }
}
