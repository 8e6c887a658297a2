//! `kernels_hot`: every kernel cell, repeated, on prepared inputs.
//!
//! Set-up generates a power-law (`pl3`) and a Kronecker (`kr4`) tensor,
//! converts, sorts, partitions fibers, builds factors and runs one warm-up
//! round (the first calls build and cache the schedules). The measured part
//! is rounds of all 47 cells in a fixed order that alternates between the
//! two tensors, so slow drift of a shared host lands on every cell alike.

use std::time::Instant;

use tenbench_bench::suite::{make_factors, make_partner};
use tenbench_core::coo::{CooTensor, FiberPartition};
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp, Kernel};
use tenbench_core::par::{self, Schedule};
use tenbench_core::sched;

use crate::inputs::{self, RunConfig, BLOCK_BITS, RANK};
use crate::metrics::{hot_cells, CellSpec, Outcome, HOT_TENSORS, KERNELS};
use crate::oracle::{self, Output};
use crate::stats;
use crate::trace::Recorder;

/// Registry id and full-scale nonzeros of the two tensors, in
/// [`HOT_TENSORS`] order: `s6` is power-law 66K x 66K x 168, `s9` is
/// Kronecker 130K^4.
const SOURCES: [(&str, usize); 2] = [("s6", 400_000), ("s9", 150_000)];
/// Scalar operand of Ts.
const TS_SCALAR: f32 = 1.000_1;
/// A run measures at least this many rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Per-mode preparation of COO Ttv/Ttm: a mode-last sorted copy, its fiber
/// partition, and the vector operand.
struct ModePrep {
    mode: usize,
    xm: CooTensor<f32>,
    fp: FiberPartition,
    v: DenseVector<f32>,
}

/// Everything a tensor's cells read.
struct Prepared {
    x: CooTensor<f32>,
    /// Same-pattern Tew partner.
    y: CooTensor<f32>,
    /// Lexicographically sorted operands with different patterns, for the
    /// general (merging) Tew.
    xl: CooTensor<f32>,
    yl: CooTensor<f32>,
    h: HicooTensor<f32>,
    hy: HicooTensor<f32>,
    modes: Vec<ModePrep>,
    factors: Vec<DenseMatrix<f32>>,
}

fn prepare(x: CooTensor<f32>) -> Prepared {
    let order = x.order();
    let y = make_partner(&x);
    let lex: Vec<usize> = (0..order).collect();
    let mut xl = x.clone();
    xl.sort_lexicographic(&lex);
    // Shifting one mode by a constant is a bijection on coordinates: the
    // partner has no duplicates and overlaps `x` only partly.
    let last_dim = x.shape().dim(order - 1);
    let mut inds = x.inds().to_vec();
    inds[order - 1]
        .iter_mut()
        .for_each(|k| *k = (*k + 1) % last_dim);
    let mut yl = CooTensor::from_parts(x.shape().clone(), inds, y.vals().to_vec())
        .expect("shifted indices stay in bounds");
    yl.sort_lexicographic(&lex);
    let h = HicooTensor::from_coo(&x, BLOCK_BITS).expect("valid block bits");
    let hy = HicooTensor::from_coo(&y, BLOCK_BITS).expect("valid block bits");
    let modes = [0, order - 1]
        .into_iter()
        .map(|mode| {
            let mut xm = x.clone();
            let fp = xm.fibers(mode).expect("mode in range");
            ModePrep {
                mode,
                v: inputs::vector(&x, mode),
                xm,
                fp,
            }
        })
        .collect();
    Prepared {
        factors: make_factors(&x, RANK),
        x,
        y,
        xl,
        yl,
        h,
        hy,
        modes,
    }
}

type Call<'a> = Box<dyn Fn() -> Result<Output, String> + Send + Sync + 'a>;

/// One measured round.
struct Round {
    traced: bool,
    /// Each cell's timed call, in cell order.
    calls_ms: Vec<f64>,
    /// Their sum.
    busy_ms: f64,
    /// Start to end, recording included.
    wall_ms: f64,
}

/// One cell: the timed call and its sequential reference.
struct Cell<'a> {
    spec: CellSpec,
    name: String,
    flops: u64,
    run: Call<'a>,
    reference: Call<'a>,
}

fn call<'a, T: 'a, E: ToString>(
    wrap: fn(T) -> Output,
    f: impl Fn() -> Result<T, E> + Send + Sync + 'a,
) -> Call<'a> {
    Box::new(move || f().map(wrap).map_err(|e| e.to_string()))
}

fn build_cells<'a>(tensor: &'static str, p: &'a Prepared) -> Vec<Cell<'a>> {
    let order = p.x.order();
    let frefs = move || p.factors.iter().collect::<Vec<&DenseMatrix<f32>>>();
    hot_cells(tensor, order)
        .into_iter()
        .map(|spec| {
            let mode = spec.mode.unwrap_or(0);
            let mp = p.modes.iter().find(|m| m.mode == mode);
            let mp = move || mp.expect("Ttv/Ttm cells use prepared modes");
            let (run, reference): (Call<'a>, Call<'a>) = match (spec.kernel, spec.variant) {
                (Kernel::Tew, "coo") => (
                    call(Output::Coo, || tew::tew_same_pattern(&p.x, &p.y, EwOp::Add)),
                    call(Output::Coo, || {
                        tew::tew_same_pattern_seq(&p.x, &p.y, EwOp::Add)
                    }),
                ),
                (Kernel::Tew, "hicoo") => (
                    call(Output::Hicoo, || {
                        tew::tew_hicoo_same_pattern(&p.h, &p.hy, EwOp::Add)
                    }),
                    call(Output::Coo, || {
                        tew::tew_same_pattern_seq(&p.x, &p.y, EwOp::Add)
                    }),
                ),
                (Kernel::Tew, "coo_general") => (
                    call(Output::Coo, || tew::tew_general(&p.xl, &p.yl, EwOp::Add)),
                    call(Output::Coo, || {
                        tew::tew_general_seq(&p.xl, &p.yl, EwOp::Add)
                    }),
                ),
                (Kernel::Ts, "coo") => (
                    call(Output::Coo, || ts::ts(&p.x, TS_SCALAR, EwOp::Mul)),
                    call(Output::Coo, || ts::ts_seq(&p.x, TS_SCALAR, EwOp::Mul)),
                ),
                (Kernel::Ts, "hicoo") => (
                    call(Output::Hicoo, || ts::ts_hicoo(&p.h, TS_SCALAR, EwOp::Mul)),
                    call(Output::Coo, || ts::ts_seq(&p.x, TS_SCALAR, EwOp::Mul)),
                ),
                (Kernel::Ttv, variant) => {
                    let reference = call(Output::Coo, move || {
                        ttv::ttv_prepared_seq(&mp().xm, &mp().fp, &mp().v)
                    });
                    let run = match variant {
                        "coo" => call(Output::Coo, move || {
                            ttv::ttv_prepared(&mp().xm, &mp().fp, &mp().v, Schedule::default())
                        }),
                        _ => call(Output::Hicoo, move || {
                            ttv::ttv_hicoo_sched(&p.h, &mp().v, mode)
                        }),
                    };
                    (run, reference)
                }
                (Kernel::Ttm, variant) => {
                    let reference = call(Output::Scoo, move || {
                        ttm::ttm_prepared_seq(&mp().xm, &mp().fp, &p.factors[mode])
                    });
                    let run = match variant {
                        "coo" => call(Output::Scoo, move || {
                            ttm::ttm_prepared(
                                &mp().xm,
                                &mp().fp,
                                &p.factors[mode],
                                Schedule::default(),
                            )
                        }),
                        _ => call(Output::Shicoo, move || {
                            ttm::ttm_hicoo_sched(&p.h, &p.factors[mode], mode)
                        }),
                    };
                    (run, reference)
                }
                (Kernel::Mttkrp, variant) => {
                    let reference = call(Output::Dense, move || {
                        mttkrp::mttkrp_seq(&p.x, &frefs(), mode)
                    });
                    let run = match variant {
                        // The paper's Algorithm: nonzero-parallel, atomic updates.
                        "coo_atomic" => call(Output::Dense, move || {
                            mttkrp::mttkrp_atomic(&p.x, &frefs(), mode)
                        }),
                        "coo_sched" => call(Output::Dense, move || {
                            mttkrp::mttkrp_sched(&p.x, &frefs(), mode)
                        }),
                        _ => call(Output::Dense, move || {
                            mttkrp::mttkrp_hicoo_sched(&p.h, &frefs(), mode)
                        }),
                    };
                    (run, reference)
                }
                (k, v) => unreachable!("no cell {k:?}/{v}"),
            };
            Cell {
                name: spec.metric(),
                flops: spec.kernel.flops(order, p.x.nnz() as u64, RANK as u64),
                spec,
                run,
                reference,
            }
        })
        .collect()
}

/// Alternate between the two tensors' cells.
fn interleave<'a>(a: Vec<Cell<'a>>, b: Vec<Cell<'a>>) -> Vec<Cell<'a>> {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let mut out = Vec::new();
    loop {
        match (a.next(), b.next()) {
            (None, None) => return out,
            (x, y) => out.extend(x.into_iter().chain(y)),
        }
    }
}

/// One set-up: generate, prepare, warm up. Returns the prepared tensors,
/// the seconds preparation took and the seconds of the whole set-up.
fn set_up(cfg: &RunConfig) -> (Vec<Prepared>, f64, f64) {
    sched::clear_cache();
    let t0 = Instant::now();
    let raw: Vec<CooTensor<f32>> = SOURCES
        .iter()
        .enumerate()
        .map(|(i, &(id, nnz))| inputs::generate(id, cfg.scale(nnz), cfg.seed + i as u64))
        .collect();
    let generated = t0.elapsed().as_secs_f64();
    let prepared: Vec<Prepared> = raw.into_iter().map(prepare).collect();
    let preparing = t0.elapsed().as_secs_f64() - generated;
    for c in all_cells(&prepared) {
        std::hint::black_box((c.run)().expect("warm-up call"));
    }
    (prepared, preparing, t0.elapsed().as_secs_f64())
}

fn all_cells(prepared: &[Prepared]) -> Vec<Cell<'_>> {
    interleave(
        build_cells(HOT_TENSORS[0].0, &prepared[0]),
        build_cells(HOT_TENSORS[1].0, &prepared[1]),
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut first_result_ms = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..cfg.setup_reps() {
        drop(std::mem::take(&mut prepared));
        let (p, preparing, total) = set_up(cfg);
        prepared = p;
        setup_s.push(total);
        // Tensors in memory to operands a kernel can be called on. The
        // warm-up round is left to `setup_s`: one disturbed call in it
        // moves a single-shot figure by a quarter.
        first_result_ms.push(preparing * 1e3);
    }
    let cells = all_cells(&prepared);
    for (p, (name, _)) in prepared.iter().zip(HOT_TENSORS) {
        out.note(format!(
            "{name}: {:?}, {} nnz, {} HiCOO blocks",
            p.x.shape().dims(),
            p.x.nnz(),
            p.h.num_blocks()
        ));
    }

    // In a traced run the rounds take 60% of the time and every other round
    // records spans; the rest goes to the single-thread probes.
    let budget = if cfg.trace {
        0.6 * cfg.seconds
    } else {
        cfg.seconds
    };
    let started = Instant::now();
    let mut rec = cfg.trace.then(|| Recorder::new(started, 0));
    let mut rounds: Vec<Round> = Vec::new();
    let mut tried = 0;
    while tried < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
        let r = tried as u64;
        tried += 1;
        let traced = cfg.trace && r % 2 == 1;
        let round_start = Instant::now();
        let span = match (&mut rec, traced) {
            (Some(rec), true) => Some(rec.open("round", r, None, round_start)),
            _ => None,
        };
        let mut calls_ms = Vec::with_capacity(cells.len());
        for c in &cells {
            let t0 = Instant::now();
            let result = (c.run)();
            let t1 = Instant::now();
            out.attempted += 1;
            match result {
                Ok(output) => {
                    calls_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    if let (Some(rec), Some(span)) = (&mut rec, span) {
                        rec.push(&c.name, r, Some(span), t0, t1);
                    }
                    drop(std::hint::black_box(output));
                }
                Err(e) => out.fail(&c.name, e),
            }
        }
        let round_end = Instant::now();
        if let (Some(rec), Some(span)) = (&mut rec, span) {
            rec.close(span, round_end);
        }
        // A round with a failed call has no place in the statistics; the
        // failure itself is already counted.
        if calls_ms.len() == cells.len() {
            rounds.push(Round {
                traced,
                busy_ms: calls_ms.iter().sum(),
                calls_ms,
                wall_ms: (round_end - round_start).as_secs_f64() * 1e3,
            });
        }
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    if rounds.is_empty() {
        return out;
    }

    let samples: Vec<Vec<f64>> = (0..cells.len())
        .map(|i| rounds.iter().map(|r| r.calls_ms[i]).collect())
        .collect();
    let minima: Vec<f64> = samples.iter().map(|s| stats::min(s)).collect();
    for (kernel, k) in KERNELS {
        let of_kernel: Vec<f64> = cells
            .iter()
            .zip(&minima)
            .filter(|(c, _)| c.spec.kernel == kernel)
            .map(|(_, &m)| m)
            .collect();
        out.set(format!("{k}_geo_ms"), stats::geomean(&of_kernel));
    }
    // Throughput and typical latency are read from the least disturbed
    // round: on a shared host the median round drifts twice as far between
    // identical runs as the best one.
    let best = rounds
        .iter()
        .min_by(|a, b| a.busy_ms.total_cmp(&b.busy_ms))
        .expect("at least one round");
    out.set("setup_s", stats::median(&setup_s));
    out.set("first_result_ms", stats::min(&first_result_ms));
    out.set("req_per_s", cells.len() as f64 / (best.busy_ms / 1e3));
    out.set("lat_p50_ms", stats::median(&best.calls_ms));
    out.note(format!(
        "{} rounds x {} cells = {} kernel-call samples; a request is one kernel call",
        rounds.len(),
        cells.len(),
        rounds.len() * cells.len()
    ));

    if cfg.trace {
        layer_metrics(cfg, &cells, &samples, &minima, &rounds, &mut out);
    }

    // The oracle: every cell once against its sequential reference.
    for c in &cells {
        let verdict = (c.run)().and_then(|got| {
            let want = (c.reference)()?;
            oracle::check_output(&oracle::canon(&got), &oracle::canon(&want))
        });
        out.check(&c.name, verdict);
    }
    out.recorder = rec;
    out
}

fn layer_metrics(
    cfg: &RunConfig,
    cells: &[Cell<'_>],
    samples: &[Vec<f64>],
    minima: &[f64],
    rounds: &[Round],
    out: &mut Outcome,
) {
    for (c, &m) in cells.iter().zip(minima) {
        out.set(c.name.clone(), m);
    }
    for (kernel, k) in KERNELS {
        let (flops, ms) = cells
            .iter()
            .zip(minima)
            .filter(|(c, _)| c.spec.kernel == kernel)
            .fold((0u64, 0.0), |(f, t), (c, &m)| (f + c.flops, t + m));
        // Flops are computed from Table 1, not counted.
        out.set(
            format!("core.kernels.{k}_gflops"),
            flops as f64 / (ms * 1e6),
        );
    }
    let disturbed: Vec<f64> = samples
        .iter()
        .zip(minima)
        .map(|(s, &m)| (stats::median(s) - m) / m * 100.0)
        .collect();
    out.set("core.kernels.noise_pct", stats::median(&disturbed));
    out.set("core.par.threads", par::current_threads() as f64);

    // The plain single-threaded baseline: the pl3 mode-0 HiCOO cell of each
    // kernel on a one-worker pool, over its time at the default width.
    let probe_budget = 0.4 * cfg.seconds / KERNELS.len() as f64;
    for (kernel, k) in KERNELS {
        let at = cells
            .iter()
            .position(|c| {
                c.spec.kernel == kernel
                    && c.spec.tensor == HOT_TENSORS[0].0
                    && c.spec.variant.starts_with("hicoo")
                    && c.spec.mode.unwrap_or(0) == 0
            })
            .expect("every kernel has a pl3 mode-0 HiCOO cell");
        let cell = &cells[at];
        let single = par::with_threads(1, || {
            // The first call builds the one-thread schedule.
            std::hint::black_box((cell.run)().expect("probe call"));
            let started = Instant::now();
            let mut best = f64::INFINITY;
            while best.is_infinite() || started.elapsed().as_secs_f64() < probe_budget {
                let t0 = Instant::now();
                std::hint::black_box((cell.run)().expect("probe call"));
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            best
        });
        out.set(format!("core.par.speedup.{k}"), single / minima[at]);
    }

    // Wall time of whole rounds, so the recording between calls counts.
    let wall = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_ms)
            .collect()
    };
    let (on, off) = (stats::median(&wall(true)), stats::median(&wall(false)));
    out.set("bench.trace_overhead_pct", (on - off) / off * 100.0);
    out.note(format!(
        "traced rounds {on:.3} ms vs untraced {off:.3} ms (median wall time)"
    ));
}
