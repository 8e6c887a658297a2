//! `cold_pipeline`: the same kernels used once, cold.
//!
//! Each iteration starts from `TNB2` bytes in memory and an empty schedule
//! cache, then decodes, converts to HiCOO, partitions fibers and makes the
//! first call of all five kernels on both formats at mode 0 (the scheduled
//! kernels build their schedules inside those calls), digests every output
//! and drops everything. Disk is excluded: real disk behaviour cannot be
//! measured in a sandbox.

use std::time::Instant;

use tenbench_bench::suite::make_factors;
use tenbench_core::coo::CooTensor;
use tenbench_core::dense::{DenseMatrix, DenseVector};
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench_core::par::Schedule;
use tenbench_core::sched;
use tenbench_io::bin::{read_bin_with, ReadOptions};

use crate::inputs::{self, RunConfig, BLOCK_BITS, RANK};
use crate::metrics::{Outcome, KERNELS};
use crate::oracle::{self, Canon, Output};
use crate::stats;
use crate::trace::{Recorder, SpanId};

/// Registry id of the tensors: `s6`, power-law 66K x 66K x 168.
const DATASET: &str = "s6";
const TENSORS: usize = 8;
const NNZ: usize = 200_000;
/// The product mode of every first call.
const MODE: usize = 0;
const TS_SCALAR: f32 = 1.000_1;
/// Every tensor is measured at least this often.
const MIN_PASSES: usize = 2;
/// First calls per iteration: five kernels on two formats.
const CALLS: usize = 10;
const FORMATS: [&str; 2] = ["coo", "hicoo"];

/// Operands that depend only on the shape, built once in set-up.
struct Operands {
    v: DenseVector<f32>,
    factors: Vec<DenseMatrix<f32>>,
}

/// Where a traced iteration records its spans.
struct Tracer<'a> {
    rec: &'a mut Recorder,
    parent: SpanId,
    op: u64,
}

/// Timings of one iteration, in milliseconds.
#[derive(Debug, Default, Clone)]
struct Timing {
    total: f64,
    decode: f64,
    /// First-call time per kernel (index as in [`KERNELS`]) and format.
    calls: [f64; CALLS],
    digests: [f64; CALLS],
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Time one step, recording a span when tracing.
fn step<T>(tracer: &mut Option<Tracer<'_>>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    let t1 = Instant::now();
    if let Some(t) = tracer {
        t.rec.push(name, t.op, Some(t.parent), t0, t1);
    }
    (value, ms(t0, t1))
}

/// Bytes to first results. `on_output` sees each output once, in call
/// order; the time it takes is inside the iteration but outside the call.
fn pipeline(
    bytes: &[u8],
    ops: &Operands,
    mut tracer: Option<Tracer<'_>>,
    mut on_output: impl FnMut(usize, Output),
) -> Result<Timing, String> {
    let e = |e: tenbench_core::TensorError| e.to_string();
    let mut t = Timing::default();
    sched::clear_cache();
    let t0 = Instant::now();
    let (x, decode) = step(&mut tracer, "io.bin.decode", || {
        read_bin_with::<f32, _>(
            bytes,
            ReadOptions {
                max_bytes: bytes.len() as u64,
            },
        )
    });
    let mut x = x.map_err(|e| e.to_string())?;
    t.decode = decode;
    let h = step(&mut tracer, "core.hicoo.from_coo", || {
        HicooTensor::from_coo(&x, BLOCK_BITS)
    })
    .0
    .map_err(e)?;
    let fp = step(&mut tracer, "core.coo.fibers", || x.fibers(MODE))
        .0
        .map_err(e)?;
    if tracer.is_some() {
        // Built here by name so the trace shows them; the kernels below
        // then find them cached. Same work, same total.
        step(&mut tracer, "core.sched.mode_schedule", || {
            sched::mode_schedule(&h, MODE)
        });
        step(&mut tracer, "core.sched.row_schedule", || {
            sched::row_schedule(&x, MODE)
        });
    }
    let frefs: Vec<&DenseMatrix<f32>> = ops.factors.iter().collect();
    let u = &ops.factors[MODE];
    type Call<'c> = Box<dyn FnOnce() -> Result<Output, tenbench_core::TensorError> + 'c>;
    let calls: [Call<'_>; CALLS] = [
        Box::new(|| tew::tew_same_pattern(&x, &x, EwOp::Add).map(Output::Coo)),
        Box::new(|| tew::tew_hicoo_same_pattern(&h, &h, EwOp::Add).map(Output::Hicoo)),
        Box::new(|| ts::ts(&x, TS_SCALAR, EwOp::Mul).map(Output::Coo)),
        Box::new(|| ts::ts_hicoo(&h, TS_SCALAR, EwOp::Mul).map(Output::Hicoo)),
        Box::new(|| ttv::ttv_prepared(&x, &fp, &ops.v, Schedule::default()).map(Output::Coo)),
        Box::new(|| ttv::ttv_hicoo_sched(&h, &ops.v, MODE).map(Output::Hicoo)),
        Box::new(|| ttm::ttm_prepared(&x, &fp, u, Schedule::default()).map(Output::Scoo)),
        Box::new(|| ttm::ttm_hicoo_sched(&h, u, MODE).map(Output::Shicoo)),
        Box::new(|| mttkrp::mttkrp_sched(&x, &frefs, MODE).map(Output::Dense)),
        Box::new(|| mttkrp::mttkrp_hicoo_sched(&h, &frefs, MODE).map(Output::Dense)),
    ];
    for (i, call) in calls.into_iter().enumerate() {
        let name = format!("core.kernels.first_call.{}", KERNELS[i / 2].1);
        let (out, took) = step(&mut tracer, &name, call);
        let out = out.map_err(e)?;
        t.calls[i] = took;
        t.digests[i] = oracle::digest(&out);
        on_output(i, out);
    }
    drop((x, h, fp));
    t.total = ms(t0, Instant::now());
    Ok(t)
}

/// The sequential references of one tensor, one per kernel.
fn references(bytes: &[u8], ops: &Operands) -> Result<Vec<Canon>, String> {
    let e = |e: tenbench_core::TensorError| e.to_string();
    let mut x: CooTensor<f32> =
        read_bin_with(bytes, ReadOptions::default()).map_err(|e| e.to_string())?;
    let fp = x.fibers(MODE).map_err(e)?;
    let frefs: Vec<&DenseMatrix<f32>> = ops.factors.iter().collect();
    Ok([
        Output::Coo(tew::tew_same_pattern_seq(&x, &x, EwOp::Add).map_err(e)?),
        Output::Coo(ts::ts_seq(&x, TS_SCALAR, EwOp::Mul).map_err(e)?),
        Output::Coo(ttv::ttv_prepared_seq(&x, &fp, &ops.v).map_err(e)?),
        Output::Scoo(ttm::ttm_prepared_seq(&x, &fp, &ops.factors[MODE]).map_err(e)?),
        Output::Dense(mttkrp::mttkrp_seq(&x, &frefs, MODE).map_err(e)?),
    ]
    .iter()
    .map(oracle::canon)
    .collect())
}

/// One set-up: generate the tensors, keep only their bytes. Returns the
/// blobs, the operands, per-tensor encode times and the set-up's seconds.
fn set_up(cfg: &RunConfig) -> (Vec<Vec<u8>>, Operands, Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut encode_ms = Vec::new();
    let mut ops = None;
    let blobs = (0..TENSORS)
        .map(|i| {
            let x = inputs::generate(DATASET, cfg.scale(NNZ), cfg.seed + i as u64);
            ops.get_or_insert_with(|| Operands {
                v: inputs::vector(&x, MODE),
                factors: make_factors(&x, RANK),
            });
            let t = Instant::now();
            let bytes = inputs::tnb2(&x);
            encode_ms.push(ms(t, Instant::now()));
            bytes
        })
        .collect();
    let ops = ops.expect("at least one tensor");
    (blobs, ops, encode_ms, t0.elapsed().as_secs_f64())
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setup_reps() {
        drop(last.take());
        let (blobs, ops, encode_ms, secs) = set_up(cfg);
        setup_s.push(secs);
        last = Some((blobs, ops, encode_ms));
    }
    let (blobs, ops, encode_ms) = last.expect("set-up ran");
    out.note(format!(
        "{TENSORS} tensors of {} nnz, {} TNB2 bytes each",
        cfg.scale(NNZ),
        blobs[0].len()
    ));

    // One untimed pass: page in the blobs, spawn the pool.
    for b in &blobs {
        if let Err(e) = pipeline(b, &ops, None, |_, _| {}) {
            out.fail("warm-up iteration", e);
        }
    }

    let started = Instant::now();
    let mut rec = cfg.trace.then(|| Recorder::new(started, 0));
    // passes[p][tensor]
    let mut passes: Vec<(bool, Vec<Timing>)> = Vec::new();
    let mut tried = 0;
    while tried < MIN_PASSES || started.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && tried % 2 == 1;
        let mut pass = Vec::new();
        for (i, b) in blobs.iter().enumerate() {
            let op = (tried * TENSORS + i) as u64;
            out.attempted += 1;
            let t0 = Instant::now();
            let span = match (&mut rec, traced) {
                (Some(rec), true) => Some(rec.open("iteration", op, None, t0)),
                _ => None,
            };
            let tracer = match (&mut rec, span) {
                (Some(rec), Some(parent)) => Some(Tracer { rec, parent, op }),
                _ => None,
            };
            let result = pipeline(b, &ops, tracer, |_, output| drop(output));
            if let (Some(rec), Some(span)) = (&mut rec, span) {
                rec.close(span, Instant::now());
            }
            match result {
                Ok(t) => pass.push(t),
                Err(e) => out.fail("iteration", e),
            }
        }
        tried += 1;
        // A pass with a failed iteration has no place in the statistics;
        // the failure itself is already counted.
        if pass.len() == TENSORS {
            passes.push((traced, pass));
        }
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    if passes.is_empty() {
        return out;
    }

    // Per tensor the best of its passes, then the median over tensors: a
    // fixed-input pipeline's noise is additive.
    let best_then_median = |f: &dyn Fn(&Timing) -> f64| -> f64 {
        let per_tensor: Vec<f64> = (0..TENSORS)
            .map(|i| stats::min(&passes.iter().map(|(_, p)| f(&p[i])).collect::<Vec<_>>()))
            .collect();
        stats::median(&per_tensor)
    };
    for (k, (_, name)) in KERNELS.iter().enumerate() {
        let cells: Vec<f64> = (0..FORMATS.len())
            .map(|f| best_then_median(&|t| t.calls[2 * k + f]))
            .collect();
        out.set(format!("{name}_geo_ms"), stats::geomean(&cells));
    }
    // Throughput and typical latency are read from the least disturbed
    // pass, as `kernels_hot` reads them from its least disturbed round.
    let pass_ms = |p: &[Timing]| p.iter().map(|t| t.total).sum::<f64>();
    let best: Vec<f64> = passes
        .iter()
        .map(|(_, p)| p)
        .min_by(|a, b| pass_ms(a).total_cmp(&pass_ms(b)))
        .expect("at least one pass")
        .iter()
        .map(|t| t.total)
        .collect();
    out.set("setup_s", stats::median(&setup_s));
    out.set("first_result_ms", best_then_median(&|t| t.total));
    out.set(
        "req_per_s",
        TENSORS as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    out.set("lat_p50_ms", stats::median(&best));
    out.note(format!(
        "{} passes x {TENSORS} tensors = {} iteration samples; a request is one bytes-to-results iteration",
        passes.len(),
        passes.len() * TENSORS
    ));

    if let Some(rec) = &rec {
        layer_metrics(rec, &blobs, &encode_ms, &passes, &mut out);
    }

    // The oracle, once per tensor: every first-call output against its
    // sequential reference, and every measured iteration's digests against
    // this pass's.
    for (i, b) in blobs.iter().enumerate() {
        let mut verdicts = Vec::new();
        let checked = references(b, &ops).and_then(|refs| {
            pipeline(b, &ops, None, |call, output| {
                let verdict = oracle::check_output(&oracle::canon(&output), &refs[call / 2]);
                verdicts.push((call, verdict));
            })
        });
        match checked {
            Ok(truth) => {
                for (call, verdict) in verdicts {
                    let what = format!("tensor {i} {}.{}", KERNELS[call / 2].1, FORMATS[call % 2]);
                    out.check(&what, verdict);
                }
                for (_, pass) in &passes {
                    let same = (0..CALLS).try_for_each(|c| {
                        oracle::check_digest(pass[i].digests[c], truth.digests[c])
                    });
                    if let Err(e) = same {
                        out.fail(&format!("tensor {i} iteration digest"), e);
                    }
                }
            }
            Err(e) => out.check(&format!("tensor {i} oracle pass"), Err(e)),
        }
    }
    out.recorder = rec;
    out
}

fn layer_metrics(
    rec: &Recorder,
    blobs: &[Vec<u8>],
    encode_ms: &[f64],
    passes: &[(bool, Vec<Timing>)],
    out: &mut Outcome,
) {
    let traced_iterations = passes.iter().filter(|p| p.0).count() * TENSORS;
    let self_ms = rec.self_ms_by_name();
    // A layer's time per iteration: its spans' self time summed, over the
    // traced iterations (a kernel has two first calls per iteration).
    let per_iteration = |name: &str| -> f64 {
        self_ms.get(name).map_or(0.0, |v| v.iter().sum::<f64>()) / traced_iterations as f64
    };
    let mut attributed = 0.0;
    let mut layer = |metric: String, span: &str| {
        let v = per_iteration(span);
        attributed += v;
        out.set(metric, v);
    };
    for (metric, span) in [
        ("io.bin.decode_ms", "io.bin.decode"),
        ("core.hicoo.from_coo_ms", "core.hicoo.from_coo"),
        ("core.coo.fibers_ms", "core.coo.fibers"),
        ("core.sched.mode_schedule_ms", "core.sched.mode_schedule"),
        ("core.sched.row_schedule_ms", "core.sched.row_schedule"),
    ] {
        layer(metric.to_string(), span);
    }
    for (_, k) in KERNELS {
        let span = format!("core.kernels.first_call.{k}");
        layer(format!("{span}_ms"), &span);
    }
    // What no child covers: digests, drops, the loop itself.
    let unattributed = per_iteration("iteration");
    out.set("cold.unattributed_ms", unattributed);
    let mean_of = |traced: bool| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .filter(|p| p.0 == traced)
            .flat_map(|(_, p)| p.iter().map(|t| t.total))
            .collect();
        stats::mean(&v)
    };
    let (on, off) = (mean_of(true), mean_of(false));
    out.set("bench.trace_overhead_pct", (on - off) / off * 100.0);
    out.note(format!(
        "traced iteration {on:.3} ms = layers {attributed:.3} + unattributed {unattributed:.3} ms; untraced {off:.3} ms (means over {traced_iterations} traced iterations)"
    ));

    let decode: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.iter().map(|t| t.decode))
        .collect();
    out.set(
        "io.bin.decode_mb_per_s",
        blobs[0].len() as f64 / 1e6 / (stats::median(&decode) / 1e3),
    );
    out.set("io.bin.encode_ms", stats::median(encode_ms));
    // The same tensor as FROSTT text.
    let x: CooTensor<f32> =
        read_bin_with(&blobs[0][..], ReadOptions::default()).expect("blob decoded before");
    let mut text = Vec::new();
    tenbench_io::tns::write_tns(&x, &mut text).expect("writing to a Vec cannot fail");
    let t0 = Instant::now();
    let parsed = tenbench_io::tns::read_tns::<f32, _>(&text[..]);
    out.set("io.tns.parse_ms", ms(t0, Instant::now()));
    out.check(
        "io.tns round trip",
        match parsed {
            Ok(y) if y.nnz() == x.nnz() => Ok(()),
            Ok(y) => Err(format!("{} nonzeros parsed, {} written", y.nnz(), x.nnz())),
            Err(e) => Err(e.to_string()),
        },
    );
}
