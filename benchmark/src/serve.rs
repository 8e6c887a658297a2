//! `serve_hits` and `serve_churn`: the TCP tier under closed-loop clients.
//!
//! An in-process `NetServer` on loopback with the supervised executor;
//! `min(nproc, 4)` clients, one request in flight each (callers of a kernel
//! service wait for each answer). Tensor popularity is Zipf over a pool of
//! ~20,000-nonzero tensors shipped as `TNB2` bytes; kernel, format and mode
//! cycle per client turn as `tenbench stress --net` does. The measured part
//! is windows with fresh connections each, because a connection's latency
//! mode is sticky. The two workloads differ only in [`Profile`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_bench::serve_exec::SupervisedExecutor;
use tenbench_core::coo::CooTensor;
use tenbench_core::kernels::Kernel;
use tenbench_gen::zipf::ZipfSampler;
use tenbench_io::bin::{read_bin_with, ReadOptions};
use tenbench_io::frame::{read_frame, write_frame, FrameKind};
use tenbench_serve::{
    encode_request, execute_direct, BatchJob, CacheKey, Executor, FormatKind, KernelService,
    NetClient, NetConfig, NetReport, NetServer, PrepCache, PrepLayout, Request, ServeConfig,
    WireRequest, WireResponse, WireStatus,
};

use crate::host;
use crate::inputs::{self, RunConfig, BLOCK_BITS, RANK};
use crate::metrics::{kernel_name, Outcome, KERNELS};
use crate::oracle;
use crate::stats;
use crate::trace::Recorder;

/// Registry id of the pool's tensors: `s4`, power-law 2048 x 2048 x 76.
const DATASET: &str = "s4";
const NNZ: usize = 20_000;
/// Measurement windows per run; each opens fresh connections.
const WINDOWS: usize = 5;
/// Warm-up touches at most this many tensors (each under both cache keys).
const WARM_TENSORS: usize = 12;
/// Issued requests replayed step by step in a traced run.
const REPLAY_SAMPLE: usize = 200;
const FORMATS: [FormatKind; 2] = [FormatKind::Coo, FormatKind::Hicoo];

/// What distinguishes the two serve workloads.
pub struct Profile {
    tensors: usize,
    zipf_alpha: f64,
    cache_bytes: u64,
    /// The hit ratio the workload is built to have; outside it the
    /// workload is misconfigured and the run fails.
    hit_ratio: (f64, f64),
    expect_evictions: bool,
}

/// Few tensors, skewed: the cache holds everything.
pub const HITS: Profile = Profile {
    tensors: 12,
    zipf_alpha: 1.1,
    cache_bytes: 64 << 20,
    hit_ratio: (0.90, 1.0),
    expect_evictions: false,
};

/// Many tensors, near-uniform, a budget of about a quarter of the pool's
/// prepared bytes: inserts and evictions beside reads.
pub const CHURN: Profile = Profile {
    tensors: 48,
    zipf_alpha: 0.05,
    cache_bytes: 6 << 20,
    hit_ratio: (0.10, 0.40),
    expect_evictions: true,
};

/// One answered request as its client saw it.
struct Sample {
    tensor: usize,
    req: WireRequest,
    start: Instant,
    wire_ms: f64,
    resp: WireResponse,
}

/// What one connection did.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    /// Requests that got no `Ok` answer: transport errors and refusals.
    failures: Vec<String>,
}

fn clients() -> usize {
    host::nproc().min(4)
}

/// The request a client issues on its `turn`-th turn.
fn turn_request(turn: usize, order: usize) -> WireRequest {
    WireRequest {
        kernel: Kernel::ALL[turn % Kernel::ALL.len()],
        format: FORMATS[(turn + 1) % 2],
        mode: (turn % order) as u8,
        rank: RANK as u16,
        deadline_ms: 0,
    }
}

/// Drive one fresh connection: send what `next` yields until it ends.
fn drive(
    addr: SocketAddr,
    blobs: &[Vec<u8>],
    mut next: impl FnMut() -> Option<(usize, WireRequest)>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    while let Some((tensor, req)) = next() {
        let start = Instant::now();
        match client.request(&req, &blobs[tensor]) {
            Ok(resp) if resp.status == WireStatus::Ok => log.samples.push(Sample {
                tensor,
                req,
                start,
                wire_ms: start.elapsed().as_secs_f64() * 1e3,
                resp,
            }),
            Ok(resp) => log
                .failures
                .push(format!("{}: {}", resp.status.name(), resp.detail)),
            Err(e) => {
                // The stream's state is unknown after a transport error.
                log.failures.push(e);
                return log;
            }
        }
    }
    log
}

/// A running server with its inputs.
struct Stage {
    pool: Vec<Arc<CooTensor<f32>>>,
    blobs: Vec<Vec<u8>>,
    server: NetServer,
    warm: Vec<ConnLog>,
}

/// One set-up: generate and serialize the pool, start the server, touch
/// the first tensors once under both cache keys (rank-free and ranked).
fn set_up(cfg: &RunConfig, profile: &Profile) -> Result<(Stage, f64), String> {
    let t0 = Instant::now();
    // Tensor `i` has `i` nonzeros more than the first. `core::sched` keys
    // its schedule cache on a buffer's address and counts, so when the
    // server evicts one tensor and the allocator hands its address to the
    // next, equal counts would let the next kernel pick up the evicted
    // tensor's schedule; distinct counts keep the workload free of that.
    let pool: Vec<Arc<CooTensor<f32>>> = (0..profile.tensors)
        .map(|i| {
            let nnz = cfg.scale(NNZ) + i;
            Arc::new(inputs::generate(DATASET, nnz, cfg.seed + i as u64))
        })
        .collect();
    let blobs: Vec<Vec<u8>> = pool.iter().map(|t| inputs::tnb2(t)).collect();
    let net = NetConfig {
        serve: ServeConfig {
            cache_bytes: cfg.scale(profile.cache_bytes as usize) as u64,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    };
    let server = NetServer::start(net, "127.0.0.1:0", || {
        Box::new(SupervisedExecutor::default())
    })
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let n = clients();
    let warm = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let blobs = &blobs;
                s.spawn(move || {
                    let mut plan =
                        (c..profile.tensors.min(WARM_TENSORS))
                            .step_by(n)
                            .flat_map(|t| {
                                [Kernel::Ts, Kernel::Mttkrp].map(|kernel| {
                                    let req = WireRequest {
                                        kernel,
                                        format: FormatKind::Hicoo,
                                        mode: 0,
                                        rank: RANK as u16,
                                        deadline_ms: 0,
                                    };
                                    (t, req)
                                })
                            });
                    drive(addr, blobs, || plan.next())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    let stage = Stage {
        pool,
        blobs,
        server,
        warm,
    };
    Ok((stage, t0.elapsed().as_secs_f64()))
}

/// One measurement window.
struct Window {
    traced: bool,
    secs: f64,
    conns: Vec<ConnLog>,
}

fn run_window(cfg: &RunConfig, profile: &Profile, stage: &Stage, w: usize, secs: f64) -> Window {
    let addr = stage.server.addr();
    let zipf = ZipfSampler::new(profile.tensors as u64, profile.zipf_alpha);
    let stop = AtomicBool::new(false);
    let n = clients();
    let t0 = Instant::now();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let (zipf, stop, stage) = (&zipf, &stop, &stage);
                s.spawn(move || {
                    let lane = (w * n + c) as u64;
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1000 + lane));
                    let mut turn = c + w * 7;
                    drive(addr, &stage.blobs, || {
                        if stop.load(Ordering::Relaxed) {
                            return None;
                        }
                        let t = zipf.sample_index(&mut rng) as usize;
                        let req = turn_request(turn, stage.pool[t].order());
                        turn += 1;
                        Some((t, req))
                    })
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("window client"))
            .collect()
    });
    Window {
        traced: cfg.trace && w % 2 == 1,
        secs: t0.elapsed().as_secs_f64(),
        conns,
    }
}

/// Typical latency over connections: the mean of each connection's exact
/// median. The median inside a connection shrugs off its slow tail; the
/// mean across connections averages out the kernel-timer tick a
/// connection's latency is quantised to, which one pooled median would
/// flip between.
fn typical_latency<'a>(conns: impl Iterator<Item = &'a ConnLog>) -> f64 {
    let medians: Vec<f64> = conns
        .filter(|c| !c.samples.is_empty())
        .map(|c| stats::median(&c.samples.iter().map(|s| s.wire_ms).collect::<Vec<_>>()))
        .collect();
    stats::mean(&medians)
}

fn total_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.resp.total_ms).collect()
}

/// What the service's worker does between dequeue and execution: look the
/// tensor up (or prepare it) and assemble the executor's job. Returns the
/// job and whether the look-up was a hit.
fn batch_job(
    cache: &PrepCache,
    tensor: &Arc<CooTensor<f32>>,
    fingerprint: u64,
    req: &WireRequest,
) -> Result<(BatchJob, bool), String> {
    // The service keys rank-free kernels under rank 0.
    let rank = match req.kernel {
        Kernel::Tew | Kernel::Ts | Kernel::Ttv => 0,
        _ => usize::from(req.rank),
    };
    let key = CacheKey {
        fingerprint,
        block_bits: BLOCK_BITS,
        rank,
        layout: PrepLayout::Hicoo,
    };
    let (prep, hit) = cache.get_or_prepare(key, tensor)?;
    let job = BatchJob {
        kernel: req.kernel,
        format: req.format,
        mode: usize::from(req.mode),
        rank,
        coo: prep.coo.clone(),
        hicoo: prep.hicoo.clone(),
        vb: prep.vb.clone(),
        factors: prep.factors.clone(),
    };
    Ok((job, hit))
}

/// The in-process answer key: what the same executor gives for a request.
struct Expected {
    cache: PrepCache,
    exec: SupervisedExecutor,
    seen: HashMap<(usize, u8, bool, u8), Result<f64, String>>,
}

impl Expected {
    fn digest(&mut self, pool: &[Arc<CooTensor<f32>>], s: &Sample) -> Result<f64, String> {
        let key = (
            s.tensor,
            s.req.kernel as u8,
            s.req.format == FormatKind::Hicoo,
            s.req.mode,
        );
        if let Some(known) = self.seen.get(&key) {
            return known.clone();
        }
        let tensor = &pool[s.tensor];
        let digest = batch_job(&self.cache, tensor, tensor.fingerprint(), &s.req)
            .and_then(|(job, _)| self.exec.execute(&job))
            .map(|o| o.digest);
        self.seen.insert(key, digest.clone());
        digest
    }
}

pub fn run(cfg: &RunConfig, profile: &Profile) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..cfg.setup_reps() {
        if let Some(Stage { server, .. }) = stage.take() {
            server.shutdown();
        }
        match set_up(cfg, profile) {
            Ok((s, secs)) => {
                setup_s.push(secs);
                stage = Some(s);
            }
            Err(e) => {
                out.check("set-up", Err(e));
                return out;
            }
        }
    }
    let stage = stage.expect("set-up ran");
    out.note(format!(
        "{} tensors of {} nnz, {} TNB2 bytes each; {} closed-loop clients, Zipf alpha {}, cache budget {} bytes",
        profile.tensors,
        stage.pool[0].nnz(),
        stage.blobs[0].len(),
        clients(),
        profile.zipf_alpha,
        cfg.scale(profile.cache_bytes as usize),
    ));

    // A traced run keeps 30% of its time for the step-by-step replay.
    let budget = if cfg.trace {
        0.7 * cfg.seconds
    } else {
        cfg.seconds
    };
    let started = Instant::now();
    let windows: Vec<Window> = (0..WINDOWS)
        .map(|w| run_window(cfg, profile, &stage, w, budget / WINDOWS as f64))
        .collect();
    out.set("peak_rss_mb", host::peak_rss_mb());

    let conns = || windows.iter().flat_map(|w| w.conns.iter());
    let samples = || conns().flat_map(|c| c.samples.iter());
    for c in conns().chain(&stage.warm) {
        out.attempted += (c.samples.len() + c.failures.len()) as u64;
        for f in &c.failures {
            out.fail("request", f.clone());
        }
    }
    if samples().next().is_none() {
        out.check("measurement", Err("no request completed".into()));
        stage.server.shutdown();
        return out;
    }

    // Latency of a typical request, and its split into what the server
    // reports (`total_ms`: queue, cache, executor) and the transport around
    // it. Kernel and hit-or-miss differences live wholly in the server
    // part; pairing it with the shared transport estimate keeps the
    // per-kernel figures from inheriting the transport's sampling noise.
    let lat = typical_latency(conns());
    let transport = lat - stats::median(&total_ms(samples()));
    for (kernel, name) in KERNELS {
        let cells: Vec<f64> = FORMATS
            .iter()
            .map(|&f| {
                let of_cell =
                    total_ms(samples().filter(|s| s.req.kernel == kernel && s.req.format == f));
                let of_kernel = total_ms(samples().filter(|s| s.req.kernel == kernel));
                // A short smoke run may not reach every cell.
                let server = [of_cell, of_kernel, total_ms(samples())]
                    .iter()
                    .find(|v| !v.is_empty())
                    .map(|v| stats::median(v))
                    .expect("some request completed");
                transport + server
            })
            .collect();
        out.set(format!("{name}_geo_ms"), stats::geomean(&cells));
    }
    let misses = total_ms(
        samples()
            .chain(stage.warm.iter().flat_map(|c| c.samples.iter()))
            .filter(|s| !s.resp.cache_hit),
    );
    out.set("setup_s", stats::median(&setup_s));
    out.set("first_result_ms", transport + stats::median(&misses));
    let rates: Vec<(u64, f64)> = windows
        .iter()
        .map(|w| (w.conns.iter().map(|c| c.samples.len() as u64).sum(), w.secs))
        .collect();
    out.set("req_per_s", stats::window_median_rate(&rates));
    out.set("lat_p50_ms", lat);
    let n = samples().count();
    let hits = samples().filter(|s| s.resp.cache_hit).count();
    let hit_ratio = hits as f64 / n as f64;
    out.note(format!(
        "{WINDOWS} windows x {} connections; n = {n} raw latency samples, {} cache-miss samples; hit ratio {hit_ratio:.3}; a request is one wire round trip",
        clients(),
        misses.len(),
    ));

    let mut rec = cfg.trace.then(|| Recorder::new(started, 0));
    if let Some(rec) = &mut rec {
        let remaining = (cfg.seconds - started.elapsed().as_secs_f64()).max(0.5);
        trace_metrics(rec, &stage, &windows, remaining, &mut out);
    }

    let report = stage.server.shutdown();
    let cache = report.cache();
    if !cfg.quick {
        let (lo, hi) = profile.hit_ratio;
        if !(lo..=hi).contains(&hit_ratio) {
            out.check(
                "workload shape",
                Err(format!(
                    "misconfigured: hit ratio {hit_ratio:.3} outside [{lo}, {hi}]"
                )),
            );
        }
        if profile.expect_evictions && cache.evictions == 0 {
            out.check("workload shape", Err("misconfigured: no evictions".into()));
        }
    }
    if cfg.trace {
        report_metrics(&report, hit_ratio, &mut out);
    }

    // The oracle: every response's digest against what the same executor
    // gives in-process for that (tensor, kernel, format, mode).
    // The server's tensors are gone; none of their schedules may be reused.
    tenbench_core::sched::clear_cache();
    let mut expected = Expected {
        cache: PrepCache::new(u64::MAX),
        exec: SupervisedExecutor::default(),
        seen: HashMap::new(),
    };
    for s in samples().chain(stage.warm.iter().flat_map(|c| c.samples.iter())) {
        let verdict = expected
            .digest(&stage.pool, s)
            .and_then(|want| oracle::check_digest(s.resp.digest, want));
        if let Err(e) = verdict {
            out.fail(
                &format!(
                    "tensor {} {}.{}",
                    s.tensor,
                    kernel_name(s.req.kernel),
                    s.req.format.as_str()
                ),
                e,
            );
        }
    }
    out.recorder = rec;
    out
}

/// Server-side counters of the whole run (warm-up included).
fn report_metrics(report: &NetReport, hit_ratio: f64, out: &mut Outcome) {
    let cache = report.cache();
    let requests = report.requests.max(1) as f64;
    out.set(
        "serve.net.bytes_in_per_req",
        report.bytes_in as f64 / requests,
    );
    out.set(
        "serve.net.bytes_out_per_req",
        report.bytes_out as f64 / requests,
    );
    out.set("serve.net.protocol_errors", report.protocol_errors as f64);
    let done: Vec<u64> = report.shards.iter().map(|s| s.completed).collect();
    let (most, least) = (
        done.iter().copied().max().unwrap_or(0),
        done.iter().copied().min().unwrap_or(0),
    );
    out.set("serve.net.shard_skew", most as f64 / least.max(1) as f64);
    let batches: u64 = report.shards.iter().map(|s| s.batches).sum();
    out.set(
        "serve.service.mean_batch",
        report.completed() as f64 / batches.max(1) as f64,
    );
    out.set(
        "serve.queue.max_depth",
        report
            .shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "serve.queue.rejected",
        (report.rejected_queue_full() + report.rejected_deadline()) as f64,
    );
    out.set("serve.cache.hit_ratio", hit_ratio);
    out.set("serve.cache.evictions", cache.evictions as f64);
    out.set(
        "serve.cache.resident_mb",
        cache.bytes as f64 / (1 << 20) as f64,
    );
    out.set("serve.cache.collisions", cache.collisions as f64);
}

/// Spans of the traced windows, the step-by-step replay, and the per-layer
/// metrics read from them.
fn trace_metrics(
    rec: &mut Recorder,
    stage: &Stage,
    windows: &[Window],
    replay_secs: f64,
    out: &mut Outcome,
) {
    // Wire spans from the traced windows. The server's own figures ride in
    // each response; they are laid out inside the wire span as children.
    let mut op = 0u64;
    let mut issued: Vec<&Sample> = Vec::new();
    for (lane, conn) in windows
        .iter()
        .filter(|w| w.traced)
        .flat_map(|w| &w.conns)
        .enumerate()
    {
        let mut lane_rec = Recorder::new(rec.epoch(), lane as u32 + 1);
        for s in &conn.samples {
            let end = s.start + Duration::from_secs_f64(s.wire_ms / 1e3);
            let wire = lane_rec.push("serve.net.wire", op, None, s.start, end);
            let inside =
                s.start + Duration::from_secs_f64((s.wire_ms - s.resp.total_ms).max(0.0) / 2e3);
            let svc = lane_rec.push_ms(
                "serve.service.total",
                op,
                Some(wire),
                inside,
                s.resp.total_ms,
            );
            lane_rec.push_ms("serve.queue.wait", op, Some(svc), inside, s.resp.queued_ms);
            let exec_at = inside + Duration::from_secs_f64(s.resp.queued_ms.max(0.0) / 1e3);
            lane_rec.push_ms("serve.service.exec", op, Some(svc), exec_at, s.resp.exec_ms);
            issued.push(s);
            op += 1;
        }
        rec.absorb(lane_rec);
    }

    let traced = || windows.iter().filter(|w| w.traced);
    let wire = typical_latency(traced().flat_map(|w| w.conns.iter()));
    let off = typical_latency(
        windows
            .iter()
            .filter(|w| !w.traced)
            .flat_map(|w| w.conns.iter()),
    );
    out.set("bench.trace_overhead_pct", (wire - off) / off * 100.0);
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.conns.iter())
        .flat_map(|c| c.samples.iter().map(|s| s.wire_ms))
        .collect();
    out.set("serve.net.lat_p95_ms", stats::percentile(&all, 95.0));
    out.set("serve.net.lat_p99_ms", stats::percentile(&all, 99.0));
    out.set("serve.net.lat_max_ms", stats::percentile(&all, 100.0));

    let self_ms = rec.self_ms_by_name();
    let dur_ms = rec.duration_ms_by_name();
    let median_of = |m: &std::collections::BTreeMap<String, Vec<f64>>, name: &str| {
        m.get(name).map_or(0.0, |v| stats::median(v))
    };
    let service_total = median_of(&dur_ms, "serve.service.total");
    let net_self = wire - service_total;
    out.set("serve.net.wire_ms", wire);
    out.set("serve.net.self_ms", net_self);
    out.set("serve.service.total_ms", service_total);
    out.set(
        "serve.service.self_ms",
        median_of(&self_ms, "serve.service.total"),
    );
    out.set(
        "serve.queue.wait_ms",
        median_of(&dur_ms, "serve.queue.wait"),
    );

    // Replay a fixed sample of the issued requests step by step, calling
    // each layer's public functions directly.
    let started = Instant::now();
    let stride = (issued.len() / REPLAY_SAMPLE).max(1);
    let cache = PrepCache::new(u64::MAX);
    let supervised = SupervisedExecutor::default();
    let service = KernelService::start(
        ServeConfig::default(),
        Box::new(SupervisedExecutor::default()),
    );
    let mut replay = Recorder::new(rec.epoch(), 0);
    let mut replayed = 0usize;
    let mut direct_ms: HashMap<Kernel, Vec<f64>> = HashMap::new();
    let mut overhead_ms: HashMap<Kernel, Vec<f64>> = HashMap::new();
    for (op, s) in issued.iter().enumerate().step_by(stride) {
        if started.elapsed().as_secs_f64() > replay_secs {
            break;
        }
        replayed += 1;
        let op = op as u64;
        let t0 = Instant::now();
        let root = replay.open("replay", op, None, t0);
        let mut step = |name: &str, t0: Instant| {
            let t1 = Instant::now();
            replay.push(name, op, Some(root), t0, t1);
            (t1 - t0).as_secs_f64() * 1e3
        };
        let payload = encode_request(&s.req, &stage.blobs[s.tensor]);
        step("serve.net.encode", t0);
        let t = Instant::now();
        let mut framed = Vec::with_capacity(payload.len() + 32);
        write_frame(&mut framed, FrameKind::Request, op, &payload).expect("frame to a Vec");
        step("io.frame.write", t);
        let t = Instant::now();
        let frame = read_frame(&mut &framed[..], framed.len() as u64)
            .expect("frame written above")
            .expect("one whole frame");
        step("io.frame.read", t);
        let t = Instant::now();
        // The request header is 9 bytes; the tensor follows.
        let tensor: CooTensor<f32> =
            read_bin_with(&frame.payload.chunk()[9..], ReadOptions::default())
                .expect("tensor serialized above");
        step("io.bin.decode", t);
        let tensor = Arc::new(tensor);
        let t = Instant::now();
        let fingerprint = tensor.fingerprint();
        step("core.coo.fingerprint", t);
        let t = Instant::now();
        // A fresh allocation with resident content: a hit here is the
        // content-verified kind a wire request gets.
        let (job, hit) = batch_job(&cache, &tensor, fingerprint, &s.req).expect("prepare");
        step(
            if hit {
                "serve.cache.hit"
            } else {
                "serve.cache.miss"
            },
            t,
        );
        // The first execution after a miss builds the kernel's schedule, as
        // it does in the server; the supervisor is compared with a second,
        // equally warm, direct execution.
        let t = Instant::now();
        let direct = execute_direct(&job);
        let direct_took = step(&format!("serve.exec.{}", kernel_name(s.req.kernel)), t);
        let t = Instant::now();
        let sup = supervised.execute(&job);
        let sup_took = step("bench.supervisor", t);
        let t = Instant::now();
        let again = execute_direct(&job);
        let warm_took = step("bench.supervisor.baseline", t);
        let t = Instant::now();
        let answer = service
            .submit(Request {
                kernel: s.req.kernel,
                format: s.req.format,
                mode: usize::from(s.req.mode),
                rank: usize::from(s.req.rank),
                tensor: tensor.clone(),
                deadline: None,
            })
            .and_then(|ticket| ticket.wait());
        step("serve.service.inproc", t);
        replay.close(root, Instant::now());
        direct_ms.entry(s.req.kernel).or_default().push(direct_took);
        overhead_ms
            .entry(s.req.kernel)
            .or_default()
            .push(sup_took - warm_took);
        let agree = match (direct.and(again), sup, answer) {
            (Ok(_), Ok(b), Ok(c)) => oracle::check_digest(c.digest, b.digest),
            (d, b, c) => Err(format!(
                "replay failed: direct {:?}, supervised {:?}, in-process {:?}",
                d.map(|o| o.digest),
                b.map(|o| o.digest),
                c.map(|r| r.digest)
            )),
        };
        out.check("replay", agree);
    }
    service.shutdown();
    let replay_ms = replay.duration_ms_by_name();
    rec.absorb(replay);
    for (metric, span) in [
        ("io.frame.write_ms", "io.frame.write"),
        ("io.frame.read_ms", "io.frame.read"),
        ("io.bin.decode_ms", "io.bin.decode"),
        ("core.coo.fingerprint_ms", "core.coo.fingerprint"),
        ("serve.cache.hit_ms", "serve.cache.hit"),
        ("serve.cache.miss_ms", "serve.cache.miss"),
        ("serve.service.inproc_ms", "serve.service.inproc"),
    ] {
        out.set(metric, median_of(&replay_ms, span));
    }
    for (kernel, k) in KERNELS {
        let med = |m: &HashMap<Kernel, Vec<f64>>| m.get(&kernel).map_or(0.0, |v| stats::median(v));
        out.set(format!("serve.exec.{k}_ms"), med(&direct_ms));
        out.set(
            format!("bench.supervisor.overhead.{k}_ms"),
            med(&overhead_ms),
        );
    }
    // Of the transport's share, what the replayed wire-side steps explain.
    let explained: f64 = [
        "serve.net.encode",
        "io.frame.write",
        "io.frame.read",
        "io.bin.decode",
        "core.coo.fingerprint",
    ]
    .iter()
    .map(|span| median_of(&replay_ms, span))
    .sum();
    out.set("serve.net.unattributed_ms", net_self - explained);
    out.note(format!(
        "traced wire {wire:.3} ms = service {service_total:.3} + net self {net_self:.3} ms (replayed steps explain {explained:.3}); untraced wire {off:.3} ms; {replayed} of {} traced requests replayed",
        issued.len()
    ));
}
