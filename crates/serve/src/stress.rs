//! Load generation for the service: a closed-loop phase with Zipf-skewed
//! tensor popularity, and an overload burst that probes the admission
//! boundary — over either transport.
//!
//! The closed loop models the serving workload PASTA's kernels sit
//! inside: a fixed set of clients, each sending a request, waiting for
//! the answer, and immediately sending the next. Tensor choice is
//! Zipf-distributed over the pool — a few tensors absorb most requests —
//! which is exactly the popularity skew the format cache is built for.
//! The burst instead releases many clients at once against the tensors of
//! one shard, to show that excess load is refused with typed queue-full
//! rejections rather than queued without bound.
//!
//! Both phases run over a [`Transport`]: a [`KernelService`] in this
//! process, or a [`crate::NetServer`] reached through [`NetClient`]. Every
//! answer is bucketed by its [`WireStatus`] — in-process errors map
//! through the table the server uses to answer on the wire — so both
//! transports report one [`Tally`].

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_core::coo::CooTensor;
use tenbench_core::kernels::Kernel;
use tenbench_gen::zipf::ZipfSampler;
use tenbench_obs::json::json_f64;
use tenbench_obs::LogHistogram;

use crate::net::{status_of, NetClient, WireRequest, WireStatus};
use crate::service::{FormatKind, KernelService, Request};

/// One load-generator run: the tensor pool, the closed loop, the
/// transport, and the gates `tenbench stress` applies to the result.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Registry dataset id the pool is generated from.
    pub dataset: String,
    /// Nonzeros per pool tensor.
    pub nnz: usize,
    /// Pool size (distinct tensors; Zipf popularity ranges over these).
    pub tensors: usize,
    /// How long the closed loop runs.
    pub duration: Duration,
    /// Closed-loop clients (one connection each over TCP).
    pub concurrency: usize,
    /// Zipf skew of tensor popularity over the pool (larger = more skew).
    pub alpha: f64,
    /// Factor rank for Ttm/Mttkrp requests.
    pub rank: usize,
    /// Per-request queue deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Base RNG seed: pool tensor `i` and client `w` derive their seeds
    /// from it.
    pub seed: u64,
    /// `Some(n)`: serve over loopback TCP from `n` fingerprint-partitioned
    /// shards. `None`: serve in this process.
    pub shards: Option<usize>,
    /// Fail if the closed-loop client p99 latency exceeds this many ms.
    pub max_p99_ms: Option<f64>,
    /// Fail if the closed-loop cache hit ratio falls below this.
    pub min_hit_ratio: f64,
    /// Write `BENCH_serve.json` here.
    pub out_json: Option<PathBuf>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            dataset: "s4".to_string(),
            nnz: 20_000,
            tensors: 12,
            duration: Duration::from_secs(5),
            concurrency: 4,
            alpha: 1.1,
            rank: 16,
            deadline_ms: 0,
            seed: 42,
            shards: None,
            max_p99_ms: None,
            min_hit_ratio: 0.5,
            out_json: None,
        }
    }
}

/// What a set of clients observed. Every issued request lands in exactly
/// one bucket, so `issued == answered() + lost` balances, and `lost == 0`
/// is the no-silent-drop gate.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub issued: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// `ok` answers whose format preparation came from the cache.
    pub(crate) cache_hits: u64,
    /// Typed queue-full rejections at admission.
    pub rejected_full: u64,
    /// Typed deadline rejections at dequeue.
    pub(crate) rejected_deadline: u64,
    /// Typed shutting-down rejections (the client stops after one).
    pub(crate) shutting_down: u64,
    /// Requests whose execution failed or that the server could not decode.
    pub(crate) failed: u64,
    /// Requests with no typed answer: the transport dropped them, or no
    /// worker answered within the wait cap.
    pub lost: u64,
    /// Client-side latency of the `ok` answers, milliseconds.
    pub latency: LogHistogram,
}

impl Tally {
    fn absorb(&mut self, o: &Tally) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.cache_hits += o.cache_hits;
        self.rejected_full += o.rejected_full;
        self.rejected_deadline += o.rejected_deadline;
        self.shutting_down += o.shutting_down;
        self.failed += o.failed;
        self.lost += o.lost;
        self.latency.merge(&o.latency);
    }

    /// Requests that got a typed answer.
    pub fn answered(&self) -> u64 {
        self.ok + self.rejected_full + self.rejected_deadline + self.shutting_down + self.failed
    }

    /// Share of `ok` answers served from the format cache (0 with none).
    pub fn hit_ratio(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.ok as f64
        }
    }

    /// Send one request on `pool[idx]` through `client` and bucket the
    /// answer. Returns `false` when the client should stop: the transport
    /// is gone or the server is shutting down.
    fn send(
        &mut self,
        client: &mut Client<'_>,
        pool: &[Arc<CooTensor<f32>>],
        idx: usize,
        req: &WireRequest,
    ) -> bool {
        self.issued += 1;
        let t0 = Instant::now();
        let Some((status, cache_hit)) = client.call(pool, idx, req) else {
            self.lost += 1;
            return false;
        };
        match status {
            WireStatus::Ok => {
                self.ok += 1;
                self.cache_hits += u64::from(cache_hit);
                self.latency.record(t0.elapsed().as_secs_f64() * 1e3);
            }
            WireStatus::QueueFull => self.rejected_full += 1,
            WireStatus::DeadlineExpired => self.rejected_deadline += 1,
            WireStatus::ShuttingDown => {
                self.shutting_down += 1;
                return false;
            }
            WireStatus::WorkerLost => self.lost += 1,
            WireStatus::Failed | WireStatus::BadRequest => self.failed += 1,
        }
        true
    }

    /// JSON object of the counts and the latency distribution.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"issued\": {}, \"ok\": {}, \"cache_hits\": {}, \"rejected_full\": {}, ",
                "\"rejected_deadline\": {}, \"shutting_down\": {}, \"failed\": {}, ",
                "\"lost\": {}, \"latency\": {{\"p50_ms\": {}, \"p90_ms\": {}, ",
                "\"p99_ms\": {}, \"hist\": {}}}}}"
            ),
            self.issued,
            self.ok,
            self.cache_hits,
            self.rejected_full,
            self.rejected_deadline,
            self.shutting_down,
            self.failed,
            self.lost,
            json_f64(self.latency.percentile(50.0)),
            json_f64(self.latency.percentile(90.0)),
            json_f64(self.latency.percentile(99.0)),
            self.latency.to_json(),
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "issued {} ok {} ({} cache hits) rejected {} (full) + {} (deadline) + {} \
             (shutting down), failed {}, lost {}; latency p50 {:.3} p90 {:.3} p99 {:.3} ms",
            self.issued,
            self.ok,
            self.cache_hits,
            self.rejected_full,
            self.rejected_deadline,
            self.shutting_down,
            self.failed,
            self.lost,
            self.latency.percentile(50.0),
            self.latency.percentile(90.0),
            self.latency.percentile(99.0),
        )
    }
}

/// Where the generator's clients send their requests.
pub enum Transport<'a> {
    /// Submit to a service in this process.
    InProcess(&'a KernelService),
    /// Send `TNF1` frames to a [`crate::NetServer`].
    Tcp {
        /// The server's bound address.
        addr: SocketAddr,
        /// The server's shard count (the burst targets one shard).
        shards: usize,
        /// The per-shard queue bound (sizes the burst).
        queue_bound: usize,
        /// Pool tensor `i` serialized once as `TNB2` bytes.
        tnb2: Vec<Vec<u8>>,
    },
}

impl Transport<'_> {
    fn shards(&self) -> usize {
        match self {
            Transport::InProcess(_) => 1,
            Transport::Tcp { shards, .. } => (*shards).max(1),
        }
    }

    fn queue_bound(&self) -> usize {
        match self {
            Transport::InProcess(svc) => svc.report().queue_bound,
            Transport::Tcp { queue_bound, .. } => *queue_bound,
        }
    }

    fn connect(&self) -> Client<'_> {
        match self {
            Transport::InProcess(svc) => Client::InProcess(svc),
            Transport::Tcp { addr, tnb2, .. } => match NetClient::connect(addr) {
                Ok(c) => Client::Tcp(c, tnb2),
                Err(_) => Client::Refused,
            },
        }
    }
}

/// One client's link to the service.
enum Client<'a> {
    InProcess(&'a KernelService),
    Tcp(NetClient, &'a [Vec<u8>]),
    /// The connection was refused: every request on it is lost.
    Refused,
}

/// Upper bound an in-process client waits for any single response before
/// declaring the worker lost. Far above any legitimate kernel execution.
const WAIT_CAP: Duration = Duration::from_secs(60);

impl Client<'_> {
    /// The typed status and cache-hit flag of one request on `pool[idx]`;
    /// `None` when the transport lost it.
    fn call(
        &mut self,
        pool: &[Arc<CooTensor<f32>>],
        idx: usize,
        req: &WireRequest,
    ) -> Option<(WireStatus, bool)> {
        match self {
            Client::InProcess(svc) => {
                let answer = svc
                    .submit(Request {
                        kernel: req.kernel,
                        format: req.format,
                        mode: usize::from(req.mode),
                        rank: usize::from(req.rank),
                        tensor: pool[idx].clone(),
                        deadline: (req.deadline_ms > 0)
                            .then(|| Duration::from_millis(u64::from(req.deadline_ms))),
                    })
                    // wait_timeout, not wait: a dead worker must surface
                    // as a typed WorkerLost, not hang a client.
                    .and_then(|t| t.wait_timeout(WAIT_CAP));
                Some(match answer {
                    Ok(resp) => (WireStatus::Ok, resp.cache_hit),
                    Err(e) => (status_of(&e), false),
                })
            }
            Client::Tcp(client, tnb2) => client
                .request(req, &tnb2[idx])
                .ok()
                .map(|resp| (resp.status, resp.cache_hit)),
            Client::Refused => None,
        }
    }
}

/// Drive the service closed-loop for `cfg.duration` from
/// `cfg.concurrency` clients, picking tensors Zipf-skewed from `pool`.
/// Each client rotates through [`Kernel::ALL`], alternates COO/HiCOO, and
/// rotates the product mode, so the whole request space is exercised
/// while tensor popularity stays skewed.
pub fn closed_loop(
    transport: &Transport<'_>,
    pool: &[Arc<CooTensor<f32>>],
    cfg: &StressConfig,
) -> Tally {
    assert!(!pool.is_empty(), "stress needs at least one tensor");
    let zipf = ZipfSampler::new(pool.len() as u64, cfg.alpha);
    let stop = AtomicBool::new(false);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency.max(1))
            .map(|w| {
                let zipf = &zipf;
                let stop = &stop;
                s.spawn(move || {
                    let mut client = transport.connect();
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(w as u64));
                    let mut tally = Tally::default();
                    let mut turn = w;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = zipf.sample_index(&mut rng) as usize;
                        let req = WireRequest {
                            kernel: Kernel::ALL[turn % Kernel::ALL.len()],
                            format: if turn % 2 == 0 {
                                FormatKind::Hicoo
                            } else {
                                FormatKind::Coo
                            },
                            mode: (turn % pool[idx].order()) as u8,
                            rank: cfg.rank.min(usize::from(u16::MAX)) as u16,
                            deadline_ms: cfg.deadline_ms.min(u64::from(u32::MAX)) as u32,
                        };
                        turn += 1;
                        if !tally.send(&mut client, pool, idx, &req) {
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            total.absorb(&h.join().expect("stress client"));
        }
    });
    total
}

/// Requests each burst client sends, one at a time.
pub const BURST_REQUESTS_PER_CLIENT: usize = 3;

/// The overload burst: clients released together by a barrier, enough of
/// them (and at least `clients`) that their in-flight count dwarfs one
/// shard's queue, each sending [`BURST_REQUESTS_PER_CLIENT`] HiCOO
/// requests. Every request targets the tensors that route to one shard
/// (`fingerprint % shards`, as the server routes), and none carries a
/// deadline — deadline shedding drains a full queue almost as fast as it
/// fills, so an undeadlined backlog is what makes the bound itself bind.
/// Returns the client count and what they observed; overload must
/// surface as `rejected_full > 0`.
pub fn burst(
    transport: &Transport<'_>,
    pool: &[Arc<CooTensor<f32>>],
    clients: usize,
) -> (usize, Tally) {
    assert!(!pool.is_empty(), "the burst needs at least one tensor");
    let shards = transport.shards() as u64;
    let target = pool[0].fingerprint() % shards;
    let hot: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].fingerprint() % shards == target)
        .collect();
    let n = (transport.shards() * transport.queue_bound() * 2 + 16).max(clients);
    let barrier = Barrier::new(n);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let (barrier, hot) = (&barrier, &hot);
                s.spawn(move || {
                    let mut client = transport.connect();
                    let mut tally = Tally::default();
                    barrier.wait();
                    for i in 0..BURST_REQUESTS_PER_CLIENT {
                        let idx = hot[(w + i) % hot.len()];
                        let req = WireRequest {
                            kernel: Kernel::ALL[(w + i) % Kernel::ALL.len()],
                            format: FormatKind::Hicoo,
                            mode: ((w + i) % pool[idx].order()) as u8,
                            // A wide rank makes each admitted execution
                            // slow enough that the shard cannot drain its
                            // queue as fast as the clients refill it.
                            rank: 256,
                            deadline_ms: 0,
                        };
                        if !tally.send(&mut client, pool, idx, &req) {
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.absorb(&h.join().expect("burst client"));
        }
    });
    (n, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{DirectExecutor, ServeConfig};
    use tenbench_core::shape::Shape;

    fn pool(n: usize) -> Vec<Arc<CooTensor<f32>>> {
        (0..n as u32)
            .map(|seed| {
                Arc::new(
                    CooTensor::from_entries(
                        Shape::new(vec![20, 20, 20]),
                        (0..200u32)
                            .map(|i| {
                                (
                                    vec![
                                        (i * 7 + seed) % 20,
                                        (i * 13 + seed * 3) % 20,
                                        (i * 29) % 20,
                                    ],
                                    (i % 17) as f32 + 1.0,
                                )
                            })
                            .collect(),
                    )
                    .unwrap(),
                )
            })
            .collect()
    }

    fn balanced(t: &Tally) -> bool {
        t.issued == t.answered() + t.lost
    }

    #[test]
    fn closed_loop_completes_and_hits_the_cache() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 2,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(DirectExecutor),
        );
        let pool = pool(6);
        let tally = closed_loop(
            &Transport::InProcess(&svc),
            &pool,
            &StressConfig {
                duration: Duration::from_millis(400),
                concurrency: 3,
                ..StressConfig::default()
            },
        );
        assert!(tally.issued > 0);
        assert!(tally.ok > 0, "{tally:?}");
        assert_eq!(tally.failed, 0, "{tally:?}");
        assert_eq!(tally.lost, 0, "{tally:?}");
        assert!(balanced(&tally), "{tally:?}");
        assert_eq!(tally.latency.count(), tally.ok);
        // Zipf skew concentrates requests on few tensors → the prepared
        // formats are overwhelmingly reused, seen by the clients and the
        // service alike.
        assert!(
            tally.hit_ratio() > 0.5,
            "hit ratio {:.2}",
            tally.hit_ratio()
        );
        let report = svc.shutdown();
        assert!(
            report.cache.hit_ratio() > 0.5,
            "hit ratio {:.2}",
            report.cache.hit_ratio()
        );
    }

    #[test]
    fn burst_sees_typed_queue_full() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 1,
                queue_bound: 4,
                max_batch: 1,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(DirectExecutor),
        );
        let pool = pool(2);
        let (clients, tally) = burst(&Transport::InProcess(&svc), &pool, 0);
        assert_eq!(clients, 4 * 2 + 16);
        assert_eq!(
            tally.issued,
            (clients * BURST_REQUESTS_PER_CLIENT) as u64,
            "{tally:?}"
        );
        assert!(tally.rejected_full > 0, "{tally:?}");
        assert_eq!(tally.lost, 0, "{tally:?}");
        assert!(balanced(&tally), "{tally:?}");
        let report = svc.shutdown();
        assert_eq!(report.rejected_queue_full, tally.rejected_full);
    }
}
