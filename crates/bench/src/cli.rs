//! The `tenbench` command-line tool: format conversion, tensor statistics,
//! synthetic generation, and single-kernel runs on user tensors — "the
//! benchmark suite can be run against any set of tensors provided that
//! they are expressed using coordinate format" (paper §4).
//!
//! The logic lives here (returning the report as a `String`) so it is unit
//! testable; `src/bin/tenbench.rs` is a thin wrapper.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenbench_obs as obs;

use tenbench_core::coo::{CooTensor, SortAlgo};
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::mttkrp::MttkrpStrategy;
use tenbench_core::kernels::Kernel;
use tenbench_core::par;
use tenbench_core::shape::Shape;
use tenbench_gen::zipf::ZipfSampler;
use tenbench_gen::{KroneckerGenerator, PowerLawGenerator, TensorStats};

use crate::cells::{self, Cell, Inputs};
use crate::format::{fint, fnum, TextTable};
use crate::suite::make_factors;
use crate::supervisor::{self, RunReport, SupervisorConfig, Trial};

/// CLI errors: anything the underlying crates report, plus usage problems.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or unsupported file extension.
    Usage(String),
    /// I/O or parse failure.
    Io(tenbench_io::IoError),
    /// Kernel or format failure.
    Tensor(tenbench_core::TensorError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Tensor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<tenbench_io::IoError> for CliError {
    fn from(e: tenbench_io::IoError) -> Self {
        CliError::Io(e)
    }
}

impl From<tenbench_core::TensorError> for CliError {
    fn from(e: tenbench_core::TensorError) -> Self {
        CliError::Tensor(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(tenbench_io::IoError::Io(e))
    }
}

/// Result alias for CLI operations.
pub type CliResult<T> = Result<T, CliError>;

/// Observability options shared by the measuring subcommands
/// (`--trace <path>` and `--profile`).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's chrome-trace JSON here.
    pub trace: Option<PathBuf>,
    /// Append the hierarchical span profile and metrics summary to the
    /// report.
    pub profile: bool,
}

impl ObsOptions {
    /// `true` when any capture output was requested.
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.profile
    }
}

/// Run `body` under an observability capture when one was requested:
/// spans, counters, and pool telemetry record for the duration; the
/// drained trace is schema-validated and written to `--trace`, and
/// `--profile` appends the span profile plus the metrics summary to the
/// report. With no capture requested this is exactly `body()`.
pub fn with_obs(opts: &ObsOptions, body: impl FnOnce() -> CliResult<String>) -> CliResult<String> {
    if !opts.active() {
        return body();
    }
    let cap = crate::metrics::Capture::begin();
    let result = body();
    let (trace, report) = cap.finish();
    let mut out = result?;
    if opts.profile {
        out.push('\n');
        out.push_str(&trace.profile());
        out.push_str(&report.render());
    }
    if let Some(path) = &opts.trace {
        let json = trace.to_chrome_json();
        // Self-check before writing: an artifact that fails its own
        // validator should never reach disk silently.
        obs::json::validate_chrome_trace(&json).map_err(|e| {
            CliError::Usage(format!("internal: emitted trace failed validation: {e}"))
        })?;
        std::fs::write(path, &json)?;
        out.push_str(&format!("\nwrote trace {}", path.display()));
    }
    Ok(out)
}

/// Load a tensor by file extension: `.tns` (FROSTT text) or `.tnb`
/// (tenbench binary).
pub fn load_tensor(path: &Path) -> CliResult<CooTensor<f32>> {
    let file = File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("tns") => Ok(tenbench_io::tns::read_tns(BufReader::new(file))?),
        Some("tnb") => Ok(tenbench_io::bin::read_bin(BufReader::new(file))?),
        other => Err(CliError::Usage(format!(
            "unsupported input extension {other:?} (expected .tns or .tnb)"
        ))),
    }
}

/// Save a tensor by file extension.
pub fn save_tensor(t: &CooTensor<f32>, path: &Path) -> CliResult<()> {
    let file = File::create(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("tns") => Ok(tenbench_io::tns::write_tns(t, BufWriter::new(file))?),
        Some("tnb") => Ok(tenbench_io::bin::write_bin(t, BufWriter::new(file))?),
        other => Err(CliError::Usage(format!(
            "unsupported output extension {other:?} (expected .tns or .tnb)"
        ))),
    }
}

/// `convert <in> <out>`: read one format, write the other.
pub fn convert(input: &Path, output: &Path) -> CliResult<String> {
    let t = load_tensor(input)?;
    save_tensor(&t, output)?;
    Ok(format!(
        "converted {} -> {}: {} tensor, {} nonzeros",
        input.display(),
        output.display(),
        t.shape(),
        fint(t.nnz() as u64)
    ))
}

/// `stats <file> [block_bits]`: structural statistics report.
pub fn stats(input: &Path, block_bits: u8) -> CliResult<String> {
    let t = load_tensor(input)?;
    stats_report(&t, block_bits)
}

/// Render the statistics report for an in-memory tensor.
pub fn stats_report(t: &CooTensor<f32>, block_bits: u8) -> CliResult<String> {
    let s = TensorStats::compute(t, block_bits)?;
    let mut out = String::new();
    out.push_str(&format!(
        "shape {}  order {}  nnz {}  density {:.3e}\n",
        t.shape(),
        s.order,
        fint(s.nnz as u64),
        s.density
    ));
    let mut tab = TextTable::new(["Mode", "Dim", "Fibers (MF)", "Max fiber"]);
    for m in 0..s.order {
        tab.row([
            m.to_string(),
            fint(s.dims[m] as u64),
            fint(s.fibers_per_mode[m] as u64),
            fint(s.max_fiber_len_per_mode[m] as u64),
        ]);
    }
    out.push_str(&tab.render());
    out.push_str(&format!(
        "HiCOO (B = {}): {} blocks, mean {} nnz/block, max {}\n",
        s.block_size,
        fint(s.hicoo_blocks as u64),
        fnum(s.mean_nnz_per_block),
        fint(s.max_nnz_per_block as u64)
    ));
    out.push_str(&format!(
        "storage: COO {} bytes, HiCOO {} bytes ({:.2}x)\n",
        fint(s.coo_bytes),
        fint(s.hicoo_bytes),
        s.compression_ratio()
    ));
    Ok(out)
}

/// `generate <kron|pl> dims nnz seed out`: synthesize a tensor to a file.
pub fn generate(
    family: &str,
    dims: &[u32],
    nnz: usize,
    seed: u64,
    output: &Path,
) -> CliResult<String> {
    let shape = Shape::new(dims.to_vec());
    let t = match family {
        "kron" => KroneckerGenerator::rmat_like(shape, nnz).generate(seed),
        "pl" => PowerLawGenerator::with_threshold(shape, 1.4, nnz, 1000).generate(seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator {other:?} (expected kron or pl)"
            )))
        }
    };
    if t.nnz() < nnz {
        return Err(CliError::Usage(format!(
            "generator produced {} of the {nnz} nonzeros requested for shape {}",
            t.nnz(),
            t.shape()
        )));
    }
    save_tensor(&t, output)?;
    Ok(format!(
        "generated {} ({}): {} nonzeros -> {}",
        family,
        t.shape(),
        fint(t.nnz() as u64),
        output.display()
    ))
}

/// `kernel <name> <file> ...`: run the cell `(kernel, format, strategy)`
/// resolve to on a tensor and report GFLOPS. Every kernel validates
/// `strategy`, and the report names the cell that ran. With a supervisor
/// config the same prepared call runs on a watchdogged worker thread under
/// panic isolation, with output validation and fallback (see `run_cell`).
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_on(
    x: CooTensor<f32>,
    kernel: &str,
    mode: usize,
    rank: usize,
    format: &str,
    block_bits: u8,
    reps: usize,
    strategy: &str,
    supervised: Option<&SupervisorConfig>,
) -> CliResult<String> {
    let cell = Cell::resolve(kernel, format, strategy).map_err(CliError::Usage)?;
    let inputs = Arc::new(Inputs::new(x, rank, block_bits));
    run_cell(&inputs, cell, mode, reps, supervised)
}

/// `kernel --all ...`: run the ten cells `strategy` selects — every kernel
/// on both formats — against one tensor (loaded from `input`, or generated
/// from the dataset registry when no file is given), one report line per
/// cell. Under `--trace` this produces a capture spanning the full sweep.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_all(
    input: Option<&Path>,
    dataset: &str,
    nnz: usize,
    mode: usize,
    rank: usize,
    block_bits: u8,
    reps: usize,
    strategy: &str,
) -> CliResult<String> {
    let x = match input {
        Some(p) => load_tensor(p)?,
        None => generate_dataset(dataset, nnz)?,
    };
    let inputs = Arc::new(Inputs::new(x, rank, block_bits));
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        for format in ["coo", "hicoo"] {
            let cell = Cell::resolve(kernel.name(), format, strategy).map_err(CliError::Usage)?;
            out.push(run_cell(&inputs, cell, mode, reps, None)?);
        }
    }
    Ok(out.join("\n"))
}

/// Generate registry dataset `id` at `nnz` nonzeros with its default seed.
fn generate_dataset(id: &str, nnz: usize) -> CliResult<CooTensor<f32>> {
    let d = tenbench_gen::registry::find(id)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset id {id:?}")))?;
    Ok(d.generate_with(nnz, d.default_seed()))
}

/// Time one cell at one mode. Unsupervised, the prepared call goes straight
/// to the sampler. Supervised, a [`Trial`] wraps the same prepare-and-sample
/// and supervision adds only the fallback order: the requested cell, then
/// the other cells of its kernel and format. Mttkrp instead goes through
/// [`supervisor::supervised_mttkrp`], which checksums against the
/// sequential reference. The reported GFLOPS uses the kernel-only seconds
/// the sampler measured inside the accepted attempt, never the attempt wall
/// time, which also covers preparation, a validation call and thread
/// hand-off; validation time is reported separately as `validate_s`.
fn run_cell(
    inputs: &Arc<Inputs>,
    cell: &'static Cell,
    mode: usize,
    reps: usize,
    supervised: Option<&SupervisorConfig>,
) -> CliResult<String> {
    let x = &inputs.x;
    x.shape().check_mode(mode)?;
    let kernel = cell.kernel.expect("`kernel` resolves kernel cells only");
    let flops = kernel.flops(x.order(), x.nnz() as u64, inputs.rank as u64);
    let label = format!("{}/mode{mode}", cell.name);
    let Some(cfg) = supervised else {
        let s = cells::prepare(inputs, cell, mode)?.sample(reps)?;
        return Ok(format!(
            "{label} on {} ({} nnz): {} s avg over {reps} reps = {} GFLOPS",
            x.shape(),
            fint(x.nnz() as u64),
            fnum(s.mean_s),
            fnum(flops as f64 / s.mean_s / 1e9)
        ));
    };
    let (report, kernel_secs) = if kernel == Kernel::Mttkrp {
        let hx = match cell.format {
            "hicoo" => Some(inputs.hx()?),
            _ => None,
        };
        let (report, _) = supervisor::supervised_mttkrp(
            &label,
            x,
            &inputs.factors,
            mode,
            hx.as_ref(),
            cell.mttkrp_strategy(),
            cfg,
        );
        // The Mttkrp trials time a single guarded execution, so the
        // attempt wall time is the kernel time.
        (report, None)
    } else {
        let fallbacks = cells::CELLS
            .iter()
            .filter(|c| c.kernel == cell.kernel && c.format == cell.format && c.name != cell.name);
        let trials: Vec<Trial<(f64, usize)>> = std::iter::once(cell)
            .chain(fallbacks)
            .map(|c| {
                let inputs = inputs.clone();
                Trial::new(c.name, move || {
                    let p = cells::prepare(&inputs, c, mode).map_err(|e| e.to_string())?;
                    let bad = p.call().map_err(|e| e.to_string())?.nonfinite();
                    let s = p.sample(reps).map_err(|e| e.to_string())?;
                    Ok((s.mean_s, bad))
                })
            })
            .collect();
        let (report, value) = supervisor::supervise(
            &label,
            &trials,
            |&(_, bad)| match bad {
                0 => Ok(None),
                _ => Err(format!("{bad} non-finite values in output")),
            },
            cfg,
        );
        (report, value.map(|(secs, _)| secs))
    };
    Ok(render_supervised(x, &report, flops, kernel_secs))
}

/// Render a supervised run. GFLOPS comes from the kernel-only seconds the
/// trial measured (`kernel_secs`) when available; the attempt wall time in
/// the report also covers preparation and the validation call, so using it
/// would understate throughput.
fn render_supervised(
    x: &CooTensor<f32>,
    report: &RunReport,
    flops: u64,
    kernel_secs: Option<f64>,
) -> String {
    let mut out = String::new();
    if report.status.is_success() {
        let t = kernel_secs.or(report.time_s).unwrap_or(f64::INFINITY);
        out.push_str(&format!(
            "{} on {} ({} nnz): status {} via {} in {} s = {} GFLOPS\n",
            report.cell,
            x.shape(),
            fint(x.nnz() as u64),
            report.status,
            report.strategy.as_deref().unwrap_or("?"),
            fnum(t),
            fnum(flops as f64 / t / 1e9)
        ));
    } else {
        out.push_str(&format!(
            "{} on {} ({} nnz): status {}\n",
            report.cell,
            x.shape(),
            fint(x.nnz() as u64),
            report.status
        ));
    }
    out.push_str(&report.to_json());
    out.push('\n');
    out
}

/// `verify <file>`: hardened load, structural validation of both formats,
/// NaN/Inf scan, and a supervised Mttkrp checksum comparison against the
/// sequential reference. Returns a report ending in `VERIFY PASS` or
/// `VERIFY FAIL`; load failures (corrupt file, oversized header) are
/// reported as errors by the hardened reader itself.
pub fn verify(
    input: &Path,
    block_bits: u8,
    rank: usize,
    cfg: &SupervisorConfig,
) -> CliResult<String> {
    let t = load_tensor(input)?;
    let mut out = format!(
        "verify {}: {} tensor, {} nonzeros\n",
        input.display(),
        t.shape(),
        fint(t.nnz() as u64)
    );
    let mut ok = true;
    let mut check = |label: &str, r: Result<(), String>, out: &mut String| match r {
        Ok(()) => out.push_str(&format!("  {label}: ok\n")),
        Err(e) => {
            ok = false;
            out.push_str(&format!("  {label}: FAIL ({e})\n"));
        }
    };
    check(
        "coo structure",
        t.validate().map_err(|e| e.to_string()),
        &mut out,
    );
    let nf = t.nonfinite_count();
    check(
        "values finite",
        if nf == 0 {
            Ok(())
        } else {
            Err(format!("{nf} non-finite values"))
        },
        &mut out,
    );
    let hx = match HicooTensor::from_coo(&t, block_bits) {
        Ok(h) => {
            check(
                "hicoo structure",
                h.validate().map_err(|e| e.to_string()),
                &mut out,
            );
            Some(Arc::new(h))
        }
        Err(e) => {
            check("hicoo conversion", Err(e.to_string()), &mut out);
            None
        }
    };
    if t.nnz() > 0 {
        let xa = Arc::new(t.clone());
        // Sort pipeline cross-check under the supervisor: the radix-sorted
        // tensor must equal the sequential comparator ordering exactly,
        // both lexicographically and in Morton block order.
        let xs = xa.clone();
        let trials = vec![Trial::new("radix", move || {
            let order: Vec<usize> = (0..xs.order()).collect();
            let mut a = (*xs).clone();
            let mut b = (*xs).clone();
            a.sort_lexicographic_with(&order, SortAlgo::Radix);
            b.sort_lexicographic_with(&order, SortAlgo::Comparator);
            let lex_ok = a == b;
            let mut a = (*xs).clone();
            let mut b = (*xs).clone();
            a.sort_morton_with(block_bits, SortAlgo::Radix);
            b.sort_morton_with(block_bits, SortAlgo::Comparator);
            Ok((lex_ok, a == b))
        })];
        let (r, _) = supervisor::supervise(
            "sort/coo",
            &trials,
            |&(lex_ok, morton_ok): &(bool, bool)| {
                if lex_ok && morton_ok {
                    Ok(None)
                } else {
                    Err(format!(
                        "radix order diverges from comparator (lex ok = {lex_ok}, morton ok = {morton_ok})"
                    ))
                }
            },
            cfg,
        );
        check(
            "radix sort vs comparator reference",
            if r.status.is_success() {
                Ok(())
            } else {
                Err(r.status.to_string())
            },
            &mut out,
        );
        let factors = Arc::new(make_factors(&t, rank));
        let strat = MttkrpStrategy::Scheduled;
        let (r, _) =
            supervisor::supervised_mttkrp("mttkrp/coo", &xa, &factors, 0, None, strat, cfg);
        check(
            "mttkrp coo vs sequential reference",
            if r.status.is_success() {
                Ok(())
            } else {
                Err(r.status.to_string())
            },
            &mut out,
        );
        if let Some(hx) = &hx {
            let (r, _) = supervisor::supervised_mttkrp(
                "mttkrp/hicoo",
                &xa,
                &factors,
                0,
                Some(hx),
                strat,
                cfg,
            );
            check(
                "mttkrp hicoo vs sequential reference",
                if r.status.is_success() {
                    Ok(())
                } else {
                    Err(r.status.to_string())
                },
                &mut out,
            );
        }
    }
    out.push_str(if ok { "VERIFY PASS\n" } else { "VERIFY FAIL\n" });
    Ok(out)
}

/// One measured row of the sweep: a cell at a pool width.
struct ScaleRow {
    cell: &'static str,
    threads: usize,
    /// Seconds per call of the fastest batch; the gates read this.
    time_s: f64,
    mean_s: f64,
    self_speedup: f64,
    busy_frac: f64,
    park_frac: f64,
    steal_frac: f64,
    chunks: u64,
}

/// Options for [`scale_bench`].
pub struct ScaleBenchOpts {
    /// Dataset registry id to generate.
    pub dataset: String,
    /// Target nonzero count.
    pub nnz: usize,
    /// Factor-matrix rank for Mttkrp/Ttm.
    pub rank: usize,
    /// HiCOO block bits.
    pub block_bits: u8,
    /// Pool sizes to sweep (sorted and deduplicated before measuring).
    pub threads: Vec<usize>,
    /// Timed batches per cell.
    pub reps: usize,
    /// Where to write `BENCH_scaling.json`, if anywhere.
    pub out_json: Option<PathBuf>,
    /// Scaling-floor file to enforce, if any.
    pub floors: Option<PathBuf>,
}

/// Logical CPUs on this host. Scaling floors above this count are
/// unenforceable — wall-clock self-speedup past the physical core count is
/// not a real measurement — so the gate reports them as skipped.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One line of a scaling-floor file: `num` must be at least `min` times as
/// fast as `den`. A self-speedup line has no `den`; it compares against
/// the same cell at the sweep's smallest pool width.
#[derive(Debug, PartialEq)]
struct Floor {
    num: (&'static str, usize),
    den: Option<(&'static str, usize)>,
    min: f64,
}

/// Parse a scaling-floor file, `#` comments allowed. Two line forms:
/// `<cell>@<threads> <min_self_speedup>` and
/// `<cell>@<threads>/<cell>@<threads> <min_ratio>`. `origin` names the file
/// in error messages.
fn parse_scaling_floors(origin: &str, text: &str) -> CliResult<Vec<Floor>> {
    let mut floors = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| CliError::Usage(format!("{origin}:{}: {what}: {raw:?}", lineno + 1));
        let point = |key: &str| -> CliResult<(&'static str, usize)> {
            let (name, t) = key
                .split_once('@')
                .ok_or_else(|| bad("expected `<cell>@<threads>`"))?;
            let cell = Cell::named(name).ok_or_else(|| bad("unknown cell"))?;
            Ok((cell.name, t.parse().map_err(|_| bad("bad thread count"))?))
        };
        let mut it = line.split_whitespace();
        let (Some(key), Some(val), None) = (it.next(), it.next(), it.next()) else {
            return Err(bad(
                "expected `<cell>@<threads> <floor>` or `<cell>@<t>/<cell>@<t> <floor>`",
            ));
        };
        let (num, den) = match key.split_once('/') {
            Some((num, den)) => (point(num)?, Some(point(den)?)),
            None => (point(key)?, None),
        };
        let min = val.parse().map_err(|_| bad("bad floor"))?;
        floors.push(Floor { num, den, min });
    }
    Ok(floors)
}

/// Check every floor against the measured rows; returns one `gate` line per
/// floor, or the list of violations. A floor naming a pool width above
/// `host` is skipped.
fn check_scaling_floors(floors: &[Floor], rows: &[ScaleRow], host: usize) -> CliResult<String> {
    let mut out = String::new();
    let mut violations = Vec::new();
    let base_threads = rows.iter().map(|r| r.threads).min().unwrap_or(1);
    for f in floors {
        let (num, den) = (f.num, f.den.unwrap_or((f.num.0, base_threads)));
        let key = match f.den {
            Some(_) => format!("{}@{}/{}@{}", num.0, num.1, den.0, den.1),
            None => format!("{}@{}", num.0, num.1),
        };
        let floor = f.min;
        if num.1.max(den.1) > host {
            out.push_str(&format!(
                "gate {key}: skipped (floor {floor:.2}x, host has {host} cpus)\n"
            ));
            continue;
        }
        let time = |(cell, t): (&str, usize)| {
            rows.iter()
                .find(|r| r.cell == cell && r.threads == t)
                .map(|r| r.time_s)
                .ok_or(t)
        };
        match (time(num), time(den)) {
            (Err(t), _) | (_, Err(t)) => violations.push(format!(
                "{key}: floor {floor:.2}x but no measured row (pass --threads including {t})"
            )),
            (Ok(n), Ok(d)) if d / n < floor => {
                violations.push(format!("{key}: {:.2}x below floor {floor:.2}x", d / n))
            }
            (Ok(n), Ok(d)) => {
                out.push_str(&format!("gate {key}: {:.2}x >= {floor:.2}x ok\n", d / n))
            }
        }
    }
    if violations.is_empty() {
        Ok(out)
    } else {
        Err(CliError::Usage(format!(
            "scaling gate failed:\n  {}",
            violations.join("\n  ")
        )))
    }
}

/// `scale-bench`: sweep the whole cell table at mode 0 across thread counts
/// (cells sequential by construction run once, at the smallest) and report
/// per-row wall time, self-speedup (vs the smallest measured thread count),
/// and pool telemetry (busy/park ratio and steal fraction over the timed
/// batches). Optionally writes `BENCH_scaling.json` (with a `host_cpus`
/// field so downstream gates can tell real flat curves from core-starved
/// hosts) and enforces the floors of a `ci/scaling-floor.txt`-style file;
/// floors whose thread count exceeds the host's cores are reported as
/// skipped.
pub fn scale_bench(opts: &ScaleBenchOpts) -> CliResult<String> {
    let mut threads = opts.threads.clone();
    threads.sort_unstable();
    threads.dedup();
    if threads.is_empty() || threads[0] == 0 {
        return Err(CliError::Usage(
            "--threads must be a non-empty list of positive counts".to_string(),
        ));
    }
    // Parsed before measuring so a bad floors file fails in milliseconds.
    let floors = match &opts.floors {
        Some(path) => {
            parse_scaling_floors(&path.display().to_string(), &std::fs::read_to_string(path)?)?
        }
        None => Vec::new(),
    };
    let reps = opts.reps.max(1);
    let (rank, block_bits) = (opts.rank, opts.block_bits);
    let mode = 0usize;
    let inputs = Inputs::new(generate_dataset(&opts.dataset, opts.nnz)?, rank, block_bits);
    let x = &inputs.x;

    let mut rows: Vec<ScaleRow> = Vec::new();
    for cell in &cells::CELLS {
        let swept = if cell.sequential { 1 } else { threads.len() };
        let mut base: Option<f64> = None;
        for &t in &threads[..swept] {
            let (s, stats) = par::with_threads(t, || -> CliResult<_> {
                // Preparation (this width's schedules included) and the
                // calibration call warm the pool and prefault outputs
                // outside the telemetry window.
                let p = cells::prepare(&inputs, cell, mode)?;
                let mut prev = false;
                let s = p.sample_with(reps, || {
                    par::reset_pool_stats();
                    prev = par::set_pool_telemetry(true);
                });
                par::set_pool_telemetry(prev);
                Ok((s?, par::pool_snapshot()))
            })?;
            // The caller lane is the snapshot's last entry; it never parks.
            let busy: u64 = stats.workers.iter().map(|w| w.busy_ns).sum();
            let park: u64 = stats.workers.iter().map(|w| w.park_ns).sum();
            let base_s = *base.get_or_insert(s.min_s);
            rows.push(ScaleRow {
                cell: cell.name,
                threads: t,
                time_s: s.min_s,
                mean_s: s.mean_s,
                self_speedup: base_s / s.min_s,
                busy_frac: busy as f64 / (busy + park).max(1) as f64,
                park_frac: park as f64 / (busy + park).max(1) as f64,
                steal_frac: stats.chunks_stolen as f64 / stats.chunks_total.max(1) as f64,
                chunks: stats.chunks_total,
            });
        }
    }

    let host = host_cpus();
    let mut tab = TextTable::new([
        "Cell",
        "Threads",
        "Time (s)",
        "Mean (s)",
        "Self-speedup",
        "Busy",
        "Steal",
        "Chunks",
    ]);
    for r in &rows {
        tab.row([
            r.cell.to_string(),
            r.threads.to_string(),
            fnum(r.time_s),
            fnum(r.mean_s),
            format!("{:.2}x", r.self_speedup),
            format!("{:.0}%", r.busy_frac * 100.0),
            format!("{:.0}%", r.steal_frac * 100.0),
            fint(r.chunks),
        ]);
    }
    let mut out = format!(
        "Multicore scaling sweep on {} ({}, {} nnz, mode {mode}, R = {rank}, B = {}, {reps} reps, host cpus = {host})\n",
        opts.dataset,
        x.shape(),
        fint(x.nnz() as u64),
        1u32 << block_bits,
    );
    out.push_str(&tab.render());

    if let Some(path) = &opts.out_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"host_cpus\": {host},\n  \"dataset\": \"{}\",\n  \"shape\": \"{}\",\n  \"nnz\": {},\n  \"mode\": {mode},\n  \"rank\": {rank},\n  \"block_bits\": {block_bits},\n  \"reps\": {reps},\n",
            opts.dataset,
            x.shape(),
            x.nnz(),
        ));
        json.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"cell\": \"{}\", \"threads\": {}, \"time_s\": {}, \"mean_s\": {}, \"self_speedup\": {}, \"busy_frac\": {}, \"park_frac\": {}, \"steal_frac\": {}, \"chunks\": {}}}{}\n",
                r.cell,
                r.threads,
                obs::json::json_f64(r.time_s),
                obs::json::json_f64(r.mean_s),
                obs::json::json_f64_fixed(r.self_speedup, 3),
                obs::json::json_f64_fixed(r.busy_frac, 3),
                obs::json::json_f64_fixed(r.park_frac, 3),
                obs::json::json_f64_fixed(r.steal_frac, 3),
                r.chunks,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, &json)?;
        out.push_str(&format!("wrote {}\n", path.display()));
    }

    out.push_str(&check_scaling_floors(&floors, &rows, host)?);
    Ok(out)
}

/// `report <trace.json | flight-dump.json>`: validate a previously
/// written observability artifact and summarize it. Flight-recorder dumps
/// (recognized by their `flight_dump` marker) are schema-checked and
/// pretty-printed with the faulting context's events highlighted; anything
/// else is validated as a chrome trace (event count, lanes, nesting
/// depth). Fails with a usage error when the file is neither, which is
/// what the CI schema gate keys on.
pub fn report(input: &Path) -> CliResult<String> {
    let json = std::fs::read_to_string(input)?;
    if let Ok(doc) = obs::json::Value::parse(&json) {
        if obs::flight::is_flight_dump(&doc) {
            let rendered = obs::flight::render_flight_dump(&json).map_err(|e| {
                CliError::Usage(format!("{}: invalid flight dump: {e}", input.display()))
            })?;
            return Ok(format!(
                "{}: valid flight dump\n{rendered}",
                input.display()
            ));
        }
    }
    let s = obs::json::validate_chrome_trace(&json)
        .map_err(|e| CliError::Usage(format!("{}: invalid chrome trace: {e}", input.display())))?;
    Ok(format!(
        "{}: valid chrome trace\n  events          {}\n  duration events {}\n  flow events     {}\n  thread lanes    {}\n  max span depth  {}\n",
        input.display(),
        fint(s.total_events as u64),
        fint(s.duration_events as u64),
        fint(s.flow_events as u64),
        fint(s.threads as u64),
        fint(s.max_depth as u64),
    ))
}

/// One traced-vs-untraced comparison of a workload.
#[derive(Debug, Clone, Copy)]
pub struct TraceOverhead {
    /// Best untraced wall seconds.
    pub untraced_s: f64,
    /// Best wall seconds under a full [`crate::metrics::Capture`].
    pub traced_s: f64,
    /// Trace events the captures dropped, summed over the rounds.
    pub dropped_events: u64,
}

impl TraceOverhead {
    /// Traced over untraced, in percent. Guarded: a degenerate zero-time
    /// untraced baseline must not turn the overhead into a non-finite
    /// number (it would poison the JSON gate).
    pub fn overhead_pct(&self) -> f64 {
        if self.untraced_s > 0.0 && self.untraced_s.is_finite() && self.traced_s.is_finite() {
            (self.traced_s / self.untraced_s - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Run `workload` untraced and traced, interleaved, `rounds` times, keeping
/// the best of each side so one-off scheduling noise cannot manufacture (or
/// hide) overhead.
pub fn trace_overhead(rounds: usize, mut workload: impl FnMut()) -> TraceOverhead {
    let mut best = TraceOverhead {
        untraced_s: f64::INFINITY,
        traced_s: f64::INFINITY,
        dropped_events: 0,
    };
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        workload();
        best.untraced_s = best.untraced_s.min(t0.elapsed().as_secs_f64());

        let cap = crate::metrics::Capture::begin();
        let t0 = Instant::now();
        workload();
        best.traced_s = best.traced_s.min(t0.elapsed().as_secs_f64());
        best.dropped_events += cap.finish().0.dropped_events;
    }
    best
}

/// `obs-overhead`: measure the wall-time cost of full tracing over the
/// measured CPU suite at each requested thread count, with
/// [`trace_overhead`]. Optionally writes `BENCH_obs_overhead.json` and
/// enforces a maximum overhead percentage at every thread count (the CI
/// gate).
#[allow(clippy::too_many_arguments)]
pub fn obs_overhead(
    dataset: &str,
    nnz: usize,
    rank: usize,
    block_bits: u8,
    reps: usize,
    threads_list: &[usize],
    rounds: usize,
    out_json: Option<&Path>,
    max_overhead_pct: Option<f64>,
) -> CliResult<String> {
    let x = generate_dataset(dataset, nnz)?;
    let machine = crate::suite::MachineModel {
        name: "obs-overhead".into(),
        ert_dram_gbs: 100.0,
        peak_gflops: 1000.0,
    };
    let rounds = rounds.max(1);

    let rows: Vec<(usize, TraceOverhead)> = threads_list
        .iter()
        .map(|&threads| {
            let o = trace_overhead(rounds, || {
                par::with_threads(threads, || {
                    std::hint::black_box(crate::suite::run_cpu_suite(
                        &x, &machine, rank, block_bits, reps,
                    ));
                });
            });
            (threads, o)
        })
        .collect();
    let mut tab = TextTable::new(["Threads", "Untraced (s)", "Traced (s)", "Overhead"]);
    for (threads, o) in &rows {
        tab.row([
            threads.to_string(),
            fnum(o.untraced_s),
            fnum(o.traced_s),
            format!("{:+.2}%", o.overhead_pct()),
        ]);
    }
    let mut out = format!(
        "Tracing overhead on {dataset} ({}, {} nnz, R = {rank}, B = {}, best of {rounds})\n",
        x.shape(),
        fint(x.nnz() as u64),
        1u32 << block_bits,
    );
    out.push_str(&tab.render());

    if let Some(path) = out_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"dataset\": \"{dataset}\",\n  \"shape\": \"{}\",\n  \"nnz\": {},\n  \"rank\": {rank},\n  \"block_bits\": {block_bits},\n  \"reps\": {reps},\n  \"rounds\": {rounds},\n",
            x.shape(),
            x.nnz(),
        ));
        json.push_str("  \"rows\": [\n");
        for (i, (threads, o)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"threads\": {threads}, \"untraced_s\": {}, \"traced_s\": {}, \"overhead_pct\": {}, \"dropped_events\": {}}}{}\n",
                obs::json::json_f64(o.untraced_s),
                obs::json::json_f64(o.traced_s),
                obs::json::json_f64_fixed(o.overhead_pct(), 3),
                o.dropped_events,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, &json)?;
        out.push_str(&format!("wrote {}\n", path.display()));
    }

    if let Some(ceiling) = max_overhead_pct {
        if let Some((threads, o)) = rows.iter().find(|(_, o)| o.overhead_pct() > ceiling) {
            return Err(CliError::Usage(format!(
                "tracing overhead regression: {:+.2}% at {threads} threads, above the ceiling of {ceiling:.2}%",
                o.overhead_pct(),
            )));
        }
        out.push_str(&format!("overhead gate: all <= {ceiling:.2}% ok\n"));
    }
    Ok(out)
}

/// Parse a `--duration` value: a plain number of seconds, optionally with
/// an `s`/`ms` suffix (`"5"`, `"5s"`, `"250ms"`).
pub fn parse_duration(s: &str) -> CliResult<std::time::Duration> {
    let bad = || CliError::Usage(format!("bad --duration {s:?} (expected e.g. 5, 5s, 250ms)"));
    if let Some(ms) = s.strip_suffix("ms") {
        let v: u64 = ms.parse().map_err(|_| bad())?;
        return Ok(std::time::Duration::from_millis(v));
    }
    let secs = s.strip_suffix('s').unwrap_or(s);
    let v: f64 = secs.parse().map_err(|_| bad())?;
    if !v.is_finite() || v < 0.0 {
        return Err(bad());
    }
    Ok(std::time::Duration::from_secs_f64(v))
}

/// `serve`: start the in-process kernel service on the supervised
/// executor, submit a demonstration mix of requests (every kernel × both
/// formats across a few tensors), and print per-request metrics plus the
/// service report. This is the smoke-level entry point; `stress` is the
/// load generator.
pub fn serve_demo(
    dataset: &str,
    nnz: usize,
    rank: usize,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let d = tenbench_gen::registry::find(dataset)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset id {dataset:?}")))?;
    let pool: Vec<Arc<CooTensor<f32>>> = (0..3u64)
        .map(|i| Arc::new(d.generate_with(nnz, d.default_seed().wrapping_add(i))))
        .collect();
    let svc = tenbench_serve::KernelService::start(
        serve_cfg,
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone())),
    );

    let mut submitted = Vec::new();
    for (i, x) in pool.iter().enumerate() {
        for kernel in Kernel::ALL {
            for format in [
                tenbench_serve::FormatKind::Coo,
                tenbench_serve::FormatKind::Hicoo,
            ] {
                let mode = i % x.order();
                let ticket = svc
                    .submit(tenbench_serve::Request {
                        kernel,
                        format,
                        mode,
                        rank,
                        tensor: x.clone(),
                        deadline: None,
                    })
                    .map_err(|e| CliError::Usage(format!("submit refused: {e}")))?;
                submitted.push((kernel, format, mode, ticket));
            }
        }
    }

    let mut tab = TextTable::new([
        "Kernel",
        "Format",
        "Mode",
        "Strategy",
        "Batch",
        "Cache",
        "Queued (ms)",
        "Exec (ms)",
        "Total (ms)",
    ]);
    for (kernel, format, mode, ticket) in submitted {
        match ticket.wait() {
            Ok(r) => tab.row([
                kernel.name().to_string(),
                format.as_str().to_string(),
                mode.to_string(),
                r.strategy,
                r.batch_size.to_string(),
                if r.cache_hit { "hit" } else { "miss" }.to_string(),
                format!("{:.3}", r.queued_ms),
                format!("{:.3}", r.exec_ms),
                format!("{:.3}", r.total_ms),
            ]),
            Err(e) => tab.row([
                kernel.name().to_string(),
                format.as_str().to_string(),
                mode.to_string(),
                format!("ERROR: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    let report = svc.shutdown();
    let mut out = format!(
        "kernel service demo on {dataset} x3 ({} nnz each, rank {rank})\n",
        fint(pool[0].nnz() as u64),
    );
    out.push_str(&tab.render());
    out.push_str("\nservice report\n");
    out.push_str(&report.render());
    Ok(out)
}

/// Knobs for [`stress`], bundling what would otherwise be a dozen
/// positional arguments.
#[derive(Debug, Clone)]
pub struct StressOpts {
    /// Registry dataset id used to generate the tensor pool.
    pub dataset: String,
    /// Nonzeros per pool tensor.
    pub nnz: usize,
    /// Pool size (distinct tensors; Zipf popularity ranges over these).
    pub tensors: usize,
    /// Closed-loop phase length.
    pub duration: std::time::Duration,
    /// Closed-loop client workers.
    pub concurrency: usize,
    /// Zipf skew of tensor popularity.
    pub alpha: f64,
    /// Factor rank for Ttm/Mttkrp requests.
    pub rank: usize,
    /// Per-request queue deadline in ms for the closed loop (0 = none).
    pub deadline_ms: u64,
    /// Fail if the closed-loop p99 latency exceeds this many ms.
    pub max_p99_ms: Option<f64>,
    /// Fail if the closed-loop cache hit ratio falls below this.
    pub min_hit_ratio: f64,
    /// Write `BENCH_serve.json` here.
    pub out_json: Option<PathBuf>,
}

/// `stress`: drive the kernel service closed-loop with Zipf-skewed tensor
/// popularity, then probe overload behaviour with an open burst, and
/// write `BENCH_serve.json`. Gates (each a usage error on violation):
/// closed-loop p99 at or under `--max-p99-ms`; cache hit ratio at or over
/// `--min-hit-ratio`; at least one typed queue-full rejection from the
/// overload probe.
pub fn stress(
    opts: &StressOpts,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let d = tenbench_gen::registry::find(&opts.dataset)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset id {:?}", opts.dataset)))?;
    if opts.tensors == 0 {
        return Err(CliError::Usage("--tensors must be at least 1".to_string()));
    }
    let pool: Vec<Arc<CooTensor<f32>>> = (0..opts.tensors as u64)
        .map(|i| Arc::new(d.generate_with(opts.nnz, d.default_seed().wrapping_add(i))))
        .collect();

    let svc = tenbench_serve::KernelService::start(
        serve_cfg.clone(),
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone())),
    );
    let tally = tenbench_serve::closed_loop(
        &svc,
        &pool,
        &tenbench_serve::StressConfig {
            duration: opts.duration,
            concurrency: opts.concurrency,
            zipf_alpha: opts.alpha,
            rank: opts.rank,
            deadline_ms: opts.deadline_ms,
            seed: d.default_seed(),
        },
    );
    // Snapshot the closed-loop phase before the overload burst pollutes
    // the latency distribution; the gates read this report.
    let zipf_report = svc.report();
    let probe = tenbench_serve::overload_probe(&svc, &pool);
    let final_report = svc.shutdown();

    let mut out = format!(
        "serve stress on {} x{} ({} nnz each, alpha {}, {} clients, {:.1}s)\n\n",
        opts.dataset,
        opts.tensors,
        fint(pool[0].nnz() as u64),
        opts.alpha,
        opts.concurrency,
        opts.duration.as_secs_f64(),
    );
    out.push_str("zipf phase (closed loop)\n");
    out.push_str(&format!(
        "  clients         issued {} ok {} rejected {} (full) + {} (deadline), failed {}\n",
        tally.issued, tally.ok, tally.rejected_full, tally.rejected_deadline, tally.failed,
    ));
    out.push_str(&zipf_report.render());
    out.push_str("\noverload probe (open burst, tight deadlines)\n");
    out.push_str(&format!(
        "  submitted {} -> {} queue-full, {} deadline-shed, {} completed, {} failed\n",
        probe.submitted,
        probe.rejected_queue_full,
        probe.rejected_deadline,
        probe.completed,
        probe.failed,
    ));

    if let Some(path) = &opts.out_json {
        let json = format!(
            concat!(
                "{{\n  \"config\": {{\"dataset\": \"{}\", \"nnz\": {}, \"tensors\": {}, ",
                "\"duration_s\": {}, \"concurrency\": {}, \"alpha\": {}, \"rank\": {}, ",
                "\"workers\": {}, \"queue_bound\": {}, \"max_batch\": {}, ",
                "\"cache_bytes\": {}, \"deadline_ms\": {}}},\n",
                "  \"zipf_phase\": {{\"clients\": {{\"issued\": {}, \"ok\": {}, ",
                "\"rejected_full\": {}, \"rejected_deadline\": {}, \"failed\": {}}}, ",
                "\"service\": {}}},\n",
                "  \"overload_probe\": {{\"submitted\": {}, \"rejected_queue_full\": {}, ",
                "\"rejected_deadline\": {}, \"completed\": {}, \"failed\": {}}},\n",
                "  \"final\": {}\n}}\n"
            ),
            opts.dataset,
            opts.nnz,
            opts.tensors,
            obs::json::json_f64(opts.duration.as_secs_f64()),
            opts.concurrency,
            obs::json::json_f64(opts.alpha),
            opts.rank,
            serve_cfg.workers,
            serve_cfg.queue_bound,
            serve_cfg.max_batch,
            serve_cfg.cache_bytes,
            opts.deadline_ms,
            tally.issued,
            tally.ok,
            tally.rejected_full,
            tally.rejected_deadline,
            tally.failed,
            zipf_report.to_json(),
            probe.submitted,
            probe.rejected_queue_full,
            probe.rejected_deadline,
            probe.completed,
            probe.failed,
            final_report.to_json(),
        );
        // Self-check: the artifact must parse before it reaches disk.
        obs::json::Value::parse(&json).map_err(|e| {
            CliError::Usage(format!("internal: emitted BENCH_serve.json invalid: {e}"))
        })?;
        std::fs::write(path, &json)?;
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }

    if tally.ok == 0 {
        return Err(CliError::Usage(
            "stress gate: no request completed in the closed-loop phase".to_string(),
        ));
    }
    let hit = zipf_report.cache.hit_ratio();
    if hit < opts.min_hit_ratio {
        return Err(CliError::Usage(format!(
            "stress gate: cache hit ratio {hit:.3} below the floor of {:.3}",
            opts.min_hit_ratio,
        )));
    }
    out.push_str(&format!(
        "hit-ratio gate: {hit:.3} >= {:.3} ok\n",
        opts.min_hit_ratio
    ));
    if let Some(ceiling) = opts.max_p99_ms {
        if zipf_report.p99_ms > ceiling {
            return Err(CliError::Usage(format!(
                "stress gate: closed-loop p99 {:.2} ms above the ceiling of {ceiling:.2} ms",
                zipf_report.p99_ms,
            )));
        }
        out.push_str(&format!(
            "p99 gate: {:.2} ms <= {ceiling:.2} ms ok\n",
            zipf_report.p99_ms
        ));
    }
    if probe.rejected_queue_full == 0 {
        return Err(CliError::Usage(
            "stress gate: overload probe saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "overload gate: {} typed queue-full rejections ok\n",
        probe.rejected_queue_full
    ));
    Ok(out)
}

/// Extra knobs for the networked stress path ([`stress_net`]).
#[derive(Debug, Clone)]
pub struct NetStressOpts {
    /// Concurrent loopback client connections in the closed-loop phase.
    pub connections: usize,
    /// Fingerprint-partitioned shards behind the listener.
    pub shards: usize,
}

/// Client-side outcome tally for the networked phases. Every issued
/// request lands in exactly one bucket, so `issued == answered() + lost`
/// must balance and `lost == 0` is the no-silent-drop gate: a lost
/// request is one the transport swallowed without a response frame or a
/// typed rejection.
#[derive(Debug, Clone, Copy, Default)]
struct WireTally {
    issued: u64,
    ok: u64,
    rejected_full: u64,
    rejected_deadline: u64,
    shutting_down: u64,
    failed: u64,
    lost: u64,
}

impl WireTally {
    fn absorb(&mut self, o: WireTally) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.rejected_full += o.rejected_full;
        self.rejected_deadline += o.rejected_deadline;
        self.shutting_down += o.shutting_down;
        self.failed += o.failed;
        self.lost += o.lost;
    }

    fn answered(&self) -> u64 {
        self.ok + self.rejected_full + self.rejected_deadline + self.shutting_down + self.failed
    }

    fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"issued\": {}, \"ok\": {}, \"rejected_full\": {}, ",
                "\"rejected_deadline\": {}, \"shutting_down\": {}, ",
                "\"failed\": {}, \"lost\": {}}}"
            ),
            self.issued,
            self.ok,
            self.rejected_full,
            self.rejected_deadline,
            self.shutting_down,
            self.failed,
            self.lost,
        )
    }

    fn render(&self) -> String {
        format!(
            "issued {} ok {} rejected {} (full) + {} (deadline), failed {}, lost {}",
            self.issued,
            self.ok,
            self.rejected_full,
            self.rejected_deadline,
            self.failed,
            self.lost,
        )
    }
}

/// Bucket one typed wire status into the tally; returns `false` when the
/// client should stop (the server is shutting down).
fn classify(tally: &mut WireTally, status: tenbench_serve::WireStatus) -> bool {
    use tenbench_serve::WireStatus;
    match status {
        WireStatus::Ok => tally.ok += 1,
        WireStatus::QueueFull => tally.rejected_full += 1,
        WireStatus::DeadlineExpired => tally.rejected_deadline += 1,
        WireStatus::ShuttingDown => {
            tally.shutting_down += 1;
            return false;
        }
        WireStatus::Failed | WireStatus::WorkerLost | WireStatus::BadRequest => tally.failed += 1,
    }
    true
}

/// `stress --net`: the networked variant of [`stress`]. Starts the TCP
/// tier ([`tenbench_serve::NetServer`]) on loopback with
/// fingerprint-partitioned shards, drives it closed-loop from
/// `net.connections` concurrent client connections — Zipf-skewed tensor
/// popularity, tensors shipped as pre-serialized `TNB2` bytes inside
/// `TNF1` frames — then fires an overload burst of simultaneous
/// short-deadline connections whose in-flight count dwarfs the shards'
/// queue capacity. Latency is measured client-side around the socket
/// round trip and merged across workers, so the reported p50/p90/p99 is
/// genuinely wire-level. Gates (each a usage error on violation): at
/// least one completion; zero lost requests (every request gets a
/// response frame or a typed rejection); zero server-side protocol
/// errors; aggregate cache hit ratio at or over `--min-hit-ratio`; wire
/// p99 at or under `--max-p99-ms`; at least one typed queue-full
/// rejection in the burst.
pub fn stress_net(
    opts: &StressOpts,
    net: &NetStressOpts,
    serve_cfg: tenbench_serve::ServeConfig,
    sup_cfg: &SupervisorConfig,
) -> CliResult<String> {
    let d = tenbench_gen::registry::find(&opts.dataset)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset id {:?}", opts.dataset)))?;
    if opts.tensors == 0 {
        return Err(CliError::Usage("--tensors must be at least 1".to_string()));
    }
    if net.connections == 0 {
        return Err(CliError::Usage(
            "--connections must be at least 1".to_string(),
        ));
    }
    let seed0 = d.default_seed();
    let pool: Vec<Arc<CooTensor<f32>>> = (0..opts.tensors as u64)
        .map(|i| Arc::new(d.generate_with(opts.nnz, seed0.wrapping_add(i))))
        .collect();
    // Serialize each tensor once; every request reuses the TNB2 bytes.
    let blobs: Vec<Vec<u8>> = pool
        .iter()
        .map(|t| {
            let mut buf = Vec::new();
            tenbench_io::bin::write_bin(t.as_ref(), &mut buf)?;
            Ok::<_, tenbench_io::IoError>(buf)
        })
        .collect::<Result<_, _>>()?;

    let net_cfg = tenbench_serve::NetConfig {
        shards: net.shards.max(1),
        serve: serve_cfg.clone(),
        ..tenbench_serve::NetConfig::default()
    };
    let server = tenbench_serve::NetServer::start(net_cfg.clone(), "127.0.0.1:0", || {
        Box::new(crate::serve_exec::SupervisedExecutor::new(sup_cfg.clone()))
    })?;
    let addr = server.addr();

    // Closed-loop Zipf phase: one request in flight per connection.
    let zipf = ZipfSampler::new(pool.len() as u64, opts.alpha);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut tally = WireTally::default();
    let mut wire_hist = obs::LogHistogram::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..net.connections)
            .map(|w| {
                let zipf = &zipf;
                let stop = &stop;
                let pool = &pool;
                let blobs = &blobs;
                s.spawn(move || {
                    let mut tally = WireTally::default();
                    let mut hist = obs::LogHistogram::new();
                    let mut client = match tenbench_serve::NetClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            // A refused loopback connect is a lost client,
                            // not a typed answer — the gate must see it.
                            tally.lost += 1;
                            return (tally, hist);
                        }
                    };
                    let mut rng = StdRng::seed_from_u64(seed0.wrapping_add(w as u64));
                    let mut turn = w;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let idx = zipf.sample_index(&mut rng) as usize;
                        let kernel = Kernel::ALL[turn % Kernel::ALL.len()];
                        let format = if turn % 2 == 0 {
                            tenbench_serve::FormatKind::Hicoo
                        } else {
                            tenbench_serve::FormatKind::Coo
                        };
                        let mode = (turn % pool[idx].order()) as u8;
                        turn += 1;
                        tally.issued += 1;
                        let req = tenbench_serve::WireRequest {
                            kernel,
                            format,
                            mode,
                            rank: opts.rank.min(u16::MAX as usize) as u16,
                            deadline_ms: opts.deadline_ms.min(u64::from(u32::MAX)) as u32,
                        };
                        let t0 = Instant::now();
                        match client.request(&req, &blobs[idx]) {
                            Ok(resp) => {
                                if resp.status == tenbench_serve::WireStatus::Ok {
                                    hist.record(t0.elapsed().as_secs_f64() * 1e3);
                                }
                                if !classify(&mut tally, resp.status) {
                                    break;
                                }
                            }
                            Err(_) => {
                                tally.lost += 1;
                                break;
                            }
                        }
                    }
                    (tally, hist)
                })
            })
            .collect();
        std::thread::sleep(opts.duration);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            let (t, hist) = h.join().expect("net stress client");
            tally.absorb(t);
            wire_hist.merge(&hist);
        }
    });

    // Overload burst: enough simultaneous one-in-flight connections that
    // the in-flight count dwarfs one shard's queue capacity. Every burst
    // request targets the same shard (the client computes the same
    // fingerprint % shards routing the server uses), and none carries a
    // deadline — deadline shedding drains a full queue almost as fast as
    // it fills, so an undeadlined backlog is what makes the bound itself
    // bind. Admission control must answer every request — a typed
    // QueueFull, never silence.
    let hot: Vec<usize> = {
        let target = pool[0].fingerprint() % net_cfg.shards as u64;
        (0..pool.len())
            .filter(|&i| pool[i].fingerprint() % net_cfg.shards as u64 == target)
            .collect()
    };
    let burst_conns = (net_cfg.shards * serve_cfg.queue_bound * 2 + 16).max(net.connections);
    let per_conn = 3usize;
    let barrier = std::sync::Barrier::new(burst_conns);
    let mut burst = WireTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..burst_conns)
            .map(|w| {
                let barrier = &barrier;
                let pool = &pool;
                let blobs = &blobs;
                let hot = &hot;
                s.spawn(move || {
                    let mut tally = WireTally::default();
                    let mut client = match tenbench_serve::NetClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            tally.lost += 1;
                            barrier.wait();
                            return tally;
                        }
                    };
                    barrier.wait();
                    for i in 0..per_conn {
                        let idx = hot[(w + i) % hot.len()];
                        tally.issued += 1;
                        let req = tenbench_serve::WireRequest {
                            kernel: Kernel::ALL[(w + i) % Kernel::ALL.len()],
                            format: tenbench_serve::FormatKind::Hicoo,
                            mode: ((w + i) % pool[idx].order()) as u8,
                            // A wide rank makes each admitted execution
                            // slow enough that the shard cannot drain the
                            // queue as fast as 200 connections refill it.
                            rank: 256,
                            deadline_ms: 0,
                        };
                        match client.request(&req, &blobs[idx]) {
                            Ok(resp) => {
                                if !classify(&mut tally, resp.status) {
                                    break;
                                }
                            }
                            Err(_) => {
                                tally.lost += 1;
                                break;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            burst.absorb(h.join().expect("net burst client"));
        }
    });

    let report = server.shutdown();
    let cache = report.cache();
    let wire_p50 = wire_hist.percentile(50.0);
    let wire_p90 = wire_hist.percentile(90.0);
    let wire_p99 = wire_hist.percentile(99.0);

    for (name, t) in [("closed-loop", &tally), ("burst", &burst)] {
        if t.issued != t.answered() + t.lost {
            return Err(CliError::Usage(format!(
                "internal: {name} tally does not balance: {t:?}"
            )));
        }
    }

    let mut out = format!(
        "net stress on {} x{} ({} nnz each, alpha {}, {} shards, {:.1}s)\n\n",
        opts.dataset,
        opts.tensors,
        fint(pool[0].nnz() as u64),
        opts.alpha,
        net_cfg.shards,
        opts.duration.as_secs_f64(),
    );
    out.push_str(&format!(
        "zipf phase (closed loop, {} connections)\n  clients         {}\n  wire latency    p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms (n={})\n",
        net.connections,
        tally.render(),
        wire_p50,
        wire_p90,
        wire_p99,
        wire_hist.count(),
    ));
    out.push_str(&format!(
        "overload burst ({} connections, {} requests each, single-shard, no deadline)\n  clients         {}\n",
        burst_conns,
        per_conn,
        burst.render(),
    ));
    out.push_str("\nserver report\n");
    out.push_str(&format!(
        "  wire            {} connections, {} requests, {} responses, {} protocol errors\n  bytes           {} in, {} out\n  cache           {} hits / {} misses / {} collisions (hit ratio {:.3}), {} entries, {} evictions\n",
        report.connections,
        report.requests,
        report.responses,
        report.protocol_errors,
        fint(report.bytes_in),
        fint(report.bytes_out),
        cache.hits,
        cache.misses,
        cache.collisions,
        cache.hit_ratio(),
        cache.entries,
        cache.evictions,
    ));
    for (i, shard) in report.shards.iter().enumerate() {
        out.push_str(&format!(
            "  shard {i}         {} completed, {} queue-full, {} deadline-shed, p99 {:.3} ms\n",
            shard.completed, shard.rejected_queue_full, shard.rejected_deadline, shard.p99_ms,
        ));
    }

    if let Some(path) = &opts.out_json {
        let json = format!(
            concat!(
                "{{\n  \"config\": {{\"dataset\": \"{}\", \"nnz\": {}, \"tensors\": {}, ",
                "\"duration_s\": {}, \"connections\": {}, \"shards\": {}, \"alpha\": {}, ",
                "\"rank\": {}, \"workers\": {}, \"queue_bound\": {}, \"max_batch\": {}, ",
                "\"cache_bytes\": {}, \"deadline_ms\": {}}},\n",
                "  \"zipf_phase\": {{\"clients\": {}, ",
                "\"wire_latency\": {{\"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, ",
                "\"hist\": {}}}}},\n",
                "  \"overload_burst\": {{\"connections\": {}, \"per_connection\": {}, ",
                "\"clients\": {}}},\n",
                "  \"final\": {}\n}}\n"
            ),
            opts.dataset,
            opts.nnz,
            opts.tensors,
            obs::json::json_f64(opts.duration.as_secs_f64()),
            net.connections,
            net_cfg.shards,
            obs::json::json_f64(opts.alpha),
            opts.rank,
            serve_cfg.workers,
            serve_cfg.queue_bound,
            serve_cfg.max_batch,
            serve_cfg.cache_bytes,
            opts.deadline_ms,
            tally.to_json(),
            obs::json::json_f64(wire_p50),
            obs::json::json_f64(wire_p90),
            obs::json::json_f64(wire_p99),
            wire_hist.to_json(),
            burst_conns,
            per_conn,
            burst.to_json(),
            report.to_json(),
        );
        // Self-check: the artifact must parse before it reaches disk.
        obs::json::Value::parse(&json).map_err(|e| {
            CliError::Usage(format!("internal: emitted BENCH_serve.json invalid: {e}"))
        })?;
        std::fs::write(path, &json)?;
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }

    if tally.ok == 0 {
        return Err(CliError::Usage(
            "net stress gate: no request completed in the closed-loop phase".to_string(),
        ));
    }
    let lost = tally.lost + burst.lost;
    if lost > 0 {
        return Err(CliError::Usage(format!(
            "net stress gate: {lost} requests lost without a response frame or typed rejection"
        )));
    }
    out.push_str("\nlost gate: every request answered (0 lost) ok\n");
    if report.protocol_errors > 0 {
        return Err(CliError::Usage(format!(
            "net stress gate: {} protocol errors on well-formed traffic",
            report.protocol_errors,
        )));
    }
    let hit = cache.hit_ratio();
    if hit < opts.min_hit_ratio {
        return Err(CliError::Usage(format!(
            "net stress gate: cache hit ratio {hit:.3} below the floor of {:.3}",
            opts.min_hit_ratio,
        )));
    }
    out.push_str(&format!(
        "hit-ratio gate: {hit:.3} >= {:.3} ok\n",
        opts.min_hit_ratio
    ));
    if let Some(ceiling) = opts.max_p99_ms {
        if wire_p99 > ceiling {
            return Err(CliError::Usage(format!(
                "net stress gate: wire p99 {wire_p99:.2} ms above the ceiling of {ceiling:.2} ms"
            )));
        }
        out.push_str(&format!(
            "p99 gate: {wire_p99:.2} ms <= {ceiling:.2} ms ok\n"
        ));
    }
    if burst.rejected_full == 0 {
        return Err(CliError::Usage(
            "net stress gate: overload burst saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "overload gate: {} typed queue-full rejections ok\n",
        burst.rejected_full
    ));
    Ok(out)
}

/// Knobs for [`chaos`] beyond the harness's own [`crate::chaos::ChaosConfig`].
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// The scenario configuration.
    pub cfg: crate::chaos::ChaosConfig,
    /// Write `BENCH_chaos.json` here.
    pub out_json: Option<PathBuf>,
    /// Read gate floors (`max_lost_jobs` / `min_recoveries`) from this
    /// `ci/chaos-floor.txt`-style file.
    pub floors: Option<PathBuf>,
    /// Write flight-recorder dumps here as faults fire, and gate on one
    /// dump per observed fault kind at the end of the run.
    pub flight_dump_dir: Option<PathBuf>,
}

/// Gate floors for a chaos run: the CI contract.
#[derive(Debug, Clone, Copy)]
struct ChaosFloors {
    /// Admitted jobs allowed to vanish without a terminal state (0).
    max_lost_jobs: u64,
    /// Minimum checkpoint-resume recoveries, proving the injector fired
    /// and recovery worked (not merely that nothing went wrong).
    min_recoveries: u64,
}

impl Default for ChaosFloors {
    fn default() -> Self {
        ChaosFloors {
            max_lost_jobs: 0,
            min_recoveries: 1,
        }
    }
}

fn parse_chaos_floors(path: &Path) -> CliResult<ChaosFloors> {
    let text = std::fs::read_to_string(path)?;
    let mut floors = ChaosFloors::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| {
            CliError::Usage(format!(
                "{}:{}: {what}: {raw:?}",
                path.display(),
                lineno + 1
            ))
        };
        let mut it = line.split_whitespace();
        let (Some(key), Some(val)) = (it.next(), it.next()) else {
            return Err(bad("expected `<key> <value>`"));
        };
        let val: u64 = val.parse().map_err(|_| bad("bad value"))?;
        match key {
            "max_lost_jobs" => floors.max_lost_jobs = val,
            "min_recoveries" => floors.min_recoveries = val,
            _ => return Err(bad("unknown chaos floor key")),
        }
    }
    Ok(floors)
}

/// `chaos`: run the fault-injection harness against a live service and
/// apply the robustness gates (each a usage error on violation): zero lost
/// jobs beyond the floor, at least `min_recoveries` checkpoint-resume
/// recoveries, every injected fault kind exercised, at least one typed
/// queue-full rejection from the job burst, bitwise CP-ALS reference
/// match for every completed decomposition, and no fit-residual increase
/// across a resume boundary.
pub fn chaos(opts: &ChaosOpts) -> CliResult<String> {
    let floors = match &opts.floors {
        Some(path) => parse_chaos_floors(path)?,
        None => ChaosFloors::default(),
    };
    if let Some(dir) = &opts.flight_dump_dir {
        obs::flight::set_dump_dir(Some(dir.clone()))
            .map_err(|e| CliError::Usage(format!("--flight-dump-dir {}: {e}", dir.display())))?;
    }

    // Injected panics are contained by the supervisor's catch_unwind and
    // surface as typed step verdicts; silence their default stderr spew so
    // the report stays readable. Panics on any other thread still print.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("tenbench-supervised") {
            prev_hook(info);
        }
    }));
    let report = crate::chaos::run_chaos(&opts.cfg);
    let _ = std::panic::take_hook();

    let mut out = format!(
        "chaos run: seed {}, {} jobs + kernel traffic ({} clients, {:.1}s, alpha {}), fault rate {}\n\n",
        opts.cfg.seed,
        opts.cfg.jobs,
        opts.cfg.clients,
        opts.cfg.duration.as_secs_f64(),
        opts.cfg.alpha,
        opts.cfg.fault_rate,
    );
    let mut table = TextTable::new(vec![
        "job", "kind", "terminal", "iters", "fit", "recov", "resumes",
    ]);
    for l in &report.job_lines {
        table.row(vec![
            l.job_id.to_string(),
            l.kind.to_string(),
            l.terminal.clone(),
            l.iterations.to_string(),
            if l.fit.is_finite() {
                format!("{:.6}", l.fit)
            } else {
                "-".to_string()
            },
            l.recoveries.to_string(),
            l.resume_boundaries.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\njobs: {} admitted, {} completed, {} failed (typed), {} lost, {} burst-rejected (typed)\n",
        report.admitted, report.completed, report.failed, report.lost, report.burst_rejected,
    ));
    out.push_str(&format!(
        "faults injected: {} panics, {} hangs, {} checkpoint corruptions\n",
        report.injected_panics, report.injected_hangs, report.injected_corruptions,
    ));
    out.push_str(&format!(
        "recovery: {} total ({} checkpoint resumes, {} reinits), {} corrupt checkpoints detected, {} checkpoints written\n",
        report.recoveries, report.resumes, report.reinits, report.corrupt_detected,
        report.checkpoints,
    ));
    out.push_str(&format!(
        "kernel traffic: {} issued, {} ok, {} rejected (full), {} shed (deadline), {} failed; probe: {}/{} queue-full\n",
        report.kernel.issued,
        report.kernel.ok,
        report.kernel.rejected_full,
        report.kernel.rejected_deadline,
        report.kernel.failed,
        report.kernel_probe.rejected_queue_full,
        report.kernel_probe.submitted,
    ));
    out.push_str(&format!(
        "determinism: {}/{} completed cp_als runs bitwise-match the uninterrupted reference, {} resume boundaries, {} residual violations\n",
        report.cp_checked - report.cp_mismatched,
        report.cp_checked,
        report.resume_boundaries,
        report.residual_violations,
    ));
    out.push_str("obs counters:\n");
    for (name, delta) in &report.counters {
        out.push_str(&format!("  {name:<26} {delta}\n"));
    }

    if let Some(path) = &opts.out_json {
        let json = format!(
            concat!(
                "{{\n  \"config\": {{\"seed\": {}, \"jobs\": {}, \"duration_s\": {}, ",
                "\"clients\": {}, \"tensors\": {}, \"dim\": {}, \"nnz\": {}, ",
                "\"fault_rate\": {}, \"max_step_seconds\": {}}},\n",
                "  \"report\": {}\n}}\n"
            ),
            opts.cfg.seed,
            opts.cfg.jobs,
            obs::json::json_f64(opts.cfg.duration.as_secs_f64()),
            opts.cfg.clients,
            opts.cfg.tensors,
            opts.cfg.dim,
            opts.cfg.nnz,
            obs::json::json_f64(opts.cfg.fault_rate),
            obs::json::json_f64(opts.cfg.max_step_seconds),
            report.to_json(),
        );
        obs::json::Value::parse(&json).map_err(|e| {
            CliError::Usage(format!("internal: emitted BENCH_chaos.json invalid: {e}"))
        })?;
        std::fs::write(path, &json)?;
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }

    // The gates. Render the full report above first so a violated gate
    // still leaves the evidence on screen.
    if report.lost > floors.max_lost_jobs {
        return Err(CliError::Usage(format!(
            "chaos gate: {} jobs lost without a terminal state (floor {})",
            report.lost, floors.max_lost_jobs,
        )));
    }
    out.push_str(&format!(
        "lost-jobs gate: {} <= {} ok\n",
        report.lost, floors.max_lost_jobs
    ));
    if report.resumes < floors.min_recoveries {
        return Err(CliError::Usage(format!(
            "chaos gate: only {} checkpoint-resume recoveries (floor {}) — the injector \
             or the resume path is dead",
            report.resumes, floors.min_recoveries,
        )));
    }
    out.push_str(&format!(
        "recovery gate: {} resumes >= {} ok\n",
        report.resumes, floors.min_recoveries
    ));
    if report.injected_panics == 0 || report.injected_hangs == 0 || report.injected_corruptions == 0
    {
        return Err(CliError::Usage(format!(
            "chaos gate: fault mix incomplete ({} panics, {} hangs, {} corruptions) — \
             raise --jobs, --max-iters, or --fault-rate",
            report.injected_panics, report.injected_hangs, report.injected_corruptions,
        )));
    }
    out.push_str("fault-mix gate: panic + hang + corruption all injected ok\n");
    if report.burst_rejected == 0 {
        return Err(CliError::Usage(
            "chaos gate: the job-queue burst saw no typed queue-full rejection — admission \
             control did not engage"
                .to_string(),
        ));
    }
    out.push_str(&format!(
        "burst gate: {} typed queue-full rejections ok\n",
        report.burst_rejected
    ));
    if report.cp_mismatched > 0 {
        return Err(CliError::Usage(format!(
            "chaos gate: {}/{} completed cp_als jobs do not bitwise-match their \
             uninterrupted reference",
            report.cp_mismatched, report.cp_checked,
        )));
    }
    out.push_str(&format!(
        "determinism gate: {}/{} cp_als reference matches ok\n",
        report.cp_checked, report.cp_checked
    ));
    if report.residual_violations > 0 {
        return Err(CliError::Usage(format!(
            "chaos gate: {} fit-residual increases across resume boundaries",
            report.residual_violations,
        )));
    }
    out.push_str("residual gate: non-increasing across every resume boundary ok\n");
    // Flight-recorder gate: every fault kind that actually fired must have
    // produced at least one dump of the matching reason. Hangs surface as
    // watchdog timeouts; corruptions dump at detection time (the resume
    // walk), so that kind is keyed on detections, not injections.
    if let Some(dir) = &opts.flight_dump_dir {
        let count_kind = |reason: &str| -> CliResult<usize> {
            let suffix = format!("-{reason}.json");
            let mut n = 0;
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("flight-") && name.ends_with(&suffix) {
                    n += 1;
                }
            }
            Ok(n)
        };
        for (reason, fired) in [
            ("panic", report.injected_panics),
            ("timeout", report.injected_hangs),
            ("ckpt_corrupt", report.corrupt_detected),
        ] {
            let dumps = count_kind(reason)?;
            if fired > 0 && dumps == 0 {
                return Err(CliError::Usage(format!(
                    "chaos gate: {fired} {reason} faults observed but no \
                     flight-*-{reason}.json dump in {}",
                    dir.display(),
                )));
            }
            out.push_str(&format!(
                "flight-dump gate: {reason} — {dumps} dumps for {fired} faults ok\n"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![16, 16, 16]),
            (0..200u32)
                .map(|i| (vec![i % 16, (i / 16) % 16, (i * 7) % 16], i as f32 + 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn stats_report_mentions_key_numbers() {
        let r = stats_report(&tiny(), 3).unwrap();
        assert!(r.contains("16x16x16"));
        assert!(r.contains("HiCOO (B = 8)"));
        assert!(r.contains("storage"));
    }

    #[test]
    fn run_kernel_on_every_kernel_and_format() {
        for k in ["tew", "ts", "ttv", "ttm", "mttkrp"] {
            for f in ["coo", "hicoo"] {
                let r = run_kernel_on(tiny(), k, 0, 4, f, 3, 1, "atomic", None).unwrap();
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
                let cell = Cell::resolve(k, f, "atomic").unwrap();
                assert!(r.starts_with(&format!("{}/mode0 ", cell.name)), "{r}");
            }
        }
    }

    #[test]
    fn run_kernel_on_scheduled_strategy() {
        for k in ["ttv", "ttm", "mttkrp"] {
            for (f, suffix) in [("coo", ""), ("hicoo", ".hicoo_sched")] {
                let r = run_kernel_on(tiny(), k, 0, 4, f, 3, 1, "scheduled", None).unwrap();
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
                assert!(r.contains(suffix), "{k}/{f}: {r}");
            }
        }
        for s in ["seq", "privatized"] {
            let r = run_kernel_on(tiny(), "mttkrp", 1, 4, "coo", 3, 1, s, None).unwrap();
            assert!(r.contains("GFLOPS"), "{s}: {r}");
            assert!(r.starts_with(&format!("mttkrp.coo_{s}/mode1 ")), "{r}");
        }
    }

    #[test]
    fn run_kernel_rejects_bad_input() {
        let run = |k, mode, f, s| run_kernel_on(tiny(), k, mode, 4, f, 3, 1, s, None);
        assert!(matches!(
            run("nope", 0, "coo", "atomic"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("ttv", 0, "csr", "atomic"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run("ttv", 9, "coo", "atomic"),
            Err(CliError::Tensor(_))
        ));
        // Every kernel validates the strategy, not only Mttkrp, and the
        // error lists the cells that do exist.
        for k in ["mttkrp", "ttv", "tew"] {
            match run(k, 0, "hicoo", "speculative") {
                Err(CliError::Usage(m)) => assert!(m.contains("ttv.hicoo_sched"), "{m}"),
                other => panic!("{k}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn scale_bench_sweeps_the_table_and_writes_json() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("scaling.json");
        let opts = |dataset: &str| ScaleBenchOpts {
            dataset: dataset.to_string(),
            nnz: 3_000,
            rank: 4,
            block_bits: 3,
            threads: vec![2, 1, 2],
            reps: 1,
            out_json: Some(json.clone()),
            floors: None,
        };
        let r = scale_bench(&opts("s4")).unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"host_cpus\""), "{body}");
        assert!(body.contains("\"self_speedup\""), "{body}");
        for cell in &cells::CELLS {
            assert!(r.contains(cell.name), "{}: {r}", cell.name);
            // One row per swept pool width; sequential cells run once.
            let rows = body.matches(&format!("\"{}\"", cell.name)).count();
            assert_eq!(rows, if cell.sequential { 1 } else { 2 }, "{}", cell.name);
        }
        assert!(matches!(
            scale_bench(&opts("zz99")),
            Err(CliError::Usage(_))
        ));
    }

    fn row(cell: &'static str, threads: usize, time_s: f64) -> ScaleRow {
        ScaleRow {
            cell,
            threads,
            time_s,
            mean_s: time_s,
            self_speedup: 1.0,
            busy_frac: 1.0,
            park_frac: 0.0,
            steal_frac: 0.0,
            chunks: 0,
        }
    }

    #[test]
    fn scaling_floors_bind_skip_and_reject() {
        let rows = [
            row("convert.radix", 1, 0.06),
            row("convert.radix", 4, 0.02),
            row("convert.comparator", 1, 0.27),
        ];
        let check = |text: &str, host: usize| {
            check_scaling_floors(&parse_scaling_floors("floors", text)?, &rows, host)
        };
        // Self-speedup and ratio lines both bind.
        let out = check(
            "convert.radix@4 2.5  # curve\nconvert.radix@1/convert.comparator@1 1.5\n",
            4,
        )
        .unwrap();
        assert!(
            out.contains("gate convert.radix@4: 3.00x >= 2.50x ok"),
            "{out}"
        );
        assert!(
            out.contains("gate convert.radix@1/convert.comparator@1: 4.50x >= 1.50x ok"),
            "{out}"
        );
        for text in [
            "convert.radix@4 3.5",
            "convert.radix@1/convert.comparator@1 5.0",
        ] {
            match check(text, 4) {
                Err(CliError::Usage(m)) => assert!(m.contains("below floor"), "{m}"),
                other => panic!("{text}: expected a violation, got {other:?}"),
            }
        }
        // Above the host's cores either form is skipped, on either side.
        for text in [
            "convert.radix@4 9.0",
            "convert.radix@4/convert.comparator@1 9.0",
            "convert.comparator@1/convert.radix@4 9.0",
        ] {
            let out = check(text, 2).unwrap();
            assert!(out.contains("skipped"), "{text}: {out}");
        }
        // A width that was not swept is a violation that says what to pass.
        match check("convert.comparator@2 1.0", 4) {
            Err(CliError::Usage(m)) => assert!(m.contains("--threads including 2"), "{m}"),
            other => panic!("expected a violation, got {other:?}"),
        }
        // A name outside the table is its own error, whichever side.
        for text in [
            "convert@4 2.0",
            "convert.radix@1/convert_vs_comparator@1 1.5",
        ] {
            match check(text, 4) {
                Err(CliError::Usage(m)) => assert!(m.contains("unknown cell"), "{m}"),
                other => panic!("{text}: expected unknown cell, got {other:?}"),
            }
        }
        assert!(check("convert_vs_comparator 1.5", 4).is_err());
        assert!(check("convert.radix@x 1.5", 4).is_err());
    }

    #[test]
    fn committed_scaling_floors_parse() {
        let text = include_str!("../../../ci/scaling-floor.txt");
        let floors = parse_scaling_floors("ci/scaling-floor.txt", text).unwrap();
        let mins: Vec<f64> = floors.iter().map(|f| f.min).collect();
        assert_eq!(mins, [2.0, 2.5, 2.5, 1.5]);
        // The radix-vs-comparator ratio is written at one thread on both
        // sides, so it binds on any host.
        assert_eq!(floors[3].num.1.max(floors[3].den.unwrap().1), 1);
    }

    #[test]
    fn supervised_kernel_runs_report_ok() {
        let cfg = SupervisorConfig::default();
        for k in ["tew", "ts", "ttv", "ttm", "mttkrp"] {
            for f in ["coo", "hicoo"] {
                let r = run_kernel_on(tiny(), k, 0, 4, f, 3, 1, "scheduled", Some(&cfg)).unwrap();
                assert!(r.contains("status ok"), "{k}/{f}: {r}");
                assert!(r.contains("GFLOPS"), "{k}/{f}: {r}");
                assert!(r.contains("\"status\": \"ok\""), "{k}/{f}: {r}");
            }
        }
    }

    #[test]
    fn supervised_kernel_times_out_cleanly() {
        // A cap short enough that the watchdog fires during the attempt on
        // any machine is impractical for these tiny kernels; instead check
        // the flag plumbing accepts a generous cap and still succeeds.
        let cfg = SupervisorConfig::with_max_seconds(30.0);
        let r = run_kernel_on(tiny(), "mttkrp", 0, 4, "coo", 3, 1, "atomic", Some(&cfg)).unwrap();
        assert!(r.contains("status ok"), "{r}");
        assert!(matches!(
            run_kernel_on(tiny(), "nope", 0, 4, "coo", 3, 1, "atomic", Some(&cfg)),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn verify_passes_on_clean_tensor_and_fails_on_corrupt_file() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verify.tnb");
        save_tensor(&tiny(), &path).unwrap();
        let cfg = SupervisorConfig::default();
        let r = verify(&path, 3, 4, &cfg).unwrap();
        assert!(r.contains("VERIFY PASS"), "{r}");
        assert!(r.contains("coo structure: ok"), "{r}");
        assert!(
            r.contains("mttkrp hicoo vs sequential reference: ok"),
            "{r}"
        );

        // Flip one payload byte: the hardened reader must reject the file,
        // so verify reports an error instead of validating garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        let bad = dir.join("verify-bad.tnb");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(verify(&bad, 3, 4, &cfg), Err(CliError::Io(_))));
    }

    #[test]
    fn convert_and_stats_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tns = dir.join("t.tns");
        let tnb = dir.join("t.tnb");
        save_tensor(&tiny(), &tns).unwrap();
        let msg = convert(&tns, &tnb).unwrap();
        assert!(msg.contains("converted"));
        let back = load_tensor(&tnb).unwrap();
        assert_eq!(back.nnz(), tiny().nnz());
        let s = stats(&tnb, 4).unwrap();
        assert!(s.contains("nnz 200"));
    }

    #[test]
    fn generate_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join("tenbench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("gen.tnb");
        let msg = generate("pl", &[2048, 2048, 32], 3_000, 7, &out).unwrap();
        assert!(msg.contains("3,000"));
        let t = load_tensor(&out).unwrap();
        assert_eq!(t.nnz(), 3_000);
        assert!(matches!(
            generate("weird", &[4, 4], 10, 1, &out),
            Err(CliError::Usage(_))
        ));
        // An over-dense request fails with both counts, not a short file.
        let short = generate("pl", &[4, 4, 4], 1_000, 1, &out).unwrap_err();
        assert!(short.to_string().contains("64 of the 1000"), "{short}");
    }

    #[test]
    fn unsupported_extensions_are_rejected() {
        assert!(matches!(
            load_tensor(Path::new("/nonexistent/file.xyz")),
            Err(CliError::Io(_)) | Err(CliError::Usage(_))
        ));
        let r = save_tensor(&tiny(), Path::new("/tmp/tenbench-cli-test/x.csv"));
        assert!(matches!(r, Err(CliError::Usage(_))));
    }
}
