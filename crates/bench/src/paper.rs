//! The paper's tables and figures: `tenbench paper <artifact>` regenerates
//! every table and figure of *"A Parallel Sparse Tensor Benchmark Suite on
//! CPUs and GPUs"*.
//!
//! ```text
//! tenbench paper <artifact> [options]
//!
//! artifacts:
//!   table1 table2 table3 table4     the paper's tables
//!   fig1 fig2                       format layout walkthroughs
//!   fig3                            roofline models (host ERT + Table 4)
//!   fig4 fig5                       CPU kernel GFLOPS (full / half threads)
//!   fig6 fig7                       GPU kernel GFLOPS (simulated P100 / V100)
//!   observations                    the paper's five observations, recomputed
//!   stats reorder                   dataset statistics, reordering ablation
//!   all                             every artifact above except stats and reorder
//!
//! options:
//!   --datasets r1,s4,...   dataset filter (default: all 30)
//!   --quick                small representative dataset subset
//!                          (an explicit --datasets wins)
//!   --scale F              multiply default nonzero counts by F (> 0)
//!   --reps N               measurement repetitions (default 5)
//!   --csv PATH             also append figure data as long-format CSV
//! ```
//!
//! One run generates each selected dataset once, in memory, on first use,
//! and every artifact of the run reads that tensor. Progress goes to
//! stderr; each section is written to the output as soon as it is done.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use tenbench_core::analysis::table1_rows;
use tenbench_core::kernels::ttm::{ttm, ttm_hicoo};
use tenbench_core::par::with_threads;
use tenbench_core::prelude::*;
use tenbench_gen::registry::{find, REAL_DATASETS, SYNTHETIC_DATASETS};
use tenbench_gen::{Dataset, TensorStats};
use tenbench_gpusim::device::DeviceSpec;
use tenbench_roofline::ert::{self, ErtConfig};
use tenbench_roofline::model::{kernel_oi_marks, Roofline};
use tenbench_roofline::platform::PLATFORMS;

use crate::cli::{CliError, CliResult};
use crate::format::{fint, fnum, AsciiPlot, TextTable};
use crate::suite::{run_cpu_suite, run_gpu_suite, KernelResult, MachineModel};
use crate::suite::{DEFAULT_BLOCK_BITS, DEFAULT_RANK};

/// The `--quick` selection: one small dataset per family (regular
/// Kronecker, irregular power-law, 4th-order, surrogate real).
pub(crate) const QUICK_IDS: [&str; 6] = ["r1", "r10", "s1", "s4", "s7", "s13"];

/// What a `paper` run measures, shared by every artifact of the run; built
/// only through the validating [`PaperOpts::new`].
#[derive(Debug)]
pub struct PaperOpts {
    /// The datasets the per-tensor artifacts loop over.
    datasets: Vec<&'static Dataset>,
    /// Multiplier on each dataset's default nonzero count.
    scale: f64,
    /// Measurement repetitions per CPU kernel cell.
    reps: usize,
    /// Optional CSV sink for the figure data (long format).
    csv: Option<PathBuf>,
}

impl PaperOpts {
    /// Validate the options: `ids` is a comma-separated dataset list (all
    /// 30 when absent, `QUICK_IDS` under `quick`), and `scale` must be
    /// finite and positive. Every failure is a usage error.
    pub fn new(
        ids: Option<&str>,
        quick: bool,
        scale: f64,
        reps: usize,
        csv: Option<PathBuf>,
    ) -> CliResult<Self> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(CliError::Usage(format!(
                "bad --scale {scale} (expected a finite number > 0)"
            )));
        }
        let datasets = match ids {
            Some(list) => list.split(',').map(resolve).collect::<CliResult<_>>()?,
            None if quick => QUICK_IDS
                .into_iter()
                .map(resolve)
                .collect::<CliResult<_>>()?,
            None => REAL_DATASETS.iter().chain(SYNTHETIC_DATASETS).collect(),
        };
        Ok(PaperOpts {
            datasets,
            scale,
            reps,
            csv,
        })
    }
}

fn resolve(id: &str) -> CliResult<&'static Dataset> {
    find(id).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown dataset {id:?} (expected r1..r15 or s1..s15)"
        ))
    })
}

/// Write one artifact's sections to an output.
type Writer = fn(&Paper<'_>, &mut dyn Write) -> CliResult<()>;

/// Every artifact in print order: its name, whether `all` includes it, and
/// its writer.
const ARTIFACTS: [(&str, bool, Writer); 14] = [
    ("table1", true, |_, out| table1(out)),
    ("table2", true, |_, out| {
        table_datasets(
            out,
            "Table 2: real-world tensors (surrogates)",
            REAL_DATASETS,
        )
    }),
    ("table3", true, |_, out| {
        table_datasets(out, "Table 3: synthetic tensors", SYNTHETIC_DATASETS)
    }),
    ("table4", true, |_, out| table4(out)),
    ("fig1", true, |_, out| fig1(out)),
    ("fig2", true, |_, out| fig2(out)),
    ("fig3", true, |_, out| fig3(out)),
    ("fig4", true, |p, out| p.cpu_figure(out, false)),
    ("fig5", true, |p, out| p.cpu_figure(out, true)),
    ("fig6", true, |p, out| {
        p.gpu_figure(
            out,
            DeviceSpec::p100(),
            "fig6",
            "Figure 6: DGX-1P (simulated P100)",
        )
    }),
    ("fig7", true, |p, out| {
        p.gpu_figure(
            out,
            DeviceSpec::v100(),
            "fig7",
            "Figure 7: DGX-1V (simulated V100)",
        )
    }),
    ("stats", false, |p, out| p.stats_table(out)),
    ("reorder", false, |p, out| p.reorder_demo(out)),
    ("observations", true, |p, out| p.observations(out)),
];

/// Write `artifact` (a name from the module docs, or `all`) to `out`. An
/// unknown name is a usage error reported before any work starts.
pub fn run(artifact: &str, opts: &PaperOpts, out: &mut impl Write) -> CliResult<()> {
    let selected: Vec<Writer> = ARTIFACTS
        .iter()
        .filter(|&&(name, in_all, _)| name == artifact || (artifact == "all" && in_all))
        .map(|&(_, _, write)| write)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
        return Err(CliError::Usage(format!(
            "unknown artifact {artifact:?} (expected {} or all)",
            names.join(", ")
        )));
    }
    let paper = Paper {
        opts,
        tensors: opts.datasets.iter().map(|_| OnceCell::new()).collect(),
    };
    for write in selected {
        write(&paper, out)?;
    }
    Ok(())
}

/// One run's options and its lazily generated dataset tensors.
struct Paper<'a> {
    opts: &'a PaperOpts,
    tensors: Vec<OnceCell<CooTensor<f32>>>,
}

impl Paper<'_> {
    /// The selected datasets with their tensors, each generated at
    /// `scale` times its bench nonzero count on first use.
    fn datasets(&self) -> impl Iterator<Item = (&'static Dataset, &CooTensor<f32>)> {
        self.opts.datasets.iter().zip(&self.tensors).map(|(&d, t)| {
            let nnz = ((d.bench_nnz() as f64 * self.opts.scale) as usize).max(1_000);
            (d, t.get_or_init(|| d.generate_with(nnz, d.default_seed())))
        })
    }

    /// Append figure rows to the CSV sink in long format (one line per
    /// tensor x kernel x format), creating the header on first write.
    fn append_csv(&self, figure: &str, rows: &[(String, Vec<KernelResult>)]) -> CliResult<()> {
        let Some(path) = &self.opts.csv else {
            return Ok(());
        };
        let fresh = !path.exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if fresh {
            writeln!(
                f,
                "figure,tensor,kernel,format,gflops,time_s,oi,bound_gflops,efficiency"
            )?;
        }
        for (id, results) in rows {
            for r in results {
                writeln!(
                    f,
                    "{figure},{id},{},{},{:.6},{:.ninep$e},{:.6},{:.6},{:.6}",
                    r.kernel.name(),
                    r.format,
                    r.gflops,
                    r.time_s,
                    r.oi,
                    r.bound_gflops,
                    r.efficiency(),
                    ninep = 6
                )?;
            }
        }
        Ok(())
    }
}

fn section(out: &mut dyn Write, title: &str) -> CliResult<()> {
    writeln!(out, "\n=== {title} ===\n")?;
    Ok(())
}

// ---------------------------------------------------------------- tables

fn table1(out: &mut dyn Write) -> CliResult<()> {
    section(
        out,
        "Table 1: kernel analysis (third-order cubical tensors)",
    )?;
    let mut t = TextTable::new(["Kernel", "Work (#Flops)", "COO bytes", "HiCOO bytes", "OI"]);
    for row in table1_rows() {
        t.row([row.kernel, row.work, row.coo_bytes, row.hicoo_bytes, row.oi]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Exact per-tensor OI values (with the MF term) feed the bounds in figures 4-7."
    )?;
    Ok(())
}

fn table_datasets(out: &mut dyn Write, title: &str, datasets: &[Dataset]) -> CliResult<()> {
    section(out, title)?;
    let mut t = TextTable::new([
        "No.",
        "Tensor",
        "Gen.",
        "Order",
        "Paper dims",
        "Paper #nnz",
        "Density",
        "Bench dims",
        "Bench #nnz",
    ]);
    for d in datasets {
        let dims: Vec<String> = d.paper_dims.iter().map(|&x| short(x)).collect();
        let bdims: Vec<String> = d.bench_dims().iter().map(|&x| short(x as u64)).collect();
        t.row([
            d.id.to_string(),
            d.name.to_string(),
            d.gen_label().to_string(),
            d.order().to_string(),
            dims.join("x"),
            short(d.paper_nnz),
            format!("{:.1e}", d.paper_density()),
            bdims.join("x"),
            short(d.bench_nnz() as u64),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

fn short(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.0}K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

fn table4(out: &mut dyn Write) -> CliResult<()> {
    section(out, "Table 4: platform parameters")?;
    let p = PLATFORMS;
    let mut t = TextTable::new(["Parameter", p[0].name, p[1].name, p[2].name, p[3].name]);
    let row4 = |t: &mut TextTable, label: &str, f: &dyn Fn(usize) -> String| {
        t.row([label.to_string(), f(0), f(1), f(2), f(3)]);
    };
    row4(&mut t, "Processor", &|i| p[i].processor.to_string());
    row4(&mut t, "Microarch", &|i| p[i].microarch.to_string());
    row4(&mut t, "Frequency (GHz)", &|i| fnum(p[i].frequency_ghz));
    row4(&mut t, "#Cores", &|i| fint(p[i].cores as u64));
    row4(&mut t, "Peak SP (TFLOPS)", &|i| fnum(p[i].peak_sp_tflops));
    row4(&mut t, "LLC (MiB)", &|i| fnum(p[i].llc_mib));
    row4(&mut t, "Mem size (GiB)", &|i| fnum(p[i].mem_gib));
    row4(&mut t, "Mem type", &|i| p[i].mem_type.to_string());
    row4(&mut t, "Mem BW (GB/s)", &|i| fnum(p[i].mem_bw_gbs));
    row4(&mut t, "ERT-DRAM (GB/s, modeled)", &|i| {
        fnum(p[i].ert_dram_gbs)
    });
    row4(&mut t, "Compiler", &|i| p[i].compiler.to_string());
    writeln!(out, "{}", t.render())?;
    Ok(())
}

// ---------------------------------------------------------------- figures 1-2

/// The worked example tensor used by the paper's Figures 1 and 2.
fn example_tensor() -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![4, 4, 4]),
        vec![
            (vec![0, 0, 0], 1.0),
            (vec![0, 0, 1], 2.0),
            (vec![0, 1, 0], 3.0),
            (vec![1, 0, 0], 4.0),
            (vec![1, 1, 2], 5.0),
            (vec![2, 2, 0], 6.0),
            (vec![2, 2, 2], 7.0),
            (vec![3, 3, 3], 8.0),
        ],
    )
    .unwrap()
}

fn fig1(out: &mut dyn Write) -> CliResult<()> {
    section(out, "Figure 1: COO and sCOO layouts (worked example)")?;
    let x = example_tensor();
    writeln!(
        out,
        "COO for a {} tensor with {} nonzeros:",
        x.shape(),
        x.nnz()
    )?;
    for m in 0..x.order() {
        writeln!(out, "  inds{}: {:?}", m + 1, x.mode_inds(m))?;
    }
    writeln!(out, "  vals : {:?}", x.vals())?;
    writeln!(out, "  storage: {} bytes (4(N+1)M)", x.storage_bytes())?;

    let u = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32);
    let y = ttm(&x, &u, 2)?;
    writeln!(
        out,
        "\nsCOO after Ttm in mode 3 (mode k becomes dense, R = 2):"
    )?;
    for m in 0..y.order() {
        if m != y.dense_mode() {
            writeln!(out, "  inds{}: {:?}", m + 1, y.inds()[m])?;
        }
    }
    for f in 0..y.num_fibers() {
        writeln!(out, "  fiber {f}: {:?}", y.fiber_vals(f))?;
    }
    writeln!(out, "  storage: {} bytes", y.storage_bytes())?;
    Ok(())
}

fn fig2(out: &mut dyn Write) -> CliResult<()> {
    section(
        out,
        "Figure 2: HiCOO, gHiCOO, and sHiCOO layouts (2x2x2 blocks)",
    )?;
    let x = example_tensor();
    let h = HicooTensor::from_coo(&x, 1)?;
    writeln!(
        out,
        "HiCOO (block bits 1 => B = 2): {} blocks",
        h.num_blocks()
    )?;
    writeln!(out, "  bptr : {:?}", h.bptr())?;
    for m in 0..h.order() {
        writeln!(out, "  binds{}: {:?}", m + 1, h.binds()[m])?;
    }
    for m in 0..h.order() {
        writeln!(out, "  einds{}: {:?}", m + 1, h.einds()[m])?;
    }
    writeln!(out, "  vals : {:?}", h.vals())?;
    writeln!(
        out,
        "  storage: {} bytes vs {} bytes COO",
        h.storage_bytes(),
        x.storage_bytes()
    )?;

    let g = GHicooTensor::from_coo_for_mode(&x, 1, 2)?;
    writeln!(
        out,
        "\ngHiCOO compressing modes i,j only (mode k stays COO):"
    )?;
    writeln!(
        out,
        "  blocks: {}  storage: {} bytes",
        g.num_blocks(),
        g.storage_bytes()
    )?;
    writeln!(out, "  mode-k full indices: {:?}", g.find(2))?;

    let u = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32);
    let sh = ttm_hicoo(&h, &u, 2)?;
    writeln!(
        out,
        "\nsHiCOO after HiCOO-Ttm in mode 3 (dense mode k, R = 2):"
    )?;
    writeln!(
        out,
        "  blocks: {}  fibers: {}  storage: {} bytes",
        sh.num_blocks(),
        sh.num_fibers(),
        sh.storage_bytes()
    )?;
    Ok(())
}

// ---------------------------------------------------------------- figure 3

fn fig3(out: &mut dyn Write) -> CliResult<()> {
    section(out, "Figure 3: Roofline models")?;
    writeln!(out, "Host (measured with the built-in ERT):")?;
    let report = ert::run(&ErtConfig::default());
    writeln!(
        out,
        "  threads {}  peak {} GFLOPS  cache {} GB/s  DRAM {} GB/s",
        report.threads,
        fnum(report.peak_gflops),
        fnum(report.cache_gbs),
        fnum(report.dram_gbs)
    )?;
    let mut sweep = TextTable::new(["Working set", "GB/s"]);
    for p in &report.points {
        sweep.row([format!("{} KiB", p.bytes / 1024), fnum(p.gbs)]);
    }
    writeln!(out, "{}", sweep.render())?;

    let host = Roofline::from_ert("host", &report);
    let mut models: Vec<Roofline> = vec![host];
    models.extend(PLATFORMS.iter().map(Roofline::from_platform));
    for r in &models {
        writeln!(
            out,
            "{} roofline (ERT-DRAM ceiling '*', upper ceiling '.'):",
            r.name
        )?;
        let mut plot = AsciiPlot::new(64, 14, (0.02, 64.0), (1.0, 20_000.0));
        plot.series(&r.series(r.ceilings.len() - 1, 0.02, 64.0, 64), '*');
        if r.ceilings.len() > 1 {
            plot.series(&r.series(0, 0.02, 64.0, 64), '.');
        }
        for (_, oi) in kernel_oi_marks() {
            plot.vmark(oi, '|');
        }
        writeln!(out, "{}", plot.render())?;
        let mut marks = TextTable::new(["Kernel", "OI", "Roofline perf (GFLOPS)"]);
        for (name, oi) in kernel_oi_marks() {
            marks.row([name.to_string(), fnum(oi), fnum(r.attainable_dram(oi))]);
        }
        writeln!(out, "{}", marks.render())?;
    }
    writeln!(out, "(vertical bars mark the kernel OIs; every kernel sits left of the ridge point, i.e. memory bound)")?;
    Ok(())
}

// ---------------------------------------------------------------- figures 4-7

fn kernel_table(
    out: &mut dyn Write,
    title: &str,
    rows: &[(String, Vec<KernelResult>)],
) -> CliResult<()> {
    section(out, title)?;
    let mut t = TextTable::new([
        "Tensor",
        "Fmt",
        "Tew",
        "Ts",
        "Ttv",
        "Ttm",
        "Mttkrp",
        "Tew eff",
        "Ts eff",
        "Ttv eff",
        "Ttm eff",
        "Mttkrp eff",
    ]);
    for (id, results) in rows {
        for fmt in ["COO", "HiCOO"] {
            let pick = |k: Kernel| -> Option<&KernelResult> {
                results.iter().find(|r| r.kernel == k && r.format == fmt)
            };
            let cells: Vec<String> = std::iter::once(id.clone())
                .chain(std::iter::once(fmt.to_string()))
                .chain(
                    Kernel::ALL
                        .iter()
                        .map(|&k| pick(k).map_or("-".into(), |r| fnum(r.gflops))),
                )
                .chain(Kernel::ALL.iter().map(|&k| {
                    pick(k).map_or("-".into(), |r| format!("{:.0}%", 100.0 * r.efficiency()))
                }))
                .collect();
            t.row(cells);
        }
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "GFLOPS per kernel (Table 1 work / time); eff = achieved / per-tensor Roofline bound."
    )?;
    Ok(())
}

impl Paper<'_> {
    fn cpu_figure(&self, out: &mut dyn Write, half_threads: bool) -> CliResult<()> {
        let full = std::thread::available_parallelism().map_or(4, |n| n.get());
        let threads = if half_threads {
            (full / 2).max(1)
        } else {
            full
        };
        let label = if half_threads {
            format!("Figure 5: host CPU at {threads} threads (Wingtip substitute)")
        } else {
            format!("Figure 4: host CPU at {threads} threads (Bluesky substitute)")
        };
        let rows = with_threads(threads, || {
            let report = ert::run(&ErtConfig::quick());
            let machine = MachineModel {
                name: format!("host-{threads}t"),
                ert_dram_gbs: report.dram_gbs,
                peak_gflops: report.peak_gflops,
            };
            eprintln!(
                "[{}] ERT: {} GB/s DRAM, {} GFLOPS peak",
                machine.name,
                fnum(machine.ert_dram_gbs),
                fnum(machine.peak_gflops)
            );
            let mut rows = Vec::new();
            for (d, x) in self.datasets() {
                eprintln!("[{}] {} ({} nnz)...", machine.name, d.id, x.nnz());
                let res = run_cpu_suite(
                    x,
                    &machine,
                    DEFAULT_RANK,
                    DEFAULT_BLOCK_BITS,
                    self.opts.reps,
                );
                rows.push((format!("{} {}", d.id, d.name), res));
            }
            rows
        });
        self.append_csv(if half_threads { "fig5" } else { "fig4" }, &rows)?;
        kernel_table(out, &label, &rows)
    }

    fn gpu_figure(
        &self,
        out: &mut dyn Write,
        dev: DeviceSpec,
        figure: &str,
        title: &str,
    ) -> CliResult<()> {
        let mut rows = Vec::new();
        for (d, x) in self.datasets() {
            eprintln!("[{}] {} ({} nnz)...", dev.name, d.id, x.nnz());
            let res = run_gpu_suite(x, &dev, DEFAULT_RANK, DEFAULT_BLOCK_BITS);
            rows.push((format!("{} {}", d.id, d.name), res));
        }
        self.append_csv(figure, &rows)?;
        kernel_table(out, title, &rows)
    }

    // ------------------------------------------------------------ observations

    fn observations(&self, out: &mut dyn Write) -> CliResult<()> {
        section(out, "Observations 1-5 (recomputed on this run)")?;
        let full = std::thread::available_parallelism().map_or(4, |n| n.get());
        let report = ert::run(&ErtConfig::quick());
        let machine = MachineModel {
            name: format!("host-{full}t"),
            ert_dram_gbs: report.dram_gbs,
            peak_gflops: report.peak_gflops,
        };
        let mut cpu: Vec<(String, Vec<KernelResult>)> = Vec::new();
        let mut p100: Vec<(String, Vec<KernelResult>)> = Vec::new();
        let mut v100: Vec<(String, Vec<KernelResult>)> = Vec::new();
        let mut nnz: Vec<u64> = Vec::new();
        for (d, x) in self.datasets() {
            eprintln!("[obs] {} ({} nnz)...", d.id, x.nnz());
            let (id, reps) = (d.id.to_string(), self.opts.reps);
            let res = run_cpu_suite(x, &machine, DEFAULT_RANK, DEFAULT_BLOCK_BITS, reps);
            cpu.push((id.clone(), res));
            p100.push((
                id.clone(),
                run_gpu_suite(x, &DeviceSpec::p100(), DEFAULT_RANK, DEFAULT_BLOCK_BITS),
            ));
            v100.push((
                id,
                run_gpu_suite(x, &DeviceSpec::v100(), DEFAULT_RANK, DEFAULT_BLOCK_BITS),
            ));
            nnz.push(x.nnz() as u64);
        }

        // Observation 1: diversity of achieved performance.
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        let mut per_kernel: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for (_, res) in &cpu {
            for r in res {
                lo = lo.min(r.gflops);
                hi = hi.max(r.gflops);
                per_kernel
                    .entry((r.kernel.name(), r.format))
                    .or_default()
                    .push(r.gflops);
            }
        }
        writeln!(
            out,
            "Obs 1 (diversity): CPU GFLOPS range {} .. {} ({}x spread)",
            fnum(lo),
            fnum(hi),
            fnum(hi / lo.max(1e-12))
        )?;
        let mut t = TextTable::new(["Kernel", "COO avg GFLOPS", "HiCOO avg GFLOPS"]);
        for k in Kernel::ALL {
            let avg = |fmt: &str| -> String {
                per_kernel
                    .get(&(k.name(), fmt))
                    .map(|v| fnum(v.iter().sum::<f64>() / v.len() as f64))
                    .unwrap_or_else(|| "-".into())
            };
            t.row([k.name().to_string(), avg("COO"), avg("HiCOO")]);
        }
        writeln!(out, "{}", t.render())?;

        // Observation 2: cases above the Roofline bound are cache-resident.
        let mut above: Vec<(&str, &'static str, f64, u64)> = Vec::new();
        for ((id, res), &nnz) in cpu.iter().zip(&nnz) {
            for r in res {
                if r.efficiency() > 1.0 {
                    above.push((id, r.kernel.name(), r.efficiency(), nnz));
                }
            }
        }
        writeln!(
            out,
            "Obs 2 (roofline): {} CPU cases exceed the DRAM roofline; median nnz of those = {}",
            above.len(),
            fint(median_u64(above.iter().map(|a| a.3).collect()))
        )?;
        for (id, k, eff, nnz) in above.iter().take(8) {
            writeln!(
                out,
                "  {id} {k}: {:.0}% at {} nnz (fits cache)",
                eff * 100.0,
                fint(*nnz)
            )?;
        }

        // Observation 3: efficiency of non-streaming kernels.
        let eff_avg = |rows: &[(String, Vec<KernelResult>)], k: Kernel, fmt: &str| -> f64 {
            let v: Vec<f64> = rows
                .iter()
                .flat_map(|(_, rs)| rs.iter())
                .filter(|r| r.kernel == k && r.format == fmt)
                .map(|r| r.efficiency())
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mut t3 = TextTable::new(["Machine", "Ttv eff", "Ttm eff", "Mttkrp eff"]);
        for (name, rows) in [
            ("host CPU", &cpu),
            ("P100 (sim)", &p100),
            ("V100 (sim)", &v100),
        ] {
            t3.row([
                name.to_string(),
                format!("{:.0}%", 100.0 * eff_avg(rows, Kernel::Ttv, "COO")),
                format!("{:.0}%", 100.0 * eff_avg(rows, Kernel::Ttm, "COO")),
                format!("{:.0}%", 100.0 * eff_avg(rows, Kernel::Mttkrp, "COO")),
            ]);
        }
        writeln!(
            out,
            "Obs 3 (efficiency of non-streaming kernels, COO):\n{}",
            t3.render()
        )?;

        // Observation 4: HiCOO vs COO, with Mttkrp-on-GPU as the outlier.
        let ratio = |rows: &[(String, Vec<KernelResult>)], k: Kernel| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (_, rs) in rows {
                let coo = rs.iter().find(|r| r.kernel == k && r.format == "COO");
                let hic = rs.iter().find(|r| r.kernel == k && r.format == "HiCOO");
                if let (Some(c), Some(h)) = (coo, hic) {
                    num += h.gflops;
                    den += c.gflops;
                }
            }
            num / den.max(1e-12)
        };
        let mut t4 = TextTable::new([
            "Kernel",
            "CPU HiCOO/COO",
            "P100 HiCOO/COO",
            "V100 HiCOO/COO",
        ]);
        for k in Kernel::ALL {
            t4.row([
                k.name().to_string(),
                fnum(ratio(&cpu, k)),
                fnum(ratio(&p100, k)),
                fnum(ratio(&v100, k)),
            ]);
        }
        writeln!(
            out,
            "Obs 4 (HiCOO vs COO; Mttkrp on GPU is the outlier):\n{}",
            t4.render()
        )?;

        // Observation 5: real vs synthetic coverage.
        let spread = |pred: &dyn Fn(&str) -> bool| -> (f64, f64) {
            let v: Vec<f64> = cpu
                .iter()
                .filter(|(id, _)| pred(id))
                .flat_map(|(_, rs)| rs.iter().map(|r| r.gflops))
                .collect();
            if v.is_empty() {
                return (0.0, 0.0);
            }
            let lo = v.iter().cloned().fold(f64::MAX, f64::min);
            let hi = v.iter().cloned().fold(0.0, f64::max);
            (lo, hi)
        };
        let (rl, rh) = spread(&|id: &str| id.starts_with('r'));
        let (sl, sh) = spread(&|id: &str| id.starts_with('s'));
        writeln!(
            out,
            "Obs 5 (datasets): real surrogates span {}..{} GFLOPS; synthetic span {}..{} GFLOPS — both are needed for coverage.",
            fnum(rl),
            fnum(rh),
            fnum(sl),
            fnum(sh)
        )?;
        Ok(())
    }

    // ------------------------------------------------------------ extras

    /// Structural statistics of every selected dataset (not a paper
    /// artifact, but the quantities behind the per-tensor Roofline bounds).
    fn stats_table(&self, out: &mut dyn Write) -> CliResult<()> {
        section(out, "Dataset structural statistics (bench scale)")?;
        let mut t = TextTable::new([
            "No.",
            "Dims",
            "#Nnz",
            "Density",
            "Mean MF",
            "Max fiber",
            "HiCOO nb",
            "nnz/blk",
            "HiCOO/COO bytes",
        ]);
        for (d, x) in self.datasets() {
            let s = TensorStats::compute(x, DEFAULT_BLOCK_BITS)?;
            let dims: Vec<String> = s.dims.iter().map(|&v| short(v as u64)).collect();
            t.row([
                d.id.to_string(),
                dims.join("x"),
                fint(s.nnz as u64),
                format!("{:.1e}", s.density),
                fint(s.mean_fibers() as u64),
                fint(*s.max_fiber_len_per_mode.iter().max().unwrap_or(&0) as u64),
                fint(s.hicoo_blocks as u64),
                fnum(s.mean_nnz_per_block),
                format!("{:.2}", s.compression_ratio()),
            ]);
        }
        writeln!(out, "{}", t.render())?;
        Ok(())
    }

    /// Mode-reordering demonstration through the GPU simulator: the
    /// frequency permutation packs hot operand rows together and raises the
    /// L2 hit rate of the irregular Ttv gathers (paper §3.2.1's reordering
    /// remark).
    fn reorder_demo(&self, out: &mut dyn Write) -> CliResult<()> {
        use tenbench_core::reorder::{
            apply_mode_permutation, frequency_permutation, permute_vector, random_permutation,
        };
        section(out, "Reordering ablation (simulated P100, Ttv mode 0)")?;
        let mut t = TextTable::new([
            "Tensor",
            "Labeling",
            "L2 hit",
            "Modeled time (us)",
            "GFLOPS",
        ]);
        let dev = DeviceSpec::p100();
        for (d, x) in self.datasets() {
            let mode = 0usize;
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 97) as f32 * 0.01);
            // Zipf surrogates come out frequency-ordered already, so the
            // realistic test is: shuffle the labels (as real-world ids are),
            // then let the heuristic recover the packing.
            for which in ["natural", "shuffled", "shuffled+frequency"] {
                let dim = x.shape().dim(mode);
                let mut xr = x.clone();
                let mut vr = v.clone();
                if which != "natural" {
                    let shuffle = random_permutation(dim, 42);
                    apply_mode_permutation(&mut xr, mode, &shuffle)?;
                    vr = permute_vector(&vr, &shuffle)?;
                }
                if which == "shuffled+frequency" {
                    let freq = frequency_permutation(&xr, mode)?;
                    apply_mode_permutation(&mut xr, mode, &freq)?;
                    vr = permute_vector(&vr, &freq)?;
                }
                let (_, s) = tenbench_gpusim::kernels::ttv_coo_gpu(&dev, &xr, &vr, mode)?;
                t.row([
                    d.id.to_string(),
                    which.to_string(),
                    format!("{:.0}%", s.l2_hit_rate() * 100.0),
                    fnum(s.time_s * 1e6),
                    fnum(s.gflops()),
                ]);
            }
        }
        writeln!(out, "{}", t.render())?;
        Ok(())
    }
}

fn median_u64(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(artifact: &str, ids: Option<&str>) -> String {
        let opts = PaperOpts::new(ids, false, 1.0, 1, None).unwrap();
        let mut out = Vec::new();
        run(artifact, &opts, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// The data rows of the first table after the header's dashed rule.
    fn table_rows(text: &str) -> Vec<&str> {
        text.lines()
            .skip_while(|l| !l.starts_with("---"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn tables_have_the_papers_rows() {
        assert_eq!(table_rows(&paper("table1", None)).len(), 5);
        for (artifact, prefix) in [("table2", "r"), ("table3", "s")] {
            let text = paper(artifact, None);
            let rows = table_rows(&text);
            assert_eq!(rows.len(), 15, "{artifact}");
            assert!(rows.iter().all(|r| r.starts_with(prefix)), "{artifact}");
        }
        let t4 = paper("table4", None);
        let header = t4.lines().find(|l| l.starts_with("Parameter")).unwrap();
        for p in PLATFORMS {
            assert!(header.contains(p.name), "{header}");
        }
    }

    #[test]
    fn fig2_prints_the_worked_example() {
        let text = paper("fig2", None);
        assert!(text.contains("4 blocks"), "{text}");
        assert!(text.contains("144 bytes vs 128 bytes COO"), "{text}");
    }

    #[test]
    fn simulated_gpu_figure_is_deterministic() {
        let once = paper("fig6", Some("s4"));
        assert!(once.contains("Figure 6"), "{once}");
        assert_eq!(table_rows(&once).len(), 2, "{once}");
        assert_eq!(once, paper("fig6", Some("s4")));
    }
}
