//! The `tenbench` experiment harness: regenerates every table and figure of
//! *"A Parallel Sparse Tensor Benchmark Suite on CPUs and GPUs"*.
//!
//! ```text
//! harness <artifact> [options]
//!
//! artifacts:
//!   table1 table2 table3 table4     the paper's tables
//!   fig1 fig2                       format layout walkthroughs
//!   fig3                            roofline models (host ERT + Table 4)
//!   fig4 fig5                       CPU kernel GFLOPS (full / half threads)
//!   fig6 fig7                       GPU kernel GFLOPS (simulated P100 / V100)
//!   observations                    the paper's five observations, recomputed
//!   all                             everything above
//!
//! options:
//!   --datasets r1,s4,...   dataset filter (default: all 30)
//!   --quick                small representative dataset subset
//!   --scale F              multiply default nonzero counts by F
//!   --reps N               measurement repetitions (default 5)
//!   --csv PATH             also append figure data as long-format CSV
//! ```

use std::collections::BTreeMap;

use tenbench_bench::data::{dataset_tensor, quick_ids};
use tenbench_bench::format::{fint, fnum, AsciiPlot, TextTable};
use tenbench_bench::suite::{
    run_cpu_suite, run_gpu_suite, KernelResult, MachineModel, DEFAULT_BLOCK_BITS, DEFAULT_RANK,
    DEFAULT_REPS,
};
use tenbench_core::analysis::table1_rows;
use tenbench_core::coo::CooTensor;
use tenbench_core::hicoo::{GHicooTensor, HicooTensor};
use tenbench_core::kernels::ttm::ttm;
use tenbench_core::kernels::Kernel;
use tenbench_core::par::with_threads;
use tenbench_core::prelude::*;
use tenbench_gen::registry::{find, REAL_DATASETS, SYNTHETIC_DATASETS};
use tenbench_gen::{Dataset, TensorStats};
use tenbench_gpusim::device::DeviceSpec;
use tenbench_roofline::ert::{self, ErtConfig};
use tenbench_roofline::model::{kernel_oi_marks, Roofline};
use tenbench_roofline::platform::PLATFORMS;

#[derive(Debug, Clone)]
struct Options {
    artifact: String,
    datasets: Vec<&'static Dataset>,
    scale: f64,
    reps: usize,
    /// Optional CSV sink for the figure data (long format).
    csv: Option<std::path::PathBuf>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = String::from("all");
    let mut ids: Option<Vec<String>> = None;
    let mut scale = 1.0f64;
    let mut reps = DEFAULT_REPS;
    let mut csv: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--datasets" => {
                i += 1;
                ids = Some(
                    args.get(i)
                        .expect("--datasets needs a value")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--quick" => ids = Some(quick_ids().iter().map(|s| s.to_string()).collect()),
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .expect("--scale needs a value")
                    .parse()
                    .expect("bad --scale");
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .expect("--reps needs a value")
                    .parse()
                    .expect("bad --reps");
            }
            "--csv" => {
                i += 1;
                csv = Some(std::path::PathBuf::from(
                    args.get(i).expect("--csv needs a path"),
                ));
            }
            a if !a.starts_with("--") => artifact = a.to_string(),
            a => panic!("unknown option {a}"),
        }
        i += 1;
    }
    let datasets: Vec<&'static Dataset> = match ids {
        Some(list) => list
            .iter()
            .map(|id| find(id).unwrap_or_else(|| panic!("unknown dataset {id}")))
            .collect(),
        None => REAL_DATASETS.iter().chain(SYNTHETIC_DATASETS).collect(),
    };
    Options {
        artifact,
        datasets,
        scale,
        reps,
        csv,
    }
}

/// Append figure rows to the CSV sink in long format (one line per
/// tensor x kernel x format), creating the header on first write.
fn append_csv(opt: &Options, figure: &str, rows: &[(String, Vec<KernelResult>)]) {
    let Some(path) = &opt.csv else { return };
    use std::io::Write;
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open --csv path");
    if fresh {
        writeln!(
            f,
            "figure,tensor,kernel,format,gflops,time_s,oi,bound_gflops,efficiency"
        )
        .unwrap();
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
            )
            .unwrap();
        }
    }
}

fn main() {
    let opt = parse_args();
    match opt.artifact.as_str() {
        "table1" => table1(),
        "table2" => table_datasets("Table 2: real-world tensors (surrogates)", REAL_DATASETS),
        "table3" => table_datasets("Table 3: synthetic tensors", SYNTHETIC_DATASETS),
        "table4" => table4(),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => cpu_figure(&opt, false),
        "fig5" => cpu_figure(&opt, true),
        "fig6" => gpu_figure(
            &opt,
            DeviceSpec::p100(),
            "Figure 6: DGX-1P (simulated P100)",
        ),
        "fig7" => gpu_figure(
            &opt,
            DeviceSpec::v100(),
            "Figure 7: DGX-1V (simulated V100)",
        ),
        "stats" => stats_table(&opt),
        "reorder" => reorder_demo(&opt),
        "observations" => observations(&opt),
        "all" => {
            table1();
            table_datasets("Table 2: real-world tensors (surrogates)", REAL_DATASETS);
            table_datasets("Table 3: synthetic tensors", SYNTHETIC_DATASETS);
            table4();
            fig1();
            fig2();
            fig3();
            cpu_figure(&opt, false);
            cpu_figure(&opt, true);
            gpu_figure(
                &opt,
                DeviceSpec::p100(),
                "Figure 6: DGX-1P (simulated P100)",
            );
            gpu_figure(
                &opt,
                DeviceSpec::v100(),
                "Figure 7: DGX-1V (simulated V100)",
            );
            observations(&opt);
        }
        other => {
            eprintln!("unknown artifact {other:?}; see the module docs");
            std::process::exit(2);
        }
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

// ---------------------------------------------------------------- tables

fn table1() {
    section("Table 1: kernel analysis (third-order cubical tensors)");
    let mut t = TextTable::new(["Kernel", "Work (#Flops)", "COO bytes", "HiCOO bytes", "OI"]);
    for row in table1_rows() {
        t.row([row.kernel, row.work, row.coo_bytes, row.hicoo_bytes, row.oi]);
    }
    println!("{}", t.render());
    println!("Exact per-tensor OI values (with the MF term) feed the bounds in figures 4-7.");
}

fn table_datasets(title: &str, datasets: &[Dataset]) {
    section(title);
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
    println!("{}", t.render());
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

fn table4() {
    section("Table 4: platform parameters");
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
    println!("{}", t.render());
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

fn fig1() {
    section("Figure 1: COO and sCOO layouts (worked example)");
    let x = example_tensor();
    println!("COO for a {} tensor with {} nonzeros:", x.shape(), x.nnz());
    for m in 0..x.order() {
        println!("  inds{}: {:?}", m + 1, x.mode_inds(m));
    }
    println!("  vals : {:?}", x.vals());
    println!("  storage: {} bytes (4(N+1)M)", x.storage_bytes());

    let u = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32);
    let y = ttm(&x, &u, 2).unwrap();
    println!("\nsCOO after Ttm in mode 3 (mode k becomes dense, R = 2):");
    for m in 0..y.order() {
        if m != y.dense_mode() {
            println!("  inds{}: {:?}", m + 1, y.inds()[m]);
        }
    }
    for f in 0..y.num_fibers() {
        println!("  fiber {f}: {:?}", y.fiber_vals(f));
    }
    println!("  storage: {} bytes", y.storage_bytes());
}

fn fig2() {
    section("Figure 2: HiCOO, gHiCOO, and sHiCOO layouts (2x2x2 blocks)");
    let x = example_tensor();
    let h = HicooTensor::from_coo(&x, 1).unwrap();
    println!("HiCOO (block bits 1 => B = 2): {} blocks", h.num_blocks());
    println!("  bptr : {:?}", h.bptr());
    for m in 0..h.order() {
        println!("  binds{}: {:?}", m + 1, h.binds()[m]);
    }
    for m in 0..h.order() {
        println!("  einds{}: {:?}", m + 1, h.einds()[m]);
    }
    println!("  vals : {:?}", h.vals());
    println!(
        "  storage: {} bytes vs {} bytes COO",
        h.storage_bytes(),
        x.storage_bytes()
    );

    let g = GHicooTensor::from_coo_for_mode(&x, 1, 2).unwrap();
    println!("\ngHiCOO compressing modes i,j only (mode k stays COO):");
    println!(
        "  blocks: {}  storage: {} bytes",
        g.num_blocks(),
        g.storage_bytes()
    );
    println!("  mode-k full indices: {:?}", g.find(2));

    let u = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32);
    let sh = tenbench_core::kernels::ttm::ttm_hicoo(&h, &u, 2).unwrap();
    println!("\nsHiCOO after HiCOO-Ttm in mode 3 (dense mode k, R = 2):");
    println!(
        "  blocks: {}  fibers: {}  storage: {} bytes",
        sh.num_blocks(),
        sh.num_fibers(),
        sh.storage_bytes()
    );
}

// ---------------------------------------------------------------- figure 3

fn fig3() {
    section("Figure 3: Roofline models");
    println!("Host (measured with the built-in ERT):");
    let report = ert::run(&ErtConfig::default());
    println!(
        "  threads {}  peak {} GFLOPS  cache {} GB/s  DRAM {} GB/s",
        report.threads,
        fnum(report.peak_gflops),
        fnum(report.cache_gbs),
        fnum(report.dram_gbs)
    );
    let mut sweep = TextTable::new(["Working set", "GB/s"]);
    for p in &report.points {
        sweep.row([format!("{} KiB", p.bytes / 1024), fnum(p.gbs)]);
    }
    println!("{}", sweep.render());

    let host = Roofline::from_ert("host", &report);
    let mut models: Vec<Roofline> = vec![host];
    models.extend(PLATFORMS.iter().map(Roofline::from_platform));
    for r in &models {
        println!(
            "{} roofline (ERT-DRAM ceiling '*', upper ceiling '.'):",
            r.name
        );
        let mut plot = AsciiPlot::new(64, 14, (0.02, 64.0), (1.0, 20_000.0));
        plot.series(&r.series(r.ceilings.len() - 1, 0.02, 64.0, 64), '*');
        if r.ceilings.len() > 1 {
            plot.series(&r.series(0, 0.02, 64.0, 64), '.');
        }
        for (_, oi) in kernel_oi_marks() {
            plot.vmark(oi, '|');
        }
        println!("{}", plot.render());
        let mut marks = TextTable::new(["Kernel", "OI", "Roofline perf (GFLOPS)"]);
        for (name, oi) in kernel_oi_marks() {
            marks.row([name.to_string(), fnum(oi), fnum(r.attainable_dram(oi))]);
        }
        println!("{}", marks.render());
    }
    println!("(vertical bars mark the kernel OIs; every kernel sits left of the ridge point, i.e. memory bound)");
}

// ---------------------------------------------------------------- figures 4-7

fn kernel_table(title: &str, rows: &[(String, Vec<KernelResult>)]) {
    section(title);
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
    println!("{}", t.render());
    println!(
        "GFLOPS per kernel (Table 1 work / time); eff = achieved / per-tensor Roofline bound."
    );
}

fn cpu_figure(opt: &Options, half_threads: bool) {
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
        for d in &opt.datasets {
            let x = dataset_tensor(d, opt.scale);
            eprintln!("[{}] {} ({} nnz)...", machine.name, d.id, x.nnz());
            let res = run_cpu_suite(&x, &machine, DEFAULT_RANK, DEFAULT_BLOCK_BITS, opt.reps);
            rows.push((format!("{} {}", d.id, d.name), res));
        }
        rows
    });
    append_csv(opt, if half_threads { "fig5" } else { "fig4" }, &rows);
    kernel_table(&label, &rows);
}

fn gpu_figure(opt: &Options, dev: DeviceSpec, title: &str) {
    let mut rows = Vec::new();
    for d in &opt.datasets {
        let x = dataset_tensor(d, opt.scale);
        eprintln!("[{}] {} ({} nnz)...", dev.name, d.id, x.nnz());
        let res = run_gpu_suite(&x, &dev, DEFAULT_RANK, DEFAULT_BLOCK_BITS);
        rows.push((format!("{} {}", d.id, d.name), res));
    }
    append_csv(opt, if dev.name == "P100" { "fig6" } else { "fig7" }, &rows);
    kernel_table(title, &rows);
}

// ---------------------------------------------------------------- observations

fn observations(opt: &Options) {
    section("Observations 1-5 (recomputed on this run)");
    let full = std::thread::available_parallelism().map_or(4, |n| n.get());
    let report = ert::run(&ErtConfig::quick());
    let machine = MachineModel {
        name: format!("host-{full}t"),
        ert_dram_gbs: report.dram_gbs,
        peak_gflops: report.peak_gflops,
    };
    let mut cpu: Vec<(String, Vec<KernelResult>, TensorStats)> = Vec::new();
    let mut p100: Vec<(String, Vec<KernelResult>)> = Vec::new();
    let mut v100: Vec<(String, Vec<KernelResult>)> = Vec::new();
    for d in &opt.datasets {
        let x = dataset_tensor(d, opt.scale);
        eprintln!("[obs] {} ({} nnz)...", d.id, x.nnz());
        let stats = TensorStats::compute(&x, DEFAULT_BLOCK_BITS).expect("valid block bits");
        cpu.push((
            d.id.to_string(),
            run_cpu_suite(&x, &machine, DEFAULT_RANK, DEFAULT_BLOCK_BITS, opt.reps),
            stats,
        ));
        p100.push((
            d.id.to_string(),
            run_gpu_suite(&x, &DeviceSpec::p100(), DEFAULT_RANK, DEFAULT_BLOCK_BITS),
        ));
        v100.push((
            d.id.to_string(),
            run_gpu_suite(&x, &DeviceSpec::v100(), DEFAULT_RANK, DEFAULT_BLOCK_BITS),
        ));
    }

    // Observation 1: diversity of achieved performance.
    let mut lo = f64::MAX;
    let mut hi: f64 = 0.0;
    let mut per_kernel: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (_, res, _) in &cpu {
        for r in res {
            lo = lo.min(r.gflops);
            hi = hi.max(r.gflops);
            per_kernel
                .entry((r.kernel.name(), r.format))
                .or_default()
                .push(r.gflops);
        }
    }
    println!(
        "Obs 1 (diversity): CPU GFLOPS range {} .. {} ({}x spread)",
        fnum(lo),
        fnum(hi),
        fnum(hi / lo.max(1e-12))
    );
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
    println!("{}", t.render());

    // Observation 2: cases above the Roofline bound are cache-resident.
    let mut above: Vec<(String, &'static str, f64, u64)> = Vec::new();
    for (id, res, stats) in &cpu {
        for r in res {
            if r.efficiency() > 1.0 {
                above.push((
                    id.clone(),
                    r.kernel.name(),
                    r.efficiency(),
                    stats.nnz as u64,
                ));
            }
        }
    }
    println!(
        "Obs 2 (roofline): {} CPU cases exceed the DRAM roofline; median nnz of those = {}",
        above.len(),
        fint(median_u64(above.iter().map(|a| a.3).collect()))
    );
    for (id, k, eff, nnz) in above.iter().take(8) {
        println!(
            "  {id} {k}: {:.0}% at {} nnz (fits cache)",
            eff * 100.0,
            fint(*nnz)
        );
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
    let cpu_rows: Vec<(String, Vec<KernelResult>)> =
        cpu.iter().map(|(i, r, _)| (i.clone(), r.clone())).collect();
    let mut t3 = TextTable::new(["Machine", "Ttv eff", "Ttm eff", "Mttkrp eff"]);
    for (name, rows) in [
        ("host CPU", &cpu_rows),
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
    println!(
        "Obs 3 (efficiency of non-streaming kernels, COO):\n{}",
        t3.render()
    );

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
            fnum(ratio(&cpu_rows, k)),
            fnum(ratio(&p100, k)),
            fnum(ratio(&v100, k)),
        ]);
    }
    println!(
        "Obs 4 (HiCOO vs COO; Mttkrp on GPU is the outlier):\n{}",
        t4.render()
    );

    // Observation 5: real vs synthetic coverage.
    let spread = |pred: &dyn Fn(&str) -> bool| -> (f64, f64) {
        let v: Vec<f64> = cpu_rows
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
    println!(
        "Obs 5 (datasets): real surrogates span {}..{} GFLOPS; synthetic span {}..{} GFLOPS — both are needed for coverage.",
        fnum(rl),
        fnum(rh),
        fnum(sl),
        fnum(sh)
    );
}

// ---------------------------------------------------------------- extras

/// Structural statistics of every selected dataset (not a paper artifact,
/// but the quantities behind the per-tensor Roofline bounds).
fn stats_table(opt: &Options) {
    section("Dataset structural statistics (bench scale)");
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
    for d in &opt.datasets {
        let x = dataset_tensor(d, opt.scale);
        let s = TensorStats::compute(&x, DEFAULT_BLOCK_BITS).expect("valid block bits");
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
    println!("{}", t.render());
}

/// Mode-reordering demonstration through the GPU simulator: the frequency
/// permutation packs hot operand rows together and raises the L2 hit rate
/// of the irregular Ttv gathers (paper §3.2.1's reordering remark).
fn reorder_demo(opt: &Options) {
    use tenbench_core::reorder::{
        apply_mode_permutation, frequency_permutation, permute_vector, random_permutation,
    };
    section("Reordering ablation (simulated P100, Ttv mode 0)");
    let mut t = TextTable::new([
        "Tensor",
        "Labeling",
        "L2 hit",
        "Modeled time (us)",
        "GFLOPS",
    ]);
    let dev = DeviceSpec::p100();
    for d in &opt.datasets {
        let x = dataset_tensor(d, opt.scale);
        let mode = 0usize;
        let v = tenbench_core::dense::DenseVector::from_fn(x.shape().dim(mode) as usize, |i| {
            (i % 97) as f32 * 0.01
        });
        // Zipf surrogates come out frequency-ordered already, so the
        // realistic test is: shuffle the labels (as real-world ids are),
        // then let the heuristic recover the packing.
        for which in ["natural", "shuffled", "shuffled+frequency"] {
            let dim = x.shape().dim(mode);
            let mut xr = x.clone();
            let mut vr = v.clone();
            if which != "natural" {
                let shuffle = random_permutation(dim, 42);
                apply_mode_permutation(&mut xr, mode, &shuffle).unwrap();
                vr = permute_vector(&vr, &shuffle).unwrap();
            }
            if which == "shuffled+frequency" {
                let freq = frequency_permutation(&xr, mode).unwrap();
                apply_mode_permutation(&mut xr, mode, &freq).unwrap();
                vr = permute_vector(&vr, &freq).unwrap();
            }
            let (_, s) = tenbench_gpusim::kernels::ttv_coo_gpu(&dev, &xr, &vr, mode).unwrap();
            t.row([
                d.id.to_string(),
                which.to_string(),
                format!("{:.0}%", s.l2_hit_rate() * 100.0),
                fnum(s.time_s * 1e6),
                fnum(s.gflops()),
            ]);
        }
    }
    println!("{}", t.render());
}

fn median_u64(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}
