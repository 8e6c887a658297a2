//! A tour of every sparse format in the suite on one tensor, including
//! storage comparisons and `.tns` / binary round-trips.
//!
//! ```text
//! cargo run --release --example format_tour
//! ```

use tenbench::core::hicoo::{GHicooTensor, HicooTensor};
use tenbench::gen::registry::find;
use tenbench::gen::TensorStats;
use tenbench::io::{bin, tns};

fn main() {
    let dataset = find("s13").expect("registry has s13");
    let x = dataset.generate_with(30_000, 9);
    println!(
        "'{}' {} tensor, {} nonzeros, density {:.2e}\n",
        dataset.name,
        x.shape(),
        x.nnz(),
        x.density()
    );

    let stats = TensorStats::compute(&x, 7).expect("valid block bits");
    println!("fibers per mode:    {:?}", stats.fibers_per_mode);
    println!("longest fiber/mode: {:?}", stats.max_fiber_len_per_mode);
    println!(
        "HiCOO blocks: {} (mean {:.2} nnz/block, max {})\n",
        stats.hicoo_blocks, stats.mean_nnz_per_block, stats.max_nnz_per_block
    );

    println!("storage comparison:");
    println!("  COO    : {:>9} bytes", x.storage_bytes());
    let h = HicooTensor::from_coo(&x, 7).expect("hicoo");
    println!(
        "  HiCOO  : {:>9} bytes ({:.2}x COO)",
        h.storage_bytes(),
        h.storage_bytes() as f64 / x.storage_bytes() as f64
    );
    let g = GHicooTensor::from_coo_for_mode(&x, 7, x.order() - 1).expect("ghicoo");
    println!(
        "  gHiCOO : {:>9} bytes (product mode uncompressed)",
        g.storage_bytes()
    );

    // Round-trips through both I/O formats.
    let mut text = Vec::new();
    tns::write_tns(&x, &mut text).expect("write .tns");
    let back: tenbench::core::coo::CooTensor<f32> =
        tns::read_tns_with_shape(text.as_slice(), x.shape().clone()).expect("read .tns");
    assert_eq!(back.to_map(), x.to_map());
    println!("\n.tns round-trip ok ({} bytes of text)", text.len());

    let mut blob = Vec::new();
    bin::write_bin(&x, &mut blob).expect("write binary");
    let back2: tenbench::core::coo::CooTensor<f32> =
        bin::read_bin(blob.as_slice()).expect("read binary");
    assert_eq!(back2.to_map(), x.to_map());
    println!(
        "binary round-trip ok ({} bytes, {:.1}x smaller than text)",
        blob.len(),
        text.len() as f64 / blob.len() as f64
    );

    // Every format agrees on the data.
    assert_eq!(h.to_map(), x.to_map());
    assert_eq!(g.to_map(), x.to_map());
    println!("\nall formats agree on {} entries", x.nnz());
}
