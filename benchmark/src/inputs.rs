//! Seeded inputs. The crates only ever see what is generated here: tensor
//! `i` of a run uses seed `S + i`, so one seed fixes every input.

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseVector;
use tenbench_gen::registry;

/// Factor rank of every Ttm and Mttkrp.
pub const RANK: usize = 16;
/// HiCOO block bits of every conversion.
pub const BLOCK_BITS: u8 = 7;

/// Run-wide settings shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: small inputs, one set-up; values are not comparable.
    pub quick: bool,
}

impl RunConfig {
    /// How often set-up is repeated; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// `full` (a nonzero count, a byte budget), or a tenth of it in smoke
    /// mode.
    pub fn scale(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}

/// Generate registry dataset `id` at `nnz` nonzeros.
pub fn generate(id: &str, nnz: usize, seed: u64) -> CooTensor<f32> {
    registry::find(id)
        .expect("dataset id is in the registry")
        .generate_with(nnz, seed)
}

/// The dense vector Ttv contracts with (the service's executor uses the
/// same one).
pub fn vector(x: &CooTensor<f32>, mode: usize) -> DenseVector<f32> {
    DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i % 100) as f32 * 0.01)
}

/// Serialize a tensor to `TNB2` bytes.
pub fn tnb2(x: &CooTensor<f32>) -> Vec<u8> {
    let mut buf = Vec::new();
    tenbench_io::bin::write_bin(x, &mut buf).expect("writing to a Vec cannot fail");
    buf
}
