//! CP-ALS — CANDECOMP/PARAFAC decomposition by alternating least squares,
//! the method whose bottleneck is Mttkrp (paper §2.5).

use crate::coo::CooTensor;
use crate::csf::{mttkrp_csf, CsfTensor};
use crate::dense::DenseMatrix;
use crate::error::Result;
use crate::hicoo::HicooTensor;
use crate::kernels::mttkrp::{mttkrp_hicoo, mttkrp_with, MttkrpStrategy};
use crate::scalar::Scalar;

use super::XorShift64;

/// Which Mttkrp implementation drives the ALS sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpAlsBackend {
    /// COO Mttkrp with [`CpAlsOptions::strategy`] (the suite's reference).
    #[default]
    Coo,
    /// HiCOO Mttkrp; one mode-generic representation serves all modes
    /// ("only one tensor representation is needed for all tensor
    /// computations, even in different modes", §3).
    Hicoo {
        /// log2 of the HiCOO block edge.
        block_bits: u8,
    },
    /// CSF Mttkrp; one tree per mode (CSF is mode-specific), SPLATT-style.
    Csf,
}

/// Options for [`cp_als`].
#[derive(Debug, Clone)]
pub struct CpAlsOptions {
    /// Decomposition rank `R` (the paper's experiments use 16).
    pub rank: usize,
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between sweeps.
    pub tol: f64,
    /// Seed for the factor initialization.
    pub seed: u64,
    /// Mttkrp strategy to use inside the sweeps (COO backend).
    pub strategy: MttkrpStrategy,
    /// Format backend for the Mttkrp sweeps.
    pub backend: CpAlsBackend,
}

impl Default for CpAlsOptions {
    fn default() -> Self {
        CpAlsOptions {
            rank: 16,
            max_iters: 50,
            tol: 1e-5,
            seed: 0x5EED,
            strategy: MttkrpStrategy::Atomic,
            backend: CpAlsBackend::Coo,
        }
    }
}

/// Pre-built per-format tensor representations shared by all sweeps.
enum Backend<S: Scalar> {
    Coo(MttkrpStrategy),
    Hicoo(HicooTensor<S>),
    Csf(Vec<CsfTensor<S>>),
}

impl<S: Scalar> Backend<S> {
    fn build(x: &CooTensor<S>, b: CpAlsBackend, strategy: MttkrpStrategy) -> Result<Self> {
        Ok(match b {
            CpAlsBackend::Coo => Backend::Coo(strategy),
            CpAlsBackend::Hicoo { block_bits } => {
                Backend::Hicoo(HicooTensor::from_coo(x, block_bits)?)
            }
            CpAlsBackend::Csf => {
                let order = x.order();
                let trees = (0..order)
                    .map(|mode| {
                        let mut mo: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
                        mo.insert(0, mode);
                        CsfTensor::from_coo(x, Some(mo))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Backend::Csf(trees)
            }
        })
    }

    fn mttkrp(
        &self,
        x: &CooTensor<S>,
        factors: &[&DenseMatrix<S>],
        mode: usize,
    ) -> Result<DenseMatrix<S>> {
        match self {
            Backend::Coo(s) => mttkrp_with(x, factors, mode, *s),
            Backend::Hicoo(h) => mttkrp_hicoo(h, factors, mode),
            Backend::Csf(trees) => mttkrp_csf(&trees[mode], factors, mode),
        }
    }
}

/// The result of a CP decomposition: `X ≈ Σ_r λ_r a_r ∘ b_r ∘ c_r ∘ …`.
#[derive(Debug, Clone)]
pub struct CpDecomposition<S: Scalar> {
    /// One column-normalized factor matrix per mode (`I_n x R`).
    pub factors: Vec<DenseMatrix<S>>,
    /// Component weights.
    pub lambda: Vec<S>,
    /// Final fit in `[0 (worst), 1 (exact)]`: `1 - ‖X - model‖ / ‖X‖`.
    pub fit: f64,
    /// Number of ALS sweeps performed.
    pub iterations: usize,
}

impl<S: Scalar> CpDecomposition<S> {
    /// Evaluate the model at one coordinate.
    pub fn predict(&self, coord: &[u32]) -> S {
        let r = self.lambda.len();
        let mut acc = S::ZERO;
        for k in 0..r {
            let mut term = self.lambda[k];
            for (m, f) in self.factors.iter().enumerate() {
                term *= f[(coord[m] as usize, k)];
            }
            acc += term;
        }
        acc
    }
}

/// Run CP-ALS on a sparse tensor.
///
/// # Examples
/// ```
/// use tenbench_core::prelude::*;
/// use tenbench_core::methods::{cp_als, CpAlsOptions};
///
/// // A rank-1 tensor: X[i,j] = (i+1) * (j+1).
/// let entries = (0..3u32).flat_map(|i| (0..4u32).map(move |j| {
///     (vec![i, j], ((i + 1) * (j + 1)) as f64)
/// })).collect();
/// let x = CooTensor::<f64>::from_entries(Shape::new(vec![3, 4]), entries)?;
/// let d = cp_als(&x, &CpAlsOptions { rank: 1, max_iters: 30, ..Default::default() })?;
/// assert!(d.fit > 0.999);
/// # Ok::<(), TensorError>(())
/// ```
///
/// Each sweep solves, for every mode `n`,
/// `A_n <- Mttkrp(X, n) * (Hadamard of other grams)^-1`,
/// then normalizes `A_n`'s columns into `lambda`. The fit is computed from
/// `‖X‖^2 + ‖model‖^2 - 2 <X, model>` where the inner product reuses the
/// last Mttkrp result.
pub fn cp_als<S: Scalar>(x: &CooTensor<S>, opts: &CpAlsOptions) -> Result<CpDecomposition<S>> {
    let backend = Backend::build(x, opts.backend, opts.strategy)?;
    let mut state = cp_als_init(x, opts);
    while state.iteration < opts.max_iters {
        if step_on(x, &backend, opts, &mut state)? {
            break;
        }
    }
    Ok(CpDecomposition {
        factors: state.factors,
        lambda: state.lambda,
        fit: state.fit,
        iterations: state.iteration,
    })
}

/// Resumable CP-ALS state: everything one sweep carries to the next that is
/// not derivable from the tensor and the options.
///
/// Grams and `‖X‖²` are *not* stored: they are pure functions of the factors
/// and the tensor, recomputed at the start of every [`cp_als_step`], so a
/// state rebuilt from a checkpoint continues bitwise-identically to an
/// uninterrupted run.
#[derive(Debug, Clone)]
pub struct CpAlsState<S: Scalar> {
    /// One factor matrix per mode (`I_n x R`); column-normalized once at
    /// least one sweep has completed.
    pub factors: Vec<DenseMatrix<S>>,
    /// Component weights.
    pub lambda: Vec<S>,
    /// Fit after the last completed sweep (`0.0` before the first).
    pub fit: f64,
    /// Number of completed ALS sweeps.
    pub iteration: usize,
}

/// Seed the factor matrices for a fresh CP-ALS run (iteration 0).
///
/// Deterministic in `opts.seed`: the same seed always produces bitwise-equal
/// initial factors.
pub fn cp_als_init<S: Scalar>(x: &CooTensor<S>, opts: &CpAlsOptions) -> CpAlsState<S> {
    let mut rng = XorShift64::new(opts.seed);
    let factors: Vec<DenseMatrix<S>> = (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, opts.rank, |_, _| {
                S::from_f64(rng.next_f64())
            })
        })
        .collect();
    CpAlsState {
        factors,
        lambda: vec![S::ONE; opts.rank],
        fit: 0.0,
        iteration: 0,
    }
}

/// Run exactly one ALS sweep, advancing `state` in place.
///
/// Returns `Ok(true)` when the run has converged (fit delta below
/// `opts.tol`, never on the first sweep — matching [`cp_als`]'s loop).
/// Rebuilds the format backend on every call; long-running callers that
/// step a `Coo` backend (the job subsystem) pay nothing for this, while
/// [`cp_als`] itself reuses a prebuilt backend across sweeps.
pub fn cp_als_step<S: Scalar>(
    x: &CooTensor<S>,
    opts: &CpAlsOptions,
    state: &mut CpAlsState<S>,
) -> Result<bool> {
    let backend = Backend::build(x, opts.backend, opts.strategy)?;
    step_on(x, &backend, opts, state)
}

fn step_on<S: Scalar>(
    x: &CooTensor<S>,
    backend: &Backend<S>,
    opts: &CpAlsOptions,
    state: &mut CpAlsState<S>,
) -> Result<bool> {
    let order = x.order();
    let r = opts.rank;
    // Derived quantities: bitwise-reproducible from (x, factors) alone, so
    // checkpoints never need to carry them.
    let mut grams: Vec<DenseMatrix<S>> = state.factors.iter().map(|f| f.gram()).collect();
    let norm_x_sq: f64 = x.vals().iter().map(|&v| v.to_f64() * v.to_f64()).sum();

    let mut last_m: Option<DenseMatrix<S>> = None;
    for n in 0..order {
        let frefs: Vec<&DenseMatrix<S>> = state.factors.iter().collect();
        let mkr = backend.mttkrp(x, &frefs, n)?;
        // V = Hadamard product of the other modes' grams.
        let mut v = DenseMatrix::constant(r, r, S::ONE);
        for (m, g) in grams.iter().enumerate() {
            if m != n {
                v = v.hadamard(g);
            }
        }
        let mut a_n = v.solve_spd_rhs(&mkr);
        let norms = a_n.normalize_columns();
        for (l, nz) in state.lambda.iter_mut().zip(&norms) {
            *l = if *nz == S::ZERO { S::ZERO } else { *nz };
        }
        grams[n] = a_n.gram();
        state.factors[n] = a_n;
        if n == order - 1 {
            last_m = Some(mkr);
        }
    }

    // Fit via the last mode's Mttkrp:
    // <X, model> = sum_{i,k} M[i,k] * A_last[i,k] * lambda[k].
    let last_m = last_m.expect("order >= 1");
    let a_last = &state.factors[order - 1];
    let mut inner = 0.0f64;
    for i in 0..a_last.rows() {
        let mr = last_m.row(i);
        let ar = a_last.row(i);
        for k in 0..r {
            inner += mr[k].to_f64() * ar[k].to_f64() * state.lambda[k].to_f64();
        }
    }
    // ||model||^2 = sum_{k,l} lambda_k lambda_l prod_n gram_n[k,l].
    let mut model_sq = 0.0f64;
    for a in 0..r {
        for b in 0..r {
            let mut prod = state.lambda[a].to_f64() * state.lambda[b].to_f64();
            for g in &grams {
                prod *= g[(a, b)].to_f64();
            }
            model_sq += prod;
        }
    }
    let resid_sq = (norm_x_sq + model_sq - 2.0 * inner).max(0.0);
    let new_fit = if norm_x_sq > 0.0 {
        1.0 - (resid_sq / norm_x_sq).sqrt()
    } else {
        1.0
    };
    let delta = (new_fit - state.fit).abs();
    state.fit = new_fit;
    state.iteration += 1;
    Ok(state.iteration > 1 && delta < opts.tol)
}

#[cfg(test)]
mod tests {
    use crate::shape::Shape;

    use super::*;

    /// Build an exactly rank-1 tensor: x_ijk = a_i b_j c_k over a dense-ish
    /// pattern.
    fn rank_one_tensor() -> CooTensor<f64> {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, 1.5, 2.5, 3.5];
        let c = [2.0, 4.0];
        let mut entries = Vec::new();
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                for (k, &ck) in c.iter().enumerate() {
                    entries.push((vec![i as u32, j as u32, k as u32], ai * bj * ck));
                }
            }
        }
        CooTensor::from_entries(Shape::new(vec![3, 4, 2]), entries).unwrap()
    }

    #[test]
    fn recovers_rank_one_tensor() {
        let x = rank_one_tensor();
        let opts = CpAlsOptions {
            rank: 1,
            max_iters: 60,
            tol: 1e-10,
            ..Default::default()
        };
        let d = cp_als(&x, &opts).unwrap();
        assert!(d.fit > 0.999, "fit = {}", d.fit);
        // Predicted values match.
        for (c, v) in x.iter_entries() {
            let p = d.predict(&c);
            assert!((p - v).abs() < 1e-5 * v.abs().max(1.0), "{p} vs {v}");
        }
    }

    #[test]
    fn higher_rank_does_not_hurt_fit() {
        let x = rank_one_tensor();
        let d1 = cp_als(
            &x,
            &CpAlsOptions {
                rank: 1,
                max_iters: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let d3 = cp_als(
            &x,
            &CpAlsOptions {
                rank: 3,
                max_iters: 40,
                ..Default::default()
            },
        )
        .unwrap();
        // Extra (redundant) components make the solves ill-conditioned, so
        // allow a small fit regression; both should be essentially exact.
        assert!(d3.fit >= d1.fit - 1e-4, "d1 {} d3 {}", d1.fit, d3.fit);
        assert!(d3.fit > 0.999);
    }

    #[test]
    fn factors_are_column_normalized() {
        let x = rank_one_tensor();
        let d = cp_als(
            &x,
            &CpAlsOptions {
                rank: 2,
                max_iters: 10,
                ..Default::default()
            },
        )
        .unwrap();
        for f in &d.factors {
            for k in 0..2 {
                let norm: f64 = (0..f.rows()).map(|i| f[(i, k)] * f[(i, k)]).sum();
                assert!((norm - 1.0).abs() < 1e-6 || norm < 1e-12);
            }
        }
    }

    #[test]
    fn all_backends_reach_the_same_fit() {
        let x = rank_one_tensor();
        let mk = |backend| CpAlsOptions {
            rank: 1,
            max_iters: 25,
            backend,
            ..Default::default()
        };
        let coo = cp_als(&x, &mk(CpAlsBackend::Coo)).unwrap();
        let hic = cp_als(&x, &mk(CpAlsBackend::Hicoo { block_bits: 3 })).unwrap();
        let csf = cp_als(&x, &mk(CpAlsBackend::Csf)).unwrap();
        assert!(coo.fit > 0.999);
        assert!(
            (coo.fit - hic.fit).abs() < 1e-6,
            "{} vs {}",
            coo.fit,
            hic.fit
        );
        assert!(
            (coo.fit - csf.fit).abs() < 1e-6,
            "{} vs {}",
            coo.fit,
            csf.fit
        );
    }

    #[test]
    fn stepwise_run_matches_wrapper_bitwise() {
        let x = rank_one_tensor();
        let opts = CpAlsOptions {
            rank: 2,
            max_iters: 8,
            tol: 0.0,
            ..Default::default()
        };
        let d = cp_als(&x, &opts).unwrap();
        let mut st = cp_als_init(&x, &opts);
        while st.iteration < opts.max_iters {
            if cp_als_step(&x, &opts, &mut st).unwrap() {
                break;
            }
        }
        assert_eq!(st.iteration, d.iterations);
        assert_eq!(st.fit.to_bits(), d.fit.to_bits());
        for (a, b) in st.factors.iter().zip(&d.factors) {
            let ab: Vec<u64> = a.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
        for (a, b) in st.lambda.iter().zip(&d.lambda) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cloned_state_resumes_bitwise_identically() {
        let x = rank_one_tensor();
        let opts = CpAlsOptions {
            rank: 2,
            max_iters: 6,
            tol: 0.0,
            ..Default::default()
        };
        let mut a = cp_als_init(&x, &opts);
        for _ in 0..3 {
            cp_als_step(&x, &opts, &mut a).unwrap();
        }
        // "Checkpoint" by cloning mid-run, then continue both runs.
        let mut b = a.clone();
        for _ in 0..3 {
            cp_als_step(&x, &opts, &mut a).unwrap();
            cp_als_step(&x, &opts, &mut b).unwrap();
        }
        assert_eq!(a.fit.to_bits(), b.fit.to_bits());
        for (fa, fb) in a.factors.iter().zip(&b.factors) {
            let ab: Vec<u64> = fa.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = fb.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn strategy_choice_gives_same_fit() {
        let x = rank_one_tensor();
        let mk = |strategy| CpAlsOptions {
            rank: 2,
            max_iters: 15,
            strategy,
            ..Default::default()
        };
        let a = cp_als(&x, &mk(MttkrpStrategy::Seq)).unwrap();
        let b = cp_als(&x, &mk(MttkrpStrategy::Privatized)).unwrap();
        assert!((a.fit - b.fit).abs() < 1e-6);
    }
}
