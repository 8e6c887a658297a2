//! The supervised execution backend for the serving layer.
//!
//! `tenbench-serve` deliberately does not depend on this crate (the
//! dependency points the other way), so it executes through the
//! [`tenbench_serve::Executor`] trait. This module plugs the supervisor —
//! watchdog timeouts, panic isolation, strategy fallback, and checksum
//! validation — in behind that trait: every batch the service executes
//! gets the same protections as a harness sweep cell.

use std::sync::Arc;

use tenbench_core::kernels::Kernel;
use tenbench_serve::{execute_direct, BatchJob, ExecOutcome, Executor, FormatKind};

use crate::supervisor::{supervise, supervised_mttkrp, RunStatus, SupervisorConfig, Trial};

/// Runs serve batches through the supervisor. Mttkrp batches go through
/// [`supervised_mttkrp`] (strategy fallback plus checksum validation
/// against the sequential reference); the other kernels run their direct
/// dispatch under the watchdog with a finite-digest validation.
pub struct SupervisedExecutor {
    /// Supervision knobs applied to every batch.
    pub(crate) cfg: SupervisorConfig,
}

impl SupervisedExecutor {
    /// An executor with the given supervisor configuration.
    pub(crate) fn new(cfg: SupervisorConfig) -> Self {
        SupervisedExecutor { cfg }
    }
}

impl Default for SupervisedExecutor {
    fn default() -> Self {
        SupervisedExecutor::new(SupervisorConfig::default())
    }
}

impl Executor for SupervisedExecutor {
    fn execute(&self, job: &BatchJob) -> Result<ExecOutcome, String> {
        let cell = format!(
            "serve/{}/{}/mode{}",
            job.kernel.name(),
            job.format.as_str(),
            job.mode
        );
        match job.kernel {
            Kernel::Mttkrp => {
                let hicoo = match job.format {
                    FormatKind::Hicoo => Some(&job.hicoo),
                    FormatKind::Coo => None,
                };
                let (report, out) = supervised_mttkrp(
                    &cell,
                    &job.coo,
                    &job.factors,
                    job.mode,
                    hicoo,
                    "scheduled",
                    &self.cfg,
                );
                match out {
                    Some(_) => Ok(ExecOutcome {
                        digest: report.checksum.unwrap_or(0.0),
                        strategy: report.strategy.unwrap_or_else(|| "scheduled".to_string()),
                    }),
                    None => Err(status_message(&report.status)),
                }
            }
            _ => {
                let inner = Arc::new(job.clone());
                let trials = [Trial::new(job.kernel.name(), move || {
                    execute_direct(&inner)
                })];
                let (report, out) = supervise(
                    &cell,
                    &trials,
                    |o: &ExecOutcome| {
                        if o.digest.is_finite() {
                            Ok(Some(o.digest))
                        } else {
                            Err(format!("non-finite digest {}", o.digest))
                        }
                    },
                    &self.cfg,
                );
                match out {
                    Some(o) => Ok(o),
                    None => Err(status_message(&report.status)),
                }
            }
        }
    }
}

fn status_message(status: &RunStatus) -> String {
    format!("supervisor: {status}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::coo::CooTensor;
    use tenbench_core::shape::Shape;
    use tenbench_serve::{KernelService, Request, ServeConfig};

    #[test]
    fn supervised_executor_serves_all_kernels() {
        let svc = KernelService::start(
            ServeConfig {
                workers: 2,
                block_bits: 4,
                ..ServeConfig::default()
            },
            Box::new(SupervisedExecutor::default()),
        );
        let x = Arc::new(
            CooTensor::from_entries(
                Shape::new(vec![16, 16, 16]),
                (0..256u32)
                    .map(|i| {
                        (
                            vec![(i * 7) % 16, (i * 13) % 16, (i * 5) % 16],
                            (i % 31) as f32 * 0.25 + 0.5,
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        );
        let mut tickets = Vec::new();
        for kernel in Kernel::ALL {
            for format in [FormatKind::Coo, FormatKind::Hicoo] {
                tickets.push(
                    svc.submit(Request {
                        kernel,
                        format,
                        mode: 1,
                        rank: 4,
                        tensor: x.clone(),
                        deadline: None,
                    })
                    .expect("admitted"),
                );
            }
        }
        for t in tickets {
            let r = t.wait().expect("supervised request served");
            assert!(r.digest.is_finite());
            assert!(!r.strategy.is_empty());
        }
        let report = svc.shutdown();
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, 10);
    }
}
