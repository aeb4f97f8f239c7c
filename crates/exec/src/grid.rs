//! The experiment grid: kernel × supply-point matrices (Fig. 12/13).
//!
//! A [`GridSpec`] names one app, a set of kernels, and two supply axes —
//! RF-transmitter distances and timer mean on-periods. Its cells are
//! enumerated in canonical order (kernel-major, then distances, then
//! on-times) and fanned across the worker pool; because each cell is
//! seeded independently of every other, the merged table is identical at
//! any `--jobs` width.

use apps::harness::{run_once_faulted, KernelKind};
use kernel::{App, FaultSpec, Outcome, Verdict};
use mcu_emu::Mcu;

use crate::config::SupplySpec;
use crate::pool::{run_indexed, PoolStats};
use crate::supply::rf_supply_phased;

/// Phase step between RF repetitions: one deterministic fading model,
/// independent-looking trajectories per run (the paper's Fig. 13 is a grid
/// over this engine).
const RF_PHASE_STEP_US: u64 = 3_171;

/// What to grid over.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Kernels to compare (columns).
    pub kernels: Vec<KernelKind>,
    /// RF distances in inches (rows on the harvesting axis).
    pub distances_inch: Vec<u64>,
    /// Timer mean on-periods in milliseconds (rows on the failure-intensity
    /// axis).
    pub on_times_ms: Vec<u64>,
    /// Repetitions per cell (phase-perturbed for RF, seed-advanced for
    /// timer).
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
    /// Peripheral fault configuration applied to every cell's runs.
    pub fault: FaultSpec,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            kernels: KernelKind::PAPER_SET.to_vec(),
            distances_inch: vec![52, 55, 58, 61, 64],
            on_times_ms: vec![],
            runs: 4,
            seed: 77,
            fault: FaultSpec::none(),
        }
    }
}

/// One grid cell's aggregate result.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Kernel display name.
    pub kernel: &'static str,
    /// Supply-point label ("rf:58" or "timer:15ms").
    pub supply: String,
    /// Runs that completed.
    pub completed: u64,
    /// Completed runs whose verdict was correct (or that carry no verdict).
    pub correct: u64,
    /// Mean wall time over completed runs (µs, includes recharge).
    pub mean_wall_us: u64,
    /// Mean on-time over completed runs (µs).
    pub mean_on_us: u64,
    /// Mean power failures per completed run.
    pub mean_failures: u64,
}

/// The cell list in canonical order: kernel-major, distances before
/// on-times. Exposed so callers (and the determinism test) can label rows
/// without re-deriving the order.
pub fn grid_points(spec: &GridSpec) -> Vec<(KernelKind, SupplySpec)> {
    let mut points = Vec::new();
    for &kind in &spec.kernels {
        for &d in &spec.distances_inch {
            points.push((kind, SupplySpec::Rf(d)));
        }
        for &on_ms in &spec.on_times_ms {
            points.push((kind, SupplySpec::TimerOnMs(on_ms)));
        }
    }
    points
}

/// Runs the grid across `jobs` workers. `builder` receives the kernel kind
/// so apps can pair `Exclude` variants with EaseIO/Op. Returns cells in
/// [`grid_points`] order plus the pool's utilization record.
pub fn run_grid(
    builder: &(dyn Fn(KernelKind, &mut Mcu) -> App + Sync),
    spec: &GridSpec,
    jobs: usize,
) -> (Vec<GridCell>, PoolStats) {
    let points = grid_points(spec);
    let (cells, stats) = run_indexed(
        jobs,
        &points,
        || (),
        |_, _, &(kind, supply)| {
            let build = |m: &mut Mcu| builder(kind, m);
            let mut completed = 0u64;
            let mut correct = 0u64;
            let mut wall = 0u64;
            let mut on = 0u64;
            let mut failures = 0u64;
            for k in 0..spec.runs {
                let (run_supply, seed) = match supply {
                    SupplySpec::Rf(d) => (rf_supply_phased(d, k * RF_PHASE_STEP_US), spec.seed),
                    other => (other.make(spec.seed + k), spec.seed + k),
                };
                let r = run_once_faulted(&build, kind, run_supply, seed, &spec.fault);
                if r.outcome == Outcome::Completed {
                    completed += 1;
                    wall += r.wall_us;
                    on += r.on_us;
                    failures += r.stats.power_failures;
                    if matches!(r.verdict, Some(Verdict::Correct) | None) {
                        correct += 1;
                    }
                }
            }
            let n = completed.max(1);
            GridCell {
                kernel: kind.name(),
                supply: supply.label(),
                completed,
                correct,
                mean_wall_us: wall / n,
                mean_on_us: on / n,
                mean_failures: failures / n,
            }
        },
    );
    (cells, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::dma_app;

    fn builder(_: KernelKind, m: &mut Mcu) -> App {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 256,
                chunks: 3,
                iterations: 1,
                pre_compute: 200,
                post_compute: 200,
            },
        )
    }

    fn small_spec() -> GridSpec {
        GridSpec {
            kernels: vec![KernelKind::Alpaca, KernelKind::EaseIo],
            distances_inch: vec![52, 61],
            on_times_ms: vec![12],
            runs: 2,
            seed: 77,
            fault: FaultSpec::none(),
        }
    }

    #[test]
    fn grid_is_identical_at_any_job_width() {
        let spec = small_spec();
        let (serial, _) = run_grid(&builder, &spec, 1);
        let (parallel, _) = run_grid(&builder, &spec, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.supply, b.supply);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.correct, b.correct);
            assert_eq!(a.mean_wall_us, b.mean_wall_us);
            assert_eq!(a.mean_failures, b.mean_failures);
        }
    }

    #[test]
    fn grid_points_enumerate_kernel_major() {
        let points = grid_points(&small_spec());
        assert_eq!(points.len(), 2 * 3);
        assert_eq!(points[0], (KernelKind::Alpaca, SupplySpec::Rf(52)));
        assert_eq!(points[2], (KernelKind::Alpaca, SupplySpec::TimerOnMs(12)));
        assert_eq!(points[3], (KernelKind::EaseIo, SupplySpec::Rf(52)));
    }
}
