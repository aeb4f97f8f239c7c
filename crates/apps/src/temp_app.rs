//! Uni-task `Timely` benchmark: temperature sensing (paper §5.3, Fig 7b).
//!
//! The application senses temperature and must finish processing within a
//! freshness window of the sample. After a power failure, Alpaca/InK always
//! re-sense; EaseIO re-senses only if the outage pushed the sample past its
//! `Timely` window, restoring the previous reading otherwise.

use kernel::{
    App, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult, Transition,
    Verdict,
};
use mcu_emu::{Mcu, NvVar, Region};
use periph::Sensor;
use std::rc::Rc;

/// Configuration of the temperature benchmark.
#[derive(Debug, Clone)]
pub struct TempAppCfg {
    /// Freshness window of a sample, in milliseconds (the paper's example
    /// uses 10 ms).
    pub window_ms: u64,
    /// CPU cycles of processing between sense and store.
    pub process_compute: u64,
    /// Number of sense→process→store rounds.
    pub rounds: u32,
}

impl Default for TempAppCfg {
    fn default() -> Self {
        Self {
            window_ms: 10,
            process_compute: 1800,
            rounds: 4,
        }
    }
}

/// Builds the temperature application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &TempAppCfg) -> App {
    let temp: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let smoothed: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let round: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);

    let cfg2 = cfg.clone();
    // The paper's task bundles the sample with its processing: the time
    // between the sense and the task commit is exactly the window in which
    // a power failure forces the baselines to re-sense.
    let sense_process = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let t = ctx.call_io(
            IoOp::Sense(Sensor::Temp),
            ReexecSemantics::timely_ms(cfg2.window_ms),
        )?;
        ctx.write(temp, t)?;
        ctx.compute(cfg2.process_compute)?;
        // Exponential smoothing in integer arithmetic.
        let s = ctx.read(smoothed)?;
        ctx.write(smoothed, (3 * s + t) / 4)?;
        Ok(Transition::To(TaskId(1)))
    };
    let cfg4 = cfg.clone();
    let store = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(400)?;
        let r = ctx.read(round)?;
        ctx.write(round, r + 1)?;
        if r + 1 < cfg4.rounds {
            Ok(Transition::To(TaskId(0)))
        } else {
            Ok(Transition::To(TaskId(2)))
        }
    };
    let report = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(300)?;
        Ok(Transition::Done)
    };

    let rounds = cfg.rounds;
    let verify = move |mcu: &Mcu, _p: &periph::Peripherals| -> Verdict {
        if round.get(&mcu.mem) != rounds {
            return Verdict::Incorrect("round counter mismatch".into());
        }
        // Sanity: the stored temperature must be a physically plausible
        // reading (the environment never leaves this band).
        let t = temp.get(&mcu.mem);
        if !(100..=2500).contains(&t) {
            return Verdict::Incorrect(format!("implausible temperature {t}"));
        }
        Verdict::Correct
    };

    App {
        name: "temp",
        tasks: vec![
            TaskDef {
                name: "sense_process",
                body: Rc::new(sense_process),
            },
            TaskDef {
                name: "store",
                body: Rc::new(store),
            },
            TaskDef {
                name: "report",
                body: Rc::new(report),
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 3,
            io_funcs: 1,
            io_sites: 1,
            timely_sites: 1,
            dma_sites: 0,
            io_blocks: 0,
            nv_vars: 3,
        },
        verify: Some(Rc::new(verify)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_core::EaseIoRuntime;
    use kernel::{ink::InkRuntime, run_app, ExecConfig, Outcome};
    use mcu_emu::{Counter, Supply, TimerResetConfig};
    use periph::Peripherals;

    #[test]
    fn completes_on_continuous_power() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(3);
        let app = build(&mut mcu, &TempAppCfg::default());
        let mut rt = InkRuntime::new();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        // One sense per round on continuous power.
        assert_eq!(r.stats.io_executed, 4);
    }

    #[test]
    fn easeio_restores_fresh_samples_across_short_outages() {
        // Short outages (well within the 10 ms window): the sense must not
        // repeat even though the task re-executes.
        let cfg = TimerResetConfig {
            on_min_us: 1_200,
            on_max_us: 2_200,
            off_min_us: 100,
            off_max_us: 500,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 23));
        let mut p = Peripherals::new(3);
        let app = build(&mut mcu, &TempAppCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        // Most re-entries find the sample still fresh and restore it; only
        // long chains of failed attempts can push a sample past its window.
        assert!(
            r.stats.io_skipped > r.stats.io_reexecutions,
            "restores ({}) must dominate re-senses ({})",
            r.stats.io_skipped,
            r.stats.io_reexecutions
        );
    }

    #[test]
    fn expired_samples_under_short_periods_livelock() {
        // Paper §2.1.1: "redundant re-executions might even lead to a
        // non-termination bug". With outages far beyond the Timely window,
        // every re-entry must re-sense — and if the on-period is shorter
        // than sense+process, the task can never commit.
        let cfg = TimerResetConfig {
            on_min_us: 1_200,
            on_max_us: 2_200,
            off_min_us: 40_000,
            off_max_us: 60_000,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 29));
        let mut p = Peripherals::new(3);
        let app = build(&mut mcu, &TempAppCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(
            &app,
            &mut rt,
            &mut mcu,
            &mut p,
            &ExecConfig {
                max_attempts_per_task: 300,
                ..ExecConfig::default()
            },
        );
        assert_eq!(r.outcome, Outcome::NonTermination);
    }

    #[test]
    fn easeio_resenses_after_long_outages() {
        // Outages far beyond the window: the sample expires and EaseIO must
        // sense again (no staleness).
        let cfg = TimerResetConfig {
            on_min_us: 3_500,
            on_max_us: 6_000,
            off_min_us: 40_000,
            off_max_us: 60_000,
        };
        let mut mcu = Mcu::new(Supply::timer(cfg, 29));
        let mut p = Peripherals::new(3);
        let app = build(&mut mcu, &TempAppCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        if r.stats.power_failures > 0 && r.stats.counter(Counter::EaseioTimelyExpired) > 0 {
            assert!(r.stats.io_executed > 1);
        }
    }
}
