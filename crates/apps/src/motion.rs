//! Motion sentinel: accelerometer-based activity detection (extension app).
//!
//! Not a paper benchmark, but a workload the paper's intro motivates
//! (batteryless wearables/implants sensing motion) that composes EaseIO
//! features the paper benchmarks exercise separately:
//!
//! * a **loop of `call_IO`s** collecting a sample window — one lock slot per
//!   iteration, the paper's §6 loop extension, so a failure mid-window
//!   resumes after the last collected sample instead of re-reading the IMU
//!   sixteen times;
//! * an **I/O-dependent branch** (activity threshold) followed by a
//!   **`Single` alert transmission** — the exactly-once send whose violation
//!   is observable on the radio log.
//!
//! The app's invariant is end-to-end: the number of alert packets on the
//! air must equal the alert counter in FRAM. Blind re-execution breaks it
//! (duplicate alerts); EaseIO cannot.

use kernel::{
    App, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult, Transition,
    Verdict,
};
use mcu_emu::{Mcu, NvBuf, NvVar, Region};
use periph::Sensor;
use std::rc::Rc;
use std::sync::Arc;

/// Configuration of the motion sentinel.
#[derive(Debug, Clone)]
pub struct MotionCfg {
    /// Samples per analysis window.
    pub window: u32,
    /// Number of windows processed.
    pub windows: u32,
    /// Mean-absolute-deviation threshold (milli-g) above which a window
    /// counts as activity.
    pub threshold_mg: i32,
}

impl Default for MotionCfg {
    fn default() -> Self {
        Self {
            window: 16,
            windows: 6,
            threshold_mg: 60,
        }
    }
}

/// Builds the motion app; returns it plus the alert-counter handle.
pub fn build(mcu: &mut Mcu, cfg: &MotionCfg) -> (App, NvVar<u32>) {
    let samples: NvBuf<i32> = NvBuf::alloc(&mut mcu.mem, Region::Fram, cfg.window * cfg.windows);
    let alerts: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let window_idx: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);

    let cfg2 = cfg.clone();
    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(200)?;
        ctx.write(alerts, 0u32)?;
        ctx.write(window_idx, 0u32)?;
        Ok(Transition::To(TaskId(1)))
    };

    let collect = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let w = ctx.read(window_idx)?;
        // A loop of Single senses: one lock per iteration (§6). A power
        // failure mid-window restores the already-collected samples.
        for i in 0..cfg2.window {
            let v = ctx.call_io(IoOp::Sense(Sensor::Accel), ReexecSemantics::Single)?;
            ctx.buf_write(samples, w * cfg2.window + i, v)?;
            ctx.compute(150)?; // inter-sample pacing
        }
        Ok(Transition::To(TaskId(2)))
    };

    let cfg3 = cfg.clone();
    let analyze = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let w = ctx.read(window_idx)?;
        let base = w * cfg3.window;
        let mut sum: i64 = 0;
        for i in 0..cfg3.window {
            sum += ctx.buf_read(samples, base + i)? as i64;
        }
        let mean = (sum / cfg3.window as i64) as i32;
        let mut dev: i64 = 0;
        for i in 0..cfg3.window {
            dev += (ctx.buf_read(samples, base + i)? - mean).abs() as i64;
        }
        let mad = (dev / cfg3.window as i64) as i32;
        ctx.compute(900)?;
        if mad > cfg3.threshold_mg {
            let n = ctx.read(alerts)?;
            ctx.write(alerts, n + 1)?;
            // Exactly-once alert: window id + magnitude on the air.
            ctx.call_io(
                IoOp::Send {
                    payload: Arc::from([w as i32, mad]),
                },
                ReexecSemantics::Single,
            )?;
        }
        ctx.compute(400)?;
        Ok(Transition::To(TaskId(3)))
    };

    let cfg4 = cfg.clone();
    let advance = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let w = ctx.read(window_idx)?;
        ctx.write(window_idx, w + 1)?;
        if w + 1 < cfg4.windows {
            Ok(Transition::To(TaskId(1)))
        } else {
            Ok(Transition::Done)
        }
    };

    let windows = cfg.windows;
    let window = cfg.window;
    let verify = move |mcu: &Mcu, p: &periph::Peripherals| -> Verdict {
        if window_idx.get(&mcu.mem) != windows {
            return Verdict::Incorrect("window counter mismatch".into());
        }
        // Every sample must be a plausible magnitude.
        for i in 0..windows * window {
            let v = samples.get(&mcu.mem, i);
            if !(500..=1500).contains(&v) {
                return Verdict::Incorrect(format!("sample {i} = {v} mg implausible"));
            }
        }
        // Exactly-once alerts: packets on the air == counter in FRAM.
        let n = alerts.get(&mcu.mem) as usize;
        if p.radio.count() != n {
            return Verdict::Incorrect(format!(
                "{} packets transmitted but {n} alerts counted",
                p.radio.count()
            ));
        }
        Verdict::Correct
    };

    let app = App {
        name: "motion",
        tasks: vec![
            TaskDef {
                name: "init",
                body: Rc::new(init),
            },
            TaskDef {
                name: "collect",
                body: Rc::new(collect),
            },
            TaskDef {
                name: "analyze",
                body: Rc::new(analyze),
            },
            TaskDef {
                name: "advance",
                body: Rc::new(advance),
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 4,
            io_funcs: 2,
            io_sites: 17, // 16 loop samples + the alert
            timely_sites: 0,
            dma_sites: 0,
            io_blocks: 0,
            nv_vars: 3,
        },
        verify: Some(Rc::new(verify)),
    };
    (app, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{KernelBuilder, KernelKind};
    use kernel::{run_app, Outcome};
    use mcu_emu::{Supply, TimerResetConfig};

    fn run(kind: KernelKind, seed: u64) -> (kernel::RunResult, u32, usize) {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let (app, alerts) = build(&mut mcu, &MotionCfg::default());
        let (mut rt, mut p, cfg) = KernelBuilder::new(kind).boot(seed);
        let r = run_app(&app, rt.as_mut(), &mut mcu, &mut p, &cfg);
        let n = alerts.get(&mcu.mem);
        (r, n, p.radio.count())
    }

    #[test]
    fn detects_activity_on_continuous_power() {
        let mut mcu = Mcu::new(Supply::continuous());
        let (app, alerts) = build(&mut mcu, &MotionCfg::default());
        let (mut rt, mut p, cfg) = KernelBuilder::new(KernelKind::Alpaca).boot(3);
        let r = run_app(&app, rt.as_mut(), &mut mcu, &mut p, &cfg);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        // The app starts inside a burst window (bursts occupy t ∈ [0, 0.5 s)),
        // so at least the first window must alert.
        assert!(alerts.get(&mcu.mem) >= 1, "no activity detected");
    }

    #[test]
    fn easeio_keeps_the_exactly_once_alert_invariant() {
        for seed in 0..40u64 {
            let (r, alerts, packets) = run(KernelKind::EaseIo, seed);
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(r.verdict, Some(Verdict::Correct), "seed {seed}");
            assert_eq!(alerts as usize, packets, "seed {seed}");
        }
    }

    #[test]
    fn naive_runtime_breaks_the_alert_invariant_somewhere() {
        let mut violated = 0;
        for seed in 150..230u64 {
            let (r, alerts, packets) = run(KernelKind::Naive, seed);
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            if packets != alerts as usize {
                violated += 1;
            }
        }
        // The violation shows as an inflated counter (failure between the
        // increment and the send) or a duplicate packet (failure after the
        // send): either way FRAM and the airwaves disagree.
        assert!(
            violated > 0,
            "blind re-execution never broke the invariant in 80 seeds"
        );
    }

    #[test]
    fn loop_samples_resume_after_failures_under_easeio() {
        let mut skipped_total = 0;
        for seed in 0..20u64 {
            let (r, _, _) = run(KernelKind::EaseIo, seed);
            skipped_total += r.stats.io_skipped;
        }
        assert!(
            skipped_total > 0,
            "mid-window failures must restore collected samples"
        );
    }
}
