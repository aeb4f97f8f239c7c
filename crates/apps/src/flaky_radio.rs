//! Flaky-radio telemetry relay: the peripheral-fault stressor (extension
//! app).
//!
//! Not a paper benchmark, but the workload the fault-injection subsystem is
//! built to exercise: a tight sense→frame→transmit loop where the *radio*
//! is the unreliable part, not the power supply. Each round reads the
//! temperature under a `Timely` freshness window, frames a packet, and
//! transmits it with `Single` semantics, counting the send in FRAM inside
//! the same task.
//!
//! The invariant is end-to-end and observable on the air: packets
//! transmitted == sends counted in FRAM == rounds. Two distinct failure
//! modes attack it:
//!
//! * a **lost acknowledgement** (`RadioNack`): the packet *is* on the air
//!   but the MCU cannot know it. A blind retry duplicates the external
//!   effect; EaseIO absorbs the NACK against its completion record and
//!   moves on.
//! * a **dropped packet** (`RadioPacketDrop`): nothing reached the air, so
//!   retrying is exactly what the `Single` contract wants.
//!
//! Distinguishing the two is the whole game — a runtime that treats every
//! radio error the same either duplicates telemetry or silently loses it.

use kernel::{
    App, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult, Transition,
    Verdict,
};
use mcu_emu::{Mcu, NvVar, Region};
use periph::Sensor;
use std::rc::Rc;
use std::sync::Arc;

/// Configuration of the flaky-radio relay.
#[derive(Debug, Clone)]
pub struct FlakyRadioCfg {
    /// Sense→transmit rounds per run.
    pub rounds: u32,
    /// Freshness window for the temperature reading (ms).
    pub temp_window_ms: u64,
}

impl Default for FlakyRadioCfg {
    fn default() -> Self {
        Self {
            rounds: 8,
            temp_window_ms: 10,
        }
    }
}

/// Builds the flaky-radio app; returns it plus the send-counter handle.
pub fn build(mcu: &mut Mcu, cfg: &FlakyRadioCfg) -> (App, NvVar<u32>) {
    let reading: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let sent: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let round: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);

    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(150)?;
        ctx.write(sent, 0u32)?;
        ctx.write(round, 0u32)?;
        Ok(Transition::To(TaskId(1)))
    };

    let window = cfg.temp_window_ms;
    let sense = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let t = ctx.call_io(
            IoOp::Sense(Sensor::Temp),
            ReexecSemantics::timely_ms(window),
        )?;
        ctx.write(reading, t)?;
        // Range-check and convert the raw reading.
        ctx.compute(600)?;
        Ok(Transition::To(TaskId(2)))
    };

    let send = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let r = ctx.read(round)?;
        let t = ctx.read(reading)?;
        // Frame and checksum, transmit exactly once, then account for the
        // send — all one task, so a failure after the transmit re-enters
        // the task with the packet already on the air.
        ctx.compute(300)?;
        ctx.call_io(
            IoOp::Send {
                payload: Arc::from([r as i32, t]),
            },
            ReexecSemantics::Single,
        )?;
        let n = ctx.read(sent)?;
        ctx.write(sent, n + 1)?;
        Ok(Transition::To(TaskId(3)))
    };

    let rounds = cfg.rounds;
    let advance = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let r = ctx.read(round)?;
        ctx.write(round, r + 1)?;
        ctx.compute(100)?;
        if r + 1 < rounds {
            Ok(Transition::To(TaskId(1)))
        } else {
            Ok(Transition::Done)
        }
    };

    let verify = move |mcu: &Mcu, p: &periph::Peripherals| -> Verdict {
        if round.get(&mcu.mem) != rounds {
            return Verdict::Incorrect("round counter mismatch".into());
        }
        let n = sent.get(&mcu.mem);
        if n != rounds {
            return Verdict::Incorrect(format!("{n} sends counted for {rounds} rounds"));
        }
        // Exactly-once telemetry: one packet on the air per counted send,
        // in round order.
        if p.radio.count() != n as usize {
            return Verdict::Incorrect(format!(
                "{} packets transmitted but {n} sends counted",
                p.radio.count()
            ));
        }
        for (i, pkt) in p.radio.packets().iter().enumerate() {
            if pkt.payload.len() != 2 || pkt.payload[0] != i as i32 {
                return Verdict::Incorrect(format!("packet {i} out of order or malformed"));
            }
        }
        Verdict::Correct
    };

    let app = App {
        name: "flaky-radio",
        tasks: vec![
            TaskDef {
                name: "init",
                body: Rc::new(init),
            },
            TaskDef {
                name: "sense",
                body: Rc::new(sense),
            },
            TaskDef {
                name: "send",
                body: Rc::new(send),
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
            io_sites: 2,
            timely_sites: 1,
            dma_sites: 0,
            io_blocks: 0,
            nv_vars: 3,
        },
        verify: Some(Rc::new(verify)),
    };
    (app, sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{KernelKind, MakeRuntime};
    use kernel::{run_app, ExecConfig, FaultSpec, Outcome};
    use mcu_emu::{Supply, TimerResetConfig};
    use periph::Peripherals;

    fn run_with_faults(
        kind: KernelKind,
        supply: Supply,
        env_seed: u64,
        fault: &FaultSpec,
    ) -> (kernel::RunResult, u32, usize) {
        let mut mcu = Mcu::new(supply);
        let mut p = Peripherals::new(env_seed);
        fault.apply(&mut p);
        let (app, sent) = build(&mut mcu, &FlakyRadioCfg::default());
        let mut rt = kind.make();
        let cfg = ExecConfig {
            retry: fault.retry,
            ..ExecConfig::default()
        };
        let r = run_app(&app, rt.as_mut(), &mut mcu, &mut p, &cfg);
        let n = sent.get(&mcu.mem);
        (r, n, p.radio.count())
    }

    #[test]
    fn all_runtimes_correct_without_faults() {
        for kind in KernelKind::ALL {
            let (r, sent, packets) =
                run_with_faults(kind, Supply::continuous(), 3, &FaultSpec::none());
            assert_eq!(r.outcome, Outcome::Completed, "{}", kind.name());
            assert_eq!(r.verdict, Some(Verdict::Correct), "{}", kind.name());
            assert_eq!(sent as usize, packets, "{}", kind.name());
        }
    }

    #[test]
    fn easeio_exactly_once_under_power_failures() {
        for seed in 0..30u64 {
            let (r, sent, packets) = run_with_faults(
                KernelKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), seed),
                seed,
                &FaultSpec::none(),
            );
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(r.verdict, Some(Verdict::Correct), "seed {seed}");
            assert_eq!(sent as usize, packets, "seed {seed}");
        }
    }

    #[test]
    fn easeio_exactly_once_under_radio_faults() {
        // Moderate fault rate: NACKs and drops both fire, retries absorb
        // them, and the on-air log still matches the FRAM counter.
        for seed in 0..20u64 {
            let fault = FaultSpec::with_rate(seed.wrapping_mul(3) + 1, 120);
            let (r, sent, packets) =
                run_with_faults(KernelKind::EaseIo, Supply::continuous(), seed, &fault);
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(r.verdict, Some(Verdict::Correct), "seed {seed}");
            assert_eq!(sent as usize, packets, "seed {seed}");
        }
    }

    #[test]
    fn blind_retry_duplicates_packets_under_nacks() {
        // A lost acknowledgement means the packet is on the air; a runtime
        // that retries without a completion record transmits it again.
        let mut violated = 0;
        for seed in 0..30u64 {
            let fault = FaultSpec::with_rate(seed.wrapping_mul(7) + 2, 200);
            let (r, sent, packets) =
                run_with_faults(KernelKind::Naive, Supply::continuous(), seed, &fault);
            if r.outcome == Outcome::Completed && packets != sent as usize {
                violated += 1;
            }
        }
        assert!(
            violated > 0,
            "blind retries never duplicated a packet in 30 seeds"
        );
    }
}
