//! Retry × power-failure interleaving for `Single` operations (paper §3.2).
//!
//! The transient-fault retry loop adds a second failure axis to the crash
//! space: a radio NACK means the packet *is* in the air while the call site
//! reports failure, and a power outage can now land between any retry
//! attempt, its backoff spend, and the completion bookkeeping. Under EaseIO
//! the pre-charged completion record absorbs the NACK and re-execution after
//! the reboot skips the completed send, so the external effect count of a
//! `Single` site can never exceed one — no matter where the outage lands in
//! the retry loop and no matter which attempts the fault schedule hits.
//!
//! Proptest chooses the fault schedule (seed and rate) and the compute
//! padding around the send; for each case the app is first run to
//! completion on continuous power to count its energy-spend boundaries
//! (backoff spends included), then re-run once per boundary with
//! [`Supply::injected`] firing exactly there, checking the invariant on the
//! final machine each time — `lock_last.rs` style, lifted from a single
//! table operation to a whole kernel run.

use std::rc::Rc;
use std::sync::Arc;

use easeio_core::runtime::EaseIoRuntime;
use kernel::{
    run_app, App, ExecConfig, FaultSpec, Inventory, IoOp, Outcome, ReexecSemantics, TaskDef,
    TaskId, Transition,
};
use mcu_emu::{Mcu, Supply};
use periph::Peripherals;
use proptest::prelude::*;

const OFF_US: u64 = 20_000;

/// A one-shot reporter: some compute, one `Single` send, more compute.
/// The compute padding moves the send around inside the boundary space so
/// different cases interrupt different phases of the retry loop.
fn reporter(pre_us: u64, post_us: u64) -> App {
    let body = move |ctx: &mut kernel::TaskCtx<'_>| {
        ctx.compute(pre_us)?;
        ctx.call_io(
            IoOp::Send {
                payload: Arc::from([0x5E17]),
            },
            ReexecSemantics::Single,
        )?;
        ctx.compute(post_us)?;
        Ok(Transition::Done)
    };
    App {
        name: "retry-interleave",
        tasks: vec![TaskDef {
            name: "report",
            body: Rc::new(body),
        }],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 1,
            io_funcs: 1,
            io_sites: 1,
            ..Inventory::default()
        },
        verify: None,
    }
}

/// Runs the reporter once. Returns (outcome, packets on air, boundaries
/// spent).
fn run_once(supply: Supply, fault: &FaultSpec, pre_us: u64, post_us: u64) -> (Outcome, u64, u64) {
    let mut mcu = Mcu::new(supply);
    let mut periph = Peripherals::new(7);
    fault.apply(&mut periph);
    let app = reporter(pre_us, post_us);
    let mut rt = EaseIoRuntime::default();
    let cfg = ExecConfig {
        retry: fault.retry,
        ..ExecConfig::default()
    };
    let r = run_app(&app, &mut rt, &mut mcu, &mut periph, &cfg);
    (r.outcome, periph.radio.count() as u64, mcu.stats.boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every boundary of every chosen fault schedule: the packet count of a
    /// `Single` send never exceeds one, and a completed run sent exactly
    /// once.
    #[test]
    fn single_send_effect_count_never_exceeds_one(
        plan_seed in 0u64..1_000_000,
        rate in 0u32..=400,
        pre in 0u64..400,
        post in 0u64..400,
    ) {
        let fault = FaultSpec::with_rate(plan_seed, rate);
        // Continuous-power reference: counts the boundary space and pins the
        // fault-free-of-power-failures behaviour.
        let (outcome, sent, boundaries) =
            run_once(Supply::continuous(), &fault, pre, post);
        match outcome {
            Outcome::Completed => prop_assert_eq!(sent, 1),
            // Retry exhaustion on a pre-effect fault (packet drop) aborts
            // with nothing on the air; a NACK is absorbed and never
            // exhausts.
            _ => prop_assert_eq!(sent, 0),
        }
        // One injected run per boundary of the reference run.
        for b in 0..boundaries {
            let (outcome, sent, _) =
                run_once(Supply::injected(b, OFF_US), &fault, pre, post);
            prop_assert!(
                sent <= 1,
                "boundary {b}: Single send duplicated ({sent} packets on air)"
            );
            if outcome == Outcome::Completed {
                prop_assert_eq!(sent, 1, "boundary {b}: completed without the packet");
            }
        }
    }
}
