//! Over-the-air update stressor: stage a new task-graph image, flip it
//! live, keep working (extension app).
//!
//! Not a paper benchmark, but the workload the crash-safe update subsystem
//! is built to exercise. The device boots on a factory image (sequence 1),
//! receives a new image, applies it, and then runs its ordinary work loop
//! on whatever version survived. The invariant is Surbatovich-style
//! old-or-new atomicity: after **any** power failure, recovery must find
//! the active image coherent — header hash matching payload — and the
//! completed run must be on the target version with the activation noted
//! exactly once.
//!
//! Two protocols, selected by [`OtaUpdateCfg::two_phase`] (the CLI derives
//! it from the kernel via `KernelKind::two_phase_update`):
//!
//! * **two-phase** — [`kernel::UpdateStore`]'s stage→seal→flip: the shadow
//!   slot absorbs every partial write and one commit-word store activates
//!   the image atomically; re-execution of the activation task is a
//!   guarded no-op.
//! * **in-place** — the naive baseline rewrites the live image header
//!   first. A failure mid-payload strands a torn image, which the recovery
//!   check at the next task entry reports via `probe_version_torn`; and
//!   because nothing remembers the notification, re-execution after the
//!   completed write re-notifies the activation (`probe_update_duplicate_
//!   activation`).
//!
//! The app brackets its stage→flip→activate window with the
//! `update_window_enter`/`update_window_exit` marker counters, which the
//! crash sweep's update-aware mode reads off the reference boundary trace
//! to inject failures at exactly the boundaries inside the window.

use kernel::update::{UPDATE_WINDOW_ENTER, UPDATE_WINDOW_EXIT};
use kernel::{
    App, Inventory, TaskCtx, TaskDef, TaskId, TaskResult, Transition, UpdateStore, Verdict,
};
use mcu_emu::{Mcu, NvVar, Region};
use std::rc::Rc;

/// Configuration of the OTA-update app.
#[derive(Debug, Clone)]
pub struct OtaUpdateCfg {
    /// Words in the task-graph image (also each slot's capacity).
    pub payload_words: u32,
    /// Downlink chunk granularity the staging task writes at.
    pub chunk_words: u32,
    /// Sequence number of the update being applied (factory image is 1).
    /// A target of 1 means no new image reached the device — the fleet
    /// rollout's straggler/stale variant — and the app skips the update
    /// window entirely, running the work loop on the factory image.
    pub target_seq: u32,
    /// Work-loop iterations after the update window closes.
    pub work_rounds: u32,
    /// Apply the update through the two-phase shadow-slot protocol rather
    /// than the unsafe in-place rewrite.
    pub two_phase: bool,
}

impl Default for OtaUpdateCfg {
    fn default() -> Self {
        Self {
            payload_words: 6,
            chunk_words: 2,
            target_seq: 2,
            work_rounds: 3,
            two_phase: true,
        }
    }
}

/// The deterministic image for `seq`: what the gateway would downlink.
/// Shared with the fleet rollout so device-side staging and gateway-side
/// payload accounting agree word-for-word.
pub fn image(seq: u32, words: u32) -> Vec<u32> {
    (0..words)
        .map(|i| seq.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(31).wrapping_add(7))
        .collect()
}

/// Builds the OTA-update app; returns it plus the work-counter handle.
pub fn build(mcu: &mut Mcu, cfg: &OtaUpdateCfg) -> (App, NvVar<u32>) {
    let store = UpdateStore::alloc(&mut mcu.mem, cfg.payload_words);
    store.install_initial(&mut mcu.mem, 1, &image(1, cfg.payload_words));
    let work: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);

    let boot = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        store.recover_check(ctx.mcu)?;
        ctx.compute(150)?;
        ctx.write(work, 0u32)?;
        Ok(Transition::To(TaskId(1)))
    };

    let (payload_words, chunk_words) = (cfg.payload_words, cfg.chunk_words.max(1));
    let (target_seq, two_phase) = (cfg.target_seq, cfg.two_phase);
    let stage = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        if target_seq <= 1 {
            // Nothing to apply (no or incomplete downlink): straight to the
            // work loop, never opening the update window.
            store.recover_check(ctx.mcu)?;
            return Ok(Transition::To(TaskId(3)));
        }
        ctx.mcu.stats.bump(UPDATE_WINDOW_ENTER);
        store.recover_check(ctx.mcu)?;
        let img = image(target_seq, payload_words);
        if two_phase {
            store.begin_stage(ctx.mcu, payload_words)?;
            for (i, chunk) in img.chunks(chunk_words as usize).enumerate() {
                store.stage_chunk(ctx.mcu, i as u32 * chunk_words, chunk)?;
            }
            store.seal_stage(ctx.mcu, target_seq)?;
        } else {
            store.write_in_place(ctx.mcu, target_seq, &img)?;
        }
        Ok(Transition::To(TaskId(2)))
    };

    let activate = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        store.recover_check(ctx.mcu)?;
        if two_phase {
            if store.activate(ctx.mcu)? {
                store.note_activation(ctx.mcu, target_seq)?;
            }
        } else {
            store.note_activation(ctx.mcu, target_seq)?;
        }
        // Post-activation bookkeeping inside the same task: a failure here
        // re-enters the task with the notification already recorded, which
        // is exactly the re-notification hazard the duplicate probe pins.
        ctx.compute(200)?;
        ctx.mcu.stats.bump(UPDATE_WINDOW_EXIT);
        Ok(Transition::To(TaskId(3)))
    };

    let work_rounds = cfg.work_rounds;
    let run = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let w = ctx.read(work)?;
        if w >= work_rounds {
            return Ok(Transition::Done);
        }
        ctx.compute(400)?;
        ctx.write(work, w + 1)?;
        Ok(Transition::To(TaskId(3)))
    };

    let verify = move |mcu: &Mcu, _p: &periph::Peripherals| -> Verdict {
        let expect_seq = target_seq.max(1);
        let v = store.version_unchecked(&mcu.mem);
        if v.seq != expect_seq {
            return Verdict::Incorrect(format!(
                "device finished on version {} instead of {expect_seq}",
                v.seq
            ));
        }
        if !store.coherent_unchecked(&mcu.mem) {
            return Verdict::Incorrect("active image hash does not match its payload".into());
        }
        let w = work.get(&mcu.mem);
        if w != work_rounds {
            return Verdict::Incorrect(format!("{w} work rounds ran, expected {work_rounds}"));
        }
        Verdict::Correct
    };

    let nv_vars = 1 + store.nv_vars();
    let app = App {
        name: "ota-update",
        tasks: vec![
            TaskDef {
                name: "boot",
                body: Rc::new(boot),
            },
            TaskDef {
                name: "stage",
                body: Rc::new(stage),
            },
            TaskDef {
                name: "activate",
                body: Rc::new(activate),
            },
            TaskDef {
                name: "work",
                body: Rc::new(run),
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 4,
            io_funcs: 0,
            io_sites: 0,
            timely_sites: 0,
            dma_sites: 0,
            io_blocks: 0,
            nv_vars,
        },
        verify: Some(Rc::new(verify)),
    };
    (app, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{KernelKind, MakeRuntime};
    use kernel::update::{PROBE_DUPLICATE_ACTIVATION, PROBE_VERSION_TORN};
    use kernel::{run_app, ExecConfig, Outcome};
    use mcu_emu::Supply;
    use periph::Peripherals;

    fn cfg_for(kind: KernelKind) -> OtaUpdateCfg {
        OtaUpdateCfg {
            two_phase: kind.two_phase_update(),
            ..OtaUpdateCfg::default()
        }
    }

    fn run_injected(kind: KernelKind, supply: Supply) -> kernel::RunResult {
        let mut mcu = Mcu::new(supply);
        let mut p = Peripherals::new(5);
        let (app, _) = build(&mut mcu, &cfg_for(kind));
        let mut rt = kind.make();
        run_app(&app, rt.as_mut(), &mut mcu, &mut p, &ExecConfig::default())
    }

    #[test]
    fn all_runtimes_reach_the_target_version_on_continuous_power() {
        for kind in KernelKind::ALL {
            let r = run_injected(kind, Supply::continuous());
            assert_eq!(r.outcome, Outcome::Completed, "{}", kind.name());
            assert_eq!(r.verdict, Some(Verdict::Correct), "{}", kind.name());
            assert_eq!(r.stats.counter(PROBE_VERSION_TORN), 0, "{}", kind.name());
            assert_eq!(
                r.stats.counter(PROBE_DUPLICATE_ACTIVATION),
                0,
                "{}",
                kind.name()
            );
        }
    }

    /// Failure injection at every energy-spend boundary: the two-phase
    /// protocol must resume a coherent version everywhere, while the
    /// in-place baseline must strand a torn image (and re-notify its
    /// activation) at some boundary. This is the app-level core of the
    /// crashcheck `version_torn` sweep.
    #[test]
    fn exhaustive_injection_separates_two_phase_from_in_place() {
        let boundaries =
            |kind: KernelKind| run_injected(kind, Supply::continuous()).stats.boundaries;

        for kind in [KernelKind::EaseIo, KernelKind::Alpaca, KernelKind::Ink] {
            for b in 0..boundaries(kind) {
                let r = run_injected(kind, Supply::injected(b, 100_000));
                assert_eq!(r.outcome, Outcome::Completed, "{} b={b}", kind.name());
                assert_eq!(r.verdict, Some(Verdict::Correct), "{} b={b}", kind.name());
                assert_eq!(
                    r.stats.counter(PROBE_VERSION_TORN),
                    0,
                    "{} resumed a torn image at boundary {b}",
                    kind.name()
                );
                assert_eq!(
                    r.stats.counter(PROBE_DUPLICATE_ACTIVATION),
                    0,
                    "{} duplicated an activation at boundary {b}",
                    kind.name()
                );
            }
        }

        let (mut torn, mut dup) = (0u64, 0u64);
        for b in 0..boundaries(KernelKind::Naive) {
            let r = run_injected(KernelKind::Naive, Supply::injected(b, 100_000));
            torn += r.stats.counter(PROBE_VERSION_TORN);
            dup += r.stats.counter(PROBE_DUPLICATE_ACTIVATION);
        }
        assert!(torn > 0, "in-place rewrite never tore the image");
        assert!(dup > 0, "in-place rewrite never duplicated an activation");
    }

    #[test]
    fn window_markers_bracket_the_update() {
        let r = run_injected(KernelKind::EaseIo, Supply::continuous());
        assert_eq!(r.stats.counter(UPDATE_WINDOW_ENTER), 1);
        assert_eq!(r.stats.counter(UPDATE_WINDOW_EXIT), 1);
    }

    #[test]
    fn a_device_that_received_no_image_stays_on_the_factory_version() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(5);
        let cfg = OtaUpdateCfg {
            target_seq: 1,
            ..OtaUpdateCfg::default()
        };
        let (app, _) = build(&mut mcu, &cfg);
        let mut rt = KernelKind::EaseIo.make();
        let r = run_app(&app, rt.as_mut(), &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        // The window never opens and nothing is staged.
        assert_eq!(r.stats.counter(UPDATE_WINDOW_ENTER), 0);
        assert_eq!(r.stats.counter(UPDATE_WINDOW_EXIT), 0);
    }
}
