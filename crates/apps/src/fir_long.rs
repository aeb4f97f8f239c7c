//! Long-burst FIR filter: the sweep-engine stress workload.
//!
//! Same in-place chunked filter as [`crate::fir`] (paper §5.4.1), scaled
//! until single operations span many energy-spend slices: 512 taps over
//! 512-sample chunks fills the LEA staging RAM to its last word (1023 +
//! 512 + 512 of 2048 words) and makes every accelerator call and every
//! chunk fetch a multi-millisecond burst. One round still fits the 4 KB
//! privatization pool because a *single* task walks the chunks through a
//! progress variable instead of one task per chunk — one `(task, site)`
//! pair means one private fetch buffer (2046 B) plus one coefficient
//! buffer (1024 B), not four of each.
//!
//! A crash sweep of this app is dominated by boundaries in the middle of
//! those long bursts, where nothing host-visible changes between slices —
//! exactly the redundancy injection-point pruning exists to collapse. The
//! WAR-through-DMA hazard of the small FIR is preserved: the chunk task
//! writes its filtered output back over its own input region.

use crate::fir::{chunked_reference, coeff, sample};
use kernel::{
    App, DmaAnnotation, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult,
    Transition, Verdict,
};
use mcu_emu::{Mcu, NvBuf, NvVar, Region};
use std::rc::Rc;

/// Chunks per round (walked by one task via the progress variable).
pub const CHUNKS: u32 = 4;

/// Configuration of the long-FIR benchmark.
#[derive(Debug, Clone)]
pub struct FirLongCfg {
    /// Samples per chunk.
    pub chunk: u32,
    /// Tap count.
    pub taps: u32,
    /// Annotate the constant-coefficient DMA `Exclude` (the "EaseIO/Op"
    /// optimization, §4.3). Ignored by the baselines.
    pub exclude_const_dma: bool,
    /// End-to-end filter rounds; each round restores the signal from a
    /// pristine copy first.
    pub rounds: u32,
    /// Post-filter bookkeeping cycles per chunk (feature extraction over
    /// the filtered block) — a long pure-compute burst between the DMA
    /// write-back and the progress commit.
    pub post_cycles: u64,
}

impl Default for FirLongCfg {
    fn default() -> Self {
        Self {
            chunk: 512,
            taps: 512,
            exclude_const_dma: false,
            rounds: 2,
            post_cycles: 60_000,
        }
    }
}

/// Software reference of one full round (identical for every round, since a
/// round starts from the pristine signal).
pub fn reference(cfg: &FirLongCfg) -> Vec<i16> {
    chunked_reference(CHUNKS, cfg.chunk, cfg.taps)
}

/// Builds the long-FIR application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &FirLongCfg) -> App {
    let total = CHUNKS * cfg.chunk + cfg.taps - 1;
    let in_words = cfg.chunk + cfg.taps - 1;
    assert!(
        in_words + cfg.taps + cfg.chunk <= 2048,
        "LEA staging buffers exceed LEA-RAM"
    );
    // Shared in/out signal buffer in FRAM, plus a pristine copy per round.
    let signal: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, total);
    let coeffs: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, cfg.taps);
    let lx: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, in_words);
    let lh: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.taps);
    let ly: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.chunk);
    let progress: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let round: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let pristine: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, total);

    let init_signal: Vec<i16> = (0..total).map(sample).collect();
    signal.fill_from(&mut mcu.mem, &init_signal);
    pristine.fill_from(&mut mcu.mem, &init_signal);
    let h: Vec<i16> = (0..cfg.taps).map(|k| coeff(k, cfg.taps)).collect();
    coeffs.fill_from(&mut mcu.mem, &h);

    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(250)?;
        // Restore the signal from the pristine copy (NVM→NVM: Single).
        ctx.dma_copy(pristine.addr(), signal.addr(), total * 2)?;
        ctx.write(progress, 0u32)?;
        Ok(Transition::To(TaskId(1)))
    };

    let chunk_cfg = cfg.clone();
    let chunk_task = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let cfg = &chunk_cfg;
        let c = ctx.read(progress)?;
        let in_words = cfg.chunk + cfg.taps - 1;
        // 1. Coefficients into LEA-RAM (constant; Exclude under /Op).
        let ann = if cfg.exclude_const_dma {
            DmaAnnotation::Exclude
        } else {
            DmaAnnotation::Auto
        };
        ctx.dma_copy_annotated(coeffs.addr(), lh.addr(), cfg.taps * 2, ann, &[])?;
        // 2. Chunk samples into LEA-RAM (EaseIO: Private).
        let base_bytes = c * cfg.chunk * 2;
        ctx.dma_copy(signal.addr().add(base_bytes), lx.addr(), in_words * 2)?;
        // 3. One long accelerator burst (chunk × taps multiply-adds).
        ctx.call_io(
            IoOp::LeaFir {
                x: lx.addr(),
                h: lh.addr(),
                y: ly.addr(),
                n_out: cfg.chunk,
                taps: cfg.taps,
            },
            ReexecSemantics::Always,
        )?;
        // 4. Write the filtered chunk back over its own input
        //    (EaseIO: Single — never repeated once complete).
        ctx.dma_copy(ly.addr(), signal.addr().add(base_bytes), cfg.chunk * 2)?;
        // 5. Feature extraction over the filtered block: a long pure-compute
        //    burst inside the Fig 2b hazard window.
        ctx.compute(cfg.post_cycles)?;
        ctx.write(progress, c + 1)?;
        if c + 1 < CHUNKS {
            Ok(Transition::To(TaskId(1)))
        } else {
            Ok(Transition::To(TaskId(2)))
        }
    };

    let rounds = cfg.rounds;
    let wrap = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(150)?;
        let r = ctx.read(round)?;
        ctx.write(round, r + 1)?;
        if r + 1 < rounds {
            Ok(Transition::To(TaskId(0)))
        } else {
            Ok(Transition::Done)
        }
    };

    let expected = reference(cfg);
    let verify = move |mcu: &Mcu, _p: &periph::Peripherals| -> Verdict {
        let got = signal.to_vec(&mcu.mem);
        if got == expected {
            Verdict::Correct
        } else {
            let bad = got
                .iter()
                .zip(&expected)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            Verdict::Incorrect(format!("signal diverges at sample {bad}"))
        }
    };

    App {
        name: if cfg.exclude_const_dma {
            "fir-long/op"
        } else {
            "fir-long"
        },
        tasks: vec![
            TaskDef {
                name: "init",
                body: Rc::new(init) as _,
            },
            TaskDef {
                name: "chunk",
                body: Rc::new(chunk_task) as _,
            },
            TaskDef {
                name: "wrap",
                body: Rc::new(wrap) as _,
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 3,
            io_funcs: 2,
            io_sites: 1,
            timely_sites: 0,
            dma_sites: 4,
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
    use kernel::{run_app, ExecConfig, Outcome};
    use mcu_emu::{Supply, TimerResetConfig};
    use periph::Peripherals;

    /// A fast test configuration: same shape, far fewer cycles.
    fn small() -> FirLongCfg {
        FirLongCfg {
            chunk: 64,
            taps: 32,
            exclude_const_dma: false,
            rounds: 2,
            post_cycles: 2_000,
        }
    }

    #[test]
    fn easeio_is_correct_on_continuous_power_at_full_size() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(1);
        let app = build(&mut mcu, &FirLongCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
    }

    #[test]
    fn full_size_buffers_fill_but_fit_lea_ram() {
        let cfg = FirLongCfg::default();
        assert_eq!(cfg.chunk + cfg.taps - 1 + cfg.taps + cfg.chunk, 2047);
    }

    #[test]
    fn easeio_is_always_correct_under_failures() {
        for seed in 0..20 {
            let cfg = TimerResetConfig::default();
            let mut mcu = Mcu::new(Supply::timer(cfg, seed));
            let mut p = Peripherals::new(1);
            let app = build(&mut mcu, &small());
            let mut rt = EaseIoRuntime::default();
            let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(r.verdict, Some(Verdict::Correct), "seed {seed}");
        }
    }

    #[test]
    fn reference_matches_the_small_fir_shape() {
        let cfg = small();
        let r = reference(&cfg);
        assert_eq!(r.len(), (CHUNKS * cfg.chunk + cfg.taps - 1) as usize);
        let orig: Vec<i16> = (0..r.len() as u32).map(sample).collect();
        assert_ne!(r, orig, "filtering must change the signal");
    }
}
