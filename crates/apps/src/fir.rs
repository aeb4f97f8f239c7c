//! Multi-task FIR filter with DMA WAR dependencies (paper §5.4, Figs 10–12).
//!
//! The input signal lives in one FRAM buffer that is **also the output
//! buffer** (paper §5.4.1): the filter processes the signal in four chunks,
//! and each chunk task
//!
//! 1. DMA-fetches the filter coefficients into LEA-RAM (constant data — the
//!    "EaseIO/Op" variant annotates this copy `Exclude`),
//! 2. DMA-fetches the chunk's samples into LEA-RAM (EaseIO: `Private`,
//!    two-phase through the privatization buffer),
//! 3. runs one LEA FIR call (`Always`),
//! 4. DMA-writes the filtered chunk back **over the same FRAM region**
//!    (EaseIO: `Single`).
//!
//! The write-back creates a WAR dependency through DMA: if a power failure
//! lands between the write-back and the task commit, a blind re-execution
//! re-fetches the *already-filtered* samples and filters them twice. Alpaca
//! and InK cannot see DMA, so they corrupt the output (Fig 12); EaseIO's
//! `Private` fetch replays from the pristine snapshot and its `Single`
//! write-back never repeats, so the result is always correct.

use kernel::{
    App, DmaAnnotation, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult,
    Transition, Verdict,
};
use mcu_emu::{Mcu, NvBuf, NvVar, Region};
use periph::lea::ACC_SHIFT;
use std::rc::Rc;

/// Number of chunks the signal is split into (one task each, per the paper).
pub const CHUNKS: u32 = 4;

/// Configuration of the FIR benchmark.
#[derive(Debug, Clone)]
pub struct FirCfg {
    /// Samples per chunk.
    pub chunk: u32,
    /// Tap count.
    pub taps: u32,
    /// Annotate the constant-coefficient DMA `Exclude` (the "EaseIO/Op"
    /// optimization, §4.3). Ignored by the baselines.
    pub exclude_const_dma: bool,
    /// Number of end-to-end filter rounds (the real-world evaluation of
    /// §5.5 runs the workload repeatedly; each round restores the signal
    /// from a pristine copy first).
    pub rounds: u32,
}

impl Default for FirCfg {
    fn default() -> Self {
        Self {
            chunk: 128,
            taps: 16,
            exclude_const_dma: false,
            rounds: 1,
        }
    }
}

/// The deterministic input sample at index `i`.
pub fn sample(i: u32) -> i16 {
    (((i * 17 + 5) % 157) as i16) - 78
}

/// The deterministic coefficient at index `k`.
pub fn coeff(k: u32, taps: u32) -> i16 {
    (((k * 7 + 1) % 19) as i16) - 9 + (128 / taps as i16)
}

fn fir_chunk(input: &[i16], h: &[i16], n_out: u32) -> Vec<i16> {
    (0..n_out as usize)
        .map(|i| {
            let mut acc: i32 = 0;
            for (k, c) in h.iter().enumerate() {
                acc += *c as i32 * input[i + k] as i32;
            }
            (acc >> ACC_SHIFT).clamp(i16::MIN as i32, i16::MAX as i32) as i16
        })
        .collect()
}

/// Software reference of the whole in-place chunked filter: chunk `c` reads
/// `chunk + taps - 1` samples starting at `c·chunk` (the tail reads into the
/// not-yet-filtered next chunk, the last chunk into the padding) and writes
/// `chunk` filtered samples back in place.
pub fn reference(cfg: &FirCfg) -> Vec<i16> {
    chunked_reference(CHUNKS, cfg.chunk, cfg.taps)
}

/// [`reference`] for any chunk count and shape; the long-burst FIR
/// ([`crate::fir_long`]) runs the same filter at a larger scale.
pub(crate) fn chunked_reference(chunks: u32, chunk: u32, taps: u32) -> Vec<i16> {
    let total = chunks * chunk + taps - 1;
    let mut s: Vec<i16> = (0..total).map(sample).collect();
    let h: Vec<i16> = (0..taps).map(|k| coeff(k, taps)).collect();
    for c in 0..chunks {
        let base = (c * chunk) as usize;
        let end = base + (chunk + taps - 1) as usize;
        let out = fir_chunk(&s[base..end], &h, chunk);
        s[base..base + chunk as usize].copy_from_slice(&out);
    }
    s
}

/// Builds the FIR application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &FirCfg) -> App {
    let total = CHUNKS * cfg.chunk + cfg.taps - 1;
    // Shared in/out signal buffer in FRAM.
    let signal: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, total);
    // Constant coefficients in FRAM.
    let coeffs: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, cfg.taps);
    // LEA staging buffers.
    let lx: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.chunk + cfg.taps - 1);
    let lh: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.taps);
    let ly: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, cfg.chunk);
    let progress: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let round: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    // Pristine copy of the input for multi-round runs.
    let pristine: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, total);

    let init_signal: Vec<i16> = (0..total).map(sample).collect();
    signal.fill_from(&mut mcu.mem, &init_signal);
    pristine.fill_from(&mut mcu.mem, &init_signal);
    let h: Vec<i16> = (0..cfg.taps).map(|k| coeff(k, cfg.taps)).collect();
    coeffs.fill_from(&mut mcu.mem, &h);

    let multi_round = cfg.rounds > 1;
    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(250)?;
        if multi_round {
            // Restore the signal from the pristine copy (NVM→NVM: Single).
            ctx.dma_copy(pristine.addr(), signal.addr(), total * 2)?;
        }
        ctx.write(progress, 0u32)?;
        Ok(Transition::To(TaskId(1)))
    };

    let mk_chunk_task = |c: u32| {
        let cfg = cfg.clone();
        move |ctx: &mut TaskCtx<'_>| -> TaskResult {
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
            // 3. Filter on the accelerator.
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
            // Post-filter bookkeeping (energy accounting, progress stats):
            // the window in which a failure triggers the Fig 2b WAR bug.
            ctx.compute(800)?;
            let p = ctx.read(progress)?;
            ctx.write(progress, p + 1)?;
            if c + 1 < CHUNKS {
                Ok(Transition::To(TaskId(2 + c as u16)))
            } else {
                Ok(Transition::To(TaskId(1 + CHUNKS as u16)))
            }
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

    let mut tasks = vec![TaskDef {
        name: "init",
        body: Rc::new(init) as _,
    }];
    for c in 0..CHUNKS {
        tasks.push(TaskDef {
            name: match c {
                0 => "chunk0",
                1 => "chunk1",
                2 => "chunk2",
                _ => "chunk3",
            },
            body: Rc::new(mk_chunk_task(c)),
        });
    }
    tasks.push(TaskDef {
        name: "wrap",
        body: Rc::new(wrap),
    });

    App {
        name: if cfg.exclude_const_dma {
            "fir/op"
        } else {
            "fir"
        },
        tasks,
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 1 + CHUNKS,
            io_funcs: 2,
            io_sites: 1,
            timely_sites: 0,
            dma_sites: 3,
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
    use kernel::{
        alpaca::AlpacaRuntime, ink::InkRuntime, naive::NaiveRuntime, run_app, ExecConfig, Outcome,
        Runtime,
    };
    use mcu_emu::{Supply, TimerResetConfig};
    use periph::Peripherals;

    fn run_with(rt: &mut dyn Runtime, seed: u64, exclude: bool) -> (Outcome, Option<Verdict>) {
        let cfg = TimerResetConfig::default();
        let mut mcu = Mcu::new(Supply::timer(cfg, seed));
        let mut p = Peripherals::new(1);
        let app = build(
            &mut mcu,
            &FirCfg {
                exclude_const_dma: exclude,
                ..FirCfg::default()
            },
        );
        let r = run_app(&app, rt, &mut mcu, &mut p, &ExecConfig::default());
        (r.outcome, r.verdict)
    }

    #[test]
    fn all_runtimes_correct_on_continuous_power() {
        for mk in [
            || Box::new(AlpacaRuntime::new()) as Box<dyn Runtime>,
            || Box::new(InkRuntime::new()) as Box<dyn Runtime>,
            || Box::new(NaiveRuntime::new()) as Box<dyn Runtime>,
        ] {
            let mut mcu = Mcu::new(Supply::continuous());
            let mut p = Peripherals::new(1);
            let app = build(&mut mcu, &FirCfg::default());
            let mut rt = mk();
            let r = run_app(&app, rt.as_mut(), &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.verdict, Some(Verdict::Correct), "{}", rt.name());
        }
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = Peripherals::new(1);
        let app = build(&mut mcu, &FirCfg::default());
        let mut rt = EaseIoRuntime::default();
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.verdict, Some(Verdict::Correct), "EaseIO continuous");
    }

    #[test]
    fn easeio_is_always_correct_under_failures() {
        for seed in 0..30 {
            let mut rt = EaseIoRuntime::default();
            let (outcome, verdict) = run_with(&mut rt, seed, false);
            assert_eq!(outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(verdict, Some(Verdict::Correct), "seed {seed}");
        }
    }

    #[test]
    fn easeio_op_variant_is_also_correct() {
        for seed in 0..15 {
            let mut rt = EaseIoRuntime::default();
            let (outcome, verdict) = run_with(&mut rt, seed, true);
            assert_eq!(outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(verdict, Some(Verdict::Correct), "seed {seed}");
        }
    }

    #[test]
    fn baselines_eventually_corrupt_the_signal() {
        // The paper measures 16–21 % incorrect runs over 1000 executions;
        // across 60 seeds at least one corruption must show up for each
        // baseline.
        let mut alpaca_bad = 0;
        let mut ink_bad = 0;
        for seed in 0..60 {
            let mut a = AlpacaRuntime::new();
            if let (Outcome::Completed, Some(Verdict::Incorrect(_))) = run_with(&mut a, seed, false)
            {
                alpaca_bad += 1;
            }
            let mut i = InkRuntime::new();
            if let (Outcome::Completed, Some(Verdict::Incorrect(_))) = run_with(&mut i, seed, false)
            {
                ink_bad += 1;
            }
        }
        assert!(alpaca_bad > 0, "Alpaca never corrupted the FIR output");
        assert!(ink_bad > 0, "InK never corrupted the FIR output");
    }

    #[test]
    fn reference_is_self_consistent() {
        let cfg = FirCfg::default();
        let r1 = reference(&cfg);
        let r2 = reference(&cfg);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), (CHUNKS * cfg.chunk + cfg.taps - 1) as usize);
        // Filtering changes the signal.
        let orig: Vec<i16> = (0..r1.len() as u32).map(sample).collect();
        assert_ne!(r1, orig);
    }
}
