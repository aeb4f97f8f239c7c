//! The 11-task DNN weather classifier (paper §5.4.1, Fig 9).
//!
//! Pipeline: (1) sense temperature and humidity in a `Single` I/O block
//! (temperature `Timely` 10 ms, humidity `Always`, per Fig 3); (2) capture
//! an image (`Single`, emulated per the paper); (3–7) five DNN layers, each
//! staging data FRAM→LEA-RAM by DMA, computing on the LEA, and writing the
//! activation back to FRAM by DMA; (8) inference readout; (9) packaging;
//! (10) a `Single` radio send of temperature, humidity, and class;
//! (11) done.
//!
//! The `single_buffer` flag selects the Table 5 variants: with one shared
//! activation buffer the layer write-backs overwrite the layer inputs,
//! which only EaseIO's run-time DMA typing + regional privatization can
//! re-execute safely; with double buffering everyone is correct but memory
//! doubles.

use crate::dnn::{self, fc_weight, kernel1, kernel2, C1, C2, CLASSES, FC_IN, IMG, K};
use kernel::{
    App, DmaAnnotation, Inventory, IoOp, ReexecSemantics, TaskCtx, TaskDef, TaskId, TaskResult,
    Transition, Verdict,
};
use mcu_emu::{read_scalars, Addr, Mcu, NvBuf, NvVar, Region};
use periph::Sensor;
use std::rc::Rc;
use std::sync::Arc;

/// Configuration of the weather-classifier benchmark.
#[derive(Debug, Clone)]
pub struct WeatherCfg {
    /// One shared activation buffer (the risky layout) instead of two.
    pub single_buffer: bool,
    /// `Exclude` the constant weight DMAs from privatization ("/Op").
    pub exclude_const_dma: bool,
    /// Camera scene seed (determines the golden inference).
    pub scene_seed: u64,
    /// Freshness window for the temperature sample (ms).
    pub temp_window_ms: u64,
    /// Number of sense→classify→send rounds (the real-world evaluation runs
    /// the workload repeatedly, §5.5).
    pub rounds: u32,
}

impl Default for WeatherCfg {
    fn default() -> Self {
        Self {
            single_buffer: false,
            exclude_const_dma: false,
            scene_seed: 7,
            temp_window_ms: 10,
            rounds: 1,
        }
    }
}

/// Builds the weather application on `mcu`.
pub fn build(mcu: &mut Mcu, cfg: &WeatherCfg) -> App {
    // Non-volatile data.
    let image: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, IMG * IMG);
    let buf_a: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, C1 * C1);
    let buf_b: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, C1 * C1);
    let k1: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, K * K);
    let k2: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, K * K);
    let fcw: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, FC_IN * CLASSES);
    let temp: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let humd: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let class: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let round: NvVar<u32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    // LEA staging.
    let lin: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, IMG * IMG);
    let lw: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, FC_IN * CLASSES);
    let lout: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, C1 * C1);

    k1.fill_from(&mut mcu.mem, &(0..K * K).map(kernel1).collect::<Vec<_>>());
    k2.fill_from(&mut mcu.mem, &(0..K * K).map(kernel2).collect::<Vec<_>>());
    fcw.fill_from(
        &mut mcu.mem,
        &(0..FC_IN * CLASSES).map(fc_weight).collect::<Vec<_>>(),
    );

    // Activation chain addresses per buffering strategy.
    // With a single buffer every layer reads and writes `image`; with double
    // buffering the chain is image → A → B → A → B.
    let (l1_in, l1_out, l2_buf, l3_in, l3_out, fc_in_buf, fc_out) = if cfg.single_buffer {
        let i = image.addr();
        (i, i, i, i, i, i, i)
    } else {
        (
            image.addr(),
            buf_a.addr(),
            buf_b.addr(),
            buf_b.addr(),
            buf_a.addr(),
            buf_a.addr(),
            buf_b.addr(),
        )
    };

    let w_ann = if cfg.exclude_const_dma {
        DmaAnnotation::Exclude
    } else {
        DmaAnnotation::Auto
    };

    let next = |id: u16| -> TaskResult { Ok(Transition::To(TaskId(id))) };

    // Task 0: init.
    let init = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(200)?;
        ctx.write(class, u32::MAX)?;
        next(1)
    };

    // Task 1: sense block (Fig 3).
    let window = cfg.temp_window_ms;
    let sense = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let (t, h) = ctx.io_block(ReexecSemantics::Single, |ctx| {
            let t = ctx.call_io(
                IoOp::Sense(Sensor::Temp),
                ReexecSemantics::timely_ms(window),
            )?;
            let h = ctx.call_io(IoOp::Sense(Sensor::Humd), ReexecSemantics::Always)?;
            Ok((t, h))
        })?;
        ctx.write(temp, t)?;
        ctx.write(humd, h)?;
        // Calibrate and range-check the readings (post-I/O processing in
        // the same task: the window where blind re-execution re-senses).
        ctx.compute(1_800)?;
        next(2)
    };

    // Task 2: capture (Single; destination is non-volatile).
    let seed = cfg.scene_seed;
    let capture = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.call_io(
            IoOp::Capture {
                dst: image.addr(),
                width: IMG,
                height: IMG,
                seed,
            },
            ReexecSemantics::Single,
        )?;
        // Exposure/quality check over the captured frame.
        ctx.compute(2_600)?;
        next(3)
    };

    // A DNN layer task: stage in, stage weights, compute, stage out.
    #[derive(Clone, Copy)]
    struct LayerIo {
        input: Addr,
        in_words: u32,
        weights: Option<(Addr, u32)>,
        out: Addr,
        out_words: u32,
    }
    let mk_layer = move |io: LayerIo, op_of: fn(Addr, Addr, Addr) -> IoOp, nxt: u16| {
        move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            ctx.dma_copy(io.input, lin.addr(), io.in_words * 2)?;
            if let Some((w, wn)) = io.weights {
                ctx.dma_copy_annotated(w, lw.addr(), wn * 2, w_ann, &[])?;
            }
            ctx.call_io(
                op_of(lin.addr(), lw.addr(), lout.addr()),
                ReexecSemantics::Always,
            )?;
            ctx.dma_copy(lout.addr(), io.out, io.out_words * 2)?;
            ctx.compute(450)?;
            Ok(Transition::To(TaskId(nxt)))
        }
    };

    // Task 3: conv1 (image → l1_out).
    let conv1 = mk_layer(
        LayerIo {
            input: l1_in,
            in_words: IMG * IMG,
            weights: Some((k1.addr(), K * K)),
            out: l1_out,
            out_words: C1 * C1,
        },
        |lin, lw, lout| IoOp::LeaConv2d {
            input: lin,
            w: IMG,
            h: IMG,
            kernel: lw,
            kw: K,
            kh: K,
            out: lout,
        },
        4,
    );

    // Task 4: ReLU (l1_out → l2_buf). The LEA computes in place on `lin`,
    // so the out-DMA streams from `lin`.
    let relu_in = l1_out;
    let relu_out = l2_buf;
    let relu = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.dma_copy(relu_in, lin.addr(), C1 * C1 * 2)?;
        ctx.call_io(
            IoOp::LeaRelu {
                buf: lin.addr(),
                n: C1 * C1,
            },
            ReexecSemantics::Always,
        )?;
        ctx.dma_copy(lin.addr(), relu_out, C1 * C1 * 2)?;
        ctx.compute(150)?;
        next(5)
    };

    // Task 5: conv2 (l3_in → l3_out).
    let conv2 = mk_layer(
        LayerIo {
            input: l3_in,
            in_words: C1 * C1,
            weights: Some((k2.addr(), K * K)),
            out: l3_out,
            out_words: C2 * C2,
        },
        |lin, lw, lout| IoOp::LeaConv2d {
            input: lin,
            w: C1,
            h: C1,
            kernel: lw,
            kw: K,
            kh: K,
            out: lout,
        },
        6,
    );

    // Task 6: fully connected (fc_in_buf → fc_out).
    let fc = mk_layer(
        LayerIo {
            input: fc_in_buf,
            in_words: FC_IN,
            weights: Some((fcw.addr(), FC_IN * CLASSES)),
            out: fc_out,
            out_words: CLASSES,
        },
        |lin, lw, lout| IoOp::LeaFc {
            x: lin,
            n_in: FC_IN,
            weights: lw,
            out: lout,
            n_out: CLASSES,
        },
        7,
    );

    // Task 7: inference (argmax readout).
    let infer = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.dma_copy(fc_out, lin.addr(), CLASSES * 2)?;
        let c = ctx.call_io(
            IoOp::LeaArgmax {
                buf: lin.addr(),
                n: CLASSES,
            },
            ReexecSemantics::Always,
        )?;
        ctx.write(class, c as u32)?;
        next(8)
    };

    // Task 8: package the result.
    let pack = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(600)?;
        next(9)
    };

    // Task 9: send (Single: never re-sent once delivered).
    let send = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        let t = ctx.read(temp)?;
        let h = ctx.read(humd)?;
        let c = ctx.read(class)?;
        // Frame and checksum the packet, transmit, then log bookkeeping —
        // all one task, like the paper's Fig 2a send example.
        ctx.compute(700)?;
        ctx.call_io(
            IoOp::Send {
                payload: Arc::from([t, h, c as i32]),
            },
            ReexecSemantics::Single,
        )?;
        ctx.compute(900)?;
        next(10)
    };

    // Task 10: done (or loop for the next round).
    let rounds = cfg.rounds;
    let done = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
        ctx.compute(100)?;
        let r = ctx.read(round)?;
        ctx.write(round, r + 1)?;
        if r + 1 < rounds {
            Ok(Transition::To(TaskId(1)))
        } else {
            Ok(Transition::Done)
        }
    };

    // Golden result.
    let (fc_ref, class_ref) = dnn::reference_inference(&dnn::scene(cfg.scene_seed));
    let fc_loc = fc_out;
    let verify = move |mcu: &Mcu, p: &periph::Peripherals| -> Verdict {
        if class.get(&mcu.mem) != class_ref {
            return Verdict::Incorrect(format!(
                "class {} != golden {class_ref}",
                class.get(&mcu.mem)
            ));
        }
        if read_scalars::<i16>(&mcu.mem, fc_loc, CLASSES) != fc_ref {
            return Verdict::Incorrect("fully-connected activations corrupted".into());
        }
        if p.radio.count() == 0 {
            return Verdict::Incorrect("nothing was transmitted".into());
        }
        let last = p.radio.packets().last().expect("nonempty");
        if last.payload.len() != 3 || last.payload[2] != class_ref as i32 {
            return Verdict::Incorrect("transmitted class mismatch".into());
        }
        Verdict::Correct
    };

    App {
        name: if cfg.single_buffer {
            "weather/single"
        } else {
            "weather"
        },
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
                name: "capture",
                body: Rc::new(capture),
            },
            TaskDef {
                name: "conv1",
                body: Rc::new(conv1),
            },
            TaskDef {
                name: "relu",
                body: Rc::new(relu),
            },
            TaskDef {
                name: "conv2",
                body: Rc::new(conv2),
            },
            TaskDef {
                name: "fc",
                body: Rc::new(fc),
            },
            TaskDef {
                name: "infer",
                body: Rc::new(infer),
            },
            TaskDef {
                name: "pack",
                body: Rc::new(pack),
            },
            TaskDef {
                name: "send",
                body: Rc::new(send),
            },
            TaskDef {
                name: "done",
                body: Rc::new(done),
            },
        ],
        entry: TaskId(0),
        inventory: Inventory {
            tasks: 11,
            io_funcs: 5,
            io_sites: 8,
            timely_sites: 1,
            dma_sites: 9,
            io_blocks: 1,
            nv_vars: 9,
        },
        verify: Some(Rc::new(verify)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_core::EaseIoRuntime;
    use kernel::{alpaca::AlpacaRuntime, ink::InkRuntime, run_app, ExecConfig, Outcome, Runtime};
    use mcu_emu::{Supply, TimerResetConfig};
    use periph::Peripherals;

    fn run(rt: &mut dyn Runtime, cfg: &WeatherCfg, supply: Supply, seed: u64) -> kernel::RunResult {
        let mut mcu = Mcu::new(supply);
        let mut p = Peripherals::new(seed);
        let app = build(&mut mcu, cfg);
        run_app(&app, rt, &mut mcu, &mut p, &ExecConfig::default())
    }

    #[test]
    fn all_runtimes_correct_on_continuous_power_both_layouts() {
        for single in [false, true] {
            let cfg = WeatherCfg {
                single_buffer: single,
                ..WeatherCfg::default()
            };
            for name in ["alpaca", "ink", "easeio"] {
                let mut rt: Box<dyn Runtime> = match name {
                    "alpaca" => Box::new(AlpacaRuntime::new()),
                    "ink" => Box::new(InkRuntime::new()),
                    _ => Box::new(EaseIoRuntime::default()),
                };
                let r = run(rt.as_mut(), &cfg, Supply::continuous(), 5);
                assert_eq!(r.outcome, Outcome::Completed);
                assert_eq!(
                    r.verdict,
                    Some(Verdict::Correct),
                    "{name} single_buffer={single}"
                );
            }
        }
    }

    #[test]
    fn easeio_single_buffer_correct_under_failures() {
        for seed in 0..15 {
            let cfg = WeatherCfg {
                single_buffer: true,
                ..WeatherCfg::default()
            };
            let mut rt = EaseIoRuntime::default();
            let r = run(
                &mut rt,
                &cfg,
                Supply::timer(TimerResetConfig::default(), seed),
                seed,
            );
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert_eq!(r.verdict, Some(Verdict::Correct), "seed {seed}");
        }
    }

    #[test]
    fn baselines_single_buffer_corrupt_under_failures() {
        let mut bad = 0;
        for seed in 0..40 {
            let cfg = WeatherCfg {
                single_buffer: true,
                ..WeatherCfg::default()
            };
            let mut rt = AlpacaRuntime::new();
            let r = run(
                &mut rt,
                &cfg,
                Supply::timer(TimerResetConfig::default(), seed),
                seed,
            );
            if matches!(r.verdict, Some(Verdict::Incorrect(_))) {
                bad += 1;
            }
        }
        assert!(bad > 0, "single-buffer Alpaca never corrupted the DNN");
    }

    #[test]
    fn double_buffer_correct_for_everyone_under_failures() {
        for seed in 0..10 {
            for name in ["alpaca", "ink"] {
                let mut rt: Box<dyn Runtime> = match name {
                    "alpaca" => Box::new(AlpacaRuntime::new()),
                    _ => Box::new(InkRuntime::new()),
                };
                let r = run(
                    rt.as_mut(),
                    &WeatherCfg::default(),
                    Supply::timer(TimerResetConfig::default(), seed),
                    seed,
                );
                assert_eq!(r.outcome, Outcome::Completed);
                assert_eq!(r.verdict, Some(Verdict::Correct), "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn easeio_wastes_less_work_than_alpaca() {
        // The paper's headline multi-task claim (Fig 10): EaseIO reduces the
        // wasted work of the weather classifier. Wasted work = app-tagged
        // time beyond what a continuous-power run needs.
        let seeds = 100..200u64;
        let measure = |mk: &dyn Fn() -> Box<dyn Runtime>| -> (u64, u64) {
            let mut rt = mk();
            let golden = run(rt.as_mut(), &WeatherCfg::default(), Supply::continuous(), 0);
            assert_eq!(golden.outcome, Outcome::Completed);
            let golden_app = golden.stats.app_time_us;
            let mut wasted = 0;
            let mut skipped = 0;
            for seed in seeds.clone() {
                let mut rt = mk();
                let r = run(
                    rt.as_mut(),
                    &WeatherCfg::default(),
                    Supply::timer(TimerResetConfig::default(), seed),
                    seed,
                );
                assert_eq!(r.outcome, Outcome::Completed);
                wasted += r.stats.app_time_us.saturating_sub(golden_app);
                skipped += r.stats.io_skipped + r.stats.dma_skipped;
            }
            (wasted, skipped)
        };
        let (alp_wasted, _) = measure(&|| Box::new(AlpacaRuntime::new()));
        let (eio_wasted, eio_skipped) = measure(&|| Box::new(EaseIoRuntime::default()));
        assert!(eio_skipped > 0, "EaseIO must skip some completed I/O");
        assert!(
            eio_wasted < alp_wasted,
            "EaseIO wasted {eio_wasted} µs vs Alpaca {alp_wasted} µs"
        );
    }
}
