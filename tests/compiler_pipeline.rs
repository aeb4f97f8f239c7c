//! End-to-end tests of the easec front-end: programs written in the paper's
//! own surface syntax get the paper's guarantees when run under EaseIO.

use easeio_repro::apps::harness::{KernelKind, MakeRuntime};
use easeio_repro::easec;
use easeio_repro::kernel::{run_app, ExecConfig, Outcome};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};
use easeio_repro::periph::Peripherals;

fn run_compiled(
    src: &str,
    kind: KernelKind,
    supply: Supply,
    env_seed: u64,
) -> (Mcu, Peripherals, easec::Compiled, kernel::RunResult) {
    let mut mcu = Mcu::new(supply);
    let compiled = easec::compile(src, &mut mcu).unwrap_or_else(|e| panic!("{e}"));
    let mut periph = Peripherals::new(env_seed);
    let mut rt = kind.make();
    let r = run_app(
        &compiled.app,
        rt.as_mut(),
        &mut mcu,
        &mut periph,
        &ExecConfig::default(),
    );
    (mcu, periph, compiled, r)
}

/// The paper's Figure 2c program, written in the paper's syntax.
const FIG2C: &str = r#"
    __nv int stdy;
    __nv int alarm;
    task sense {
        let temp = _call_IO(Temp, Single);
        compute(500);
        if (temp < 1000) { stdy = 1; } else { alarm = 1; }
        compute(2500);
        done;
    }
"#;

#[test]
fn fig2c_compiled_program_is_safe_under_easeio() {
    for seed in 0..60u64 {
        let supply = Supply::timer(
            TimerResetConfig {
                on_min_us: 2_000,
                on_max_us: 7_000,
                off_min_us: 200_000,
                off_max_us: 2_000_000,
            },
            seed,
        );
        let (mcu, _, c, r) = run_compiled(FIG2C, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed);
        let both = c.vars["stdy"].get(&mcu.mem) == 1 && c.vars["alarm"].get(&mcu.mem) == 1;
        assert!(!both, "seed {seed}: both actuation flags set");
    }
}

/// The paper's Figure 4 program: inferred dependencies must make the
/// `Single` send repeat whenever a `Timely` sense refreshed.
const FIG4: &str = r#"
    task T1 {
        _IO_block_begin(Single);
        _IO_block_begin(Timely, 10);
        let p = _call_IO(Pres, Single);
        _IO_block_end;
        _IO_block_end;
        let temp = _call_IO(Temp, Timely, 50);
        let humd = _call_IO(Humd, Timely, 20);
        _call_IO(Send, Single, temp, humd);
        compute(2500);
        done;
    }
"#;

#[test]
fn fig4_compiled_dependencies_prevent_stale_sends() {
    // No manual dep declarations anywhere in the source: the front-end
    // infers that Send depends on temp and humd. Across long outages the
    // senses refresh; every refresh before a completed send must re-send,
    // so no two consecutive packets may carry identical payloads AND the
    // last packet must reflect the final sensing.
    for seed in 0..60u64 {
        let supply = Supply::timer(
            TimerResetConfig {
                on_min_us: 4_000,
                on_max_us: 9_000,
                off_min_us: 60_000,
                off_max_us: 120_000,
            },
            seed,
        );
        let (_, periph, _, r) = run_compiled(FIG4, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert!(periph.radio.count() >= 1, "seed {seed}");
        assert_eq!(
            periph.radio.duplicate_count(),
            0,
            "seed {seed}: a refreshed sense must trigger a fresh send, and a \
             skipped sense must not re-send"
        );
    }
}

#[test]
fn fig4_transformation_matches_the_paper_figure() {
    let out = easec::transform_source(FIG4).unwrap();
    // Fig 5's structure: time-window checks, private copies, depend flags.
    assert!(out.contains("(GetTime() - ts_Temp_T1_0) > 50"));
    assert!(out.contains("(GetTime() - ts_Humd_T1_0) > 20"));
    assert!(out.contains("depend_flg_Temp_T1_0"));
    assert!(out.contains("depend_flg_Humd_T1_0"));
    assert!(out.contains("flag_block_T1_0"));
    assert!(out.contains("flag_block_T1_1"));
}

/// A DSL version of the FIR-like in-place DMA pattern (Figure 2b / 6).
const WAR_DMA: &str = r#"
    __nv int sig[16];
    __nv int seen;
    task init {
        repeat (i, 16) { sig[i] = i * 3; }
        next work;
    }
    task work {
        let z = sig[0];
        _DMA_copy(sig[0], sig[4], 4);
        compute(2000);
        seen = z;
        compute(2000);
        done;
    }
"#;

#[test]
fn war_dma_pattern_is_consistent_under_easeio() {
    for seed in 0..80u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(WAR_DMA, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        let sig = &c.arrays["sig"];
        // Continuous semantics: sig[4..8] = sig[0..4] = [0,3,6,9];
        // z read before the DMA = 0.
        for (i, expected) in [(4u32, 0i16), (5, 3), (6, 6), (7, 9)] {
            assert_eq!(sig.get(&mcu.mem, i), expected, "seed {seed} sig[{i}]");
        }
        assert_eq!(
            c.vars["seen"].get(&mcu.mem),
            0,
            "seed {seed}: z must be the pre-DMA value"
        );
    }
}

#[test]
fn compiled_sensor_loop_uses_lock_arrays() {
    let src = r#"
        __nv int samples[8];
        task collect {
            repeat (i, 8) {
                samples[i] = _call_IO(Light, Single);
                compute(150);
            }
            done;
        }
    "#;
    let mut total_skipped = 0;
    let mut total_failures = 0;
    for seed in 0..20u64 {
        let supply = Supply::timer(
            TimerResetConfig {
                on_min_us: 1_500,
                on_max_us: 4_000,
                off_min_us: 300,
                off_max_us: 800,
            },
            seed,
        );
        let (mcu, _, c, r) = run_compiled(src, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        // Despite failures mid-loop, each sample was sensed exactly once.
        assert_eq!(r.stats.io_executed, 8, "seed {seed}");
        total_skipped += r.stats.io_skipped;
        total_failures += r.stats.power_failures;
        for i in 0..8 {
            let v = c.arrays["samples"].get(&mcu.mem, i);
            assert!((0..=4095).contains(&v), "seed {seed} sample {i} = {v}");
        }
    }
    assert!(total_failures > 0, "the schedule must produce failures");
    assert!(total_skipped > 0, "mid-loop failures must restore samples");
}

#[test]
fn compiled_apps_run_identically_on_baselines() {
    // The front-end targets the runtime interface, not EaseIO specifically:
    // the same compiled app runs under Alpaca/InK (which simply ignore the
    // annotations).
    for kind in [KernelKind::Alpaca, KernelKind::Ink, KernelKind::Naive] {
        let (mcu, _, c, r) = run_compiled(WAR_DMA, kind, Supply::continuous(), 1);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(c.arrays["sig"].get(&mcu.mem, 4), 0, "{}", kind.name());
    }
}

#[test]
fn compile_errors_are_reported_with_lines() {
    let mut mcu = Mcu::new(Supply::continuous());
    let err = easec::compile("task t {\n  x = 1;\n  done;\n}", &mut mcu).unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.msg.contains("undeclared"));
}

#[test]
fn artifact_temp_demo_runs_from_its_eio_source() {
    // The artifact appendix's benchmark, shipped as a program file.
    let src = include_str!("../examples/programs/artifact_temp.eio");
    let supply = Supply::timer(
        TimerResetConfig {
            on_min_us: 5_000,
            on_max_us: 15_000,
            off_min_us: 500,
            off_max_us: 2_000,
        },
        13,
    );
    let (mcu, _, c, r) = run_compiled(src, KernelKind::EaseIo, supply, 13);
    assert_eq!(r.outcome, Outcome::Completed);
    // At least one sense per sample; expired samples re-sense.
    assert!(r.stats.io_executed >= 30);
    for i in 0..30 {
        let v = c.arrays["samples"].get(&mcu.mem, i);
        assert!((100..=2500).contains(&v), "sample {i} = {v}");
    }
    assert_ne!(c.vars["checksum"].get(&mcu.mem), 0);
}

/// Software reference of the `.eio` FIR program (same fixed-point math as
/// the simulated LEA).
fn fir_eio_reference() -> Vec<i16> {
    let mut sig: Vec<i16> = (0..71).map(|i| (i * 3 - 90) as i16).collect();
    let coef: Vec<i16> = (0..8).map(|k| (k * 5 + 10) as i16).collect();
    for c in 0..4usize {
        let base = c * 16;
        let input: Vec<i16> = sig[base..base + 23].to_vec();
        for i in 0..16 {
            let mut acc: i32 = 0;
            for (k, h) in coef.iter().enumerate() {
                acc += *h as i32 * input[i + k] as i32;
            }
            sig[base + i] =
                (acc >> easeio_repro::periph::lea::ACC_SHIFT).clamp(-32768, 32767) as i16;
        }
    }
    sig
}

#[test]
fn fir_eio_program_matches_reference_under_easeio() {
    let src = include_str!("../examples/programs/fir.eio");
    let expected = fir_eio_reference();
    for seed in 0..50u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(src, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert_eq!(
            c.arrays["sig"].to_vec(&mcu.mem),
            expected,
            "seed {seed}: compiled FIR diverged from the reference"
        );
    }
}

#[test]
fn fir_eio_program_corrupts_under_alpaca() {
    let src = include_str!("../examples/programs/fir.eio");
    let expected = fir_eio_reference();
    let mut bad = 0;
    for seed in 0..80u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(src, KernelKind::Alpaca, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        if c.arrays["sig"].to_vec(&mcu.mem) != expected {
            bad += 1;
        }
    }
    assert!(
        bad > 0,
        "Alpaca never tripped over the in-place DMA pattern"
    );
}

#[test]
fn weather_dnn_eio_matches_the_reference_network() {
    use easeio_repro::apps::dnn;
    let src = include_str!("../examples/programs/weather_dnn.eio");
    let (fc_ref, class_ref) = dnn::reference_inference(&dnn::scene(7));
    for seed in [0u64, 7, 23, 91, 144] {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, periph, c, r) = run_compiled(src, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert_eq!(
            c.vars["cls"].get(&mcu.mem),
            class_ref as i32,
            "seed {seed}: inferred class"
        );
        let got: Vec<i16> = (0..4).map(|i| c.arrays["bufb"].get(&mcu.mem, i)).collect();
        assert_eq!(got, fc_ref, "seed {seed}: fully-connected activations");
        // And the class went out on the radio exactly once per value.
        let last = periph.radio.packets().last().expect("sent");
        assert_eq!(last.payload[2], class_ref as i32, "seed {seed}");
        assert_eq!(periph.radio.duplicate_count(), 0, "seed {seed}");
    }
}

#[test]
fn weather_dnn_eio_is_double_buffered_and_safe_on_baselines() {
    use easeio_repro::apps::dnn;
    let src = include_str!("../examples/programs/weather_dnn.eio");
    let (_, class_ref) = dnn::reference_inference(&dnn::scene(7));
    for seed in [3u64, 17] {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(src, KernelKind::Alpaca, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert_eq!(
            c.vars["cls"].get(&mcu.mem),
            class_ref as i32,
            "seed {seed}: double buffering keeps even Alpaca correct (Table 5)"
        );
    }
}

#[test]
fn weather_dnn_single_buffer_eio_reproduces_table5() {
    use easeio_repro::apps::dnn;
    let src = include_str!("../examples/programs/weather_dnn_single.eio");
    let (fc_ref, class_ref) = dnn::reference_inference(&dnn::scene(7));
    // EaseIO: always correct.
    for seed in 0..30u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(src, KernelKind::EaseIo, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert_eq!(c.vars["cls"].get(&mcu.mem), class_ref as i32, "seed {seed}");
        let got: Vec<i16> = (0..4).map(|i| c.arrays["img"].get(&mcu.mem, i)).collect();
        assert_eq!(got, fc_ref, "seed {seed}: shared-buffer activations");
    }
    // Alpaca: corrupts somewhere across the sweep (paper Table 5: ✗).
    let mut bad = 0;
    for seed in 0..60u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let (mcu, _, c, r) = run_compiled(src, KernelKind::Alpaca, supply, seed);
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        if c.vars["cls"].get(&mcu.mem) != class_ref as i32 {
            bad += 1;
            continue;
        }
        let got: Vec<i16> = (0..4).map(|i| c.arrays["img"].get(&mcu.mem, i)).collect();
        if got != fc_ref {
            bad += 1;
        }
    }
    assert!(bad > 0, "single-buffer Alpaca never corrupted the pipeline");
}
