//! Ablations of EaseIO design choices (DESIGN.md §7).
//!
//! 1. `Timely` window sweep: how the freshness window trades re-sensing
//!    against staleness on the temperature workload.
//! 2. Failure-intensity sweep: how EaseIO's advantage over Alpaca scales
//!    with the mean on-period on the DMA workload.
//! 3. `Exclude` annotation: privatization cost avoided on constant data
//!    (the EaseIO vs EaseIO/Op delta, also visible in Figure 10).

use apps::harness::{run_many, KernelKind};
use easeio_bench::experiments::{
    ablation_reset_period, ablation_timely_window, fir_builder, paper_cfg,
};
use easeio_bench::format::{ms, print_table};

fn main() {
    let runs = easeio_bench::runs().min(300);
    println!("Ablations — {runs} seeded runs per cell");

    let rows: Vec<Vec<String>> = ablation_timely_window(runs)
        .into_iter()
        .map(|(w, re, skipped, total)| {
            vec![
                w.to_string(),
                re.to_string(),
                skipped.to_string(),
                ms(total),
            ]
        })
        .collect();
    print_table(
        "Ablation 1 — Timely window sweep (temperature app, EaseIO)",
        &["window ms", "re-executions", "restores", "mean total ms"],
        &rows,
    );
    println!("  Longer windows restore more and re-sense less; the data ages more.");

    let fmt = |v: Option<u64>| match v {
        Some(us) => ms(us),
        None => "livelock".to_string(),
    };
    let rows: Vec<Vec<String>> = ablation_reset_period(runs)
        .into_iter()
        .map(|r| {
            let speedup = match (r.alpaca_us, r.easeio_us) {
                (Some(a), Some(e)) => format!("{:.2}x", a as f64 / e.max(1) as f64),
                (None, Some(_)) => "∞ (Alpaca never finishes)".to_string(),
                _ => "-".to_string(),
            };
            vec![
                r.mean_on_ms.to_string(),
                fmt(r.alpaca_us),
                fmt(r.easeio_us),
                speedup,
            ]
        })
        .collect();
    print_table(
        "Ablation 2 — failure-intensity sweep (DMA app)",
        &["mean on-period ms", "Alpaca ms", "EaseIO ms", "speedup"],
        &rows,
    );
    println!("  Denser failures → more redundant re-execution for Alpaca → larger win.");

    let cfg = paper_cfg(runs);
    let plain = run_many("FIR", fir_builder(false).as_ref(), KernelKind::EaseIo, &cfg);
    let op = run_many(
        "FIR",
        fir_builder(true).as_ref(),
        KernelKind::EaseIoOp,
        &cfg,
    );
    let rows = vec![
        vec![
            "EaseIO".to_string(),
            ms(plain.mean_total_us()),
            ms(plain.overhead_us / plain.completed.max(1)),
        ],
        vec![
            "EaseIO/Op (Exclude)".to_string(),
            ms(op.mean_total_us()),
            ms(op.overhead_us / op.completed.max(1)),
        ],
    ];
    print_table(
        "Ablation 3 — Exclude on constant-coefficient DMAs (FIR)",
        &["variant", "mean total ms", "overhead ms"],
        &rows,
    );
    println!("  Exclude skips privatization for data that cannot create WAR hazards.");

    // 4. Persistent timekeeping: without the external timer circuit the
    //    paper's platform carries (§4.1), Timely cannot verify freshness and
    //    degrades to Always.
    ablation_timekeeper(runs);

    // 5. Shared vs dedicated DMA privatization buffers (paper §6).
    ablation_buffer_sharing();
}

fn ablation_timekeeper(runs: u64) {
    use apps::temp_app::{self, TempAppCfg};
    use easeio_core::{EaseIoConfig, EaseIoRuntime};
    use kernel::{run_app, ExecConfig, Outcome};
    use mcu_emu::{Mcu, Supply, TimerResetConfig};

    let measure = |persistent: bool| -> (u64, u64) {
        let mut skipped = 0;
        let mut executed = 0;
        for seed in 0..runs {
            let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
            let mut p = periph::Peripherals::new(seed);
            let app = temp_app::build(&mut mcu, &TempAppCfg::default());
            let mut rt = EaseIoRuntime::new(EaseIoConfig {
                persistent_timekeeper: persistent,
                ..EaseIoConfig::default()
            });
            let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed);
            skipped += r.stats.io_skipped;
            executed += r.stats.io_executed;
        }
        (executed, skipped)
    };
    let (with_exec, with_skip) = measure(true);
    let (without_exec, without_skip) = measure(false);
    print_table(
        "Ablation 4 — persistent timekeeping (temperature app, EaseIO)",
        &["timekeeper", "senses executed", "restores"],
        &[
            vec![
                "persistent".into(),
                with_exec.to_string(),
                with_skip.to_string(),
            ],
            vec![
                "volatile".into(),
                without_exec.to_string(),
                without_skip.to_string(),
            ],
        ],
    );
    println!("  Timely needs the external timing circuit; without it every");
    println!("  reboot forces a conservative re-sense (Timely ≈ Always).");
}

fn ablation_buffer_sharing() {
    use apps::weather::{self, WeatherCfg};
    use easeio_core::dma_rules::BufferMode;
    use easeio_core::{EaseIoConfig, EaseIoRuntime};
    use kernel::{run_app, ExecConfig, Outcome, Verdict};
    use mcu_emu::{Mcu, Supply};

    let measure = |mode: BufferMode| -> u32 {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut p = periph::Peripherals::new(7);
        let app = weather::build(&mut mcu, &WeatherCfg::default());
        let mut rt = EaseIoRuntime::new(EaseIoConfig {
            dma_buffer_mode: mode,
            ..EaseIoConfig::default()
        });
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.verdict, Some(Verdict::Correct));
        rt.dma_pool_used()
    };
    let dedicated = measure(BufferMode::Dedicated);
    let shared = measure(BufferMode::Shared { slot_bytes: 288 });
    print_table(
        "Ablation 5 — DMA privatization buffers (weather app)",
        &["mode", "pool bytes"],
        &[
            vec!["dedicated per site".into(), dedicated.to_string()],
            vec!["shared across tasks".into(), shared.to_string()],
        ],
    );
    println!("  Sharing slots across tasks (paper §6) trades pool memory for a");
    println!("  hard per-transfer size cap, enforced at run time here.");
}
