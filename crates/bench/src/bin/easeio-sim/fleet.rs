//! `fleet`: the device template replicated over a shared lossy radio
//! medium with exactly-once accounting at a simulated gateway, or with
//! `--rollout` an OTA update rolled out wave by wave.

use crate::flags::Args;
use crate::{
    app_repro_flag, die, emit_report, fault_repro_flags, faults_suffix, observer, verdict,
    ExitCode, ProgressGuard,
};
use easeio_exec::{AppSpec, PoolStats, ScenarioSpec};
use easeio_fleet::{
    find_air_duplicate, run_fleet, run_fleet_streamed, run_rollout, run_rollout_streamed,
    RolloutPolicy,
};
use easeio_trace::{
    build_fleet_report, build_forensics_report, FleetInputs, ForensicsInputs,
    ForensicsViolationDoc, JsonlWriter, Progress, StreamStats,
};
use periph::MediumSpec;

/// The flags only `--rollout` reads.
const ROLLOUT_ONLY: [&str; 4] = [
    "--wave-size",
    "--target-seq",
    "--no-abort",
    "--expect-update-violations",
];

pub fn main(a: &Args) -> ExitCode {
    let mut sc = a.scenario();
    sc.count = a.num("--devices").unwrap_or(256);
    if sc.count == 0 {
        a.fail("--devices must be at least 1");
    }
    a.check_replica_seeds(sc.seed, sc.count.into(), "--devices");
    let rollout = a.switch("--rollout");
    // `switch` reports whether a flag was given, value flags included.
    if !rollout && ROLLOUT_ONLY.iter().any(|f| a.switch(f)) {
        a.fail("--wave-size/--target-seq/--no-abort/--expect-update-violations need --rollout");
    }
    if rollout && (a.switch("--app") || a.switch("--source")) {
        a.fail("--rollout fixes the app to ota-update");
    }
    let mut medium = MediumSpec::lossy(
        a.num("--medium-seed").unwrap_or(sc.seed),
        a.num("--loss").unwrap_or(0),
    );
    if let Some(b) = a.num("--airtime-base-us") {
        medium.airtime_base_us = b;
    }
    if let Some(w) = a.num("--airtime-word-us") {
        medium.airtime_us_per_word = w;
    }
    sc.medium = medium;
    if rollout {
        // The rollout's device workload is the OTA-update app by
        // construction; pin the spec so the report says so.
        sc.device.app = AppSpec::Named("ota-update".into());
        let defaults = RolloutPolicy::default();
        let policy = RolloutPolicy {
            target_seq: a.num("--target-seq").unwrap_or(defaults.target_seq),
            wave_size: a.num("--wave-size").unwrap_or(defaults.wave_size),
            abort_on_regression: !a.switch("--no-abort"),
        };
        return rollout_main(a, &sc, &policy);
    }
    fleet_main(a, &sc)
}

/// Runs `engine` under the `--progress` monitor, writing the `--stream-out`
/// device stream if one was requested.
fn run_observed<R>(
    a: &Args,
    engine: impl FnOnce(Option<&mut JsonlWriter>, Option<&Progress>) -> Result<R, String>,
) -> R {
    let guard = ProgressGuard::start(a);
    let r = match a.opt("--stream-out") {
        Some(path) => {
            // Registered so an interrupted run still flushes what it wrote.
            let sink = JsonlWriter::create_registered(path)
                .unwrap_or_else(|e| die(&format!("cannot create device stream {path}: {e}")));
            let mut out = sink.lock().expect("device stream lock poisoned");
            engine(Some(&mut out), observer(&guard))
        }
        None => engine(None, observer(&guard)),
    };
    r.unwrap_or_else(|e| die(&e))
}

/// The closing lines both fleet forms print, and the validated report.
fn finish(
    a: &Args,
    sc: &ScenarioSpec,
    pool: &PoolStats,
    stream: &StreamStats,
    inputs: FleetInputs,
) {
    println!(
        "  pool:       {} job(s), {:.2} ms wall",
        pool.jobs,
        pool.wall_us as f64 / 1000.0
    );
    if let Some(path) = a.opt("--stream-out") {
        println!(
            "  stream:     {} device records -> {} ({} shard files)",
            stream.records, path, stream.shards
        );
    }
    if let Some(path) = &sc.report_out {
        emit_report(path, &build_fleet_report(&inputs), "fleet report");
    }
}

fn fleet_main(a: &Args, sc: &ScenarioSpec) -> ExitCode {
    let r = run_observed(a, |sink, progress| match sink {
        Some(out) => run_fleet_streamed(sc, out, progress),
        None => run_fleet(sc, progress),
    });
    let (o, straggle, energy) = (r.agg.outcomes(), r.agg.stragglers(), r.agg.energy());
    let (g, power_failures) = (&r.gateway, r.agg.power_failures());
    println!(
        "fleet: {} × {} under {} on {} supply (seed {}, medium {}{})",
        sc.count,
        sc.device.app.label(),
        sc.device.kernel.name(),
        sc.supply.label(),
        sc.seed,
        sc.medium.label(),
        faults_suffix(&sc.device.fault)
    );
    println!(
        "  outcomes:   {} completed / {} non-terminated / {} faulted; {} correct / {} incorrect",
        o.completed, o.non_terminated, o.faulted, o.correct, o.incorrect
    );
    println!("  reboots:    {power_failures} power failures across the fleet");
    println!(
        "  air:        {} transmissions, {} unique, {} duplicates",
        g.transmissions, g.unique_sent, g.air_duplicates
    );
    println!(
        "  delivery:   {} delivered ({} unique, {}.{}% of sent identities), \
         {} lost to collisions, {} to the channel",
        g.delivered,
        g.delivered_unique,
        g.delivery_rate_milli / 10,
        g.delivery_rate_milli % 10,
        g.lost_collision,
        g.lost_channel
    );
    println!(
        "  stragglers: wall p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        straggle.p50_wall_us as f64 / 1000.0,
        straggle.p90_wall_us as f64 / 1000.0,
        straggle.p99_wall_us as f64 / 1000.0,
        straggle.max_wall_us as f64 / 1000.0
    );
    println!(
        "  energy:     {:.2} µJ fleet total",
        energy.total_energy_nj as f64 / 1000.0
    );
    finish(a, sc, &r.pool, &r.stream, r.report_inputs(sc));
    if let Some(path) = a.opt("--forensics-out") {
        let logs = r.packets.iter().map(|(d, p)| (*d, p.as_slice()));
        match &find_air_duplicate(logs) {
            Some(d) => {
                let mut repro = format!(
                    "easeio-sim fleet --devices {} {} --kernel {} --seed {} \
                     --loss {} --medium-seed {}",
                    sc.count,
                    app_repro_flag(&sc.device.app),
                    sc.device.kernel.cli_name(),
                    sc.seed,
                    sc.medium.loss_permille,
                    sc.medium.seed,
                );
                repro.push_str(&fault_repro_flags(&sc.device.fault));
                repro.push_str(" --expect-duplicates");
                let inputs = ForensicsInputs {
                    source: "fleet".into(),
                    runtime: sc.device.kernel.name().into(),
                    app: sc.device.app.label().to_string(),
                    seed: sc.seed,
                    violation: ForensicsViolationDoc {
                        kind: "air_duplicate".into(),
                        detail: format!(
                            "device {} transmitted identity {} twice \
                             (packets {} and {}) — Single semantics violated",
                            d.device, d.seq, d.first_index, d.dup_index
                        ),
                        boundary: None,
                        spend_seq: None,
                        device: Some(d.device as u64),
                        wave: None,
                    },
                    fault_spec: sc.device.fault.doc(),
                    context: vec![
                        ("devices".into(), sc.count as u64),
                        ("transmissions".into(), g.transmissions),
                        ("air_duplicates".into(), g.air_duplicates),
                        ("loss_permille".into(), sc.medium.loss_permille as u64),
                    ],
                    fram_diff: None,
                    repro_command: repro,
                };
                emit_report(path, &build_forensics_report(&inputs), "forensics bundle");
            }
            None => println!("forensics: no air duplicates — nothing written to {path}"),
        }
    }
    verdict(
        g.air_duplicates,
        a.switch("--expect-duplicates"),
        a.switch("--allow-duplicates"),
        "duplicate transmissions",
        Some(format!(
            "{} duplicate transmission(s) hit the air — Single semantics violated",
            g.air_duplicates
        )),
    )
}

/// `fleet --rollout`: rolling OTA update, convergence summary, the report's
/// `rollout` block, and the update-safety verdict.
fn rollout_main(a: &Args, sc: &ScenarioSpec, policy: &RolloutPolicy) -> ExitCode {
    let r = run_observed(a, |sink, progress| match sink {
        Some(out) => run_rollout_streamed(sc, policy, out, progress),
        None => run_rollout(sc, policy, progress),
    });
    let s = &r.stats;
    println!(
        "rollout: {} devices to image seq {} under {} on {} supply \
         (seed {}, medium {}, waves of {})",
        sc.count,
        s.target_seq,
        sc.device.kernel.name(),
        sc.supply.label(),
        sc.seed,
        sc.medium.label(),
        s.wave_size
    );
    println!(
        "  waves:      {} of {} rolled out{}",
        s.waves_rolled_out,
        s.waves,
        if s.aborted {
            " — ABORTED on a wave regression"
        } else {
            ""
        }
    );
    println!(
        "  versions:   {} on seq {}, {} on seq 1 ({} stragglers, {} stale), {} failed",
        s.updated,
        s.target_seq,
        s.stragglers + s.stale,
        s.stragglers,
        s.stale,
        s.update_failed
    );
    println!(
        "  downlink:   {} chunk transmissions, {} lost to the channel",
        s.downlink_chunks_sent, s.downlink_chunks_lost
    );
    println!(
        "  safety:     {} torn image(s), {} duplicate activation(s)",
        s.version_torn, s.duplicate_activations
    );
    finish(a, sc, &r.pool, &r.stream, r.report_inputs(sc));
    if let Some(path) = a.opt("--forensics-out") {
        match &r.first_violation {
            Some(v) => {
                let mut repro = format!(
                    "easeio-sim fleet --rollout --devices {} --kernel {} --seed {} \
                     --wave-size {} --target-seq {} --loss {} --medium-seed {}",
                    sc.count,
                    sc.device.kernel.cli_name(),
                    sc.seed,
                    s.wave_size,
                    s.target_seq,
                    sc.medium.loss_permille,
                    sc.medium.seed,
                );
                if !policy.abort_on_regression {
                    repro.push_str(" --no-abort");
                }
                repro.push_str(&fault_repro_flags(&sc.device.fault));
                repro.push_str(" --expect-update-violations");
                let inputs = ForensicsInputs {
                    source: "rollout".into(),
                    runtime: sc.device.kernel.name().into(),
                    app: sc.device.app.label().to_string(),
                    seed: sc.seed,
                    violation: ForensicsViolationDoc {
                        kind: v.kind.label().into(),
                        detail: format!(
                            "device {} tripped the {} probe during wave {}",
                            v.device,
                            v.kind.label(),
                            v.wave + 1
                        ),
                        boundary: None,
                        spend_seq: None,
                        device: Some(v.device as u64),
                        wave: Some(v.wave as u64 + 1),
                    },
                    fault_spec: sc.device.fault.doc(),
                    context: vec![
                        ("devices".into(), sc.count as u64),
                        ("waves".into(), s.waves),
                        ("wave_size".into(), s.wave_size),
                        ("target_seq".into(), s.target_seq),
                        ("version_torn".into(), s.version_torn),
                        ("duplicate_activations".into(), s.duplicate_activations),
                    ],
                    fram_diff: None,
                    repro_command: repro,
                };
                emit_report(path, &build_forensics_report(&inputs), "forensics bundle");
            }
            None => println!("forensics: no update-safety violations — nothing written to {path}"),
        }
    }
    verdict(
        s.version_torn + s.duplicate_activations,
        a.switch("--expect-update-violations"),
        false,
        "torn images or duplicate activations",
        Some(format!(
            "{} torn image(s) and {} duplicate activation(s) — \
             old-or-new update atomicity violated",
            s.version_torn, s.duplicate_activations
        )),
    )
}
