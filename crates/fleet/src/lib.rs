//! easeio-fleet — fleet-scale simulation on the deterministic engine.
//!
//! The paper validates EaseIO on one MCU; its headline workloads (sense-
//! and-transmit relays with `Single` packet semantics) only become
//! interesting at fleet scale, where N batteryless devices contend for a
//! lossy radio and a gateway must see each packet exactly once. This crate
//! instantiates a [`ScenarioSpec`] — device template × replication count ×
//! shared medium — as N independent device runs sharded across the
//! `easeio-exec` pool, then reconciles their radio logs at a simulated
//! [`gateway`].
//!
//! Determinism is the load-bearing property (DESIGN.md §15):
//!
//! * every device's result depends only on its device index — worker-local
//!   machines are restored from one shared copy-on-write
//!   [`mcu_emu::McuSnapshot`] of the template, supplies and
//!   fault plans derive from `seed + device`, and the pool merges results
//!   in device order — so the fleet report is **byte-identical at any
//!   `--jobs` width**;
//! * the gateway is a pure post-pass over the merged logs with a total
//!   event order and hash-keyed loss draws, adding no ordering freedom;
//! * a fleet of N = 1 devices reproduces a plain single-device run at the
//!   same seed exactly (the `ScenarioSpec` refactor's no-regression
//!   anchor, proptested in `tests/equivalence.rs`).
//!
//! Per-device state lives in the CoW page snapshot: restoring a device
//! only copies the pages the previous run dirtied, so a mostly-idle fleet
//! costs ~nothing per extra device and 10k+ devices are practical.
//!
//! ## One engine
//!
//! Every fleet run and every rollout wave goes through one private
//! device-batch routine. Each pool worker restores the shared template
//! snapshot into its cached machine, resets its cached runtime and
//! peripherals to the template's boot state, runs the device, folds the
//! result into its own [`FleetAgg`] and — when the caller passed a sink —
//! appends the device's JSONL record to its own shard. Afterwards the
//! shards k-way-merge into the sink in device order and the per-worker
//! aggregates merge into one. Only the radio logs (needed by the gateway's
//! collision merge) survive per device, so peak memory stays O(workers +
//! sketches + radio logs) with or without a sink. The fold is commutative,
//! so the report is byte-identical at any `--jobs` width, and a run with a
//! sink differs from one without only in the records it wrote.

pub mod gateway;
pub mod rollout;
pub mod telemetry;

pub use gateway::{find_air_duplicate, reconcile_logs, AirDuplicate};
pub use rollout::{
    run_rollout, run_rollout_streamed, RolloutPolicy, RolloutViolation, RolloutViolationKind,
    StreamedRolloutOutcome,
};
pub use telemetry::FleetAgg;

use easeio_exec::{run_indexed_collect, PoolStats, ScenarioSpec};
use easeio_trace::fleet::{FleetDeliveryDoc, FleetInputs, FleetMediumDoc, FleetTimingDoc};
use easeio_trace::json::write_u64;
use easeio_trace::stream::{JsonlWriter, ShardedSink, StreamStats};
use easeio_trace::Progress;
use kernel::{reset_runtime, run_app, App, ExecConfig, Outcome, Runtime, Verdict};
use mcu_emu::{Mcu, McuSnapshot, RunStats, Supply};
use periph::{Environment, MediumSpec, Packet, Peripherals};

/// Everything one device's run produced: what the worker folds into its
/// [`FleetAgg`] and streams as the device's record.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Device index (0-based).
    pub device: u32,
    /// The seed this device derived its environment/supply/faults from.
    pub seed: u64,
    /// How the run ended.
    pub outcome: Outcome,
    /// Application correctness, if the app defines a check.
    pub verdict: Option<Verdict>,
    /// Total wall-clock including dead time (virtual µs).
    pub wall_us: u64,
    /// On-time (virtual µs).
    pub on_us: u64,
    /// The device's full time/energy ledger.
    pub stats: RunStats,
    /// Every packet the device put on the air, in transmission order.
    pub packets: Vec<Packet>,
}

impl DeviceResult {
    /// The device's `--stream-out` JSONL record (compact, canonical key
    /// order). Pure in the result, so the merged stream is byte-identical
    /// at any `--jobs` width. Written field by field into one buffer, with
    /// numbers formatted as [`easeio_trace::Value::to_compact`] formats them.
    pub fn record_line(&self) -> String {
        let outcome = self.outcome.label();
        let verdict = match &self.verdict {
            Some(Verdict::Correct) => "\"correct\"",
            Some(Verdict::Incorrect(_)) => "\"incorrect\"",
            None => "null",
        };
        // One allocation: a record stays well under 192 bytes.
        let mut line = String::with_capacity(192);
        let num = |line: &mut String, key: &str, n: u64| {
            line.push_str(key);
            write_u64(line, n);
        };
        num(&mut line, "{\"device\":", u64::from(self.device));
        num(&mut line, ",\"seed\":", self.seed);
        line.push_str(",\"outcome\":\"");
        line.push_str(outcome);
        line.push_str("\",\"verdict\":");
        line.push_str(verdict);
        num(&mut line, ",\"wall_us\":", self.wall_us);
        num(&mut line, ",\"on_us\":", self.on_us);
        num(&mut line, ",\"energy_nj\":", self.stats.total_energy_nj());
        num(&mut line, ",\"power_failures\":", self.stats.power_failures);
        num(&mut line, ",\"packets\":", self.packets.len() as u64);
        line.push('}');
        line
    }
}

/// A fleet run: the bounded aggregate and gateway accounting, with any
/// per-device records already in the sink instead of in memory.
#[derive(Debug)]
pub struct StreamedFleetOutcome {
    /// Fleet-wide aggregate (merged per-worker folds).
    pub agg: FleetAgg,
    /// Gateway delivery accounting over the shared medium.
    pub gateway: FleetDeliveryDoc,
    /// Worker utilization (host timing; stripped from report identity).
    pub pool: PoolStats,
    /// What the sharded sink merged (all zero for a run without a sink).
    pub stream: StreamStats,
    /// Per-device radio logs in device order — the one per-device datum
    /// the gateway's collision merge cannot reduce incrementally.
    pub packets: Vec<(u32, Vec<Packet>)>,
}

/// Builds a template's app on a machine.
type BuildApp<'a> = dyn Fn(&mut Mcu) -> Result<App, String> + Sync + 'a;

/// A device image a batch restores: the shared CoW snapshot with the
/// boot runtime and peripherals every device starts from, and how a
/// worker builds the matching machine + app the first time it serves it.
struct Template<'a> {
    snap: McuSnapshot,
    rt: Box<dyn Runtime>,
    periph: Peripherals,
    build: Box<BuildApp<'a>>,
}

impl<'a> Template<'a> {
    /// Builds the image once on the coordinator — so workers can't hit a
    /// build error mid-pool — and snapshots it, next to a fresh `spec`
    /// kernel and fault-free peripherals. Allocator addresses are
    /// deterministic, so every worker's lazily built machine matches.
    fn new(
        spec: &ScenarioSpec,
        build: impl Fn(&mut Mcu) -> Result<App, String> + Sync + 'a,
    ) -> Result<Self, String> {
        let mut template = Mcu::new(Supply::continuous());
        build(&mut template)?;
        Ok(Self {
            snap: template.snapshot(),
            rt: spec.kernel_builder().build(),
            periph: Peripherals::new(spec.seed),
            build: Box::new(build),
        })
    }
}

/// A worker's device state for one template: the machine and app, and
/// the runtime and peripherals every device it serves resets.
struct DeviceState {
    mcu: Mcu,
    app: App,
    rt: Box<dyn Runtime>,
    periph: Peripherals,
}

/// Runs one device on a worker's cached state for `template`: the shared
/// snapshot restored, the runtime and peripherals reset to the template's
/// boot state in place, then the device's supply, environment seed and
/// fault plan installed. The result is a function of `(spec, template,
/// device)` alone — the determinism contract every `--jobs` width relies
/// on.
fn run_device(
    spec: &ScenarioSpec,
    template: &Template,
    cache: &mut Option<DeviceState>,
    device: u32,
) -> DeviceResult {
    let DeviceState {
        mcu,
        app,
        rt,
        periph,
    } = cache.get_or_insert_with(|| {
        let mut mcu = Mcu::new(Supply::continuous());
        let app = (template.build)(&mut mcu).expect("template validated on the coordinator");
        DeviceState {
            mcu,
            app,
            rt: template.rt.clone_state(),
            periph: template.periph.clone(),
        }
    });
    mcu.restore(&template.snap);
    mcu.supply = spec.supply_for_device(device);
    reset_runtime(rt, &*template.rt);
    periph.clone_from(&template.periph);
    periph.env = Environment::new(spec.device_seed(device));
    let fault = spec.fault_for_device(device);
    fault.apply(periph);
    let cfg = ExecConfig {
        retry: fault.retry,
        ..ExecConfig::default()
    };
    let r = run_app(app, rt.as_mut(), mcu, periph, &cfg);
    DeviceResult {
        device,
        seed: spec.device_seed(device),
        outcome: r.outcome,
        verdict: r.verdict,
        wall_us: r.wall_us,
        on_us: r.on_us,
        stats: r.stats,
        packets: periph.radio.packets().to_vec(),
    }
}

/// What one device batch yields.
struct Batch<R> {
    /// `keep` of every device, in item order.
    kept: Vec<R>,
    /// The merged per-worker aggregates.
    agg: FleetAgg,
    pool: PoolStats,
    stream: StreamStats,
}

/// The one device-batch routine: runs every `(device, template index)`
/// item on the pool, each worker holding a cached device state per
/// template, a [`FleetAgg`], and — when `out` is given — a shard of a
/// sharded sink; then merges the shards into `out` in device order and the
/// aggregates into one. `keep` picks what survives of each device's result.
fn run_batch<R: Send>(
    spec: &ScenarioSpec,
    templates: &[Template],
    items: &[(u32, u32)],
    out: Option<&mut JsonlWriter>,
    progress: Option<&Progress>,
    keep: impl Fn(DeviceResult) -> R + Sync,
) -> Result<Batch<R>, String> {
    let jobs = spec.jobs.max(1).min(items.len().max(1));
    let sink = match &out {
        Some(w) => Some(
            ShardedSink::create(w.path(), jobs)
                .map_err(|e| format!("stream shards for {}: {e}", w.path()))?,
        ),
        None => None,
    };
    let (kept, aggs, pool) = run_indexed_collect(
        spec.jobs,
        items,
        || {
            let cache: Vec<Option<DeviceState>> = templates.iter().map(|_| None).collect();
            (
                cache,
                FleetAgg::new(),
                sink.as_ref().map(ShardedSink::claim),
            )
        },
        |(cache, agg, shard), _, &(device, image)| {
            let image = image as usize;
            let r = run_device(spec, &templates[image], &mut cache[image], device);
            agg.observe(&r);
            if let (Some(sink), Some(k)) = (&sink, *shard) {
                sink.write(k, device as u64, &r.record_line());
            }
            if let Some(p) = progress {
                p.add(1);
            }
            keep(r)
        },
        |(_, agg, _)| agg,
    );
    let stream = match (sink, out) {
        (Some(sink), Some(w)) => sink
            .merge_into(w)
            .map_err(|e| format!("stream merge into {}: {e}", w.path()))?,
        _ => StreamStats::default(),
    };
    let mut agg = FleetAgg::new();
    for worker in &aggs {
        agg.merge(worker);
    }
    Ok(Batch {
        kept,
        agg,
        pool,
        stream,
    })
}

/// The gateway post-pass over the device-ordered radio logs, ticked as
/// its own one-unit `"reconcile"` progress phase.
fn reconcile_phase(
    packets: &[(u32, Vec<Packet>)],
    medium: &MediumSpec,
    progress: Option<&Progress>,
) -> FleetDeliveryDoc {
    if let Some(p) = progress {
        p.begin_phase("reconcile", 1);
    }
    let gateway = reconcile_logs(packets.iter().map(|(d, p)| (*d, p.as_slice())), medium);
    if let Some(p) = progress {
        p.add(1);
    }
    gateway
}

/// Runs the scenario's fleet: `spec.count` devices, sharded across
/// `spec.jobs` workers, reconciled at the gateway. `progress` ticks one
/// unit per device in a `"devices"` phase.
///
/// Every worker builds its own template machine + app once, then serves
/// devices by restoring the shared CoW snapshot, resetting its runtime and
/// peripherals in place, and installing the device's supply, environment
/// seed and fault plan — the same restore discipline the crash
/// sweep uses, which is what makes results a function of the device index
/// alone.
pub fn run_fleet(
    spec: &ScenarioSpec,
    progress: Option<&Progress>,
) -> Result<StreamedFleetOutcome, String> {
    fleet(spec, None, progress)
}

/// [`run_fleet`] that also streams every device's record into `out`, in
/// device order: each worker appends to a private JSONL shard and the
/// shards k-way-merge into `out` afterwards. The stream and the report are
/// byte-identical at any `--jobs` width.
pub fn run_fleet_streamed(
    spec: &ScenarioSpec,
    out: &mut JsonlWriter,
    progress: Option<&Progress>,
) -> Result<StreamedFleetOutcome, String> {
    fleet(spec, Some(out), progress)
}

fn fleet(
    spec: &ScenarioSpec,
    out: Option<&mut JsonlWriter>,
    progress: Option<&Progress>,
) -> Result<StreamedFleetOutcome, String> {
    if spec.count == 0 {
        return Err("a fleet needs at least 1 device".into());
    }
    let template = Template::new(spec, |mcu| spec.build_app(mcu))?;
    if let Some(p) = progress {
        p.begin_phase("devices", spec.count as u64);
    }
    let items: Vec<(u32, u32)> = (0..spec.count).map(|device| (device, 0)).collect();
    let batch = run_batch(spec, &[template], &items, out, progress, |r| {
        (r.device, r.packets)
    })?;
    let gateway = reconcile_phase(&batch.kept, &spec.medium, progress);
    Ok(StreamedFleetOutcome {
        agg: batch.agg,
        gateway,
        pool: batch.pool,
        stream: batch.stream,
        packets: batch.kept,
    })
}

/// The report assembly every fleet and rollout feeds: everything comes
/// from the commutative [`FleetAgg`] and the order-independent gateway
/// ledger, so every `--jobs` width renders identically outside the
/// stripped `timing` block.
pub(crate) fn fleet_inputs(
    spec: &ScenarioSpec,
    agg: &FleetAgg,
    delivery: &FleetDeliveryDoc,
    timing: FleetTimingDoc,
) -> FleetInputs {
    FleetInputs {
        runtime: spec.device.kernel.name().to_string(),
        app: spec.device.app.label().to_string(),
        devices: spec.count as u64,
        seed: spec.seed,
        supply: spec.supply.label(),
        medium: FleetMediumDoc {
            seed: spec.medium.seed,
            loss_permille: spec.medium.loss_permille as u64,
            airtime_base_us: spec.medium.airtime_base_us,
            airtime_us_per_word: spec.medium.airtime_us_per_word,
        },
        fault_spec: spec.device.fault.doc(),
        outcomes: agg.outcomes(),
        power_failures: agg.power_failures(),
        delivery: delivery.clone(),
        energy: agg.energy(),
        stragglers: agg.stragglers(),
        rollout: None,
        timing: Some(timing),
    }
}

/// Host timing block from a pool record (measurement, stripped from
/// report identity), including the process peak RSS the memory-ceiling CI
/// gate reads. `streamed_records` appears only when a sink ran.
pub(crate) fn timing_doc(pool: &PoolStats, stream: &StreamStats) -> FleetTimingDoc {
    FleetTimingDoc {
        jobs: pool.jobs as u64,
        wall_us: pool.wall_us,
        devices_per_worker: pool.items_per_worker.clone(),
        busy_us_per_worker: pool.busy_us_per_worker.clone(),
        peak_rss_bytes: mcu_emu::peak_rss_bytes(),
        streamed_records: (stream.shards > 0).then_some(stream.records),
    }
}

impl StreamedFleetOutcome {
    /// The `kind: "fleet"` report inputs. Host timing from the pool is
    /// included; `identity_document` strips it before any `--jobs`
    /// comparison.
    pub fn report_inputs(&self, spec: &ScenarioSpec) -> FleetInputs {
        fleet_inputs(
            spec,
            &self.agg,
            &self.gateway,
            timing_doc(&self.pool, &self.stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_exec::{AppSpec, DeviceSpec, SupplySpec};
    use easeio_trace::fleet::build_fleet_report;
    use easeio_trace::{validate_any_report, Value};
    use kernel::{FaultSpec, KernelKind};

    fn radio_fleet(count: u32, kernel: KernelKind) -> ScenarioSpec {
        ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("flaky-radio".into()),
                kernel,
                ..DeviceSpec::default()
            },
            count,
            ..ScenarioSpec::default()
        }
    }

    /// The record as a JSON value, rendered by the generic writer: what
    /// `record_line` must equal byte for byte.
    fn record_value(r: &DeviceResult) -> Value {
        let outcome = r.outcome.label();
        let verdict = match &r.verdict {
            Some(Verdict::Correct) => Value::str("correct"),
            Some(Verdict::Incorrect(_)) => Value::str("incorrect"),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("device".into(), Value::u64(r.device as u64)),
            ("seed".into(), Value::u64(r.seed)),
            ("outcome".into(), Value::str(outcome)),
            ("verdict".into(), verdict),
            ("wall_us".into(), Value::u64(r.wall_us)),
            ("on_us".into(), Value::u64(r.on_us)),
            ("energy_nj".into(), Value::u64(r.stats.total_energy_nj())),
            ("power_failures".into(), Value::u64(r.stats.power_failures)),
            ("packets".into(), Value::u64(r.packets.len() as u64)),
        ])
    }

    #[test]
    fn record_line_equals_the_generic_json_rendering() {
        let fleet_spec = radio_fleet(3, KernelKind::Naive);
        let template = Template::new(&fleet_spec, |mcu| fleet_spec.build_app(mcu)).unwrap();
        let mut cache = None;
        let mut r = run_device(&fleet_spec, &template, &mut cache, 2);
        assert_eq!(r.record_line(), record_value(&r).to_compact());
        // Every outcome and verdict shape, and numbers past 2^53 (which the
        // generic writer renders through f64).
        r.outcome = Outcome::NonTermination;
        r.verdict = None;
        r.seed = u64::MAX;
        r.wall_us = (1 << 53) + 1;
        r.on_us = 9_000_000_000_000_001;
        assert_eq!(r.record_line(), record_value(&r).to_compact());
        r.verdict = Some(Verdict::Incorrect("x".into()));
        r.outcome = Outcome::Fault(kernel::Fault::Power(mcu_emu::PowerFailure));
        assert_eq!(r.record_line(), record_value(&r).to_compact());
    }

    /// A worker resets its runtime and peripherals per device: a device
    /// run after others on a warm worker equals the same device on a fresh
    /// worker, under every kernel, with faults injected — its result, and
    /// the runtime, peripherals and allocations it leaves behind.
    #[test]
    fn a_device_on_a_warm_worker_equals_it_on_a_fresh_one() {
        for kernel in KernelKind::ALL {
            let spec = ScenarioSpec {
                device: DeviceSpec {
                    fault: FaultSpec::with_rate(9, 120),
                    ..radio_fleet(16, kernel).device
                },
                supply: SupplySpec::Timer,
                ..radio_fleet(16, kernel)
            };
            let template = Template::new(&spec, |mcu| spec.build_app(mcu)).unwrap();
            let mut warm = None;
            for device in 0..12 {
                run_device(&spec, &template, &mut warm, device);
            }
            for device in [3, 12, 15] {
                let reused = run_device(&spec, &template, &mut warm, device);
                let mut cold = None;
                let fresh = run_device(&spec, &template, &mut cold, device);
                let what = format!("{kernel:?} device {device}");
                let (w, c) = (warm.as_ref().unwrap(), cold.as_ref().unwrap());
                assert!(w.rt.state_eq(&*c.rt), "{what}");
                assert_eq!(w.periph, c.periph, "{what}");
                assert_eq!(w.mcu.mem.allocations(), c.mcu.mem.allocations(), "{what}");
                assert_eq!(reused.outcome, fresh.outcome, "{what}");
                assert_eq!(reused.verdict, fresh.verdict, "{what}");
                assert_eq!(reused.stats, fresh.stats, "{what}");
                assert_eq!(reused.packets, fresh.packets, "{what}");
                assert_eq!(reused.record_line(), fresh.record_line(), "{what}");
            }
        }
    }

    #[test]
    fn small_easeio_fleet_delivers_exactly_once() {
        let spec = radio_fleet(8, KernelKind::EaseIo);
        let fleet = run_fleet(&spec, None).unwrap();
        assert_eq!(fleet.packets.len(), 8);
        let o = fleet.agg.outcomes();
        assert_eq!(o.completed, 8);
        assert_eq!(o.correct, 8);
        // Single semantics: no identity transmits twice, even across the
        // fleet's power failures.
        assert_eq!(fleet.gateway.air_duplicates, 0);
        assert!(fleet.agg.power_failures() > 0, "timer supply must cycle");
        // Device seeds decorrelate the supplies: not all wall-clocks equal.
        let wall = fleet.agg.wall();
        assert!(wall.min() < wall.max(), "{wall:?}");
    }

    #[test]
    fn fleet_report_validates_as_kind_fleet() {
        let spec = radio_fleet(4, KernelKind::EaseIo);
        let fleet = run_fleet(&spec, None).unwrap();
        let doc = build_fleet_report(&fleet.report_inputs(&spec));
        let parsed = easeio_trace::parse_json(&doc.to_pretty()).unwrap();
        assert_eq!(
            validate_any_report(&parsed),
            Ok(easeio_trace::ReportKind::Fleet)
        );
    }

    #[test]
    fn empty_fleet_is_an_error_and_bad_apps_fail_early() {
        let mut spec = radio_fleet(0, KernelKind::EaseIo);
        assert!(run_fleet(&spec, None).is_err());
        spec.count = 1;
        spec.device.app = AppSpec::Named("no-such-app".into());
        assert!(run_fleet(&spec, None).unwrap_err().contains("no-such-app"));
    }

    #[test]
    fn attribution_stays_balanced_across_the_fleet() {
        let spec = radio_fleet(6, KernelKind::Alpaca);
        let energy = run_fleet(&spec, None).unwrap().agg.energy();
        let cause_sum: u64 = energy.cause_energy_nj.iter().sum();
        assert_eq!(cause_sum, energy.total_energy_nj);
    }

    #[test]
    fn sink_receives_one_device_ordered_record_per_device() {
        let dir = std::env::temp_dir().join("easeio-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("stream-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut spec = radio_fleet(12, KernelKind::EaseIo);
        spec.jobs = 4;
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_fleet_streamed(&spec, &mut out, None).unwrap();
        drop(out);
        assert_eq!(streamed.stream.records, 12);
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            let rec = easeio_trace::parse_json(line).unwrap();
            assert_eq!(rec.get("device").and_then(Value::as_u64), Some(i as u64));
        }
        assert_eq!(text.lines().count(), 12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_ticks_through_the_fleet_phases() {
        let spec = radio_fleet(5, KernelKind::EaseIo);
        let progress = Progress::new();
        run_fleet(&spec, Some(&progress)).unwrap();
        let s = progress.snapshot();
        assert_eq!(s.phase, "reconcile");
        assert_eq!((s.done, s.total), (1, 1));
    }
}
