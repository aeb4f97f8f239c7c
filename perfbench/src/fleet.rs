//! The fleet workload: a streamed fleet of radio relays, run by
//! `easeio_fleet` at one worker (the engine repetition) and re-driven
//! device by device from public functions under spans (the layer pass).

use crate::estimate::fingerprint;
use crate::spans::Recorder;
use crate::{energy_split, Counts, LayerOut, Rep, KIND};
use easeio_exec::{AppSpec, DeviceSpec, PoolStats, ScenarioSpec, SupplySpec};
use easeio_fleet::{
    reconcile_logs, run_fleet_streamed, DeviceResult, FleetAgg, StreamedFleetOutcome,
};
use easeio_trace::fleet::FleetInputs;
use easeio_trace::{
    build_fleet_report, identity_document, parse_json, validate_any_report, JsonlWriter,
    ShardedSink,
};
use kernel::{run_app, ExecConfig, FaultSpec};
use mcu_emu::{Mcu, Supply};
use periph::{MediumSpec, Peripherals};
use std::time::Instant;

/// DeviceResults kept from a layer pass for the `fleet` micro timings.
const SAMPLE_RESULTS: usize = 256;

/// Devices of the `fleet-stream` workload.
const STREAM_DEVICES: u32 = 2_000;
/// Devices of the fleet probe.
const PROBE_DEVICES: u32 = 64;
/// The devices' app: a radio relay, so the gateway has traffic.
const APP: &str = "flaky-radio";
/// Per-device fault rate, permille.
const FAULT_PERMILLE: u32 = 50;
/// Link loss of the shared radio medium, permille.
const LOSS_PERMILLE: u32 = 100;

/// Set-up replays timed after each engine repetition.
const SETUP_REPLAYS: usize = 4;

/// Base seed of every fleet's devices (the fleet CLI default). Device runs
/// derive from it alone, so the workload seed only moves the radio
/// medium: which packets the channel drops.
const DEVICE_SEED: u64 = 42;

fn scenario(count: u32, medium_seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named(APP.into()),
            kernel: KIND,
            fault: FaultSpec::with_rate(DEVICE_SEED, FAULT_PERMILLE),
        },
        count,
        supply: SupplySpec::Timer,
        medium: MediumSpec::lossy(medium_seed, LOSS_PERMILLE),
        seed: DEVICE_SEED,
        jobs: 1,
        ..ScenarioSpec::default()
    }
}

/// What every fleet repetition reports: the report's identity form plus a
/// fingerprint of the streamed JSONL, and the verdict tallies.
fn fleet_rep(inputs: &FleetInputs, stream_path: &str) -> Result<Rep, String> {
    let doc = build_fleet_report(inputs);
    let (len, hash) = std::fs::File::open(stream_path)
        .and_then(fingerprint)
        .map_err(|e| format!("{stream_path}: {e}"))?;
    let identity = format!(
        "{}\nstream {len} bytes fnv1a {hash:016x}",
        identity_document(&doc).to_compact()
    );
    let o = &inputs.outcomes;
    let (energy_nj, waste_nj) = energy_split(&inputs.energy.cause_energy_nj);
    let failed = o.non_terminated + o.faulted + o.incorrect + inputs.delivery.air_duplicates;
    let tallies = vec![
        ("items", inputs.devices),
        ("energy_nj", energy_nj),
        ("waste_nj", waste_nj),
        ("air_duplicates", inputs.delivery.air_duplicates),
        ("delivered_unique", inputs.delivery.delivered_unique),
        ("failed", failed),
    ];
    Ok(Rep {
        setup_parts: Vec::new(),
        item_parts: Vec::new(),
        items: inputs.devices,
        failed,
        identity,
        tallies,
    })
}

/// The item phase split into the device pool's wall time, which the
/// report's timing block records, and everything around it (the engine's
/// own template build, shards and merge, reconcile, report).
fn item_parts(items_s: f64, inputs: &FleetInputs) -> Vec<f64> {
    let pools_s = inputs
        .timing
        .as_ref()
        .map_or(0.0, |t| t.wall_us as f64 / 1e6);
    vec![pools_s, items_s - pools_s]
}

/// Builds and validates a fleet report: the `trace` crate's share of a
/// repetition. Returns the validation time, which no engine repetition
/// spends.
fn report(rec: &mut Recorder, inputs: &FleetInputs) -> f64 {
    let doc = rec.scope("trace.build_report", |_| build_fleet_report(inputs));
    let t = Instant::now();
    rec.scope("trace.validate_report", |_| {
        let v = parse_json(&doc.to_compact()).expect("fleet report is valid JSON");
        validate_any_report(&v).expect("fleet report validates");
    });
    t.elapsed().as_secs_f64()
}

/// A streamed fleet of identical devices (`run_fleet_streamed`).
pub struct FleetWorkload {
    spec: ScenarioSpec,
    stream_path: String,
}

impl FleetWorkload {
    /// `fleet-stream`: `flaky-radio` relays on a timer supply, 100‰ link
    /// loss, fault rate 50‰.
    pub fn stream(seed: u64, stream_path: String) -> Self {
        Self {
            spec: scenario(STREAM_DEVICES, seed),
            stream_path,
        }
    }

    /// The same fleet at [`PROBE_DEVICES`] devices: the fleet-layer probe
    /// of the sweep workload.
    pub fn probe(seed: u64, stream_path: String) -> Self {
        Self {
            spec: scenario(PROBE_DEVICES, seed),
            stream_path,
        }
    }

    /// The shared radio medium.
    pub fn medium(&self) -> MediumSpec {
        self.spec.medium
    }

    /// One engine repetition: the streamed fleet run plus its report, in
    /// the two parts of [`item_parts`]. `run_fleet_streamed` does not time
    /// its template build apart, so that build is part of the item phase
    /// and the repetition has no set-up part; see [`Self::setup_replay`].
    pub fn engine_rep(&self) -> Result<Rep, String> {
        let t0 = Instant::now();
        let mut out = JsonlWriter::create(&self.stream_path).map_err(|e| e.to_string())?;
        let r = run_fleet_streamed(&self.spec, &mut out, None)?;
        out.flush().map_err(|e| e.to_string())?;
        let inputs = r.report_inputs(&self.spec);
        std::hint::black_box(build_fleet_report(&inputs));
        let items_s = t0.elapsed().as_secs_f64();
        drop(out);
        let mut rep = fleet_rep(&inputs, &self.stream_path)?;
        rep.item_parts = item_parts(items_s, &inputs);
        Ok(rep)
    }

    /// Host seconds of a replay of the set-up `run_fleet_streamed` starts
    /// with: the template build and snapshot, from the same public calls.
    /// It runs apart from the engine repetition, which does the same work
    /// again inside its item phase. The fastest of [`SETUP_REPLAYS`]
    /// back-to-back replays: the first one after an engine repetition
    /// faults in the pages the engine freed (~300 µs against ~40 µs), so
    /// a single replay would time the allocator's state, not the set-up.
    pub fn setup_replay(&self) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for _ in 0..SETUP_REPLAYS {
            let t0 = Instant::now();
            let mut template = Mcu::new(Supply::continuous());
            self.spec.build_app(&mut template)?;
            std::hint::black_box(template.snapshot());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        Ok(best)
    }

    /// The same fleet re-driven device by device at one worker, the way
    /// `run_fleet_streamed` does it: restore the template snapshot, install
    /// the device's supply, peripherals and faults, run the app, fold the
    /// result and stream its record; then merge the stream, reconcile the
    /// radio logs and build the report. Keeps the first
    /// [`SAMPLE_RESULTS`] device results in `samples`.
    pub fn layer_pass(
        &self,
        rec: &mut Recorder,
        counts: &mut Counts,
        samples: &mut Vec<DeviceResult>,
    ) -> Result<LayerOut, String> {
        let spec = &self.spec;
        let t0 = Instant::now();
        let snap = {
            let mut template = Mcu::new(Supply::continuous());
            rec.scope("apps.build", |_| spec.build_app(&mut template))?;
            rec.scope("mcu-emu.snapshot", |_| template.snapshot())
        };
        let setup_s = t0.elapsed().as_secs_f64();

        let mut out = JsonlWriter::create(&self.stream_path).map_err(|e| e.to_string())?;
        let sink = ShardedSink::create(&self.stream_path, 1).map_err(|e| e.to_string())?;
        let shard = sink.claim();
        let mut mcu = Mcu::new(Supply::continuous());
        let app = rec.scope("apps.build", |_| spec.build_app(&mut mcu))?;
        let mut agg = FleetAgg::new();
        let mut packets = Vec::with_capacity(spec.count as usize);
        for device in 0..spec.count {
            let span = rec.begin("fleet.device");
            counts.restores += 1;
            counts.dirty_pages += crate::dirty_pages(&mcu);
            rec.scope("mcu-emu.restore", |_| mcu.restore(&snap));
            mcu.supply = spec.supply_for_device(device);
            let mut periph = Peripherals::new(spec.device_seed(device));
            let fault = spec.fault_for_device(device);
            fault.apply(&mut periph);
            let mut rt = spec.kernel_builder().with_faults(fault).build();
            let cfg = ExecConfig {
                retry: fault.retry,
                ..ExecConfig::default()
            };
            let r = rec.scope("kernel.run_app", |_| {
                run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &cfg)
            });
            counts.add_run(&r.stats);
            let result = DeviceResult {
                device,
                seed: spec.device_seed(device),
                outcome: r.outcome,
                verdict: r.verdict,
                wall_us: r.wall_us,
                on_us: r.on_us,
                stats: r.stats,
                packets: periph.radio.packets().to_vec(),
            };
            agg.observe(&result);
            sink.write(shard, device as u64, &result.record_line());
            if samples.len() < SAMPLE_RESULTS {
                samples.push(result.clone());
            }
            packets.push((device, result.packets));
            rec.end(span);
        }
        counts.items += spec.count as u64;
        let stream = rec
            .scope("trace.merge_into", |_| sink.merge_into(&mut out))
            .map_err(|e| e.to_string())?;
        let gateway = rec.scope("fleet.reconcile_logs", |_| {
            reconcile_logs(
                packets.iter().map(|(d, p)| (*d, p.as_slice())),
                &spec.medium,
            )
        });
        out.flush().map_err(|e| e.to_string())?;
        let outcome = StreamedFleetOutcome {
            agg,
            gateway,
            pool: PoolStats {
                jobs: 1,
                items_per_worker: vec![spec.count as u64],
                indices_per_worker: vec![(0..spec.count as usize).collect()],
                busy_us_per_worker: vec![0],
                wall_us: 0,
            },
            stream,
            packets,
        };
        let inputs = outcome.report_inputs(spec);
        let validate_s = report(rec, &inputs);
        let items_s = t0.elapsed().as_secs_f64() - setup_s - validate_s;
        drop(out);
        Ok(LayerOut {
            items_s,
            identity: fleet_rep(&inputs, &self.stream_path)?.identity,
        })
    }
}
