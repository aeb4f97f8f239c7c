//! Rolling over-the-air update across the fleet — the gateway side of the
//! crash-safe update subsystem.
//!
//! The gateway pushes a new task-graph image (sequence [`RolloutPolicy::
//! target_seq`]) to the fleet wave by wave. For each device in an offered
//! wave it downlinks the image in the same chunks the device stages at
//! ([`OtaUpdateCfg::chunk_words`]); every chunk is retried through the
//! scenario's existing retry budget (`1 + max_retries` attempts) against
//! the shared medium's seeded downlink loss
//! ([`MediumSpec::downlink_drops`]). A device whose downlink never
//! completes is a **straggler**: it keeps running on the factory image.
//! Devices that did receive the image run the two-phase (or, under the
//! Naive kernel, in-place) update from `apps::ota_update`.
//!
//! After each wave the gateway inspects the wave's results. A
//! **regression** — a received update that did not end completed, correct,
//! and probe-clean — aborts the rollout when
//! [`RolloutPolicy::abort_on_regression`] is set: later waves are never
//! offered the image and stay **stale** on the factory version. This is
//! what turns the crashcheck-level old-or-new guarantee into a fleet
//! policy: under EaseIO every offered-and-received device converges on the
//! target with zero duplicate activations, while the Naive baseline's torn
//! images trip the abort.
//!
//! Determinism mirrors [`run_fleet`](crate::run_fleet): downlink draws are
//! pure in `(medium seed, device, chunk, attempt)`, device results depend
//! only on the device index, waves merge in device order — so the rollout
//! report is byte-identical at any `--jobs` width, and a 1-device
//! no-loss rollout reproduces the single-device staged update exactly.
//!
//! Each wave is one run of the fleet's device batch over two templates
//! (factory image / received image). With a sink, every wave's records
//! merge into the one shared JSONL stream; waves are device-ordered, so
//! the concatenated stream is globally device-ordered. Per-device results
//! fold into a [`FleetAgg`] instead of accumulating.

use crate::telemetry::FleetAgg;
use crate::{reconcile_phase, run_batch, DeviceResult, Template};
use apps::ota_update::{self, OtaUpdateCfg};
use easeio_exec::{PoolStats, ScenarioSpec};
use easeio_trace::fleet::{FleetDeliveryDoc, FleetInputs, FleetRolloutDoc};
use easeio_trace::stream::{JsonlWriter, StreamStats};
use easeio_trace::Progress;
use kernel::update::{PROBE_DUPLICATE_ACTIVATION, PROBE_VERSION_TORN};
use kernel::{Outcome, Verdict};
use periph::{MediumSpec, Packet};

/// How the gateway rolls the update out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutPolicy {
    /// Sequence number of the image being rolled out (the factory image is
    /// 1, so a rollout targets at least 2).
    pub target_seq: u32,
    /// Devices offered the update per wave.
    pub wave_size: u32,
    /// Stop offering the update after a wave shows a regression.
    pub abort_on_regression: bool,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        Self {
            target_seq: 2,
            wave_size: 32,
            abort_on_regression: true,
        }
    }
}

/// Which update-safety probe a device tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutViolationKind {
    /// The device recovered a torn image (`PROBE_VERSION_TORN`).
    VersionTorn,
    /// The device activated the image more than once
    /// (`PROBE_DUPLICATE_ACTIVATION`).
    DuplicateActivation,
}

impl RolloutViolationKind {
    /// The violation's report label.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutViolationKind::VersionTorn => "version_torn",
            RolloutViolationKind::DuplicateActivation => "duplicate_activation",
        }
    }
}

/// The first update-safety violation of a rollout, in device order — the
/// anchor the forensics bundle is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutViolation {
    /// The offending device.
    pub device: u32,
    /// The 0-based wave the device was updated in.
    pub wave: u32,
    /// Which probe fired.
    pub kind: RolloutViolationKind,
}

/// A rollout: bounded aggregate, gateway accounting, and the
/// version-convergence stats, with any per-device records in the sink.
#[derive(Debug)]
pub struct StreamedRolloutOutcome {
    /// Fleet-wide aggregate (merged per-worker folds across all waves).
    pub agg: FleetAgg,
    /// Gateway delivery accounting over the shared medium.
    pub gateway: FleetDeliveryDoc,
    /// Worker utilization, summed over waves.
    pub pool: PoolStats,
    /// What the per-wave sinks merged, summed over waves (all zero for a
    /// run without a sink).
    pub stream: StreamStats,
    /// The `rollout` report block.
    pub stats: FleetRolloutDoc,
    /// First device that tripped an update-safety probe, if any.
    pub first_violation: Option<RolloutViolation>,
}

impl StreamedRolloutOutcome {
    /// The `kind: "fleet"` report inputs with the `rollout` block filled
    /// in.
    pub fn report_inputs(&self, spec: &ScenarioSpec) -> FleetInputs {
        let mut inp = crate::fleet_inputs(
            spec,
            &self.agg,
            &self.gateway,
            crate::timing_doc(&self.pool, &self.stream),
        );
        inp.rollout = Some(self.stats.clone());
        inp
    }
}

/// Per-device downlink verdict from the deterministic pre-pass.
struct Downlink {
    received: bool,
    chunks_sent: u64,
    chunks_lost: u64,
}

/// Attempts to downlink all `chunks` image chunks to `device`, retrying
/// each chunk up to the scenario's retry budget. Aborts at the first chunk
/// that exhausts its attempts — the device keeps whatever partial image it
/// has in the shadow slot, which the two-phase protocol never activates.
fn downlink(medium: &MediumSpec, device: u32, chunks: u32, attempts: u32) -> Downlink {
    let mut d = Downlink {
        received: true,
        chunks_sent: 0,
        chunks_lost: 0,
    };
    for chunk in 0..chunks {
        let mut delivered = false;
        for attempt in 0..attempts {
            d.chunks_sent += 1;
            if medium.downlink_drops(device, chunk, attempt) {
                d.chunks_lost += 1;
            } else {
                delivered = true;
                break;
            }
        }
        if !delivered {
            d.received = false;
            break;
        }
    }
    d
}

/// Template index of a device that did not receive the image.
const FACTORY: u32 = 0;
/// Template index of a device that received the full image.
const RECEIVED: u32 = 1;

/// The validated, precomputed rollout plan.
struct RolloutPlan {
    /// The device templates, indexed by [`FACTORY`] / [`RECEIVED`].
    templates: [Template<'static>; 2],
    chunks: u32,
    attempts: u32,
    waves: u32,
}

fn plan_rollout(spec: &ScenarioSpec, policy: &RolloutPolicy) -> Result<RolloutPlan, String> {
    if spec.count == 0 {
        return Err("a rollout needs at least 1 device".into());
    }
    if policy.wave_size == 0 {
        return Err("rollout wave_size must be at least 1".into());
    }
    if policy.target_seq < 2 {
        return Err("rollout target_seq must be at least 2 (1 is the factory image)".into());
    }
    let updated_cfg = OtaUpdateCfg {
        target_seq: policy.target_seq,
        two_phase: spec.device.kernel.two_phase_update(),
        ..OtaUpdateCfg::default()
    };
    let stale_cfg = OtaUpdateCfg {
        target_seq: 1,
        ..updated_cfg.clone()
    };
    let chunks = updated_cfg
        .payload_words
        .div_ceil(updated_cfg.chunk_words.max(1));
    let template =
        |cfg: OtaUpdateCfg| Template::new(spec, move |mcu| Ok(ota_update::build(mcu, &cfg).0));
    Ok(RolloutPlan {
        templates: [template(stale_cfg)?, template(updated_cfg)?],
        chunks,
        attempts: 1 + spec.device.fault.retry.max_retries,
        waves: spec.count.div_ceil(policy.wave_size),
    })
}

/// Deterministic gateway-side pre-pass for one wave: which template each
/// device runs, with the downlink accounting folded into `stats`.
fn plan_wave(
    spec: &ScenarioSpec,
    plan: &RolloutPlan,
    first: u32,
    last: u32,
    offered: bool,
    stats: &mut FleetRolloutDoc,
) -> Vec<(u32, u32)> {
    (first..last)
        .map(|device| {
            if !offered {
                stats.stale += 1;
                return (device, FACTORY);
            }
            stats.offered += 1;
            let d = downlink(&spec.medium, device, plan.chunks, plan.attempts);
            stats.downlink_chunks_sent += d.chunks_sent;
            stats.downlink_chunks_lost += d.chunks_lost;
            if !d.received {
                stats.stragglers += 1;
                return (device, FACTORY);
            }
            (device, RECEIVED)
        })
        .collect()
}

/// Gateway-side wave review: folds version accounting and the first
/// update-safety violation into the running state and returns whether any
/// received update regressed (did not land completed, correct, and
/// probe-clean).
fn review_wave(
    wave: u32,
    items: &[(u32, u32)],
    wave_results: &[DeviceResult],
    stats: &mut FleetRolloutDoc,
    first_violation: &mut Option<RolloutViolation>,
) -> bool {
    let mut regressed = false;
    for (r, &(device, image)) in wave_results.iter().zip(items) {
        let torn = r.stats.counter(PROBE_VERSION_TORN);
        let dups = r.stats.counter(PROBE_DUPLICATE_ACTIVATION);
        stats.duplicate_activations += dups;
        stats.version_torn += torn;
        if first_violation.is_none() {
            let kind = if torn > 0 {
                Some(RolloutViolationKind::VersionTorn)
            } else if dups > 0 {
                Some(RolloutViolationKind::DuplicateActivation)
            } else {
                None
            };
            if let Some(kind) = kind {
                *first_violation = Some(RolloutViolation { device, wave, kind });
            }
        }
        if image == RECEIVED {
            let ok = r.outcome == Outcome::Completed && r.verdict == Some(Verdict::Correct);
            if ok {
                stats.updated += 1;
            } else {
                stats.update_failed += 1;
            }
            if !ok || torn > 0 || dups > 0 {
                regressed = true;
            }
        }
    }
    regressed
}

/// Runs a rolling update of `spec`'s fleet to `policy.target_seq`.
/// `progress` ticks one unit per device in a `"devices"` phase, with the
/// wave index alongside.
///
/// The scenario's app is fixed to `ota-update` (two variants: received the
/// image / did not); the scenario's kernel decides the on-device protocol
/// via [`kernel::KernelKind::two_phase_update`]. Everything else — supply,
/// faults, medium, seeds, `jobs` — is the scenario's own.
pub fn run_rollout(
    spec: &ScenarioSpec,
    policy: &RolloutPolicy,
    progress: Option<&Progress>,
) -> Result<StreamedRolloutOutcome, String> {
    rollout(spec, policy, None, progress)
}

/// [`run_rollout`] that also streams every device's record into `out`:
/// each wave's records merge into `out` in device order, so the stream is
/// globally device-ordered and byte-identical at any `--jobs` width.
pub fn run_rollout_streamed(
    spec: &ScenarioSpec,
    policy: &RolloutPolicy,
    out: &mut JsonlWriter,
    progress: Option<&Progress>,
) -> Result<StreamedRolloutOutcome, String> {
    rollout(spec, policy, Some(out), progress)
}

fn rollout(
    spec: &ScenarioSpec,
    policy: &RolloutPolicy,
    mut out: Option<&mut JsonlWriter>,
    progress: Option<&Progress>,
) -> Result<StreamedRolloutOutcome, String> {
    let plan = plan_rollout(spec, policy)?;
    if let Some(p) = progress {
        p.begin_phase("devices", spec.count as u64);
        p.set_wave(0, plan.waves as u64);
    }

    let mut stats = FleetRolloutDoc {
        target_seq: policy.target_seq as u64,
        wave_size: policy.wave_size as u64,
        waves: plan.waves as u64,
        ..FleetRolloutDoc::default()
    };
    let mut first_violation = None;
    let mut agg = FleetAgg::new();
    let mut packets: Vec<(u32, Vec<Packet>)> = Vec::with_capacity(spec.count as usize);
    let mut stream = StreamStats::default();
    let mut pool_total: Option<PoolStats> = None;
    let mut aborted = false;

    for wave in 0..plan.waves {
        let first = wave * policy.wave_size;
        let last = (first + policy.wave_size).min(spec.count);
        let offered = !aborted;
        if offered {
            stats.waves_rolled_out += 1;
        }
        if let Some(p) = progress {
            p.set_wave(wave as u64 + 1, plan.waves as u64);
        }
        let items = plan_wave(spec, &plan, first, last, offered, &mut stats);

        // The wave is small (`wave_size` devices), so keeping its
        // `DeviceResult`s for the review pass bounds memory by the wave,
        // not the fleet.
        let batch = run_batch(
            spec,
            &plan.templates,
            &items,
            out.as_deref_mut(),
            progress,
            |r| r,
        )?;
        stream.records += batch.stream.records;
        stream.shards = stream.shards.max(batch.stream.shards);
        agg.merge(&batch.agg);
        merge_pool(&mut pool_total, batch.pool, first as usize);

        let regressed = review_wave(wave, &items, &batch.kept, &mut stats, &mut first_violation);
        packets.extend(batch.kept.into_iter().map(|r| (r.device, r.packets)));
        if offered && policy.abort_on_regression && regressed {
            aborted = true;
        }
    }
    stats.aborted = aborted;

    let gateway = reconcile_phase(&packets, &spec.medium, progress);
    Ok(StreamedRolloutOutcome {
        agg,
        gateway,
        pool: pool_total.expect("at least one wave ran"),
        stream,
        stats,
        first_violation,
    })
}

/// Folds one wave's pool record into the running total: wall-clock sums,
/// per-worker tallies sum elementwise, and item indices shift by the
/// wave's first device so they index the whole fleet.
fn merge_pool(total: &mut Option<PoolStats>, wave: PoolStats, base: usize) {
    let Some(t) = total else {
        let mut wave = wave;
        for indices in &mut wave.indices_per_worker {
            for i in indices {
                *i += base;
            }
        }
        *total = Some(wave);
        return;
    };
    t.jobs = t.jobs.max(wave.jobs);
    t.wall_us += wave.wall_us;
    let widen = |v: &mut Vec<u64>, n: usize| v.resize(v.len().max(n), 0);
    widen(&mut t.items_per_worker, wave.items_per_worker.len());
    widen(&mut t.busy_us_per_worker, wave.busy_us_per_worker.len());
    t.indices_per_worker.resize(
        t.indices_per_worker
            .len()
            .max(wave.indices_per_worker.len()),
        Vec::new(),
    );
    for (w, n) in wave.items_per_worker.iter().enumerate() {
        t.items_per_worker[w] += n;
    }
    for (w, n) in wave.busy_us_per_worker.iter().enumerate() {
        t.busy_us_per_worker[w] += n;
    }
    for (w, indices) in wave.indices_per_worker.iter().enumerate() {
        t.indices_per_worker[w].extend(indices.iter().map(|i| i + base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_exec::{AppSpec, DeviceSpec};
    use kernel::KernelKind;

    fn rollout_spec(count: u32, kernel: KernelKind) -> ScenarioSpec {
        ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("ota-update".into()),
                kernel,
                ..DeviceSpec::default()
            },
            count,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn easeio_rollout_converges_with_zero_duplicates() {
        let spec = rollout_spec(24, KernelKind::EaseIo);
        let policy = RolloutPolicy {
            wave_size: 7,
            ..RolloutPolicy::default()
        };
        let r = run_rollout(&spec, &policy, None).unwrap();
        let s = &r.stats;
        assert_eq!(s.waves, 4);
        assert_eq!(s.waves_rolled_out, 4);
        assert!(!s.aborted);
        assert_eq!(s.updated, 24);
        assert_eq!(s.update_failed + s.stragglers + s.stale, 0);
        assert_eq!(s.duplicate_activations, 0);
        assert_eq!(s.version_torn, 0);
        assert!(r.first_violation.is_none());
        assert_eq!(r.agg.devices(), 24);
    }

    #[test]
    fn lossy_downlinks_leave_stragglers_on_the_factory_image() {
        let mut spec = rollout_spec(32, KernelKind::EaseIo);
        spec.medium = MediumSpec::lossy(9, 400);
        let r = run_rollout(&spec, &RolloutPolicy::default(), None).unwrap();
        let s = &r.stats;
        assert!(s.stragglers > 0, "40% chunk loss must strand someone");
        assert!(s.updated > 0, "retries must get someone through");
        assert_eq!(s.updated + s.update_failed + s.stragglers + s.stale, 32);
        assert!(s.downlink_chunks_lost > 0);
        assert!(s.downlink_chunks_sent > s.downlink_chunks_lost);
        // Stragglers still finish their work loop, just on version 1.
        assert!(!s.aborted, "channel loss is not a regression");
        assert_eq!(s.updated + s.stragglers, 32);
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        let spec = rollout_spec(4, KernelKind::EaseIo);
        for policy in [
            RolloutPolicy {
                wave_size: 0,
                ..RolloutPolicy::default()
            },
            RolloutPolicy {
                target_seq: 1,
                ..RolloutPolicy::default()
            },
        ] {
            assert!(run_rollout(&spec, &policy, None).is_err());
        }
        assert!(run_rollout(
            &rollout_spec(0, KernelKind::EaseIo),
            &RolloutPolicy::default(),
            None
        )
        .is_err());
    }

    #[test]
    fn sink_concatenates_waves_in_device_order() {
        let dir = std::env::temp_dir().join("easeio-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("rollout-stream-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut spec = rollout_spec(20, KernelKind::EaseIo);
        spec.jobs = 3;
        let policy = RolloutPolicy {
            wave_size: 6,
            ..RolloutPolicy::default()
        };
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_rollout_streamed(&spec, &policy, &mut out, None).unwrap();
        drop(out);
        assert_eq!(streamed.stats.waves_rolled_out, 4);
        assert_eq!(streamed.stream.records, 20);
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            let rec = easeio_trace::parse_json(line).unwrap();
            let device = rec.get("device").and_then(easeio_trace::Value::as_u64);
            assert_eq!(device, Some(i as u64), "waves concatenate in device order");
        }
        assert_eq!(text.lines().count(), 20);
        let _ = std::fs::remove_file(&path);
    }
}
