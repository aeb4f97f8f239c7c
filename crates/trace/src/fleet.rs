//! Versioned machine-readable fleet report.
//!
//! `easeio-sim fleet --report-out out.json` emits this document: fleet
//! identity (runtime, app, device count, seeds, supply, medium), the
//! per-device outcome tally, the gateway's end-to-end delivery accounting,
//! the fleet-wide energy ledger by cause, straggler percentiles over
//! per-device wall-clock, and — when sharded across the parallel engine —
//! an optional `timing` block. The body rides inside the shared
//! versioned envelope as `kind: "fleet"`.
//!
//! The delivery block is where the paper's `Single` semantics becomes a
//! fleet-level claim: `air_duplicates` counts transmissions of a
//! (device, sequence) pair beyond the first — exactly-once violations on
//! the air. Under EaseIO it must be zero; the Naive baseline pins it
//! positive. The validator enforces the accounting *structurally*: every
//! transmission must be delivered, lost to collision, or lost to the
//! channel, and the duplicate/unique splits must sum — a document whose
//! ledger does not balance is rejected as malformed.

use crate::envelope::ReportBody;
use crate::json::Value;
use crate::schema::{field, opt, req, uint, uint_sum, Field, Ty, FAULT_SPEC, U64_MAP};
use crate::stats::{CATEGORY_NAMES, CAUSE_COUNT};
use crate::sweep::FaultSpecDoc;

/// The shared radio-medium configuration a fleet ran over. Experiment
/// identity, kept by
/// [`identity_document`](crate::envelope::identity_document).
#[derive(Debug, Clone, Default)]
pub struct FleetMediumDoc {
    /// Seed of the per-packet loss draws.
    pub seed: u64,
    /// Channel loss probability in permille.
    pub loss_permille: u64,
    /// Fixed per-transmission airtime (µs).
    pub airtime_base_us: u64,
    /// Additional airtime per payload word (µs).
    pub airtime_us_per_word: u64,
}

/// Per-device outcome tally. The three outcome counts partition the fleet;
/// so do the three verdict counts (devices whose app defines no
/// correctness check land in `unverified`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetOutcomesDoc {
    /// Devices whose final task completed.
    pub completed: u64,
    /// Devices that exhausted the attempt budget.
    pub non_terminated: u64,
    /// Devices aborted by a non-recoverable fault.
    pub faulted: u64,
    /// Devices whose output check passed.
    pub correct: u64,
    /// Devices whose output check failed.
    pub incorrect: u64,
    /// Devices with no output check (or that never reached it).
    pub unverified: u64,
}

/// The gateway's exactly-once accounting over the whole fleet, as the
/// gateway's reconcile pass returns it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetDeliveryDoc {
    /// Packets put on the air by all devices.
    pub transmissions: u64,
    /// Distinct (device, sequence) pairs among them.
    pub unique_sent: u64,
    /// Transmissions beyond the first of their (device, sequence) pair —
    /// `Single`-semantics violations on the air. Zero under EaseIO.
    pub air_duplicates: u64,
    /// Packets the gateway received (survived collision and loss).
    pub delivered: u64,
    /// Distinct (device, sequence) pairs among the received packets.
    pub delivered_unique: u64,
    /// Received packets whose (device, sequence) pair had already been
    /// received — duplicates the gateway must deduplicate.
    pub gateway_duplicates: u64,
    /// Packets destroyed by overlapping transmit windows.
    pub lost_collision: u64,
    /// Collision-free packets dropped by the seeded channel loss.
    pub lost_channel: u64,
    /// `delivered_unique * 1000 / unique_sent` (0 when nothing was sent).
    pub delivery_rate_milli: u64,
}

/// Fleet-wide energy ledger: every device's attribution summed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetEnergyDoc {
    /// Total on-time across all devices (µs).
    pub total_time_us: u64,
    /// Total energy across all devices (nJ).
    pub total_energy_nj: u64,
    /// Energy by cause, aligned to [`CATEGORY_NAMES`].
    pub cause_energy_nj: [u64; CAUSE_COUNT],
}

/// Straggler percentiles over per-device wall-clock (virtual µs, dead time
/// included) — how unevenly the fleet finishes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStragglerDoc {
    /// Median device wall-clock (µs).
    pub p50_wall_us: u64,
    /// 90th-percentile device wall-clock (µs).
    pub p90_wall_us: u64,
    /// 99th-percentile device wall-clock (µs).
    pub p99_wall_us: u64,
    /// Slowest device wall-clock (µs).
    pub max_wall_us: u64,
}

/// Version-convergence accounting of a rolling over-the-air update.
/// Result data, not measurement: part of the report identity, so rollout
/// reports must be byte-identical at any `--jobs` width.
///
/// The device buckets partition the fleet:
/// `updated + update_failed + stragglers + stale == devices`, and
/// `offered == updated + update_failed + stragglers`. The rendered
/// `versions` object maps each image sequence number to the devices that
/// converged on it (`update_failed` devices — torn or otherwise incorrect
/// — are on no coherent version and appear in no bucket). Under EaseIO the
/// crash-safe two-phase commit pins `duplicate_activations` and
/// `version_torn` to zero; the Naive in-place baseline does not.
#[derive(Debug, Clone, Default)]
pub struct FleetRolloutDoc {
    /// Sequence number of the image being rolled out.
    pub target_seq: u64,
    /// Devices per rollout wave.
    pub wave_size: u64,
    /// Total waves the fleet partitions into.
    pub waves: u64,
    /// Waves actually offered the update (fewer than `waves` after abort).
    pub waves_rolled_out: u64,
    /// Whether the rollout stopped early on a wave regression.
    pub aborted: bool,
    /// Devices the gateway attempted a downlink to.
    pub offered: u64,
    /// Offered devices that completed correctly on the target version.
    pub updated: u64,
    /// Offered devices that received the image but did not end correct.
    pub update_failed: u64,
    /// Offered devices whose downlink never completed — still on the old
    /// version.
    pub stragglers: u64,
    /// Devices never offered the update (waves after an abort).
    pub stale: u64,
    /// Downlink chunk transmissions, retries included.
    pub downlink_chunks_sent: u64,
    /// Downlink chunk transmissions lost to the channel.
    pub downlink_chunks_lost: u64,
    /// Activation notifications recorded beyond the first, fleet-wide.
    pub duplicate_activations: u64,
    /// Torn-image recoveries observed by devices, fleet-wide.
    pub version_torn: u64,
}

/// Host-side timing of a fleet run. Measurement, not result: stripped by
/// [`identity_document`](crate::envelope::identity_document) before the
/// `--jobs` byte-identity comparison.
#[derive(Debug, Clone)]
pub struct FleetTimingDoc {
    /// Worker count the fleet was sharded across.
    pub jobs: u64,
    /// Host wall-clock of the device phase (µs).
    pub wall_us: u64,
    /// Devices executed by each worker.
    pub devices_per_worker: Vec<u64>,
    /// Busy time of each worker (µs).
    pub busy_us_per_worker: Vec<u64>,
    /// Peak resident-set size of the host process (bytes), when the
    /// platform exposes it — the number the CI flat-memory gate reads.
    pub peak_rss_bytes: Option<u64>,
    /// Per-device records streamed to `--stream-out` (present on streamed
    /// runs; deterministic, but reported here because it describes how the
    /// run was executed, not what it computed).
    pub streamed_records: Option<u64>,
}

/// Inputs to the fleet report document.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    /// Runtime display name.
    pub runtime: String,
    /// Application name.
    pub app: String,
    /// Number of devices.
    pub devices: u64,
    /// Scenario base seed (device `i` derives seed + i).
    pub seed: u64,
    /// Supply label (`"timer"`, `"rf:58"`, …).
    pub supply: String,
    /// The shared radio medium.
    pub medium: FleetMediumDoc,
    /// Fault-injection configuration (present when a plan was installed).
    pub fault_spec: Option<FaultSpecDoc>,
    /// Per-device outcome tally.
    pub outcomes: FleetOutcomesDoc,
    /// Power-failure reboots summed across the fleet.
    pub power_failures: u64,
    /// Gateway delivery accounting.
    pub delivery: FleetDeliveryDoc,
    /// Fleet-wide energy ledger.
    pub energy: FleetEnergyDoc,
    /// Straggler percentiles.
    pub stragglers: FleetStragglerDoc,
    /// Rolling-update convergence (present when the fleet ran a rollout).
    pub rollout: Option<FleetRolloutDoc>,
    /// Host timing (present when run through the parallel engine).
    pub timing: Option<FleetTimingDoc>,
}

impl ReportBody for FleetInputs {
    const KIND: &'static str = "fleet";
    const TOOL: &'static str = "easeio-sim fleet";

    const SCHEMA: &'static [Field] = FLEET_SCHEMA;

    fn body(&self) -> Value {
        fleet_body(self)
    }

    fn invariants(body: &Value) -> Vec<String> {
        fleet_invariants(body)
    }
}

fn fleet_body(inp: &FleetInputs) -> Value {
    let mut fields = vec![
        ("runtime".into(), Value::str(inp.runtime.clone())),
        ("app".into(), Value::str(inp.app.clone())),
        ("devices".into(), Value::u64(inp.devices)),
        ("seed".into(), Value::u64(inp.seed)),
        ("supply".into(), Value::str(inp.supply.clone())),
        (
            "medium".into(),
            Value::Obj(vec![
                ("seed".into(), Value::u64(inp.medium.seed)),
                ("loss_permille".into(), Value::u64(inp.medium.loss_permille)),
                (
                    "airtime_base_us".into(),
                    Value::u64(inp.medium.airtime_base_us),
                ),
                (
                    "airtime_us_per_word".into(),
                    Value::u64(inp.medium.airtime_us_per_word),
                ),
            ]),
        ),
    ];
    if let Some(f) = &inp.fault_spec {
        fields.push(("fault_spec".into(), f.to_value()));
    }
    let o = &inp.outcomes;
    fields.push((
        "outcomes".into(),
        Value::Obj(vec![
            ("completed".into(), Value::u64(o.completed)),
            ("non_terminated".into(), Value::u64(o.non_terminated)),
            ("faulted".into(), Value::u64(o.faulted)),
            ("correct".into(), Value::u64(o.correct)),
            ("incorrect".into(), Value::u64(o.incorrect)),
            ("unverified".into(), Value::u64(o.unverified)),
        ]),
    ));
    fields.push(("power_failures".into(), Value::u64(inp.power_failures)));
    let d = &inp.delivery;
    fields.push((
        "delivery".into(),
        Value::Obj(vec![
            ("transmissions".into(), Value::u64(d.transmissions)),
            ("unique_sent".into(), Value::u64(d.unique_sent)),
            ("air_duplicates".into(), Value::u64(d.air_duplicates)),
            ("delivered".into(), Value::u64(d.delivered)),
            ("delivered_unique".into(), Value::u64(d.delivered_unique)),
            (
                "gateway_duplicates".into(),
                Value::u64(d.gateway_duplicates),
            ),
            ("lost_collision".into(), Value::u64(d.lost_collision)),
            ("lost_channel".into(), Value::u64(d.lost_channel)),
            (
                "delivery_rate_milli".into(),
                Value::u64(d.delivery_rate_milli),
            ),
        ]),
    ));
    let e = &inp.energy;
    fields.push((
        "energy".into(),
        Value::Obj(vec![
            ("total_time_us".into(), Value::u64(e.total_time_us)),
            ("total_energy_nj".into(), Value::u64(e.total_energy_nj)),
            (
                "cause_energy_nj".into(),
                Value::u64_map(CATEGORY_NAMES.iter().zip(e.cause_energy_nj)),
            ),
        ]),
    ));
    let s = &inp.stragglers;
    fields.push((
        "stragglers".into(),
        Value::Obj(vec![
            ("p50_wall_us".into(), Value::u64(s.p50_wall_us)),
            ("p90_wall_us".into(), Value::u64(s.p90_wall_us)),
            ("p99_wall_us".into(), Value::u64(s.p99_wall_us)),
            ("max_wall_us".into(), Value::u64(s.max_wall_us)),
        ]),
    ));
    if let Some(r) = &inp.rollout {
        fields.push((
            "rollout".into(),
            Value::Obj(vec![
                ("target_seq".into(), Value::u64(r.target_seq)),
                ("wave_size".into(), Value::u64(r.wave_size)),
                ("waves".into(), Value::u64(r.waves)),
                ("waves_rolled_out".into(), Value::u64(r.waves_rolled_out)),
                ("aborted".into(), Value::Bool(r.aborted)),
                ("offered".into(), Value::u64(r.offered)),
                ("updated".into(), Value::u64(r.updated)),
                ("update_failed".into(), Value::u64(r.update_failed)),
                ("stragglers".into(), Value::u64(r.stragglers)),
                ("stale".into(), Value::u64(r.stale)),
                (
                    "downlink_chunks_sent".into(),
                    Value::u64(r.downlink_chunks_sent),
                ),
                (
                    "downlink_chunks_lost".into(),
                    Value::u64(r.downlink_chunks_lost),
                ),
                (
                    "duplicate_activations".into(),
                    Value::u64(r.duplicate_activations),
                ),
                ("version_torn".into(), Value::u64(r.version_torn)),
                (
                    "versions".into(),
                    Value::Obj(vec![
                        ("1".into(), Value::u64(r.stragglers + r.stale)),
                        (r.target_seq.to_string(), Value::u64(r.updated)),
                    ]),
                ),
            ]),
        ));
    }
    if let Some(t) = &inp.timing {
        let mut timing = vec![
            ("jobs".into(), Value::u64(t.jobs)),
            ("wall_us".into(), Value::u64(t.wall_us)),
            (
                "devices_per_worker".into(),
                Value::u64_arr(&t.devices_per_worker),
            ),
            (
                "busy_us_per_worker".into(),
                Value::u64_arr(&t.busy_us_per_worker),
            ),
        ];
        if let Some(rss) = t.peak_rss_bytes {
            timing.push(("peak_rss_bytes".into(), Value::u64(rss)));
        }
        if let Some(n) = t.streamed_records {
            timing.push(("streamed_records".into(), Value::u64(n)));
        }
        fields.push(("timing".into(), Value::Obj(timing)));
    }
    Value::Obj(fields)
}

/// Builds the full versioned fleet report document.
pub fn build_fleet_report(inp: &FleetInputs) -> Value {
    inp.to_document()
}

/// Validates a parsed fleet report document (envelope and body).
pub fn validate_fleet_report(v: &Value) -> Result<(), Vec<String>> {
    FleetInputs::validate(v)
}

/// The fleet-report body table.
const FLEET_SCHEMA: &[Field] = &[
    req("runtime", Ty::Str),
    req("app", Ty::Str),
    req("devices", Ty::U64),
    req("seed", Ty::U64),
    req("supply", Ty::Str),
    req("medium", Ty::Obj(MEDIUM)),
    opt("fault_spec", FAULT_SPEC),
    req("outcomes", Ty::Obj(OUTCOMES)),
    req("power_failures", Ty::U64),
    req("delivery", Ty::Obj(DELIVERY)),
    req("energy", Ty::Obj(ENERGY)),
    req("stragglers", Ty::Obj(STRAGGLERS)),
    opt("rollout", Ty::Obj(ROLLOUT)),
    opt("timing", Ty::Obj(TIMING)),
];

const MEDIUM: &[Field] = &[
    req("seed", Ty::U64),
    req("loss_permille", Ty::U64),
    req("airtime_base_us", Ty::U64),
    req("airtime_us_per_word", Ty::U64),
];

const OUTCOMES: &[Field] = &[
    req("completed", Ty::U64),
    req("non_terminated", Ty::U64),
    req("faulted", Ty::U64),
    req("correct", Ty::U64),
    req("incorrect", Ty::U64),
    req("unverified", Ty::U64),
];

const DELIVERY: &[Field] = &[
    req("transmissions", Ty::U64),
    req("unique_sent", Ty::U64),
    req("air_duplicates", Ty::U64),
    req("delivered", Ty::U64),
    req("delivered_unique", Ty::U64),
    req("gateway_duplicates", Ty::U64),
    req("lost_collision", Ty::U64),
    req("lost_channel", Ty::U64),
    req("delivery_rate_milli", Ty::U64),
];

const ENERGY: &[Field] = &[
    req("total_time_us", Ty::U64),
    req("total_energy_nj", Ty::U64),
    req("cause_energy_nj", U64_MAP),
];

const STRAGGLERS: &[Field] = &[
    req("p50_wall_us", Ty::U64),
    req("p90_wall_us", Ty::U64),
    req("p99_wall_us", Ty::U64),
    req("max_wall_us", Ty::U64),
];

const ROLLOUT: &[Field] = &[
    req("target_seq", Ty::U64),
    req("wave_size", Ty::U64),
    req("waves", Ty::U64),
    req("waves_rolled_out", Ty::U64),
    req("aborted", Ty::Bool),
    req("offered", Ty::U64),
    req("updated", Ty::U64),
    req("update_failed", Ty::U64),
    req("stragglers", Ty::U64),
    req("stale", Ty::U64),
    req("downlink_chunks_sent", Ty::U64),
    req("downlink_chunks_lost", Ty::U64),
    req("duplicate_activations", Ty::U64),
    req("version_torn", Ty::U64),
    req("versions", U64_MAP),
];

const TIMING: &[Field] = &[
    req("jobs", Ty::U64),
    req("wall_us", Ty::U64),
    req("devices_per_worker", Ty::Arr(&Ty::U64)),
    req("busy_us_per_worker", Ty::Arr(&Ty::U64)),
    opt("peak_rss_bytes", Ty::U64),
    opt("streamed_records", Ty::U64),
];

/// The accounting rules: outcome, delivery and rollout partitions, the
/// energy category sum, and straggler percentile order.
fn fleet_invariants(v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let devices = uint(v, "devices");
    if devices == 0 {
        errs.push("'devices' must be at least 1".into());
    }

    let o = field(v, "outcomes");
    let by_outcome = uint(o, "completed") + uint(o, "non_terminated") + uint(o, "faulted");
    let by_verdict = uint(o, "correct") + uint(o, "incorrect") + uint(o, "unverified");
    if by_outcome != devices {
        errs.push(format!(
            "'outcomes': completed + non_terminated + faulted is \
             {by_outcome} but 'devices' is {devices}"
        ));
    }
    if by_verdict != devices {
        errs.push(format!(
            "'outcomes': correct + incorrect + unverified is \
             {by_verdict} but 'devices' is {devices}"
        ));
    }

    let d = field(v, "delivery");
    let get = |k: &str| uint(d, k);
    let tx = get("transmissions");
    let unique = get("unique_sent");
    let delivered = get("delivered");
    let del_unique = get("delivered_unique");
    if unique + get("air_duplicates") != tx {
        errs.push(format!(
            "'delivery': unique_sent + air_duplicates is {} but \
             transmissions is {tx}",
            unique + get("air_duplicates")
        ));
    }
    let accounted = delivered + get("lost_collision") + get("lost_channel");
    if accounted != tx {
        errs.push(format!(
            "'delivery': delivered + lost_collision + lost_channel \
             is {accounted} but transmissions is {tx} (every packet must be \
             accounted for)"
        ));
    }
    if del_unique + get("gateway_duplicates") != delivered {
        errs.push(format!(
            "'delivery': delivered_unique + gateway_duplicates is \
             {} but delivered is {delivered}",
            del_unique + get("gateway_duplicates")
        ));
    }
    if del_unique > unique {
        errs.push("'delivery': delivered_unique exceeds unique_sent".into());
    }
    let rate = get("delivery_rate_milli");
    let expect_rate = (del_unique * 1000).checked_div(unique).unwrap_or(0);
    if rate != expect_rate {
        errs.push(format!(
            "'delivery.delivery_rate_milli' is {rate}, expected \
             {expect_rate} (delivered_unique * 1000 / unique_sent)"
        ));
    }

    let e = field(v, "energy");
    let cells = field(e, "cause_energy_nj").as_obj().unwrap_or_default();
    if !cells.iter().map(|(k, _)| k.as_str()).eq(CATEGORY_NAMES) {
        errs.push(format!(
            "'energy.cause_energy_nj' keys must be exactly {CATEGORY_NAMES:?}"
        ));
    }
    let sum = uint_sum(field(e, "cause_energy_nj"));
    let total = uint(e, "total_energy_nj");
    if total != sum {
        errs.push(format!(
            "'energy': categories sum to {sum} nJ but total_energy_nj is \
             {total} (attribution invariant violated)"
        ));
    }

    let s = field(v, "stragglers");
    let series = ["p50_wall_us", "p90_wall_us", "p99_wall_us", "max_wall_us"].map(|k| uint(s, k));
    if series.windows(2).any(|w| w[0] > w[1]) {
        errs.push(
            "'stragglers' percentiles must be non-decreasing \
             (p50 <= p90 <= p99 <= max)"
                .into(),
        );
    }

    if let Some(r) = v.get("rollout") {
        rollout_invariants(r, devices, &mut errs);
    }
    errs
}

/// The rollout buckets partition the fleet, and `versions` agrees with them.
fn rollout_invariants(r: &Value, devices: u128, errs: &mut Vec<String>) {
    let get = |k: &str| uint(r, k);
    let target = get("target_seq");
    if target < 2 {
        errs.push("'rollout.target_seq' must be at least 2".into());
    }
    let updated = get("updated");
    let failed = get("update_failed");
    let stragglers = get("stragglers");
    let stale = get("stale");
    let by_bucket = updated + failed + stragglers + stale;
    if by_bucket != devices {
        errs.push(format!(
            "'rollout': updated + update_failed + stragglers + stale \
             is {by_bucket} but 'devices' is {devices} (buckets must \
             partition the fleet)"
        ));
    }
    if get("offered") != updated + failed + stragglers {
        errs.push(
            "'rollout': offered must equal updated + update_failed + \
             stragglers"
                .into(),
        );
    }
    if get("waves_rolled_out") > get("waves") {
        errs.push("'rollout.waves_rolled_out' exceeds 'rollout.waves'".into());
    }
    if get("downlink_chunks_lost") > get("downlink_chunks_sent") {
        errs.push(
            "'rollout.downlink_chunks_lost' exceeds \
             'rollout.downlink_chunks_sent'"
                .into(),
        );
    }
    let versions = field(r, "versions");
    if versions.get("1").is_none() || uint(versions, "1") != stragglers + stale {
        errs.push(
            "'rollout.versions' must count stragglers + stale \
             devices on version 1"
                .into(),
        );
    }
    let target_key = target.to_string();
    if versions.get(&target_key).is_none() || uint(versions, &target_key) != updated {
        errs.push(format!(
            "'rollout.versions' must count updated devices on \
             version {target}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{identity_document, validate_any_report, ReportKind};
    use crate::json::parse;

    fn inputs() -> FleetInputs {
        FleetInputs {
            runtime: "EaseIO".into(),
            app: "flaky-radio".into(),
            devices: 4,
            seed: 42,
            supply: "timer".into(),
            medium: FleetMediumDoc {
                seed: 7,
                loss_permille: 100,
                airtime_base_us: 32,
                airtime_us_per_word: 4,
            },
            fault_spec: None,
            outcomes: FleetOutcomesDoc {
                completed: 4,
                non_terminated: 0,
                faulted: 0,
                correct: 4,
                incorrect: 0,
                unverified: 0,
            },
            power_failures: 17,
            delivery: FleetDeliveryDoc {
                transmissions: 32,
                unique_sent: 32,
                air_duplicates: 0,
                delivered: 27,
                delivered_unique: 27,
                gateway_duplicates: 0,
                lost_collision: 2,
                lost_channel: 3,
                delivery_rate_milli: 27 * 1000 / 32,
            },
            energy: FleetEnergyDoc {
                total_time_us: 100,
                total_energy_nj: 28,
                cause_energy_nj: [10, 5, 0, 6, 0, 3, 4, 0],
            },
            stragglers: FleetStragglerDoc {
                p50_wall_us: 900,
                p90_wall_us: 1_200,
                p99_wall_us: 1_500,
                max_wall_us: 1_501,
            },
            rollout: None,
            timing: None,
        }
    }

    fn rollout_doc() -> FleetRolloutDoc {
        FleetRolloutDoc {
            target_seq: 2,
            wave_size: 2,
            waves: 2,
            waves_rolled_out: 2,
            aborted: false,
            offered: 4,
            updated: 3,
            update_failed: 0,
            stragglers: 1,
            stale: 0,
            downlink_chunks_sent: 14,
            downlink_chunks_lost: 4,
            duplicate_activations: 0,
            version_torn: 0,
        }
    }

    #[test]
    fn round_trips_and_dispatches_as_fleet() {
        let doc = build_fleet_report(&inputs());
        let parsed = parse(&doc.to_pretty()).unwrap();
        assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Fleet));
        let body = parsed.get("report").unwrap();
        assert_eq!(
            body.get("delivery")
                .and_then(|d| d.get("air_duplicates"))
                .and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(
            body.get("energy")
                .and_then(|e| e.get("cause_energy_nj"))
                .and_then(|c| c.get("progress"))
                .and_then(Value::as_u64),
            Some(10)
        );

        // Every optional block filled: builder and table agree both ways.
        let full = build_fleet_report(&FleetInputs {
            fault_spec: Some(FaultSpecDoc {
                seed: 3,
                rate_permille: 20,
                max_retries: 2,
                backoff_base_us: 40,
            }),
            rollout: Some(rollout_doc()),
            timing: Some(FleetTimingDoc {
                jobs: 1,
                wall_us: 5,
                devices_per_worker: vec![4],
                busy_us_per_worker: vec![5],
                peak_rss_bytes: Some(1 << 20),
                streamed_records: Some(4),
            }),
            ..inputs()
        });
        crate::schema::tests::assert_matches_table::<FleetInputs>(&full);
    }

    #[test]
    fn unbalanced_delivery_ledger_is_rejected() {
        let mut inp = inputs();
        inp.delivery.lost_channel += 1; // a packet appears from nowhere
        let errs = validate_fleet_report(&build_fleet_report(&inp)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("every packet must be accounted for")),
            "{errs:?}"
        );

        let mut inp = inputs();
        inp.delivery.air_duplicates = 5; // splits no longer sum
        let errs = validate_fleet_report(&build_fleet_report(&inp)).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("unique_sent + air_duplicates")),
            "{errs:?}"
        );

        let mut inp = inputs();
        inp.delivery.delivery_rate_milli += 1;
        let errs = validate_fleet_report(&build_fleet_report(&inp)).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("delivery_rate_milli")),
            "{errs:?}"
        );
    }

    #[test]
    fn outcome_tallies_must_partition_the_fleet() {
        let mut inp = inputs();
        inp.outcomes.completed = 3; // 3 + 0 + 0 != 4 devices
        let errs = validate_fleet_report(&build_fleet_report(&inp)).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("'devices' is 4")),
            "{errs:?}"
        );
    }

    #[test]
    fn energy_attribution_must_sum_and_use_the_canonical_categories() {
        let mut inp = inputs();
        inp.energy.total_energy_nj += 1;
        let errs = validate_fleet_report(&build_fleet_report(&inp)).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("attribution invariant")),
            "{errs:?}"
        );
    }

    #[test]
    fn rollout_block_round_trips_and_enforces_the_partition() {
        let mut inp = inputs();
        inp.rollout = Some(rollout_doc());
        let doc = build_fleet_report(&inp);
        validate_fleet_report(&doc).unwrap();
        let parsed = parse(&doc.to_pretty()).unwrap();
        let versions = parsed
            .get("report")
            .and_then(|b| b.get("rollout"))
            .and_then(|r| r.get("versions"))
            .cloned()
            .unwrap();
        assert_eq!(versions.get("1").and_then(Value::as_u64), Some(1));
        assert_eq!(versions.get("2").and_then(Value::as_u64), Some(3));

        // A device bucket that does not partition the fleet is rejected.
        let mut bad = inputs();
        bad.rollout = Some(FleetRolloutDoc {
            updated: 4, // 4 + 0 + 1 + 0 != 4 devices
            ..rollout_doc()
        });
        let errs = validate_fleet_report(&build_fleet_report(&bad)).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("partition the fleet")),
            "{errs:?}"
        );

        // Rollout numbers are identity: a --jobs comparison must see them.
        let stripped = identity_document(&doc);
        assert!(stripped
            .get("report")
            .and_then(|b| b.get("rollout"))
            .is_some());
    }

    #[test]
    fn timing_is_stripped_by_identity() {
        let mut inp = inputs();
        inp.timing = Some(FleetTimingDoc {
            jobs: 8,
            wall_us: 123,
            devices_per_worker: vec![1; 8],
            busy_us_per_worker: vec![10; 8],
            peak_rss_bytes: Some(64 << 20),
            streamed_records: Some(4),
        });
        let timed = build_fleet_report(&inp);
        validate_fleet_report(&timed).unwrap();
        let untimed = build_fleet_report(&inputs());
        assert_eq!(
            identity_document(&timed).to_pretty(),
            identity_document(&untimed).to_pretty()
        );
    }
}
