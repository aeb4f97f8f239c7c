//! Byte pins of a small streamed fleet: the JSONL stream and the report's
//! identity form (`identity_document`, timing stripped) of 64 `flaky-radio`
//! devices on a timer supply, at fault rate 50‰ and link loss 100‰, under
//! EaseIO and under Naive. Naive retransmits after reboots, so its half
//! covers air duplicates at the gateway.
//!
//! The files live in the workspace's `tests/golden/`. Regenerate them after
//! an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p easeio-fleet --test golden_bytes`.

use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::run_fleet_streamed;
use easeio_trace::envelope::identity_document;
use easeio_trace::fleet::build_fleet_report;
use easeio_trace::stream::JsonlWriter;
use easeio_trace::Value;
use kernel::{FaultSpec, KernelKind};
use periph::MediumSpec;
use std::path::PathBuf;

const DEVICES: u32 = 64;
const SEED: u64 = 42;
const MEDIUM_SEED: u64 = 7;
const FAULT_PERMILLE: u32 = 50;
const LOSS_PERMILLE: u32 = 100;
const KERNELS: [KernelKind; 2] = [KernelKind::EaseIo, KernelKind::Naive];

fn spec(kernel: KernelKind) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("flaky-radio".into()),
            kernel,
            fault: FaultSpec::with_rate(SEED, FAULT_PERMILLE),
        },
        count: DEVICES,
        supply: SupplySpec::Timer,
        medium: MediumSpec::lossy(MEDIUM_SEED, LOSS_PERMILLE),
        seed: SEED,
        jobs: 1,
        ..ScenarioSpec::default()
    }
}

/// The fleet's streamed bytes and its report identity, compact.
fn run(kernel: KernelKind) -> (String, String) {
    let dir = std::env::temp_dir().join("easeio-fleet-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir
        .join(format!("{}-{}.jsonl", kernel.name(), std::process::id()))
        .to_string_lossy()
        .into_owned();
    let spec = spec(kernel);
    let mut out = JsonlWriter::create(&path).unwrap();
    let fleet = run_fleet_streamed(&spec, &mut out, None).unwrap();
    out.flush().unwrap();
    drop(out);
    let stream = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let doc = build_fleet_report(&fleet.report_inputs(&spec));
    (stream, identity_document(&doc).to_compact())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn small_fleet_stream_and_report_identity_match_golden() {
    let mut stream = String::new();
    let mut identities = Vec::new();
    for kernel in KERNELS {
        let (s, identity) = run(kernel);
        assert_eq!(s.lines().count(), DEVICES as usize);
        stream.push_str(&s);
        identities.push((kernel.name().to_string(), identity));
    }
    assert_matches_golden("fleet_stream.jsonl", &stream);
    let mut doc = Value::Obj(
        identities
            .into_iter()
            .map(|(k, v)| (k, easeio_trace::parse_json(&v).unwrap()))
            .collect(),
    )
    .to_pretty();
    doc.push('\n');
    assert_matches_golden("fleet_identity.json", &doc);
}
