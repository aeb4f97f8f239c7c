//! The sweep identity check shared by the engine's property tests and the
//! workspace's pinned verdict matrix (`tests/sweep_matrix.rs`, which
//! includes this file by path).

use crashcheck::SweepOutcome;

/// Asserts two sweeps agree on everything but host timing: bookkeeping,
/// violations with their details in order, the per-boundary waste series
/// and the per-cause energy totals.
pub fn assert_identical(serial: &SweepOutcome, engine: &SweepOutcome) {
    assert_eq!(serial.runtime, engine.runtime);
    assert_eq!(serial.app, engine.app);
    assert_eq!(serial.env_seed, engine.env_seed);
    assert_eq!(serial.oracle_boundaries, engine.oracle_boundaries);
    assert_eq!(serial.injections, engine.injections);
    assert_eq!(
        serial.violations.len(),
        engine.violations.len(),
        "violation count"
    );
    for (a, b) in serial.violations.iter().zip(&engine.violations) {
        assert_eq!(a.boundary, b.boundary);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.detail, b.detail);
    }
    assert_eq!(serial.boundary_waste_nj, engine.boundary_waste_nj);
    assert_eq!(serial.cause_energy_nj, engine.cause_energy_nj);
}
