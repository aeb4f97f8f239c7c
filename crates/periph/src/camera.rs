//! Image capture model.
//!
//! The paper simulates the weather-app camera "by running the microcontroller
//! in a delay loop" (§5.4.1). We do the same for cost, but additionally
//! materialize a deterministic image into the destination buffer so that the
//! downstream DNN computes real arithmetic whose result can be checked
//! against a golden run (Table 5 correctness).

use mcu_emu::{write_scalars, Addr, Cost, CostTable, Memory};

/// Generates the `i`-th pixel of the deterministic test scene.
///
/// The scene is a smooth 2-D gradient with a seed-dependent phase; values are
/// signed 8-bit-ish magnitudes stored as i16 so the fixed-point DNN layers
/// have realistic dynamic range.
pub fn scene_pixel(seed: u64, width: u32, i: u32) -> i16 {
    let x = (i % width) as i64;
    let y = (i / width) as i64;
    let s = (seed % 61) as i64;
    // The seed modulates the gradient directions, not just a constant
    // offset, so different scenes produce genuinely different activations
    // downstream of a convolution.
    (((x * (13 + s % 5) + y * (7 + s % 3) + x * y * (s % 4) + s * 5) % 127) - 63) as i16
}

/// Captures a `width`×`height` image of i16 pixels into `dst`.
///
/// Writes memory directly (the camera interface uses its own bus); the
/// caller charges [`capture_cost`] *before* calling, mirroring the
/// spend-then-mutate atomicity rule.
pub fn capture(mem: &mut Memory, dst: Addr, width: u32, height: u32, seed: u64) {
    let pixels: Vec<i16> = (0..width * height)
        .map(|i| scene_pixel(seed, width, i))
        .collect();
    write_scalars(mem, dst, &pixels);
}

/// Cost of one capture (delay-loop model, per the paper).
pub fn capture_cost(table: &CostTable, pixels: u32) -> Cost {
    table.capture + table.sram_word.times(pixels as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::{AllocTag, Region};

    #[test]
    fn capture_is_deterministic() {
        let mut m1 = Memory::new();
        let d1 = m1.alloc(Region::Fram, 32, AllocTag::App);
        capture(&mut m1, d1, 4, 4, 9);
        let mut m2 = Memory::new();
        let d2 = m2.alloc(Region::Fram, 32, AllocTag::App);
        capture(&mut m2, d2, 4, 4, 9);
        assert_eq!(m1.read_bytes(d1, 32), m2.read_bytes(d2, 32));
    }

    #[test]
    fn different_seed_different_scene() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 32, AllocTag::App);
        let b = m.alloc(Region::Fram, 32, AllocTag::App);
        capture(&mut m, a, 4, 4, 1);
        capture(&mut m, b, 4, 4, 2);
        assert_ne!(m.read_bytes(a, 32), m.read_bytes(b, 32));
    }

    #[test]
    fn pixels_are_bounded() {
        for i in 0..64 {
            let p = scene_pixel(123, 8, i);
            assert!((-63..=63).contains(&p));
        }
    }

    #[test]
    fn capture_cost_dominated_by_delay_loop() {
        let t = CostTable::default();
        let c = capture_cost(&t, 16);
        assert!(c.time_us >= t.capture.time_us);
    }
}
