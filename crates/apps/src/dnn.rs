//! The weather classifier's 5-layer DNN (paper §5.4.1).
//!
//! Layers: 4×4 convolution → ReLU → 4×4 convolution → fully-connected →
//! inference (argmax), on a 12×12 fixed-point image, with LEA/DMA staging
//! like TAILS. This module holds the deterministic weights and a software
//! reference implementation that matches the LEA arithmetic bit-for-bit, so
//! Table 5's correctness column is an exact memory comparison.

use periph::lea::ACC_SHIFT;

/// Input image side length.
pub const IMG: u32 = 12;
/// Convolution kernel side length.
pub const K: u32 = 4;
/// Side length after the first convolution (valid padding).
pub const C1: u32 = IMG - K + 1; // 9
/// Side length after the second convolution.
pub const C2: u32 = C1 - K + 1; // 6
/// Flattened input size of the fully-connected layer.
pub const FC_IN: u32 = C2 * C2; // 36
/// Number of output classes.
pub const CLASSES: u32 = 4;

/// First convolution kernel, element `i` (row-major 4×4), Q8-ish magnitude.
pub fn kernel1(i: u32) -> i16 {
    (((i * 11 + 3) % 37) as i16) - 18
}

/// Second convolution kernel, element `i`.
pub fn kernel2(i: u32) -> i16 {
    (((i * 23 + 7) % 31) as i16) - 15
}

/// Fully-connected weight for output `j`, input `i` (row-major `j·FC_IN+i`).
pub fn fc_weight(idx: u32) -> i16 {
    (((idx * 13 + 5) % 41) as i16) - 20
}

fn sat(acc: i32) -> i16 {
    (acc >> ACC_SHIFT).clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

fn conv2d_ref(input: &[i16], w: u32, kernel: &dyn Fn(u32) -> i16) -> Vec<i16> {
    let ow = w - K + 1;
    let mut out = Vec::with_capacity((ow * ow) as usize);
    for oy in 0..ow {
        for ox in 0..ow {
            let mut acc: i32 = 0;
            for ky in 0..K {
                for kx in 0..K {
                    let px = input[((oy + ky) * w + (ox + kx)) as usize] as i32;
                    acc += px * kernel(ky * K + kx) as i32;
                }
            }
            out.push(sat(acc));
        }
    }
    out
}

/// Reference forward pass: returns the fully-connected output vector and
/// the inferred class.
pub fn reference_inference(image: &[i16]) -> (Vec<i16>, u32) {
    assert_eq!(image.len() as u32, IMG * IMG);
    // Layer 1: conv 12×12 → 9×9.
    let l1 = conv2d_ref(image, IMG, &kernel1);
    // Layer 2: ReLU in place.
    let l2: Vec<i16> = l1.iter().map(|v| (*v).max(0)).collect();
    // Layer 3: conv 9×9 → 6×6.
    let l3 = conv2d_ref(&l2, C1, &kernel2);
    // Layer 4: fully connected 36 → 4.
    let mut fc = Vec::with_capacity(CLASSES as usize);
    for j in 0..CLASSES {
        let mut acc: i32 = 0;
        for i in 0..FC_IN {
            acc += fc_weight(j * FC_IN + i) as i32 * l3[i as usize] as i32;
        }
        fc.push(sat(acc));
    }
    // Layer 5: inference (argmax, ties to the lowest index).
    let mut class = 0u32;
    let mut best = fc[0];
    for (i, v) in fc.iter().enumerate().skip(1) {
        if *v > best {
            best = *v;
            class = i as u32;
        }
    }
    (fc, class)
}

/// The deterministic scene the camera produces (shared with the weather
/// app's golden computation).
pub fn scene(seed: u64) -> Vec<i16> {
    (0..IMG * IMG)
        .map(|i| periph::camera::scene_pixel(seed, IMG, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        assert_eq!(C1, 9);
        assert_eq!(C2, 6);
        assert_eq!(FC_IN, 36);
        let (fc, class) = reference_inference(&scene(7));
        assert_eq!(fc.len(), CLASSES as usize);
        assert!(class < CLASSES);
    }

    #[test]
    fn inference_is_deterministic_per_scene() {
        assert_eq!(
            reference_inference(&scene(1)),
            reference_inference(&scene(1))
        );
    }

    #[test]
    fn different_scenes_give_different_activations() {
        let (fc_a, _) = reference_inference(&scene(1));
        let (fc_b, _) = reference_inference(&scene(2));
        assert_ne!(fc_a, fc_b);
    }

    #[test]
    fn relu_matters_for_this_network() {
        // The first conv must produce at least one negative activation,
        // otherwise the ReLU layer would be dead code in the benchmark.
        let l1 = conv2d_ref(&scene(7), IMG, &kernel1);
        assert!(l1.iter().any(|v| *v < 0), "no negative activations");
        assert!(l1.iter().any(|v| *v > 0), "no positive activations");
    }

    #[test]
    fn reference_matches_lea_hardware_path() {
        // Run the same layers through the simulated LEA and compare.
        use mcu_emu::{read_scalars, write_scalars, AllocTag, Memory, Region};
        let img = scene(7);
        let mut mem = Memory::new();
        let lin = mem.alloc(Region::LeaRam, IMG * IMG * 2, AllocTag::App);
        let lw = mem.alloc(Region::LeaRam, FC_IN * CLASSES * 2, AllocTag::App);
        let lout = mem.alloc(Region::LeaRam, C1 * C1 * 2, AllocTag::App);
        let w = write_scalars::<i16>;
        let r = read_scalars::<i16>;
        // conv1
        w(&mut mem, lin, &img);
        let k1: Vec<i16> = (0..K * K).map(kernel1).collect();
        w(&mut mem, lw, &k1);
        periph::lea::conv2d(&mut mem, lin, IMG, IMG, lw, K, K, lout);
        let mut act = r(&mem, lout, C1 * C1);
        // relu
        w(&mut mem, lin, &act);
        periph::lea::relu(&mut mem, lin, C1 * C1);
        act = r(&mem, lin, C1 * C1);
        // conv2
        w(&mut mem, lin, &act);
        let k2: Vec<i16> = (0..K * K).map(kernel2).collect();
        w(&mut mem, lw, &k2);
        periph::lea::conv2d(&mut mem, lin, C1, C1, lw, K, K, lout);
        act = r(&mem, lout, C2 * C2);
        // fc
        w(&mut mem, lin, &act);
        let fcw: Vec<i16> = (0..FC_IN * CLASSES).map(fc_weight).collect();
        w(&mut mem, lw, &fcw);
        periph::lea::fully_connected(&mut mem, lin, FC_IN, lw, lout, CLASSES);
        let fc_hw = r(&mem, lout, CLASSES);
        let (class_hw, _) = periph::lea::argmax(&mem, lout, CLASSES);

        let (fc_ref, class_ref) = reference_inference(&img);
        assert_eq!(fc_hw, fc_ref);
        assert_eq!(class_hw, class_ref);
    }
}
