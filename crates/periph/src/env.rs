//! Deterministic time-varying physical environment.
//!
//! Sensor readings are pure functions of (seed, wall-clock time): a slow
//! periodic drift plus bucketed pseudo-random noise. Two samples taken at
//! different times generally differ — exactly the property that makes the
//! paper's Figure 2c unsafe-execution bug reproducible: a re-executed
//! temperature read after a power failure can cross a branch threshold the
//! original read did not.

/// SplitMix64 — a tiny, high-quality deterministic hash for noise.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Symmetric triangle wave of the given period, returning −1000..=1000
/// (parts-per-thousand of full amplitude).
fn triangle_ppm(t_us: u64, period_us: u64) -> i64 {
    let pos = (t_us % period_us) as i64;
    let half = (period_us / 2) as i64;
    // Rises 0→1000 over the first half, falls back over the second.
    let up = pos.min(2 * half - pos);
    (up * 2000 / half) - 1000
}

/// The simulated physical environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    seed: u64,
}

impl Environment {
    /// Creates an environment; all quantities are deterministic in the seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Noise in −`amp`..=`amp`, constant within `bucket_us` time buckets.
    fn noise(&self, channel: u64, t_us: u64, bucket_us: u64, amp: i64) -> i64 {
        let h = splitmix64(self.seed ^ channel.wrapping_mul(0xA5A5) ^ (t_us / bucket_us));
        if amp == 0 {
            return 0;
        }
        (h % (2 * amp as u64 + 1)) as i64 - amp
    }

    /// Ambient temperature in centi-degrees Celsius.
    ///
    /// ~12 °C swing over a 8 s period around 12 °C, ±0.8 °C noise per 3 ms
    /// bucket. The range deliberately straddles the 10 °C threshold used by
    /// the paper's Figure 2c example so branch outcomes flip over time.
    pub fn temp_centi_c(&self, t_us: u64) -> i32 {
        let drift = triangle_ppm(t_us, 8_000_000) * 600 / 1000; // ±6.0 °C
        (1200 + drift + self.noise(1, t_us, 3_000, 80)) as i32
    }

    /// Relative humidity in tenths of a percent (0..=1000).
    pub fn humidity_permille(&self, t_us: u64) -> i32 {
        let drift = triangle_ppm(t_us, 11_000_000) * 250 / 1000; // ±25 %
        (550 + drift + self.noise(2, t_us, 5_000, 30)).clamp(0, 1000) as i32
    }

    /// Barometric pressure in decapascals (~10130 = 1013.0 hPa).
    pub fn pressure_dapa(&self, t_us: u64) -> i32 {
        let drift = triangle_ppm(t_us, 17_000_000) * 40 / 1000;
        (10_130 + drift + self.noise(3, t_us, 7_000, 10)) as i32
    }

    /// Ambient light level 0..=4095 (a 12-bit ADC), used by extension
    /// examples.
    pub fn light_adc(&self, t_us: u64) -> i32 {
        let drift = triangle_ppm(t_us, 5_000_000) * 1500 / 1000;
        (2048 + drift + self.noise(4, t_us, 2_000, 200)).clamp(0, 4095) as i32
    }

    /// Acceleration magnitude in milli-g: gravity plus motion bursts.
    ///
    /// The scene alternates between stillness (±20 mg of sensor noise) and
    /// half-second activity bursts every two seconds (±300 mg), so
    /// activity-detection workloads see both classes deterministically.
    pub fn accel_magnitude_mg(&self, t_us: u64) -> i32 {
        let in_burst = (t_us / 500_000).is_multiple_of(4);
        let amp = if in_burst { 300 } else { 20 };
        (1000 + self.noise(5, t_us, 1_500, amp)) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed_and_time() {
        let a = Environment::new(5);
        let b = Environment::new(5);
        let c = Environment::new(6);
        for t in [0u64, 123, 999_999, 10_000_000] {
            assert_eq!(a.temp_centi_c(t), b.temp_centi_c(t));
            assert_eq!(a.humidity_permille(t), b.humidity_permille(t));
        }
        // Different seeds disagree somewhere.
        assert!((0..50u64).any(|i| a.temp_centi_c(i * 10_000) != c.temp_centi_c(i * 10_000)));
    }

    #[test]
    fn temperature_varies_over_time() {
        let e = Environment::new(1);
        let vals: Vec<i32> = (0..100).map(|i| e.temp_centi_c(i * 100_000)).collect();
        let min = *vals.iter().min().unwrap();
        let max = *vals.iter().max().unwrap();
        assert!(max - min > 400, "temperature must drift: {min}..{max}");
    }

    #[test]
    fn temperature_crosses_10c_threshold() {
        // The Fig. 2c scenario requires readings on both sides of 10 °C.
        let e = Environment::new(2);
        let below = (0..200u64).any(|i| e.temp_centi_c(i * 100_000) < 1000);
        let above = (0..200u64).any(|i| e.temp_centi_c(i * 100_000) >= 1000);
        assert!(below && above);
    }

    #[test]
    fn nearby_samples_within_noise_bucket_agree() {
        let e = Environment::new(3);
        // Two samples in the same 3 ms noise bucket and same drift µs-range
        // are close (drift moves < 1 centi-degree per ms).
        let a = e.temp_centi_c(6_000_000);
        let b = e.temp_centi_c(6_000_200);
        assert!((a - b).abs() <= 2, "{a} vs {b}");
    }

    #[test]
    fn humidity_and_pressure_in_physical_ranges() {
        let e = Environment::new(4);
        for i in 0..500u64 {
            let t = i * 50_000;
            let h = e.humidity_permille(t);
            assert!((0..=1000).contains(&h));
            let p = e.pressure_dapa(t);
            assert!((9_500..=10_800).contains(&p));
            let l = e.light_adc(t);
            assert!((0..=4095).contains(&l));
        }
    }

    #[test]
    fn triangle_wave_is_periodic_and_bounded() {
        for t in 0..3000u64 {
            let v = triangle_ppm(t, 1000);
            assert!((-1000..=1000).contains(&v));
            assert_eq!(v, triangle_ppm(t + 1000, 1000));
        }
        assert_eq!(triangle_ppm(0, 1000), -1000);
        assert_eq!(triangle_ppm(500, 1000), 1000);
    }
}
