//! Virtual time and the persistent timekeeper.
//!
//! The paper's target platform uses an external persistent timing circuit
//! (de Winkel et al., ASPLOS '20) so that `Timely` re-execution semantics can
//! measure elapsed wall-clock time *across* power failures. We model this by
//! keeping a single monotonically increasing wall clock that includes both
//! on-time (the MCU executing) and off-time (the device dead, recharging).

/// Monotonic virtual clock with separate on/off accounting.
///
/// All times are in microseconds. The simulated CPU runs at 1 MHz, matching
/// the paper's evaluation frequency, so one CPU cycle is one microsecond.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now_us: u64,
    on_us: u64,
    off_us: u64,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current wall-clock time in microseconds (persistent across failures).
    ///
    /// This is what the persistent timekeeper returns; reading it from task
    /// code has a cost which is charged by the caller.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Total time the MCU has spent powered and executing.
    pub fn on_us(&self) -> u64 {
        self.on_us
    }

    /// Total time the MCU has spent dark (power failure / recharging).
    pub fn off_us(&self) -> u64 {
        self.off_us
    }

    /// Advances the clock by `us` microseconds of powered execution.
    #[inline]
    pub fn advance_on(&mut self, us: u64) {
        self.now_us += us;
        self.on_us += us;
    }

    /// Advances the clock by `us` microseconds of dead time.
    pub fn advance_off(&mut self, us: u64) {
        self.now_us += us;
        self.off_us += us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = Clock::new();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.on_us(), 0);
        assert_eq!(c.off_us(), 0);
    }

    #[test]
    fn on_and_off_time_sum_to_wall_time() {
        let mut c = Clock::new();
        c.advance_on(120);
        c.advance_off(30);
        c.advance_on(7);
        assert_eq!(c.now_us(), 157);
        assert_eq!(c.on_us(), 127);
        assert_eq!(c.off_us(), 30);
        assert_eq!(c.on_us() + c.off_us(), c.now_us());
    }

    #[test]
    fn wall_time_is_monotone() {
        let mut c = Clock::new();
        let mut last = 0;
        for i in 0..100 {
            if i % 3 == 0 {
                c.advance_off(i);
            } else {
                c.advance_on(i);
            }
            assert!(c.now_us() >= last);
            last = c.now_us();
        }
    }
}
