//! Statistics over a run's repetitions.
//!
//! Host time on a shared virtual machine is bimodal: the same repetition
//! takes either its uncontended time or up to twice that, and the slow
//! state comes and goes every few seconds. A run's host-time metric is
//! therefore the *fastest* repetition ([`best`]), not the mean. Every
//! repetition must also have produced the same result ([`IdentityGuard`]):
//! the simulator is deterministic, so a difference is a bug, and a
//! timing taken from a repetition that did different work means nothing.

/// The smallest sample, or `None` when there is none.
pub fn best(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// The sum over parts of each part's fastest time. `reps[r][i]` is part
/// `i` of repetition `r`, for parts a repetition times separately (one
/// app of a sweep matrix). A slow stretch that hits one part of a
/// repetition then costs only that part. `None` without repetitions or
/// when repetitions disagree on the number of parts.
pub fn best_sum(reps: &[Vec<f64>]) -> Option<f64> {
    let n = reps.first()?.len();
    if reps.iter().any(|r| r.len() != n) {
        return None;
    }
    (0..n)
        .map(|i| best(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// The median, as Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// Exact integer tallies of one repetition (simulated energy, counts):
/// everything a deterministic simulator must reproduce bit for bit.
pub type Tallies = Vec<(&'static str, u64)>;

/// Holds the first repetition's result and rejects any later repetition
/// whose result identity or exact tallies differ from it.
#[derive(Debug, Default)]
pub struct IdentityGuard {
    first: Option<(String, Tallies)>,
}

impl IdentityGuard {
    /// Checks one repetition against the first. The first call records.
    pub fn check(&mut self, identity: &str, tallies: &Tallies) -> Result<(), String> {
        let Some((id0, t0)) = &self.first else {
            self.first = Some((identity.to_string(), tallies.clone()));
            return Ok(());
        };
        if id0 != identity {
            let at = id0
                .bytes()
                .zip(identity.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(id0.len().min(identity.len()));
            return Err(format!(
                "result identity differs from the first repetition at byte {at} \
                 ({} vs {} bytes)",
                identity.len(),
                id0.len()
            ));
        }
        for ((name, a), (_, b)) in t0.iter().zip(tallies) {
            if a != b {
                return Err(format!(
                    "exact tally {name} differs from the first repetition: {b} vs {a}"
                ));
            }
        }
        if t0.len() != tallies.len() {
            return Err("exact tally sets differ between repetitions".into());
        }
        Ok(())
    }

    /// The first repetition's tallies, once one was checked.
    pub fn tallies(&self) -> Option<&Tallies> {
        self.first.as_ref().map(|(_, t)| t)
    }
}

/// Length and FNV-1a hash of everything `r` yields, read in 64 KiB
/// chunks so fingerprinting a large stream never holds it in memory (and
/// never shows up in the run's peak RSS).
pub fn fingerprint(mut r: impl std::io::Read) -> std::io::Result<(u64, u64)> {
    let mut buf = vec![0u8; 64 * 1024];
    let (mut len, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            return Ok((len, hash));
        }
        len += n as u64;
        for &b in &buf[..n] {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_fastest_repetition() {
        assert_eq!(best(&[0.31, 0.2, 0.35, 0.21]), Some(0.2));
        assert_eq!(best(&[7.0]), Some(7.0));
        assert_eq!(best(&[]), None);
    }

    #[test]
    fn best_ignores_a_slow_state_that_median_and_mean_do_not() {
        // Half the repetitions land in the slow host state.
        let fast = [200.0, 203.0, 201.0, 205.0, 202.0];
        let mut mixed = fast.to_vec();
        mixed.extend([350.0, 360.0, 345.0, 355.0, 352.0]);
        assert_eq!(best(&mixed), best(&fast));
        assert!(median(&mixed).unwrap() > 250.0);
    }

    #[test]
    fn best_sum_takes_each_part_at_its_fastest() {
        let reps = vec![vec![1.0, 5.0], vec![3.0, 2.0], vec![4.0, 4.0]];
        assert_eq!(best_sum(&reps), Some(3.0));
        // Never slower than the fastest whole repetition.
        assert!(best_sum(&reps).unwrap() <= 5.0);
        assert_eq!(best_sum(&[vec![0.25]]), Some(0.25));
        assert_eq!(best_sum(&[]), None);
        assert_eq!(best_sum(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn median_matches_python_statistics_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[-1.5]), Some(-1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fingerprint_is_fnv1a_over_the_whole_stream() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(fingerprint(&b""[..]).unwrap(), (0, 0xcbf2_9ce4_8422_2325));
        assert_eq!(fingerprint(&b"a"[..]).unwrap(), (1, 0xaf63_dc4c_8601_ec8c));
        let big = vec![7u8; 200_000];
        let (len, h) = fingerprint(&big[..]).unwrap();
        assert_eq!(len, 200_000);
        assert_ne!(h, fingerprint(&big[1..]).unwrap().1);
    }

    #[test]
    fn identity_guard_accepts_identical_repetitions() {
        let mut g = IdentityGuard::default();
        let t: Tallies = vec![("energy_nj", 42), ("items", 7)];
        g.check("outcome-a", &t).unwrap();
        g.check("outcome-a", &t).unwrap();
        assert_eq!(g.tallies(), Some(&t));
    }

    #[test]
    fn identity_guard_rejects_a_repetition_that_differs() {
        let mut g = IdentityGuard::default();
        g.check("violations=[]", &vec![("energy_nj", 42)]).unwrap();
        let err = g.check("violations=[7]", &vec![("energy_nj", 42)]);
        assert!(err.unwrap_err().contains("byte 12"));
        let err = g.check("violations=[]", &vec![("energy_nj", 43)]);
        assert!(err.unwrap_err().contains("energy_nj"));
        let err = g.check("violations=[]", &vec![]);
        assert!(err.is_err());
    }
}
