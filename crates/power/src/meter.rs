//! RAPL-style energy metering over virtual time.

use serde::{Deserialize, Serialize};

use crate::{CoreState, PowerModel};

/// One entry of the recorded power profile: the cluster drew `watts`
/// between `t0` and `t1` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Segment start, seconds.
    pub t0: f64,
    /// Segment end, seconds.
    pub t1: f64,
    /// Average power over the segment, watts.
    pub watts: f64,
}

/// Integrates power over virtual-time segments and records the profile.
///
/// The resilient-solver driver reports each phase of the run ("all N cores
/// computing at 2.3 GHz from t₀ to t₁", "1 core reconstructing + N−1
/// busy-waiting at 1.2 GHz", ...); the meter converts state mixes to watts
/// through the [`PowerModel`], accumulates joules, and keeps the piecewise
/// power profile that reproduces Figure 7a.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    joules: f64,
    samples: Vec<PowerSample>,
    last_t: f64,
}

impl EnergyMeter {
    /// A meter starting at virtual time zero.
    pub fn new(model: PowerModel) -> Self {
        EnergyMeter {
            model,
            joules: 0.0,
            samples: Vec::new(),
            last_t: 0.0,
        }
    }

    /// The underlying power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Accounts the segment `[t0, t1)` during which the cluster's cores
    /// were distributed as `groups` (`(state, freq_ghz, count)` triples).
    ///
    /// Segments must be reported in order; zero-length segments are
    /// ignored.
    ///
    /// # Panics
    /// Panics if `t1 < t0` or the segment overlaps an earlier one.
    pub fn account(&mut self, t0: f64, t1: f64, groups: &[(CoreState, f64, usize)]) {
        assert!(t1 >= t0, "segment must not be reversed: {t0}..{t1}");
        assert!(
            t0 >= self.last_t - 1e-9,
            "segment {t0}..{t1} overlaps earlier accounting up to {}",
            self.last_t
        );
        if t1 == t0 {
            return;
        }
        let watts = self.model.group_power(groups);
        self.joules += watts * (t1 - t0);
        // Merge adjacent equal-power segments to keep the profile compact.
        if let Some(last) = self.samples.last_mut() {
            if (last.watts - watts).abs() < 1e-9 && (last.t1 - t0).abs() < 1e-9 {
                last.t1 = t1;
                self.last_t = t1;
                return;
            }
        }
        self.samples.push(PowerSample { t0, t1, watts });
        self.last_t = t1;
    }

    /// Accounts the storage subsystem's own energy for `bytes` of
    /// checkpoint traffic (writes or restore reads), at the model's
    /// joules-per-byte rate.
    ///
    /// Storage energy is not tied to a time segment — the cores' power
    /// during the transfer is accounted separately as `StorageWait` — so
    /// it adds joules without touching the power profile (it shows up in
    /// the run's average power, as a shared storage tier's draw would).
    pub fn account_storage_bytes(&mut self, bytes: u64) {
        self.joules += bytes as f64 * self.model.config().storage_energy_per_byte_j;
    }

    /// Total accumulated energy, joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Average power over everything accounted so far, watts.
    pub fn average_power(&self) -> f64 {
        let span: f64 = self.samples.iter().map(|s| s.t1 - s.t0).sum();
        if span == 0.0 {
            0.0
        } else {
            self.joules / span
        }
    }

    /// The recorded piecewise power profile.
    pub fn profile(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Resamples the profile at fixed `dt` intervals — convenient for
    /// plotting Figure 7a-style traces.
    pub fn resample(&self, dt: f64) -> Vec<(f64, f64)> {
        assert!(dt > 0.0);
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut i = 0;
        while t < self.last_t && i < self.samples.len() {
            let s = &self.samples[i];
            if t < s.t0 {
                // Unaccounted gap (shouldn't happen with a well-behaved
                // driver); emit zero power.
                out.push((t, 0.0));
                t += dt;
                continue;
            }
            if t >= s.t1 {
                i += 1;
                continue;
            }
            out.push((t, s.watts));
            t += dt;
        }
        out
    }
}

/// An emulated RAPL MSR energy counter: microjoules stored in a 32-bit
/// register that wraps around, exactly like `MSR_PKG_ENERGY_STATUS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RaplCounter {
    total_uj: u64,
}

impl RaplCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        RaplCounter::default()
    }

    /// Adds `joules` of consumed energy.
    pub fn add_joules(&mut self, joules: f64) {
        assert!(joules >= 0.0, "energy cannot decrease");
        self.total_uj += (joules * 1e6).round() as u64;
    }

    /// Current register value: microjoules modulo 2³² (the reader must
    /// handle wraparound, as with real RAPL).
    pub fn read_uj(&self) -> u32 {
        (self.total_uj & 0xFFFF_FFFF) as u32
    }

    /// Total microjoules without wraparound (ground truth for tests).
    pub fn total_uj(&self) -> u64 {
        self.total_uj
    }

    /// Computes the energy delta between two register reads, accounting
    /// for at most one wraparound.
    pub fn delta_uj(before: u32, after: u32) -> u64 {
        if after >= before {
            (after - before) as u64
        } else {
            (1u64 << 32) - before as u64 + after as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(PowerModel::default())
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut m = meter();
        let fmax = m.model().freq_table().max();
        let watts = m.model().core_power(CoreState::Compute, fmax);
        m.account(0.0, 10.0, &[(CoreState::Compute, fmax, 1)]);
        assert!((m.joules() - watts * 10.0).abs() < 1e-9);
        assert!((m.average_power() - watts).abs() < 1e-9);
    }

    #[test]
    fn adjacent_equal_segments_merge() {
        let mut m = meter();
        let fmax = m.model().freq_table().max();
        m.account(0.0, 1.0, &[(CoreState::Compute, fmax, 4)]);
        m.account(1.0, 2.0, &[(CoreState::Compute, fmax, 4)]);
        assert_eq!(m.profile().len(), 1);
        assert_eq!(m.profile()[0].t1, 2.0);
    }

    #[test]
    fn different_power_creates_new_segment() {
        let mut m = meter();
        let ft = m.model().freq_table().clone();
        m.account(0.0, 1.0, &[(CoreState::Compute, ft.max(), 4)]);
        m.account(1.0, 2.0, &[(CoreState::BusyWait, ft.min(), 4)]);
        assert_eq!(m.profile().len(), 2);
        assert!(m.profile()[0].watts > m.profile()[1].watts);
    }

    #[test]
    #[should_panic]
    fn overlapping_segments_panic() {
        let mut m = meter();
        let f = m.model().freq_table().max();
        m.account(0.0, 2.0, &[(CoreState::Compute, f, 1)]);
        m.account(1.0, 3.0, &[(CoreState::Compute, f, 1)]);
    }

    #[test]
    fn resample_produces_fixed_step_series() {
        let mut m = meter();
        let f = m.model().freq_table().max();
        m.account(0.0, 1.0, &[(CoreState::Compute, f, 2)]);
        m.account(1.0, 2.0, &[(CoreState::Idle, f, 2)]);
        let series = m.resample(0.25);
        assert_eq!(series.len(), 8);
        assert!(series[0].1 > series[7].1);
    }

    #[test]
    fn storage_bytes_add_energy_without_a_profile_segment() {
        let mut m = meter();
        let per_byte = m.model().config().storage_energy_per_byte_j;
        m.account_storage_bytes(1_000_000);
        assert!((m.joules() - 1e6 * per_byte).abs() < 1e-12);
        assert!(m.profile().is_empty(), "no time segment for storage bytes");
        // Interleaves freely with time-segment accounting.
        let f = m.model().freq_table().max();
        m.account(0.0, 1.0, &[(CoreState::Compute, f, 1)]);
        let with_segment = m.joules();
        m.account_storage_bytes(500);
        assert!(m.joules() > with_segment);
    }

    #[test]
    fn rapl_counter_wraps_like_the_real_msr() {
        let mut c = RaplCounter::new();
        c.add_joules(4294.0); // just under 2^32 µJ
        let before = c.read_uj();
        c.add_joules(10.0);
        let after = c.read_uj();
        assert!(after < before, "expected wraparound");
        let delta = RaplCounter::delta_uj(before, after);
        assert!((delta as f64 - 10e6).abs() < 2.0);
    }

    #[test]
    fn zero_length_segment_is_ignored() {
        let mut m = meter();
        let f = m.model().freq_table().max();
        m.account(0.0, 0.0, &[(CoreState::Compute, f, 1)]);
        assert_eq!(m.joules(), 0.0);
        assert!(m.profile().is_empty());
    }
}
