//! QPU access-time model.
//!
//! Physical annealers bill wall-clock as `programming + reads·(anneal +
//! readout + delay)`. The simulator reports what a real submission would
//! have cost so the benches can compare "QPU access time" against classical
//! CPU time, which is the comparison the paper's future-work section is
//! after.
//!
//! Defaults follow published D-Wave Advantage access-time figures
//! (microseconds).

use std::time::Duration;

/// Per-phase timing parameters of a simulated QPU, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuTimingModel {
    /// One-time cost of programming the Hamiltonian onto the chip.
    pub programming_us: f64,
    /// Duration of a single anneal.
    pub anneal_us: f64,
    /// Readout of one sample.
    pub readout_us: f64,
    /// Inter-sample thermalization delay.
    pub delay_us: f64,
}

impl Default for QpuTimingModel {
    fn default() -> Self {
        // Representative D-Wave Advantage figures.
        Self {
            programming_us: 15_000.0,
            anneal_us: 20.0,
            readout_us: 120.0,
            delay_us: 21.0,
        }
    }
}

impl QpuTimingModel {
    /// Computes the billed access time for `num_reads` samples.
    pub fn access_time(&self, num_reads: usize) -> QpuTiming {
        let per_sample = self.anneal_us + self.readout_us + self.delay_us;
        let sampling_us = per_sample * num_reads as f64;
        QpuTiming {
            programming_us: self.programming_us,
            sampling_us,
            total_us: self.programming_us + sampling_us,
            num_reads,
        }
    }
}

/// The billed access time of one simulated QPU call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuTiming {
    /// Programming phase, µs.
    pub programming_us: f64,
    /// Total sampling phase (all reads), µs.
    pub sampling_us: f64,
    /// Total access time, µs.
    pub total_us: f64,
    /// Reads taken.
    pub num_reads: usize,
}

impl QpuTiming {
    /// Total access time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos((self.total_us * 1_000.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_time_is_affine_in_reads() {
        let m = QpuTimingModel::default();
        let t1 = m.access_time(1);
        let t100 = m.access_time(100);
        let per_sample = t1.sampling_us;
        assert!((t100.sampling_us - 100.0 * per_sample).abs() < 1e-9);
        assert!((t100.total_us - (m.programming_us + 100.0 * per_sample)).abs() < 1e-9);
    }

    #[test]
    fn zero_reads_cost_only_programming() {
        let m = QpuTimingModel::default();
        let t = m.access_time(0);
        assert_eq!(t.sampling_us, 0.0);
        assert_eq!(t.total_us, m.programming_us);
    }

    #[test]
    fn duration_conversion() {
        let m = QpuTimingModel {
            programming_us: 1000.0,
            anneal_us: 0.0,
            readout_us: 0.0,
            delay_us: 0.0,
        };
        assert_eq!(m.access_time(5).total(), Duration::from_millis(1));
    }
}
