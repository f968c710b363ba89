//! Sample aggregation: the result type every sampler returns.

use std::collections::HashMap;

/// One distinct binary assignment drawn by a sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The binary assignment (one 0/1 byte per variable).
    pub state: Vec<u8>,
    /// QUBO energy of `state` (includes the model offset).
    pub energy: f64,
    /// How many reads produced this exact state.
    pub occurrences: u32,
}

/// An energy-sorted collection of distinct samples.
///
/// Mirrors the D-Wave `SampleSet`: duplicate states are aggregated with an
/// occurrence count, the lowest-energy sample comes first, and ties are
/// broken by occurrence count (more frequent first) then lexicographically
/// by state for determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// Builds a sample set from raw `(state, energy)` reads, aggregating
    /// duplicates and sorting by energy.
    pub fn from_reads(reads: Vec<(Vec<u8>, f64)>) -> Self {
        let mut agg: HashMap<Vec<u8>, (f64, u32)> = HashMap::new();
        for (state, energy) in reads {
            let entry = agg.entry(state).or_insert((energy, 0));
            entry.1 += 1;
            // Energies of identical states must agree; keep the first and
            // assert in debug builds.
            debug_assert!(
                (entry.0 - energy).abs() < 1e-9,
                "identical states reported different energies"
            );
        }
        let mut samples: Vec<Sample> = agg
            .into_iter()
            .map(|(state, (energy, occurrences))| Sample {
                state,
                energy,
                occurrences,
            })
            .collect();
        samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .expect("sample energies must not be NaN")
                .then(b.occurrences.cmp(&a.occurrences))
                .then(a.state.cmp(&b.state))
        });
        Self { samples }
    }

    /// The lowest-energy sample, if any reads were taken.
    pub fn best(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// The lowest energy observed.
    pub fn lowest_energy(&self) -> Option<f64> {
        self.best().map(|s| s.energy)
    }

    /// All distinct samples, lowest energy first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of *distinct* states.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no reads were taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total reads across all distinct states.
    pub fn total_reads(&self) -> u32 {
        self.samples.iter().map(|s| s.occurrences).sum()
    }

    /// Fraction of reads that landed within `tol` of the lowest energy.
    /// This is the "ground-state success probability" metric used in the
    /// sampler benches.
    pub fn success_fraction(&self, tol: f64) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 0.0;
        }
        let best = self.samples[0].energy;
        let hits: u32 = self
            .samples
            .iter()
            .filter(|s| s.energy <= best + tol)
            .map(|s| s.occurrences)
            .sum();
        hits as f64 / total as f64
    }

    /// All samples whose energy is within `tol` of the minimum.
    pub fn ground_states(&self, tol: f64) -> Vec<&Sample> {
        match self.lowest_energy() {
            None => Vec::new(),
            Some(best) => self
                .samples
                .iter()
                .take_while(|s| s.energy <= best + tol)
                .collect(),
        }
    }

    /// Read-weighted energy statistics across all samples. `None` for an
    /// empty set.
    pub fn energy_stats(&self) -> Option<EnergyStats> {
        let total = self.total_reads();
        if total == 0 {
            return None;
        }
        let n = total as f64;
        let mean = self
            .samples
            .iter()
            .map(|s| s.energy * s.occurrences as f64)
            .sum::<f64>()
            / n;
        let var = self
            .samples
            .iter()
            .map(|s| (s.energy - mean).powi(2) * s.occurrences as f64)
            .sum::<f64>()
            / n;
        Some(EnergyStats {
            min: self.samples.first().expect("nonempty").energy,
            max: self.samples.last().expect("nonempty").energy,
            mean,
            std_dev: var.sqrt(),
        })
    }

    /// Merges another sample set into this one, re-aggregating duplicates.
    pub fn merge(self, other: SampleSet) -> SampleSet {
        let reads = self
            .samples
            .into_iter()
            .chain(other.samples)
            .flat_map(|s| std::iter::repeat_n((s.state, s.energy), s.occurrences as usize))
            .collect();
        SampleSet::from_reads(reads)
    }
}

/// Read-weighted summary statistics of a sample set's energies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyStats {
    /// Lowest observed energy.
    pub min: f64,
    /// Highest observed energy.
    pub max: f64,
    /// Read-weighted mean energy.
    pub mean: f64,
    /// Read-weighted standard deviation.
    pub std_dev: f64,
}

impl IntoIterator for SampleSet {
    type Item = Sample;
    type IntoIter = std::vec::IntoIter<Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_aggregate_with_counts() {
        let set = SampleSet::from_reads(vec![
            (vec![0, 1], 1.0),
            (vec![0, 1], 1.0),
            (vec![1, 0], -1.0),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_reads(), 3);
        assert_eq!(set.best().unwrap().state, vec![1, 0]);
        let dup = set.iter().find(|s| s.state == vec![0, 1]).unwrap();
        assert_eq!(dup.occurrences, 2);
    }

    #[test]
    fn sorted_lowest_energy_first() {
        let set = SampleSet::from_reads(vec![(vec![1], 5.0), (vec![0], -5.0)]);
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        assert_eq!(energies, vec![-5.0, 5.0]);
    }

    #[test]
    fn ties_broken_by_occurrences_then_state() {
        let set = SampleSet::from_reads(vec![
            (vec![1, 1], 0.0),
            (vec![0, 0], 0.0),
            (vec![1, 1], 0.0),
        ]);
        assert_eq!(set.best().unwrap().state, vec![1, 1]);
    }

    #[test]
    fn success_fraction_counts_reads_not_states() {
        let set = SampleSet::from_reads(vec![
            (vec![0], 0.0),
            (vec![0], 0.0),
            (vec![0], 0.0),
            (vec![1], 1.0),
        ]);
        assert!((set.success_fraction(1e-9) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ground_states_respects_tolerance() {
        let set = SampleSet::from_reads(vec![
            (vec![0, 0], 0.0),
            (vec![0, 1], 0.05),
            (vec![1, 1], 3.0),
        ]);
        assert_eq!(set.ground_states(0.1).len(), 2);
        assert_eq!(set.ground_states(1e-9).len(), 1);
    }

    #[test]
    fn empty_set_behaviour() {
        let set = SampleSet::from_reads(vec![]);
        assert!(set.is_empty());
        assert!(set.best().is_none());
        assert_eq!(set.success_fraction(0.0), 0.0);
        assert!(set.ground_states(0.0).is_empty());
    }

    #[test]
    fn energy_stats_are_read_weighted() {
        let set = SampleSet::from_reads(vec![(vec![0], 0.0), (vec![0], 0.0), (vec![1], 3.0)]);
        let st = set.energy_stats().unwrap();
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 3.0);
        assert!((st.mean - 1.0).abs() < 1e-12);
        assert!((st.std_dev - (2.0f64).sqrt()).abs() < 1e-12);
        assert!(SampleSet::from_reads(vec![]).energy_stats().is_none());
    }

    #[test]
    fn merge_reaggregates() {
        let a = SampleSet::from_reads(vec![(vec![1], 1.0)]);
        let b = SampleSet::from_reads(vec![(vec![1], 1.0), (vec![0], 0.0)]);
        let m = a.merge(b);
        assert_eq!(m.total_reads(), 3);
        assert_eq!(
            m.iter().find(|s| s.state == vec![1]).unwrap().occurrences,
            2
        );
    }
}
