//! Annealing temperature (β = 1/T) schedules.

use qsmt_qubo::CompiledQubo;

/// An inverse-temperature schedule for simulated annealing.
///
/// The annealer performs one full sweep over the variables at each β in the
/// realized schedule, moving from the hot end (small β, near-random walk) to
/// the cold end (large β, near-greedy descent).
#[derive(Debug, Clone, PartialEq)]
pub enum BetaSchedule {
    /// β interpolated geometrically between `beta_min` and `beta_max` over
    /// `sweeps` steps — the default, matching D-Wave's neal sampler.
    Geometric {
        /// Hot-end inverse temperature.
        beta_min: f64,
        /// Cold-end inverse temperature.
        beta_max: f64,
        /// Number of sweeps (schedule points).
        sweeps: usize,
    },
    /// β interpolated linearly between `beta_min` and `beta_max`.
    Linear {
        /// Hot-end inverse temperature.
        beta_min: f64,
        /// Cold-end inverse temperature.
        beta_max: f64,
        /// Number of sweeps (schedule points).
        sweeps: usize,
    },
}

impl BetaSchedule {
    /// Default geometric schedule with a β range derived from the model's
    /// coefficient scale, following the heuristic used by D-Wave's simulated
    /// annealer:
    ///
    /// * hot: a flip of the *largest* possible |ΔE| is accepted with
    ///   probability 1/2 ⇒ `beta_min = ln 2 / max|ΔE|`;
    /// * cold: a flip over the *smallest* barrier is accepted with
    ///   probability 1/100 ⇒ `beta_max = ln 100 / min|coeff|`.
    ///
    /// Degenerate models — all-zero coefficients, or coefficients that are
    /// NaN/infinite or so extreme that the derived β endpoints leave
    /// `(0, ∞)` — get a fixed `[0.1, 1.0]` range so the sampler still
    /// terminates instead of panicking in [`BetaSchedule::realize`] or
    /// poisoning the acceptance tables.
    pub fn auto(compiled: &CompiledQubo, sweeps: usize) -> Self {
        let max_delta = compiled.max_flip_magnitude();
        let min_coeff = compiled.min_nonzero_magnitude();
        let derived = match (max_delta.is_finite() && max_delta > 0.0, min_coeff) {
            (true, Some(min_c)) if min_c.is_finite() && min_c > 0.0 => {
                let hot = (2.0f64).ln() / max_delta;
                let cold = (100.0f64).ln() / min_c;
                // Keep the range ordered even for pathological models where
                // min_c is huge relative to max_delta.
                Some((hot.min(cold), cold.max(hot * 2.0)))
            }
            _ => None,
        };
        // NaN fails every comparison, so a poisoned endpoint also lands in
        // the fallback.
        let (beta_min, beta_max) = match derived {
            Some((lo, hi)) if lo > 0.0 && hi.is_finite() && lo <= hi => (lo, hi),
            _ => (0.1, 1.0),
        };
        BetaSchedule::Geometric {
            beta_min,
            beta_max,
            sweeps,
        }
    }

    /// Number of sweeps this schedule realizes.
    pub fn len(&self) -> usize {
        match self {
            BetaSchedule::Geometric { sweeps, .. } | BetaSchedule::Linear { sweeps, .. } => *sweeps,
        }
    }

    /// True when the schedule realizes no sweeps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the schedule into a β-per-sweep vector.
    ///
    /// # Panics
    /// Panics if a geometric schedule has a non-positive β endpoint, or
    /// if `beta_min > beta_max`.
    pub fn realize(&self) -> Vec<f64> {
        match self {
            BetaSchedule::Geometric {
                beta_min,
                beta_max,
                sweeps,
            } => {
                assert!(
                    *beta_min > 0.0 && *beta_max > 0.0,
                    "geometric schedule requires positive β"
                );
                assert!(beta_min <= beta_max, "beta_min must be ≤ beta_max");
                match sweeps {
                    0 => Vec::new(),
                    1 => vec![*beta_max],
                    _ => {
                        let ratio = (beta_max / beta_min).powf(1.0 / (*sweeps as f64 - 1.0));
                        let mut betas = Vec::with_capacity(*sweeps);
                        let mut b = *beta_min;
                        for _ in 0..*sweeps {
                            betas.push(b);
                            b *= ratio;
                        }
                        betas
                    }
                }
            }
            BetaSchedule::Linear {
                beta_min,
                beta_max,
                sweeps,
            } => {
                assert!(beta_min <= beta_max, "beta_min must be ≤ beta_max");
                match sweeps {
                    0 => Vec::new(),
                    1 => vec![*beta_max],
                    _ => (0..*sweeps)
                        .map(|i| {
                            beta_min + (beta_max - beta_min) * i as f64 / (*sweeps as f64 - 1.0)
                        })
                        .collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_qubo::QuboModel;

    #[test]
    fn geometric_endpoints_and_monotonicity() {
        let s = BetaSchedule::Geometric {
            beta_min: 0.1,
            beta_max: 10.0,
            sweeps: 50,
        };
        let b = s.realize();
        assert_eq!(b.len(), 50);
        assert!((b[0] - 0.1).abs() < 1e-9);
        assert!((b[49] - 10.0).abs() < 1e-6);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn linear_endpoints_and_spacing() {
        let s = BetaSchedule::Linear {
            beta_min: 1.0,
            beta_max: 3.0,
            sweeps: 5,
        };
        assert_eq!(s.realize(), vec![1.0, 1.5, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn single_sweep_uses_cold_end() {
        let s = BetaSchedule::Geometric {
            beta_min: 0.5,
            beta_max: 7.0,
            sweeps: 1,
        };
        assert_eq!(s.realize(), vec![7.0]);
    }

    #[test]
    fn zero_sweeps_realizes_empty() {
        let s = BetaSchedule::Linear {
            beta_min: 1.0,
            beta_max: 2.0,
            sweeps: 0,
        };
        assert!(s.realize().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn auto_schedule_covers_model_scale() {
        let mut m = QuboModel::new(3);
        m.add_linear(0, -4.0);
        m.add_quadratic(0, 1, 0.5);
        let c = qsmt_qubo::CompiledQubo::compile(&m);
        if let BetaSchedule::Geometric {
            beta_min, beta_max, ..
        } = BetaSchedule::auto(&c, 100)
        {
            // Hot enough to cross the largest barrier often...
            assert!(beta_min <= (2.0f64).ln() / 4.5 + 1e-9);
            // ...cold enough to freeze the smallest coefficient.
            assert!(beta_max >= (100.0f64).ln() / 0.5 - 1e-9);
        } else {
            panic!("auto must produce a geometric schedule");
        }
    }

    #[test]
    fn auto_schedule_handles_zero_model() {
        let c = qsmt_qubo::CompiledQubo::compile(&QuboModel::new(4));
        let b = BetaSchedule::auto(&c, 10).realize();
        assert_eq!(b.len(), 10);
        assert!(b.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn auto_schedule_survives_nonfinite_coefficients() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut m = QuboModel::new(2);
            m.add_linear(0, bad);
            m.add_quadratic(0, 1, 1.0);
            let c = qsmt_qubo::CompiledQubo::compile(&m);
            let b = BetaSchedule::auto(&c, 8).realize();
            assert_eq!(b.len(), 8, "coeff {bad}");
            assert!(
                b.iter().all(|v| v.is_finite() && *v > 0.0),
                "coeff {bad} produced {b:?}"
            );
        }
    }

    #[test]
    fn auto_schedule_survives_extreme_magnitudes() {
        // Endpoints derived from f64::MAX-scale deltas underflow toward 0;
        // the guard must keep every realized β positive and finite.
        let mut m = QuboModel::new(2);
        m.add_linear(0, f64::MAX);
        m.add_linear(1, f64::MAX);
        m.add_quadratic(0, 1, f64::MAX);
        let c = qsmt_qubo::CompiledQubo::compile(&m);
        let b = BetaSchedule::auto(&c, 8).realize();
        assert!(b.iter().all(|v| v.is_finite() && *v > 0.0), "{b:?}");
    }

    #[test]
    #[should_panic(expected = "beta_min must be ≤ beta_max")]
    fn inverted_range_panics() {
        BetaSchedule::Linear {
            beta_min: 2.0,
            beta_max: 1.0,
            sweeps: 3,
        }
        .realize();
    }
}
