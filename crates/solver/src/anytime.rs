//! Objective-vs-time trajectories (the data behind Figures 11–13).

use serde::{Deserialize, Serialize};

/// One point of an incumbent trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Wall-clock seconds since the solver started.
    pub elapsed_seconds: f64,
    /// Best (smallest) objective value known at that time.
    pub objective: f64,
}

/// The incumbent trajectory of an anytime solver.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an improvement (only kept if it actually improves on the last
    /// recorded objective).
    pub fn record(&mut self, elapsed_seconds: f64, objective: f64) {
        if let Some(last) = self.points.last() {
            if objective >= last.objective {
                return;
            }
        }
        self.points.push(TrajectoryPoint {
            elapsed_seconds,
            objective,
        });
    }

    /// All points, in increasing time.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// Best objective known at `elapsed` seconds (∞ before the first point).
    pub fn objective_at(&self, elapsed: f64) -> f64 {
        let mut best = f64::INFINITY;
        for p in &self.points {
            if p.elapsed_seconds <= elapsed {
                best = p.objective;
            } else {
                break;
            }
        }
        best
    }

    /// Final (best) objective, or ∞ when empty.
    pub fn final_objective(&self) -> f64 {
        self.points
            .last()
            .map(|p| p.objective)
            .unwrap_or(f64::INFINITY)
    }

    /// `true` when no improvement was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Merges two incumbent trajectories into their pointwise minimum: the
    /// merged step function reports, at every time `t`, the best objective
    /// either input knew at `t`. This is how the portfolio runner combines
    /// its member trajectories into one.
    ///
    /// Points recorded at *identical* timestamps — common once several
    /// members publish improvements within one timer tick — are handled
    /// explicitly: both streams advance through the tie and the **minimum**
    /// of their objectives is kept, never just whichever stream happened to
    /// be scanned first. The sweep keeps a running best per stream, so it is
    /// linear in the total number of points (the previous implementation
    /// re-derived every value through [`Trajectory::objective_at`], which
    /// rescanned from the start and leaned on point order instead of an
    /// explicit minimum).
    pub fn merge(&self, other: &Trajectory) -> Trajectory {
        let mut merged = Trajectory::new();
        let (a, b) = (&self.points, &other.points);
        let (mut i, mut j) = (0usize, 0usize);
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        while i < a.len() || j < b.len() {
            // Next event time: the earlier head; ties advance both streams
            // within the same turn.
            let t = match (a.get(i), b.get(j)) {
                (Some(pa), Some(pb)) => pa.elapsed_seconds.min(pb.elapsed_seconds),
                (Some(pa), None) => pa.elapsed_seconds,
                (None, Some(pb)) => pb.elapsed_seconds,
                (None, None) => unreachable!(),
            };
            while i < a.len() && a[i].elapsed_seconds <= t {
                best_a = best_a.min(a[i].objective);
                i += 1;
            }
            while j < b.len() && b[j].elapsed_seconds <= t {
                best_b = best_b.min(b[j].objective);
                j += 1;
            }
            let best = best_a.min(best_b);
            if best.is_finite() {
                merged.record(t, best);
            }
        }
        merged
    }

    /// Samples the trajectory at evenly spaced times (used to average several
    /// runs for the figures).
    pub fn sample(&self, horizon_seconds: f64, num_samples: usize) -> Vec<TrajectoryPoint> {
        (0..num_samples)
            .map(|i| {
                let t = horizon_seconds * (i as f64 + 1.0) / num_samples as f64;
                TrajectoryPoint {
                    elapsed_seconds: t,
                    objective: self.objective_at(t),
                }
            })
            .collect()
    }

    /// Averages several trajectories into one sampled series. Points where a
    /// run has no incumbent yet are skipped in the average for that sample.
    pub fn average(
        trajectories: &[Trajectory],
        horizon_seconds: f64,
        num_samples: usize,
    ) -> Vec<TrajectoryPoint> {
        (0..num_samples)
            .map(|i| {
                let t = horizon_seconds * (i as f64 + 1.0) / num_samples as f64;
                let values: Vec<f64> = trajectories
                    .iter()
                    .map(|tr| tr.objective_at(t))
                    .filter(|v| v.is_finite())
                    .collect();
                let objective = if values.is_empty() {
                    f64::INFINITY
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                };
                TrajectoryPoint {
                    elapsed_seconds: t,
                    objective,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_keeps_only_improvements() {
        let mut t = Trajectory::new();
        t.record(1.0, 100.0);
        t.record(2.0, 110.0); // worse — ignored
        t.record(3.0, 90.0);
        assert_eq!(t.points().len(), 2);
        assert_eq!(t.final_objective(), 90.0);
    }

    #[test]
    fn objective_at_is_a_step_function() {
        let mut t = Trajectory::new();
        t.record(1.0, 100.0);
        t.record(3.0, 90.0);
        assert!(t.objective_at(0.5).is_infinite());
        assert_eq!(t.objective_at(1.0), 100.0);
        assert_eq!(t.objective_at(2.9), 100.0);
        assert_eq!(t.objective_at(3.0), 90.0);
        assert_eq!(t.objective_at(100.0), 90.0);
    }

    #[test]
    fn sampling_and_averaging() {
        let mut a = Trajectory::new();
        a.record(0.5, 100.0);
        a.record(1.5, 80.0);
        let mut b = Trajectory::new();
        b.record(0.5, 120.0);
        b.record(1.5, 100.0);
        let avg = Trajectory::average(&[a.clone(), b], 2.0, 4);
        assert_eq!(avg.len(), 4);
        // At t=1.0 both incumbents exist: (100+120)/2.
        assert_eq!(avg[1].objective, 110.0);
        // At t=2.0: (80+100)/2.
        assert_eq!(avg[3].objective, 90.0);
        let samples = a.sample(2.0, 2);
        assert_eq!(samples[0].objective, 100.0);
        assert_eq!(samples[1].objective, 80.0);
    }

    #[test]
    fn merge_is_the_pointwise_minimum() {
        let mut a = Trajectory::new();
        a.record(1.0, 100.0);
        a.record(4.0, 60.0);
        let mut b = Trajectory::new();
        b.record(2.0, 80.0);
        b.record(5.0, 70.0); // never the min once a hits 60 at t=4
        let m = a.merge(&b);
        for t in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0] {
            assert_eq!(
                m.objective_at(t),
                a.objective_at(t).min(b.objective_at(t)),
                "at t={t}"
            );
        }
        // Merged points are strictly improving: 100 → 80 → 60.
        let objectives: Vec<f64> = m.points().iter().map(|p| p.objective).collect();
        assert_eq!(objectives, vec![100.0, 80.0, 60.0]);
    }

    #[test]
    fn merge_keeps_the_minimum_at_identical_timestamps() {
        // Two members improving at the identical timestamp: the merged step
        // must keep the minimum, regardless of merge order.
        let mut a = Trajectory::new();
        a.record(1.0, 100.0);
        a.record(2.0, 40.0);
        let mut b = Trajectory::new();
        b.record(1.0, 90.0);
        b.record(2.0, 60.0);
        for m in [a.merge(&b), b.merge(&a)] {
            assert_eq!(m.objective_at(1.0), 90.0);
            assert_eq!(m.objective_at(2.0), 40.0);
            let objectives: Vec<f64> = m.points().iter().map(|p| p.objective).collect();
            assert_eq!(objectives, vec![90.0, 40.0]);
        }
        // Same-timestamp runs *within* one stream (several improvements in
        // one timer tick) resolve to that tick's minimum as well.
        let mut c = Trajectory::new();
        c.record(1.0, 95.0);
        c.record(1.0, 85.0);
        let m = a.merge(&c);
        assert_eq!(m.objective_at(1.0), 85.0);
        assert_eq!(m.objective_at(2.0), 40.0);
    }

    #[test]
    fn merge_with_empty_is_identity_and_merge_all_folds() {
        let mut a = Trajectory::new();
        a.record(1.0, 50.0);
        let empty = Trajectory::new();
        assert_eq!(a.merge(&empty), a);
        assert_eq!(empty.merge(&a), a);
        let mut b = Trajectory::new();
        b.record(0.5, 55.0);
        let all = [&a, &b, &empty]
            .into_iter()
            .fold(Trajectory::new(), |acc, t| acc.merge(t));
        assert_eq!(all.objective_at(0.7), 55.0);
        assert_eq!(all.objective_at(2.0), 50.0);
    }

    #[test]
    fn empty_trajectory_reports_infinity() {
        let t = Trajectory::new();
        assert!(t.is_empty());
        assert!(t.final_objective().is_infinite());
        assert!(t.objective_at(10.0).is_infinite());
    }
}
