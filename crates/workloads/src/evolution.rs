//! Seeded evolution-scenario generators: how a workload drifts, how a
//! design is revised, how builds fail — the "evolving" half of evolving
//! OLAP, packaged as deterministic [`EvolutionScenario`]s for the
//! `idd-deploy` runtime and the `table9` experiment.
//!
//! Every generator takes the instance it will evolve plus an
//! [`EvolutionConfig`] and produces the same scenario for the same seed on
//! every machine. Event timestamps are placed as fractions of the
//! *no-interaction deployment length* (`Σ ctime(i)`), so scenarios scale
//! with the instance instead of hard-coding clock values.

use idd_core::{
    BuildFailure, DesignRevision, EventKind, EvolutionEvent, EvolutionScenario, IndexAddition,
    IndexId, ProblemInstance, QueryId, WorkloadDrift,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Fraction of the queries whose weight moves per drift event.
const DRIFT_FRACTION: f64 = 0.3;

/// Strongest up-weight factor a drifting query can receive (hot queries);
/// cooling queries drop towards zero symmetrically.
const DRIFT_MAGNITUDE: f64 = 6.0;

/// Indexes dropped per revision event.
const DROPS_PER_REVISION: usize = 1;

/// Event window: events land uniformly in
/// `[0, HORIZON_FRACTION · Σ ctime(i)]`, i.e. while the deployment is still
/// in flight.
const HORIZON_FRACTION: f64 = 0.6;

/// Fraction of the effective build cost wasted per failed attempt.
const WASTE_FRACTION: f64 = 0.5;

/// Parameters of the scenario generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// RNG seed; same seed, same scenario.
    pub seed: u64,
    /// Number of drift events ([`drift_scenario`]) or revisions
    /// ([`revision_scenario`]).
    pub num_events: usize,
    /// Indexes added per revision event.
    pub additions_per_revision: usize,
    /// Number of failing builds ([`failure_scenario`]).
    pub num_failures: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            num_events: 2,
            additions_per_revision: 1,
            num_failures: 1,
        }
    }
}

fn rng_for(cfg: &EvolutionConfig, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt),
    )
}

fn event_times(
    instance: &ProblemInstance,
    cfg: &EvolutionConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<f64> {
    let horizon = instance.total_base_build_cost() * HORIZON_FRACTION;
    let mut times: Vec<f64> = (0..cfg.num_events)
        .map(|_| rng.gen_range(0.0..horizon.max(1e-9)))
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// A pure workload-drift scenario: `num_events` re-weighting events, each
/// heating a random subset of queries (weight × up to 6) and cooling another
/// (weight ÷ up to 6). The total workload
/// importance therefore shifts *between* queries — exactly the situation
/// where the order chosen offline stops being the right one.
pub fn drift_scenario(instance: &ProblemInstance, cfg: &EvolutionConfig) -> EvolutionScenario {
    let mut rng = rng_for(cfg, 0xD81F);
    let num_queries = instance.num_queries();
    let per_event =
        ((num_queries as f64 * DRIFT_FRACTION).ceil() as usize).clamp(1, num_queries.max(1));
    let events = event_times(instance, cfg, &mut rng)
        .into_iter()
        .map(|at| {
            let mut ids: Vec<usize> = (0..num_queries).collect();
            ids.shuffle(&mut rng);
            let mut weights = Vec::with_capacity(per_event);
            for (k, &q) in ids.iter().take(per_event).enumerate() {
                let current = instance.query(QueryId::new(q)).weight;
                let factor = rng.gen_range(1.5..DRIFT_MAGNITUDE);
                // Alternate heating and cooling so drift moves importance
                // around rather than only inflating it.
                let new_weight = if k % 2 == 0 {
                    current * factor
                } else {
                    current / factor
                };
                weights.push((QueryId::new(q), new_weight));
            }
            EvolutionEvent {
                at,
                kind: EventKind::Drift(WorkloadDrift { weights }),
            }
        })
        .collect();
    EvolutionScenario {
        name: format!("drift-{}", cfg.seed),
        events,
        failures: Vec::new(),
    }
}

/// A design-revision scenario: each event retracts one random candidate
/// index (the advisor changed its mind) and adds
/// `additions_per_revision` fresh ones, each speeding up an existing query
/// through a plan that pairs it with an existing index, helped by an
/// existing index on the build side.
pub fn revision_scenario(instance: &ProblemInstance, cfg: &EvolutionConfig) -> EvolutionScenario {
    let mut rng = rng_for(cfg, 0x4E51 ^ 0xBEEF);
    let n = instance.num_indexes();
    let events = event_times(instance, cfg, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(event_idx, at)| {
            let mut add = Vec::with_capacity(cfg.additions_per_revision);
            for k in 0..cfg.additions_per_revision {
                let query = QueryId::new(rng.gen_range(0..instance.num_queries()));
                let runtime = instance.query(query).original_runtime;
                let partner = IndexId::new(rng.gen_range(0..n));
                let helper = IndexId::new(rng.gen_range(0..n));
                let creation_cost = rng.gen_range(2.0..30.0);
                add.push(IndexAddition {
                    name: format!("rev{event_idx}_ix{k}"),
                    creation_cost,
                    plans: vec![(query, vec![partner], runtime * rng.gen_range(0.3..0.7))],
                    helped_by: vec![(helper, creation_cost * rng.gen_range(0.1..0.6))],
                    helps: Vec::new(),
                    after: Vec::new(),
                });
            }
            let mut drop = Vec::new();
            let mut candidates: Vec<usize> = (0..n).collect();
            candidates.shuffle(&mut rng);
            for &raw in candidates.iter().take(DROPS_PER_REVISION) {
                drop.push(IndexId::new(raw));
            }
            EvolutionEvent {
                at,
                kind: EventKind::Revision(DesignRevision { add, drop }),
            }
        })
        .collect();
    EvolutionScenario {
        name: format!("revision-{}", cfg.seed),
        events,
        failures: Vec::new(),
    }
}

/// A build-failure scenario: `num_failures` random indexes fail once (or
/// twice for every third pick) before succeeding, wasting half of their
/// effective build cost per attempt.
pub fn failure_scenario(instance: &ProblemInstance, cfg: &EvolutionConfig) -> EvolutionScenario {
    let mut rng = rng_for(cfg, 0xFA11);
    let mut candidates: Vec<usize> = (0..instance.num_indexes()).collect();
    candidates.shuffle(&mut rng);
    let failures = candidates
        .into_iter()
        .take(cfg.num_failures)
        .enumerate()
        .map(|(k, raw)| BuildFailure {
            index: IndexId::new(raw),
            failures: if k % 3 == 2 { 2 } else { 1 },
            waste_fraction: WASTE_FRACTION,
        })
        .collect();
    EvolutionScenario {
        name: format!("failure-{}", cfg.seed),
        events: Vec::new(),
        failures,
    }
}

/// Everything at once: drift events interleaved with revisions, plus build
/// failures — the adversarial soak scenario.
pub fn mixed_scenario(instance: &ProblemInstance, cfg: &EvolutionConfig) -> EvolutionScenario {
    let drift = drift_scenario(instance, cfg);
    let revision = revision_scenario(instance, cfg);
    let failure = failure_scenario(instance, cfg);
    let mut events = drift.events;
    events.extend(revision.events);
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    EvolutionScenario {
        name: format!("mixed-{}", cfg.seed),
        events,
        failures: failure.failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};

    fn base() -> ProblemInstance {
        generate(SyntheticConfig::small(7))
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let inst = base();
        let cfg = EvolutionConfig::default();
        assert_eq!(drift_scenario(&inst, &cfg), drift_scenario(&inst, &cfg));
        assert_eq!(
            revision_scenario(&inst, &cfg),
            revision_scenario(&inst, &cfg)
        );
        assert_eq!(failure_scenario(&inst, &cfg), failure_scenario(&inst, &cfg));
        assert_eq!(mixed_scenario(&inst, &cfg), mixed_scenario(&inst, &cfg));
        let other = EvolutionConfig {
            seed: 43,
            ..EvolutionConfig::default()
        };
        assert_ne!(drift_scenario(&inst, &cfg), drift_scenario(&inst, &other));
    }

    #[test]
    fn drift_events_land_inside_the_horizon_and_reference_real_queries() {
        let inst = base();
        let cfg = EvolutionConfig {
            num_events: 4,
            ..EvolutionConfig::default()
        };
        let scenario = drift_scenario(&inst, &cfg);
        assert_eq!(scenario.events.len(), 4);
        let horizon = inst.total_base_build_cost() * HORIZON_FRACTION;
        for event in &scenario.events {
            assert!(event.at >= 0.0 && event.at <= horizon);
            let EventKind::Drift(drift) = &event.kind else {
                panic!("drift scenario produced a non-drift event");
            };
            assert!(!drift.weights.is_empty());
            for &(q, w) in &drift.weights {
                assert!(q.raw() < inst.num_queries());
                assert!(w >= 0.0);
            }
            // Applying the drift must yield a consistent instance.
            assert!(drift.apply_to(&inst).is_ok());
        }
    }

    #[test]
    fn revisions_apply_cleanly_to_their_instance() {
        let inst = base();
        let cfg = EvolutionConfig {
            num_events: 3,
            additions_per_revision: 2,
            ..EvolutionConfig::default()
        };
        let scenario = revision_scenario(&inst, &cfg);
        assert_eq!(scenario.events.len(), 3);
        for event in &scenario.events {
            let EventKind::Revision(revision) = &event.kind else {
                panic!("revision scenario produced a non-revision event");
            };
            assert_eq!(revision.add.len(), 2);
            assert_eq!(revision.drop.len(), 1);
            let (revised, new_ids) = revision.apply_additions(&inst).unwrap();
            assert_eq!(revised.num_indexes(), inst.num_indexes() + 2);
            assert_eq!(new_ids.len(), 2);
        }
    }

    #[test]
    fn failures_reference_distinct_real_indexes() {
        let inst = base();
        let cfg = EvolutionConfig {
            num_failures: 3,
            ..EvolutionConfig::default()
        };
        let scenario = failure_scenario(&inst, &cfg);
        assert_eq!(scenario.failures.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for f in &scenario.failures {
            assert!(f.index.raw() < inst.num_indexes());
            assert!(seen.insert(f.index));
            assert!(f.failures >= 1);
            assert!((0.0..=1.0).contains(&f.waste_fraction));
        }
    }

    #[test]
    fn mixed_scenarios_interleave_sorted_events() {
        let inst = base();
        let scenario = mixed_scenario(&inst, &EvolutionConfig::default());
        assert!(!scenario.is_quiet());
        for pair in scenario.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(!scenario.failures.is_empty());
    }
}
