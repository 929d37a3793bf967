//! The what-if driver: hypothetical indexes and atomic configurations.
//!
//! This is the crate's stand-in for the commercial DBMS's what-if interface
//! ([Chaudhuri & Narasayya, SIGMOD'98]): candidate indexes are evaluated
//! *hypothetically* — the optimizer is asked what plan it would choose if
//! they existed — and the answer is the *atomic configuration*: the subset of
//! candidates the winning plan uses, plus its estimated cost.
//!
//! Following Section 8 of the paper, competing plans for a query are obtained
//! by iteratively removing the hypothetical indexes of the best atomic
//! configuration and re-optimizing, yielding progressively weaker plans until
//! no candidate index helps anymore.
//!
//! The loop runs on the optimizer's plan cache, built once per query over
//! the candidates: a configuration is the list of the remaining candidates'
//! cache pairs, re-optimizing folds them, and removing a plan's indexes
//! drops their pairs.

use crate::cost::params::to_seconds;
use crate::optimizer::{Optimizer, PlanCache};
use crate::physical::{CandidateIndex, PhysicalConfig};
use crate::query::QuerySpec;

/// One atomic configuration for one query: the candidate indexes a plan uses
/// and the speed-up it yields over the unindexed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicConfiguration {
    /// Positions (into the candidate slice) of the indexes the plan uses.
    pub candidate_positions: Vec<usize>,
    /// Plan cost in seconds.
    pub cost_seconds: f64,
    /// Seconds saved compared to the query's unindexed baseline.
    pub speedup_seconds: f64,
}

/// Options controlling atomic-configuration extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfOptions {
    /// Maximum number of remove-and-reoptimize iterations per query.
    pub max_iterations: usize,
    /// Minimum speed-up (as a fraction of the query's baseline runtime) for a
    /// configuration to be recorded.
    pub min_speedup_ratio: f64,
}

impl Default for WhatIfOptions {
    fn default() -> Self {
        Self {
            max_iterations: 8,
            min_speedup_ratio: 0.001,
        }
    }
}

/// Hypothetical-index evaluation driver over an [`Optimizer`].
#[derive(Debug, Clone)]
pub struct WhatIfOptimizer {
    optimizer: Optimizer,
}

impl WhatIfOptimizer {
    /// Creates a what-if driver.
    pub fn new(optimizer: Optimizer) -> Self {
        Self { optimizer }
    }

    /// Baseline cost of a query (no candidate index exists), in seconds.
    pub fn baseline_seconds(&self, query: &QuerySpec) -> f64 {
        self.optimizer.cost_seconds(query, &PhysicalConfig::empty())
    }

    /// Extracts the competing atomic configurations of one query.
    ///
    /// Each index of a multi-index configuration is also evaluated on its
    /// own, producing the single-index competing plans the paper's
    /// *competing interactions* need.
    pub fn atomic_configurations(
        &self,
        query: &QuerySpec,
        candidates: &[CandidateIndex],
        options: WhatIfOptions,
    ) -> Vec<AtomicConfiguration> {
        let cache = PlanCache::new(
            self.optimizer.catalog(),
            std::slice::from_ref(query),
            candidates,
        );
        let baseline = to_seconds(cache.fold(0, std::iter::empty()).0);
        let min_speedup = baseline * options.min_speedup_ratio;

        let mut results: Vec<AtomicConfiguration> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
        // The configuration: the pairs of the candidates not yet removed.
        let mut config: Vec<usize> = cache.pairs(0).collect();

        let record = |positions: Vec<usize>,
                      cost: f64,
                      results: &mut Vec<AtomicConfiguration>,
                      seen: &mut std::collections::HashSet<Vec<usize>>| {
            let speedup = baseline - cost;
            if positions.is_empty() || speedup < min_speedup {
                return;
            }
            let mut key = positions.clone();
            key.sort_unstable();
            if seen.insert(key.clone()) {
                results.push(AtomicConfiguration {
                    candidate_positions: key,
                    cost_seconds: cost,
                    speedup_seconds: speedup,
                });
            }
        };

        for _ in 0..options.max_iterations {
            let (cost, winner) = cache.fold(0, config.iter().copied());
            let cost = to_seconds(cost);
            // The plan's indexes by name: this order sets the order of the
            // single-index probes below, and so of the plans.
            let mut positions = cache.used(0, config.iter().copied(), winner);
            positions.sort_by(|&a, &b| candidates[a].name.cmp(&candidates[b].name));
            positions.dedup();
            if positions.is_empty() || baseline - cost < min_speedup {
                break;
            }
            record(positions.clone(), cost, &mut results, &mut seen);

            if positions.len() > 1 {
                for &p in &positions {
                    let cost_single = to_seconds(cache.fold(0, cache.pair_of(0, p).into_iter()).0);
                    record(vec![p], cost_single, &mut results, &mut seen);
                }
            }

            // Remove the used indexes and look for the next-best plan.
            config.retain(|&pair| !positions.contains(&cache.candidate_of(0, pair)));
        }

        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, Table};
    use crate::query::{Aggregate, ColumnRef, Predicate, QuerySpec};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "SALES",
            5_000_000.0,
            vec![
                Column::int_key("CUST_ID", 500_000.0),
                Column::int_key("DATE_ID", 2_000.0),
                Column::new("AMOUNT", 8.0, 100_000.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "CUSTOMER",
            500_000.0,
            vec![
                Column::int_key("CUSTID", 500_000.0),
                Column::string("COUNTRY", 16.0, 200.0),
            ],
        ))
        .unwrap();
        c
    }

    fn query() -> QuerySpec {
        QuerySpec::new("q", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")))
    }

    fn candidates() -> Vec<CandidateIndex> {
        vec![
            CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]),
            CandidateIndex::new("SALES", vec!["CUST_ID".into()])
                .with_includes(vec!["AMOUNT".into()]),
            CandidateIndex::new("SALES", vec!["DATE_ID".into()]),
        ]
    }

    #[test]
    fn baseline_is_positive() {
        let wi = WhatIfOptimizer::new(Optimizer::new(catalog()));
        assert!(wi.baseline_seconds(&query()) > 0.0);
    }

    #[test]
    fn atomic_configurations_are_deduplicated_and_beneficial() {
        let wi = WhatIfOptimizer::new(Optimizer::new(catalog()));
        let cands = candidates();
        let configs = wi.atomic_configurations(&query(), &cands, WhatIfOptions::default());
        assert!(!configs.is_empty());
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(c.speedup_seconds > 0.0);
            assert!(seen.insert(c.candidate_positions.clone()));
            // Positions refer to real candidates.
            for &p in &c.candidate_positions {
                assert!(p < cands.len());
            }
        }
    }

    #[test]
    fn competing_plans_include_multi_and_single_index_plans() {
        let wi = WhatIfOptimizer::new(Optimizer::new(catalog()));
        let cands = candidates();
        let configs = wi.atomic_configurations(&query(), &cands, WhatIfOptions::default());
        let has_multi = configs.iter().any(|c| c.candidate_positions.len() >= 2);
        let has_single = configs.iter().any(|c| c.candidate_positions.len() == 1);
        assert!(has_multi || has_single, "no plans extracted at all");
        // With singleton probing on a star query we expect both kinds.
        if has_multi {
            assert!(has_single);
        }
    }

    #[test]
    fn irrelevant_candidate_never_appears() {
        let wi = WhatIfOptimizer::new(Optimizer::new(catalog()));
        let cands = candidates();
        let configs = wi.atomic_configurations(&query(), &cands, WhatIfOptions::default());
        // DATE_ID index (position 2) is useless for this query.
        assert!(configs.iter().all(|c| !c.candidate_positions.contains(&2)));
    }

    #[test]
    fn zero_iterations_returns_nothing() {
        let wi = WhatIfOptimizer::new(Optimizer::new(catalog()));
        let cands = candidates();
        let configs = wi.atomic_configurations(
            &query(),
            &cands,
            WhatIfOptions {
                max_iterations: 0,
                ..WhatIfOptions::default()
            },
        );
        assert!(configs.is_empty());
    }
}
