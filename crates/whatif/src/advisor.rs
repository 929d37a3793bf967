//! A small index advisor — the stand-in for the commercial design tool.
//!
//! The paper's pipeline starts from "a set of suggested indexes" produced by
//! the DBMS's physical design tool (148 indexes for TPC-DS). This advisor
//! reproduces the *shape* of such a design: per-query candidates are
//! syntactically enumerated (single-column, multi-column and covering
//! indexes over predicate, join and group-by columns), deduplicated across the
//! workload, scored with the what-if optimizer, and the best
//! [`AdvisorConfig::max_indexes`] are kept.

use crate::cost::params::to_seconds;
use crate::optimizer::PlanCache;
use crate::physical::CandidateIndex;
use crate::query::{QuerySpec, Workload};

/// Minimum benefit (seconds summed over the workload) for a candidate to be
/// considered at all.
const MIN_TOTAL_BENEFIT: f64 = 1e-6;

/// Configuration of the advisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConfig {
    /// Maximum number of indexes in the suggested design.
    pub max_indexes: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self { max_indexes: 64 }
    }
}

impl AdvisorConfig {
    /// Advisor configuration bounded to `max_indexes` suggestions.
    pub fn with_budget(max_indexes: usize) -> Self {
        Self { max_indexes }
    }
}

/// A suggested candidate with its estimated workload benefit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate index.
    pub index: CandidateIndex,
    /// Total benefit (seconds) summed over every query, evaluated with the
    /// candidate as the only hypothetical index.
    pub total_benefit: f64,
}

/// Max-heap entry for the lazy-greedy selection in [`Advisor::suggest`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    benefit: f64,
    generation: usize,
    candidate: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.benefit
            .partial_cmp(&other.benefit)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.candidate.cmp(&other.candidate).reverse())
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The index advisor.
#[derive(Debug, Clone, Default)]
pub struct Advisor {
    config: AdvisorConfig,
}

impl Advisor {
    /// Creates an advisor.
    pub fn new(config: AdvisorConfig) -> Self {
        Self { config }
    }

    /// Enumerates syntactic candidates for one query.
    ///
    /// For each table the query touches:
    /// * a single-column index per predicate column;
    /// * a single-column index per join column (fact foreign keys and
    ///   dimension keys);
    /// * a multi-column index over all predicate columns of the table
    ///   (most selective first — approximated by declaration order);
    /// * a covering variant adding the table's other referenced columns as
    ///   INCLUDE columns;
    /// * a fact-side index keyed on a join foreign key covering the fact
    ///   columns the query reads (the classic star-join support index).
    pub fn candidates_for_query(&self, query: &QuerySpec) -> Vec<CandidateIndex> {
        let mut out: Vec<CandidateIndex> = Vec::new();
        let mut push = |ix: CandidateIndex| {
            if !out.contains(&ix) {
                out.push(ix);
            }
        };

        for table in query.tables() {
            let referenced = query.referenced_columns(table);
            let pred_cols: Vec<String> = query
                .predicates_on(table)
                .iter()
                .map(|p| p.column.column.clone())
                .collect();

            for col in &pred_cols {
                push(CandidateIndex::new(table, vec![col.clone()]));
            }

            // A multi-column index over the predicate columns (when there
            // are several), and a covering variant of that key with the
            // other referenced columns as INCLUDE columns.
            if !pred_cols.is_empty() {
                let mut keys = pred_cols.clone();
                keys.dedup();
                if pred_cols.len() >= 2 {
                    push(CandidateIndex::new(table, keys.clone()));
                }
                let includes: Vec<String> = referenced
                    .iter()
                    .filter(|c| !keys.contains(c))
                    .cloned()
                    .collect();
                if !includes.is_empty() {
                    push(CandidateIndex::new(table, keys).with_includes(includes));
                }
            }
        }

        // Join-support indexes.
        for join in &query.joins {
            // Dimension key index.
            push(CandidateIndex::new(
                join.dimension_column.table.clone(),
                vec![join.dimension_column.column.clone()],
            ));
            // Fact foreign-key index, plain and covering.
            let fact_table = &join.fact_column.table;
            push(CandidateIndex::new(
                fact_table.clone(),
                vec![join.fact_column.column.clone()],
            ));
            let referenced = query.referenced_columns(fact_table);
            let includes: Vec<String> = referenced
                .iter()
                .filter(|c| **c != join.fact_column.column)
                .cloned()
                .collect();
            if !includes.is_empty() {
                push(
                    CandidateIndex::new(fact_table.clone(), vec![join.fact_column.column.clone()])
                        .with_includes(includes),
                );
            }
        }

        out
    }

    /// Enumerates and deduplicates candidates across the whole workload.
    pub fn enumerate(&self, workload: &Workload) -> Vec<CandidateIndex> {
        let mut out: Vec<CandidateIndex> = Vec::new();
        for q in &workload.queries {
            for c in self.candidates_for_query(q) {
                if c.validate(&workload.catalog).is_ok() && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Selects a design of at most `max_indexes` indexes with a lazy-greedy
    /// (CELF-style) marginal-benefit search, the strategy commercial design
    /// tools use: at each step the candidate whose addition reduces the
    /// workload's total estimated runtime the most — *given everything already
    /// selected* — is added. Marginal selection is what gives the design its
    /// diversity (dimension indexes are picked once the dominating fact
    /// indexes are in, which is what later produces multi-index plans).
    ///
    /// Returns the selected candidates in selection order, each annotated with
    /// the marginal benefit it contributed when selected.
    pub fn suggest(&self, workload: &Workload) -> Vec<ScoredCandidate> {
        let candidates = self.enumerate(workload);
        if candidates.is_empty() || workload.queries.is_empty() {
            return Vec::new();
        }

        // A marginal evaluation prices only the queries a candidate can
        // change (those where it has a cache pair), folding the cached terms
        // of the selected design plus the candidate, in selection order.
        let cache = &PlanCache::new(&workload.catalog, &workload.queries, &candidates);
        let changes = |cand: usize| {
            (0..workload.queries.len()).filter_map(move |qi| Some((qi, cache.pair_of(qi, cand)?)))
        };
        let cost_seconds = |qi: usize, pairs: &[usize], extra: Option<usize>| {
            let config = pairs.iter().copied().chain(extra);
            to_seconds(cache.fold(qi, config).0)
        };

        // Current best cost of every query under the selected design.
        let mut current_cost: Vec<f64> = (0..workload.queries.len())
            .map(|qi| cost_seconds(qi, &[], None))
            .collect();
        // Per query, the pairs of the selected candidates in selection order.
        let mut selected: Vec<Vec<usize>> = vec![Vec::new(); workload.queries.len()];

        // Marginal benefit of one candidate given the current design.
        let marginal = |cand: usize,
                        selected: &[Vec<usize>],
                        current_cost: &[f64]|
         -> (f64, Vec<(usize, f64)>) {
            let mut total = 0.0;
            let mut new_costs = Vec::new();
            for (qi, pair) in changes(cand) {
                let cost = cost_seconds(qi, &selected[qi], Some(pair));
                let delta = (current_cost[qi] - cost).max(0.0) * workload.queries[qi].weight;
                if delta > 0.0 {
                    total += delta;
                    new_costs.push((qi, cost));
                }
            }
            (total, new_costs)
        };

        // Lazy-greedy priority queue: (benefit upper bound, generation it was
        // computed at, candidate position).
        let mut result: Vec<ScoredCandidate> = Vec::new();
        let mut heap: std::collections::BinaryHeap<HeapEntry> = (0..candidates.len())
            .map(|c| {
                let (benefit, _) = marginal(c, &selected, &current_cost);
                HeapEntry {
                    benefit,
                    generation: 0,
                    candidate: c,
                }
            })
            .collect();

        let mut generation = 0usize;
        while result.len() < self.config.max_indexes {
            let top = match heap.pop() {
                Some(t) => t,
                None => break,
            };
            if top.benefit < MIN_TOTAL_BENEFIT {
                break;
            }
            if top.generation == generation {
                // Benefit is up to date: accept.
                let (benefit, new_costs) = marginal(top.candidate, &selected, &current_cost);
                // Recompute once more for exactness (the stored value was
                // computed at this generation, so it is already exact; this
                // keeps the invariant obvious and cheap).
                for (qi, cost) in new_costs {
                    current_cost[qi] = cost;
                }
                for (qi, pair) in changes(top.candidate) {
                    selected[qi].push(pair);
                }
                result.push(ScoredCandidate {
                    index: candidates[top.candidate].clone(),
                    total_benefit: benefit,
                });
                generation += 1;
            } else {
                // Stale: recompute against the current design and reinsert.
                let (benefit, _) = marginal(top.candidate, &selected, &current_cost);
                if benefit >= MIN_TOTAL_BENEFIT {
                    heap.push(HeapEntry {
                        benefit,
                        generation,
                        candidate: top.candidate,
                    });
                }
            }
        }

        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, Table};
    use crate::query::{Aggregate, ColumnRef, Predicate};

    fn workload() -> Workload {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "SALES",
            2_000_000.0,
            vec![
                Column::int_key("CUST_ID", 200_000.0),
                Column::int_key("DATE_ID", 2_000.0),
                Column::new("AMOUNT", 8.0, 50_000.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "CUSTOMER",
            200_000.0,
            vec![
                Column::int_key("CUSTID", 200_000.0),
                Column::string("COUNTRY", 16.0, 100.0),
                Column::string("SEGMENT", 16.0, 5.0),
            ],
        ))
        .unwrap();
        let q1 = QuerySpec::new("q1", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")));
        let q2 = QuerySpec::new("q2", "CUSTOMER")
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "SEGMENT")))
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .aggregate(Aggregate::avg(ColumnRef::new("CUSTOMER", "CUSTID")));
        Workload::new("test", c, vec![q1, q2])
    }

    #[test]
    fn candidates_cover_predicates_joins_and_covering_variants() {
        let advisor = Advisor::default();
        let w = workload();
        let cands = advisor.candidates_for_query(&w.queries[0]);
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        // Predicate column on the dimension.
        assert!(names.iter().any(|n| n.contains("customer_country")));
        // Fact foreign key.
        assert!(names.iter().any(|n| n.contains("sales_cust_id")));
        // A covering variant exists somewhere.
        assert!(names.iter().any(|n| n.contains("incl")));
    }

    #[test]
    fn multi_column_candidate_for_multi_predicate_query() {
        let advisor = Advisor::default();
        let w = workload();
        let cands = advisor.candidates_for_query(&w.queries[1]);
        assert!(cands
            .iter()
            .any(|c| c.table == "CUSTOMER" && c.key_columns.len() >= 2));
    }

    #[test]
    fn enumerate_dedupes_across_queries() {
        let advisor = Advisor::default();
        let w = workload();
        let all = advisor.enumerate(&w);
        let mut names: Vec<&str> = all.iter().map(|c| c.name.as_str()).collect();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn suggest_respects_budget_and_picks_beneficial_indexes() {
        let advisor = Advisor::new(AdvisorConfig::with_budget(3));
        let w = workload();
        let suggested = advisor.suggest(&w);
        assert!(suggested.len() <= 3);
        assert!(!suggested.is_empty());
        for s in &suggested {
            assert!(s.total_benefit > 0.0);
        }
        // No duplicates in the selected design.
        let mut names: Vec<&str> = suggested.iter().map(|s| s.index.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn greedy_selection_diversifies_across_tables() {
        // With a generous budget the design should not be a single table's
        // near-duplicate covering indexes: both CUSTOMER and SALES appear.
        let advisor = Advisor::new(AdvisorConfig::with_budget(6));
        let w = workload();
        let suggested = advisor.suggest(&w);
        let tables: std::collections::HashSet<&str> =
            suggested.iter().map(|s| s.index.table.as_str()).collect();
        assert!(tables.len() >= 2, "design uses only {tables:?}");
    }

    #[test]
    fn useless_candidates_are_dropped() {
        let advisor = Advisor::default();
        let w = workload();
        let suggested = advisor.suggest(&w);
        // DATE_ID never appears in any query, so no suggested index should
        // lead with it.
        assert!(suggested
            .iter()
            .all(|s| s.index.leading_column() != Some("DATE_ID")));
    }
}
