//! The query optimizer: picks the cheapest plan under a physical
//! configuration and reports which indexes that plan uses.
//!
//! Plans are costed at the granularity the ordering problem needs:
//!
//! * each joined dimension chooses a sequential scan or an index access path;
//! * the fact table chooses among a sequential scan, a predicate-driven index
//!   scan, or an index-nested-loop join driven by one joined dimension through
//!   a fact foreign-key index (the star-join pattern that creates the paper's
//!   multi-index *query interactions*);
//! * the remaining joins are hash joins; group-by adds a sort of the result.
//!
//! The set of indexes used by the winning alternative is the *atomic
//! configuration* the what-if driver records.
//!
//! # The plan cache
//!
//! Only two parts of a plan's cost depend on the configuration: each
//! table's cheapest access (its scan or a usable index) and the set of
//! index-nested-loop alternatives. No single index's access cost and no
//! nested-loop term depends on the rest of the configuration. So every
//! what-if call prices on a plan cache, built once per query over a
//! candidate list. It holds each table's scan cost, alternative 1's hash
//! cost, the group-by cost, each usable index's access cost (its leading
//! key has a predicate, or it covers the table's columns) and, per driving
//! dimension and fact index whose leading key is that join's foreign key,
//! the four nested-loop terms. It keeps only the terms that some
//! configuration of the list could pick, and the (query, candidate) pairs
//! that have one, in flat arrays per query (one small allocation per array
//! and query, none per entry).
//!
//! A configuration is a list of a query's pairs in configuration order. The
//! cache folds its cost with the operations, and in the order, of
//! re-planning the query, so every cost has the same bits:
//!
//! * each table's access starts from its scan cost and takes an index only
//!   when it is strictly cheaper, in configuration order;
//! * `D` is the sum of the dimensions' accesses, in join order;
//! * alternative 1 costs `fact + D + hash + group`;
//! * each nested-loop alternative costs
//!   `D + descents + leaf + heap + others_hash + group`, dimension by
//!   dimension, with the indexes in configuration order;
//! * the first strictly cheaper alternative replaces the running best (so
//!   ties go to the earlier one, and a NaN alternative never replaces it).
//!
//! [`Optimizer::optimize`], the advisor's lazy greedy and the
//! remove-and-reoptimize loop of `atomic_configurations` all run on it.

use crate::catalog::{Catalog, Table};
use crate::cost::model::CostModel;
use crate::cost::params::{
    to_seconds, BTREE_DESCENT_PAGES, CPU_INDEX_TUPLE_COST, RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::cost::selectivity::{selectivity_of_columns, table_selectivity};
use crate::physical::{CandidateIndex, PhysicalConfig};
use crate::query::{Predicate, QuerySpec};
use std::ops::Range;

/// The optimizer's answer for one query under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Estimated plan cost in cost units.
    pub cost: f64,
    /// Names of the configuration indexes the plan uses (deduplicated,
    /// sorted for determinism).
    pub used_indexes: Vec<String>,
    /// Short human-readable description of the plan shape.
    pub description: String,
}

/// Cost-based query optimizer over a [`Catalog`], pricing with the
/// [`CostModel`].
#[derive(Debug, Clone)]
pub struct Optimizer {
    catalog: Catalog,
}

impl Optimizer {
    /// Creates an optimizer that plans against `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        Self { catalog }
    }

    /// The catalog the optimizer plans against.
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Estimated cost (in seconds) of a query under a configuration.
    pub fn cost_seconds(&self, query: &QuerySpec, config: &PhysicalConfig) -> f64 {
        to_seconds(self.optimize(query, config).cost)
    }

    /// Finds the cheapest plan for `query` under `config`.
    pub fn optimize(&self, query: &QuerySpec, config: &PhysicalConfig) -> PlanChoice {
        let indexes = config.indexes();
        let cache = PlanCache::new(&self.catalog, std::slice::from_ref(query), indexes);
        let (cost, winner) = cache.fold(0, cache.pairs(0));
        let name = |pair: usize| &indexes[cache.candidate_of(0, pair)].name;
        let description = match winner {
            Winner::Unplanned => "unknown fact table".to_string(),
            Winner::HashJoins { fact: Some(pair) } => {
                format!("fact index scan ({}) + hash joins", name(pair))
            }
            Winner::HashJoins { fact: None } => "fact seq scan + hash joins".to_string(),
            Winner::NestedLoop { pair, dim } => format!(
                "index nested loop via {} driven by {}",
                name(pair),
                query.joins[dim].dimension_table()
            ),
        };
        let mut used_indexes: Vec<String> = cache
            .used(0, cache.pairs(0), winner)
            .into_iter()
            .map(|c| indexes[c].name.clone())
            .collect();
        used_indexes.sort();
        used_indexes.dedup();
        PlanChoice {
            cost,
            used_indexes,
            description,
        }
    }
}

/// The alternative a fold picked. Pairs are pair numbers of the folded
/// query.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Winner {
    /// The catalog lacks the fact table: no plan, cost 0.
    Unplanned,
    /// Alternative 1: the fact table by scan (`None`) or through the index
    /// of `fact`, every join by hash.
    HashJoins { fact: Option<usize> },
    /// An index-nested-loop join through the fact index of `pair`, driven
    /// by join `dim`.
    NestedLoop { pair: usize, dim: usize },
}

/// A candidate with at least one term for a query. Its terms follow the
/// previous pair's: they end at `access_end` in `QueryCache::access` and at
/// `nested_end` in `QueryCache::nested`.
#[derive(Debug, Clone, Copy)]
struct Pair {
    candidate: u32,
    access_end: u32,
    nested_end: u32,
}

/// A usable index's access cost on one table slot of a query.
#[derive(Debug, Clone, Copy)]
struct AccessTerm {
    slot: u32,
    cost: f64,
}

/// What an index-nested-loop join through a fact index, driven by join
/// `dim`, adds to `D`.
#[derive(Debug, Clone, Copy)]
struct NestedTerm {
    dim: u32,
    descents: f64,
    leaf: f64,
    heap: f64,
    others_hash: f64,
}

/// One query's terms over the candidate list.
#[derive(Debug, Clone)]
struct QueryCache {
    /// Scan cost of each table slot: slot 0 is the fact table, slot `1 + k`
    /// the dimension of join `k`.
    scans: Vec<f64>,
    /// Alternative 1's hash-join cost.
    hash: f64,
    /// The group-by sort cost (0 without a group-by).
    group: f64,
    /// In candidate order.
    pairs: Vec<Pair>,
    access: Vec<AccessTerm>,
    nested: Vec<NestedTerm>,
}

impl QueryCache {
    fn access_terms(&self, pair: usize) -> &[AccessTerm] {
        let start = pair.checked_sub(1).map_or(0, |p| self.pairs[p].access_end);
        &self.access[start as usize..self.pairs[pair].access_end as usize]
    }

    fn nested_terms(&self, pair: usize) -> &[NestedTerm] {
        let start = pair.checked_sub(1).map_or(0, |p| self.pairs[p].nested_end);
        &self.nested[start as usize..self.pairs[pair].nested_end as usize]
    }
}

/// Per query, every part of a plan's cost that no configuration changes,
/// over one candidate list (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PlanCache {
    /// `None` for a query whose fact table the catalog lacks (no plan).
    queries: Vec<Option<QueryCache>>,
}

impl PlanCache {
    /// Builds the cache of `queries` over `candidates`.
    pub(crate) fn new(
        catalog: &Catalog,
        queries: &[QuerySpec],
        candidates: &[CandidateIndex],
    ) -> Self {
        let queries = queries
            .iter()
            .map(|query| Some(QueryShape::new(catalog, query)?.cache(catalog, candidates)))
            .collect();
        Self { queries }
    }

    /// The pairs of `query`, in candidate order: the whole candidate list
    /// as a configuration.
    pub(crate) fn pairs(&self, query: usize) -> Range<usize> {
        0..self.queries[query].as_ref().map_or(0, |q| q.pairs.len())
    }

    /// The candidate of pair `pair` of `query`.
    pub(crate) fn candidate_of(&self, query: usize, pair: usize) -> usize {
        let q = self.queries[query].as_ref().expect("a query with pairs");
        q.pairs[pair].candidate as usize
    }

    /// The pair of `candidate` in `query`, if the candidate can change the
    /// query's cost.
    pub(crate) fn pair_of(&self, query: usize, candidate: usize) -> Option<usize> {
        let pairs = &self.queries[query].as_ref()?.pairs;
        pairs
            .binary_search_by_key(&candidate, |p| p.candidate as usize)
            .ok()
    }

    /// The cheapest access to table `slot` of `query` (0 for the fact table,
    /// `1 + k` for join `k`'s dimension) under the configuration `pairs`
    /// yields: its cost and the pair of the index it uses (`None` for the
    /// scan).
    pub(crate) fn access(
        &self,
        query: usize,
        slot: usize,
        pairs: impl Iterator<Item = usize>,
    ) -> (f64, Option<usize>) {
        let q = self.queries[query].as_ref().expect("a planned query");
        let mut best = (q.scans[slot], None);
        for pair in pairs {
            for term in q.access_terms(pair) {
                if term.slot as usize == slot && term.cost < best.0 {
                    best = (term.cost, Some(pair));
                }
            }
        }
        best
    }

    /// The cost of `query`'s cheapest plan under the configuration whose
    /// pairs `pairs` yields in configuration order, and which alternative
    /// that plan is.
    pub(crate) fn fold<I>(&self, query: usize, pairs: I) -> (f64, Winner)
    where
        I: Iterator<Item = usize> + Clone,
    {
        let Some(q) = &self.queries[query] else {
            return (0.0, Winner::Unplanned);
        };
        let dims = q.scans.len() - 1;
        let d: f64 = (1..=dims)
            .map(|slot| self.access(query, slot, pairs.clone()).0)
            .sum();
        let (fact, fact_pair) = self.access(query, 0, pairs.clone());
        let mut best = (
            fact + d + q.hash + q.group,
            Winner::HashJoins { fact: fact_pair },
        );
        for dim in 0..dims {
            for pair in pairs.clone() {
                for term in q.nested_terms(pair) {
                    if term.dim as usize != dim {
                        continue;
                    }
                    let cost =
                        d + term.descents + term.leaf + term.heap + term.others_hash + q.group;
                    if cost < best.0 {
                        best = (cost, Winner::NestedLoop { pair, dim });
                    }
                }
            }
        }
        best
    }

    /// The candidates the plan `winner` of a fold over `pairs` uses: its
    /// fact index, then each dimension's, in join order (unsorted, and a
    /// candidate may repeat).
    pub(crate) fn used<I>(&self, query: usize, pairs: I, winner: Winner) -> Vec<usize>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let mut used: Vec<usize> = match winner {
            Winner::Unplanned => return Vec::new(),
            Winner::HashJoins { fact } => fact.into_iter().collect(),
            Winner::NestedLoop { pair, .. } => vec![pair],
        };
        let dims = self.queries[query]
            .as_ref()
            .map_or(0, |q| q.scans.len() - 1);
        used.extend((1..=dims).filter_map(|slot| self.access(query, slot, pairs.clone()).1));
        used.into_iter()
            .map(|pair| self.candidate_of(query, pair))
            .collect()
    }
}

/// Narrows a count or an offset of the cache to its `u32` storage.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a plan cache holds fewer than 2^32 entries")
}

/// One table of a query: what its cache terms are computed from.
struct TableShape<'a> {
    name: &'a str,
    /// `None` when the catalog lacks the table: it costs nothing, emits no
    /// rows and no index can serve it.
    table: Option<&'a Table>,
    scan: f64,
    rows: f64,
    selectivity: f64,
    /// The table's columns the query reads (what a covering index needs).
    needed: Vec<String>,
    predicates: Vec<&'a Predicate>,
}

impl<'a> TableShape<'a> {
    fn new(catalog: &'a Catalog, query: &'a QuerySpec, name: &'a str) -> Self {
        let table = catalog.table(name);
        let selectivity = table_selectivity(catalog, query, name);
        let (scan, rows) = table.map_or((0.0, 0.0), |t| {
            (CostModel.seq_scan_cost(t), (t.rows * selectivity).max(1.0))
        });
        Self {
            name,
            table,
            scan,
            rows,
            selectivity,
            needed: query.referenced_columns(name),
            predicates: query.predicates_on(name),
        }
    }

    /// The cost of serving the table through `index`, when the index is
    /// usable: its leading key column carries one of the table's
    /// predicates, or it covers the columns the query reads (an index-only
    /// scan). Join-driven lookups are the nested-loop terms.
    fn index_cost(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        index: &CandidateIndex,
    ) -> Option<f64> {
        let table = self.table?;
        if index.table != self.name {
            return None;
        }
        let leading_has_predicate = index
            .leading_column()
            .is_some_and(|lead| self.predicates.iter().any(|p| p.column.column == lead));
        let covering = index.covers(&self.needed);
        if !leading_has_predicate && !covering {
            return None;
        }
        let sargable = if leading_has_predicate {
            selectivity_of_columns(catalog, query, self.name, &index.key_columns)
        } else {
            1.0
        };
        Some(CostModel.index_access_cost(catalog, table, index, sargable, covering))
    }
}

/// One query whose fact table the catalog holds: what its cache terms are
/// computed from.
struct QueryShape<'a> {
    query: &'a QuerySpec,
    fact: &'a Table,
    /// Slot 0 is the fact table, slot `1 + k` the dimension of join `k`.
    tables: Vec<TableShape<'a>>,
    hash: f64,
    group: f64,
}

impl<'a> QueryShape<'a> {
    /// `None` when the catalog lacks the fact table.
    fn new(catalog: &'a Catalog, query: &'a QuerySpec) -> Option<Self> {
        let model = CostModel;
        let fact = catalog.table(&query.fact_table)?;
        let mut tables = vec![TableShape::new(catalog, query, &query.fact_table)];
        tables.extend(
            query
                .joins
                .iter()
                .map(|join| TableShape::new(catalog, query, join.dimension_table())),
        );
        let dims = &tables[1..];
        let dim_sel_product: f64 = dims.iter().map(|d| d.selectivity).product();
        let final_rows = (fact.rows * tables[0].selectivity * dim_sel_product).max(1.0);
        let result_width = 32.0;
        let group = if query.group_by.is_empty() {
            0.0
        } else {
            model.sort_cost(final_rows, result_width)
        };
        let hash = dims
            .iter()
            .map(|d| model.hash_build_cost(d.rows))
            .sum::<f64>()
            + model.hash_probe_cost(tables[0].rows) * dims.len().max(1) as f64;
        Some(Self {
            query,
            fact,
            tables,
            hash,
            group,
        })
    }

    /// The query's terms over `candidates`, keeping only those that can
    /// change its cost. An index access no cheaper than the table's scan is
    /// never taken. A nested-loop term is dropped when, even with every
    /// dimension at the cheapest access any candidate gives it, it costs at
    /// least alternative 1 with every table scanned: under any
    /// configuration `D` is at least that cheapest `D` and alternative 1 at
    /// most that bound, rounding keeps both orders, and the term would have
    /// to be strictly cheaper than alternative 1 to win.
    fn cache(&self, catalog: &Catalog, candidates: &[CandidateIndex]) -> QueryCache {
        let scans: Vec<f64> = self.tables.iter().map(|t| t.scan).collect();
        let mut cheapest = scans.clone();
        let mut usable: Vec<(usize, AccessTerm)> = Vec::new();
        for (c, index) in candidates.iter().enumerate() {
            for (slot, table) in self.tables.iter().enumerate() {
                let Some(cost) = table.index_cost(catalog, self.query, index) else {
                    continue;
                };
                if cost < table.scan {
                    cheapest[slot] = cheapest[slot].min(cost);
                    let slot = narrow(slot);
                    usable.push((c, AccessTerm { slot, cost }));
                }
            }
        }
        let cheapest_d: f64 = cheapest[1..].iter().sum();
        let scanned_d: f64 = scans[1..].iter().sum();
        let scanned_hash_joins = scans[0] + scanned_d + self.hash + self.group;

        let mut cache = QueryCache {
            scans,
            hash: self.hash,
            group: self.group,
            pairs: Vec::new(),
            access: Vec::new(),
            nested: Vec::new(),
        };
        let mut usable = usable.into_iter().peekable();
        for (c, index) in candidates.iter().enumerate() {
            let (access, nested) = (cache.access.len(), cache.nested.len());
            while let Some((_, term)) = usable.next_if(|&(uc, _)| uc == c) {
                cache.access.push(term);
            }
            if index.table == self.query.fact_table {
                for (k, join) in self.query.joins.iter().enumerate() {
                    if index.leading_column() != Some(join.fact_column.column.as_str()) {
                        continue;
                    }
                    let t = self.nested_term(catalog, index, k);
                    let least =
                        cheapest_d + t.descents + t.leaf + t.heap + t.others_hash + self.group;
                    if least >= scanned_hash_joins {
                        continue;
                    }
                    cache.nested.push(t);
                }
            }
            if cache.access.len() > access || cache.nested.len() > nested {
                cache.pairs.push(Pair {
                    candidate: narrow(c),
                    access_end: narrow(cache.access.len()),
                    nested_end: narrow(cache.nested.len()),
                });
            }
        }
        cache.pairs.shrink_to_fit();
        cache.access.shrink_to_fit();
        cache.nested.shrink_to_fit();
        cache
    }

    /// The terms of an index-nested-loop join through the fact index
    /// `index`, driven by join `k`.
    fn nested_term(&self, catalog: &Catalog, index: &CandidateIndex, k: usize) -> NestedTerm {
        let model = CostModel;
        let (fact, dims) = (&self.tables[0], &self.tables[1..]);
        let dim = &dims[k];
        // Rows of the fact table reached through the driving dimension.
        let reached = (self.fact.rows * dim.selectivity).max(1.0);
        // Extra sargable columns of the fact index filter further.
        let extra_sel = selectivity_of_columns(
            catalog,
            self.query,
            &self.query.fact_table,
            &index.key_columns,
        );
        let fetched = (reached * extra_sel).max(1.0);
        let covering = index.covers(&fact.needed);
        let descents = dim.rows * BTREE_DESCENT_PAGES * RANDOM_PAGE_COST;
        let leaf = fetched * CPU_INDEX_TUPLE_COST
            + index.size_pages(catalog) * dim.selectivity * SEQ_PAGE_COST;
        let heap = if covering {
            0.0
        } else {
            (fetched * RANDOM_PAGE_COST).min(self.fact.pages() * SEQ_PAGE_COST)
        };
        // Remaining dimensions joined by hash on the reduced stream.
        let others_hash = dims
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != k)
            .map(|(_, d)| model.hash_build_cost(d.rows))
            .sum::<f64>()
            + model.hash_probe_cost(fetched * fact.selectivity)
                * dims.len().saturating_sub(1).max(1) as f64;
        NestedTerm {
            dim: narrow(k),
            descents,
            leaf,
            heap,
            others_hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::cost::params::COST_TO_SECONDS;
    use crate::physical::CandidateIndex;
    use crate::query::{Aggregate, ColumnRef, Predicate};

    /// A small star schema: SALES fact, CUSTOMER and DATE_DIM dimensions.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "SALES",
            5_000_000.0,
            vec![
                Column::int_key("SALE_ID", 5_000_000.0),
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
                Column::string("NAME", 32.0, 450_000.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "DATE_DIM",
            2_000.0,
            vec![
                Column::int_key("DATEID", 2_000.0),
                Column::int_key("YEAR", 6.0),
                Column::int_key("MONTH", 12.0),
            ],
        ))
        .unwrap();
        c
    }

    fn star_query() -> QuerySpec {
        QuerySpec::new("star", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .join(
                ColumnRef::new("SALES", "DATE_ID"),
                ColumnRef::new("DATE_DIM", "DATEID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .filter(Predicate::equality(ColumnRef::new("DATE_DIM", "YEAR")))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")))
    }

    #[test]
    fn empty_config_costs_more_than_indexed_config() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let empty = opt.optimize(&q, &PhysicalConfig::empty());
        assert!(empty.used_indexes.is_empty());

        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("SALES", vec!["CUST_ID".into()]));
        let indexed = opt.optimize(&q, &cfg);
        assert!(indexed.cost < empty.cost);
        assert!(!indexed.used_indexes.is_empty());
    }

    #[test]
    fn star_join_uses_multiple_indexes_together() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]));
        cfg.add(
            CandidateIndex::new("SALES", vec!["CUST_ID".into()])
                .with_includes(vec!["DATE_ID".into(), "AMOUNT".into()]),
        );
        let plan = opt.optimize(&q, &cfg);
        // The winning plan should combine at least two indexes — the paper's
        // "query interaction".
        assert!(
            plan.used_indexes.len() >= 2,
            "expected a multi-index plan, got {:?}",
            plan.used_indexes
        );
    }

    #[test]
    fn plan_cost_is_monotone_in_configuration() {
        // Adding indexes can only help (the optimizer can ignore them).
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        let mut last = opt.optimize(&q, &cfg).cost;
        for ix in [
            CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]),
            CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]),
            CandidateIndex::new("SALES", vec!["CUST_ID".into()]),
        ] {
            cfg.add(ix);
            let cost = opt.optimize(&q, &cfg).cost;
            assert!(cost <= last + 1e-9, "cost increased: {cost} > {last}");
            last = cost;
        }
    }

    #[test]
    fn cost_seconds_uses_params_scale() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let plan = opt.optimize(&q, &PhysicalConfig::empty());
        let secs = opt.cost_seconds(&q, &PhysicalConfig::empty());
        assert_eq!(secs.to_bits(), (plan.cost / COST_TO_SECONDS).to_bits());
    }

    #[test]
    fn used_indexes_are_sorted_and_unique() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]));
        cfg.add(CandidateIndex::new("SALES", vec!["CUST_ID".into()]));
        let plan = opt.optimize(&q, &cfg);
        let mut sorted = plan.used_indexes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(plan.used_indexes, sorted);
    }

    #[test]
    fn query_without_joins_is_planned() {
        let opt = Optimizer::new(catalog());
        let q = QuerySpec::new("simple", "CUSTOMER")
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .aggregate(Aggregate::avg(ColumnRef::new("CUSTOMER", "CUSTID")));
        let empty_cost = opt.optimize(&q, &PhysicalConfig::empty()).cost;
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        let plan = opt.optimize(&q, &cfg);
        assert!(plan.cost < empty_cost);
        assert_eq!(plan.used_indexes.len(), 1);
    }
}
