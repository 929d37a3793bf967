//! Index creation costs and build interactions.
//!
//! Building a B-tree index requires (a) a source scan producing the key and
//! include columns, (b) a sort on the key columns, and (c) writing the index
//! pages. The paper's *build interactions* arise because an existing index can
//! replace the source scan (when it stores every column the new index needs)
//! and can even remove the sort (when the new index's keys are a prefix of the
//! existing index's keys). We model both effects, which is how "a good
//! deployment order can reduce the build cost of an index up to 80%".

use crate::catalog::Catalog;
use crate::cost::model::CostModel;
use crate::cost::params::{
    to_seconds, CPU_INDEX_TUPLE_COST, CPU_TUPLE_COST, PAGE_WRITE_FACTOR, SEQ_PAGE_COST,
};
use crate::physical::CandidateIndex;

/// Computes creation costs and build interactions for candidate indexes,
/// priced with the substrate's fixed cost constants.
#[derive(Debug, Clone, Copy)]
pub struct BuildCostModel;

impl BuildCostModel {
    /// Cost (in cost units) of building `index` when the indexes in
    /// `existing` are already materialized.
    pub fn creation_cost_units(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        existing: &[&CandidateIndex],
    ) -> f64 {
        let table = match catalog.table(&index.table) {
            Some(t) => t,
            None => return 0.0,
        };
        let needed: Vec<String> = index.all_columns().map(str::to_string).collect();

        // Source scan: the base table, or the cheapest existing index on the
        // same table that stores every column we need.
        let table_scan = table.pages() * SEQ_PAGE_COST + table.rows * CPU_TUPLE_COST;
        let mut best_scan = table_scan;
        let mut best_source: Option<&CandidateIndex> = None;
        for other in existing {
            if other.table != index.table || other.name == index.name {
                continue;
            }
            if !other.covers(&needed) {
                continue;
            }
            let scan =
                other.size_pages(catalog) * SEQ_PAGE_COST + table.rows * CPU_INDEX_TUPLE_COST;
            if scan < best_scan {
                best_scan = scan;
                best_source = Some(other);
            }
        }

        // Sort: skipped when the source index already delivers the keys in
        // order (the new index's keys are a prefix of the source's keys).
        let sort_needed = match best_source {
            Some(src) => !keys_are_prefix(&index.key_columns, &src.key_columns),
            None => true,
        };
        let sort = if sort_needed {
            CostModel.sort_cost(table.rows, index.entry_width(catalog))
        } else {
            0.0
        };

        // Write out the new index pages.
        let write = index.size_pages(catalog) * SEQ_PAGE_COST * PAGE_WRITE_FACTOR;

        best_scan + sort + write
    }

    /// Base creation cost in seconds (`ctime(i)`): no helper available.
    pub fn base_creation_cost(&self, catalog: &Catalog, index: &CandidateIndex) -> f64 {
        to_seconds(self.creation_cost_units(catalog, index, &[]))
    }

    /// Creation cost in seconds when one helper index exists.
    pub fn creation_cost_with_helper(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        helper: &CandidateIndex,
    ) -> f64 {
        to_seconds(self.creation_cost_units(catalog, index, &[helper]))
    }

    /// `cspdup(index, helper)`: seconds saved off the base creation cost when
    /// `helper` already exists (zero when the helper does not help).
    pub fn build_speedup(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        helper: &CandidateIndex,
    ) -> f64 {
        let base = self.base_creation_cost(catalog, index);
        let helped = self.creation_cost_with_helper(catalog, index, helper);
        (base - helped).max(0.0)
    }

    /// All pair-wise build interactions among `candidates` whose relative
    /// saving is at least `min_ratio` of the base cost. Returns
    /// `(target_position, helper_position, seconds_saved)` triples.
    pub fn all_interactions(
        &self,
        catalog: &Catalog,
        candidates: &[CandidateIndex],
        min_ratio: f64,
    ) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for (ti, target) in candidates.iter().enumerate() {
            let base = self.base_creation_cost(catalog, target);
            if base <= 0.0 {
                continue;
            }
            for (hi, helper) in candidates.iter().enumerate() {
                if ti == hi || helper.table != target.table {
                    continue;
                }
                let saving = self.build_speedup(catalog, target, helper);
                if saving > 0.0 && saving / base >= min_ratio {
                    out.push((ti, hi, saving));
                }
            }
        }
        out
    }
}

/// Returns `true` when `wanted` is a prefix of `have`.
fn keys_are_prefix(wanted: &[String], have: &[String]) -> bool {
    wanted.len() <= have.len() && wanted.iter().zip(have.iter()).all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "PEOPLE",
            2_000_000.0,
            vec![
                Column::string("LANG", 8.0, 50.0),
                Column::int_key("AGE", 100.0),
                Column::string("REGION", 12.0, 500.0),
                Column::new("SALARY", 8.0, 50_000.0),
            ],
        ))
        .unwrap();
        c
    }

    #[test]
    fn wider_index_costs_more_to_build() {
        let cat = catalog();
        let model = BuildCostModel;
        let narrow = CandidateIndex::new("PEOPLE", vec!["LANG".into()]);
        let wide =
            CandidateIndex::new("PEOPLE", vec!["LANG".into(), "AGE".into(), "REGION".into()]);
        assert!(model.base_creation_cost(&cat, &wide) > model.base_creation_cost(&cat, &narrow));
    }

    #[test]
    fn paper_example_wide_index_helps_narrow_one() {
        // i1(LANG, REGION) should build faster after i2(LANG, AGE, REGION).
        let cat = catalog();
        let model = BuildCostModel;
        let i1 = CandidateIndex::new("PEOPLE", vec!["LANG".into(), "REGION".into()]);
        let i2 = CandidateIndex::new("PEOPLE", vec!["LANG".into(), "AGE".into(), "REGION".into()]);
        let saving = model.build_speedup(&cat, &i1, &i2);
        assert!(saving > 0.0);
        // The narrow index cannot help building the wide one by as much
        // (it lacks AGE, so it cannot even serve as the source).
        let reverse = model.build_speedup(&cat, &i2, &i1);
        assert!(reverse < saving);
    }

    #[test]
    fn prefix_helper_also_skips_the_sort() {
        let cat = catalog();
        let model = BuildCostModel;
        // Helper with the same leading keys in the same order.
        let target = CandidateIndex::new("PEOPLE", vec!["LANG".into()]);
        let prefix_helper = CandidateIndex::new("PEOPLE", vec!["LANG".into(), "AGE".into()]);
        let nonprefix_helper = CandidateIndex::new("PEOPLE", vec!["AGE".into(), "LANG".into()]);
        let with_prefix = model.creation_cost_with_helper(&cat, &target, &prefix_helper);
        let with_nonprefix = model.creation_cost_with_helper(&cat, &target, &nonprefix_helper);
        assert!(
            with_prefix < with_nonprefix,
            "prefix helper {with_prefix} should beat non-prefix helper {with_nonprefix}"
        );
    }

    #[test]
    fn savings_can_reach_large_fractions() {
        // The paper observes build-cost reductions of up to ~80%.
        let cat = catalog();
        let model = BuildCostModel;
        let target = CandidateIndex::new("PEOPLE", vec!["LANG".into()]);
        let helper = CandidateIndex::new("PEOPLE", vec!["LANG".into(), "AGE".into()]);
        let base = model.base_creation_cost(&cat, &target);
        let saving = model.build_speedup(&cat, &target, &helper);
        assert!(saving / base > 0.3, "saving ratio {}", saving / base);
        assert!(saving / base <= 1.0);
    }

    #[test]
    fn unrelated_index_gives_no_saving() {
        let cat = catalog();
        let model = BuildCostModel;
        let target = CandidateIndex::new("PEOPLE", vec!["LANG".into()]);
        let unrelated = CandidateIndex::new("PEOPLE", vec!["SALARY".into()]);
        assert_eq!(model.build_speedup(&cat, &target, &unrelated), 0.0);
    }

    #[test]
    fn all_interactions_filters_by_ratio_and_table() {
        let cat = catalog();
        let model = BuildCostModel;
        let candidates = vec![
            CandidateIndex::new("PEOPLE", vec!["LANG".into()]),
            CandidateIndex::new("PEOPLE", vec!["LANG".into(), "AGE".into()]),
            CandidateIndex::new("PEOPLE", vec!["SALARY".into()]),
        ];
        let interactions = model.all_interactions(&cat, &candidates, 0.05);
        // The wide LANG,AGE index helps the narrow LANG index.
        assert!(interactions
            .iter()
            .any(|&(t, h, s)| t == 0 && h == 1 && s > 0.0));
        // No interaction should involve the unrelated SALARY index as target.
        assert!(!interactions.iter().any(|&(t, _, _)| t == 2));
        // A 100% threshold filters everything out.
        assert!(model.all_interactions(&cat, &candidates, 1.1).is_empty());
    }

    #[test]
    fn keys_are_prefix_helper() {
        assert!(keys_are_prefix(&["A".into()], &["A".into(), "B".into()]));
        assert!(!keys_are_prefix(&["B".into()], &["A".into(), "B".into()]));
        assert!(!keys_are_prefix(
            &["A".into(), "B".into(), "C".into()],
            &["A".into(), "B".into()]
        ));
    }
}
