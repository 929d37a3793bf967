//! Constants of the cost model, in abstract "cost units" per page / tuple.
//!
//! They mirror the familiar PostgreSQL ratios (random I/O four times the
//! cost of sequential I/O, CPU two orders of magnitude below I/O). Like the
//! cost constants of the DBMS whose what-if interface the paper queries,
//! they belong to the substrate, not to the advisor, so every extraction
//! prices with the same values. [`to_seconds`] converts optimizer cost units
//! to the wall-clock seconds used by the ordering model.

/// Cost of reading one page sequentially.
pub(crate) const SEQ_PAGE_COST: f64 = 1.0;
/// Cost of reading one page at a random location.
pub(crate) const RANDOM_PAGE_COST: f64 = 4.0;
/// CPU cost of processing one heap tuple.
pub(crate) const CPU_TUPLE_COST: f64 = 0.01;
/// CPU cost of processing one index entry.
pub(crate) const CPU_INDEX_TUPLE_COST: f64 = 0.005;
/// CPU cost of one operator / comparison evaluation.
pub(crate) const CPU_OPERATOR_COST: f64 = 0.0025;
/// Extra CPU cost per tuple inserted into a hash table.
pub(crate) const HASH_BUILD_COST: f64 = 0.02;
/// Number of page reads charged for one B-tree descent (root→leaf).
pub(crate) const BTREE_DESCENT_PAGES: f64 = 3.0;
/// Cost units per second of wall-clock time: query runtimes and index build
/// times handed to the ordering problem are `cost / COST_TO_SECONDS`.
pub(crate) const COST_TO_SECONDS: f64 = 1000.0;
/// Write amplification factor charged when materializing index pages during
/// a build (writes are more expensive than reads).
pub(crate) const PAGE_WRITE_FACTOR: f64 = 2.0;

/// Converts optimizer cost units into seconds.
pub(crate) fn to_seconds(cost: f64) -> f64 {
    cost / COST_TO_SECONDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_postgres_ratios() {
        assert_eq!(RANDOM_PAGE_COST / SEQ_PAGE_COST, 4.0);
        const { assert!(CPU_TUPLE_COST < SEQ_PAGE_COST) };
        const { assert!(CPU_INDEX_TUPLE_COST < CPU_TUPLE_COST) };
    }

    #[test]
    fn seconds_conversion() {
        assert_eq!(to_seconds(2000.0), 2.0);
    }
}
