//! A TPC-H-like workload: 8 tables, 22 analytic queries.
//!
//! The schema follows TPC-H's tables and cardinality ratios (scale factor
//! ~10). Queries are *patterned on* Q1–Q22: same driving tables, join
//! partners, predicate columns and aggregation targets, but expressed in the
//! star-shaped form the `idd-whatif` query model uses — join chains such as
//! `LINEITEM → ORDERS → CUSTOMER → NATION → REGION` are flattened into direct
//! fact-to-dimension joins, and region-level filters become equivalent-
//! selectivity filters on `NATION.REGIONKEY`. The flattening preserves what
//! matters for index selection and ordering: which columns are filtered,
//! joined and aggregated, and therefore which (multi-)index plans exist.

use idd_whatif::{
    AdvisorConfig, Aggregate, Catalog, Column, ColumnRef, ExtractionConfig, Predicate, QuerySpec,
    Table, WhatIfOptions, Workload,
};

/// Scale factor the cardinalities are modelled after.
pub const SCALE_FACTOR: f64 = 10.0;

/// Builds the TPC-H-like catalog.
pub fn catalog() -> Catalog {
    let sf = SCALE_FACTOR;
    let mut c = Catalog::new();
    c.add_table(Table::new(
        "REGION",
        5.0,
        vec![
            Column::int_key("REGIONKEY", 5.0),
            Column::string("R_NAME", 16.0, 5.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "NATION",
        25.0,
        vec![
            Column::int_key("NATIONKEY", 25.0),
            Column::string("N_NAME", 16.0, 25.0),
            Column::int_key("REGIONKEY", 5.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "SUPPLIER",
        10_000.0 * sf,
        vec![
            Column::int_key("SUPPKEY", 10_000.0 * sf),
            Column::int_key("S_NATIONKEY", 25.0),
            Column::new("S_ACCTBAL", 8.0, 9_000.0),
            Column::string("S_COMMENT", 60.0, 10_000.0 * sf),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CUSTOMER",
        150_000.0 * sf,
        vec![
            Column::int_key("CUSTKEY", 150_000.0 * sf),
            Column::int_key("C_NATIONKEY", 25.0),
            Column::string("C_MKTSEGMENT", 12.0, 5.0),
            Column::new("C_ACCTBAL", 8.0, 100_000.0),
            Column::string("C_PHONE", 16.0, 150_000.0 * sf),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "PART",
        200_000.0 * sf,
        vec![
            Column::int_key("PARTKEY", 200_000.0 * sf),
            Column::string("P_BRAND", 12.0, 25.0),
            Column::string("P_TYPE", 24.0, 150.0),
            Column::int_key("P_SIZE", 50.0),
            Column::string("P_CONTAINER", 12.0, 40.0),
            Column::string("P_NAME", 32.0, 180_000.0 * sf),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "PARTSUPP",
        800_000.0 * sf,
        vec![
            Column::int_key("PS_PARTKEY", 200_000.0 * sf),
            Column::int_key("PS_SUPPKEY", 10_000.0 * sf),
            Column::new("PS_SUPPLYCOST", 8.0, 100_000.0),
            Column::new("PS_AVAILQTY", 4.0, 10_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "ORDERS",
        1_500_000.0 * sf,
        vec![
            Column::int_key("ORDERKEY", 1_500_000.0 * sf),
            Column::int_key("O_CUSTKEY", 150_000.0 * sf),
            Column::string("O_ORDERSTATUS", 2.0, 3.0),
            Column::new("O_TOTALPRICE", 8.0, 1_000_000.0),
            Column::new("O_ORDERDATE", 4.0, 2_400.0),
            Column::string("O_ORDERPRIORITY", 16.0, 5.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "LINEITEM",
        6_000_000.0 * sf,
        vec![
            Column::int_key("L_ORDERKEY", 1_500_000.0 * sf),
            Column::int_key("L_PARTKEY", 200_000.0 * sf),
            Column::int_key("L_SUPPKEY", 10_000.0 * sf),
            Column::new("L_QUANTITY", 4.0, 50.0),
            Column::new("L_EXTENDEDPRICE", 8.0, 1_000_000.0),
            Column::new("L_DISCOUNT", 8.0, 11.0),
            Column::new("L_TAX", 8.0, 9.0),
            Column::string("L_RETURNFLAG", 2.0, 3.0),
            Column::string("L_LINESTATUS", 2.0, 2.0),
            Column::new("L_SHIPDATE", 4.0, 2_500.0),
            Column::new("L_COMMITDATE", 4.0, 2_500.0),
            Column::new("L_RECEIPTDATE", 4.0, 2_500.0),
            Column::string("L_SHIPMODE", 12.0, 7.0),
            Column::string("L_SHIPINSTRUCT", 24.0, 4.0),
        ],
    ))
    .unwrap();
    c
}

fn col(table: &str, column: &str) -> ColumnRef {
    ColumnRef::new(table, column)
}

/// Builds the 22 TPC-H-like queries.
// One `push` per query keeps each query's paper reference as a standalone
// commented block; collapsing into `vec![]` would bury them.
#[allow(clippy::vec_init_then_push)]
pub fn queries() -> Vec<QuerySpec> {
    let mut qs = Vec::with_capacity(22);

    // Q1: pricing summary report — scan lineitem with a shipdate range.
    qs.push(
        QuerySpec::new("Q1", "LINEITEM")
            .filter(Predicate::range(col("LINEITEM", "L_SHIPDATE"), 0.97))
            .group(col("LINEITEM", "L_RETURNFLAG"))
            .group(col("LINEITEM", "L_LINESTATUS"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_QUANTITY")))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q2: minimum cost supplier — partsupp joined to part and supplier.
    qs.push(
        QuerySpec::new("Q2", "PARTSUPP")
            .join(col("PARTSUPP", "PS_PARTKEY"), col("PART", "PARTKEY"))
            .join(col("PARTSUPP", "PS_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .filter(Predicate::equality(col("PART", "P_SIZE")))
            .filter(Predicate::equality(col("PART", "P_TYPE")))
            .filter(Predicate::equality(col("SUPPLIER", "S_NATIONKEY")))
            .group(col("SUPPLIER", "S_ACCTBAL"))
            .aggregate(Aggregate::sum(col("PARTSUPP", "PS_SUPPLYCOST"))),
    );

    // Q3: shipping priority — orders of one segment before a date.
    qs.push(
        QuerySpec::new("Q3", "ORDERS")
            .join(col("ORDERS", "O_CUSTKEY"), col("CUSTOMER", "CUSTKEY"))
            .filter(Predicate::equality(col("CUSTOMER", "C_MKTSEGMENT")))
            .filter(Predicate::range(col("ORDERS", "O_ORDERDATE"), 0.48))
            .group(col("ORDERS", "O_ORDERDATE"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q4: order priority checking.
    qs.push(
        QuerySpec::new("Q4", "ORDERS")
            .filter(Predicate::range(col("ORDERS", "O_ORDERDATE"), 0.033))
            .group(col("ORDERS", "O_ORDERPRIORITY"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q5: local supplier volume — orders joined to customer and nation.
    qs.push(
        QuerySpec::new("Q5", "ORDERS")
            .join(col("ORDERS", "O_CUSTKEY"), col("CUSTOMER", "CUSTKEY"))
            .filter(Predicate::equality(col("CUSTOMER", "C_NATIONKEY")))
            .filter(Predicate::range(col("ORDERS", "O_ORDERDATE"), 0.15))
            .group(col("CUSTOMER", "C_NATIONKEY"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q6: forecasting revenue change — highly selective lineitem scan.
    qs.push(
        QuerySpec::new("Q6", "LINEITEM")
            .filter(Predicate::range(col("LINEITEM", "L_SHIPDATE"), 0.15))
            .filter(Predicate::equality(col("LINEITEM", "L_DISCOUNT")))
            .filter(Predicate::range(col("LINEITEM", "L_QUANTITY"), 0.48))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q7: volume shipping — lineitem joined to supplier and orders.
    qs.push(
        QuerySpec::new("Q7", "LINEITEM")
            .join(col("LINEITEM", "L_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .join(col("LINEITEM", "L_ORDERKEY"), col("ORDERS", "ORDERKEY"))
            .filter(Predicate::equality(col("SUPPLIER", "S_NATIONKEY")))
            .filter(Predicate::range(col("LINEITEM", "L_SHIPDATE"), 0.30))
            .group(col("SUPPLIER", "S_NATIONKEY"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q8: national market share — lineitem with part, supplier, orders.
    qs.push(
        QuerySpec::new("Q8", "LINEITEM")
            .join(col("LINEITEM", "L_PARTKEY"), col("PART", "PARTKEY"))
            .join(col("LINEITEM", "L_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .join(col("LINEITEM", "L_ORDERKEY"), col("ORDERS", "ORDERKEY"))
            .filter(Predicate::equality(col("PART", "P_TYPE")))
            .filter(Predicate::range(col("ORDERS", "O_ORDERDATE"), 0.30))
            .group(col("SUPPLIER", "S_NATIONKEY"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q9: product type profit measure.
    qs.push(
        QuerySpec::new("Q9", "LINEITEM")
            .join(col("LINEITEM", "L_PARTKEY"), col("PART", "PARTKEY"))
            .join(col("LINEITEM", "L_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .join(col("LINEITEM", "L_ORDERKEY"), col("ORDERS", "ORDERKEY"))
            .filter(Predicate::range(col("PART", "P_NAME"), 0.054))
            .group(col("SUPPLIER", "S_NATIONKEY"))
            .group(col("ORDERS", "O_ORDERDATE"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE")))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_QUANTITY"))),
    );

    // Q10: returned item reporting.
    qs.push(
        QuerySpec::new("Q10", "ORDERS")
            .join(col("ORDERS", "O_CUSTKEY"), col("CUSTOMER", "CUSTKEY"))
            .filter(Predicate::range(col("ORDERS", "O_ORDERDATE"), 0.08))
            .group(col("CUSTOMER", "C_NATIONKEY"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q11: important stock identification.
    qs.push(
        QuerySpec::new("Q11", "PARTSUPP")
            .join(col("PARTSUPP", "PS_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .filter(Predicate::equality(col("SUPPLIER", "S_NATIONKEY")))
            .group(col("PARTSUPP", "PS_PARTKEY"))
            .aggregate(Aggregate::sum(col("PARTSUPP", "PS_SUPPLYCOST"))),
    );

    // Q12: shipping modes and order priority.
    qs.push(
        QuerySpec::new("Q12", "LINEITEM")
            .join(col("LINEITEM", "L_ORDERKEY"), col("ORDERS", "ORDERKEY"))
            .filter(Predicate::in_list(col("LINEITEM", "L_SHIPMODE"), 2))
            .filter(Predicate::range(col("LINEITEM", "L_RECEIPTDATE"), 0.15))
            .group(col("LINEITEM", "L_SHIPMODE"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q13: customer distribution.
    qs.push(
        QuerySpec::new("Q13", "ORDERS")
            .join(col("ORDERS", "O_CUSTKEY"), col("CUSTOMER", "CUSTKEY"))
            .group(col("ORDERS", "O_CUSTKEY"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q14: promotion effect.
    qs.push(
        QuerySpec::new("Q14", "LINEITEM")
            .join(col("LINEITEM", "L_PARTKEY"), col("PART", "PARTKEY"))
            .filter(Predicate::range(col("LINEITEM", "L_SHIPDATE"), 0.012))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q15: top supplier.
    qs.push(
        QuerySpec::new("Q15", "LINEITEM")
            .join(col("LINEITEM", "L_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .filter(Predicate::range(col("LINEITEM", "L_SHIPDATE"), 0.04))
            .group(col("LINEITEM", "L_SUPPKEY"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q16: parts/supplier relationship.
    qs.push(
        QuerySpec::new("Q16", "PARTSUPP")
            .join(col("PARTSUPP", "PS_PARTKEY"), col("PART", "PARTKEY"))
            .filter(Predicate::equality(col("PART", "P_BRAND")))
            .filter(Predicate::in_list(col("PART", "P_SIZE"), 8))
            .group(col("PART", "P_BRAND"))
            .group(col("PART", "P_TYPE"))
            .aggregate(Aggregate::sum(col("PARTSUPP", "PS_AVAILQTY"))),
    );

    // Q17: small-quantity-order revenue.
    qs.push(
        QuerySpec::new("Q17", "LINEITEM")
            .join(col("LINEITEM", "L_PARTKEY"), col("PART", "PARTKEY"))
            .filter(Predicate::equality(col("PART", "P_BRAND")))
            .filter(Predicate::equality(col("PART", "P_CONTAINER")))
            .filter(Predicate::range(col("LINEITEM", "L_QUANTITY"), 0.2))
            .aggregate(Aggregate::avg(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q18: large volume customer.
    qs.push(
        QuerySpec::new("Q18", "ORDERS")
            .join(col("ORDERS", "O_CUSTKEY"), col("CUSTOMER", "CUSTKEY"))
            .filter(Predicate::range(col("ORDERS", "O_TOTALPRICE"), 0.02))
            .group(col("ORDERS", "O_CUSTKEY"))
            .group(col("ORDERS", "O_ORDERDATE"))
            .aggregate(Aggregate::sum(col("ORDERS", "O_TOTALPRICE"))),
    );

    // Q19: discounted revenue — part/brand/container combinations.
    qs.push(
        QuerySpec::new("Q19", "LINEITEM")
            .join(col("LINEITEM", "L_PARTKEY"), col("PART", "PARTKEY"))
            .filter(Predicate::in_list(col("PART", "P_BRAND"), 3))
            .filter(Predicate::in_list(col("PART", "P_CONTAINER"), 12))
            .filter(Predicate::range(col("LINEITEM", "L_QUANTITY"), 0.4))
            .filter(Predicate::in_list(col("LINEITEM", "L_SHIPMODE"), 2))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_EXTENDEDPRICE"))),
    );

    // Q20: potential part promotion.
    qs.push(
        QuerySpec::new("Q20", "PARTSUPP")
            .join(col("PARTSUPP", "PS_PARTKEY"), col("PART", "PARTKEY"))
            .join(col("PARTSUPP", "PS_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .filter(Predicate::range(col("PART", "P_NAME"), 0.01))
            .filter(Predicate::equality(col("SUPPLIER", "S_NATIONKEY")))
            .aggregate(Aggregate::sum(col("PARTSUPP", "PS_AVAILQTY"))),
    );

    // Q21: suppliers who kept orders waiting.
    qs.push(
        QuerySpec::new("Q21", "LINEITEM")
            .join(col("LINEITEM", "L_SUPPKEY"), col("SUPPLIER", "SUPPKEY"))
            .join(col("LINEITEM", "L_ORDERKEY"), col("ORDERS", "ORDERKEY"))
            .filter(Predicate::equality(col("SUPPLIER", "S_NATIONKEY")))
            .filter(Predicate::equality(col("ORDERS", "O_ORDERSTATUS")))
            .filter(Predicate::range(col("LINEITEM", "L_RECEIPTDATE"), 0.5))
            .group(col("LINEITEM", "L_SUPPKEY"))
            .aggregate(Aggregate::sum(col("LINEITEM", "L_QUANTITY"))),
    );

    // Q22: global sales opportunity.
    qs.push(
        QuerySpec::new("Q22", "CUSTOMER")
            .filter(Predicate::in_list(col("CUSTOMER", "C_PHONE"), 7))
            .filter(Predicate::range(col("CUSTOMER", "C_ACCTBAL"), 0.5))
            .group(col("CUSTOMER", "C_NATIONKEY"))
            .aggregate(Aggregate::sum(col("CUSTOMER", "C_ACCTBAL"))),
    );

    qs
}

/// The full TPC-H-like workload (catalog + 22 queries).
pub fn workload() -> Workload {
    Workload::new("tpch", catalog(), queries())
}

/// Extraction configuration matching the paper's TPC-H design size
/// (31 suggested indexes) and plan density (~10 plans per query).
pub fn extraction_config() -> ExtractionConfig {
    ExtractionConfig {
        advisor: AdvisorConfig::with_budget(31),
        whatif: WhatIfOptions {
            max_iterations: 10,
            min_speedup_ratio: 0.001,
        },
        min_build_interaction_ratio: 0.02,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eight_tables_with_tpch_ratios() {
        let c = catalog();
        assert_eq!(c.num_tables(), 8);
        let lineitem = c.table("LINEITEM").unwrap();
        let orders = c.table("ORDERS").unwrap();
        assert!((lineitem.rows / orders.rows - 4.0).abs() < 0.5);
        assert!(c.table("REGION").unwrap().rows < 10.0);
    }

    #[test]
    fn there_are_22_queries_and_all_reference_valid_columns() {
        let w = workload();
        assert_eq!(w.queries.len(), 22);
        for q in &w.queries {
            for t in q.tables() {
                assert!(w.catalog.table(t).is_some(), "{} references {t}", q.name);
            }
            for p in &q.predicates {
                assert!(
                    w.catalog
                        .require_column(&p.column.table, &p.column.column)
                        .is_ok(),
                    "{} filters unknown column {}",
                    q.name,
                    p.column
                );
            }
            for j in &q.joins {
                assert!(w
                    .catalog
                    .require_column(&j.fact_column.table, &j.fact_column.column)
                    .is_ok());
                assert!(w
                    .catalog
                    .require_column(&j.dimension_column.table, &j.dimension_column.column)
                    .is_ok());
            }
        }
    }

    #[test]
    fn query_names_are_unique() {
        let qs = queries();
        let mut names: Vec<&str> = qs.iter().map(|q| q.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn extraction_config_matches_paper_budget() {
        assert_eq!(extraction_config().advisor.max_indexes, 31);
    }
}
