//! A TPC-DS-like workload: a snowflake retail schema and 102 generated
//! analytic queries.
//!
//! TPC-DS queries are far wider than TPC-H's — the paper reports plans using
//! up to 13 indexes together and 3386 extracted plans for 102 queries. To
//! reproduce that regime without the original query text, this module pairs a
//! TPC-DS-shaped schema (sales/returns/inventory facts, a dozen-plus
//! dimensions) with a *deterministic query generator*: each of the 102
//! queries picks a fact table, joins a handful-to-a-dozen dimensions, filters
//! several of them, and aggregates fact measures grouped by dimension
//! attributes. The generator is seeded, so the workload — and therefore the
//! extracted problem instance — is identical on every run.

use idd_whatif::{
    AdvisorConfig, Aggregate, Catalog, Column, ColumnRef, ExtractionConfig, Predicate, QuerySpec,
    Table, WhatIfOptions, Workload,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Seed of the deterministic query generator.
pub const QUERY_SEED: u64 = 0x1DD2012;

/// Number of generated queries (matches the paper's TPC-DS workload).
pub const NUM_QUERIES: usize = 102;

/// Description of a fact table's join structure used by the generator.
struct FactSpec {
    name: &'static str,
    /// `(fact FK column, dimension table, dimension PK column)`.
    joins: &'static [(&'static str, &'static str, &'static str)],
    /// Numeric measure columns.
    measures: &'static [&'static str],
    /// Relative probability of a query using this fact table.
    weight: f64,
}

/// Filterable / groupable attributes per dimension table.
struct DimSpec {
    name: &'static str,
    /// `(column, kind)` where kind is 'e' equality, 'r' range, 'i' in-list.
    attributes: &'static [(&'static str, char)],
}

const FACTS: &[FactSpec] = &[
    FactSpec {
        name: "STORE_SALES",
        joins: &[
            ("SS_SOLD_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("SS_SOLD_TIME_SK", "TIME_DIM", "T_TIME_SK"),
            ("SS_ITEM_SK", "ITEM", "I_ITEM_SK"),
            ("SS_CUSTOMER_SK", "CUSTOMER", "C_CUSTOMER_SK"),
            ("SS_CDEMO_SK", "CUSTOMER_DEMOGRAPHICS", "CD_DEMO_SK"),
            ("SS_HDEMO_SK", "HOUSEHOLD_DEMOGRAPHICS", "HD_DEMO_SK"),
            ("SS_ADDR_SK", "CUSTOMER_ADDRESS", "CA_ADDRESS_SK"),
            ("SS_STORE_SK", "STORE", "S_STORE_SK"),
            ("SS_PROMO_SK", "PROMOTION", "P_PROMO_SK"),
        ],
        measures: &[
            "SS_QUANTITY",
            "SS_SALES_PRICE",
            "SS_EXT_SALES_PRICE",
            "SS_NET_PROFIT",
        ],
        weight: 0.40,
    },
    FactSpec {
        name: "CATALOG_SALES",
        joins: &[
            ("CS_SOLD_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("CS_SHIP_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("CS_ITEM_SK", "ITEM", "I_ITEM_SK"),
            ("CS_BILL_CUSTOMER_SK", "CUSTOMER", "C_CUSTOMER_SK"),
            ("CS_BILL_CDEMO_SK", "CUSTOMER_DEMOGRAPHICS", "CD_DEMO_SK"),
            ("CS_BILL_HDEMO_SK", "HOUSEHOLD_DEMOGRAPHICS", "HD_DEMO_SK"),
            ("CS_BILL_ADDR_SK", "CUSTOMER_ADDRESS", "CA_ADDRESS_SK"),
            ("CS_CALL_CENTER_SK", "CALL_CENTER", "CC_CALL_CENTER_SK"),
            ("CS_CATALOG_PAGE_SK", "CATALOG_PAGE", "CP_CATALOG_PAGE_SK"),
            ("CS_SHIP_MODE_SK", "SHIP_MODE", "SM_SHIP_MODE_SK"),
            ("CS_WAREHOUSE_SK", "WAREHOUSE", "W_WAREHOUSE_SK"),
            ("CS_PROMO_SK", "PROMOTION", "P_PROMO_SK"),
        ],
        measures: &[
            "CS_QUANTITY",
            "CS_SALES_PRICE",
            "CS_EXT_SALES_PRICE",
            "CS_NET_PROFIT",
        ],
        weight: 0.25,
    },
    FactSpec {
        name: "WEB_SALES",
        joins: &[
            ("WS_SOLD_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("WS_ITEM_SK", "ITEM", "I_ITEM_SK"),
            ("WS_BILL_CUSTOMER_SK", "CUSTOMER", "C_CUSTOMER_SK"),
            ("WS_BILL_CDEMO_SK", "CUSTOMER_DEMOGRAPHICS", "CD_DEMO_SK"),
            ("WS_BILL_ADDR_SK", "CUSTOMER_ADDRESS", "CA_ADDRESS_SK"),
            ("WS_WEB_SITE_SK", "WEB_SITE", "WEB_SITE_SK"),
            ("WS_WEB_PAGE_SK", "WEB_PAGE", "WP_WEB_PAGE_SK"),
            ("WS_SHIP_MODE_SK", "SHIP_MODE", "SM_SHIP_MODE_SK"),
            ("WS_WAREHOUSE_SK", "WAREHOUSE", "W_WAREHOUSE_SK"),
            ("WS_PROMO_SK", "PROMOTION", "P_PROMO_SK"),
        ],
        measures: &[
            "WS_QUANTITY",
            "WS_SALES_PRICE",
            "WS_EXT_SALES_PRICE",
            "WS_NET_PROFIT",
        ],
        weight: 0.18,
    },
    FactSpec {
        name: "STORE_RETURNS",
        joins: &[
            ("SR_RETURNED_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("SR_ITEM_SK", "ITEM", "I_ITEM_SK"),
            ("SR_CUSTOMER_SK", "CUSTOMER", "C_CUSTOMER_SK"),
            ("SR_CDEMO_SK", "CUSTOMER_DEMOGRAPHICS", "CD_DEMO_SK"),
            ("SR_ADDR_SK", "CUSTOMER_ADDRESS", "CA_ADDRESS_SK"),
            ("SR_STORE_SK", "STORE", "S_STORE_SK"),
            ("SR_REASON_SK", "REASON", "R_REASON_SK"),
        ],
        measures: &["SR_RETURN_QUANTITY", "SR_RETURN_AMT", "SR_NET_LOSS"],
        weight: 0.10,
    },
    FactSpec {
        name: "INVENTORY",
        joins: &[
            ("INV_DATE_SK", "DATE_DIM", "D_DATE_SK"),
            ("INV_ITEM_SK", "ITEM", "I_ITEM_SK"),
            ("INV_WAREHOUSE_SK", "WAREHOUSE", "W_WAREHOUSE_SK"),
        ],
        measures: &["INV_QUANTITY_ON_HAND"],
        weight: 0.07,
    },
];

const DIMS: &[DimSpec] = &[
    DimSpec {
        name: "DATE_DIM",
        attributes: &[
            ("D_YEAR", 'e'),
            ("D_MOY", 'e'),
            ("D_QOY", 'e'),
            ("D_DOW", 'e'),
        ],
    },
    DimSpec {
        name: "TIME_DIM",
        attributes: &[("T_HOUR", 'e'), ("T_MEAL_TIME", 'e')],
    },
    DimSpec {
        name: "ITEM",
        attributes: &[
            ("I_CATEGORY", 'e'),
            ("I_BRAND", 'e'),
            ("I_CLASS", 'e'),
            ("I_MANUFACT_ID", 'i'),
            ("I_COLOR", 'i'),
        ],
    },
    DimSpec {
        name: "CUSTOMER",
        attributes: &[("C_BIRTH_COUNTRY", 'e'), ("C_PREFERRED_CUST_FLAG", 'e')],
    },
    DimSpec {
        name: "CUSTOMER_DEMOGRAPHICS",
        attributes: &[
            ("CD_GENDER", 'e'),
            ("CD_MARITAL_STATUS", 'e'),
            ("CD_EDUCATION_STATUS", 'e'),
        ],
    },
    DimSpec {
        name: "HOUSEHOLD_DEMOGRAPHICS",
        attributes: &[("HD_BUY_POTENTIAL", 'e'), ("HD_DEP_COUNT", 'e')],
    },
    DimSpec {
        name: "CUSTOMER_ADDRESS",
        attributes: &[("CA_STATE", 'i'), ("CA_GMT_OFFSET", 'e'), ("CA_CITY", 'i')],
    },
    DimSpec {
        name: "STORE",
        attributes: &[("S_STATE", 'i'), ("S_COUNTY", 'e')],
    },
    DimSpec {
        name: "PROMOTION",
        attributes: &[("P_CHANNEL_EMAIL", 'e'), ("P_CHANNEL_TV", 'e')],
    },
    DimSpec {
        name: "WAREHOUSE",
        attributes: &[("W_STATE", 'e')],
    },
    DimSpec {
        name: "SHIP_MODE",
        attributes: &[("SM_TYPE", 'e'), ("SM_CARRIER", 'e')],
    },
    DimSpec {
        name: "WEB_SITE",
        attributes: &[("WEB_CLASS", 'e')],
    },
    DimSpec {
        name: "WEB_PAGE",
        attributes: &[("WP_TYPE", 'e')],
    },
    DimSpec {
        name: "CALL_CENTER",
        attributes: &[("CC_CLASS", 'e')],
    },
    DimSpec {
        name: "CATALOG_PAGE",
        attributes: &[("CP_TYPE", 'e')],
    },
    DimSpec {
        name: "REASON",
        attributes: &[("R_REASON_DESC", 'e')],
    },
];

/// Builds the TPC-DS-like catalog (scale ~100 cardinality ratios).
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();

    // Dimensions.
    c.add_table(Table::new(
        "DATE_DIM",
        73_049.0,
        vec![
            Column::int_key("D_DATE_SK", 73_049.0),
            Column::int_key("D_YEAR", 200.0),
            Column::int_key("D_MOY", 12.0),
            Column::int_key("D_QOY", 4.0),
            Column::int_key("D_DOW", 7.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "TIME_DIM",
        86_400.0,
        vec![
            Column::int_key("T_TIME_SK", 86_400.0),
            Column::int_key("T_HOUR", 24.0),
            Column::string("T_MEAL_TIME", 12.0, 4.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "ITEM",
        204_000.0,
        vec![
            Column::int_key("I_ITEM_SK", 204_000.0),
            Column::string("I_CATEGORY", 16.0, 10.0),
            Column::string("I_BRAND", 24.0, 700.0),
            Column::string("I_CLASS", 16.0, 100.0),
            Column::int_key("I_MANUFACT_ID", 1_000.0),
            Column::string("I_COLOR", 12.0, 90.0),
            Column::new("I_CURRENT_PRICE", 8.0, 10_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CUSTOMER",
        2_000_000.0,
        vec![
            Column::int_key("C_CUSTOMER_SK", 2_000_000.0),
            Column::string("C_BIRTH_COUNTRY", 20.0, 200.0),
            Column::string("C_PREFERRED_CUST_FLAG", 2.0, 2.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CUSTOMER_DEMOGRAPHICS",
        1_920_800.0,
        vec![
            Column::int_key("CD_DEMO_SK", 1_920_800.0),
            Column::string("CD_GENDER", 2.0, 2.0),
            Column::string("CD_MARITAL_STATUS", 2.0, 5.0),
            Column::string("CD_EDUCATION_STATUS", 16.0, 7.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "HOUSEHOLD_DEMOGRAPHICS",
        7_200.0,
        vec![
            Column::int_key("HD_DEMO_SK", 7_200.0),
            Column::string("HD_BUY_POTENTIAL", 12.0, 6.0),
            Column::int_key("HD_DEP_COUNT", 10.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CUSTOMER_ADDRESS",
        1_000_000.0,
        vec![
            Column::int_key("CA_ADDRESS_SK", 1_000_000.0),
            Column::string("CA_STATE", 4.0, 51.0),
            Column::new("CA_GMT_OFFSET", 4.0, 7.0),
            Column::string("CA_CITY", 16.0, 1_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "STORE",
        402.0,
        vec![
            Column::int_key("S_STORE_SK", 402.0),
            Column::string("S_STATE", 4.0, 30.0),
            Column::string("S_COUNTY", 24.0, 100.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "PROMOTION",
        1_000.0,
        vec![
            Column::int_key("P_PROMO_SK", 1_000.0),
            Column::string("P_CHANNEL_EMAIL", 2.0, 2.0),
            Column::string("P_CHANNEL_TV", 2.0, 2.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "WAREHOUSE",
        15.0,
        vec![
            Column::int_key("W_WAREHOUSE_SK", 15.0),
            Column::string("W_STATE", 4.0, 10.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "SHIP_MODE",
        20.0,
        vec![
            Column::int_key("SM_SHIP_MODE_SK", 20.0),
            Column::string("SM_TYPE", 12.0, 6.0),
            Column::string("SM_CARRIER", 16.0, 20.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "WEB_SITE",
        24.0,
        vec![
            Column::int_key("WEB_SITE_SK", 24.0),
            Column::string("WEB_CLASS", 12.0, 5.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "WEB_PAGE",
        2_040.0,
        vec![
            Column::int_key("WP_WEB_PAGE_SK", 2_040.0),
            Column::string("WP_TYPE", 12.0, 7.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CALL_CENTER",
        30.0,
        vec![
            Column::int_key("CC_CALL_CENTER_SK", 30.0),
            Column::string("CC_CLASS", 12.0, 3.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CATALOG_PAGE",
        20_400.0,
        vec![
            Column::int_key("CP_CATALOG_PAGE_SK", 20_400.0),
            Column::string("CP_TYPE", 12.0, 3.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "REASON",
        55.0,
        vec![
            Column::int_key("R_REASON_SK", 55.0),
            Column::string("R_REASON_DESC", 24.0, 55.0),
        ],
    ))
    .unwrap();

    // Fact tables (scale-100-like row counts, scaled down one order of
    // magnitude to keep extraction fast).
    c.add_table(Table::new(
        "STORE_SALES",
        28_800_000.0,
        vec![
            Column::int_key("SS_SOLD_DATE_SK", 1_800.0),
            Column::int_key("SS_SOLD_TIME_SK", 43_200.0),
            Column::int_key("SS_ITEM_SK", 204_000.0),
            Column::int_key("SS_CUSTOMER_SK", 2_000_000.0),
            Column::int_key("SS_CDEMO_SK", 1_920_800.0),
            Column::int_key("SS_HDEMO_SK", 7_200.0),
            Column::int_key("SS_ADDR_SK", 1_000_000.0),
            Column::int_key("SS_STORE_SK", 402.0),
            Column::int_key("SS_PROMO_SK", 1_000.0),
            Column::new("SS_QUANTITY", 4.0, 100.0),
            Column::new("SS_SALES_PRICE", 8.0, 20_000.0),
            Column::new("SS_EXT_SALES_PRICE", 8.0, 1_000_000.0),
            Column::new("SS_NET_PROFIT", 8.0, 1_000_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "CATALOG_SALES",
        14_400_000.0,
        vec![
            Column::int_key("CS_SOLD_DATE_SK", 1_800.0),
            Column::int_key("CS_SHIP_DATE_SK", 1_800.0),
            Column::int_key("CS_ITEM_SK", 204_000.0),
            Column::int_key("CS_BILL_CUSTOMER_SK", 2_000_000.0),
            Column::int_key("CS_BILL_CDEMO_SK", 1_920_800.0),
            Column::int_key("CS_BILL_HDEMO_SK", 7_200.0),
            Column::int_key("CS_BILL_ADDR_SK", 1_000_000.0),
            Column::int_key("CS_CALL_CENTER_SK", 30.0),
            Column::int_key("CS_CATALOG_PAGE_SK", 20_400.0),
            Column::int_key("CS_SHIP_MODE_SK", 20.0),
            Column::int_key("CS_WAREHOUSE_SK", 15.0),
            Column::int_key("CS_PROMO_SK", 1_000.0),
            Column::new("CS_QUANTITY", 4.0, 100.0),
            Column::new("CS_SALES_PRICE", 8.0, 20_000.0),
            Column::new("CS_EXT_SALES_PRICE", 8.0, 1_000_000.0),
            Column::new("CS_NET_PROFIT", 8.0, 1_000_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "WEB_SALES",
        7_200_000.0,
        vec![
            Column::int_key("WS_SOLD_DATE_SK", 1_800.0),
            Column::int_key("WS_ITEM_SK", 204_000.0),
            Column::int_key("WS_BILL_CUSTOMER_SK", 2_000_000.0),
            Column::int_key("WS_BILL_CDEMO_SK", 1_920_800.0),
            Column::int_key("WS_BILL_ADDR_SK", 1_000_000.0),
            Column::int_key("WS_WEB_SITE_SK", 24.0),
            Column::int_key("WS_WEB_PAGE_SK", 2_040.0),
            Column::int_key("WS_SHIP_MODE_SK", 20.0),
            Column::int_key("WS_WAREHOUSE_SK", 15.0),
            Column::int_key("WS_PROMO_SK", 1_000.0),
            Column::new("WS_QUANTITY", 4.0, 100.0),
            Column::new("WS_SALES_PRICE", 8.0, 20_000.0),
            Column::new("WS_EXT_SALES_PRICE", 8.0, 1_000_000.0),
            Column::new("WS_NET_PROFIT", 8.0, 1_000_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "STORE_RETURNS",
        2_880_000.0,
        vec![
            Column::int_key("SR_RETURNED_DATE_SK", 1_800.0),
            Column::int_key("SR_ITEM_SK", 204_000.0),
            Column::int_key("SR_CUSTOMER_SK", 2_000_000.0),
            Column::int_key("SR_CDEMO_SK", 1_920_800.0),
            Column::int_key("SR_ADDR_SK", 1_000_000.0),
            Column::int_key("SR_STORE_SK", 402.0),
            Column::int_key("SR_REASON_SK", 55.0),
            Column::new("SR_RETURN_QUANTITY", 4.0, 100.0),
            Column::new("SR_RETURN_AMT", 8.0, 100_000.0),
            Column::new("SR_NET_LOSS", 8.0, 100_000.0),
        ],
    ))
    .unwrap();
    c.add_table(Table::new(
        "INVENTORY",
        11_700_000.0,
        vec![
            Column::int_key("INV_DATE_SK", 261.0),
            Column::int_key("INV_ITEM_SK", 204_000.0),
            Column::int_key("INV_WAREHOUSE_SK", 15.0),
            Column::new("INV_QUANTITY_ON_HAND", 4.0, 1_000.0),
        ],
    ))
    .unwrap();

    c
}

fn dim_spec(name: &str) -> &'static DimSpec {
    DIMS.iter()
        .find(|d| d.name == name)
        .expect("dimension spec missing")
}

fn make_predicate(rng: &mut ChaCha8Rng, table: &str, column: &str, kind: char) -> Predicate {
    let cref = ColumnRef::new(table, column);
    match kind {
        'r' => Predicate::range(cref, rng.gen_range(0.02..0.4)),
        'i' => Predicate::in_list(cref, rng.gen_range(2..8)),
        _ => Predicate::equality(cref),
    }
}

/// Generates the 102 deterministic TPC-DS-like queries.
pub fn queries() -> Vec<QuerySpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(QUERY_SEED);
    let total_weight: f64 = FACTS.iter().map(|f| f.weight).sum();
    let mut out = Vec::with_capacity(NUM_QUERIES);

    for qnum in 0..NUM_QUERIES {
        // Pick the fact table.
        let mut pick = rng.gen_range(0.0..total_weight);
        let fact = FACTS
            .iter()
            .find(|f| {
                if pick < f.weight {
                    true
                } else {
                    pick -= f.weight;
                    false
                }
            })
            .unwrap_or(&FACTS[0]);

        let mut q = QuerySpec::new(format!("DSQ{:03}", qnum + 1), fact.name);

        // Pick how many dimensions to join: mostly 2–5, occasionally nearly
        // all of them (these produce the very wide plans of the paper).
        let max_dims = fact.joins.len();
        let num_dims = if qnum % 17 == 0 {
            max_dims
        } else if qnum % 5 == 0 {
            (max_dims * 2 / 3).max(3).min(max_dims)
        } else {
            rng.gen_range(2..=4.min(max_dims))
        };
        let mut join_order: Vec<usize> = (0..max_dims).collect();
        join_order.shuffle(&mut rng);
        let chosen = &join_order[..num_dims];

        let mut filtered_dims = 0usize;
        for &j in chosen {
            let (fk, dim_table, dim_pk) = fact.joins[j];
            q = q.join(
                ColumnRef::new(fact.name, fk),
                ColumnRef::new(dim_table, dim_pk),
            );
            let spec = dim_spec(dim_table);
            // Filter most joined dimensions (wide queries filter many dims,
            // which is what makes their best plans use many indexes).
            let filter_probability = if num_dims >= 6 { 0.85 } else { 0.6 };
            if rng.gen_bool(filter_probability) && !spec.attributes.is_empty() {
                let (col_name, kind) = spec.attributes[rng.gen_range(0..spec.attributes.len())];
                q = q.filter(make_predicate(&mut rng, dim_table, col_name, kind));
                filtered_dims += 1;
                // Occasionally add a second predicate on the same dimension.
                if rng.gen_bool(0.25) && spec.attributes.len() > 1 {
                    let (c2, k2) = spec.attributes[rng.gen_range(0..spec.attributes.len())];
                    if c2 != col_name {
                        q = q.filter(make_predicate(&mut rng, dim_table, c2, k2));
                    }
                }
            }
        }
        // Ensure at least one dimension is filtered so the query benefits
        // from indexes at all.
        if filtered_dims == 0 {
            let (_, dim_table, _) = fact.joins[chosen[0]];
            let spec = dim_spec(dim_table);
            let (col_name, kind) = spec.attributes[0];
            q = q.filter(make_predicate(&mut rng, dim_table, col_name, kind));
        }

        // Group by one or two attributes of the joined dimensions.
        let group_count = rng.gen_range(1..=2);
        for g in 0..group_count {
            let &j = &chosen[g % chosen.len()];
            let (_, dim_table, _) = fact.joins[j];
            let spec = dim_spec(dim_table);
            let (col_name, _) = spec.attributes[g % spec.attributes.len()];
            q = q.group(ColumnRef::new(dim_table, col_name));
        }

        // Aggregate one or two fact measures.
        let agg_count = rng.gen_range(1..=2.min(fact.measures.len()));
        for a in 0..agg_count {
            q = q.aggregate(Aggregate::sum(ColumnRef::new(fact.name, fact.measures[a])));
        }

        out.push(q);
    }

    out
}

/// The full TPC-DS-like workload.
pub fn workload() -> Workload {
    Workload::new("tpcds", catalog(), queries())
}

/// Extraction configuration matching the paper's TPC-DS design size
/// (148 suggested indexes) and plan density (~33 plans per query).
pub fn extraction_config() -> ExtractionConfig {
    ExtractionConfig {
        advisor: AdvisorConfig::with_budget(148),
        whatif: WhatIfOptions {
            max_iterations: 16,
            min_speedup_ratio: 0.0005,
        },
        min_build_interaction_ratio: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_facts_and_dimensions() {
        let c = catalog();
        assert!(c.num_tables() >= 17);
        assert!(c.table("STORE_SALES").unwrap().rows > c.table("STORE").unwrap().rows);
        // Every join edge of every fact spec is resolvable.
        for f in FACTS {
            for (fk, dim, pk) in f.joins {
                assert!(c.require_column(f.name, fk).is_ok(), "{}.{fk}", f.name);
                assert!(c.require_column(dim, pk).is_ok(), "{dim}.{pk}");
            }
            for m in f.measures {
                assert!(c.require_column(f.name, m).is_ok());
            }
        }
        for d in DIMS {
            for (col, _) in d.attributes {
                assert!(c.require_column(d.name, col).is_ok(), "{}.{col}", d.name);
            }
        }
    }

    #[test]
    fn generates_102_deterministic_queries() {
        let a = queries();
        let b = queries();
        assert_eq!(a.len(), NUM_QUERIES);
        assert_eq!(a, b, "query generation must be deterministic");
    }

    #[test]
    fn queries_reference_valid_columns_and_include_wide_joins() {
        let w = workload();
        let mut widest = 0usize;
        for q in &w.queries {
            for p in &q.predicates {
                assert!(w
                    .catalog
                    .require_column(&p.column.table, &p.column.column)
                    .is_ok());
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
            assert!(!q.predicates.is_empty(), "{} has no filter", q.name);
            widest = widest.max(q.joins.len());
        }
        // The paper's widest TPC-DS plan uses 13 indexes; our widest queries
        // join enough dimensions to make such plans possible.
        assert!(widest >= 9, "widest join count {widest}");
    }

    #[test]
    fn extraction_config_matches_paper_budget() {
        assert_eq!(extraction_config().advisor.max_indexes, 148);
    }
}
