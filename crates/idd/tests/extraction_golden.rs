//! Bit-for-bit golden of the what-if extraction.
//!
//! `tpch_instance()` and `tpcds_instance()` run the whole "Evaluate
//! Hypothetical Indexes → Matrix File" pipeline: advisor, what-if optimizer,
//! build-cost model and instance assembly. For each instance the golden
//! prints one line with the section counts (indexes, queries, plans, build
//! interactions, precedences) and one FNV-1a hash per section. Every field
//! of every item enters its section's hash, every `f64` as its bits, every
//! string as its length and bytes, so any change to a cost formula, a plan,
//! a name or the order of the items shows.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd --test extraction_golden`

use idd::core::{IndexId, ProblemInstance};
use idd::workloads::{tpcds_instance, tpch_instance};
use std::path::Path;

/// FNV-1a over the words and strings fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn ids(&mut self, ids: &[IndexId]) {
        self.word(ids.len() as u64);
        for i in ids {
            self.word(i.raw() as u64);
        }
    }
}

/// One line: the section counts, then each section's hash.
fn line(label: &str, inst: &ProblemInstance) -> String {
    let mut indexes = Fnv::new();
    for m in inst.indexes() {
        indexes.word(m.id.raw() as u64);
        indexes.str(&m.name);
        indexes.str(&m.table);
        indexes.word(m.key_columns.len() as u64);
        for c in &m.key_columns {
            indexes.str(c);
        }
        indexes.word(m.include_columns.len() as u64);
        for c in &m.include_columns {
            indexes.str(c);
        }
        indexes.word(u64::from(m.clustered));
        indexes.f64(m.size_pages);
        indexes.f64(m.creation_cost);
    }
    let mut queries = Fnv::new();
    for q in inst.queries() {
        queries.word(q.id.raw() as u64);
        queries.str(&q.name);
        queries.str(&q.text);
        queries.f64(q.weight);
        queries.f64(q.original_runtime);
    }
    let mut plans = Fnv::new();
    for p in inst.plans() {
        plans.word(p.id.raw() as u64);
        plans.word(p.query.raw() as u64);
        plans.ids(&p.indexes);
        plans.f64(p.speedup);
    }
    let mut interactions = Fnv::new();
    for bi in inst.build_interactions() {
        interactions.word(bi.target.raw() as u64);
        interactions.word(bi.helper.raw() as u64);
        interactions.f64(bi.speedup);
    }
    let mut precedences = Fnv::new();
    for pr in inst.precedences() {
        precedences.word(pr.before.raw() as u64);
        precedences.word(pr.after.raw() as u64);
    }
    format!(
        "{label} name={} indexes={} queries={} plans={} interactions={} precedences={} \
         h_indexes={:016x} h_queries={:016x} h_plans={:016x} h_interactions={:016x} \
         h_precedences={:016x}",
        inst.name(),
        inst.num_indexes(),
        inst.num_queries(),
        inst.num_plans(),
        inst.build_interactions().len(),
        inst.precedences().len(),
        indexes.0,
        queries.0,
        plans.0,
        interactions.0,
        precedences.0,
    )
}

#[test]
fn extracted_instances_match_golden() {
    let tpch = tpch_instance().expect("TPC-H extraction succeeds");
    let tpcds = tpcds_instance().expect("TPC-DS extraction succeeds");
    let actual = [line("tpch", &tpch), line("tpcds", &tpcds)].join("\n") + "\n";

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/extraction.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden, &actual).expect("failed to write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {golden:?}: {e} (run with BLESS=1)"));
    assert_eq!(
        expected, actual,
        "extraction golden drifted (BLESS=1 to accept an intentional change)"
    );
}
