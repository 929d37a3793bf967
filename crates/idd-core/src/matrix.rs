//! Matrix-file I/O and hot-path matrix layouts.
//!
//! The paper's pipeline (Figure 3) hands the what-if analysis results to the
//! solver as a *matrix file* containing the benefits, creation costs and
//! interactions of all indexes. [`MatrixFile`] is that artefact: a versioned
//! JSON envelope around a [`ProblemInstance`], plus a human-readable summary
//! writer used by the experiment harness.
//!
//! The crate-private `SoaView` is the same data flattened into a
//! struct-of-arrays (CSR) layout for the local-search inner loop: every
//! adjacency the delta evaluator walks (index → plans, plan → members, query
//! → plans, target → helpers) is a contiguous `u32`/`f64` slice, so a move
//! evaluation touches a handful of cache lines instead of chasing
//! `Vec<Vec<…>>` pointers. The swap bounds of the delta evaluator also walk
//! the other direction of the build interactions (helper → targets).

use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::stats::InstanceStats;
use crate::types::{IndexId, PlanId, QueryId};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current matrix-file format version.
pub const MATRIX_FORMAT_VERSION: u32 = 1;

/// A versioned, serializable envelope around a [`ProblemInstance`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixFile {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Free-form provenance note (which advisor / generator produced it).
    pub generator: String,
    /// The problem instance itself.
    pub instance: ProblemInstance,
}

impl MatrixFile {
    /// Wraps an instance with the current format version.
    pub fn new(instance: ProblemInstance, generator: impl Into<String>) -> Self {
        Self {
            version: MATRIX_FORMAT_VERSION,
            generator: generator.into(),
            instance,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses from JSON, validating the instance and the format version.
    pub fn from_json(json: &str) -> Result<Self> {
        let file: MatrixFile = serde_json::from_str(json)?;
        if file.version > MATRIX_FORMAT_VERSION {
            return Err(CoreError::Format(format!(
                "matrix file version {} is newer than supported version {}",
                file.version, MATRIX_FORMAT_VERSION
            )));
        }
        Ok(file)
    }

    /// Writes the JSON representation to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads and parses a matrix file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Renders a short human-readable summary (Table-4-style statistics plus
    /// per-index costs), useful for logging and debugging.
    pub fn summary(&self) -> String {
        let stats = InstanceStats::of(&self.instance);
        let mut out = String::new();
        out.push_str(&format!(
            "matrix file v{} generated by {}\n",
            self.version, self.generator
        ));
        out.push_str(&InstanceStats::table_header());
        out.push('\n');
        out.push_str(&stats.table_row());
        out.push('\n');
        out.push_str(&format!(
            "baseline runtime {:.2}s, total base build cost {:.2}s\n",
            self.instance.baseline_runtime(),
            self.instance.total_base_build_cost()
        ));
        out
    }
}

/// Struct-of-arrays (CSR) view of a [`ProblemInstance`] for hot loops.
///
/// All adjacency lists are flattened into offset + payload array pairs:
/// the neighbours of entity `x` live in `payload[off[x] .. off[x + 1]]`.
/// Ids are narrowed to `u32` (an instance with 2^32 indexes is far beyond
/// the model's scale) so twice as many fit per cache line.
///
/// The view borrows nothing: it is a self-contained snapshot, cheap to
/// build once per search and immutable afterwards.
#[derive(Debug, Clone)]
pub(crate) struct SoaView {
    num_queries: usize,
    // index → plans using it
    plans_by_index_off: Vec<u32>,
    plans_by_index: Vec<u32>,
    // query → its plans
    plans_by_query_off: Vec<u32>,
    plans_by_query: Vec<u32>,
    // plan → member indexes
    plan_members_off: Vec<u32>,
    plan_members: Vec<u32>,
    // per-plan scalars
    plan_speedup: Vec<f64>,
    plan_query: Vec<u32>,
    // target index → (helper index, build-cost saving)
    helpers_off: Vec<u32>,
    helper_ids: Vec<u32>,
    helper_savings: Vec<f64>,
    // helper index → (target index, build-cost saving)
    targets_off: Vec<u32>,
    target_ids: Vec<u32>,
    target_savings: Vec<f64>,
    // per-index scalars
    creation_cost: Vec<f64>,
}

impl SoaView {
    /// Flattens `instance` into the SoA layout.
    pub(crate) fn new(instance: &ProblemInstance) -> Self {
        let n = instance.num_indexes();
        let nq = instance.num_queries();
        let np = instance.num_plans();

        let mut plans_by_index_off = Vec::with_capacity(n + 1);
        let mut plans_by_index = Vec::new();
        let mut helpers_off = Vec::with_capacity(n + 1);
        let mut helper_ids = Vec::new();
        let mut helper_savings = Vec::new();
        let mut targets_off = Vec::with_capacity(n + 1);
        let mut target_ids = Vec::new();
        let mut target_savings = Vec::new();
        let mut creation_cost = Vec::with_capacity(n);
        plans_by_index_off.push(0);
        helpers_off.push(0);
        targets_off.push(0);
        for i in 0..n {
            let id = IndexId::new(i);
            plans_by_index.extend(
                instance
                    .plans_using_index(id)
                    .iter()
                    .map(|p| p.raw() as u32),
            );
            plans_by_index_off.push(plans_by_index.len() as u32);
            for &(helper, saving) in instance.helpers_of(id) {
                helper_ids.push(helper.raw() as u32);
                helper_savings.push(saving);
            }
            helpers_off.push(helper_ids.len() as u32);
            // One entry per target (the best saving of repeated
            // interactions), so a walk over the targets meets each once.
            let start = target_ids.len();
            for &(target, saving) in instance.helps(id) {
                let target = target.raw() as u32;
                match target_ids[start..].iter().position(|&t| t == target) {
                    Some(k) => {
                        let best = &mut target_savings[start + k];
                        *best = f64::max(*best, saving);
                    }
                    None => {
                        target_ids.push(target);
                        target_savings.push(saving);
                    }
                }
            }
            targets_off.push(target_ids.len() as u32);
            creation_cost.push(instance.creation_cost(id));
        }

        let mut plans_by_query_off = Vec::with_capacity(nq + 1);
        let mut plans_by_query = Vec::new();
        plans_by_query_off.push(0);
        for q in 0..nq {
            plans_by_query.extend(
                instance
                    .plans_of_query(QueryId::new(q))
                    .iter()
                    .map(|p| p.raw() as u32),
            );
            plans_by_query_off.push(plans_by_query.len() as u32);
        }

        let mut plan_members_off = Vec::with_capacity(np + 1);
        let mut plan_members = Vec::new();
        let mut plan_speedup = Vec::with_capacity(np);
        let mut plan_query = Vec::with_capacity(np);
        plan_members_off.push(0);
        for p in 0..np {
            let pid = PlanId::new(p);
            let plan = instance.plan(pid);
            plan_members.extend(plan.indexes.iter().map(|i| i.raw() as u32));
            plan_members_off.push(plan_members.len() as u32);
            plan_speedup.push(instance.plan_speedup(pid));
            plan_query.push(plan.query.raw() as u32);
        }

        Self {
            num_queries: nq,
            plans_by_index_off,
            plans_by_index,
            plans_by_query_off,
            plans_by_query,
            plan_members_off,
            plan_members,
            plan_speedup,
            plan_query,
            helpers_off,
            helper_ids,
            helper_savings,
            targets_off,
            target_ids,
            target_savings,
            creation_cost,
        }
    }

    /// Number of queries.
    #[inline]
    pub(crate) fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Number of plans.
    #[inline]
    pub(crate) fn num_plans(&self) -> usize {
        self.plan_speedup.len()
    }

    /// Plans containing index `i`.
    #[inline]
    pub(crate) fn plans_using(&self, i: usize) -> &[u32] {
        &self.plans_by_index
            [self.plans_by_index_off[i] as usize..self.plans_by_index_off[i + 1] as usize]
    }

    /// Plans of query `q`.
    #[inline]
    pub(crate) fn plans_of_query(&self, q: usize) -> &[u32] {
        &self.plans_by_query[self.query_slots(q)]
    }

    /// The slots of query `q`'s plans in the flat query → plans array: a
    /// per-query slice of any array of `num_plans()` entries.
    #[inline]
    pub(crate) fn query_slots(&self, q: usize) -> std::ops::Range<usize> {
        self.plans_by_query_off[q] as usize..self.plans_by_query_off[q + 1] as usize
    }

    /// Member indexes of plan `p`.
    #[inline]
    pub(crate) fn members(&self, p: usize) -> &[u32] {
        &self.plan_members[self.plan_members_off[p] as usize..self.plan_members_off[p + 1] as usize]
    }

    /// Weighted speed-up of plan `p` (plan speed-up × query weight).
    #[inline]
    pub(crate) fn speedup(&self, p: usize) -> f64 {
        self.plan_speedup[p]
    }

    /// Query of plan `p`.
    #[inline]
    pub(crate) fn query_of(&self, p: usize) -> usize {
        self.plan_query[p] as usize
    }

    /// Build-interaction helpers of target index `i`: parallel slices of
    /// helper ids and build-cost savings.
    #[inline]
    pub(crate) fn helpers(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.helpers_off[i] as usize;
        let hi = self.helpers_off[i + 1] as usize;
        (&self.helper_ids[lo..hi], &self.helper_savings[lo..hi])
    }

    /// Build-interaction targets of helper index `i`: parallel slices of
    /// distinct target ids and their best build-cost savings.
    #[inline]
    pub(crate) fn targets(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.targets_off[i] as usize;
        let hi = self.targets_off[i + 1] as usize;
        (&self.target_ids[lo..hi], &self.target_savings[lo..hi])
    }

    /// Base creation cost of index `i`.
    #[inline]
    pub(crate) fn creation_cost(&self, i: usize) -> f64 {
        self.creation_cost[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("io");
        let i0 = b.add_index(3.0);
        let i1 = b.add_index(5.0);
        let q = b.add_query(40.0);
        b.add_plan(q, vec![i0], 10.0);
        b.add_plan(q, vec![i0, i1], 25.0);
        b.add_build_interaction(i0, i1, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn json_round_trip_preserves_model() {
        let file = MatrixFile::new(instance(), "unit-test");
        let json = file.to_json().unwrap();
        let back = MatrixFile::from_json(&json).unwrap();
        assert_eq!(back.version, MATRIX_FORMAT_VERSION);
        assert_eq!(back.generator, "unit-test");
        assert_eq!(back.instance.num_plans(), 2);
        assert_eq!(back.instance.baseline_runtime(), 40.0);
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut file = MatrixFile::new(instance(), "unit-test");
        file.version = MATRIX_FORMAT_VERSION + 1;
        let json = serde_json::to_string(&file).unwrap();
        assert!(matches!(
            MatrixFile::from_json(&json),
            Err(CoreError::Format(_))
        ));
    }

    #[test]
    fn overflowing_json_number_is_rejected() {
        // `1e999` parses to infinity; the builder behind the JSON path must
        // refuse it instead of loading an infinite creation cost.
        let json = MatrixFile::new(instance(), "unit-test").to_json().unwrap();
        let overflowed = json.replacen("\"creation_cost\": 3", "\"creation_cost\": 1e999", 1);
        assert_ne!(overflowed, json);
        let err = MatrixFile::from_json(&overflowed).unwrap_err();
        assert!(err.to_string().contains("must be finite"), "{err}");
    }

    #[test]
    fn invalid_instance_fails_deserialization() {
        // Hand-craft JSON whose plan references a missing index.
        let json = r#"{
            "version": 1,
            "generator": "bad",
            "instance": {
                "name": "bad",
                "indexes": [{"id":0,"name":"a","table":"","key_columns":[],"include_columns":[],"clustered":false,"size_pages":0.0,"creation_cost":1.0}],
                "queries": [{"id":0,"name":"q","text":"","weight":1.0,"original_runtime":5.0}],
                "plans": [{"id":0,"query":0,"indexes":[7],"speedup":1.0}],
                "build_interactions": [],
                "precedences": []
            }
        }"#;
        assert!(MatrixFile::from_json(json).is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("idd-core-matrix-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("instance.json");
        let file = MatrixFile::new(instance(), "unit-test");
        file.save(&path).unwrap();
        let back = MatrixFile::load(&path).unwrap();
        assert_eq!(back.instance.num_indexes(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_contains_stats() {
        let file = MatrixFile::new(instance(), "unit-test");
        let s = file.summary();
        assert!(s.contains("unit-test"));
        assert!(s.contains("baseline runtime"));
        assert!(s.contains("io"));
    }

    #[test]
    fn soa_view_mirrors_instance_adjacency() {
        let inst = instance();
        let soa = SoaView::new(&inst);
        assert_eq!(soa.num_queries(), inst.num_queries());
        assert_eq!(soa.num_plans(), inst.num_plans());
        for i in 0..inst.num_indexes() {
            let id = IndexId::new(i);
            let expect: Vec<u32> = inst
                .plans_using_index(id)
                .iter()
                .map(|p| p.raw() as u32)
                .collect();
            assert_eq!(soa.plans_using(i), expect.as_slice());
            assert_eq!(
                soa.creation_cost(i).to_bits(),
                inst.creation_cost(id).to_bits()
            );
            let (helpers, savings) = soa.helpers(i);
            let expect: Vec<(u32, f64)> = inst
                .helpers_of(id)
                .iter()
                .map(|&(h, s)| (h.raw() as u32, s))
                .collect();
            assert_eq!(helpers.len(), expect.len());
            for (k, &(h, s)) in expect.iter().enumerate() {
                assert_eq!(helpers[k], h);
                assert_eq!(savings[k].to_bits(), s.to_bits());
            }
        }
        for q in 0..inst.num_queries() {
            let expect: Vec<u32> = inst
                .plans_of_query(QueryId::new(q))
                .iter()
                .map(|p| p.raw() as u32)
                .collect();
            assert_eq!(soa.plans_of_query(q), expect.as_slice());
        }
        for p in 0..inst.num_plans() {
            let pid = PlanId::new(p);
            let plan = inst.plan(pid);
            let expect: Vec<u32> = plan.indexes.iter().map(|i| i.raw() as u32).collect();
            assert_eq!(soa.members(p), expect.as_slice());
            assert_eq!(soa.query_of(p), plan.query.raw());
            assert_eq!(soa.speedup(p).to_bits(), inst.plan_speedup(pid).to_bits());
        }
    }

    #[test]
    fn soa_view_handles_empty_adjacency() {
        // An index no plan uses and with no helpers yields empty slices.
        let mut b = ProblemInstance::builder("sparse");
        let i0 = b.add_index(3.0);
        let _unused = b.add_index(9.0);
        let q = b.add_query(20.0);
        b.add_plan(q, vec![i0], 5.0);
        let inst = b.build().unwrap();
        let soa = SoaView::new(&inst);
        assert!(soa.plans_using(1).is_empty());
        assert!(soa.helpers(1).0.is_empty());
        assert_eq!(soa.plans_using(0), &[0]);
    }
}
