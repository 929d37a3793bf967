//! The coupling graph: which indexes must (or should) be solved together.
//!
//! Nodes are indexes; edges accumulate every mechanism through which two
//! indexes' deployment positions influence each other's contribution to the
//! objective:
//!
//! * **plan co-occurrence** — two indexes in the same plan realize that
//!   plan's speed-up only together (weight += the plan's weighted speed-up);
//! * **query competition** — two indexes serving the same query through
//!   different plans fight over the same runtime (weight += the smaller of
//!   the two sides' best speed-ups for that query);
//! * **build interaction** — one build cheapens the other (weight += the
//!   saving);
//! * **hard precedence** — an uncuttable edge: splitting it could make the
//!   recombined order infeasible;
//! * **alliance membership** (from the Section-5 analysis) — allied indexes
//!   are deployed consecutively in some optimal order, so they stay in one
//!   shard regardless of the cut threshold.
//!
//! [`CouplingGraph::partition`] cuts every *finite* edge whose accumulated
//! weight is below the caller's threshold and returns the connected
//! components of what remains. A threshold of `0.0` cuts nothing: the
//! components are then exactly the instance's independent sub-problems and
//! decomposing along them is lossless.

use crate::properties::AnalysisReport;
use idd_core::{IndexId, ProblemInstance};
use std::collections::BTreeMap;

/// One accumulated coupling edge (reported for cut diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingEdge {
    /// Smaller endpoint.
    pub a: IndexId,
    /// Larger endpoint.
    pub b: IndexId,
    /// Accumulated finite coupling weight.
    pub weight: f64,
    /// `true` for precedence / alliance edges, which no threshold cuts.
    pub hard: bool,
}

/// The symmetric weighted coupling graph of one instance.
#[derive(Debug, Clone)]
pub struct CouplingGraph {
    num_indexes: usize,
    edges: BTreeMap<(usize, usize), (f64, bool)>,
}

/// The result of cutting the graph at a threshold.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Connected components after the cut, each sorted ascending, the list
    /// itself sorted by smallest member — a canonical, deterministic order.
    pub shards: Vec<Vec<IndexId>>,
    /// Finite edges removed by the threshold.
    pub cut_edges: Vec<CouplingEdge>,
    /// Total weight of the removed edges (`0.0` means the partition is
    /// lossless: no interaction crosses shard boundaries).
    pub cut_weight: f64,
}

impl Partition {
    /// `true` when no finite coupling was severed — the shards are exactly
    /// independent and solving them separately loses nothing.
    pub fn is_exact(&self) -> bool {
        self.cut_edges.is_empty()
    }
}

impl CouplingGraph {
    /// Builds the graph from the instance plus the property analysis (only
    /// the analysis' alliance groups are used; derived ordering pairs such
    /// as disjoint-density constraints are deliberately *not* edges — they
    /// hold across independent sub-problems by construction and would fuse
    /// everything into one shard).
    pub fn build(instance: &ProblemInstance, analysis: &AnalysisReport) -> Self {
        let mut graph = Self {
            num_indexes: instance.num_indexes(),
            edges: BTreeMap::new(),
        };

        // Plan co-occurrence.
        for p in instance.plan_ids() {
            let plan = instance.plan(p);
            if plan.width() < 2 {
                continue;
            }
            let w = instance.plan_speedup(p);
            for (i, &a) in plan.indexes.iter().enumerate() {
                for &b in plan.indexes.iter().skip(i + 1) {
                    graph.add_soft(a, b, w);
                }
            }
        }

        // Query competition: every index serving the query is coupled to
        // every other, by the smaller of the two sides' best speed-ups —
        // that is the most runtime one side's placement can steal from the
        // other's marginal benefit.
        for q in instance.query_ids() {
            let mut best: BTreeMap<usize, f64> = BTreeMap::new();
            for &p in instance.plans_of_query(q) {
                let w = instance.plan_speedup(p);
                for &i in &instance.plan(p).indexes {
                    let e = best.entry(i.raw()).or_insert(0.0);
                    if w > *e {
                        *e = w;
                    }
                }
            }
            let members: Vec<(usize, f64)> = best.into_iter().collect();
            for (i, &(a, wa)) in members.iter().enumerate() {
                for &(b, wb) in members.iter().skip(i + 1) {
                    graph.add_soft(IndexId::new(a), IndexId::new(b), wa.min(wb));
                }
            }
        }

        // Build interactions.
        for bi in instance.build_interactions() {
            graph.add_soft(bi.target, bi.helper, bi.speedup);
        }

        // Hard precedences.
        for pr in instance.precedences() {
            graph.add_hard(pr.before, pr.after);
        }

        // Alliances: keep each group connected with hard edges along a
        // spanning path.
        for group in analysis.constraints.alliances() {
            for pair in group.windows(2) {
                graph.add_hard(pair[0], pair[1]);
            }
        }

        graph
    }

    fn key(a: IndexId, b: IndexId) -> (usize, usize) {
        let (x, y) = (a.raw(), b.raw());
        (x.min(y), x.max(y))
    }

    fn add_soft(&mut self, a: IndexId, b: IndexId, weight: f64) {
        if a == b {
            return;
        }
        let entry = self.edges.entry(Self::key(a, b)).or_insert((0.0, false));
        entry.0 += weight;
    }

    fn add_hard(&mut self, a: IndexId, b: IndexId) {
        if a == b {
            return;
        }
        let entry = self.edges.entry(Self::key(a, b)).or_insert((0.0, false));
        entry.1 = true;
    }

    /// Cuts every soft edge with `weight < cut_threshold` and returns the
    /// connected components of the remainder. `cut_threshold <= 0.0` cuts
    /// nothing (weights are non-negative), so the partition is exact.
    pub fn partition(&self, cut_threshold: f64) -> Partition {
        let mut dsu = Dsu::new(self.num_indexes);
        let mut cut_edges = Vec::new();
        let mut cut_weight = 0.0;
        for (&(a, b), &(weight, hard)) in &self.edges {
            if hard || weight >= cut_threshold {
                dsu.union(a, b);
            } else {
                cut_edges.push(CouplingEdge {
                    a: IndexId::new(a),
                    b: IndexId::new(b),
                    weight,
                    hard: false,
                });
                cut_weight += weight;
            }
        }

        // Canonical components: grouped under their smallest member, in
        // ascending order of that member.
        let mut by_root: BTreeMap<usize, Vec<IndexId>> = BTreeMap::new();
        for i in 0..self.num_indexes {
            by_root
                .entry(dsu.find(i))
                .or_default()
                .push(IndexId::new(i));
        }
        let mut shards: Vec<Vec<IndexId>> = by_root.into_values().collect();
        shards.sort_by_key(|s| s[0]);

        Partition {
            shards,
            cut_edges,
            cut_weight,
        }
    }
}

/// Minimal union-find with path halving.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps components canonically labelled.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{analyze, AnalysisOptions};

    /// Two fully independent 2-index blocks plus one free-floating index.
    fn blocky() -> ProblemInstance {
        let mut b = ProblemInstance::builder("blocky");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(3.0);
        let i2 = b.add_index(4.0);
        let i3 = b.add_index(5.0);
        let _lone = b.add_index(1.0);
        let q0 = b.add_query(60.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i0, i1], 25.0);
        let q1 = b.add_query(50.0);
        b.add_plan(q1, vec![i2], 12.0);
        b.add_plan(q1, vec![i3], 15.0);
        b.build().unwrap()
    }

    #[test]
    fn independent_blocks_become_separate_shards() {
        let inst = blocky();
        let analysis = analyze(&inst, AnalysisOptions::all());
        let graph = CouplingGraph::build(&inst, &analysis);
        let partition = graph.partition(0.0);
        assert!(partition.is_exact());
        assert_eq!(partition.shards.len(), 3);
        let sizes: Vec<usize> = partition.shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn threshold_cuts_weak_edges_only() {
        let inst = blocky();
        let analysis = analyze(&inst, AnalysisOptions::all());
        let graph = CouplingGraph::build(&inst, &analysis);
        // q0's co-occurrence + competition coupling of (i0,i1) is strong
        // (25 + 10); q1's competition coupling of (i2,i3) is min(12,15) =
        // 12. A threshold between them splits only the second block.
        let partition = graph.partition(20.0);
        assert!(!partition.is_exact());
        assert_eq!(partition.shards.len(), 4);
        assert_eq!(partition.cut_edges.len(), 1);
        assert_eq!(partition.cut_edges[0].weight, 12.0);
    }

    #[test]
    fn default_analysis_partitions_like_the_full_analysis() {
        // `i0, i2` and `i3, i5` are alliances.
        let inst = crate::properties::tests::alliance_instance();
        let default = crate::decompose::ShardedConfig::default().analysis;
        assert_eq!(default, AnalysisOptions::drill_down("A"));
        let graph = |options| CouplingGraph::build(&inst, &analyze(&inst, options));
        let (alliances_only, full) = (graph(default), graph(AnalysisOptions::all()));
        let together = |partition: &Partition, a: usize, b: usize| {
            partition
                .shards
                .iter()
                .any(|s| s.contains(&IndexId::new(a)) && s.contains(&IndexId::new(b)))
        };
        for threshold in [0.0, f64::INFINITY] {
            let ours = alliances_only.partition(threshold);
            let reference = full.partition(threshold);
            assert_eq!(ours.shards, reference.shards, "threshold {threshold}");
            assert_eq!(ours.cut_edges, reference.cut_edges);
            assert_eq!(ours.cut_weight.to_bits(), reference.cut_weight.to_bits());
            assert!(together(&ours, 0, 2) && together(&ours, 3, 5));
        }
        // Without the alliance edges, cutting every soft edge splits both
        // pairs: the partitions above rest on the alliance edges.
        let unallied = graph(AnalysisOptions::none()).partition(f64::INFINITY);
        assert!(!together(&unallied, 0, 2) && !together(&unallied, 3, 5));
    }

    #[test]
    fn precedence_edges_survive_any_threshold() {
        let mut b = ProblemInstance::builder("prec");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(3.0);
        let q0 = b.add_query(30.0);
        b.add_plan(q0, vec![i0], 5.0);
        let q1 = b.add_query(30.0);
        b.add_plan(q1, vec![i1], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let analysis = analyze(&inst, AnalysisOptions::all());
        let graph = CouplingGraph::build(&inst, &analysis);
        let partition = graph.partition(f64::INFINITY);
        assert_eq!(partition.shards.len(), 1, "hard edge must not be cut");
        assert!(partition.cut_edges.is_empty());
    }
}
