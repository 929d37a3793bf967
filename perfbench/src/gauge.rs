//! A host-speed gauge owned by the benchmark.
//!
//! The reference host is a VM on a shared machine: the speed of identical,
//! single-threaded work wanders by up to 2x over seconds to minutes as its
//! neighbours come and go, and a run's mean wall time follows. The gauge is
//! a fixed piece of work of the library's kind — greedy index ordering over
//! a synthetic instance, scanning query plans for the cheapest one whose
//! indexes are all built — written here, so that no change to the library
//! moves it. A `--trace 0` run times gauge passes between its calls, in
//! proportion to the calls' time, and scales its end-to-end times by
//! [`REFERENCE_PASS_S`] over the median pass: it reports seconds at the
//! reference host's usual speed. A program change moves the calls and not
//! the gauge, so it shows in full; a slow or fast spell of the host moves
//! both and cancels.

use crate::{median, timed};

/// The median gauge pass on the reference host (2 vCPUs of a shared Xeon
/// machine), measured over fifteen runs when the benchmark was defined: the
/// speed the end-to-end times are scaled to. It is a fixed definition, not
/// a measurement to refresh; changing it rescales every recorded time.
pub const REFERENCE_PASS_S: f64 = 0.030;

/// Indexes, queries and plans per query of the gauge's instance.
const INDEXES: usize = 160;
const QUERIES: usize = 120;
const PLANS: usize = 8;

/// One query plan: the indexes it needs and its cost once they are built.
struct Plan {
    needs: Vec<usize>,
    cost: f64,
}

/// The gauge: its fixed instance and the result every pass must repeat.
pub struct Gauge {
    base: Vec<f64>,
    plans: Vec<Vec<Plan>>,
    expected: u64,
    samples: Vec<f64>,
    failed: u64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Builds the fixed instance and runs one untimed pass for the result
    /// the timed ones must repeat.
    pub fn new() -> Self {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut base = Vec::with_capacity(QUERIES);
        let mut plans = Vec::with_capacity(QUERIES);
        for _ in 0..QUERIES {
            let cost = 100.0 + (next() % 1000) as f64;
            base.push(cost);
            plans.push(
                (0..PLANS)
                    .map(|_| Plan {
                        needs: (0..1 + next() % 3)
                            .map(|_| (next() % INDEXES as u64) as usize)
                            .collect(),
                        cost: cost * (0.1 + (next() % 800) as f64 / 1000.0),
                    })
                    .collect(),
            );
        }
        let mut gauge = Self {
            base,
            plans,
            expected: 0,
            samples: Vec::new(),
            failed: 0,
        };
        gauge.expected = gauge.pass().to_bits();
        gauge
    }

    /// One greedy ordering of the instance: returns its area.
    fn pass(&self) -> f64 {
        let mut built = vec![false; INDEXES];
        let mut current = self.base.clone();
        let cheapest = |built: &[bool], query: usize, current: f64| {
            self.plans[query]
                .iter()
                .filter(|plan| plan.cost < current && plan.needs.iter().all(|&i| built[i]))
                .fold(current, |best, plan| best.min(plan.cost))
        };
        let mut area = 0.0;
        for _ in 0..INDEXES {
            let mut best = (f64::NEG_INFINITY, 0);
            for index in 0..INDEXES {
                if built[index] {
                    continue;
                }
                built[index] = true;
                let gain: f64 = (0..QUERIES)
                    .map(|q| current[q] - cheapest(&built, q, current[q]))
                    .sum();
                built[index] = false;
                if gain > best.0 {
                    best = (gain, index);
                }
            }
            built[best.1] = true;
            for (q, cost) in current.iter_mut().enumerate() {
                *cost = cheapest(&built, q, *cost);
            }
            area += current.iter().sum::<f64>();
        }
        area
    }

    /// Times passes for at least `seconds` (at least one pass), checking
    /// that each repeats the first pass's result.
    pub fn run_for(&mut self, seconds: f64) {
        let mut spent = 0.0;
        while spent == 0.0 || spent < seconds {
            let (area, pass_s) = timed(|| self.pass());
            if area.to_bits() != self.expected {
                self.failed += 1;
                eprintln!("perfbench: gauge pass gave {area:?}");
            }
            self.samples.push(pass_s);
            spent += pass_s;
        }
    }

    /// The median timed pass.
    pub fn median_pass_s(&self) -> f64 {
        median(&self.samples)
    }

    /// `REFERENCE_PASS_S` over the median timed pass: the factor that
    /// turns this run's seconds into reference-host seconds.
    pub fn scale(&self) -> f64 {
        REFERENCE_PASS_S / self.median_pass_s()
    }

    /// Timed passes so far.
    pub fn passes(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Timed passes whose result differed from the first pass's.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}
