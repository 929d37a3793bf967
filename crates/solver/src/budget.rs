//! Time and node budgets shared by the search algorithms.

use crate::solver::CancelToken;
use std::time::{Duration, Instant};

/// A search budget: wall-clock limit and/or node (iteration) limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBudget {
    /// Maximum wall-clock time; `None` means unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes / iterations; `None` means unlimited.
    pub node_limit: Option<u64>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            time_limit: Some(Duration::from_secs(10)),
            node_limit: None,
        }
    }
}

/// `secs` as a time limit, for every `f64`: +∞ (or a limit too large for a
/// [`Duration`]) is no limit, NaN or a negative value a zero limit.
fn time_limit(secs: f64) -> Option<Duration> {
    if secs.is_nan() || secs <= 0.0 {
        Some(Duration::ZERO)
    } else {
        Duration::try_from_secs_f64(secs).ok()
    }
}

impl SearchBudget {
    /// Budget limited only by wall-clock seconds (see [`SearchBudget::bounded`]
    /// for how non-finite and negative values are read).
    pub fn seconds(secs: f64) -> Self {
        Self {
            time_limit: time_limit(secs),
            node_limit: None,
        }
    }

    /// Budget limited only by node count.
    pub fn nodes(limit: u64) -> Self {
        Self {
            time_limit: None,
            node_limit: Some(limit),
        }
    }

    /// Budget limited by both time and nodes. Total over `secs`: +∞ means
    /// no time limit, and NaN or a negative value a zero one.
    pub fn bounded(secs: f64, nodes: u64) -> Self {
        Self {
            time_limit: time_limit(secs),
            node_limit: Some(nodes),
        }
    }

    /// Unlimited budget (only sensible for tiny instances in tests).
    pub fn unlimited() -> Self {
        Self {
            time_limit: None,
            node_limit: None,
        }
    }

    /// Starts a stopwatch for this budget.
    pub fn start(&self) -> BudgetClock {
        BudgetClock {
            budget: *self,
            started: Instant::now(),
            nodes: 0,
            cancel: None,
        }
    }

    /// Starts a stopwatch that additionally treats a cooperative
    /// cancellation request as budget exhaustion. Every search loop that
    /// polls [`BudgetClock::exhausted`] thereby becomes cancellable without
    /// further changes.
    pub fn start_cancellable(&self, cancel: &CancelToken) -> BudgetClock {
        BudgetClock {
            budget: *self,
            started: Instant::now(),
            nodes: 0,
            cancel: Some(cancel.clone()),
        }
    }
}

/// A running stopwatch against a [`SearchBudget`].
#[derive(Debug, Clone)]
pub struct BudgetClock {
    budget: SearchBudget,
    started: Instant,
    nodes: u64,
    cancel: Option<CancelToken>,
}

impl BudgetClock {
    /// Seconds elapsed since the clock started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Counts one explored node / iteration.
    pub fn count_node(&mut self) {
        self.nodes += 1;
    }

    /// Total nodes counted so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// `true` when cancellation was requested on the attached token (if
    /// any). Exposed so solvers can distinguish "cancelled by a peer" from
    /// "ran out of budget" when reporting.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// `true` when either limit has been exceeded or cancellation was
    /// requested.
    pub fn exhausted(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        if let Some(limit) = self.budget.node_limit {
            if self.nodes >= limit {
                return true;
            }
        }
        if let Some(limit) = self.budget.time_limit {
            if self.started.elapsed() >= limit {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_limit_is_enforced() {
        let mut clock = SearchBudget::nodes(3).start();
        assert!(!clock.exhausted());
        for _ in 0..3 {
            clock.count_node();
        }
        assert!(clock.exhausted());
        assert_eq!(clock.nodes(), 3);
    }

    #[test]
    fn unlimited_budget_never_exhausts_by_nodes() {
        let mut clock = SearchBudget::unlimited().start();
        for _ in 0..1_000_000 {
            clock.count_node();
        }
        assert!(!clock.exhausted());
    }

    #[test]
    fn time_limit_is_enforced() {
        let clock = SearchBudget::seconds(0.0).start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.exhausted());
        assert!(clock.elapsed_seconds() > 0.0);
    }

    #[test]
    fn cancellation_exhausts_the_clock() {
        use crate::solver::CancelToken;
        let token = CancelToken::new();
        let clock = SearchBudget::unlimited().start_cancellable(&token);
        assert!(!clock.exhausted());
        token.cancel();
        assert!(clock.is_cancelled());
        assert!(clock.exhausted());
        // A plain clock is never cancelled.
        assert!(!SearchBudget::unlimited().start().is_cancelled());
    }

    #[test]
    fn non_finite_and_negative_seconds_never_panic() {
        assert_eq!(SearchBudget::seconds(f64::INFINITY).time_limit, None);
        assert_eq!(SearchBudget::seconds(1e300).time_limit, None);
        for secs in [f64::NAN, -1.0, f64::NEG_INFINITY, -0.0, 0.0] {
            assert_eq!(
                SearchBudget::seconds(secs).time_limit,
                Some(Duration::ZERO),
                "{secs}"
            );
            assert!(SearchBudget::seconds(secs).start().exhausted(), "{secs}");
        }
        let unlimited = SearchBudget::bounded(f64::INFINITY, 7);
        assert_eq!(
            (unlimited.time_limit, unlimited.node_limit),
            (None, Some(7))
        );
        assert_eq!(
            SearchBudget::bounded(f64::NAN, 7).time_limit,
            Some(Duration::ZERO)
        );
        assert_eq!(
            SearchBudget::seconds(2.5).time_limit,
            Some(Duration::from_millis(2500))
        );
    }

    #[test]
    fn constructors_set_fields() {
        let b = SearchBudget::bounded(1.5, 10);
        assert_eq!(b.node_limit, Some(10));
        assert!(b.time_limit.unwrap().as_secs_f64() > 1.4);
        assert!(SearchBudget::default().time_limit.is_some());
    }
}
