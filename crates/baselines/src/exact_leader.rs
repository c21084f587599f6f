//! Exact population counting with an initial leader (Michail \[32\]-style).
//!
//! The leader marks unmarked agents one meeting at a time, keeping an exact
//! count of the marks. To *terminate* — know w.h.p. that everyone is marked —
//! the leader tracks its run of consecutive already-marked encounters: once
//! the run exceeds `c · count · ln(count + 2)`, an unmarked agent would have
//! been met w.h.p. if one existed (coupon-collector), so the leader declares
//! the count final.
//!
//! This protocol is **uniform** (no `n` anywhere) yet **terminating** —
//! possible only because the initial configuration has a leader and is
//! therefore not dense. It is the positive complement of Theorem 4.1, and
//! runs in `O(n log n)` parallel time with `O(n)` leader states and 2
//! non-leader states, matching the paper's description.

use pp_engine::rng::SimRng;
use pp_engine::{Protocol, Simulation};

/// Per-agent state for leader-driven exact counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CountState {
    /// Not yet counted by the leader.
    Unmarked,
    /// Counted.
    Marked,
    /// The leader: current count, current run of marked encounters, and the
    /// terminated flag with final count.
    Leader {
        /// Agents counted so far (including the leader itself).
        count: u64,
        /// Consecutive already-marked meetings since the last fresh mark.
        run: u64,
        /// Set when the leader has declared the count final.
        done: bool,
    },
}

/// The counting protocol with its confidence multiplier `c`.
#[derive(Debug, Clone, Copy)]
pub struct ExactLeaderCount {
    /// Run-length multiplier (larger = more confidence, more time).
    pub confidence: f64,
}

impl Default for ExactLeaderCount {
    fn default() -> Self {
        Self { confidence: 8.0 }
    }
}

impl ExactLeaderCount {
    fn run_threshold(&self, count: u64) -> u64 {
        (self.confidence * count as f64 * ((count + 2) as f64).ln()).ceil() as u64
    }
}

impl Protocol for ExactLeaderCount {
    type State = CountState;

    fn initial_state(&self) -> CountState {
        CountState::Unmarked
    }

    fn interact(&self, rec: &mut CountState, sen: &mut CountState, _rng: &mut SimRng) {
        use CountState::*;
        // Identify a leader in the pair, if any.
        let (leader, other) = match (&mut *rec, &mut *sen) {
            (Leader { .. }, _) => (rec, sen),
            (_, Leader { .. }) => (sen, rec),
            _ => return,
        };
        if let Leader { count, run, done } = leader {
            if *done {
                return;
            }
            match other {
                Unmarked => {
                    *other = Marked;
                    *count += 1;
                    *run = 0;
                }
                Marked => {
                    *run += 1;
                    if *run >= self.run_threshold(*count) {
                        *done = true;
                    }
                }
                Leader { .. } => unreachable!("single leader by construction"),
            }
        }
    }
}

/// Outcome of a counting run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CountOutcome {
    /// The leader's final count (exact when correct).
    pub count: u64,
    /// Parallel time at termination.
    pub time: f64,
    /// Whether the leader terminated within the budget.
    pub terminated: bool,
}

/// Runs exact counting on `n` agents (agent 0 is the leader).
pub fn run_exact_count(n: usize, seed: u64, max_time: f64) -> CountOutcome {
    let (out, sim) = Simulation::builder(ExactLeaderCount::default())
        .size(n as u64)
        .seed(seed)
        .init_planted([(
            CountState::Leader {
                count: 1,
                run: 0,
                done: false,
            },
            1,
        )])
        .max_time(max_time)
        .until(|view: &[(CountState, u64)]| {
            view.iter()
                .any(|(s, _)| matches!(s, CountState::Leader { done: true, .. }))
        })
        .run();
    let count = sim
        .view()
        .iter()
        .find_map(|(s, _)| match s {
            CountState::Leader { count, .. } => Some(*count),
            _ => None,
        })
        .unwrap_or(0);
    CountOutcome {
        count,
        time: out.time,
        terminated: out.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{AgentSim, Engine as _};

    #[test]
    fn counts_exactly_for_several_sizes() {
        for n in [50usize, 128, 300] {
            let out = run_exact_count(n, n as u64, 1e7);
            assert!(out.terminated, "n={n} never terminated");
            assert_eq!(out.count, n as u64, "n={n} counted {}", out.count);
        }
    }

    #[test]
    fn repeated_trials_rarely_undercount() {
        let n = 100;
        let trials = 10;
        let exact = (0..trials)
            .filter(|&s| run_exact_count(n, 1000 + s, 1e7).count == n as u64)
            .count() as u64;
        assert!(exact >= trials - 1, "only {exact}/{trials} exact");
    }

    #[test]
    fn time_superlinear_in_n() {
        // O(n log n): time at n=400 should be well over 4x time at n=100.
        let t100: f64 = (0..4)
            .map(|s| run_exact_count(100, 70 + s, 1e7).time)
            .sum::<f64>()
            / 4.0;
        let t400: f64 = (0..4)
            .map(|s| run_exact_count(400, 80 + s, 1e7).time)
            .sum::<f64>()
            / 4.0;
        assert!(t400 > 3.0 * t100, "t400 {t400} vs t100 {t100}");
    }

    #[test]
    fn done_leader_freezes() {
        let p = ExactLeaderCount::default();
        let mut leader = CountState::Leader {
            count: 5,
            run: 0,
            done: true,
        };
        let mut other = CountState::Unmarked;
        let mut rng = pp_engine::rng::rng_from_seed(0);
        p.interact(&mut leader, &mut other, &mut rng);
        assert_eq!(other, CountState::Unmarked, "done leader must not mark");
    }

    #[test]
    fn without_leader_nothing_happens() {
        let mut sim = AgentSim::new(ExactLeaderCount::default(), 50, 1);
        sim.steps(100 * 50);
        assert!(sim
            .states()
            .iter()
            .all(|s| matches!(s, CountState::Unmarked)));
    }
}
