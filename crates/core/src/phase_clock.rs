//! Leaderless and leader-driven phase clocks.
//!
//! The paper's synchronization device (§1.1, §3.1): every agent counts its
//! own interactions against a threshold proportional to a weak size estimate
//! `s` (`logSize2`). Lemma 3.6 shows the count concentrates — in `C ln n`
//! parallel time no agent sees more than `(2C + √(12C)) ln n` interactions
//! w.h.p. — so "count to `95·s`" behaves like "wait `Θ(log n)` time", and
//! the first agent to cross the threshold moves the whole population to the
//! next stage by a max-stage epidemic.
//!
//! This module provides the clock as a standalone, reusable protocol (the
//! main protocol embeds the same logic in its epoch machinery; the
//! composition framework of [`crate::composition`] builds on the types
//! here).

use pp_engine::rng::{geometric_half, SimRng};
use pp_engine::Protocol;

/// State of one agent of the standalone leaderless phase clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockState {
    /// Weak size estimate `s` (max of geometric+2 samples, by epidemic).
    pub estimate: u64,
    /// Whether this agent has sampled its own estimate yet.
    pub seeded: bool,
    /// Interaction count within the current stage.
    pub count: u64,
    /// Current stage index.
    pub stage: u64,
}

impl ClockState {
    /// Initial state: unseeded, stage 0.
    pub fn initial() -> Self {
        Self {
            estimate: 1,
            seeded: false,
            count: 0,
            stage: 0,
        }
    }
}

/// The standalone leaderless phase clock protocol.
///
/// Stage `k` lasts until some agent counts `threshold_multiplier · s`
/// interactions within it; the incremented stage index then spreads by
/// epidemic (adoption resets the local count). The clock's quality metric
/// is *stage skew*: how far apart the stages of any two agents can be at
/// one instant (should be ≤ 1 w.h.p. once `s` has settled).
#[derive(Debug, Clone, Copy)]
pub struct LeaderlessPhaseClock {
    /// Interactions per stage, as a multiple of the estimate (paper: 95).
    pub threshold_multiplier: u64,
}

impl Default for LeaderlessPhaseClock {
    fn default() -> Self {
        Self {
            threshold_multiplier: 95,
        }
    }
}

impl LeaderlessPhaseClock {
    fn seed(&self, s: &mut ClockState, rng: &mut SimRng) {
        if !s.seeded {
            s.seeded = true;
            s.estimate = s.estimate.max(geometric_half(rng) + 2);
        }
    }

    fn tick(&self, s: &mut ClockState) {
        s.count += 1;
        if s.count >= self.threshold_multiplier * s.estimate {
            s.stage += 1;
            s.count = 0;
        }
    }

    fn sync(&self, a: &mut ClockState, b: &mut ClockState) {
        // Estimate epidemic; adopting a larger estimate restarts the clock.
        if a.estimate < b.estimate {
            a.estimate = b.estimate;
            a.stage = 0;
            a.count = 0;
        } else if b.estimate < a.estimate {
            b.estimate = a.estimate;
            b.stage = 0;
            b.count = 0;
        }
        // Stage epidemic.
        if a.stage < b.stage {
            a.stage = b.stage;
            a.count = 0;
        } else if b.stage < a.stage {
            b.stage = a.stage;
            b.count = 0;
        }
    }
}

impl Protocol for LeaderlessPhaseClock {
    type State = ClockState;

    fn initial_state(&self) -> ClockState {
        ClockState::initial()
    }

    fn interact(&self, rec: &mut ClockState, sen: &mut ClockState, rng: &mut SimRng) {
        self.seed(rec, rng);
        self.seed(sen, rng);
        self.tick(rec);
        self.tick(sen);
        self.sync(rec, sen);
    }
}

/// Maximum stage difference across the population — the skew that the
/// clock's w.h.p. guarantee keeps at ≤ 1.
pub fn stage_skew(states: &[ClockState]) -> u64 {
    let min = states.iter().map(|s| s.stage).min().unwrap_or(0);
    let max = states.iter().map(|s| s.stage).max().unwrap_or(0);
    max - min
}

/// State of the leader-driven clock used by the terminating variant
/// (Theorem 3.13): only the leader counts, so a single plain Chernoff bound
/// (no union over agents) controls the firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaderClock {
    /// Interactions the leader has witnessed since the last reset.
    pub count: u64,
    /// Set when the leader crossed its threshold.
    pub fired: bool,
}

impl LeaderClock {
    /// A fresh, unfired clock.
    pub fn new() -> Self {
        Self {
            count: 0,
            fired: false,
        }
    }

    /// Advances the clock by one witnessed interaction against `threshold`.
    pub fn tick(&mut self, threshold: u64) {
        if !self.fired {
            self.count += 1;
            if self.count >= threshold {
                self.fired = true;
            }
        }
    }

    /// Resets after a restart (e.g. the size estimate changed).
    pub fn reset(&mut self) {
        self.count = 0;
        self.fired = false;
    }
}

impl Default for LeaderClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{AgentSim, Simulation};

    /// The leaderless clock on the agent engine, driven by [`Simulation`]
    /// (one check per parallel-time unit).
    fn clock_sim(n: usize, seed: u64) -> Simulation<'static, ClockState> {
        Simulation::from_engine(Box::new(AgentSim::new(
            LeaderlessPhaseClock::default(),
            n,
            seed,
        )))
    }

    /// Every agent has reached `stage`.
    fn all_at_stage(stage: u64) -> impl FnMut(&[(ClockState, u64)]) -> bool {
        move |view| view.iter().all(|(c, _)| c.stage >= stage)
    }

    /// The occupied clock states of a view (skew ignores multiplicity).
    fn occupied(view: &[(ClockState, u64)]) -> Vec<ClockState> {
        view.iter().map(|&(c, _)| c).collect()
    }

    #[test]
    fn clock_advances_through_stages() {
        let mut sim = clock_sim(300, 1);
        let out = sim.run_until(all_at_stage(3), 100_000.0);
        assert!(out.converged, "clock never reached stage 3");
    }

    #[test]
    fn stage_skew_stays_small_after_settling() {
        let n = 500;
        let mut sim = clock_sim(n, 2);
        // Let the estimate settle and a few stages elapse.
        let settle = sim.run_until(all_at_stage(2), 100_000.0);
        assert!(settle.converged);
        // Over the next stages, skew should never exceed 1 (sampled each
        // parallel-time unit).
        for _ in 0..200 {
            sim.run_for_time(1.0);
            let skew = stage_skew(&occupied(&sim.view()));
            assert!(skew <= 1, "stage skew {skew} > 1");
        }
    }

    #[test]
    fn stage_duration_scales_with_estimate() {
        // Time per stage ≈ threshold/2 parallel time (each agent has ~2
        // interactions per unit). With the settled estimate s, expect the
        // time to go from stage 2 to stage 12 to be roughly 10·95·s/2,
        // within a generous band.
        let n = 400;
        let mut sim = clock_sim(n, 3);
        let r1 = sim.run_until(all_at_stage(2), 200_000.0);
        assert!(r1.converged);
        // The view's first pair holds agent 0's state.
        let s_est = sim.view()[0].0.estimate;
        let t0 = sim.time();
        let r2 = sim.run_until(all_at_stage(12), 400_000.0);
        assert!(r2.converged);
        let per_stage = (sim.time() - t0) / 10.0;
        let nominal = 95.0 * s_est as f64 / 2.0;
        assert!(
            per_stage > 0.5 * nominal && per_stage < 1.5 * nominal,
            "per-stage time {per_stage} vs nominal {nominal}"
        );
    }

    #[test]
    fn estimates_agree_after_epidemic() {
        let mut sim = clock_sim(200, 4);
        sim.run_for_time(200.0);
        let view = sim.view();
        let est0 = view[0].0.estimate;
        assert!(view.iter().all(|(c, _)| c.estimate == est0));
        assert!(est0 >= 3, "estimate includes the +2 offset");
    }

    #[test]
    fn leader_clock_fires_once() {
        let mut c = LeaderClock::new();
        for _ in 0..10 {
            c.tick(5);
        }
        assert!(c.fired);
        assert_eq!(c.count, 5, "count freezes at the threshold");
        c.reset();
        assert!(!c.fired);
        assert_eq!(c.count, 0);
    }
}
