//! The frame-budget governor.
//!
//! §1.2: "Slower performance destroys the illusion… a tradeoff must be
//! made between a rich environment and frame rate." And §5.3: "the speed
//! of the computation places a limit on particle number." The 1992 system
//! left that tradeoff to the user; this governor automates it: it watches
//! the measured compute time of each frame and scales a *detail factor*
//! (multiplied into the streamline point budget) so the compute stays
//! inside the 1/8-s budget — Table 3's "maximum number of particles"
//! column, applied continuously.

use std::time::Duration;

/// Adaptive detail controller. Multiplicative decrease when a frame
/// blows the budget, slow recovery when there is headroom.
#[derive(Debug, Clone, Copy)]
pub struct FrameGovernor {
    budget: Duration,
    detail: f32,
    min_detail: f32,
    /// Recovery multiplier applied when a frame uses < half the budget.
    recovery: f32,
}

impl FrameGovernor {
    /// Governor for a compute budget (the paper's 1/8 s minus transfer
    /// and render margins; `Duration::from_millis(100)` is the 10 fps
    /// target).
    pub fn new(budget: Duration) -> FrameGovernor {
        FrameGovernor {
            budget,
            detail: 1.0,
            min_detail: 0.05,
            recovery: 1.1,
        }
    }

    /// Current detail factor in `[min_detail, 1]`.
    pub fn detail(&self) -> f32 {
        self.detail
    }

    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Record one frame's compute time; returns the updated detail.
    pub fn observe(&mut self, compute: Duration) -> f32 {
        let t = compute.as_secs_f64();
        let b = self.budget.as_secs_f64();
        if b <= 0.0 {
            return self.detail;
        }
        if t > b {
            // Overshoot: cut proportionally (Table 3's linear-scaling
            // assumption, inverted), with a floor so the scene never
            // disappears entirely.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a ratio below 1; f32 is the detail factor's own precision"
            )]
            let cut = (b / t) as f32;
            self.detail = (self.detail * cut).max(self.min_detail);
        } else if t < 0.5 * b && self.detail < 1.0 {
            // Headroom: creep back up.
            self.detail = (self.detail * self.recovery).min(1.0);
        }
        self.detail
    }

    /// Apply the detail factor to a point budget (≥ 2 so a path is still
    /// a line).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "detail is at most 1, so the product is at most max_points"
    )]
    pub fn scaled_points(&self, max_points: usize) -> usize {
        ((max_points as f32 * self.detail) as usize).max(2)
    }

    /// Overload signal from outside the compute loop (the dlib dispatcher
    /// shed calls with `Busy`): cut detail multiplicatively, same floor as
    /// a budget overshoot. Cheaper frames drain the queue faster, and the
    /// recovery path restores detail once shedding stops.
    pub fn shed(&mut self) -> f32 {
        self.detail = (self.detail * 0.5).max(self.min_detail);
        self.detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> FrameGovernor {
        FrameGovernor::new(Duration::from_millis(100))
    }

    #[test]
    fn starts_at_full_detail() {
        let g = gov();
        assert_eq!(g.detail(), 1.0);
        assert_eq!(g.scaled_points(200), 200);
    }

    #[test]
    fn overshoot_cuts_proportionally() {
        let mut g = gov();
        // 400 ms against a 100 ms budget: detail → ~0.25.
        g.observe(Duration::from_millis(400));
        assert!((g.detail() - 0.25).abs() < 0.01, "{}", g.detail());
        assert_eq!(g.scaled_points(200), 50);
    }

    #[test]
    fn repeated_overshoot_converges_to_floor() {
        let mut g = gov();
        for _ in 0..50 {
            g.observe(Duration::from_secs(10));
        }
        assert!((g.detail() - 0.05).abs() < 1e-6);
        assert!(g.scaled_points(200) >= 2);
    }

    #[test]
    fn headroom_recovers_slowly() {
        let mut g = gov();
        g.observe(Duration::from_millis(400)); // → 0.25
        let low = g.detail();
        for _ in 0..5 {
            g.observe(Duration::from_millis(10));
        }
        assert!(g.detail() > low);
        assert!(g.detail() <= 1.0);
        // Full recovery eventually.
        for _ in 0..50 {
            g.observe(Duration::from_millis(10));
        }
        assert_eq!(g.detail(), 1.0);
    }

    #[test]
    fn within_budget_no_change() {
        let mut g = gov();
        g.observe(Duration::from_millis(80)); // 0.5·b < t ≤ b: hold
        assert_eq!(g.detail(), 1.0);
    }

    #[test]
    fn simulated_convergence_to_budget() {
        // A synthetic workload whose compute time is proportional to
        // detail (the Table 3 scaling assumption): cost = detail · 300 ms.
        // The governor should settle where cost ≈ budget: detail ≈ 1/3.
        let mut g = gov();
        for _ in 0..30 {
            let cost = Duration::from_secs_f64(0.3 * g.detail() as f64);
            g.observe(cost);
        }
        let settled = g.detail();
        assert!(
            (0.2..=0.45).contains(&settled),
            "settled at {settled}, expected ≈ 1/3"
        );
    }

    #[test]
    fn shed_halves_detail_with_floor_and_recovers() {
        let mut g = gov();
        assert_eq!(g.shed(), 0.5);
        assert_eq!(g.shed(), 0.25);
        for _ in 0..20 {
            g.shed();
        }
        assert!((g.detail() - 0.05).abs() < 1e-6, "floored at min_detail");
        for _ in 0..60 {
            g.observe(Duration::from_millis(10));
        }
        assert_eq!(g.detail(), 1.0, "recovery path restores detail");
    }

    #[test]
    fn scaled_points_floor() {
        let mut g = gov();
        for _ in 0..50 {
            g.observe(Duration::from_secs(100));
        }
        assert_eq!(g.scaled_points(3), 2);
    }
}
