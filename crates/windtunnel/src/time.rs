//! Playback control over the timestep sequence.
//!
//! §2: "The time evolution of the flow can be sped up, slowed down, run
//! backwards, or stopped completely for detailed examination." Time is a
//! fractional timestep index advanced by a signed rate each display
//! frame, with a choice of end-of-sequence behaviour.

/// What happens when playback reaches either end of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaybackMode {
    /// Wrap around (the tapered-cylinder dataset is periodic shedding, so
    /// looping is the natural default).
    #[default]
    Loop,
    /// Stop at the end.
    Clamp,
    /// Reverse direction at the ends.
    Bounce,
}

/// Fractional-timestep playback state.
#[derive(Debug, Clone, Copy)]
pub struct TimeController {
    /// Number of timesteps in the dataset (≥ 1).
    len: usize,
    /// Current fractional timestep in [0, len-1].
    current: f32,
    /// Timesteps advanced per frame (signed; 1.0 = dataset rate).
    rate: f32,
    playing: bool,
    mode: PlaybackMode,
}

impl TimeController {
    pub fn new(len: usize) -> TimeController {
        TimeController {
            len: len.max(1),
            current: 0.0,
            rate: 1.0,
            playing: false,
            mode: PlaybackMode::Loop,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        false // len is clamped ≥ 1
    }

    /// Current fractional time.
    pub fn time(&self) -> f32 {
        self.current
    }

    /// Current integer timestep (nearest stored field).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "current is clamped to the stored range; `as` saturates and min() clamps"
    )]
    pub fn timestep(&self) -> usize {
        (self.current.round() as usize).min(self.len - 1)
    }

    pub fn rate(&self) -> f32 {
        self.rate
    }

    pub fn is_playing(&self) -> bool {
        self.playing
    }

    pub fn mode(&self) -> PlaybackMode {
        self.mode
    }

    pub fn set_mode(&mut self, mode: PlaybackMode) {
        self.mode = mode;
    }

    pub fn play(&mut self) {
        self.playing = true;
    }

    pub fn pause(&mut self) {
        self.playing = false;
    }

    /// Flip the sign of the rate — "run backwards".
    pub fn reverse(&mut self) {
        self.rate = -self.rate;
    }

    /// Set the playback rate (timesteps per frame); sign sets direction.
    pub fn set_rate(&mut self, rate: f32) {
        if rate.is_finite() {
            self.rate = rate;
        }
    }

    /// Jump to a specific timestep.
    pub fn jump(&mut self, timestep: usize) {
        self.current = timestep.min(self.len - 1) as f32;
    }

    /// Single-step while paused (signed).
    pub fn step(&mut self, delta: i32) {
        self.current = self.wrap(self.current + delta as f32);
    }

    fn wrap(&self, t: f32) -> f32 {
        let max = (self.len - 1) as f32;
        if max == 0.0 {
            return 0.0;
        }
        match self.mode {
            PlaybackMode::Clamp => t.clamp(0.0, max),
            PlaybackMode::Loop => t.rem_euclid(max),
            PlaybackMode::Bounce => {
                // Reflect into [0, max] (direction handled in advance()).
                let period = 2.0 * max;
                let m = t.rem_euclid(period);
                if m <= max {
                    m
                } else {
                    period - m
                }
            }
        }
    }

    /// Advance one display frame; returns the new integer timestep.
    pub fn advance(&mut self) -> usize {
        if self.playing {
            let max = (self.len - 1) as f32;
            let next = self.current + self.rate;
            match self.mode {
                PlaybackMode::Clamp => {
                    self.current = next.clamp(0.0, max);
                    if next <= 0.0 || next >= max {
                        self.playing = false;
                    }
                }
                PlaybackMode::Loop => {
                    self.current = self.wrap(next);
                }
                PlaybackMode::Bounce => {
                    if next > max || next < 0.0 {
                        self.rate = -self.rate;
                        self.current = self.wrap(next);
                    } else {
                        self.current = next;
                    }
                }
            }
        }
        self.timestep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paused_time_is_frozen() {
        let mut t = TimeController::new(100);
        assert_eq!(t.advance(), 0);
        assert_eq!(t.advance(), 0);
        assert!(!t.is_playing());
    }

    #[test]
    fn playing_advances_at_rate() {
        let mut t = TimeController::new(100);
        t.play();
        t.set_rate(2.0);
        assert_eq!(t.advance(), 2);
        assert_eq!(t.advance(), 4);
    }

    #[test]
    fn fractional_rates_slow_playback() {
        let mut t = TimeController::new(100);
        t.play();
        t.set_rate(0.25);
        t.advance();
        t.advance();
        assert!((t.time() - 0.5).abs() < 1e-6);
        assert_eq!(t.timestep(), 1); // rounds to nearest
    }

    #[test]
    fn reverse_runs_backwards() {
        let mut t = TimeController::new(100);
        t.jump(10);
        t.play();
        t.reverse();
        assert_eq!(t.advance(), 9);
        assert_eq!(t.advance(), 8);
    }

    #[test]
    fn loop_wraps_both_ends() {
        let mut t = TimeController::new(10);
        t.play();
        t.set_rate(4.0);
        t.jump(8);
        // 8 → 12 wraps to 3 (period 9).
        assert_eq!(t.advance(), 3);
        t.set_rate(-5.0);
        // 3 → -2 wraps to 7.
        assert_eq!(t.advance(), 7);
    }

    #[test]
    fn clamp_stops_at_end() {
        let mut t = TimeController::new(5);
        t.set_mode(PlaybackMode::Clamp);
        t.play();
        t.set_rate(3.0);
        assert_eq!(t.advance(), 3);
        assert_eq!(t.advance(), 4);
        assert!(!t.is_playing());
        assert_eq!(t.advance(), 4);
    }

    #[test]
    fn bounce_reflects() {
        let mut t = TimeController::new(5); // indices 0..4
        t.set_mode(PlaybackMode::Bounce);
        t.play();
        t.set_rate(3.0);
        t.jump(3);
        // 3 → 6 reflects to 2, rate flips.
        assert_eq!(t.advance(), 2);
        assert!(t.rate() < 0.0);
        // 2 → -1 reflects to 1, rate flips again.
        assert_eq!(t.advance(), 1);
        assert!(t.rate() > 0.0);
    }

    #[test]
    fn clamp_stops_at_start_when_reversed() {
        let mut t = TimeController::new(8);
        t.set_mode(PlaybackMode::Clamp);
        t.jump(2);
        t.play();
        t.set_rate(-3.0);
        assert_eq!(t.advance(), 0);
        assert!(!t.is_playing(), "hitting t=0 backwards must pause");
        assert_eq!(t.advance(), 0);
        // Playback can resume forward from the clamped end.
        t.set_rate(1.0);
        t.play();
        assert_eq!(t.advance(), 1);
    }

    #[test]
    fn clamp_pauses_on_exact_landing() {
        let mut t = TimeController::new(5);
        t.set_mode(PlaybackMode::Clamp);
        t.jump(2);
        t.play();
        t.set_rate(2.0);
        // 2 → 4 lands exactly on the last index: end reached, pause.
        assert_eq!(t.advance(), 4);
        assert!(!t.is_playing());
    }

    #[test]
    fn bounce_reflects_off_start_with_negative_rate() {
        let mut t = TimeController::new(6);
        t.set_mode(PlaybackMode::Bounce);
        t.jump(1);
        t.play();
        t.set_rate(-2.0);
        // 1 → -1 reflects to 1, rate flips forward.
        assert_eq!(t.advance(), 1);
        assert!(t.rate() > 0.0);
        assert_eq!(t.advance(), 3);
    }

    #[test]
    fn bounce_reflection_preserves_fraction() {
        let mut t = TimeController::new(5); // max index 4
        t.set_mode(PlaybackMode::Bounce);
        t.jump(3);
        t.play();
        t.set_rate(1.5);
        // 3 → 4.5 reflects to 3.5: the overshoot past the end comes back
        // as distance from the end, fraction intact.
        t.advance();
        assert!((t.time() - 3.5).abs() < 1e-6, "time {}", t.time());
        assert!(t.rate() < 0.0);
    }

    #[test]
    fn negative_fractional_rate_accumulates() {
        let mut t = TimeController::new(10);
        t.jump(2);
        t.play();
        t.set_rate(-0.25);
        for _ in 0..4 {
            t.advance();
        }
        assert!((t.time() - 1.0).abs() < 1e-6);
        assert_eq!(t.timestep(), 1);
    }

    #[test]
    fn fractional_accumulation_survives_loop_wrap() {
        let mut t = TimeController::new(10); // period max = 9
        t.jump(8);
        t.play();
        t.set_rate(0.4);
        t.advance(); // 8.4
        t.advance(); // 8.8
        t.advance(); // 9.2 wraps to 0.2
        assert!((t.time() - 0.2).abs() < 1e-5, "time {}", t.time());
        t.advance();
        assert!((t.time() - 0.6).abs() < 1e-5);
    }

    #[test]
    fn fractional_accumulation_survives_backward_wrap() {
        let mut t = TimeController::new(10);
        t.jump(1);
        t.play();
        t.set_rate(-0.75);
        t.advance(); // 0.25
        t.advance(); // -0.5 wraps to 8.5
        assert!((t.time() - 8.5).abs() < 1e-5, "time {}", t.time());
        assert_eq!(t.timestep(), 9); // half-way rounds up to the nearer end
    }

    #[test]
    fn jump_clamps_to_range() {
        let mut t = TimeController::new(10);
        t.jump(999);
        assert_eq!(t.timestep(), 9);
    }

    #[test]
    fn step_while_paused() {
        let mut t = TimeController::new(10);
        t.step(1);
        t.step(1);
        assert_eq!(t.timestep(), 2);
        t.step(-3);
        // Loop mode wraps negative to 8 (period 9).
        assert_eq!(t.timestep(), 8);
    }

    #[test]
    fn single_timestep_dataset() {
        let mut t = TimeController::new(1);
        t.play();
        assert_eq!(t.advance(), 0);
        t.reverse();
        assert_eq!(t.advance(), 0);
    }

    #[test]
    fn non_finite_rate_ignored() {
        let mut t = TimeController::new(10);
        t.set_rate(f32::NAN);
        assert_eq!(t.rate(), 1.0);
    }
}
