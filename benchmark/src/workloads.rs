//! The five closed-loop workloads: each is a scene (built once) and a
//! seeded per-frame script. The server sees only the generated commands.

use crate::rig::Profile;
use crate::serve::TRACE_MAX_POINTS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tracer::ToolKind;
use vecmath::{Mat4, Pose, Vec3};
use vr::Gesture;
use windtunnel::{Command, TimeCommand};

/// §5.1's VME limit on the UltraNet path, bytes per second.
pub const VME_LINK_BYTES_PER_SEC: f64 = 13.0e6;

/// Frames `playback_disk` plays in one direction before it reverses, at
/// full scale. Fixed rather than "half way", so the script does not depend
/// on how many frames fit in the run.
pub const REVERSE_EVERY: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All three walls in the path: 100 k streamline points recomputed
    /// every timestep, streamed over a 13 MB/s link, from the disk stack.
    PlaybackWire,
    /// A near-empty scene played forward and backward: the frame is the
    /// store stack's sequential delivery time.
    PlaybackDisk,
    /// The same scene jumped to a random timestep every frame: the frame
    /// is the store stack's random-access time (LRU only).
    ScrubDisk,
    /// Clock paused, smoke streaming, one big rake dragged every frame:
    /// both production kernels run with disk and link idle.
    DragSmoke,
    /// Static scene, head pose changes every frame, a spectator polls
    /// full frames: every cache hits, the frame is fixed per-request cost.
    HeadPoseShared,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PlaybackWire,
        Workload::PlaybackDisk,
        Workload::ScrubDisk,
        Workload::DragSmoke,
        Workload::HeadPoseShared,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlaybackWire => "playback_wire",
            Workload::PlaybackDisk => "playback_disk",
            Workload::ScrubDisk => "scrub_disk",
            Workload::DragSmoke => "drag_smoke",
            Workload::HeadPoseShared => "head_pose_shared",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rate of the relay between client and server, if the workload has one.
    pub fn link_bytes_per_sec(self) -> Option<f64> {
        (self == Workload::PlaybackWire).then_some(VME_LINK_BYTES_PER_SEC)
    }

    /// Whether a second connection polls full frames at 10 Hz.
    pub fn has_spectator(self) -> bool {
        self == Workload::HeadPoseShared
    }

    /// Untimed frames before the first timed one: long enough for the
    /// keyframe, the read-ahead's stride and (for smoke) the particle
    /// population to settle.
    fn warmup_frames(self) -> usize {
        match self {
            Workload::PlaybackWire => 10,
            Workload::PlaybackDisk | Workload::ScrubDisk => 20,
            Workload::DragSmoke => 160,
            Workload::HeadPoseShared => 50,
        }
    }

    /// `(rakes, seeds per rake)` of the streamline part of the scene.
    fn streamline_rakes(self) -> (u32, u32) {
        match self {
            Workload::PlaybackWire => (8, 25),
            Workload::PlaybackDisk | Workload::ScrubDisk => (1, 10),
            Workload::DragSmoke => (1, 100),
            Workload::HeadPoseShared => (4, 5),
        }
    }

    /// `(rakes, seeds per rake)` of the streakline part of the scene.
    fn streak_rakes(self) -> (u32, u32) {
        match self {
            Workload::DragSmoke => (4, 50),
            _ => (0, 0),
        }
    }
}

/// What the client does for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePlan {
    /// Sent before the frame request, if any.
    pub command: Option<Command>,
    /// Whether this frame's request drives the shared clock.
    pub advance: bool,
    /// The timestep the reply must carry.
    pub expect_timestep: u32,
    /// Where the client renders from, when the workload moves the head.
    pub head: Option<Pose>,
}

/// Seeded generator of one workload's scene and frame plans.
pub struct Script {
    workload: Workload,
    rng: StdRng,
    timesteps: u32,
    shrink: u32,
    frame: usize,
    /// Timestep the server's clock is expected to be at.
    timestep: u32,
    /// +1 playing forward, -1 backward.
    direction: i32,
    /// Centre of the dragged rake and the seeded phases of the drag path.
    drag_center: Vec3,
    phases: (f32, f32),
}

/// One streamline rake column upstream of the cylinder, spanwise.
fn rake_endpoints(slot: u32, of: u32, jitter: Vec3) -> (Vec3, Vec3) {
    // Spread the columns across the inflow. No column count in use puts
    // one within 0.25 of the stagnation line y = 0.
    let y = if of <= 1 {
        0.7
    } else {
        -1.75 + 3.5 * slot as f32 / (of - 1) as f32
    };
    let base = Vec3::new(-2.6, y, 0.0) + jitter;
    (base + Vec3::Z * 1.0, base + Vec3::Z * 7.0)
}

impl Script {
    pub fn new(workload: Workload, seed: u64, profile: &Profile) -> Script {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD157_0B07);
        let phases = (
            rng.random_range(0.0..std::f32::consts::TAU),
            rng.random_range(0.0..std::f32::consts::TAU),
        );
        Script {
            workload,
            rng,
            timesteps: profile.timesteps as u32,
            shrink: profile.shrink,
            frame: 0,
            timestep: 0,
            direction: 1,
            drag_center: Vec3::ZERO,
            phases,
        }
    }

    fn seeds(&self, full: u32) -> u32 {
        (full / self.shrink).max(2)
    }

    pub fn warmup_frames(&self) -> usize {
        (self.workload.warmup_frames() / self.shrink as usize).max(3)
    }

    /// Frames `playback_disk` plays in one direction before it reverses.
    fn reverse_every(&self) -> usize {
        (REVERSE_EVERY / self.shrink as usize).max(2)
    }

    /// Points every frame of a streamline-only scene must carry (every
    /// seed runs its full length on this dataset); `None` with smoke.
    pub fn expected_particles(&self) -> Option<usize> {
        let (rakes, seeds) = self.workload.streamline_rakes();
        (self.workload.streak_rakes().0 == 0)
            .then(|| (rakes * self.seeds(seeds)) as usize * (TRACE_MAX_POINTS + 1))
    }

    fn jitter(&mut self) -> Vec3 {
        Vec3::new(
            self.rng.random_range(-0.05f32..0.05),
            self.rng.random_range(-0.05f32..0.05),
            0.0,
        )
    }

    /// The commands that build the scene, in order. Call once, first.
    pub fn scene(&mut self) -> Vec<Command> {
        let mut cmds = Vec::new();
        let (rakes, seeds) = self.workload.streamline_rakes();
        for slot in 0..rakes {
            let jitter = self.jitter();
            let (a, b) = rake_endpoints(slot, rakes, jitter);
            if slot == 0 {
                self.drag_center = (a + b) * 0.5;
            }
            cmds.push(Command::AddRake {
                a,
                b,
                seed_count: self.seeds(seeds),
                tool: ToolKind::Streamline,
            });
        }
        let (rakes, seeds) = self.workload.streak_rakes();
        for slot in 0..rakes {
            let jitter = self.jitter();
            // Smoke is released closer in, where the wake picks it up.
            let (a, b) = rake_endpoints(slot, rakes, jitter + Vec3::X * 0.8);
            cmds.push(Command::AddRake {
                a,
                b,
                seed_count: self.seeds(seeds),
                tool: ToolKind::Streakline,
            });
        }
        match self.workload {
            Workload::PlaybackWire | Workload::PlaybackDisk => {
                cmds.push(Command::Time(TimeCommand::SetRate(1.0)));
                cmds.push(Command::Time(TimeCommand::Play));
            }
            Workload::DragSmoke => cmds.push(Command::Hand {
                position: self.drag_center,
                gesture: Gesture::Fist,
            }),
            Workload::ScrubDisk | Workload::HeadPoseShared => {}
        }
        cmds
    }

    /// One step of a looping clock: the server wraps modulo `len - 1`, so
    /// the last stored timestep is never shown while playing.
    fn step_clock(&mut self) {
        let period = (self.timesteps - 1).max(1) as i32;
        self.timestep = (self.timestep as i32 + self.direction).rem_euclid(period) as u32;
    }

    /// The plan for the next frame (warm-up and timed frames alike).
    pub fn next_frame(&mut self) -> FramePlan {
        let n = self.frame;
        self.frame += 1;
        let (mut command, mut head) = (None, None);
        let advance = match self.workload {
            Workload::PlaybackWire => {
                self.step_clock();
                true
            }
            Workload::PlaybackDisk => {
                if n > 0 && n.is_multiple_of(self.reverse_every()) {
                    command = Some(Command::Time(TimeCommand::Reverse));
                    self.direction = -self.direction;
                }
                self.step_clock();
                true
            }
            Workload::ScrubDisk => {
                // Uniform over the *other* timesteps: a jump to the one on
                // screen would recompute and resend nothing, and how often
                // that happens would make bytes per frame a matter of seed.
                let hop = self.rng.random_range(1..self.timesteps.max(2));
                self.timestep = (self.timestep + hop) % self.timesteps;
                command = Some(Command::Time(TimeCommand::Jump(self.timestep)));
                false
            }
            Workload::DragSmoke => {
                let t = n as f32 * 0.05;
                let offset = Vec3::new(
                    0.3 * (t + self.phases.0).sin(),
                    0.2 * (1.3 * t + self.phases.1).sin(),
                    0.0,
                );
                command = Some(Command::Hand {
                    position: self.drag_center + offset,
                    gesture: Gesture::Fist,
                });
                // Smoke streams while the clock is paused.
                true
            }
            Workload::HeadPoseShared => {
                // Orbit the wake at arm's length; the look-at pose is what
                // a BOOM would report. The seed only nudges where the
                // orbit starts: how much of the scene is on screen sets
                // the render time, which must not depend on the seed.
                let angle = 0.9 + 0.03 * self.phases.0 + n as f32 * 0.002;
                let center = Vec3::new(2.0, 0.0, 4.0);
                let eye = center
                    + Vec3::new(
                        14.0 * angle.cos(),
                        5.0 + (self.phases.1).sin(),
                        14.0 * angle.sin(),
                    );
                let pose = Pose::from_mat4(&Mat4::look_at(eye, center, Vec3::Y).inverse_rigid());
                command = Some(Command::HeadPose { pose });
                head = Some(pose);
                false
            }
        };
        FramePlan {
            command,
            advance,
            expect_timestep: self.timestep,
            head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_frames(w: Workload, seed: u64, n: usize) -> (Vec<Command>, Vec<FramePlan>) {
        let mut s = Script::new(w, seed, &Profile::FULL);
        let scene = s.scene();
        (scene, (0..n).map(|_| s.next_frame()).collect())
    }

    #[test]
    fn same_seed_same_script() {
        for w in Workload::ALL {
            assert_eq!(first_frames(w, 7, 300), first_frames(w, 7, 300), "{w:?}");
        }
    }

    #[test]
    fn different_seed_different_scrub_sequence() {
        let (_, a) = first_frames(Workload::ScrubDisk, 1, 64);
        let (_, b) = first_frames(Workload::ScrubDisk, 2, 64);
        let ts = |v: &[FramePlan]| v.iter().map(|p| p.expect_timestep).collect::<Vec<_>>();
        assert_ne!(ts(&a), ts(&b));
        assert!(ts(&a).iter().all(|&t| t < 48));
        assert!(ts(&a).windows(2).all(|w| w[0] != w[1]), "every jump moves");
        // The jumps cover far more than the 16-timestep LRU.
        let mut seen = ts(&a);
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 24, "{}", seen.len());
    }

    #[test]
    fn playback_loops_and_reverses_as_the_server_does() {
        let (_, fwd) = first_frames(Workload::PlaybackWire, 3, 50);
        // 47-step loop over 48 timesteps: 1, 2, …, 46, 0, 1, …
        assert_eq!(fwd[0].expect_timestep, 1);
        assert_eq!(fwd[45].expect_timestep, 46);
        assert_eq!(fwd[46].expect_timestep, 0);
        assert!(fwd.iter().all(|p| p.advance && p.command.is_none()));

        let (_, pp) = first_frames(Workload::PlaybackDisk, 3, REVERSE_EVERY + 2);
        // Frame 100 carries the Reverse, so it shows the timestep before.
        let before = pp[REVERSE_EVERY - 1].expect_timestep;
        assert_eq!(
            pp[REVERSE_EVERY].command,
            Some(Command::Time(TimeCommand::Reverse))
        );
        assert_eq!(pp[REVERSE_EVERY].expect_timestep, before - 1);
        assert_eq!(pp[REVERSE_EVERY + 1].expect_timestep, before - 2);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
