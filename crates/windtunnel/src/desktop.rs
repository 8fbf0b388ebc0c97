//! Desktop (keyboard + mouse) input mapping.
//!
//! §3: "The keyboard and mouse are also used as input devices to the
//! virtual environment. The user can easily swing the boom away and
//! interact with the computer in the usual way." And §6: the distributed
//! architecture is "useful in contexts other than virtual environments,
//! such as the visualization of unsteady flows in the conventional screen
//! and mouse environment."
//!
//! [`DesktopInput`] converts desktop events into the same [`Command`]
//! stream the glove produces: keys drive the clock, mouse-down picks the
//! nearest rake handle on screen and drags it in a camera-parallel plane
//! (emitting `Hand { gesture: Fist }` commands, so the server-side grab
//! logic — including the multi-user lockout — is identical for both
//! input paths).

use crate::proto::{Command, GeometryFrame, TimeCommand};
use vecmath::{Mat4, Vec3};
use vr::Gesture;

/// Keyboard keys the windtunnel binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// Toggle play/pause.
    Space,
    /// Reverse playback.
    R,
    /// Double the playback rate.
    Faster,
    /// Halve the playback rate.
    Slower,
    /// Step one timestep back (while examining, §2's "stopped completely
    /// for detailed examination").
    StepBack,
    /// Step one timestep forward.
    StepForward,
    /// Rewind to timestep 0.
    Home,
}

/// Screen-space pick radius for rake handles, in pixels.
const PICK_RADIUS_PX: f32 = 12.0;

/// Desktop input state machine.
#[derive(Debug, Clone)]
pub struct DesktopInput {
    playing: bool,
    rate: f32,
    /// Active mouse drag: NDC depth of the grabbed point, so dragging
    /// moves in the camera-parallel plane through the handle.
    drag_depth: Option<f32>,
    last_world: Option<Vec3>,
}

impl Default for DesktopInput {
    fn default() -> Self {
        DesktopInput {
            playing: false,
            rate: 1.0,
            drag_depth: None,
            last_world: None,
        }
    }
}

impl DesktopInput {
    pub fn new() -> DesktopInput {
        DesktopInput::default()
    }

    /// Translate a key press into a command.
    pub fn key(&mut self, key: Key) -> Command {
        match key {
            Key::Space => {
                self.playing = !self.playing;
                Command::Time(if self.playing {
                    TimeCommand::Play
                } else {
                    TimeCommand::Pause
                })
            }
            Key::R => Command::Time(TimeCommand::Reverse),
            Key::Faster => {
                self.rate *= 2.0;
                Command::Time(TimeCommand::SetRate(self.rate))
            }
            Key::Slower => {
                self.rate *= 0.5;
                Command::Time(TimeCommand::SetRate(self.rate))
            }
            Key::StepBack => Command::Time(TimeCommand::Step(-1)),
            Key::StepForward => Command::Time(TimeCommand::Step(1)),
            Key::Home => Command::Time(TimeCommand::Jump(0)),
        }
    }

    /// Project a world point to (pixel x, pixel y, ndc z).
    fn project(mvp: &Mat4, p: Vec3, width: f32, height: f32) -> Option<(f32, f32, f32)> {
        let h = mvp.transform_point_h(p);
        if h[3] <= 1.0e-6 {
            return None;
        }
        Some((
            (h[0] / h[3] * 0.5 + 0.5) * (width - 1.0),
            (0.5 - h[1] / h[3] * 0.5) * (height - 1.0),
            h[2] / h[3],
        ))
    }

    /// Unproject a pixel at a given NDC depth back to world space.
    fn unproject(
        mvp: &Mat4,
        px: f32,
        py: f32,
        ndc_z: f32,
        width: f32,
        height: f32,
    ) -> Option<Vec3> {
        let inv = mvp.inverse()?;
        let ndc = Vec3::new(
            px / (width - 1.0) * 2.0 - 1.0,
            (0.5 - py / (height - 1.0)) * 2.0,
            ndc_z,
        );
        Some(inv.transform_point(ndc))
    }

    /// Mouse press at pixel `(px, py)`: pick the nearest rake handle
    /// (ends and centers, like the glove's hit test) within the pick
    /// radius (12 px) and start a drag. Returns the grab command, or
    /// `None` if nothing was hit.
    pub fn mouse_down(
        &mut self,
        px: f32,
        py: f32,
        frame: &GeometryFrame,
        mvp: &Mat4,
        width: f32,
        height: f32,
    ) -> Option<Command> {
        let mut best: Option<(f32, Vec3, f32)> = None; // (px dist, world, depth)
        for rake in &frame.rakes {
            for handle in [rake.a, rake.b, (rake.a + rake.b) * 0.5] {
                if let Some((hx, hy, hz)) = Self::project(mvp, handle, width, height) {
                    let d = ((hx - px).powi(2) + (hy - py).powi(2)).sqrt();
                    if d <= PICK_RADIUS_PX && best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, handle, hz));
                    }
                }
            }
        }
        let (_, world, depth) = best?;
        self.drag_depth = Some(depth);
        self.last_world = Some(world);
        Some(Command::Hand {
            position: world,
            gesture: Gesture::Fist,
        })
    }

    /// Mouse motion during a drag: keep the hand fisted at the new world
    /// position in the grab plane.
    pub fn mouse_drag(
        &mut self,
        px: f32,
        py: f32,
        mvp: &Mat4,
        width: f32,
        height: f32,
    ) -> Option<Command> {
        let depth = self.drag_depth?;
        let world = Self::unproject(mvp, px, py, depth, width, height)?;
        self.last_world = Some(world);
        Some(Command::Hand {
            position: world,
            gesture: Gesture::Fist,
        })
    }

    /// Mouse release: open the hand, ending the drag.
    pub fn mouse_up(&mut self) -> Option<Command> {
        self.drag_depth = None;
        let pos = self.last_world.take()?;
        Some(Command::Hand {
            position: pos,
            gesture: Gesture::Open,
        })
    }

    /// Is a drag in progress?
    pub fn dragging(&self) -> bool {
        self.drag_depth.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Lattice, RakeMsg};
    use tracer::ToolKind;
    use vecmath::Pose;
    use vr::stereo::StereoCamera;

    fn test_frame() -> GeometryFrame {
        GeometryFrame {
            timestep: 0,
            time: 0.0,
            revision: 1,
            lattice: Lattice::for_extent(1.0),
            rakes: vec![RakeMsg {
                id: 1,
                a: Vec3::new(-1.0, 0.0, 0.0),
                b: Vec3::new(1.0, 0.0, 0.0),
                seed_count: 4,
                tool: ToolKind::Streamline,
                owner: 0,
            }],
            paths: vec![],
            users: vec![],
        }
    }

    fn test_mvp() -> Mat4 {
        let cam = StereoCamera::new(Pose::new(Vec3::new(0.0, 0.0, 5.0), Default::default()));
        cam.projection() * cam.head.view_matrix()
    }

    #[test]
    fn keyboard_time_controls() {
        let mut d = DesktopInput::new();
        assert_eq!(d.key(Key::Space), Command::Time(TimeCommand::Play));
        assert_eq!(d.key(Key::Space), Command::Time(TimeCommand::Pause));
        assert_eq!(d.key(Key::R), Command::Time(TimeCommand::Reverse));
        assert_eq!(d.key(Key::Faster), Command::Time(TimeCommand::SetRate(2.0)));
        assert_eq!(d.key(Key::Slower), Command::Time(TimeCommand::SetRate(1.0)));
        assert_eq!(d.key(Key::StepForward), Command::Time(TimeCommand::Step(1)));
        assert_eq!(d.key(Key::StepBack), Command::Time(TimeCommand::Step(-1)));
        assert_eq!(d.key(Key::Home), Command::Time(TimeCommand::Jump(0)));
    }

    #[test]
    fn click_on_handle_grabs() {
        let mut d = DesktopInput::new();
        let frame = test_frame();
        let mvp = test_mvp();
        let (w, h) = (640.0, 480.0);
        // Project the rake center and click exactly there.
        let (cx, cy, _) = DesktopInput::project(&mvp, Vec3::ZERO, w, h).expect("center visible");
        let cmd = d.mouse_down(cx, cy, &frame, &mvp, w, h).expect("grab");
        match cmd {
            Command::Hand { position, gesture } => {
                assert_eq!(gesture, Gesture::Fist);
                assert!(position.distance(Vec3::ZERO) < 1e-4);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.dragging());
    }

    #[test]
    fn click_on_empty_space_does_nothing() {
        let mut d = DesktopInput::new();
        let frame = test_frame();
        let mvp = test_mvp();
        assert!(d.mouse_down(5.0, 5.0, &frame, &mvp, 640.0, 480.0).is_none());
        assert!(!d.dragging());
        assert!(d.mouse_drag(6.0, 6.0, &mvp, 640.0, 480.0).is_none());
        assert!(d.mouse_up().is_none());
    }

    #[test]
    fn drag_moves_in_grab_plane() {
        let mut d = DesktopInput::new();
        let frame = test_frame();
        let mvp = test_mvp();
        let (w, h) = (640.0, 480.0);
        let (cx, cy, _) = DesktopInput::project(&mvp, Vec3::ZERO, w, h).unwrap();
        d.mouse_down(cx, cy, &frame, &mvp, w, h).unwrap();
        // Drag 50 px up: the world position moves +y, stays ~z = 0.
        let cmd = d.mouse_drag(cx, cy - 50.0, &mvp, w, h).expect("drag");
        match cmd {
            Command::Hand { position, gesture } => {
                assert_eq!(gesture, Gesture::Fist);
                assert!(position.y > 0.05, "{position:?}");
                assert!(position.z.abs() < 0.05, "stays in grab plane: {position:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn release_opens_hand_at_last_position() {
        let mut d = DesktopInput::new();
        let frame = test_frame();
        let mvp = test_mvp();
        let (w, h) = (640.0, 480.0);
        let (cx, cy, _) = DesktopInput::project(&mvp, Vec3::ZERO, w, h).unwrap();
        d.mouse_down(cx, cy, &frame, &mvp, w, h).unwrap();
        d.mouse_drag(cx + 30.0, cy, &mvp, w, h).unwrap();
        let cmd = d.mouse_up().expect("release");
        match cmd {
            Command::Hand { gesture, position } => {
                assert_eq!(gesture, Gesture::Open);
                assert!(position.x > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!d.dragging());
    }

    #[test]
    fn prefers_nearest_handle() {
        let mut d = DesktopInput::new();
        let frame = test_frame();
        let mvp = test_mvp();
        let (w, h) = (640.0, 480.0);
        // Click next to end A: must grab A's world position, not center.
        let (ax, ay, _) = DesktopInput::project(&mvp, Vec3::new(-1.0, 0.0, 0.0), w, h).unwrap();
        let cmd = d
            .mouse_down(ax + 2.0, ay, &frame, &mvp, w, h)
            .expect("grab");
        match cmd {
            Command::Hand { position, .. } => {
                assert!(position.distance(Vec3::new(-1.0, 0.0, 0.0)) < 0.05);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_to_end_desktop_drag_against_server() {
        // The desktop path drives the same server logic as the glove.
        use crate::server::{serve, ServerOptions};
        use flowfield::{
            dataset::VelocityCoords, CurvilinearGrid, Dataset, DatasetMeta, Dims, VectorField,
        };
        use std::sync::Arc;
        use storage::MemoryStore;
        use vecmath::Aabb;

        let dims = Dims::new(16, 9, 9);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "desktop".into(),
            dims,
            timestep_count: 2,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..2)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        let handle = serve(
            Arc::new(MemoryStore::from_dataset(ds)),
            grid,
            ServerOptions::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = crate::client::WindtunnelClient::connect(handle.addr()).unwrap();
        client
            .send(&Command::AddRake {
                a: Vec3::new(4.0, 4.0, 4.0),
                b: Vec3::new(6.0, 4.0, 4.0),
                seed_count: 2,
                tool: ToolKind::Streamline,
            })
            .unwrap();
        let frame = client.frame(false).unwrap();

        let cam = StereoCamera::new(Pose::new(Vec3::new(5.0, 4.0, 20.0), Default::default()));
        let mvp = cam.projection() * cam.head.view_matrix();
        let (w, h) = (640.0, 480.0);
        let mut desk = DesktopInput::new();
        let center = (frame.rakes[0].a + frame.rakes[0].b) * 0.5;
        let (cx, cy, _) = DesktopInput::project(&mvp, center, w, h).unwrap();

        // Click, drag up, release — through the wire.
        client
            .send(&desk.mouse_down(cx, cy, &frame, &mvp, w, h).unwrap())
            .unwrap();
        client
            .send(&desk.mouse_drag(cx, cy - 40.0, &mvp, w, h).unwrap())
            .unwrap();
        client.send(&desk.mouse_up().unwrap()).unwrap();

        let after = client.frame(false).unwrap();
        let new_center = (after.rakes[0].a + after.rakes[0].b) * 0.5;
        assert!(
            new_center.y > center.y + 0.1,
            "rake moved up: {new_center:?}"
        );
        assert_eq!(after.rakes[0].owner, 0, "released after mouse-up");
        handle.shutdown();
    }
}
