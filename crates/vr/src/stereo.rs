//! Stereo camera: per-eye view and projection from a head pose.
//!
//! §1.2: "The computer generated scene is displayed in stereo to create
//! the illusion of depth, and is rendered from a point of view that tracks
//! the user's head." The BOOM provides the head pose; the two eyes sit
//! ±ipd/2 along the head's local X axis, each rendering through the same
//! symmetric frustum (the BOOM's LEEP optics were identical per eye).

use vecmath::{Mat4, Pose, Vec3};

/// Which eye a pass renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eye {
    Left,
    Right,
}

/// Head-tracked stereo camera.
#[derive(Debug, Clone, Copy)]
pub struct StereoCamera {
    /// Head pose (from the BOOM).
    pub head: Pose,
    /// Interpupillary distance.
    pub ipd: f32,
    /// Vertical field of view (radians) — the BOOM's wide-field LEEP
    /// optics were ~90°+.
    pub fovy: f32,
    pub aspect: f32,
    pub near: f32,
    pub far: f32,
}

impl StereoCamera {
    pub fn new(head: Pose) -> StereoCamera {
        StereoCamera {
            head,
            ipd: 0.064,
            fovy: 1.6,
            aspect: 1.0,
            near: 0.05,
            far: 200.0,
        }
    }

    /// World-space position of one eye.
    pub fn eye_position(&self, eye: Eye) -> Vec3 {
        let offset = match eye {
            Eye::Left => -self.ipd * 0.5,
            Eye::Right => self.ipd * 0.5,
        };
        self.head.transform_point(Vec3::new(offset, 0.0, 0.0))
    }

    /// View matrix for one eye: the head pose shifted to the eye, then
    /// inverted (§3's matrix inversion, per eye).
    pub fn view(&self, eye: Eye) -> Mat4 {
        let eye_pose = Pose {
            position: self.eye_position(eye),
            orientation: self.head.orientation,
        };
        eye_pose.view_matrix()
    }

    /// Shared projection matrix.
    pub fn projection(&self) -> Mat4 {
        Mat4::perspective(self.fovy, self.aspect, self.near, self.far)
    }

    /// Full MVP for one eye (model = identity; concatenate yours).
    pub fn mvp(&self, eye: Eye) -> Mat4 {
        self.projection() * self.view(eye)
    }
}

pub use crate::render::render_anaglyph;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{ColorMask, Framebuffer};
    use vecmath::Quat;

    fn head_at_origin() -> Pose {
        Pose::new(Vec3::new(0.0, 0.0, 2.0), Quat::IDENTITY)
    }

    #[test]
    fn eyes_are_ipd_apart() {
        let cam = StereoCamera::new(head_at_origin());
        let l = cam.eye_position(Eye::Left);
        let r = cam.eye_position(Eye::Right);
        assert!((l.distance(r) - cam.ipd).abs() < 1e-6);
        // Eyes straddle the head position symmetrically.
        assert!(((l + r) * 0.5).distance(cam.head.position) < 1e-6);
    }

    #[test]
    fn eye_offset_rotates_with_head() {
        let mut cam = StereoCamera::new(head_at_origin());
        cam.head.orientation = Quat::from_axis_angle(Vec3::Y, std::f32::consts::FRAC_PI_2);
        let l = cam.eye_position(Eye::Left);
        let r = cam.eye_position(Eye::Right);
        // After a quarter turn about Y, the eye axis lies along Z.
        let axis = (r - l).normalized_or_zero();
        assert!(axis.dot(Vec3::Z).abs() > 0.99, "{axis:?}");
    }

    #[test]
    fn parallax_shifts_opposite_directions() {
        // A point in front of the head projects right-of-center for the
        // left eye and left-of-center for the right eye.
        let fb = Framebuffer::new(200, 200);
        let cam = StereoCamera::new(head_at_origin());
        let p = Vec3::new(0.0, 0.0, 1.0); // 1 m in front (head looks -Z from z=2)
        let (xl, _, _) = fb.project(&cam.mvp(Eye::Left), p).unwrap();
        let (xr, _, _) = fb.project(&cam.mvp(Eye::Right), p).unwrap();
        assert!(xl > 100.0, "left-eye x {xl}");
        assert!(xr < 100.0, "right-eye x {xr}");
        // Disparity shrinks with distance.
        let q = Vec3::new(0.0, 0.0, -30.0);
        let (xlq, _, _) = fb.project(&cam.mvp(Eye::Left), q).unwrap();
        let (xrq, _, _) = fb.project(&cam.mvp(Eye::Right), q).unwrap();
        assert!((xlq - xrq).abs() < (xl - xr).abs());
    }

    #[test]
    fn anaglyph_produces_both_channels() {
        let mut fb = Framebuffer::new(128, 128);
        let cam = StereoCamera::new(head_at_origin());
        let line = vec![Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0)];
        render_anaglyph(&mut fb, &cam, &[(line, 220)]);
        let reds = fb.count_pixels(|c| c.r > 0);
        let blues = fb.count_pixels(|c| c.b > 0);
        assert!(reds > 10, "red pixels {reds}");
        assert!(blues > 10, "blue pixels {blues}");
        // No green anywhere: the two channels are pure.
        assert_eq!(fb.count_pixels(|c| c.g > 0), 0);
        // And the mask was restored.
        assert_eq!(fb.mask(), ColorMask::ALL);
    }

    #[test]
    fn segment_grazing_the_eye_renders_fast() {
        // 1e-5 in front of both eyes, the far endpoint projects ~1e7 px
        // off screen; walking every sample of that stalled a frame for
        // 250 ms.
        let mut fb = Framebuffer::new(640, 480);
        let cam = StereoCamera::new(head_at_origin());
        let head = |x, y, z| cam.head.transform_point(Vec3::new(x, y, z));
        let line = vec![head(0.0, 0.0, -3.0), head(0.3, 0.2, -1.0e-5)];
        let started = std::time::Instant::now();
        render_anaglyph(&mut fb, &cam, &[(line, 200)]);
        assert!(started.elapsed() < std::time::Duration::from_millis(20));
        assert!(fb.count_pixels(|c| c.r > 0) > 100);
        assert!(fb.count_pixels(|c| c.b > 0) > 100);
    }

    #[test]
    fn anaglyph_overlap_holds_both_eyes() {
        // A line far away has near-zero disparity: most of its pixels are
        // drawn by both eyes and must hold red AND blue.
        let mut fb = Framebuffer::new(128, 128);
        let cam = StereoCamera::new(head_at_origin());
        let line = vec![Vec3::new(-2.0, 0.0, -60.0), Vec3::new(2.0, 0.0, -60.0)];
        render_anaglyph(&mut fb, &cam, &[(line, 200)]);
        let purple = fb.count_pixels(|c| c.r > 0 && c.b > 0);
        assert!(purple > 3, "overlap pixels {purple}");
    }
}
