#![deny(unsafe_op_in_unsafe_fn, unused_must_use)]
//! Virtual-environment substrate: the hardware of §3, simulated.
//!
//! The 1992 interface was a boom-mounted stereo CRT display (BOOM), a VPL
//! DataGlove II with a Polhemus tracker, and an SGI VGX rendering red/blue
//! two-channel stereo. None of that hardware exists here, so this crate
//! implements each device's *math and behaviour* behind a synthetic input
//! stream (see DESIGN.md §2):
//!
//! * [`boom`] — the six-joint counterweighted yoke: optical encoder
//!   angles → 4×4 head pose "by six successive translations and
//!   rotations", exactly as §3 describes, including encoder quantization
//!   and joint limits;
//! * [`glove`] — hand pose + ten finger-bend sensors, per-user
//!   calibration, and the gesture recognizer (fist = grab, point, open);
//! * [`stereo`] — per-eye view/projection from a head pose;
//! * [`render`] — a software line/point rasterizer with Z-buffer and
//!   per-channel **writemask**, reproducing the paper's stereo trick:
//!   left eye drawn in red shades, Z cleared, right eye drawn in blue
//!   behind a writemask that protects the red bit planes;
//! * [`ppm`] — image output for the figure-regeneration harness.

pub mod boom;
pub mod glove;
pub mod ppm;
pub mod render;
pub mod stereo;

pub use boom::{Boom, BoomGeometry, BoomJoint};
pub use glove::{DataGlove, Gesture, GloveCalibration, GloveReading};
pub use render::{ColorMask, Framebuffer, Rgb};
pub use stereo::StereoCamera;
