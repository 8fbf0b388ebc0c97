//! 3-D linear algebra substrate for the distributed virtual windtunnel.
//!
//! The 1992 system manipulated three kinds of geometric state:
//!
//! * velocity vectors and particle positions (here [`Vec3`]),
//! * the 4×4 position/orientation matrices produced by the BOOM head
//!   tracker and the Polhemus hand tracker (here [`Mat4`]), built by "six
//!   successive translations and rotations" exactly as §3 of the paper
//!   describes,
//! * the graphics transformation stack those matrices were concatenated
//!   onto (here [`transform`]).
//!
//! All types are `f32`-based (the paper transfers 12-byte points — three
//! IEEE-754 single-precision floats — over the network; IEEE f32 was the
//! explicitly chosen compile-time option on the Convex) and `repr(C)` so
//! slices of them can be reinterpreted as raw byte payloads by the wire
//! layer without copying.

pub mod aabb;
pub mod bitpack;
pub mod mat3;
pub mod mat4;
pub mod quat;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use mat3::Mat3;
pub use mat4::Mat4;
pub use quat::Quat;
pub use transform::{Pose, TransformStack};
pub use vec3::Vec3;

/// Comparison tolerance used across the workspace for "equal enough"
/// floating-point assertions (single precision accumulates error quickly in
/// long Runge-Kutta integrations).
pub const EPSILON: f32 = 1.0e-5;

/// Returns true when `a` and `b` differ by at most `tol` absolutely, or by
/// `tol` relative to the larger magnitude — the standard mixed test.
#[inline]
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-6, 1e-5));
        assert!(!approx_eq(1.0, 1.1, 1e-5));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1.0e6, 1.0e6 + 5.0, 1e-5));
        assert!(!approx_eq(1.0e6, 1.001e6, 1e-5));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, EPSILON));
        assert!(approx_eq(0.0, 1e-7, EPSILON));
    }
}
