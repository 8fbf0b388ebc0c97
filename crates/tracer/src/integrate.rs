//! Numerical integrators over sampled velocity fields.
//!
//! §5.3: "The integration algorithm for the computation is second-order
//! Runge-Kutta, which requires two accesses of the vector field data from
//! memory each involving eight floating point loads to set up for
//! trilinear interpolation…". RK2 (midpoint) is therefore the default;
//! Euler is provided as the cheap/inaccurate baseline and RK4 as the
//! expensive/accurate one, which the ablation benchmarks compare.

use crate::domain::Domain;
use flowfield::FieldSample;
use vecmath::Vec3;

/// Integration scheme for advancing a particle through a velocity field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Forward Euler: one field access per step.
    Euler,
    /// Midpoint (second-order Runge-Kutta) — the paper's integrator; two
    /// field accesses per step.
    #[default]
    Rk2,
    /// Classic fourth-order Runge-Kutta: four field accesses per step.
    Rk4,
}

impl Integrator {
    /// Field samples per step — the memory-traffic model of §5.3.
    pub fn samples_per_step(&self) -> usize {
        match self {
            Integrator::Euler => 1,
            Integrator::Rk2 => 2,
            Integrator::Rk4 => 4,
        }
    }

    /// Advance a particle at grid coordinate `p` by `dt` through `field`
    /// (whose values are grid-coordinate velocities). Returns the new
    /// canonical coordinate, or `None` when the particle leaves the
    /// domain mid-step.
    pub fn step<F: FieldSample>(
        &self,
        field: &F,
        domain: &Domain,
        p: Vec3,
        dt: f32,
    ) -> Option<Vec3> {
        let p = domain.canonicalize(p)?;
        self.step_from(field, domain, p, field.sample(p)?, dt)
    }

    /// [`Integrator::step`] from a canonical `p` whose `k1 = field.sample(p)`
    /// the caller already holds.
    pub(crate) fn step_from<F: FieldSample>(
        &self,
        field: &F,
        domain: &Domain,
        p: Vec3,
        k1: Vec3,
        dt: f32,
    ) -> Option<Vec3> {
        match self {
            Integrator::Euler => domain.canonicalize(p + k1 * dt),
            Integrator::Rk2 => {
                let mid = domain.canonicalize(p + k1 * (dt * 0.5))?;
                let k2 = field.sample(mid)?;
                domain.canonicalize(p + k2 * dt)
            }
            Integrator::Rk4 => {
                let p2 = domain.canonicalize(p + k1 * (dt * 0.5))?;
                let k2 = field.sample(p2)?;
                let p3 = domain.canonicalize(p + k2 * (dt * 0.5))?;
                let k3 = field.sample(p3)?;
                let p4 = domain.canonicalize(p + k3 * dt)?;
                let k4 = field.sample(p4)?;
                let avg = (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (1.0 / 6.0);
                domain.canonicalize(p + avg * dt)
            }
        }
    }

    /// Step using velocity sampled from two consecutive timestep fields
    /// blended at interpolation factor `alpha` (0 = `f0`, 1 = `f1`) —
    /// used by pathlines, whose integration spans timestep boundaries.
    pub fn step_blended<F: FieldSample>(
        &self,
        f0: &F,
        f1: &F,
        alpha: f32,
        domain: &Domain,
        p: Vec3,
        dt: f32,
    ) -> Option<Vec3> {
        // Wrap the pair in the shared blending sampler and reuse the
        // scheme. `BlendedPair` runs the full lerp even at alpha == 0 so
        // its arithmetic is bit-identical to the fused SoA kernel.
        let blend = flowfield::BlendedPair::new(f0, f1, alpha);
        self.step(&blend, domain, p, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::FieldSample;
    use flowfield::{Dims, VectorField};
    use proptest::prelude::*;

    /// Constant velocity (1, 0.5, 0.25) in grid coords.
    fn const_field() -> VectorField {
        VectorField::from_fn(Dims::new(8, 8, 8), |_, _, _| Vec3::new(1.0, 0.5, 0.25))
    }

    /// Solid-body rotation about the grid-center axis (i=c, j=c), ω = 1.
    fn vortex_field(n: u32) -> VectorField {
        let c = (n - 1) as f32 / 2.0;
        VectorField::from_fn(Dims::new(n, n, 3), |i, j, _| {
            Vec3::new(-(j as f32 - c), i as f32 - c, 0.0)
        })
    }

    #[test]
    fn euler_step_on_constant_field() {
        let f = const_field();
        let d = Domain::boxed(f.dims());
        let p = Integrator::Euler
            .step(&f, &d, Vec3::splat(1.0), 2.0)
            .unwrap();
        assert!(p.distance(Vec3::new(3.0, 2.0, 1.5)) < 1e-5);
    }

    #[test]
    fn all_schemes_agree_on_constant_field() {
        let f = const_field();
        let d = Domain::boxed(f.dims());
        let start = Vec3::splat(2.0);
        let e = Integrator::Euler.step(&f, &d, start, 1.0).unwrap();
        let r2 = Integrator::Rk2.step(&f, &d, start, 1.0).unwrap();
        let r4 = Integrator::Rk4.step(&f, &d, start, 1.0).unwrap();
        assert!(e.distance(r2) < 1e-5);
        assert!(e.distance(r4) < 1e-5);
    }

    #[test]
    fn step_out_of_domain_is_none() {
        let f = const_field();
        let d = Domain::boxed(f.dims());
        assert!(Integrator::Rk2
            .step(&f, &d, Vec3::splat(6.9), 10.0)
            .is_none());
        assert!(Integrator::Rk2
            .step(&f, &d, Vec3::splat(-1.0), 0.1)
            .is_none());
    }

    #[test]
    fn rk2_conserves_radius_better_than_euler() {
        let f = vortex_field(33);
        let d = Domain::boxed(f.dims());
        let c = Vec3::new(16.0, 16.0, 1.0);
        let start = c + Vec3::new(5.0, 0.0, 0.0);
        let dt = 0.05;
        let steps = 200; // a bit over one and a half orbits
        let run = |scheme: Integrator| {
            let mut p = start;
            for _ in 0..steps {
                p = scheme.step(&f, &d, p, dt).expect("stayed inside");
            }
            ((p - c).length() - 5.0).abs()
        };
        let euler_err = run(Integrator::Euler);
        let rk2_err = run(Integrator::Rk2);
        let rk4_err = run(Integrator::Rk4);
        assert!(
            rk2_err < euler_err * 0.25,
            "rk2 {rk2_err} vs euler {euler_err}"
        );
        assert!(rk4_err < rk2_err + 1e-3, "rk4 {rk4_err} vs rk2 {rk2_err}");
    }

    #[test]
    fn rk4_orbit_angle_is_accurate() {
        let f = vortex_field(33);
        let d = Domain::boxed(f.dims());
        let c = Vec3::new(16.0, 16.0, 1.0);
        let mut p = c + Vec3::new(4.0, 0.0, 0.0);
        let dt = 0.01;
        // ω = 1 rad per unit time ⇒ after π time, half orbit.
        let steps = (std::f32::consts::PI / dt) as usize;
        for _ in 0..steps {
            p = Integrator::Rk4.step(&f, &d, p, dt).unwrap();
        }
        assert!(p.distance(c + Vec3::new(-4.0, 0.0, 0.0)) < 0.05);
    }

    #[test]
    fn samples_per_step_counts() {
        assert_eq!(Integrator::Euler.samples_per_step(), 1);
        assert_eq!(Integrator::Rk2.samples_per_step(), 2);
        assert_eq!(Integrator::Rk4.samples_per_step(), 4);
    }

    #[test]
    fn blended_step_interpolates_fields() {
        let dims = Dims::new(6, 6, 6);
        let f0 = VectorField::from_fn(dims, |_, _, _| Vec3::X);
        let f1 = VectorField::from_fn(dims, |_, _, _| Vec3::Y);
        let d = Domain::boxed(dims);
        let start = Vec3::splat(2.0);
        let half = Integrator::Euler
            .step_blended(&f0, &f1, 0.5, &d, start, 1.0)
            .unwrap();
        assert!(half.distance(start + Vec3::new(0.5, 0.5, 0.0)) < 1e-5);
        let zero = Integrator::Euler
            .step_blended(&f0, &f1, 0.0, &d, start, 1.0)
            .unwrap();
        assert!(zero.distance(start + Vec3::X) < 1e-5);
    }

    #[test]
    fn periodic_wrap_during_step() {
        // Constant +i velocity on an O-grid domain: the particle circles
        // forever instead of exiting.
        let f = VectorField::from_fn(Dims::new(8, 8, 8), |_, _, _| Vec3::X);
        let d = Domain::o_grid(f.dims());
        let mut p = Vec3::new(6.5, 1.0, 1.0);
        for _ in 0..100 {
            p = Integrator::Rk2.step(&f, &d, p, 0.5).unwrap();
        }
        assert!(p.x >= 0.0 && p.x < 7.0);
    }

    proptest! {
        #[test]
        fn prop_step_scales_linearly_on_uniform(dt in 0.01f32..0.5, x in 1.0f32..5.0) {
            let f = const_field();
            let d = Domain::boxed(f.dims());
            let start = Vec3::new(x, 2.0, 2.0);
            let p = Integrator::Rk2.step(&f, &d, start, dt).unwrap();
            let expected = start + Vec3::new(1.0, 0.5, 0.25) * dt;
            prop_assert!(p.distance(expected) < 1e-4);
        }

        #[test]
        fn prop_reverse_step_returns(dt in 0.01f32..0.2, x in 2.0f32..5.0, y in 2.0f32..5.0) {
            // RK2 forward then backward lands near the start (it is not an
            // exactly reversible scheme, so allow O(dt³) slack).
            let f = vortex_field(9);
            let d = Domain::boxed(f.dims());
            let start = Vec3::new(x, y, 1.0);
            if let Some(fwd) = Integrator::Rk2.step(&f, &d, start, dt) {
                if let Some(back) = Integrator::Rk2.step(&f, &d, fwd, -dt) {
                    prop_assert!(back.distance(start) < 20.0 * dt * dt * dt + 1e-4);
                }
            }
        }
    }
}
