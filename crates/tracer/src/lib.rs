//! Flow-visualization tools for the distributed virtual windtunnel.
//!
//! §2.1 of the paper defines the three tools, all built on injecting
//! virtual particles at *seed points* arranged in *rakes* and integrating
//! the velocity field:
//!
//! * **streamline** — integral curve of the *instantaneous* field through a
//!   seed ([`fn@streamline`]),
//! * **particle path** — locus of one fluid element over time, incrementing
//!   the timestep with each integration ([`fn@pathline`]),
//! * **streakline** — locus of all elements that previously passed through
//!   the seed; every frame all particles advance one step in the *current*
//!   field and fresh particles are injected at the seeds
//!   ([`streakline`]).
//!
//! Integration is second-order Runge-Kutta (§5.3; Euler and RK4 are also
//! provided) and runs in **grid coordinates** so no point-location search
//! is ever needed (§2.1). The O-grid's angular seam is handled by
//! [`Domain`], which wraps periodic axes.
//!
//! The paper's §5.3 performance study — scalar code parallelized across
//! streamlines vs. code vectorized across streamlines — is reproduced by
//! the [`batch`] kernels; [`benchmark`] packages the exact benchmark
//! scenario (100 streamlines × 200 points).

pub mod batch;
pub mod benchmark;
pub mod domain;
pub mod integrate;
pub mod isosurface;
pub mod pathline;
pub mod seed;
pub mod streakline;
pub mod streamline;

pub use batch::{
    trace_batch_parallel, trace_batch_physical, trace_batch_scalar, trace_batch_vector,
    trace_batch_vector_parallel,
};
pub use domain::Domain;
pub use integrate::Integrator;
pub use isosurface::{isosurface, Triangle};
pub use pathline::{pathline, PathlineConfig};
pub use seed::{Handle, Rake, ToolKind};
pub use streakline::{AdvanceStats, StagnationPolicy, Streakline, StreaklineConfig};
pub use streamline::{streamline, streamline_physical, TraceConfig};

/// A computed path: polyline vertices in grid coordinates. Convert to
/// physical space with `CurvilinearGrid::path_to_physical` before
/// rendering or shipping to a client.
pub type Polyline = Vec<vecmath::Vec3>;
