//! Synthetic unsteady-flow generation for the distributed virtual
//! windtunnel.
//!
//! The paper visualizes *pre-computed* solutions of the time-accurate
//! Navier-Stokes equations — specifically Jespersen & Levit's unsteady flow
//! past a **tapered cylinder** (64×64×32 grid, 800 timesteps). That dataset
//! is not publicly distributable, so this crate builds the closest
//! synthetic equivalents (see DESIGN.md §2 for the substitution argument):
//!
//! * [`analytic`] — exactly-solvable steady fields (uniform, solid-body
//!   vortex, shear, ABC) used to validate the tracer against closed-form
//!   particle paths;
//! * [`ogrid`] — the curvilinear O-grid around a tapered cylinder, the
//!   same topology the NAS dataset used;
//! * [`tapered_cylinder`] — an analytic unsteady model of the flow: 2-D
//!   potential flow around each spanwise cross-section superposed with a
//!   von Kármán vortex street whose shedding frequency varies along the
//!   span (the taper effect the dataset is famous for — oblique shedding
//!   and vortex dislocations);
//! * [`solver`] — an honest 2-D incompressible projection-method
//!   Navier-Stokes solver with an immersed cylinder, solved independently
//!   per spanwise layer (each layer sees its own cylinder radius) to build
//!   genuinely simulation-derived unsteady 3-D data.

pub mod analytic;
pub mod ogrid;
pub mod solver;
pub mod tapered_cylinder;

pub use ogrid::OGridSpec;
pub use tapered_cylinder::TaperedCylinderFlow;
