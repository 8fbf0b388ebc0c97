//! Curvilinear grids, unsteady velocity fields and the on-disk dataset
//! format for the distributed virtual windtunnel.
//!
//! §1.1 of the paper: a *flowfield* is the time-dependent velocity vector
//! field of a CFD solution, represented as a sequence of 3-D velocity
//! fields, one per *timestep*. The fields live on *curvilinear grids* that
//! store the physical position of every grid node alongside the velocity at
//! that node.
//!
//! The crate provides:
//!
//! * [`Dims`] — structured-grid dimensions and index arithmetic,
//! * [`VectorField`] (array-of-structs, the one layout the server samples)
//!   and [`VectorFieldSoA`] (structure-of-arrays, the layout Table 3's
//!   "vectorized" Convex kernel wants) with trilinear sampling at
//!   fractional grid coordinates,
//! * [`CurvilinearGrid`] — node positions, grid↔physical mapping and the
//!   Jacobian machinery that converts physical velocities to
//!   grid-coordinate velocities (the §2.1 trick that avoids point-location
//!   searches during integration),
//! * [`dataset`] — dataset metadata and the in-memory timestep series,
//! * [`mod@format`] — the binary file format (PLOT3D-flavoured) used by the
//!   disk-resident store.

pub mod blend;
pub mod codec;
pub mod dataset;
pub mod dims;
pub mod field;
pub mod format;
pub mod grid;
pub mod scalar;

pub use blend::{BlendedPair, BlendedPairSoA};
pub use dataset::{Dataset, DatasetMeta};
pub use dims::Dims;
pub use field::{FieldSample, VectorField, VectorFieldSoA};
pub use grid::CurvilinearGrid;
pub use scalar::ScalarField;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum FieldError {
    /// The data length does not match `dims.point_count()`.
    LengthMismatch { expected: usize, actual: usize },
    /// Dimensions too small for interpolation (need ≥ 2 in each direction).
    DegenerateDims(Dims),
    /// A grid cell is singular (zero Jacobian determinant).
    SingularCell { i: usize, j: usize, k: usize },
    /// I/O failure in the file format layer.
    Io(std::io::Error),
    /// Malformed file contents (structural: bad magic, bad version, a
    /// chunk table that does not describe the dims). Re-reading the same
    /// file cannot help.
    Format(String),
    /// Corrupt file *content*: a checksum mismatch, a torn/truncated
    /// payload, or an undecodable compressed stream. Unlike [`Format`],
    /// this is the signature of a bad read — a retry may return clean
    /// bytes, and chunked containers can be salvaged chunk by chunk.
    ///
    /// [`Format`]: FieldError::Format
    Corrupt(String),
    /// The timestep was quarantined by a resilient store after exhausting
    /// its retry budget; no further I/O is attempted for it.
    Quarantined { index: usize },
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match grid point count {expected}"
                )
            }
            FieldError::DegenerateDims(d) => {
                write!(
                    f,
                    "grid dims {}x{}x{} too small for interpolation",
                    d.ni, d.nj, d.nk
                )
            }
            FieldError::SingularCell { i, j, k } => {
                write!(f, "curvilinear cell ({i},{j},{k}) has a singular Jacobian")
            }
            FieldError::Io(e) => write!(f, "I/O error: {e}"),
            FieldError::Format(s) => write!(f, "malformed dataset file: {s}"),
            FieldError::Corrupt(s) => write!(f, "corrupt dataset file: {s}"),
            FieldError::Quarantined { index } => {
                write!(
                    f,
                    "timestep {index} is quarantined after repeated read faults"
                )
            }
        }
    }
}

impl std::error::Error for FieldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FieldError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FieldError {
    fn from(e: std::io::Error) -> Self {
        FieldError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, FieldError>;
