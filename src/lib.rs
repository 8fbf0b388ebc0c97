//! Umbrella crate for the Distributed Virtual Windtunnel reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use distributed_virtual_windtunnel as dvw;`.

pub use cfd;
pub use dlib;
pub use flowfield;
pub use storage;
pub use tracer;
pub use vecmath;
pub use vr;
pub use windtunnel;
