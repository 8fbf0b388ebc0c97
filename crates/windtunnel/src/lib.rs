//! The distributed virtual windtunnel — §5 of the paper.
//!
//! "Each workstation reads its input devices and sends their commands to
//! the remote system. The remote system updates the virtual environment
//! including if necessary loading the data for the current timestep,
//! computes the current visualizations, and transfers the environment
//! state back to the workstations. Each workstation renders this state to
//! its virtual environment display device."
//!
//! * [`time`] — playback control: the flow "can be sped up, slowed down,
//!   run backwards, or stopped completely" (§2);
//! * [`mod@env`] — the shared environment: rakes, first-come-first-served
//!   grab locking (§5.1), user head poses;
//! * [`proto`] — the command/geometry wire protocol: commands upstream
//!   (hand pose, gestures, time control), computed paths downstream;
//! * [`interaction`] — server-side hand-gesture interpretation: fist
//!   near a handle grabs, movement drags, open releases;
//! * [`compute`] — per-frame tool computation over the timestep store;
//! * [`server`] — the remote system: a dlib server wiring it together;
//! * [`client`] — the workstation side: commands out, geometry in,
//!   frames rendered through the `vr` substrate;
//! * [`session`] — figure 9's workstation split: the network conversation
//!   on a background thread, rendering free-running on the latest state;
//! * [`governor`] — automatic rich-environment/frame-rate tradeoff
//!   (§1.2) by scaling streamline detail to the compute budget;
//! * [`desktop`] — keyboard/mouse input producing the same command
//!   stream as the glove (§3, §6);
//! * [`record`] — session recording and replay (the serialized command
//!   stream *is* the session).

pub mod client;
pub mod compute;
pub mod desktop;
pub mod env;
pub mod governor;
pub mod interaction;
pub mod proto;
pub mod record;
pub mod server;
pub mod session;
pub mod time;

pub use client::{ResilientClient, RetainedScene, WindtunnelClient};
pub use env::{EnvError, EnvironmentState, RakeId};
pub use governor::FrameGovernor;
pub use proto::{Command, DeltaFrame, DeltaRequest, GeometryFrame, PathKind, TimeCommand};
pub use server::{serve, ServerOptions, WindtunnelHandle};
pub use session::BackgroundSession;
pub use time::{PlaybackMode, TimeController};
