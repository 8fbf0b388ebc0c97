//! The figure-9 workstation split: network conversation on its own
//! thread, rendering free-running on the latest received state.
//!
//! §5.2: "On the workstation, at least two processors are desirable so
//! the rendering of the graphics and the handling of the network traffic
//! can be run in parallel. In this way the graphics performance is not
//! tied to the network and remote computation performance, so the
//! head-tracked display of the virtual environment can run at very high
//! rates."
//!
//! [`BackgroundSession`] owns the dlib conversation on a worker thread:
//! commands are queued in, the latest [`GeometryFrame`] is published out
//! through a mailbox, and the render loop reads that mailbox at whatever
//! rate the display runs — never blocking on the network.

// A per-frame service file: a debug print here is a latency spike for
// every client (stderr is a blocking global lock).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crate::client::ResilientClient;
use crate::proto::{Command, GeometryFrame, HelloReply};
use crossbeam_channel::{unbounded, Receiver, Sender};
use dlib::{DlibError, Result};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Outbound {
    Command(Command),
    Stop,
}

/// Shared mailbox between the network thread and the render loop.
struct Mailbox {
    latest: Mutex<Option<GeometryFrame>>,
    frames_fetched: AtomicU64,
    errors: AtomicU64,
    running: AtomicBool,
}

/// A windtunnel session running its network conversation on a background
/// thread.
pub struct BackgroundSession {
    hello: HelloReply,
    tx: Sender<Outbound>,
    mailbox: Arc<Mailbox>,
    worker: Option<JoinHandle<()>>,
}

impl BackgroundSession {
    /// Connect and start the conversation. `drive` makes this session the
    /// one that advances the shared clock with each frame request.
    ///
    /// The worker rides on [`ResilientClient`], so a dropped server
    /// connection shows up as counted errors (skipped frames) and heals
    /// by itself once the server is reachable again — the render loop
    /// keeps spinning on the last good frame throughout.
    pub fn connect(addr: SocketAddr, drive: bool) -> Result<BackgroundSession> {
        let mut client = ResilientClient::connect(addr)?;
        let hello = client.hello();
        let (tx, rx): (Sender<Outbound>, Receiver<Outbound>) = unbounded();
        let mailbox = Arc::new(Mailbox {
            latest: Mutex::new(None),
            frames_fetched: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            running: AtomicBool::new(true),
        });
        let mb = Arc::clone(&mailbox);
        let worker = std::thread::Builder::new()
            .name("dvw-session".into())
            .spawn(move || {
                loop {
                    // Drain all queued commands first (cheap, ordered).
                    loop {
                        match rx.try_recv() {
                            Ok(Outbound::Command(cmd)) => {
                                if client.send(&cmd).is_err() {
                                    mb.errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(Outbound::Stop) => {
                                mb.running.store(false, Ordering::SeqCst);
                                return;
                            }
                            Err(_) => break,
                        }
                    }
                    // One frame round trip (the slow part the render loop
                    // no longer waits on). Delta transport: after a
                    // reconnect the stale baseline falls back to a
                    // keyframe automatically.
                    match client.frame_delta(drive) {
                        Ok(frame) => {
                            *mb.latest.lock() = Some(frame);
                            mb.frames_fetched.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            mb.errors.fetch_add(1, Ordering::Relaxed);
                            // Back off briefly; the server may be mid-
                            // restart or the link congested.
                            #[allow(clippy::disallowed_methods, reason = "reconnect backoff between dial attempts; nothing else runs on this thread")]
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                    }
                    if !mb.running.load(Ordering::SeqCst) {
                        return;
                    }
                }
            })
            .map_err(DlibError::Io)?;
        Ok(BackgroundSession {
            hello,
            tx,
            mailbox,
            worker: Some(worker),
        })
    }

    /// Session metadata from the handshake.
    pub fn hello(&self) -> &HelloReply {
        &self.hello
    }

    /// Queue a command (sent in order by the network thread).
    pub fn send(&self, cmd: Command) {
        let _ = self.tx.send(Outbound::Command(cmd));
    }

    /// The most recent frame, if any has arrived yet. Cloning the frame
    /// keeps the mailbox lock short — render with it as long as you like.
    pub fn latest_frame(&self) -> Option<GeometryFrame> {
        self.mailbox.latest.lock().clone()
    }

    /// How many frames the network thread has fetched.
    pub fn frames_fetched(&self) -> u64 {
        self.mailbox.frames_fetched.load(Ordering::Relaxed)
    }

    /// Network errors observed (session keeps retrying).
    pub fn errors(&self) -> u64 {
        self.mailbox.errors.load(Ordering::Relaxed)
    }

    /// Stop the conversation and join the thread.
    pub fn stop(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.mailbox.running.store(false, Ordering::SeqCst);
        let _ = self.tx.send(Outbound::Stop);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundSession {
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.stop_impl();
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests sleep to let real threads make progress"
)]
mod tests {
    use super::*;
    use crate::proto::TimeCommand;
    use crate::server::{serve, ServerOptions};
    use flowfield::{
        dataset::VelocityCoords, CurvilinearGrid, Dataset, DatasetMeta, Dims, VectorField,
    };
    use storage::MemoryStore;
    use tracer::ToolKind;
    use vecmath::{Aabb, Vec3};

    fn test_server() -> crate::server::WindtunnelHandle {
        let dims = Dims::new(16, 9, 9);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "bg".into(),
            dims,
            timestep_count: 6,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..6)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();
        serve(
            std::sync::Arc::new(MemoryStore::from_dataset(ds)),
            grid,
            ServerOptions::default(),
            "127.0.0.1:0",
        )
        .unwrap()
    }

    fn wait_for<T>(mut f: impl FnMut() -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if let Some(v) = f() {
                return v;
            }
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn frames_flow_without_blocking_the_caller() {
        let server = test_server();
        let session = BackgroundSession::connect(server.addr(), false).unwrap();
        assert_eq!(session.hello().dataset_name, "bg");
        let frame = wait_for(|| session.latest_frame());
        assert_eq!(frame.timestep, 0);
        // The fetch counter climbs on its own.
        let n0 = session.frames_fetched();
        wait_for(|| (session.frames_fetched() > n0 + 3).then_some(()));
        session.stop();
        server.shutdown();
    }

    #[test]
    fn queued_commands_are_applied_in_order() {
        let server = test_server();
        let session = BackgroundSession::connect(server.addr(), false).unwrap();
        session.send(Command::AddRake {
            a: Vec3::new(2.0, 2.0, 4.0),
            b: Vec3::new(2.0, 6.0, 4.0),
            seed_count: 3,
            tool: ToolKind::Streamline,
        });
        session.send(Command::Time(TimeCommand::Jump(2)));
        let frame = wait_for(|| {
            session
                .latest_frame()
                .filter(|f| !f.rakes.is_empty() && f.timestep == 2)
        });
        assert_eq!(frame.rakes.len(), 1);
        assert_eq!(frame.paths.len(), 3);
        session.stop();
        server.shutdown();
    }

    #[test]
    fn driver_session_advances_the_clock() {
        let server = test_server();
        let driver = BackgroundSession::connect(server.addr(), true).unwrap();
        driver.send(Command::Time(TimeCommand::Play));
        let frame = wait_for(|| driver.latest_frame().filter(|f| f.timestep >= 3));
        assert!(frame.timestep >= 3);
        driver.stop();
        server.shutdown();
    }

    #[test]
    fn session_survives_server_death_with_errors_counted() {
        let server = test_server();
        let session = BackgroundSession::connect(server.addr(), false).unwrap();
        wait_for(|| session.latest_frame());
        server.shutdown();
        wait_for(|| (session.errors() > 0).then_some(()));
        // Stop cleanly even though the server is gone.
        session.stop();
    }

    #[test]
    fn drop_stops_cleanly() {
        let server = test_server();
        {
            let session = BackgroundSession::connect(server.addr(), false).unwrap();
            wait_for(|| session.latest_frame());
        } // dropped
        server.shutdown();
    }
}
