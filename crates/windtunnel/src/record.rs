//! Session recording and replay.
//!
//! §7 lists "development of greater user control over the virtual
//! environment" as further work; the most-requested control in
//! collaborative visualization is *repeatability* — record the command
//! stream of an exploration session and replay it later (against the same
//! dataset, a bigger one, or for a colleague). Because the entire
//! environment is driven by the serialized command stream (§4/§5.1),
//! recording commands-with-timestamps is a complete record of the
//! session.
//!
//! File format: magic `DVWR`, version, then one length-prefixed entry per
//! event: `[u32 micros-since-start] [u8 kind] [u32 len] [payload]` where
//! kind 0 = command (payload is `Command::encode`) and kind 1 = a clock
//! tick (a frame request with `advance = true`; payload empty).

use crate::proto::Command;
use dlib::wire::len_u32;
use dlib::{DlibError, Result};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

const MAGIC: &[u8; 4] = b"DVWR";
const VERSION: u32 = 1;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A command sent to the server.
    Command(Command),
    /// The driving client advanced the shared clock.
    Tick,
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Offset from session start.
    pub at: Duration,
    pub event: Event,
}

/// Records a session's command stream.
pub struct SessionRecorder {
    started: Instant,
    events: Vec<TimedEvent>,
}

impl Default for SessionRecorder {
    fn default() -> Self {
        SessionRecorder::new()
    }
}

impl SessionRecorder {
    pub fn new() -> SessionRecorder {
        SessionRecorder {
            started: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Record a command at the current wall time.
    pub fn command(&mut self, cmd: &Command) {
        self.events.push(TimedEvent {
            at: self.started.elapsed(),
            event: Event::Command(cmd.clone()),
        });
    }

    /// Record a clock tick.
    pub fn tick(&mut self) {
        self.events.push(TimedEvent {
            at: self.started.elapsed(),
            event: Event::Tick,
        });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Write the recording to a file.
    pub fn save(&self, path: &Path) -> Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path).map_err(DlibError::Io)?);
        w.write_all(MAGIC).map_err(DlibError::Io)?;
        w.write_all(&VERSION.to_le_bytes()).map_err(DlibError::Io)?;
        w.write_all(&len_u32(self.events.len()).to_le_bytes())
            .map_err(DlibError::Io)?;
        for ev in &self.events {
            let micros = u32::try_from(ev.at.as_micros()).unwrap_or(u32::MAX);
            w.write_all(&micros.to_le_bytes()).map_err(DlibError::Io)?;
            match &ev.event {
                Event::Command(cmd) => {
                    let payload = cmd.encode();
                    w.write_all(&[0u8]).map_err(DlibError::Io)?;
                    w.write_all(&len_u32(payload.len()).to_le_bytes())
                        .map_err(DlibError::Io)?;
                    w.write_all(&payload).map_err(DlibError::Io)?;
                }
                Event::Tick => {
                    w.write_all(&[1u8]).map_err(DlibError::Io)?;
                    w.write_all(&0u32.to_le_bytes()).map_err(DlibError::Io)?;
                }
            }
        }
        w.flush().map_err(DlibError::Io)?;
        Ok(())
    }
}

/// Load a recording.
pub fn load(path: &Path) -> Result<Vec<TimedEvent>> {
    let mut r = BufReader::new(std::fs::File::open(path).map_err(DlibError::Io)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(DlibError::Io)?;
    if &magic != MAGIC {
        return Err(DlibError::Protocol("not a DVWR recording".into()));
    }
    let mut u32buf = [0u8; 4];
    r.read_exact(&mut u32buf).map_err(DlibError::Io)?;
    if u32::from_le_bytes(u32buf) != VERSION {
        return Err(DlibError::Protocol("unsupported recording version".into()));
    }
    r.read_exact(&mut u32buf).map_err(DlibError::Io)?;
    let count = u32::from_le_bytes(u32buf) as usize;
    if count > 10_000_000 {
        return Err(DlibError::Protocol("absurd event count".into()));
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        r.read_exact(&mut u32buf).map_err(DlibError::Io)?;
        let at = Duration::from_micros(u32::from_le_bytes(u32buf) as u64);
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind).map_err(DlibError::Io)?;
        r.read_exact(&mut u32buf).map_err(DlibError::Io)?;
        let len = u32::from_le_bytes(u32buf) as usize;
        if len > 1 << 20 {
            return Err(DlibError::Protocol("absurd event size".into()));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload).map_err(DlibError::Io)?;
        let event = match kind[0] {
            0 => Event::Command(Command::decode(&payload)?),
            1 => Event::Tick,
            k => return Err(DlibError::Protocol(format!("bad event kind {k}"))),
        };
        events.push(TimedEvent { at, event });
    }
    Ok(events)
}

/// Replay a recording into a connected client. `speed` scales the
/// original timing (0 = as fast as possible). Returns the number of
/// events replayed.
pub fn replay(
    client: &mut crate::client::WindtunnelClient,
    events: &[TimedEvent],
    speed: f32,
) -> Result<usize> {
    let start = Instant::now();
    let mut replayed = 0usize;
    for ev in events {
        if speed > 0.0 {
            let target = ev.at.div_f32(speed);
            let elapsed = start.elapsed();
            if target > elapsed {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "playback pacing: sleeping to honor the recorded frame cadence is the feature"
                )]
                std::thread::sleep(target - elapsed);
            }
        }
        match &ev.event {
            Event::Command(cmd) => client.send(cmd)?,
            Event::Tick => {
                client.frame(true)?;
            }
        }
        replayed += 1;
    }
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::TimeCommand;
    use tracer::ToolKind;
    use vecmath::Vec3;
    use vr::Gesture;

    fn sample_events() -> SessionRecorder {
        let mut rec = SessionRecorder::new();
        rec.command(&Command::AddRake {
            a: Vec3::new(1.0, 2.0, 3.0),
            b: Vec3::new(4.0, 5.0, 6.0),
            seed_count: 8,
            tool: ToolKind::Streakline,
        });
        rec.tick();
        rec.command(&Command::Hand {
            position: Vec3::ONE,
            gesture: Gesture::Fist,
        });
        rec.command(&Command::Time(TimeCommand::Play));
        rec.tick();
        rec
    }

    #[test]
    fn roundtrip_through_file() {
        let rec = sample_events();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("session.dvwr");
        rec.save(&path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), rec.len());
        for (a, b) in loaded.iter().zip(rec.events()) {
            assert_eq!(a.event, b.event);
        }
    }

    #[test]
    fn timestamps_are_monotone() {
        let rec = sample_events();
        for w in rec.events().windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn bad_file_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("junk");
        std::fs::write(&path, b"NOTADVWRFILE").unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let rec = sample_events();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("trunc.dvwr");
        rec.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn replay_reproduces_environment() {
        use crate::server::{serve, ServerOptions};
        use flowfield::{
            dataset::VelocityCoords, CurvilinearGrid, Dataset, DatasetMeta, Dims, VectorField,
        };
        use std::sync::Arc;
        use storage::MemoryStore;
        use vecmath::Aabb;

        let dims = Dims::new(16, 9, 9);
        let grid =
            CurvilinearGrid::cartesian(dims, Aabb::new(Vec3::ZERO, Vec3::new(15.0, 8.0, 8.0)))
                .unwrap();
        let meta = DatasetMeta {
            name: "rec".into(),
            dims,
            timestep_count: 4,
            dt: 0.1,
            coords: VelocityCoords::Grid,
        };
        let fields = (0..4)
            .map(|_| VectorField::from_fn(dims, |_, _, _| Vec3::X))
            .collect();
        let ds = Dataset::new(meta, grid.clone(), fields).unwrap();

        // Record a live session.
        let serve_once = || {
            serve(
                Arc::new(MemoryStore::from_dataset(ds.clone())),
                grid.clone(),
                ServerOptions::default(),
                "127.0.0.1:0",
            )
            .unwrap()
        };
        let h1 = serve_once();
        let mut live = crate::client::WindtunnelClient::connect(h1.addr()).unwrap();
        let mut rec = SessionRecorder::new();
        let cmds = vec![
            Command::AddRake {
                a: Vec3::new(2.0, 4.0, 4.0),
                b: Vec3::new(2.0, 6.0, 4.0),
                seed_count: 3,
                tool: ToolKind::Streamline,
            },
            Command::Time(TimeCommand::Play),
        ];
        for c in &cmds {
            live.send(c).unwrap();
            rec.command(c);
        }
        for _ in 0..3 {
            live.frame(true).unwrap();
            rec.tick();
        }
        let live_frame = live.frame(false).unwrap();
        drop(live);
        h1.shutdown();

        // Replay against a fresh server: same geometry.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("s.dvwr");
        rec.save(&path).unwrap();
        let events = load(&path).unwrap();

        let h2 = serve_once();
        let mut replayed = crate::client::WindtunnelClient::connect(h2.addr()).unwrap();
        let n = replay(&mut replayed, &events, 0.0).unwrap();
        assert_eq!(n, 5);
        let replay_frame = replayed.frame(false).unwrap();
        assert_eq!(replay_frame.timestep, live_frame.timestep);
        assert_eq!(replay_frame.paths, live_frame.paths);
        assert_eq!(replay_frame.rakes.len(), live_frame.rakes.len());
        h2.shutdown();
    }
}
