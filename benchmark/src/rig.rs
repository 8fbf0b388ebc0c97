//! The rig every workload runs on: a generated dataset in a scratch
//! directory and this binary again, in `serve` mode, as a child process.

use crate::spans::{self, Span};
use crate::{BenchError, Result};
use flowfield::Dims;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything the benchmark writes lives here (relative to the directory
/// it is run from, the repository root).
pub const OUT_DIR: &str = "benchmark/out";

/// How long the child may take to report its port.
const CHILD_START_TIMEOUT: Duration = Duration::from_secs(20);

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Problem scale. `FULL` is the paper's tapered cylinder; `QUICK` is a
/// smoke-test scale that walks every code path in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub dims: Dims,
    pub timesteps: usize,
    /// Timed frames a run never stops short of, so the reported tail
    /// percentile keeps its ten samples beyond it however slow a frame is.
    pub min_frames: usize,
    /// Timed frames a run never exceeds.
    pub max_frames: usize,
    /// Rake seed counts and warm-up lengths are divided by this.
    pub shrink: u32,
    /// Full set-ups per run whose median is `setup_s`.
    pub setups: usize,
}

impl Profile {
    pub const FULL: Profile = Profile {
        dims: Dims::TAPERED_CYLINDER,
        timesteps: 48,
        min_frames: 200,
        max_frames: usize::MAX,
        shrink: 1,
        setups: 3,
    };

    pub const QUICK: Profile = Profile {
        dims: Dims::new(33, 17, 9),
        timesteps: 8,
        min_frames: 10,
        max_frames: 40,
        shrink: 10,
        setups: 1,
    };
}

/// A scratch directory under [`OUT_DIR`], removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create() -> Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Generate the tapered-cylinder dataset at the profile's scale and write
/// it as a v2 (compressed) container.
pub fn write_dataset(dir: &Path, profile: &Profile) -> Result<()> {
    let flow = cfd::tapered_cylinder::TaperedCylinderFlow {
        spec: cfd::OGridSpec {
            dims: profile.dims,
            ..cfd::OGridSpec::default()
        },
        ..cfd::tapered_cylinder::TaperedCylinderFlow::default()
    };
    let dataset =
        cfd::tapered_cylinder::generate_dataset(&flow, "benchmark", profile.timesteps, 0.25)?;
    flowfield::format::write_dataset_v2(dir, &dataset)?;
    Ok(())
}

/// The `serve` child. Dropping it kills the process, so a panicking or
/// failing driver never leaves a server behind.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Start the child on `data_dir` and wait for its port.
    pub fn spawn(data_dir: &Path, traced: bool) -> Result<(ServerChild, SocketAddr)> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--data")
            .arg(data_dir)
            .arg("--trace")
            .arg(if traced { "1" } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| BenchError::new("child has no stdout pipe"))?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(|l| l.ok()) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = ServerChild {
            child,
            stdin,
            lines,
            reader: Some(reader),
        };
        let port = server.read_port()?;
        Ok((server, SocketAddr::from(([127, 0, 0, 1], port))))
    }

    fn read_port(&mut self) -> Result<u16> {
        match self.lines.recv_timeout(CHILD_START_TIMEOUT) {
            Ok(line) => line
                .strip_prefix("port ")
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| {
                    BenchError::new(format!("serve child printed '{line}' instead of its port"))
                }),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(BenchError::new(format!(
                "serve child printed no port within {CHILD_START_TIMEOUT:?}"
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = self.child.wait()?;
                Err(BenchError::new(format!(
                    "serve child died before printing its port ({status})"
                )))
            }
        }
    }

    fn proc_file(&self, name: &str) -> Result<String> {
        Ok(std::fs::read_to_string(format!(
            "/proc/{}/{name}",
            self.child.id()
        ))?)
    }

    /// CPU seconds (user + system, all threads, dead ones included) the
    /// child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64> {
        parse_cpu_ticks(&self.proc_file("stat")?)
            .map(|ticks| ticks as f64 / CLOCK_TICKS_PER_SEC)
            .ok_or_else(|| BenchError::new("cannot parse /proc/<pid>/stat of the serve child"))
    }

    /// Peak resident set of the child so far, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64> {
        parse_vm_hwm_kib(&self.proc_file("status")?)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| BenchError::new("no VmHWM in /proc/<pid>/status of the serve child"))
    }

    /// Close the child's stdin (its cue to dump and exit), collect the
    /// spans it reports, and wait for it to end.
    pub fn finish(mut self) -> Result<Vec<Span>> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(BenchError::new(format!("serve child failed ({status})")));
        }
        Ok(self
            .lines
            .try_iter()
            .filter_map(|l| spans::from_wire_line(&l))
            .collect())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After `finish` the child is already reaped and both calls are
        // harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// itself contain spaces or parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_with_awkward_command_name() {
        let stat = "1234 (dvw bench) x) S 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn reads_own_proc_files() {
        let me = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_cpu_ticks(&me).is_some());
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm_kib(&status).unwrap() > 0);
    }
}
