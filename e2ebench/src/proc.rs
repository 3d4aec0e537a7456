//! Child processes: building the CLI, timing one `tclose` run with its
//! peak RSS, and the long-lived daemon.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child`, returning its exit status word and peak RSS in KiB.
fn reap(child: &Child) -> io::Result<(i32, u64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, correctly laid out
        // out-parameters, and `child.id()` is our own unreaped child.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 {
            return Ok((status, usage.maxrss_kb.max(0) as u64));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// True when a `wait4` status word says "exited with code 0".
fn exited_cleanly(status: i32) -> bool {
    status & 0x7f == 0 && (status >> 8) & 0xff == 0
}

/// One timed run of a child process.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// Exited with code 0.
    pub ok: bool,
}

/// Runs `cmd` to completion with stdout/stderr captured in `log`,
/// timing it from spawn to exit and reading its peak RSS from `wait4`.
pub fn run_timed(cmd: &mut Command, log: &Path) -> io::Result<Timed> {
    let out = File::create(log)?;
    let err = out.try_clone()?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err));
    let started = Instant::now();
    let child = cmd.spawn()?;
    let (status, rss_kb) = reap(&child)?;
    let wall = started.elapsed();
    Ok(Timed {
        wall,
        peak_rss_mb: rss_kb as f64 / 1024.0,
        ok: exited_cleanly(status),
    })
}

/// Runs `cmd` and fails with its log when it exits nonzero.
pub fn run_ok(cmd: &mut Command, log: &Path) -> Result<Timed, String> {
    let t = run_timed(cmd, log).map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !t.ok {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        return Err(format!("{cmd:?} failed:\n{text}"));
    }
    Ok(t)
}

/// Peak RSS (`VmHWM`) of a live process, MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the `tclose` CLI from the checkout at `root` into the same
/// target directory as this benchmark binary and returns its path.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let release_dir = exe.parent().ok_or("benchmark binary has no directory")?;
    let target_dir = release_dir
        .parent()
        .ok_or("benchmark binary is not in a target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "tclose-cli", "--bin", "tclose", "--target-dir"])
        .arg(target_dir)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the tclose CLI in {} failed",
            root.display()
        ));
    }
    Ok(release_dir.join("tclose"))
}

/// A running `tclose serve` process, shut down (or killed) on drop.
pub struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    /// Spawns `cmd` with its output captured in `log`.
    pub fn spawn(cmd: &mut Command, log: &Path) -> io::Result<Daemon> {
        let out = File::create(log)?;
        let err = out.try_clone()?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()?;
        Ok(Daemon { child: Some(child) })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits up to `timeout` for the daemon to exit by itself (after a
    /// shutdown request); kills it past the deadline. True on a clean
    /// exit.
    pub fn wait(mut self, timeout: Duration) -> bool {
        let Some(mut child) = self.child.take() else {
            return false;
        };
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
