//! Child processes under test: spawning, readiness, peak memory, and a
//! guard that kills and reaps them on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Owns a child process; dropping it (normal return, early `?`, or a panic
/// unwinding through the caller) kills the child and waits for it, so a
/// failed run never leaves a bound port or a zombie behind.
#[derive(Debug)]
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    /// Spawn `program args...` with stdout piped and stderr inherited.
    ///
    /// # Errors
    ///
    /// Names the program when it cannot be started.
    pub fn spawn(program: &Path, args: &[&str]) -> Result<Self, String> {
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        Ok(Self { child })
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Take the child's stdout pipe (once).
    ///
    /// # Errors
    ///
    /// Fails if the pipe was already taken.
    pub fn take_stdout(&mut self) -> Result<ChildStdout, String> {
        self.child
            .stdout
            .take()
            .ok_or_else(|| "child stdout already taken".to_string())
    }

    /// Wait for the child to exit, sampling its peak resident set every
    /// `poll` meanwhile. Returns the exit success flag and the last peak
    /// seen (the kernel drops a process's memory counters at exit, so the
    /// peak is read while it still runs).
    ///
    /// # Errors
    ///
    /// Propagates wait failures.
    pub fn wait_sampling_peak(&mut self, poll: Duration) -> Result<(bool, Option<u64>), String> {
        let mut peak = None;
        loop {
            if let Some(kb) = vm_hwm_kb(self.pid()) {
                peak = Some(kb);
            }
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((status.success(), peak)),
                Ok(None) => std::thread::sleep(poll),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // Errors mean the child already exited; reaping is all that is left.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Confines this process — the threads it starts from now on, and the
/// children it spawns — to the first CPU it may run on, until dropped.
///
/// A closed loop of small requests over loopback is a chain of wake-ups;
/// where the scheduler places the waking threads changed serve_hot's
/// throughput by up to 2× between otherwise identical runs on a two-CPU
/// host, while on one CPU it repeats within a few percent. Uses `taskset`
/// (util-linux), since the standard library cannot set affinity.
#[derive(Debug)]
pub struct Pinned {
    original: String,
}

impl Pinned {
    /// Pin to the first allowed CPU.
    ///
    /// # Errors
    ///
    /// Fails if the allowed-CPU list is unreadable or `taskset` fails.
    pub fn first_cpu() -> Result<Self, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading /proc/self/status: {e}"))?;
        let original = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|l| l.trim().to_string())
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        let first: String = original.chars().take_while(char::is_ascii_digit).collect();
        set_affinity(&first)?;
        Ok(Self { original })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Best effort: a failure leaves later children pinned, which only
        // slows them.
        let _ = set_affinity(&self.original);
    }
}

fn set_affinity(cpus: &str) -> Result<(), String> {
    let status = Command::new("taskset")
        .args(["-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run taskset (util-linux) to pin the benchmark: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset -p -c {cpus} failed: {status}"))
    }
}

/// Peak resident set size (`VmHWM`, KiB) of a live process.
#[must_use]
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// The two programs under test, located before any run starts.
#[derive(Debug, Clone)]
pub struct Programs {
    /// `ntv` (the `serve` subcommand is the query service).
    pub ntv: PathBuf,
    /// `repro` (every table and figure of the paper).
    pub repro: PathBuf,
}

impl Programs {
    /// Locate `ntv` and `repro` in `bin_dir`.
    ///
    /// # Errors
    ///
    /// Names each missing executable and how to build it.
    pub fn locate(bin_dir: &Path) -> Result<Self, String> {
        let find = |name: &str| {
            let path = bin_dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{} is missing; build it first with \
                     `cargo build --release -p ntv-simd -p ntv-bench --bins`",
                    path.display()
                ))
            }
        };
        Ok(Self {
            ntv: find("ntv")?,
            repro: find("repro")?,
        })
    }
}

/// A running `ntv serve` child.
#[derive(Debug)]
pub struct Server {
    guard: ChildGuard,
    addr: SocketAddr,
    // Held so the child never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn `ntv serve --addr 127.0.0.1:0 <extra>` and wait for its
    /// listening line.
    ///
    /// # Errors
    ///
    /// Fails if the child cannot start or exits before announcing its
    /// address.
    pub fn spawn(ntv: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut args = vec!["serve", "--addr", "127.0.0.1:0"];
        args.extend_from_slice(extra);
        let mut guard = ChildGuard::spawn(ntv, &args)?;
        let mut stdout = BufReader::new(guard.take_stdout()?);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's listening line: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("ntv-serve listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(Self {
            guard,
            addr,
            _stdout: stdout,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set so far, in MiB.
    ///
    /// # Errors
    ///
    /// Fails if `/proc` has no entry for the child.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        #[allow(clippy::cast_precision_loss)]
        vm_hwm_kb(self.guard.pid())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| "cannot read the server's VmHWM".to_string())
    }
}
