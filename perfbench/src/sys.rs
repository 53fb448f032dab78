//! Process accounting from `/proc`, the per-run broker socket path, and
//! the `fpdm-serve` child process.

use fpdm::plinda::metrics::MetricsSnapshot;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Directory, relative to the working directory, that holds the run's
/// sockets and span files.
pub const RUN_DIR: &str = ".bench_run";

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds consumed so far by a process (`None`: this
/// one), all its threads included, live and exited.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_file(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| format!("{path}: bad field {i}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_file(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A broker socket path unique to this run (process id, a per-process
/// sequence number and the clock), removed when dropped.
pub struct SocketPath(PathBuf);

impl SocketPath {
    /// A fresh path under [`RUN_DIR`] (created if missing). The path is
    /// relative so it stays inside the socket-address length limit however
    /// deep the working directory is.
    pub fn new() -> std::io::Result<Self> {
        std::fs::create_dir_all(RUN_DIR)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = Path::new(RUN_DIR).join(format!(
            "fpdm-{}-{}-{nanos:x}.sock",
            std::process::id(),
            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(SocketPath(path))
    }

    /// The path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SocketPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A child `fpdm-serve --broker <sock> --shared-plane`, serving until its
/// stdin closes.
pub struct ServeChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: SocketPath,
}

impl ServeChild {
    /// Start the binary and wait until it reports that it is serving (its
    /// demo catalog is built and its self-test burst has run).
    pub fn spawn(bin: &Path) -> Result<ServeChild, String> {
        let socket = SocketPath::new().map_err(|e| format!("socket dir: {e}"))?;
        let mut child = Command::new(bin)
            .arg("--broker")
            .arg(socket.path())
            .arg("--shared-plane")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut serve = ServeChild {
            child,
            stdout,
            socket,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = serve
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("fpdm-serve stdout: {e}"))?;
            if n == 0 {
                return Err("fpdm-serve exited before serving".into());
            }
            if line.contains("serving") {
                return Ok(serve);
            }
        }
    }

    /// The broker socket the child serves on.
    pub fn socket(&self) -> &Path {
        self.socket.path()
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close stdin, wait for the child to exit, and parse the final
    /// `fpdm.metrics.v1` ledger it prints after it stops serving.
    pub fn finish(mut self) -> Result<MetricsSnapshot, String> {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("fpdm-serve stdout: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait fpdm-serve: {e}"))?;
        if !status.success() {
            return Err(format!("fpdm-serve exited with {status}"));
        }
        let ledger = rest
            .find('{')
            .map(|i| &rest[i..])
            .ok_or("fpdm-serve printed no ledger")?;
        MetricsSnapshot::from_json(ledger)
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_paths_are_unique_and_removed_on_drop() {
        let a = SocketPath::new().unwrap();
        let b = SocketPath::new().unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_relative());
        std::fs::write(a.path(), b"").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "socket path survived its run");
    }

    #[test]
    fn broker_socket_is_removed_after_the_run() {
        let sock = SocketPath::new().unwrap();
        let path = sock.path().to_path_buf();
        let broker = fpdm::plinda::Broker::start(fpdm::plinda::BrokerConfig::new(&path)).unwrap();
        assert!(path.exists());
        broker.shutdown();
        drop(sock);
        assert!(!path.exists());
    }

    #[test]
    fn proc_accounting_reads_this_process() {
        assert!(cpu_seconds(None).unwrap() >= 0.0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
