//! Child processes of the program under test: one-shot CLI operations
//! under a timeout, and the `serve` daemon behind a guard that drains and
//! reaps it on every exit path.

use std::io::{BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sega_wire::frame::{self, Hello, Message, PROTOCOL_VERSION};

/// How long one CLI operation may take before it is killed and counted
/// as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a daemon may take to answer its first hello or to drain.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(15);

/// What one CLI operation did.
#[derive(Debug)]
pub struct Outcome {
    /// Spawn to reap.
    pub wall: Duration,
    /// Exit status 0 within the timeout.
    pub ok: bool,
    /// Killed at the timeout.
    pub timed_out: bool,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Everything the child wrote to stderr.
    pub stderr: Vec<u8>,
    /// The child's peak resident set, in MB.
    pub peak_rss_mb: f64,
}

/// Runs `bin args…` in `cwd` to completion or `timeout`. Both output
/// pipes are read to EOF (the CLI panics on a closed stdout), and the
/// child is always reaped; a timed-out child is killed first.
pub fn run(bin: &Path, args: &[String], timeout: Duration) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|scope| {
        let (done, finished) = mpsc::channel();
        let out_reader = scope.spawn(move || {
            let mut buf = Vec::new();
            let read = stdout.read_to_end(&mut buf);
            let _ = done.send(());
            read.map(|_| buf)
        });
        let err_reader = scope.spawn(move || {
            let mut buf = Vec::new();
            stderr.read_to_end(&mut buf).map(|_| buf)
        });
        // Stdout reaching EOF means the child exited (or closed it);
        // waiting on that instead of polling keeps the clock exact.
        let timed_out = finished.recv_timeout(timeout).is_err();
        if timed_out {
            let _ = child.kill();
        }
        let reaped = wait4(child.id());
        let wall = start.elapsed();
        let stdout = out_reader.join().expect("stdout reader panicked");
        let stderr = err_reader.join().expect("stderr reader panicked");
        let (status, peak_rss_mb) = reaped?;
        Ok(Outcome {
            wall,
            ok: !timed_out && status == 0,
            timed_out,
            stdout: stdout.map_err(|e| format!("reading stdout: {e}"))?,
            stderr: stderr.map_err(|e| format!("reading stderr: {e}"))?,
            peak_rss_mb,
        })
    })
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

mod sys {
    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut super::Rusage) -> i32;
    }
}

/// Reaps child `pid` (std's `Child::wait` does not return the resource
/// usage): its raw wait status (0 = exited with code 0) and its peak
/// resident set in MB.
fn wait4(pid: u32) -> Result<(i32, f64), String> {
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    let mut status = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values; `usage`
        // is laid out as the kernel's `struct rusage` on 64-bit Linux.
        let rc = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage.maxrss as f64 / 1024.0));
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("cannot reap child {pid}: {e}"));
        }
    }
}

/// A hello-ed connection to a daemon.
pub struct Session {
    /// Reads frames from the daemon.
    pub reader: BufReader<UnixStream>,
    /// Writes frames to the daemon.
    pub writer: UnixStream,
}

/// Connects to the daemon at `socket` and completes the hello exchange,
/// retrying the connect until `deadline`.
pub fn hello(socket: &Path, deadline: Instant) -> Result<Session, String> {
    let mut writer = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("cannot connect to {}: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let io_timeout = Some(DAEMON_TIMEOUT);
    writer
        .set_read_timeout(io_timeout)
        .and_then(|()| writer.set_write_timeout(io_timeout))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    frame::send(&mut writer, &Message::Hello(Hello::client()))
        .map_err(|e| format!("hello: {e}"))?;
    match frame::recv(&mut reader) {
        Ok(Message::Hello(h)) if h.protocol == PROTOCOL_VERSION => Ok(Session { reader, writer }),
        Ok(other) => Err(format!("daemon answered the hello with {other:?}")),
        Err(e) => Err(format!("hello: {e}")),
    }
}

/// A running `sega-dcim serve --backend remote --workers 2` daemon with
/// a segment-directory store. Dropping it drains it (shutdown frame),
/// waits for it to exit, and kills it if it does not.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon listening on `dir/<name>.sock` with its store in
    /// `dir/<name>-store`, and returns once it answered a hello.
    pub fn start(bin: &Path, dir: &Path, name: &str) -> Result<Daemon, String> {
        let socket = dir.join(format!("{name}.sock"));
        let log = std::fs::File::create(dir.join(format!("{name}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--backend", "remote", "--workers", "2", "--threads", "1"])
            .arg("--cache-dir")
            .arg(dir.join(format!("{name}-store")))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        hello(&daemon.socket, Instant::now() + DAEMON_TIMEOUT)?;
        Ok(daemon)
    }

    /// The daemon's socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The `--connect` address of the daemon.
    pub fn addr(&self) -> String {
        format!("unix:{}", self.socket.display())
    }

    /// Peak resident set of the daemon process so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// Drains the daemon and reaps it; `Err` when it had to be killed.
    pub fn drain(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        let asked =
            hello(&self.socket, Instant::now() + Duration::from_secs(1)).and_then(|mut s| {
                frame::send(&mut s.writer, &Message::Shutdown).map_err(|e| e.to_string())
            });
        loop {
            match child.try_wait() {
                Ok(Some(status)) if asked.is_ok() && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon ended with {status} ({asked:?})")),
                Ok(None) if asked.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not drain, killed ({asked:?})"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: {e}");
        }
    }
}

/// A per-run scratch directory under the checkout, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.bench_tmp/<tag>-<pid>-<n>` (relative, so socket paths
    /// stay short).
    pub fn create(tag: &str) -> Result<RunDir, String> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Outcome {
        let args = ["-c".to_owned(), script.to_owned()];
        run(Path::new("/bin/sh"), &args, timeout).unwrap()
    }

    #[test]
    fn a_child_is_read_to_eof_and_its_status_kept() {
        let out = sh("echo out; echo err >&2; exit 3", OP_TIMEOUT);
        assert!(!out.ok && !out.timed_out);
        assert_eq!(out.stdout, b"out\n");
        assert_eq!(out.stderr, b"err\n");
        assert!(out.peak_rss_mb > 0.0);
        assert!(sh("true", OP_TIMEOUT).ok);
    }

    #[test]
    fn a_child_past_its_timeout_is_killed_reaped_and_failed() {
        let out = sh("exec sleep 30", Duration::from_millis(100));
        assert!(out.timed_out && !out.ok);
        assert!(out.wall < Duration::from_secs(10), "{:?}", out.wall);
    }
}
