//! A real `brokerd` child process serving a saved index.

use broker_net::proto::{Conn, Request, Response};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `brokerd --index PATH --threads 1` and one client
/// connection to it.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The benchmark's single client connection.
    pub conn: Conn,
    /// `(n, k, max_l)` from the `HELLO` reply.
    pub shape: (u32, u32, u8),
}

impl Daemon {
    /// Spawn the daemon on an ephemeral port and block until it answers
    /// `HELLO`, which is the readiness signal.
    pub fn spawn(brokerd: &Path, index: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(brokerd)
            .arg("--index")
            .arg(index)
            .args(["--threads", "1", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", brokerd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("brokerd stdout not piped")?);
        let conn = read_port(&mut stdout).and_then(|port| {
            Conn::connect_retry(port, 64).map_err(|e| format!("connect to brokerd: {e}"))
        });
        let conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child: Some(child),
            stdout: Some(stdout),
            conn,
            shape: (0, 0, 0),
        };
        match daemon.conn.request(&Request::Hello) {
            Ok(Response::HelloOk { n, k, max_l, .. }) => daemon.shape = (n, k, max_l),
            other => return Err(format!("brokerd handshake: {other:?}")),
        }
        Ok(daemon)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Ask the daemon to stop and wait for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.conn.request(&Request::Shutdown);
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        // Drain what the daemon still prints so it never blocks on a
        // full pipe while exiting.
        if let Some(mut out) = self.stdout.take() {
            let mut rest = String::new();
            let _ = out.read_to_string(&mut rest);
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for brokerd: {e}"))?;
        match bye {
            Ok(Response::Bye) if status.success() => Ok(()),
            other => Err(format!("brokerd shutdown: {other:?}, exit {status}")),
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

/// Parse `brokerd: listening on 127.0.0.1:<port>` from the first line.
fn read_port(out: &mut impl BufRead) -> Result<u16, String> {
    let mut line = String::new();
    out.read_line(&mut line)
        .map_err(|e| format!("reading brokerd stdout: {e}"))?;
    line.trim()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| format!("unexpected brokerd announcement {line:?}"))
}

/// Send one encoded request frame and decode the reply: the second half
/// of [`Conn::request`], kept apart so the traced run can time request
/// encoding on its own.
pub fn send(conn: &mut Conn, frame: &[u8]) -> Result<Response, String> {
    conn.send_raw(frame).map_err(|e| format!("send: {e}"))?;
    conn.read_response()
        .map_err(|e| format!("receive: {e}"))?
        .ok_or_else(|| "brokerd closed the connection".to_string())
}
