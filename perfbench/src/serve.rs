//! Driving `phpsafe serve`: the child process, one closed-loop NDJSON
//! client, and reply checks.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phpsafe_serve::Json;

/// One loopback connection; every call waits for its reply (closed loop).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Same as the daemon side: without it Nagle + delayed ACK add
        // ~40 ms stalls to one-line exchanges.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and returns the reply line.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn json_str(s: &str) -> String {
    Json::Str(s.to_owned()).emit()
}

pub fn analyze_request(dir: &Path) -> String {
    format!(
        r#"{{"cmd":"analyze","paths":[{}],"jobs":1}}"#,
        json_str(&dir.display().to_string())
    )
}

pub fn invalidate_request(file: &Path) -> String {
    format!(
        r#"{{"cmd":"invalidate","paths":[{}]}}"#,
        json_str(&file.display().to_string())
    )
}

pub const SHUTDOWN: &str = r#"{"cmd":"shutdown"}"#;

fn parse_ok(reply: &str) -> Result<Json, String> {
    let v = phpsafe_serve::parse(reply.trim()).map_err(|e| format!("bad reply: {e}"))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error reply: {}", reply.trim()));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "reply without result".to_string())
}

/// The report string of a one-path `analyze` reply.
pub fn reply_report(reply: &str) -> Result<String, String> {
    let result = parse_ok(reply)?;
    result
        .get("reports")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("report"))
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| "analyze reply without a report".to_string())
}

/// `(dirty, reparsed)` of a one-path `invalidate` reply.
fn invalidate_counts(reply: &str) -> Result<(u64, u64), String> {
    let result = parse_ok(reply)?;
    let project = result
        .get("projects")
        .and_then(Json::as_arr)
        .and_then(|p| p.first())
        .ok_or("invalidate reply names no project")?;
    let num = |k: &str| project.get(k).and_then(Json::as_num).map(|n| n as u64);
    match (num("dirty"), num("reparsed")) {
        (Some(d), Some(r)) => Ok((d, r)),
        _ => Err(format!("invalidate reply without counts: {}", reply.trim())),
    }
}

/// Checks a post-edit `invalidate` reply, which must report at least one
/// dirty file; returns the number of files the daemon re-parsed.
pub fn check_invalidate(reply: &str) -> Result<u64, String> {
    match invalidate_counts(reply)? {
        (0, _) => Err("invalidate saw no dirty file after an edit".into()),
        (_, reparsed) => Ok(reparsed),
    }
}

/// Checks warm `analyze` replies against per-plugin reference reports.
/// A reply is parsed only the first time its bytes (past the per-request
/// `seq`/`id` prefix) are seen for that plugin.
pub struct ReplyChecker {
    references: Vec<String>,
    verified: HashSet<(usize, u64)>,
}

impl ReplyChecker {
    pub fn new(references: Vec<String>) -> ReplyChecker {
        ReplyChecker {
            references,
            verified: HashSet::new(),
        }
    }

    pub fn check(&mut self, plugin: usize, reply: &str) -> Result<(), String> {
        let body = reply.find("\"result\":").map_or(reply, |at| &reply[at..]);
        let key = (plugin, crate::util::fnv(body.as_bytes()));
        if self.verified.contains(&key) {
            return Ok(());
        }
        if reply_report(reply)? != self.references[plugin] {
            return Err(format!(
                "plugin #{plugin}: report differs from in-process analysis"
            ));
        }
        self.verified.insert(key);
        Ok(())
    }
}

/// A `phpsafe serve` child on a free loopback port.
pub struct DaemonProc {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl DaemonProc {
    /// Spawns the daemon and waits until it is listening.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> Result<DaemonProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--workers", "1", "--jobs", "1"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .trim()
                        .strip_prefix("phpsafe serve: listening on ")
                        .map(str::to_owned)
                }
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon exited before listening".into());
        };
        Ok(DaemonProc {
            child,
            addr,
            stderr: Some(std::thread::spawn(move || drain(lines))),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for a clean exit (killing the daemon if
    /// it does not exit within ten seconds).
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let sent = client.call(SHUTDOWN);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

fn drain(mut r: BufReader<ChildStderr>) {
    let mut sink = String::new();
    while matches!(r.read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}
