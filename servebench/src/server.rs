//! The `sst serve` process under test: built from the checkout, spawned
//! on a loopback port, probed, and killed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sst_portfolio::protocol::{parse_response, MetricsSummary, Response};

use crate::workload::{Spec, MAX_SESSIONS};

fn io_error(message: String) -> std::io::Error {
    std::io::Error::other(message)
}

/// Builds `sst` in release mode from the checkout at `root` and returns
/// its path (under `CARGO_TARGET_DIR` when set, else `target`).
pub fn build_server(root: &Path) -> std::io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "sst-cli", "--bin", "sst"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io_error(format!("building sst failed ({status})")));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("sst");
    if !bin.is_file() {
        return Err(io_error(format!("no server binary at {}", bin.display())));
    }
    Ok(bin)
}

/// A running `sst serve --tcp`, killed when dropped.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn → first answered probe: the listener is up and start-up
    /// (including session recovery) has finished.
    pub setup: Duration,
    probe: BufReader<TcpStream>,
}

impl Server {
    /// Starts the server; its stderr (panic messages, recovery lines) is
    /// appended to `log`.
    pub fn start(
        bin: &Path,
        spec: &Spec,
        data_dir: Option<&Path>,
        log: &Path,
    ) -> std::io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"])
            .args(["--budget-ms", &spec.budget_ms.to_string()])
            .args(["--max-sessions", &MAX_SESSIONS.to_string()]);
        if let Some(dir) = data_dir {
            // One session lane: with several, a lane can drop an
            // acknowledged delta when another lane spills its session
            // mid-verb (a server defect), which fails the client's check.
            cmd.arg("--data-dir").arg(dir).args(["--durability", "flush", "--session-lanes", "1"]);
        }
        let log = std::fs::OpenOptions::new().create(true).append(true).open(log)?;
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(log);
        let t0 = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("sst-serve listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io_error(format!("unexpected announce line {line:?}")));
        };
        let addr = addr.to_string();
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true)?;
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
            probe: BufReader::new(stream),
        };
        server.metrics()?;
        server.setup = t0.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `{"metrics": true}` summary, over the probe connection.
    pub fn metrics(&mut self) -> std::io::Result<MetricsSummary> {
        self.probe.get_mut().write_all(b"{\"metrics\": true}\n")?;
        let mut line = String::new();
        self.probe.read_line(&mut line)?;
        match parse_response(line.trim()) {
            Ok(Response::Metrics(m)) => Ok(m),
            other => Err(io_error(format!("metrics probe answered {other:?}"))),
        }
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io_error("no VmHWM in /proc status".into()))
    }

    /// Kills the server (SIGKILL: no graceful checkpoint) and waits for it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
