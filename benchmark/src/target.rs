//! The server under test: a `vqd-cli serve` child process, or an
//! in-process `vqd_server::spawn` (the smoke test's target). Both are
//! reached only over TCP; the process variant is what the benchmark
//! measures, so the load generator never shares a process with it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use vqd_server::{CacheConfig, DiskConfig, ServerCaps, ServerConfig, ServerHandle};

/// How to start a server.
#[derive(Clone, Debug)]
pub enum Launcher {
    /// Run this `vqd-cli` binary's `serve` subcommand.
    Process(PathBuf),
    /// Spawn the server inside this process.
    InProcess,
}

/// Server shape shared by every served workload: two workers, one I/O
/// thread and a two-thread engine pool, on a 2-core box.
const WORKERS: usize = 2;
const IO_THREADS: usize = 1;
const ENGINE_THREADS: usize = 2;

/// Cache sizing of one server start.
#[derive(Clone, Debug, Default)]
pub struct CacheShape {
    /// `--cache-entries` (the server default when `None`).
    pub entries: Option<usize>,
    /// `--cache-dir`.
    pub dir: Option<PathBuf>,
}

enum Kind {
    Child {
        child: Child,
        stdout: BufReader<ChildStdout>,
    },
    InProcess(Option<ServerHandle>),
}

/// A running server.
pub struct Server {
    addr: SocketAddr,
    kind: Kind,
}

impl Server {
    /// Starts a server and waits until it accepts connections. A server
    /// process appends its standard error (flight-recorder dumps) to
    /// `log`.
    pub fn start(launcher: &Launcher, cache: &CacheShape, log: &Path) -> io::Result<Server> {
        match launcher {
            Launcher::Process(bin) => {
                let mut cmd = Command::new(bin);
                cmd.args(["serve", "--addr", "127.0.0.1:0"])
                    .args(["--workers", &WORKERS.to_string()])
                    .args(["--io-threads", &IO_THREADS.to_string()])
                    .args(["--engine-threads", &ENGINE_THREADS.to_string()]);
                if let Some(n) = cache.entries {
                    cmd.args(["--cache-entries", &n.to_string()]);
                }
                if let Some(dir) = &cache.dir {
                    cmd.arg("--cache-dir").arg(dir);
                }
                let log = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(log)?;
                let mut child = cmd
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(log)
                    .spawn()?;
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                let addr = match stdout.read_line(&mut line) {
                    Ok(n) if n > 0 => parse_listening(&line),
                    _ => None,
                };
                match addr {
                    Some(addr) => Ok(Server {
                        addr,
                        kind: Kind::Child { child, stdout },
                    }),
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(io::Error::other(format!(
                            "{} serve did not report a listening address (got {line:?})",
                            bin.display()
                        )))
                    }
                }
            }
            Launcher::InProcess => {
                let mut caps = ServerCaps {
                    io_threads: IO_THREADS,
                    engine_threads: ENGINE_THREADS,
                    ..ServerCaps::default()
                };
                caps.cache = CacheConfig {
                    max_entries: cache.entries.unwrap_or(caps.cache.max_entries),
                    disk: cache.dir.as_ref().map(DiskConfig::at),
                    ..caps.cache
                };
                let handle = vqd_server::spawn(ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    workers: WORKERS,
                    queue_depth: ServerConfig::default().queue_depth,
                    caps,
                })?;
                Ok(Server {
                    addr: handle.addr(),
                    kind: Kind::InProcess(Some(handle)),
                })
            }
        }
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pid(&self) -> Option<u32> {
        match &self.kind {
            Kind::Child { child, .. } => Some(child.id()),
            Kind::InProcess(_) => None,
        }
    }

    /// CPU time (user + system) the server process has used, ms.
    pub fn cpu_ms(&self) -> Option<f64> {
        process_cpu_ms(self.pid())
    }

    /// Peak resident set (`VmHWM`) of the server process, MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        process_rss_peak_mb(self.pid())
    }

    /// `kill -9`: no drain, no flush — a crash.
    pub fn kill(mut self) {
        self.end(false);
    }

    /// Orderly stop: a wire `shutdown`, then a bounded wait.
    pub fn stop(mut self) {
        self.end(true);
    }

    fn end(&mut self, graceful: bool) {
        match &mut self.kind {
            Kind::Child { child, stdout } => {
                if graceful && request_shutdown(self.addr).is_ok() {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                if matches!(child.try_wait(), Ok(None)) {
                    let _ = child.kill();
                }
                let _ = child.wait();
                // The drain summary sits in the pipe; read it so the
                // server never writes into a closed pipe.
                let _ = io::copy(stdout, &mut io::sink());
            }
            Kind::InProcess(handle) => {
                if let Some(h) = handle.take() {
                    h.shutdown();
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leave a child behind, even on an early return or panic.
        if let Kind::Child { child, .. } = &mut self.kind {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// `vqd-server listening on 127.0.0.1:PORT (…)` → the address.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.split_once("listening on ")?
        .1
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn request_shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(b"{\"v\":1,\"id\":\"stop\",\"request\":{\"op\":\"shutdown\"}}\n")?;
    let mut byte = [0u8; 1];
    // Wait for the acknowledgement (or the close) before returning.
    let _ = s.read(&mut byte)?;
    Ok(())
}

fn proc_file(pid: Option<u32>, file: &str) -> Option<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(Path::new(&path)).ok()
}

/// utime + stime of a process (`None` = this one), ms. `/proc` counts
/// in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn process_cpu_ms(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// `VmHWM` of a process (`None` = this one), MB.
pub fn process_rss_peak_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses() {
        let line = "vqd-server listening on 127.0.0.1:43327 (2 workers, queue 64)\n";
        assert_eq!(
            parse_listening(line),
            Some("127.0.0.1:43327".parse().expect("addr"))
        );
        assert_eq!(parse_listening("garbage"), None);
    }

    #[test]
    fn own_process_counters_are_readable() {
        assert!(process_cpu_ms(None).is_some());
        assert!(process_rss_peak_mb(None).expect("VmHWM") > 0.0);
    }
}
