//! A thousand mostly-idle connections against the readiness-driven
//! serving layer.
//!
//! The server multiplexes every connection over a fixed set of
//! event-loop threads that sleep in `poll(2)` while nothing is ready.
//! Holding 1,000 live connections must therefore cost no extra threads
//! and no CPU:
//!
//! * every connection completes a ping round trip and still answers
//!   one after the idle window;
//! * the server's own threads (named `vqd-*`) number at most I/O
//!   threads + workers + engine threads;
//! * the whole process burns at most 500 ms of CPU over a 2 s idle
//!   window.
//!
//! The test reads `/proc/self`, so it runs on Linux only. It is the
//! only test in this binary: no sibling test's threads or CPU time can
//! count against the bounds.

#![cfg(target_os = "linux")]

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use vqd::server::{self, netpoll, ServerCaps, ServerConfig};

const CONNS: u64 = 1000;
const IO_THREADS: usize = 2;
const WORKERS: usize = 4;
const ENGINE_THREADS: usize = 1;
const PING: &str = "{\"v\":1,\"id\":\"idle\",\"request\":{\"op\":\"ping\"}}\n";

/// One blocking newline-framed round trip on a raw socket.
fn round_trip(stream: &mut TcpStream) -> Result<(), String> {
    stream.write_all(PING.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    while !buf.contains(&b'\n') {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(())
}

/// Live threads of this process whose name starts with `vqd-`.
fn server_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("vqd-"))
        .collect()
}

/// Process CPU time (utime + stime from `/proc/self/stat`) in
/// milliseconds, at the kernel's 100 Hz user-visible tick.
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The comm field may contain spaces; utime and stime are fields 14
    // and 15, the 12th and 13th after its closing parenthesis.
    let after_comm = stat.rsplit_once(')').expect("stat shape").1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) * 10
}

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_no_cpu() {
    // Client and accepted ends both live in this process: 2 fds per
    // connection, plus slack.
    let want = 2 * CONNS + 512;
    let limit = netpoll::raise_nofile_limit(want);
    assert!(limit >= 2 * CONNS + 64, "fd soft limit {limit} is too low for {CONNS} connections");

    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_depth: 64,
        caps: ServerCaps {
            io_threads: IO_THREADS,
            engine_threads: ENGINE_THREADS,
            ..ServerCaps::default()
        },
    })
    .expect("spawn server");

    // One round trip each, so every connection is registered with an
    // event loop rather than waiting in the accept backlog.
    let mut held: Vec<TcpStream> = (0..CONNS)
        .map(|i| {
            let mut stream = TcpStream::connect(handle.addr())
                .unwrap_or_else(|e| panic!("connection {i}: connect: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
            round_trip(&mut stream).unwrap_or_else(|e| panic!("connection {i}: {e}"));
            stream
        })
        .collect();

    // Idle window: with every connection parked in the poll set, the
    // event loops sleep in the kernel.
    let cpu_before = process_cpu_ms();
    std::thread::sleep(Duration::from_secs(2));
    let idle_cpu_ms = process_cpu_ms() - cpu_before;
    let threads = server_threads();

    let bound = IO_THREADS + WORKERS + ENGINE_THREADS;
    assert!(
        threads.len() <= bound,
        "{} server threads hold {CONNS} connections, bound {bound} \
         ({IO_THREADS} I/O + {WORKERS} workers + {ENGINE_THREADS} engine): {threads:?}",
        threads.len()
    );
    assert!(
        idle_cpu_ms <= 500,
        "{idle_cpu_ms} ms of CPU burned over a 2 s window while every connection was idle"
    );
    for (i, stream) in held.iter_mut().enumerate() {
        round_trip(stream).unwrap_or_else(|e| panic!("connection {i} was not held: {e}"));
    }
    drop(held);
    handle.shutdown();
}
