//! The benchmark's self-test target: a stub HTTP server with a fixed
//! service time, and a driver run against it. The stub serves one request
//! at a time (one mutex stands for one worker) by spinning for the service
//! time, and can stall once for a fixed time. `perfbench/selftest.py` uses
//! it to show, without touching the program, that the driver counts the
//! queueing a stall causes and that the run-to-run comparison catches a
//! slower service.
//!
//! ```text
//! perfbench stub-run --service-us N [--stall-ms N] --seed N --seconds S [--rate R]
//! ```

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::bench::{http_targets, Metric};
use crate::check::Verdict;
use crate::driver::{pct, run_phase};
use crate::flag;
use crate::workload::Op;

/// Default offered rate of a stub run.
const STUB_RATE: f64 = 400.0;
/// The stall starts this far into the run.
const STALL_AT: f64 = 0.5;

fn serve_conn(
    mut stream: TcpStream,
    worker: Arc<Mutex<()>>,
    service: Duration,
    stall: Arc<StallOnce>,
) {
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        let (head_end, length) = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..pos]).to_ascii_lowercase();
                let length = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                break (pos + 4, length);
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        };
        while buf.len() < head_end + length {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        buf.drain(..head_end + length);
        {
            let _worker = worker
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            stall.maybe_stall();
            let started = Instant::now();
            while started.elapsed() < service {
                std::hint::spin_loop();
            }
        }
        let body = "{\"recommendations\":[]}";
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(response.as_bytes()).is_err() {
            return;
        }
    }
}

/// A stall of `length` taken by the first request served after `at`.
struct StallOnce {
    started: Instant,
    at: Duration,
    length: Duration,
    done: AtomicBool,
}

impl StallOnce {
    fn maybe_stall(&self) {
        if !self.length.is_zero()
            && self.started.elapsed() >= self.at
            && !self.done.swap(true, Ordering::SeqCst)
        {
            std::thread::sleep(self.length);
        }
    }
}

/// Child role: the stub server, until stdin closes. The stall clock starts
/// when the stub starts.
pub fn run_stub_child(args: &[String]) -> ExitCode {
    let parse = |name: &str| flag(args, name).and_then(|v| v.parse::<f64>().ok());
    let (Some(service_us), Some(stall_ms), Some(stall_at)) = (
        parse("--service-us"),
        parse("--stall-ms"),
        parse("--stall-at"),
    ) else {
        return ExitCode::from(2);
    };
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench stub: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");
    let worker = Arc::new(Mutex::new(()));
    let service = Duration::from_secs_f64(service_us / 1e6);
    let stall = Arc::new(StallOnce {
        started: Instant::now(),
        at: Duration::from_secs_f64(stall_at),
        length: Duration::from_secs_f64(stall_ms / 1e3),
        done: AtomicBool::new(false),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let (worker, stall) = (Arc::clone(&worker), Arc::clone(&stall));
                conns.push(std::thread::spawn(move || {
                    serve_conn(stream, worker, service, stall)
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        })
    };
    println!("ready data={addr}");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    stop.store(true, Ordering::SeqCst);
    // Wake the accept loop; the driver's connections are already closed.
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
    ExitCode::SUCCESS
}

/// p99 of a single FIFO server with service time `service_us` fed the
/// schedule `dues` (ns), unavailable for `stall_ms` from the first request
/// due at or after `stall_at` seconds: the queueing the stall must show.
fn modelled_p99(dues: &[u64], service_us: f64, stall_ms: f64, stall_at: f64) -> f64 {
    let service = service_us * 1e3;
    let mut free_at = 0.0f64;
    let mut stalled = stall_ms <= 0.0;
    let mut lat: Vec<f64> = dues
        .iter()
        .map(|&due| {
            let due = due as f64;
            let mut start = free_at.max(due);
            if !stalled && start >= stall_at * 1e9 {
                stalled = true;
                start += stall_ms * 1e6;
            }
            free_at = start + service;
            (free_at - due) / 1e3
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    pct(&lat, 0.99)
}

/// `stub-run`: drives the stub at a fixed rate and reports its latency
/// under the end-to-end metric names, plus the send-timed p99 a
/// coordinated-omission driver would have reported.
pub fn run(args: &[String]) -> ExitCode {
    let parse = |name: &str| flag(args, name).and_then(|v| v.parse::<f64>().ok());
    let (Some(service_us), Some(seed), Some(seconds)) =
        (parse("--service-us"), parse("--seed"), parse("--seconds"))
    else {
        return crate::usage();
    };
    let stall_ms = parse("--stall-ms").unwrap_or(0.0);
    let rate = parse("--rate").unwrap_or(STUB_RATE);
    let stall_at = seconds * STALL_AT;
    let child = crate::deploy::stub(service_us, stall_ms, stall_at);
    let deployment = match child {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench stub-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ops: Vec<Op> = (0..(rate * seconds) as u64)
        .map(|i| Op::Read {
            session: i,
            item: i % 97,
            consent: false,
        })
        .collect();
    let seed = seed as u64;
    let result = run_phase(http_targets(deployment.addr), &ops, rate, seed, None);
    deployment.stop();
    let due = result.latencies(&ops, true);
    let send = result.read_service(&ops);
    let dues: Vec<u64> = crate::driver::schedule(ops.len(), rate, seed);
    let failed = result.records.iter().filter(|r| !r.ok()).count();
    println!(
        "# p99 timed from send (coordinated omission): {:.1} us",
        pct(&send, 0.99)
    );
    println!("# p99 timed from due: {:.1} us", pct(&due, 0.99));
    println!(
        "# p99 of a FIFO queue model of this schedule: {:.1} us",
        modelled_p99(&dues, service_us, stall_ms, stall_at)
    );
    let metrics: Vec<Metric> = vec![
        ("p50_us.light", pct(&due, 0.5), "us"),
        ("p99_us.light", pct(&due, 0.99), "us"),
    ];
    let verdict = Verdict {
        attempted: ops.len(),
        errors: failed,
        wrong: 0,
    };
    crate::print_result(true, verdict, &metrics);
    ExitCode::SUCCESS
}
