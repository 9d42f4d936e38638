//! Serving deployments the benchmark starts and stops: serving-node,
//! router and ingest-node child processes (this binary re-executed in a
//! child role), seeded through the program's own artifact path.
//!
//! Every serving process runs `HttpServerConfig.workers = 1`, so the whole
//! deployment fits a small host instead of oversubscribing it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serenade_core::{Click, SessionIndex};
use serenade_index::binfmt;
use serenade_serving::http::{HttpServer, HttpServerConfig};
use serenade_serving::node::{ControlClient, NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::{BusinessRules, EngineConfig, IngestConfig, ServingCluster};

use crate::http;
use crate::workload::{Corpus, M_MAX};

/// Mini-publish cadence of the ingest node.
pub const PUBLISH_INTERVAL: Duration = Duration::from_millis(50);
/// How long a child may take to report its addresses.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A child process that serves until its stdin closes.
pub struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Drains the child's stdout; ends when the child exits.
    reader: Option<JoinHandle<()>>,
    /// The `key=value` fields of the child's ready line.
    fields: Vec<(String, String)>,
}

impl Proc {
    fn spawn(args: &[String]) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        // The ready line arrives on a helper thread so a wedged child cannot
        // hang the benchmark past the timeout.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let mut out = BufReader::new(stdout);
            let ok = out.read_line(&mut line).is_ok();
            let _ = tx.send(ok.then_some(line));
            let mut sink = Vec::new();
            let _ = out.read_to_end(&mut sink);
        });
        let mut proc = Self {
            child,
            stdin,
            reader: Some(reader),
            fields: Vec::new(),
        };
        let line = match rx.recv_timeout(READY_TIMEOUT) {
            Ok(Some(line)) if line.starts_with("ready") => line,
            _ => {
                proc.stop();
                return Err(std::io::Error::other(format!(
                    "child {args:?} did not start"
                )));
            }
        };
        proc.fields = line
            .split_whitespace()
            .skip(1)
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Ok(proc)
    }

    fn addr(&self, key: &str) -> SocketAddr {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .expect("the child reports the address")
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Closes stdin (the child's stop signal) and waits for it to exit,
    /// killing it if it outlives the grace period.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return self.join_reader(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_reader();
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running deployment: its entry address and its serving processes.
pub struct Deployment {
    pub addr: SocketAddr,
    procs: Vec<Proc>,
    /// `(data, ctrl)` of plain serving nodes, in member order.
    pub nodes: Vec<(SocketAddr, SocketAddr)>,
}

impl Deployment {
    /// Peak resident set summed over the serving processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    /// The `/metrics` text of every data port, concatenated.
    pub fn scrape(&self) -> String {
        let mut addrs = vec![self.addr];
        addrs.extend(self.nodes.iter().map(|n| n.0).filter(|a| *a != self.addr));
        addrs
            .into_iter()
            .filter_map(|a| http::get_once(a, "/metrics").ok())
            .map(|(_, body)| body)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The `/metrics` text of the entry process alone.
    pub fn scrape_entry(&self) -> String {
        http::get_once(self.addr, "/metrics")
            .map(|(_, b)| b)
            .unwrap_or_default()
    }

    /// Stops every process and waits for each to exit.
    pub fn stop(self) {
        drop(self);
    }
}

fn spawn_node() -> std::io::Result<Proc> {
    Proc::spawn(&[String::from("node")])
}

/// Where artifacts are written: inside the checkout, never outside it.
pub fn work_dir() -> PathBuf {
    let dir = Path::new(".bench_work").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    dir
}

/// Writes `index` as a `binfmt` artifact and returns its path and bytes.
pub fn write_artifact(index: &SessionIndex, name: &str) -> (PathBuf, Vec<u8>) {
    let mut bytes = Vec::new();
    binfmt::write_index(index, &mut bytes).expect("the artifact serialises");
    let path = work_dir().join(name);
    std::fs::write(&path, &bytes).expect("the artifact is written");
    (path, bytes)
}

/// `serenade-routerd` over `nodes` fresh serving nodes, seeded by
/// `POST /cluster/publish` of the artifact at `artifact`. Returns the
/// deployment and the publish round trip.
pub fn router(nodes: usize, artifact: &Path) -> std::io::Result<(Deployment, Duration)> {
    let mut procs = Vec::new();
    let mut members = Vec::new();
    for _ in 0..nodes {
        let node = spawn_node()?;
        members.push((node.addr("data"), node.addr("ctrl")));
        procs.push(node);
    }
    let mut args = vec![String::from("router")];
    for (id, (data, ctrl)) in members.iter().enumerate() {
        args.push(String::from("--node"));
        args.push(format!("{id},{data},{ctrl}"));
    }
    let router = Proc::spawn(&args)?;
    let addr = router.addr("data");
    procs.insert(0, router);
    let body = format!("{{\"path\":\"{}\"}}", artifact.display());
    let started = Instant::now();
    let (status, response) = http::post_once(addr, "/cluster/publish", &body)?;
    let publish = started.elapsed();
    if status != 200 || !response.contains("\"failed\":[]") {
        return Err(std::io::Error::other(format!(
            "publish failed: {status} {response}"
        )));
    }
    Ok((
        Deployment {
            addr,
            procs,
            nodes: members,
        },
        publish,
    ))
}

/// One fresh serving node, seeded over its control socket.
pub fn node(artifact: &[u8]) -> std::io::Result<Deployment> {
    let node = spawn_node()?;
    let (data, ctrl) = (node.addr("data"), node.addr("ctrl"));
    ControlClient::connect(ctrl, Duration::from_secs(30))?
        .load_index(artifact)?
        .map_err(std::io::Error::other)?;
    Ok(Deployment {
        addr: data,
        procs: vec![node],
        nodes: vec![(data, ctrl)],
    })
}

/// One fresh ingest node: it regenerates the corpus from `seed`, builds its
/// index and seeds its ingest pipeline with the training clicks.
pub fn ingest_node(seed: u64) -> std::io::Result<Deployment> {
    let proc = Proc::spawn(&[
        String::from("ingest-node"),
        String::from("--seed"),
        seed.to_string(),
    ])?;
    let addr = proc.addr("data");
    Ok(Deployment {
        addr,
        procs: vec![proc],
        nodes: Vec::new(),
    })
}

/// The self-test's stub server (see `stub`).
pub fn stub(service_us: f64, stall_ms: f64, stall_at: f64) -> std::io::Result<Deployment> {
    let args = [
        String::from("stub"),
        String::from("--service-us"),
        service_us.to_string(),
        String::from("--stall-ms"),
        stall_ms.to_string(),
        String::from("--stall-at"),
        stall_at.to_string(),
    ];
    let proc = Proc::spawn(&args)?;
    let addr = proc.addr("data");
    Ok(Deployment {
        addr,
        procs: vec![proc],
        nodes: Vec::new(),
    })
}

fn server_config() -> HttpServerConfig {
    HttpServerConfig {
        workers: 1,
        ..HttpServerConfig::default()
    }
}

/// The ingest configuration of the ingest node and of the in-process
/// ingest layer measurements.
pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        publish_interval: PUBLISH_INTERVAL,
        m_max: M_MAX,
        ..IngestConfig::default()
    }
}

fn serve_until_stdin_closes() {
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}

/// Child role: one serving node on a placeholder index; the real index
/// arrives over the control socket.
pub fn run_node_child() -> std::process::ExitCode {
    let clicks: Vec<Click> = (0..8u64)
        .flat_map(|s| [Click::new(s, s, 1), Click::new(s, s + 1, 2)])
        .collect();
    let index = SessionIndex::build(&clicks, M_MAX).expect("placeholder index builds");
    let config = NodeConfig {
        server: server_config(),
        ..NodeConfig::default()
    };
    let node = match ServingNode::start(Arc::new(index), config) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("perfbench node: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("ready data={} ctrl={}", node.data_addr(), node.ctrl_addr());
    serve_until_stdin_closes();
    node.shutdown();
    std::process::ExitCode::SUCCESS
}

/// Child role: the router daemon over the `--node ID,DATA,CTRL` members.
pub fn run_router_child(args: &[String]) -> std::process::ExitCode {
    let mut members = Vec::new();
    for pair in args.chunks(2) {
        let spec = pair.get(1).map(String::as_str).unwrap_or("");
        let parts: Vec<&str> = spec.split(',').collect();
        let parsed = (|| {
            Some((
                parts.first()?.parse().ok()?,
                parts.get(1)?.parse().ok()?,
                parts.get(2)?.parse().ok()?,
            ))
        })();
        match (pair[0].as_str(), parsed) {
            ("--node", Some(member)) => members.push(member),
            _ => {
                eprintln!("perfbench router: bad member {spec:?}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    let config = RouterConfig {
        server: server_config(),
        ..RouterConfig::default()
    };
    let daemon = match RouterDaemon::start(&members, config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench router: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("ready data={}", daemon.addr());
    serve_until_stdin_closes();
    daemon.shutdown();
    std::process::ExitCode::SUCCESS
}

/// Child role: `ServingCluster` + `enable_ingest` behind `HttpServer::serve`
/// (a serving node has no ingest path).
pub fn run_ingest_child(seed: u64) -> std::process::ExitCode {
    let corpus = Corpus::generate(seed);
    let index = Arc::new(corpus.build_index());
    let cluster =
        match ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none()) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                eprintln!("perfbench ingest-node: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
    if let Err(e) = cluster.enable_ingest(ingest_config(), &corpus.train) {
        eprintln!("perfbench ingest-node: {e}");
        return std::process::ExitCode::FAILURE;
    }
    let server = match HttpServer::serve(Arc::clone(&cluster), server_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench ingest-node: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("ready data={}", server.addr());
    serve_until_stdin_closes();
    server.shutdown();
    std::process::ExitCode::SUCCESS
}
