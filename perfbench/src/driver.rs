//! The open-loop driver. Every op has a scheduled `due` offset fixed before
//! the phase starts; each request's latency is measured from `due`, not
//! from when it was actually sent, so a stall that delays later sends
//! counts their queueing (no coordinated omission). How late each send was
//! is reported on its own.
//!
//! One thread per connection, at most `nproc` of each. A session is pinned
//! to one thread, so its clicks reach the program in stream order; an op
//! that falls due while its connection is busy waits in the driver, and
//! that wait is part of its latency.
//!
//! Between sends a lane sleeps until the next due time, with a timer slack
//! of 1 ns so the kernel does not round the wake-up late. A sleeping client
//! adds its own wake-up delay to every latency it times, and on a virtual
//! machine whose idle vCPUs halt that delay reaches milliseconds; a run
//! therefore keeps the CPUs awake with idle-class spinners (see `warm`),
//! which a waking lane or serving thread preempts at once.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_core::{Click, ItemId};
use serenade_serving::context::RequestContext;
use serenade_serving::engine::RecommendRequest;
use serenade_serving::{Engine, PodTransport, RemotePod};

use crate::check::Answer;
use crate::http::{self, Conn};
use crate::trace::{Span, SpanLog};
use crate::workload::{mix, Op, Rng};

/// Gap between two polls of the oldest unseen probe. Polls are part of the
/// workload: one that runs into the next send's due time delays it, and
/// that delay is timed like any other.
const POLL_GAP: Duration = Duration::from_millis(1);
/// A probe not visible after this long counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// The answer to one op.
pub struct Reply {
    /// HTTP status; 0 for a socket error.
    pub status: u16,
    /// `(item, score)` pairs of a read, `None` for writes or an unparsable
    /// body.
    pub items: Option<Vec<(u64, f64)>>,
}

/// Where a phase's ops go: a socket, the program's `RemotePod`, or the
/// program's in-process `Engine`.
pub trait Target: Send {
    fn call(&mut self, op: &Op, rendered: &[u8]) -> Reply;
}

/// The benchmark's own HTTP client against a data port.
pub struct HttpTarget {
    conn: Conn,
    body: Vec<u8>,
}

impl HttpTarget {
    pub fn new(addr: std::net::SocketAddr) -> Self {
        Self {
            conn: Conn::new(addr),
            body: Vec::new(),
        }
    }
}

impl Target for HttpTarget {
    fn call(&mut self, op: &Op, rendered: &[u8]) -> Reply {
        match self.conn.exchange(rendered, &mut self.body) {
            Ok(status) => Reply {
                status,
                items: match op {
                    Op::Read { .. } => http::parse_recommendations(&self.body),
                    _ => None,
                },
            },
            Err(_) => Reply {
                status: 0,
                items: None,
            },
        }
    }
}

fn request_of(session: u64, item: ItemId, consent: bool) -> RecommendRequest {
    RecommendRequest {
        session_id: session,
        item,
        consent,
        filter_adult: false,
    }
}

/// The clicks a write or probe submits.
pub fn clicks_of(op: &Op) -> Vec<Click> {
    match *op {
        Op::Write { session, item, ts } => vec![Click::new(session, item, ts)],
        Op::Probe {
            session,
            fresh,
            next,
            ts,
        } => {
            vec![
                Click::new(session, fresh, ts),
                Click::new(session, next, ts + 1),
            ]
        }
        Op::Read { .. } => Vec::new(),
    }
}

fn items_of(recs: &[serenade_core::ItemScore]) -> Vec<(u64, f64)> {
    recs.iter().map(|r| (r.item, f64::from(r.score))).collect()
}

/// `RemotePod::handle_with` from the benchmark to one node (reads only).
pub struct PodTarget {
    pod: Arc<RemotePod>,
    ctx: RequestContext,
}

impl PodTarget {
    pub fn new(pod: Arc<RemotePod>) -> Self {
        Self {
            pod,
            ctx: RequestContext::new(),
        }
    }
}

impl Target for PodTarget {
    fn call(&mut self, op: &Op, _rendered: &[u8]) -> Reply {
        let Op::Read {
            session,
            item,
            consent,
        } = *op
        else {
            panic!("the transport tier replays reads only");
        };
        match self
            .pod
            .handle_with(request_of(session, item, consent), &mut self.ctx)
        {
            Ok(recs) => Reply {
                status: 200,
                items: Some(items_of(&recs)),
            },
            Err(_) => Reply {
                status: 0,
                items: None,
            },
        }
    }
}

/// `Engine::handle_with` in process (reads only).
pub struct EngineTarget {
    engine: Arc<Engine>,
    ctx: RequestContext,
}

impl EngineTarget {
    pub fn new(engine: Arc<Engine>) -> Self {
        Self {
            engine,
            ctx: RequestContext::new(),
        }
    }
}

impl Target for EngineTarget {
    fn call(&mut self, op: &Op, _rendered: &[u8]) -> Reply {
        let Op::Read {
            session,
            item,
            consent,
        } = *op
        else {
            panic!("the engine tier replays reads only");
        };
        match self
            .engine
            .handle_with(request_of(session, item, consent), &mut self.ctx)
        {
            Ok(recs) => Reply {
                status: 200,
                items: Some(items_of(&recs)),
            },
            Err(_) => Reply {
                status: 500,
                items: None,
            },
        }
    }
}

/// One op's outcome. Times are nanoseconds from the phase start.
pub struct Record {
    /// Index of the op in the phase's op list.
    pub op: usize,
    pub due: u64,
    /// When the op was due and its lane was free: `due`, or the end of the
    /// lane's previous call if that ran past `due`.
    pub ready: u64,
    pub sent: u64,
    pub done: u64,
    pub status: u16,
    /// Digest of a read's answer; `None` for writes or an unparsable body.
    pub answer: Option<Answer>,
    /// Probes only: send-to-visible time, `None` if never seen.
    pub visible: Option<u64>,
}

impl Record {
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due) as f64 / 1e3
    }

    pub fn service_us(&self) -> f64 {
        (self.done - self.sent) as f64 / 1e3
    }

    pub fn late_us(&self) -> f64 {
        (self.sent - self.due) as f64 / 1e3
    }

    /// How long the driver itself took to send once it could: the part of
    /// the lateness that is not the wait for a busy connection.
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.ready) as f64 / 1e3
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A phase's outcome: one record per op, in op order.
pub struct PhaseResult {
    pub records: Vec<Record>,
    /// Wall time from the first due to the last completion.
    pub wall: Duration,
    pub spans: Vec<Span>,
}

impl PhaseResult {
    /// Latencies (µs, from due) of successful reads, or of successful
    /// writes and probes, sorted.
    pub fn latencies(&self, ops: &[Op], reads: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.ok() && matches!(ops[r.op], Op::Read { .. }) == reads)
            .map(Record::latency_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Service times (µs, from send) of successful reads, sorted.
    pub fn read_service(&self, ops: &[Op]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.ok() && matches!(ops[r.op], Op::Read { .. }))
            .map(Record::service_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Send-to-visible times (ms) of probes that became visible, sorted.
    pub fn visible_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.visible)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// How late the driver sent each op (µs), sorted.
    pub fn lateness(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().map(Record::late_us).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The driver's own lag on each op (µs), sorted.
    pub fn lag(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().map(Record::lag_us).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Most ops due and not yet answered at any one instant.
    pub fn inflight_max(&self) -> usize {
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(self.records.len() * 2);
        for r in &self.records {
            events.push((r.due, 1));
            events.push((r.done, -1));
        }
        events.sort_unstable();
        let (mut now, mut max) = (0i64, 0i64);
        for (_, d) in events {
            now += i64::from(d);
            max = max.max(now);
        }
        max as usize
    }

    /// Reads completed per second of wall time.
    pub fn achieved_rps(&self, ops: &[Op]) -> f64 {
        let reads = self
            .records
            .iter()
            .filter(|r| r.ok() && matches!(ops[r.op], Op::Read { .. }))
            .count();
        reads as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// The fixed schedule of a phase: op `i` is due at `i / rate` plus a
/// seeded jitter of up to half an interval either way.
pub fn schedule(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    let interval = 1e9 / rate;
    let mut rng = Rng::new(seed ^ 0x5CED);
    (0..n)
        .map(|i| {
            let jitter = (rng.unit() - 0.5) * interval;
            ((i as f64 + 0.5) * interval + jitter).max(0.0) as u64
        })
        .collect()
}

struct Outstanding {
    record: usize,
    session: u64,
    fresh: ItemId,
    sent: u64,
    last_poll: u64,
}

/// Runs one phase: `ops` at `rate`, spread over `targets.len()` threads.
/// With `trace`, each thread keeps spans in memory for the ledger.
pub fn run_phase<T: Target>(
    targets: Vec<T>,
    ops: &[Op],
    rate: f64,
    seed: u64,
    trace: Option<&'static str>,
) -> PhaseResult {
    let dues = schedule(ops.len(), rate, seed);
    let threads = targets.len().max(1);
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (i, op) in ops.iter().enumerate() {
        lanes[(mix(op.session()) % threads as u64) as usize].push(i);
    }
    for lane in &mut lanes {
        lane.sort_by_key(|&i| (dues[i], i));
    }
    let rendered: Vec<Vec<u8>> = ops
        .iter()
        .map(|op| http::post(op.path(), &op.body()))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .into_iter()
            .zip(lanes)
            .map(|(target, lane)| {
                let (dues, rendered) = (&dues, &rendered);
                scope.spawn(move || drive_lane(target, ops, &lane, dues, rendered, start, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(ops.len());
    let mut spans = Vec::new();
    for (r, s) in results {
        records.extend(r);
        let base = spans.len();
        spans.extend(s.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    records.sort_by_key(|r| r.op);
    let first = records.iter().map(|r| r.due).min().unwrap_or(0);
    let last = records.iter().map(|r| r.done).max().unwrap_or(0);
    PhaseResult {
        records,
        wall: Duration::from_nanos(last.saturating_sub(first)),
        spans,
    }
}

fn drive_lane<T: Target>(
    mut target: T,
    ops: &[Op],
    lane: &[usize],
    dues: &[u64],
    rendered: &[Vec<u8>],
    start: Instant,
    trace: Option<&'static str>,
) -> (Vec<Record>, Vec<Span>) {
    let now = || start.elapsed().as_nanos() as u64;
    precise_sleeps();
    // `now` reads 0 until `start`: an op due at 0 must not go out before.
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let mut records: Vec<Record> = Vec::with_capacity(lane.len());
    let mut log = SpanLog::new(trace.is_some());
    let mut probes: VecDeque<Outstanding> = VecDeque::new();
    // When the lane's last call (a request or a probe poll) ended.
    let mut free = 0;
    for &i in lane {
        let due = dues[i];
        loop {
            let t = now();
            if t >= due {
                break;
            }
            if poll_due(&probes, t) {
                poll_oldest(&mut target, &mut probes, &mut records, &now);
                free = now();
                continue;
            }
            let wake = probes
                .front()
                .map_or(due, |p| due.min(p.last_poll + POLL_GAP.as_nanos() as u64));
            std::thread::sleep(Duration::from_nanos(wake.saturating_sub(t)));
        }
        let ready = due.max(free);
        let sent = now();
        let reply = target.call(&ops[i], &rendered[i]);
        let done = now();
        free = done;
        if let Some(name) = trace {
            log.request(i as u64, name, due, sent, done);
        }
        if let (Op::Probe { session, fresh, .. }, true) =
            (ops[i], (200..300).contains(&reply.status))
        {
            probes.push_back(Outstanding {
                record: records.len(),
                session,
                fresh,
                sent,
                last_poll: done,
            });
        }
        records.push(Record {
            op: i,
            due,
            ready,
            sent,
            done,
            status: reply.status,
            answer: reply.items.as_deref().map(Answer::of),
            visible: None,
        });
    }
    // Settle the probes still unseen when the schedule ran out.
    let deadline = now() + PROBE_TIMEOUT.as_nanos() as u64;
    while !probes.is_empty() && now() < deadline {
        if poll_due(&probes, now()) {
            poll_oldest(&mut target, &mut probes, &mut records, &now);
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    (records, log.into_spans())
}

/// Sets the calling thread's timer slack to 1 ns (`PR_SET_TIMERSLACK`), so
/// a sleep ends at its deadline rather than up to 50 µs after it.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: `PR_SET_TIMERSLACK` reads only its integer argument.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

fn poll_due(probes: &VecDeque<Outstanding>, t: u64) -> bool {
    probes
        .front()
        .is_some_and(|p| t >= p.last_poll + POLL_GAP.as_nanos() as u64)
}

/// Polls the oldest unseen probe; once it is visible, the next oldest is
/// polled straight away (a publish makes every earlier click visible).
fn poll_oldest<T: Target>(
    target: &mut T,
    probes: &mut VecDeque<Outstanding>,
    records: &mut [Record],
    now: &impl Fn() -> u64,
) {
    while let Some(p) = probes.front_mut() {
        let op = Op::Read {
            session: p.session,
            item: p.fresh,
            consent: false,
        };
        let reply = target.call(&op, &http::post(op.path(), &op.body()));
        let t = now();
        p.last_poll = t;
        let seen = reply.items.as_ref().is_some_and(|items| !items.is_empty());
        if !seen {
            if t > p.sent + PROBE_TIMEOUT.as_nanos() as u64 {
                probes.pop_front();
            }
            break;
        }
        records[p.record].visible = Some(t - p.sent);
        probes.pop_front();
    }
}

/// Nearest-rank percentile of sorted values; 0 for an empty sample.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
