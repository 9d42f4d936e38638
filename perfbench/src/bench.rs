//! The untraced run: set-up, interleaved rounds of `light`, `busy` and
//! write blocks, then the output checks. The `max_rps` ladder lives here
//! too and runs in the traced run.
//!
//! The light and busy samples are taken in short blocks spread over the
//! whole run rather than in one stretch each, and the p50s are medians of
//! the blocks' p50s, so a slow spell of the host shorter than the run
//! lands in a few blocks of every metric and moves none of them much.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use serenade_core::SessionIndex;

use crate::check::{check_writes, Checker, Verdict};
use crate::deploy::{self, Deployment};
use crate::driver::{median, pct, run_phase, HttpTarget, PhaseResult};
use crate::workload::{reference, Corpus, Op, Stream, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reads sent to a fresh deployment before the first timed request, back
/// to back on every lane, so their time is the program's.
const WARMUP_OPS: usize = 600;
/// A run is valid only while the driver keeps to its schedule at the light
/// rate: p99 over the light blocks of its own lag (lateness less any wait
/// for a busy connection), in µs. Above it the generator, or the host
/// under it, lagged, and the run says so.
pub const VALID_LAG_P99_US: f64 = 1_000.0;
/// The latency budget of a ladder rung: the paper's p90 < 7 ms (§5.2).
pub const BUDGET_US: f64 = 7_000.0;
/// The percentile the budget applies to.
const BUDGET_PCT: f64 = 0.90;
/// Ratio between two climbing ladder rungs.
const LADDER_STEP: f64 = 1.10;
/// Bisection rungs after the climb.
const BISECTIONS: usize = 2;
/// Most climbing rungs per run.
const CLIMB_RUNGS: usize = 10;
/// Interleaved rounds of light, busy and write blocks per run.
const ROUNDS: usize = 20;
/// Shares of the run's measured seconds: each light block, each busy
/// block, each write block.
const LIGHT_SHARE: f64 = 0.0225;
const BUSY_SHARE: f64 = 0.0225;
const WRITE_SHARE_OF_RUN: f64 = 0.004;
/// Offered rate of the write blocks (a tenth of it probes).
pub const WRITE_RATE: f64 = 1_000.0;

/// Driver threads and connections: one per core, at most `nproc`.
pub fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(1, 4)
}

pub fn http_targets(addr: SocketAddr) -> Vec<HttpTarget> {
    (0..lanes()).map(|_| HttpTarget::new(addr)).collect()
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run reports.
pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// A deployment ready for timed traffic.
pub struct Setup {
    pub deployment: Deployment,
    /// The served index.
    pub index: Arc<SessionIndex>,
}

/// Builds the workload's deployment from scratch: index build, artifact,
/// child spawn, publish and warm-up. `tag` keeps warm-up sessions apart
/// from measured ones.
pub fn setup(workload: Workload, corpus: &Corpus, seed: u64, tag: u64) -> Result<Setup, String> {
    let err = |e: std::io::Error| format!("{} set-up failed: {e}", workload.name());
    let index = Arc::new(corpus.build_index());
    let (path, bytes) = deploy::write_artifact(&index, &format!("index-{tag}.bin"));
    let deployment = match workload {
        Workload::Browse => deploy::router(2, &path).map_err(err)?.0,
        Workload::AnonHot => deploy::node(&bytes).map_err(err)?,
    };
    let _ = std::fs::remove_file(&path);
    let mut warm = Stream::new(workload, corpus, seed, 100 + tag);
    let ops = warm.take(WARMUP_OPS);
    let result = run_phase(
        http_targets(deployment.addr),
        &ops,
        f64::INFINITY,
        seed ^ tag,
        None,
    );
    if let Some(bad) = result.records.iter().find(|r| !r.ok()) {
        return Err(format!(
            "{} warm-up saw a failed request: status {} for {:?}",
            workload.name(),
            bad.status,
            ops[bad.op]
        ));
    }
    Ok(Setup { deployment, index })
}

/// One measured block of a stream.
pub struct Block {
    pub ops: Vec<Op>,
    pub result: PhaseResult,
}

impl Block {
    fn run(addr: SocketAddr, ops: Vec<Op>, rate: f64, seed: u64) -> Self {
        let result = run_phase(http_targets(addr), &ops, rate, seed, None);
        Self { ops, result }
    }

    fn reads(addr: SocketAddr, stream: &mut Stream, rate: f64, secs: f64, seed: u64) -> Self {
        Self::run(
            addr,
            stream.take((rate * secs).round().max(1.0) as usize),
            rate,
            seed,
        )
    }

    /// Read latencies (µs, from due), sorted.
    fn read_latencies(&self) -> Vec<f64> {
        self.result.latencies(&self.ops, true)
    }

    /// A rung holds when no request failed, the budget percentile stays
    /// within the budget, and the driver kept pace to the end (no growing
    /// backlog: the last tenth of the sends was not late at the median).
    fn holds(&self) -> bool {
        let n = self.result.records.len();
        let mut tail_late: Vec<f64> = self.result.records[n - n / 10..]
            .iter()
            .map(|r| r.late_us())
            .collect();
        tail_late.sort_by(f64::total_cmp);
        self.result.records.iter().all(|r| r.ok())
            && pct(&self.read_latencies(), BUDGET_PCT) <= BUDGET_US
            && pct(&tail_late, 0.5) <= 1_000.0
    }
}

/// The `max_rps` ladder's outcome: reads completed per second on the
/// highest rung that held, and every rung in the order run.
pub struct Ladder {
    pub max_rps: f64,
    pub rungs: Vec<Block>,
}

/// Climbs from `start` in 10% steps to the first rung that misses the
/// budget, then bisects twice between the highest rung that held and the
/// lowest that missed (2.5% resolution). If `start` itself misses, the
/// climb runs downwards. A rate misses only when two tries in a row miss,
/// so one hiccup of the host does not end the climb.
pub fn ladder(
    addr: SocketAddr,
    stream: &mut Stream,
    start: f64,
    rung_secs: f64,
    seed: u64,
) -> Ladder {
    let mut out = Ladder {
        max_rps: 0.0,
        rungs: Vec::new(),
    };
    let mut run_rung = |rate: f64| {
        let k = out.rungs.len() as u64;
        let block = Block::reads(addr, stream, rate, rung_secs, seed ^ (k << 8 | 4));
        let holds = block.holds();
        if holds {
            out.max_rps = out.max_rps.max(block.result.achieved_rps(&block.ops));
        }
        out.rungs.push(block);
        holds
    };
    let (mut held, mut missed) = (None::<f64>, None::<f64>);
    let mut rate = start;
    for _ in 0..CLIMB_RUNGS {
        if run_rung(rate) || run_rung(rate) {
            held = Some(rate);
            rate *= LADDER_STEP;
        } else {
            missed = Some(rate);
            rate /= LADDER_STEP;
        }
        if held.is_some() && missed.is_some() {
            break;
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (held, missed) {
        for _ in 0..BISECTIONS {
            let mid = (lo * hi).sqrt();
            if run_rung(mid) || run_rung(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    out
}

/// One line per ladder rung, for the run's notes.
pub fn rung_notes(ladder: &Ladder, rung_secs: f64) -> Vec<String> {
    ladder
        .rungs
        .iter()
        .map(|b| {
            format!(
                "rung {:.0} rps offered: achieved {:.0}, p90 {:.0} us, p99 {:.0} us, holds {}",
                b.ops.len() as f64 / rung_secs,
                b.result.achieved_rps(&b.ops),
                pct(&b.read_latencies(), 0.9),
                pct(&b.read_latencies(), 0.99),
                b.holds()
            )
        })
        .collect()
}

/// Concatenates per-block values, sorted.
fn pooled(blocks: &[&Block], values: impl Fn(&Block) -> Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = blocks.iter().flat_map(|b| values(b)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Each block's read p50 (µs, from due).
fn block_p50s(blocks: &[&Block]) -> Vec<f64> {
    blocks
        .iter()
        .map(|b| pct(&b.read_latencies(), 0.5))
        .collect()
}

/// The untraced run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let corpus = Corpus::generate(seed);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut kept_setup = None;
    for k in 0..SETUPS as u64 {
        drop(kept_setup.take());
        let began = Instant::now();
        let s = setup(workload, &corpus, seed, k)?;
        setup_times.push(began.elapsed().as_secs_f64());
        kept_setup = Some(s);
    }
    let Setup { deployment, index } = kept_setup.expect("at least one set-up");
    let addr = deployment.addr;
    let (light, busy) = workload.rates();
    // The write metrics come from write blocks against a separate ingest
    // node, running beside the reads' deployment.
    let writer = deploy::ingest_node(seed).map_err(|e| format!("write blocks: {e}"))?;
    let mut stream = Stream::new(workload, &corpus, seed, 1);
    let mut wstream = Stream::new(workload, &corpus, seed, 2);

    // Every read block, in stream order (for the checks).
    let mut order: Vec<Block> = Vec::new();
    let (mut lights, mut busies, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS as u64 {
        lights.push(order.len());
        order.push(Block::reads(
            addr,
            &mut stream,
            light,
            seconds * LIGHT_SHARE,
            seed ^ (round << 8 | 1),
        ));
        busies.push(order.len());
        order.push(Block::reads(
            addr,
            &mut stream,
            busy,
            seconds * BUSY_SHARE,
            seed ^ (round << 8 | 2),
        ));
        let n = (WRITE_RATE * seconds * WRITE_SHARE_OF_RUN).round() as usize;
        writes.push(Block::run(
            writer.addr,
            wstream.take_writes(n),
            WRITE_RATE,
            seed ^ (round << 8 | 3),
        ));
    }
    writer.stop();
    let rss_mb = deployment.peak_rss_mb();
    deployment.stop();

    // Output checks of every block, in stream order so sessions carry
    // across blocks.
    let reference = reference(index);
    let mut checker = Checker::new(&reference);
    let mut verdict = Verdict::default();
    for b in &order {
        verdict.merge(checker.check(&b.ops, &b.result.records));
    }
    for b in &writes {
        verdict.merge(check_writes(&b.ops, &b.result.records));
    }

    let lights: Vec<&Block> = lights.iter().map(|&i| &order[i]).collect();
    let busies: Vec<&Block> = busies.iter().map(|&i| &order[i]).collect();
    let writes: Vec<&Block> = writes.iter().collect();
    let light_lat = pooled(&lights, Block::read_latencies);
    let busy_lat = pooled(&busies, Block::read_latencies);
    let write_lat = pooled(&writes, |b| b.result.latencies(&b.ops, false));
    let visible = pooled(&writes, |b| b.result.visible_ms());
    let empty_block = lights
        .iter()
        .chain(&busies)
        .any(|b| b.read_latencies().is_empty());
    if empty_block || visible.is_empty() {
        return Err(format!(
            "{}: a block with no successful read, or no probe seen ({} probes)",
            workload.name(),
            visible.len()
        ));
    }
    let late = |blocks: &[&Block]| pooled(blocks, |b| b.result.lateness());
    let light_lag_p99 = pct(&pooled(&lights, |b| b.result.lag()), 0.99);
    let valid = light_lag_p99 <= VALID_LAG_P99_US;
    let mut notes = vec![
        format!(
            "samples: {} light reads, {} busy reads, {} writes, {} probes seen",
            light_lat.len(),
            busy_lat.len(),
            write_lat.len(),
            visible.len()
        ),
        format!(
            "driver late p50/p99/max: light {:.0}/{:.0}/{:.0} us, busy {:.0}/{:.0}/{:.0} us",
            pct(&late(&lights), 0.5),
            pct(&late(&lights), 0.99),
            pct(&late(&lights), 1.0),
            pct(&late(&busies), 0.5),
            pct(&late(&busies), 0.99),
            pct(&late(&busies), 1.0),
        ),
        format!(
            "valid {valid} (light-block driver lag p99 {light_lag_p99:.0} us, \
             limit {VALID_LAG_P99_US:.0} us)"
        ),
        format!("setup_s samples: {setup_times:?}"),
        format!("light block p50s: {:.0?} us", block_p50s(&lights)),
        format!("busy block p50s: {:.0?} us", block_p50s(&busies)),
        format!(
            "failed_ratio {:.6} ({} failed of {} attempted; {} errors, {} wrong answers)",
            verdict.failed() as f64 / verdict.attempted.max(1) as f64,
            verdict.failed(),
            verdict.attempted,
            verdict.errors,
            verdict.wrong
        ),
    ];
    // The read latencies are printed by name but not gated: on a shared VM
    // their run-to-run spread is wider than any bound the benchmark may set
    // (see the README). The traced run reports them, and `max_rps`, as
    // per-layer metrics.
    for (name, value) in [
        ("p50_us.light", median(&block_p50s(&lights))),
        ("p50_us.busy", median(&block_p50s(&busies))),
        ("p99_us.light", pct(&light_lat, 0.99)),
        ("p99_us.busy", pct(&busy_lat, 0.99)),
        ("write_p99_us", pct(&write_lat, 0.99)),
    ] {
        notes.push(format!("{name} {value:.1} us"));
    }
    let metrics = vec![
        ("setup_s", median(&setup_times), "s"),
        ("rss_mb", rss_mb, "MB"),
        ("visible_p50_ms", pct(&visible, 0.5), "ms"),
        ("visible_p90_ms", pct(&visible, 0.9), "ms"),
    ];
    Ok(Outcome {
        verdict,
        metrics,
        notes,
    })
}
