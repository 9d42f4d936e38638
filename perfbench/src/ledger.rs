//! The traced run: the per-layer ledger of one workload at its `busy` rate.
//!
//! The workload's stream is replayed, at the same rate and against fresh
//! state, through each tier in turn: the router daemon, a node's data port,
//! the program's `RemotePod`, and the in-process `Engine`. The same reads
//! are then replayed without pacing through the direct layer calls the
//! engine makes (`TtlStore`, `PredictionCache`, the VMIS-kNN kernel and the
//! JSON codec), and a short write stream through `IngestPipeline`. Every
//! call is wrapped in a span recorded by the benchmark; the spans are
//! written to `.bench_work/spans-<workload>-<seed>.jsonl` at the end.
//!
//! Self times follow from the tiers: the router's is the via-router p50
//! minus the `RemotePod` round trip, the server's is the data-port p50
//! minus the in-process engine p50, and the engine's is its p50 minus the
//! p50 of the per-request sum of its layer calls. What no tier isolates
//! (driver queueing, the `RemotePod` client path) stays in
//! `residual_p50_us`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_core::{ItemId, SessionIndex};
use serenade_kvstore::{StoreConfig, TtlStore};
use serenade_serving::cache::{CacheKey, ViewKind};
use serenade_serving::json::{self, JsonValue};
use serenade_serving::{
    BusinessRules, CacheConfig, Engine, EngineConfig, IngestConfig, PredictionCache, RemotePod,
    ServingCluster,
};

use crate::bench::{self, http_targets, Metric, Outcome};
use crate::check::{check_writes, Checker, Verdict};
use crate::deploy::{self, Deployment};
use crate::driver::{median, pct, run_phase, EngineTarget, PhaseResult, PodTarget, Target};
use crate::http::scrape_sum;
use crate::trace::{self, Span, SpanLog};
use crate::workload::{reference, Corpus, Op, Stream, Workload, RESPONSE_LEN};

/// Share of the run's seconds each paced pass takes (at most eight passes:
/// untraced busy and light, writes, traced end to end, and four tiers).
const PASS_SHARE: f64 = 0.1;
/// Share of the run's seconds each `max_rps` ladder rung takes.
const RUNG_SHARE: f64 = 0.03;
/// Ops sent to each fresh tier before its timed pass.
const WARMUP_OPS: usize = 400;
/// Reads replayed through the direct layer calls.
const REPLAY_READS: usize = 6_000;
/// Clicks submitted to the in-process ingest pipeline, and how many
/// submits each forced publish (`flush`) covers.
const INGEST_SUBMITS: usize = 256;
const SUBMITS_PER_FLUSH: usize = 8;
/// Index builds timed for `index.build_s`.
const BUILDS: usize = 3;
/// Maximum session length the engine stores (the engine default).
const MAX_STORED: usize = 50;
/// Items the engine's Hist(2) view keeps.
const HIST: usize = 2;

/// One paced pass through one tier.
struct Pass {
    result: PhaseResult,
    verdict: Verdict,
}

impl Pass {
    /// p50 of the tier-call spans (send to done) of reads, in µs.
    fn tier_pct(&self, ops: &[Op], q: f64) -> f64 {
        pct(&self.result.read_service(ops), q)
    }

    /// p50 of client-observed read latency (due to done), in µs.
    fn e2e_p50(&self, ops: &[Op]) -> f64 {
        pct(&self.result.latencies(ops, true), 0.5)
    }
}

/// Runs `warm` then the timed `ops` through fresh targets made by `make`,
/// and checks the timed answers.
fn pass<T: Target>(
    make: impl Fn() -> Vec<T>,
    warm: &[Op],
    ops: &[Op],
    rate: f64,
    seed: u64,
    span: Option<&'static str>,
    mut checker: Checker<'_>,
) -> Pass {
    let _ = run_phase(make(), warm, rate, seed ^ 0x77, None);
    let result = run_phase(make(), ops, rate, seed, span);
    let verdict = checker.check(ops, &result.records);
    Pass { result, verdict }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders a response the way the server does, for the encode timing.
fn response_value(recs: &[serenade_core::ItemScore]) -> JsonValue {
    JsonValue::object([(
        "recommendations",
        JsonValue::Array(
            recs.iter()
                .map(|r| {
                    JsonValue::object([
                        ("item_id", JsonValue::Number(r.item as f64)),
                        ("score", JsonValue::Number(f64::from(r.score))),
                    ])
                })
                .collect(),
        ),
    )])
}

/// The engine's request path rebuilt from its layer calls and replayed on
/// `reads`: the session stage, then the cache for depersonalised views and
/// the kernel for the rest. Spans `engine.replay` with the calls as
/// children; returns the spans and how many reads reached the kernel.
fn replay_engine_path(index: &Arc<SessionIndex>, reads: &[Op]) -> (Vec<Span>, usize) {
    let vmis = reference(Arc::clone(index));
    let store: TtlStore<u64, Vec<ItemId>> = TtlStore::new(StoreConfig::default());
    let cache = PredictionCache::new(CacheConfig::default());
    let mut scratch = vmis.scratch();
    let mut log = SpanLog::new(true);
    let mut kernel_calls = 0;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    for (i, op) in reads.iter().enumerate() {
        let Op::Read {
            session,
            item,
            consent,
        } = *op
        else {
            continue;
        };
        let req = i as u64;
        let root = log.push("engine.replay", req, None, now(), 0);
        let mut view: Vec<ItemId> = Vec::with_capacity(HIST);
        if consent {
            let s = now();
            store.update_or_insert(session, Vec::new, |items| {
                items.push(item);
                if items.len() > MAX_STORED {
                    let excess = items.len() - MAX_STORED;
                    items.drain(..excess);
                }
                view.extend_from_slice(&items[items.len().saturating_sub(HIST)..]);
            });
            log.push("engine.kvstore", req, Some(root), s, now());
        } else {
            store.remove(&session);
            view.push(item);
        }
        let recs = if consent {
            kernel_calls += 1;
            let s = now();
            let r = vmis.recommend_with_scratch(&view, &mut scratch);
            log.push("engine.vmis", req, Some(root), s, now());
            r
        } else {
            let key = CacheKey {
                item,
                view: ViewKind::Depersonalised,
            };
            let s = now();
            let hit = cache.lookup(key, 1);
            log.push("engine.cache", req, Some(root), s, now());
            match hit {
                Some(list) => list.as_ref().clone(),
                None => {
                    kernel_calls += 1;
                    let s = now();
                    let r = vmis.recommend_depersonalised(item, &mut scratch);
                    log.push("engine.vmis", req, Some(root), s, now());
                    cache.store_list(key, 1, r.clone());
                    r
                }
            }
        };
        black_box(recs);
        log.close(root, now());
    }
    (log.into_spans(), kernel_calls)
}

/// Every layer call timed on every read, whether or not this workload's
/// path makes it: the session update, the cache probe (a miss stores the
/// kernel's list), both kernel entry points, and the JSON codec.
fn time_layers(index: &Arc<SessionIndex>, reads: &[Op]) -> Vec<Span> {
    let vmis = reference(Arc::clone(index));
    let store: TtlStore<u64, Vec<ItemId>> = TtlStore::new(StoreConfig::default());
    let cache = PredictionCache::new(CacheConfig::default());
    let mut scratch = vmis.scratch();
    let mut log = SpanLog::new(true);
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    for (i, op) in reads.iter().enumerate() {
        let Op::Read { session, item, .. } = *op else {
            continue;
        };
        let req = i as u64;
        let body = op.body();
        let s = now();
        black_box(json::parse(black_box(&body)).ok());
        log.push("json.parse", req, None, s, now());
        let mut view: Vec<ItemId> = Vec::with_capacity(HIST);
        let s = now();
        store.update_or_insert(session, Vec::new, |items| {
            items.push(item);
            if items.len() > MAX_STORED {
                let excess = items.len() - MAX_STORED;
                items.drain(..excess);
            }
            view.extend_from_slice(&items[items.len().saturating_sub(HIST)..]);
        });
        log.push("kvstore.update_or_insert", req, None, s, now());
        let s = now();
        let recs = vmis.recommend_with_scratch(&view, &mut scratch);
        log.push("vmis.recommend_with_scratch", req, None, s, now());
        let key = CacheKey {
            item,
            view: ViewKind::Depersonalised,
        };
        let s = now();
        let hit = cache.lookup(key, 1);
        log.push("cache.lookup", req, None, s, now());
        let s = now();
        let dep = vmis.recommend_depersonalised(item, &mut scratch);
        log.push("vmis.recommend_depersonalised", req, None, s, now());
        if hit.is_none() {
            cache.store_list(key, 1, dep);
        }
        let mut shown = recs;
        shown.truncate(RESPONSE_LEN);
        let value = response_value(&shown);
        let s = now();
        black_box(black_box(&value).to_json());
        log.push("json.to_json", req, None, s, now());
    }
    log.into_spans()
}

/// `IngestPipeline::submit` and `flush` on a fresh in-process cluster.
fn replay_ingest(
    index: &Arc<SessionIndex>,
    corpus: &Corpus,
    writes: &[Op],
) -> Result<(Vec<Span>, u64, u64), String> {
    let cluster = ServingCluster::new(
        Arc::clone(index),
        1,
        EngineConfig::default(),
        BusinessRules::none(),
    )
    .map_err(|e| format!("ingest cluster: {e}"))?;
    // Publishes happen only on `flush`, so each one is timed whole.
    let config = IngestConfig {
        publish_interval: Duration::from_secs(3_600),
        ..deploy::ingest_config()
    };
    let pipeline = cluster
        .enable_ingest(config, &corpus.train)
        .map_err(|e| format!("ingest: {e}"))?;
    let mut log = SpanLog::new(true);
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    for (i, op) in writes.iter().enumerate() {
        let clicks = crate::driver::clicks_of(op);
        let s = now();
        let accepted = pipeline.submit(&clicks);
        log.push("ingest.submit", i as u64, None, s, now());
        if !accepted {
            return Err(String::from("the ingest pipeline refused a submit"));
        }
        if (i + 1) % SUBMITS_PER_FLUSH == 0 {
            let s = now();
            pipeline.flush().map_err(|e| format!("flush: {e}"))?;
            log.push("ingest.flush", i as u64, None, s, now());
        }
    }
    let metrics = pipeline.metrics();
    Ok((
        log.into_spans(),
        metrics.publishes(),
        metrics.publish_failures(),
    ))
}

/// The traced run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let corpus = Corpus::generate(seed);
    let mut build_times = Vec::with_capacity(BUILDS);
    let mut index = None;
    for _ in 0..BUILDS {
        let started = Instant::now();
        index = Some(Arc::new(corpus.build_index()));
        build_times.push(started.elapsed().as_secs_f64());
    }
    let index = index.expect("at least one build");
    let refr = reference(Arc::clone(&index));
    let (path, artifact) = deploy::write_artifact(&index, "ledger-index.bin");
    let (light, busy) = workload.rates();
    let secs = seconds * PASS_SHARE;
    let mut stream = Stream::new(workload, &corpus, seed, 1);
    let ops = stream.take((busy * secs).round() as usize);
    let light_ops = stream.take((light * secs).round() as usize);
    let warm = Stream::new(workload, &corpus, seed, 100).take(WARMUP_OPS);
    let check = || Checker::new(&refr);
    let err = |e: std::io::Error| format!("ledger deployment: {e}");

    // End to end on the workload's own path: untraced at busy then light
    // (the tail latencies), then traced at busy on a fresh deployment.
    // The `max_rps` ladder follows on the same deployment.
    let rung_secs = seconds * RUNG_SHARE;
    let (e2e_untraced, light_untraced, ladder, untraced_verdict) = {
        let s = bench::setup(workload, &corpus, seed, 10)?;
        let addr = s.deployment.addr;
        let busy_result = run_phase(http_targets(addr), &ops, busy, seed ^ 0xE0, None);
        let light_result = run_phase(http_targets(addr), &light_ops, light, seed ^ 0xE5, None);
        let ladder = bench::ladder(addr, &mut stream, busy, rung_secs, seed ^ 0xE7);
        s.deployment.stop();
        let mut c = check();
        let mut verdict = c.check(&ops, &busy_result.records);
        verdict.merge(c.check(&light_ops, &light_result.records));
        for rung in &ladder.rungs {
            verdict.merge(c.check(&rung.ops, &rung.result.records));
        }
        (busy_result, light_result, ladder, verdict)
    };
    // Writes: a write pass against an ingest node.
    let (write_lat, write_verdict) = {
        let d = deploy::ingest_node(seed).map_err(err)?;
        let writes = Stream::new(workload, &corpus, seed, 2)
            .take_writes((bench::WRITE_RATE * secs).round() as usize);
        let result = run_phase(
            http_targets(d.addr),
            &writes,
            bench::WRITE_RATE,
            seed ^ 0xE6,
            None,
        );
        d.stop();
        let verdict = check_writes(&writes, &result.records);
        (result.latencies(&writes, false), verdict)
    };
    let e2e_tier = match workload {
        Workload::Browse => "routerd.request",
        Workload::AnonHot => "server.request",
    };
    let e2e_setup = bench::setup(workload, &corpus, seed, 11)?;
    let e2e = {
        let result = run_phase(
            http_targets(e2e_setup.deployment.addr),
            &ops,
            busy,
            seed ^ 0xE0,
            Some(e2e_tier),
        );
        let mut c = check();
        let verdict = c.check(&ops, &result.records);
        Pass { result, verdict }
    };
    let e2e_scrape = e2e_setup.deployment.scrape();
    e2e_setup.deployment.stop();

    // The router tier (its own pass unless it is the workload's path).
    let (router_pass, router_scrape, artifact_load) = {
        let (d, publish): (Deployment, Duration) = deploy::router(2, &path).map_err(err)?;
        let p = if workload == Workload::Browse {
            None
        } else {
            let addr = d.addr;
            Some(pass(
                || http_targets(addr),
                &warm,
                &ops,
                busy,
                seed ^ 0xE1,
                Some("routerd.request"),
                check(),
            ))
        };
        let scrape = d.scrape_entry();
        d.stop();
        (p, scrape, publish)
    };
    // A serving node's data port (its own pass unless it is the path).
    let (node_pass, node_scrape) = if workload == Workload::AnonHot {
        (None, None)
    } else {
        let d = deploy::node(&artifact).map_err(err)?;
        let addr = d.addr;
        let p = pass(
            || http_targets(addr),
            &warm,
            &ops,
            busy,
            seed ^ 0xE2,
            Some("server.request"),
            check(),
        );
        let scrape = d.scrape_entry();
        d.stop();
        (Some(p), Some(scrape))
    };
    // `RemotePod::handle_with` from the benchmark to one node.
    let pod_pass = {
        let d = deploy::node(&artifact).map_err(err)?;
        let pod = Arc::new(RemotePod::new(d.addr));
        let p = pass(
            || {
                (0..bench::lanes())
                    .map(|_| PodTarget::new(Arc::clone(&pod)))
                    .collect()
            },
            &warm,
            &ops,
            busy,
            seed ^ 0xE3,
            Some("transport.handle_with"),
            check(),
        );
        d.stop();
        p
    };
    // `Engine::handle_with` in process on the same index and stream.
    let engine_pass = {
        let engine = Arc::new(
            Engine::new(
                Arc::clone(&index),
                EngineConfig::default(),
                BusinessRules::none(),
            )
            .map_err(|e| format!("engine tier: {e}"))?,
        );
        pass(
            || {
                (0..bench::lanes())
                    .map(|_| EngineTarget::new(Arc::clone(&engine)))
                    .collect()
            },
            &warm,
            &ops,
            busy,
            seed ^ 0xE4,
            Some("engine.handle_with"),
            check(),
        )
    };
    let _ = std::fs::remove_file(&path);

    // Direct layer calls.
    let replay_reads: Vec<Op> = ops.iter().copied().take(REPLAY_READS).collect();
    let (path_spans, kernel_calls) = replay_engine_path(&index, &replay_reads);
    let layer_spans = time_layers(&index, &replay_reads);
    let writes = Stream::new(workload, &corpus, seed, 3).take_writes(INGEST_SUBMITS);
    let (ingest_spans, direct_publishes, direct_failures) =
        replay_ingest(&index, &corpus, &writes)?;

    // Write every span out.
    {
        use std::io::Write;
        // Beside the per-run work directory, which is removed at exit.
        let file =
            deploy::work_dir().with_file_name(format!("spans-{}-{seed}.jsonl", workload.name()));
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&file).map_err(|e| format!("span file: {e}"))?,
        );
        let mut write =
            |pass_name: &str, spans: &[Span]| trace::write_jsonl(&mut out, pass_name, spans);
        let mut written = write("e2e", &e2e.result.spans);
        for (name, p) in [("router", &router_pass), ("node", &node_pass)] {
            if let Some(p) = p {
                written = written.and_then(|()| write(name, &p.result.spans));
            }
        }
        written = written
            .and_then(|()| write("transport", &pod_pass.result.spans))
            .and_then(|()| write("engine", &engine_pass.result.spans))
            .and_then(|()| write("engine-path", &path_spans))
            .and_then(|()| write("layers", &layer_spans))
            .and_then(|()| write("ingest", &ingest_spans));
        written
            .and_then(|()| out.flush())
            .map_err(|e| format!("span file: {e}"))?;
    }

    // The ledger.
    let layer = trace::self_times_by_name(&layer_spans);
    let ingest_times = trace::self_times_by_name(&ingest_spans);
    let p50_of = |m: &HashMap<&'static str, Vec<f64>>, name: &str, q: f64| {
        m.get(name).map_or(0.0, |v| pct(v, q))
    };
    // Per-request sum of the engine's storage, cache and kernel calls.
    let mut per_request: HashMap<u64, f64> = HashMap::new();
    for s in &path_spans {
        if matches!(s.name, "engine.kvstore" | "engine.cache" | "engine.vmis") {
            *per_request.entry(s.request).or_default() += (s.end - s.start) as f64 / 1e3;
        }
    }
    let mut sums: Vec<f64> = (0..replay_reads.len() as u64)
        .map(|r| per_request.get(&r).copied().unwrap_or(0.0))
        .collect();
    sums.sort_by(f64::total_cmp);
    let layers_p50 = pct(&sums, 0.5);

    let router_p50 = match &router_pass {
        Some(p) => p.tier_pct(&ops, 0.5),
        None => e2e.tier_pct(&ops, 0.5),
    };
    let node_p50 = match &node_pass {
        Some(p) => p.tier_pct(&ops, 0.5),
        None => e2e.tier_pct(&ops, 0.5),
    };
    let rtt_p50 = pod_pass.tier_pct(&ops, 0.5);
    let engine_p50 = engine_pass.tier_pct(&ops, 0.5);
    let engine_p99 = engine_pass.tier_pct(&ops, 0.99);
    let routerd_self = router_p50 - rtt_p50;
    let server_self = node_p50 - engine_p50;
    let engine_self = engine_p50 - layers_p50;
    let traced_p50 = e2e.e2e_p50(&ops);
    let untraced_p50 = pct(&e2e_untraced.latencies(&ops, true), 0.5);
    let on_router_path = workload == Workload::Browse;
    let residual = traced_p50
        - (if on_router_path { routerd_self } else { 0.0 }
            + server_self
            + engine_self
            + layers_p50);

    // The node tier's counters: its own pass, or the workload's path.
    let node_scrape = node_scrape.as_ref().unwrap_or(&e2e_scrape);
    let hits = scrape_sum(node_scrape, "serenade_cache_hits_total");
    let misses = scrape_sum(node_scrape, "serenade_cache_misses_total");
    let stale = scrape_sum(node_scrape, "serenade_cache_stale_total");
    let revalidated = scrape_sum(node_scrape, "serenade_cache_epoch_revalidations_total");
    // Every deployment that served traffic, each process once: the router
    // pass (idle on browse, where the router is the path), the node pass
    // (absent on anon-hot, where the node is the path) and the path.
    let mut served = vec![&router_scrape, &e2e_scrape];
    if node_pass.is_some() {
        served.push(node_scrape);
    }
    let total = |name: &str| served.iter().map(|t| scrape_sum(t, name)).sum::<f64>();

    let mut verdict = e2e.verdict;
    verdict.merge(untraced_verdict);
    verdict.merge(write_verdict);
    for p in [&router_pass, &node_pass].into_iter().flatten() {
        verdict.merge(p.verdict);
    }
    verdict.merge(pod_pass.verdict);
    verdict.merge(engine_pass.verdict);

    let light_lat = light_untraced.latencies(&light_ops, true);
    let busy_lat = e2e_untraced.latencies(&ops, true);
    let metrics: Vec<Metric> = vec![
        ("routerd.self_p50_us", routerd_self, "us"),
        (
            "routerd.failover_total",
            total("serenade_router_failover_total"),
            "count",
        ),
        ("transport.rtt_p50_us", rtt_p50, "us"),
        ("server.self_p50_us", server_self, "us"),
        (
            "server.batch_size_mean",
            ratio(
                scrape_sum(node_scrape, "serenade_batch_size_sum"),
                scrape_sum(node_scrape, "serenade_batch_size_count"),
            ),
            "requests",
        ),
        (
            "server.shed_total",
            total("serenade_http_shed_total"),
            "count",
        ),
        ("engine.p50_us", engine_p50, "us"),
        ("engine.p99_us", engine_p99, "us"),
        ("engine.self_p50_us", engine_self, "us"),
        (
            "kvstore.update_p50_us",
            p50_of(&layer, "kvstore.update_or_insert", 0.5),
            "us",
        ),
        (
            "kvstore.live_sessions",
            scrape_sum(node_scrape, "serenade_live_sessions"),
            "count",
        ),
        (
            "cache.hit_ratio",
            ratio(hits, hits + misses + stale),
            "ratio",
        ),
        (
            "cache.lookup_p50_us",
            p50_of(&layer, "cache.lookup", 0.5),
            "us",
        ),
        (
            "cache.revalidated_ratio",
            ratio(revalidated, revalidated + stale),
            "ratio",
        ),
        (
            "vmis.session_p50_us",
            p50_of(&layer, "vmis.recommend_with_scratch", 0.5),
            "us",
        ),
        (
            "vmis.session_p99_us",
            p50_of(&layer, "vmis.recommend_with_scratch", 0.99),
            "us",
        ),
        (
            "vmis.dep_p50_us",
            p50_of(&layer, "vmis.recommend_depersonalised", 0.5),
            "us",
        ),
        (
            "vmis.calls_per_request",
            ratio(kernel_calls as f64, replay_reads.len() as f64),
            "ratio",
        ),
        (
            "json.parse_p50_ns",
            p50_of(&layer, "json.parse", 0.5) * 1e3,
            "ns",
        ),
        (
            "json.encode_p50_ns",
            p50_of(&layer, "json.to_json", 0.5) * 1e3,
            "ns",
        ),
        (
            "ingest.submit_p50_us",
            p50_of(&ingest_times, "ingest.submit", 0.5),
            "us",
        ),
        (
            "ingest.publish_p50_ms",
            p50_of(&ingest_times, "ingest.flush", 0.5) / 1e3,
            "ms",
        ),
        (
            "ingest.publish_p99_ms",
            p50_of(&ingest_times, "ingest.flush", 0.99) / 1e3,
            "ms",
        ),
        ("ingest.publishes", direct_publishes as f64, "count"),
        ("ingest.publish_failures", direct_failures as f64, "count"),
        ("index.build_s", median(&build_times), "s"),
        (
            "index.artifact_load_ms",
            artifact_load.as_secs_f64() * 1e3,
            "ms",
        ),
        (
            "driver.late_p99_us",
            pct(&e2e.result.lateness(), 0.99),
            "us",
        ),
        (
            "driver.inflight_max",
            e2e.result.inflight_max() as f64,
            "count",
        ),
        (
            "failed_ratio",
            ratio(verdict.failed() as f64, verdict.attempted as f64),
            "ratio",
        ),
        ("residual_p50_us", residual, "us"),
        ("trace.overhead_p50_us", traced_p50 - untraced_p50, "us"),
        ("p50_us.light", pct(&light_lat, 0.5), "us"),
        ("p50_us.busy", pct(&busy_lat, 0.5), "us"),
        ("p99_us.light", pct(&light_lat, 0.99), "us"),
        ("p99_us.busy", pct(&busy_lat, 0.99), "us"),
        ("write_p99_us", pct(&write_lat, 0.99), "us"),
        ("max_rps", ladder.max_rps, "rps"),
    ];
    let light_lag_p99 = pct(&light_untraced.lag(), 0.99);
    let mut notes = vec![
        format!(
            "valid {} (light-pass driver lag p99 {light_lag_p99:.0} us, limit {:.0} us)",
            light_lag_p99 <= bench::VALID_LAG_P99_US,
            bench::VALID_LAG_P99_US
        ),
        format!(
            "tier p50 (send to done): router {router_p50:.1} us, node {node_p50:.1} us, \
             remote pod {rtt_p50:.1} us, engine {engine_p50:.1} us, layer calls {layers_p50:.1} us"
        ),
        format!("end-to-end p50 (due to done): traced {traced_p50:.1} us, untraced {untraced_p50:.1} us"),
        format!(
            "passes: {} ops per paced pass at {busy} rps, {} replayed reads, {} ingest submits",
            ops.len(),
            replay_reads.len(),
            writes.len()
        ),
    ];
    notes.extend(bench::rung_notes(&ladder, rung_secs));
    Ok(Outcome {
        verdict,
        metrics,
        notes,
    })
}
