//! Seeded inputs: the click corpus, the index built from it, and the
//! request streams. Everything here is a pure function of the seed, so two
//! runs with one seed send the same requests in the same order. The program
//! under test only ever sees the generated requests.

use std::sync::Arc;

use serenade_core::{Click, ItemId, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};

/// Volume of the `ecom-1m` analogue the benchmark serves: the scale the
/// repository's in-tree benches use (about 10k training sessions, 5k items).
pub const SCALE: f64 = 0.05;
/// Posting-list capacity of the served index (the engine default).
pub const M_MAX: usize = 500;
/// Items per response (the engine's `how_many`).
pub const RESPONSE_LEN: usize = 21;
/// Browse sessions interleaved at any moment of the stream.
const ACTIVE_SESSIONS: usize = 2_048;
/// Zipf exponent of the `anon-hot` item popularity.
const ANON_ZIPF: f64 = 1.1;
/// Every n-th write slot is a visibility probe instead of a plain click.
const PROBE_EVERY: u64 = 10;
/// First item id used by probes; far beyond any catalogue id.
const FRESH_ITEM_BASE: u64 = 1 << 40;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Browse,
    AnonHot,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "browse" => Some(Self::Browse),
            "anon-hot" => Some(Self::AnonHot),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Browse => "browse",
            Self::AnonHot => "anon-hot",
        }
    }

    /// Offered rates `(light, busy)` in requests per second: about a
    /// quarter and two thirds of the capacity measured for this workload's
    /// path on a 2-vCPU x86-64 VM, taking the lower quartile of ten runs'
    /// `max_rps` as the capacity (see the benchmark README).
    pub fn rates(self) -> (f64, f64) {
        match self {
            Self::Browse => (300.0, 700.0),
            Self::AnonHot => (2_000.0, 4_500.0),
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /recommend`.
    Read {
        session: u64,
        item: ItemId,
        consent: bool,
    },
    /// `POST /ingest` with one click.
    Write { session: u64, item: ItemId, ts: u64 },
    /// `POST /ingest` of the probe session `[fresh, next]`, then polls of
    /// `/recommend` for `fresh` until its list is non-empty.
    Probe {
        session: u64,
        fresh: ItemId,
        next: ItemId,
        ts: u64,
    },
}

impl Op {
    /// The session the op belongs to; the driver pins a session to one
    /// connection so its clicks arrive in order.
    pub fn session(&self) -> u64 {
        match *self {
            Op::Read { session, .. } | Op::Write { session, .. } | Op::Probe { session, .. } => {
                session
            }
        }
    }

    /// The JSON body the op sends.
    pub fn body(&self) -> String {
        match *self {
            Op::Read { session, item, consent } => format!(
                "{{\"session_id\":{session},\"item_id\":{item},\"consent\":{consent}}}"
            ),
            Op::Write { session, item, ts } => format!(
                "{{\"clicks\":[{{\"session_id\":{session},\"item_id\":{item},\"timestamp\":{ts}}}]}}"
            ),
            Op::Probe { session, fresh, next, ts } => format!(
                "{{\"clicks\":[{{\"session_id\":{session},\"item_id\":{fresh},\"timestamp\":{ts}}},\
                 {{\"session_id\":{session},\"item_id\":{next},\"timestamp\":{}}}]}}",
                ts + 1
            ),
        }
    }

    /// The endpoint the op posts to.
    pub fn path(&self) -> &'static str {
        match self {
            Op::Read { .. } => "/recommend",
            Op::Write { .. } | Op::Probe { .. } => "/ingest",
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded click corpus: training clicks, held-out sessions and the
/// training items by descending popularity.
pub struct Corpus {
    pub train: Vec<Click>,
    pub held_out: Vec<Vec<ItemId>>,
    pub popular: Vec<ItemId>,
    pub max_ts: u64,
}

impl Corpus {
    pub fn generate(seed: u64) -> Self {
        let data = generate(&SyntheticConfig::ecom_1m().scaled(SCALE).with_seed(seed));
        let max_ts = data.clicks.iter().map(|c| c.timestamp).max().unwrap_or(0);
        let split = split_last_days(&data.clicks, 1);
        let mut counts: std::collections::HashMap<ItemId, u64> = Default::default();
        for c in &split.train {
            *counts.entry(c.item_id).or_default() += 1;
        }
        let mut popular: Vec<(ItemId, u64)> = counts.into_iter().collect();
        popular.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self {
            train: split.train,
            held_out: split.test.into_iter().map(|s| s.items).collect(),
            popular: popular.into_iter().map(|(item, _)| item).collect(),
            max_ts,
        }
    }

    /// The served index, built exactly as the serving tier builds it.
    pub fn build_index(&self) -> SessionIndex {
        SessionIndex::build(&self.train, M_MAX).expect("the corpus index builds")
    }
}

/// The reference recommender: the engine's configuration (twice the
/// response length, truncated afterwards) over the served index.
pub fn reference(index: Arc<SessionIndex>) -> VmisKnn {
    let config = VmisConfig {
        how_many: RESPONSE_LEN * 2,
        ..VmisConfig::default()
    };
    VmisKnn::new(index, config).expect("the reference recommender builds")
}

/// An endless seeded request stream for one workload.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    held_out: Arc<Vec<Vec<ItemId>>>,
    zipf_cdf: Arc<Vec<f64>>,
    popular: Arc<Vec<ItemId>>,
    active: Vec<(u64, usize, usize)>,
    next_session: usize,
    writers: Vec<(u64, usize, usize)>,
    next_writer: usize,
    writes: u64,
    ts: u64,
    stream_id: u64,
}

impl Stream {
    /// A stream; distinct `stream_id`s give disjoint session ids, so a
    /// warm-up stream never touches a measured session.
    pub fn new(workload: Workload, corpus: &Corpus, seed: u64, stream_id: u64) -> Self {
        let held_out = Arc::new(corpus.held_out.clone());
        let popular = Arc::new(corpus.popular.clone());
        let mut cdf = Vec::with_capacity(popular.len());
        let mut total = 0.0;
        for rank in 0..popular.len() {
            total += 1.0 / ((rank + 1) as f64).powf(ANON_ZIPF);
            cdf.push(total);
        }
        for x in &mut cdf {
            *x /= total;
        }
        let mut stream = Self {
            workload,
            rng: Rng::new(seed ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407)),
            held_out,
            zipf_cdf: Arc::new(cdf),
            popular,
            active: Vec::new(),
            next_session: 0,
            writers: Vec::new(),
            next_writer: 0,
            writes: 0,
            ts: corpus.max_ts + 1,
            stream_id,
        };
        stream.next_session = stream.rng.below(stream.held_out.len());
        stream.next_writer = stream.rng.below(stream.held_out.len());
        for _ in 0..ACTIVE_SESSIONS {
            let s = stream.fresh_session(false);
            stream.active.push(s);
        }
        for _ in 0..ACTIVE_SESSIONS / 8 {
            let s = stream.fresh_session(true);
            stream.writers.push(s);
        }
        stream
    }

    /// `(user id, held-out session, position)`: user ids are random over a
    /// population of 2⁴⁰ and tagged with the stream id, staying below 2⁵³
    /// so they survive a JSON number.
    fn fresh_session(&mut self, writer: bool) -> (u64, usize, usize) {
        let cursor = if writer {
            &mut self.next_writer
        } else {
            &mut self.next_session
        };
        let held = *cursor % self.held_out.len();
        *cursor += 1;
        let user = (self.rng.next_u64() & ((1 << 40) - 1)) | (self.stream_id << 44) | 1;
        (user, held, 0)
    }

    fn browse_click(&mut self, writer: bool) -> (u64, ItemId) {
        let pool_len = if writer {
            self.writers.len()
        } else {
            self.active.len()
        };
        let slot = self.rng.below(pool_len);
        let (user, held, pos) = if writer {
            self.writers[slot]
        } else {
            self.active[slot]
        };
        let session = &self.held_out[held];
        let item = session[pos];
        let next = if pos + 1 < session.len() {
            (user, held, pos + 1)
        } else {
            self.fresh_session(writer)
        };
        if writer {
            self.writers[slot] = next;
        } else {
            self.active[slot] = next;
        }
        (user, item)
    }

    fn zipf_item(&mut self) -> ItemId {
        let u = self.rng.unit();
        let rank = self
            .zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.popular.len() - 1);
        self.popular[rank]
    }

    /// A read of the stream's own kind.
    fn read(&mut self) -> Op {
        match self.workload {
            Workload::AnonHot => {
                let item = self.zipf_item();
                let session = (self.rng.next_u64() & ((1 << 40) - 1)) | (self.stream_id << 44);
                Op::Read {
                    session,
                    item,
                    consent: false,
                }
            }
            Workload::Browse => {
                let (session, item) = self.browse_click(false);
                Op::Read {
                    session,
                    item,
                    consent: true,
                }
            }
        }
    }

    /// A write slot: a held-out click, or every `PROBE_EVERY`-th time a
    /// visibility probe with a never-seen item.
    pub fn write(&mut self) -> Op {
        self.writes += 1;
        self.ts += 1;
        if self.writes.is_multiple_of(PROBE_EVERY) {
            let session = (self.rng.next_u64() & ((1 << 40) - 1)) | (self.stream_id << 44) | 2;
            let fresh = FRESH_ITEM_BASE + (self.stream_id << 24) + self.writes;
            let next = self.popular[self.rng.below(self.popular.len().min(64))];
            self.ts += 1;
            Op::Probe {
                session,
                fresh,
                next,
                ts: self.ts - 1,
            }
        } else {
            let (session, item) = self.browse_click(true);
            Op::Write {
                session,
                item,
                ts: self.ts,
            }
        }
    }

    /// The next `n` reads.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.read()).collect()
    }

    /// The next `n` write slots (the write blocks).
    pub fn take_writes(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.write()).collect()
    }
}
