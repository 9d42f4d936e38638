//! Output checks. `browse` answers must equal `VmisKnn::recommend` on the
//! session's last two items, `anon-hot` answers must equal
//! `recommend_depersonalised` on the displayed item (both truncated to the
//! response length). Writes must be accepted and probes must become
//! visible.

use std::collections::HashMap;

use serenade_core::{ItemId, VmisKnn};

use crate::driver::Record;
use crate::workload::{mix, Op, RESPONSE_LEN};

/// Outcome of checking a run's records.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub attempted: usize,
    /// Socket errors and non-2xx statuses.
    pub errors: usize,
    /// 2xx answers with the wrong content, and probes never seen.
    pub wrong: usize,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.errors + self.wrong
    }

    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }
}

/// What the checks keep of one `/recommend` answer: its length and a
/// digest of its item order. Compact, so a run can hold every answer until
/// the checks run after the timed blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub len: usize,
    pub digest: u64,
}

impl Answer {
    pub fn of(items: &[(u64, f64)]) -> Self {
        Self {
            len: items.len(),
            digest: digest(items.iter().map(|p| p.0)),
        }
    }
}

fn digest(items: impl Iterator<Item = ItemId>) -> u64 {
    items.fold(0x51_7C_C1_B7_27_22_0A_95, |h, item| mix(h ^ item))
}

/// Checks the records of a write stream: every write must be accepted
/// and every probe must become visible.
pub fn check_writes(ops: &[Op], records: &[Record]) -> Verdict {
    let mut v = Verdict {
        attempted: records.len(),
        ..Verdict::default()
    };
    for r in records {
        if !r.ok() {
            v.errors += 1;
        } else if matches!(ops[r.op], Op::Probe { .. }) && r.visible.is_none() {
            v.wrong += 1;
        }
    }
    v
}

/// Checks one read stream's records in stream order. `history` carries
/// each session's clicks across calls, so a session may span blocks.
pub struct Checker<'a> {
    reference: &'a VmisKnn,
    history: HashMap<u64, [ItemId; 2]>,
    expected: HashMap<(ItemId, ItemId), Answer>,
    scratch: serenade_core::Scratch,
}

impl<'a> Checker<'a> {
    /// `reference` is the recommender over the served index.
    pub fn new(reference: &'a VmisKnn) -> Self {
        Self {
            scratch: reference.scratch(),
            reference,
            history: HashMap::new(),
            expected: HashMap::new(),
        }
    }

    /// Checks `records` (in op order) of the reads `ops`.
    pub fn check(&mut self, ops: &[Op], records: &[Record]) -> Verdict {
        let mut v = Verdict {
            attempted: records.len(),
            ..Verdict::default()
        };
        for r in records {
            let Op::Read {
                session,
                item,
                consent,
            } = ops[r.op]
            else {
                panic!("a read stream holds only reads");
            };
            // A failed click may or may not have reached the session; the
            // session's later answers are still judged on the stream.
            let expected = self.expect(session, item, consent);
            if !r.ok() {
                v.errors += 1;
            } else if r.answer != Some(expected) {
                v.wrong += 1;
            }
        }
        v
    }

    /// The expected answer to a read.
    fn expect(&mut self, session: u64, item: ItemId, consent: bool) -> Answer {
        let view: (ItemId, ItemId) = if consent {
            let slot = self.history.entry(session).or_insert([ItemId::MAX; 2]);
            slot[0] = slot[1];
            slot[1] = item;
            (slot[0], slot[1])
        } else {
            self.history.remove(&session);
            (ItemId::MAX, item)
        };
        if let Some(hit) = self.expected.get(&view) {
            return *hit;
        }
        let (reference, scratch) = (self.reference, &mut self.scratch);
        let mut recs = if view.0 == ItemId::MAX {
            if consent {
                reference.recommend_with_scratch(&[view.1], scratch)
            } else {
                reference.recommend_depersonalised(view.1, scratch)
            }
        } else {
            reference.recommend_with_scratch(&[view.0, view.1], scratch)
        };
        recs.truncate(RESPONSE_LEN);
        let expected = Answer {
            len: recs.len(),
            digest: digest(recs.iter().map(|r| r.item)),
        };
        self.expected.insert(view, expected);
        expected
    }
}
