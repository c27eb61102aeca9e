//! The independent verification model.
//!
//! Expected values are recomputed from the generator seed and each writer's
//! own version history (which key it wrote, how many times), gathered from
//! the writers when a workload ends. The model never stores a copy of
//! anything the program returned, so a wrong answer cannot agree with itself.

use std::collections::BTreeMap;

use crate::gen;

/// What one read returned, judged against the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The key should hold a value and the read found none.
    Missing,
    /// The key was never written and the read found a value.
    Phantom,
    /// Shorter than the value written.
    Truncated,
    /// A well-formed value of another key.
    WrongKey,
    /// The right key, an older version than the last one written.
    Stale,
    /// Anything else: bad filler, a version never written, a longer value.
    Corrupt,
}

/// The expected state of one key: the last version written and its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    pub version: u32,
    pub len: usize,
}

impl Expect {
    pub fn of(seed: u64, id: u64, version: u32, mean: usize) -> Self {
        Self { version, len: gen::value_len(seed, id, version, mean) }
    }
}

/// Judge `got` for key `id` against `expect` (`None`: never written).
///
/// A value is well-formed when its header's length field matches its length
/// and its filler is the generator's for the header's key and version; such
/// a value is judged by key and version whatever its length, since lengths
/// differ between versions.
pub fn check(seed: u64, id: u64, expect: Option<Expect>, got: Option<&[u8]>) -> Verdict {
    let (exp, got) = match (expect, got) {
        (None, None) => return Verdict::Ok,
        (None, Some(_)) => return Verdict::Phantom,
        (Some(_), None) => return Verdict::Missing,
        (Some(e), Some(g)) => (e, g),
    };
    let Some((gid, gver)) = well_formed(seed, got) else {
        return if got.len() < exp.len { Verdict::Truncated } else { Verdict::Corrupt };
    };
    if gid != id {
        return Verdict::WrongKey;
    }
    match gver.cmp(&exp.version) {
        std::cmp::Ordering::Less => Verdict::Stale,
        std::cmp::Ordering::Equal if got.len() == exp.len => Verdict::Ok,
        _ => Verdict::Corrupt,
    }
}

/// The (key id, version) a well-formed value names.
fn well_formed(seed: u64, got: &[u8]) -> Option<(u64, u32)> {
    if got.len() < gen::HEADER {
        return None;
    }
    let field =
        |r: std::ops::Range<usize>| got[r].iter().rev().fold(0u64, |a, &b| a << 8 | b as u64);
    let (gid, gver, glen) = (field(0..8), field(8..12) as u32, field(12..16) as usize);
    let ok = glen == got.len() && gen::filler_matches(seed, gid, gver, &got[gen::HEADER..]);
    ok.then_some((gid, gver))
}

/// Counts of verdicts over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub checked: u64,
    pub missing: u64,
    pub phantom: u64,
    pub truncated: u64,
    pub wrong_key: u64,
    pub stale: u64,
    pub corrupt: u64,
}

impl Tally {
    pub fn add(&mut self, v: Verdict) {
        self.checked += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Missing => self.missing += 1,
            Verdict::Phantom => self.phantom += 1,
            Verdict::Truncated => self.truncated += 1,
            Verdict::WrongKey => self.wrong_key += 1,
            Verdict::Stale => self.stale += 1,
            Verdict::Corrupt => self.corrupt += 1,
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.checked += o.checked;
        self.missing += o.missing;
        self.phantom += o.phantom;
        self.truncated += o.truncated;
        self.wrong_key += o.wrong_key;
        self.stale += o.stale;
        self.corrupt += o.corrupt;
    }

    pub fn failed(&self) -> u64 {
        self.missing + self.phantom + self.truncated + self.wrong_key + self.stale + self.corrupt
    }
}

/// The final expected state of a keyspace, built from every writer's
/// history: key id → number of versions it wrote after the initial one.
#[derive(Debug)]
pub struct Model {
    seed: u64,
    mean: usize,
    last: BTreeMap<u64, u32>,
}

impl Model {
    /// Merge writer histories. Each key has exactly one writer; a key that
    /// two histories claim is a bug in the benchmark, not in the program.
    pub fn from_histories<I>(seed: u64, mean: usize, histories: I) -> Self
    where
        I: IntoIterator<Item = Vec<(u64, u32)>>,
    {
        let mut last = BTreeMap::new();
        for h in histories {
            for (id, version) in h {
                let prev = last.insert(id, version);
                assert!(prev.is_none(), "key {id} has two writers");
            }
        }
        Self { seed, mean, last }
    }

    pub fn expect(&self, id: u64) -> Option<Expect> {
        self.last.get(&id).map(|&v| Expect::of(self.seed, id, v, self.mean))
    }

    /// User bytes of the live keyspace: keys plus their last values.
    pub fn live_bytes(&self) -> u64 {
        let key_len = gen::key(self.seed, 0).len();
        self.ids().map(|id| (key_len + self.expect(id).map_or(0, |e| e.len)) as u64).sum()
    }

    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.last.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 42;
    const LEN: usize = 64;

    fn model() -> Model {
        Model::from_histories(SEED, LEN, vec![vec![(1, 3), (2, 0)], vec![(5, 1)]])
    }

    #[test]
    fn clean_history_counts_zero() {
        let m = model();
        let mut t = Tally::default();
        for id in m.ids().collect::<Vec<_>>() {
            let e = m.expect(id).unwrap();
            let v = gen::value(SEED, id, e.version, e.len);
            t.add(check(SEED, id, m.expect(id), Some(&v)));
        }
        t.add(check(SEED, 99, m.expect(99), None));
        assert_eq!(t.checked, 4);
        assert_eq!(t.failed(), 0, "{t:?}");
    }

    #[test]
    fn each_fault_is_counted() {
        let m = model();
        // A value as the generator makes it, at the length the model
        // expects for key 1 (so only the named field is wrong).
        let len = m.expect(1).unwrap().len;
        let v = |seed, id, ver| gen::value(seed, id, ver, len);
        let cases: Vec<(u64, Option<Vec<u8>>, Verdict)> = vec![
            (1, Some(v(SEED, 1, 2)), Verdict::Stale),
            // An older version at its own length is still stale.
            (1, Some(gen::value(SEED, 1, 1, gen::value_len(SEED, 1, 1, LEN))), Verdict::Stale),
            (1, Some(v(SEED, 2, 3)), Verdict::WrongKey),
            (1, Some(v(SEED, 1, 3)[..len - 1].to_vec()), Verdict::Truncated),
            (99, Some(gen::value(SEED, 99, 0, LEN)), Verdict::Phantom),
            (5, None, Verdict::Missing),
            (1, Some(v(SEED, 1, 4)), Verdict::Corrupt),
            (1, Some(v(SEED + 1, 1, 3)), Verdict::Corrupt),
        ];
        let mut t = Tally::default();
        for (id, got, want) in cases {
            let v = check(SEED, id, m.expect(id), got.as_deref());
            assert_eq!(v, want, "key {id}");
            t.add(v);
        }
        assert_eq!(
            (t.stale, t.wrong_key, t.truncated, t.phantom, t.missing, t.corrupt),
            (2, 1, 1, 1, 1, 2)
        );
        assert_eq!(t.failed(), 8);
    }

    #[test]
    #[should_panic(expected = "two writers")]
    fn a_key_with_two_writers_is_rejected() {
        Model::from_histories(SEED, LEN, vec![vec![(1, 0)], vec![(1, 2)]]);
    }
}
