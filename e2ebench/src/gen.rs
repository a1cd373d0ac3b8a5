//! Seeded inputs: the relation D, the read batches with their exact
//! answers, and the writers' op streams. Everything here is a pure
//! function of the seed; the program under test only ever sees the
//! generated rows, queries and ops.

use pitract_engine::QueryBatch;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};

/// Groups in the `grp` column.
pub const GROUPS: u64 = 64;
/// Queries per read batch (the E15/E17 mix).
pub const BATCH_QUERIES: usize = 256;
/// Width of a range query on `id`.
pub const RANGE_WIDTH: i64 = 200;
/// Width of the `id` range in a `grp` point ∧ `id` range query.
pub const CONJ_WIDTH: i64 = 2_000;
/// First key of the writers' volatile regions; every stable key is
/// below it, so no write can change a stable-region answer.
pub const VOLATILE_BASE: i64 = 1 << 40;
/// Keys reserved for each writer's volatile region.
pub const REGION_SPAN: i64 = 1 << 32;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so that adding a
    /// stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Stream ids, one per kind of generated input.
const DATA_STREAM: u64 = 1;
const READ_STREAM: u64 = 2;
pub const CALIBRATION_STREAM: u64 = 3;
const WRITER_STREAM: u64 = 100;

pub fn schema() -> Schema {
    Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)])
}

pub fn group_name(g: u8) -> String {
    format!("g{g:02}")
}

/// The relation D: `n` rows `(id, grp)` with strictly increasing ids
/// (about one id in eight is a hole, so point probes also miss) and
/// seeded groups. Row `j` gets global id `j` when D is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    pub ids: Vec<i64>,
    pub groups: Vec<u8>,
}

impl Dataset {
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = Rng::new(seed, DATA_STREAM);
        let mut ids = Vec::with_capacity(n);
        let mut groups = Vec::with_capacity(n);
        let mut key = 0i64;
        while ids.len() < n {
            let draw = rng.next();
            if !draw.is_multiple_of(8) {
                ids.push(key);
                groups.push(((draw >> 8) % GROUPS) as u8);
            }
            key += 1;
        }
        Dataset { ids, groups }
    }

    pub fn relation(&self) -> Relation {
        let rows = self
            .ids
            .iter()
            .zip(&self.groups)
            .map(|(&id, &g)| vec![Value::Int(id), Value::str(group_name(g))])
            .collect();
        Relation::from_rows(schema(), rows).expect("generated rows match the schema")
    }

    /// Global ids of the rows with `lo <= id <= hi`, ascending.
    fn span(&self, lo: i64, hi: i64) -> std::ops::Range<usize> {
        self.ids.partition_point(|&id| id < lo)..self.ids.partition_point(|&id| id <= hi)
    }

    /// One read batch of the E15/E17 mix over the stable region, with
    /// the exact answer of every query: ⅓ point, ⅓ range of width
    /// [`RANGE_WIDTH`], ⅓ `grp` point ∧ range of width [`CONJ_WIDTH`].
    pub fn read_batch(&self, rng: &mut Rng) -> ReadBatch {
        let top = *self.ids.last().expect("D is not empty");
        let mut queries = Vec::with_capacity(BATCH_QUERIES);
        let mut expected = Vec::with_capacity(BATCH_QUERIES);
        for k in 0..BATCH_QUERIES {
            let (q, rows) = match k % 3 {
                0 => {
                    let key = rng.below(top as u64 + 1) as i64;
                    (SelectionQuery::point(0, key), self.span(key, key).collect())
                }
                1 => {
                    let lo = rng.below((top - RANGE_WIDTH + 2) as u64) as i64;
                    let hi = lo + RANGE_WIDTH - 1;
                    (
                        SelectionQuery::range_closed(0, lo, hi),
                        self.span(lo, hi).collect(),
                    )
                }
                _ => {
                    let g = rng.below(GROUPS) as u8;
                    let lo = rng.below((top - CONJ_WIDTH + 2) as u64) as i64;
                    let hi = lo + CONJ_WIDTH - 1;
                    let rows = self
                        .span(lo, hi)
                        .filter(|&gid| self.groups[gid] == g)
                        .collect();
                    let q = SelectionQuery::and(
                        SelectionQuery::point(1, group_name(g).as_str()),
                        SelectionQuery::range_closed(0, lo, hi),
                    );
                    (q, rows)
                }
            };
            queries.push(q);
            expected.push(rows);
        }
        ReadBatch::new(queries, expected)
    }

    /// `count` read batches drawn from the seed's read stream.
    pub fn read_batches(&self, seed: u64, count: usize) -> Vec<ReadBatch> {
        let mut rng = Rng::new(seed, READ_STREAM);
        (0..count).map(|_| self.read_batch(&mut rng)).collect()
    }

    /// A batch of one access path only, for timing that path's steps:
    /// `kind` 0 = point probes, 1 = range probes, 2 = index-nested-loop
    /// conjunctions.
    pub fn single_path_batch(&self, rng: &mut Rng, kind: usize) -> ReadBatch {
        let mut mixed = self.read_batch(rng);
        let mut queries = Vec::with_capacity(BATCH_QUERIES);
        let mut expected = Vec::with_capacity(BATCH_QUERIES);
        while queries.len() < BATCH_QUERIES {
            for (i, (q, rows)) in mixed
                .batch
                .queries()
                .iter()
                .zip(std::mem::take(&mut mixed.expected))
                .enumerate()
            {
                if i % 3 == kind && queries.len() < BATCH_QUERIES {
                    queries.push(q.clone());
                    expected.push(rows);
                }
            }
            mixed = self.read_batch(rng);
        }
        ReadBatch::new(queries, expected)
    }
}

/// A read batch and the exact global ids each query must return.
#[derive(Debug, Clone)]
pub struct ReadBatch {
    pub batch: QueryBatch,
    pub expected: Vec<Vec<usize>>,
    /// The Boolean answer of each query: does any row match.
    pub answers: Vec<bool>,
}

impl ReadBatch {
    fn new(queries: Vec<SelectionQuery>, expected: Vec<Vec<usize>>) -> Self {
        ReadBatch {
            batch: QueryBatch::new(queries),
            answers: expected.iter().map(|rows| !rows.is_empty()).collect(),
            expected,
        }
    }
}

/// One logical write, named by key so that a stream does not depend on
/// the global ids the program hands out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Insert { key: i64, group: u8 },
    Delete { key: i64 },
}

/// One writer's op stream: inserts of fresh keys in the writer's own
/// volatile region and deletes of keys it inserted in earlier batches,
/// keeping a bounded window of live rows so net change stays small.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    region: i64,
    next_key: i64,
    live: Vec<i64>,
    window: usize,
}

impl OpStream {
    pub fn new(seed: u64, writer: usize, window: usize) -> Self {
        OpStream {
            rng: Rng::new(seed, WRITER_STREAM + writer as u64),
            region: region_base(writer),
            next_key: 0,
            live: Vec::new(),
            window,
        }
    }

    /// The next batch of `len` ops. A delete only names a key inserted
    /// by an earlier batch, so it never depends on this batch's acks.
    pub fn next_batch(&mut self, len: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(len);
        let mut inserted = Vec::new();
        for _ in 0..len {
            let delete = self.live.len() > self.window / 2
                && (self.live.len() >= self.window || self.rng.below(2) == 0);
            if delete {
                let i = self.rng.below(self.live.len() as u64) as usize;
                ops.push(Op::Delete {
                    key: self.live.swap_remove(i),
                });
            } else {
                let key = self.region + self.next_key;
                self.next_key += 1;
                ops.push(Op::Insert {
                    key,
                    group: self.rng.below(GROUPS) as u8,
                });
                inserted.push(key);
            }
        }
        self.live.extend(inserted);
        ops
    }

    /// An insert this stream drew did not land: drop its key from the
    /// live window, so no later batch deletes it.
    pub fn forget(&mut self, key: i64) {
        if let Some(i) = self.live.iter().position(|&k| k == key) {
            self.live.swap_remove(i);
        }
    }

    /// A delete this stream drew did not land: its key is live again.
    pub fn restore(&mut self, key: i64) {
        if !self.live.contains(&key) {
            self.live.push(key);
        }
    }
}

/// First key of writer `w`'s volatile region.
pub fn region_base(writer: usize) -> i64 {
    VOLATILE_BASE + writer as i64 * REGION_SPAN
}

/// The query that returns every row in writer `w`'s volatile region.
pub fn region_query(writer: usize) -> SelectionQuery {
    let lo = region_base(writer);
    SelectionQuery::range_closed(0, lo, lo + REGION_SPAN - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_data_and_op_stream() {
        let a = Dataset::generate(7, 5_000);
        let b = Dataset::generate(7, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, Dataset::generate(8, 5_000), "the seed reaches the data");
        let queries = |d: &Dataset| -> Vec<String> {
            d.read_batches(7, 3)
                .iter()
                .flat_map(|rb| rb.batch.queries().iter().map(|q| format!("{q:?}")))
                .collect()
        };
        assert_eq!(queries(&a), queries(&b));
        let stream = |seed| -> Vec<Vec<Op>> {
            let mut s = OpStream::new(seed, 1, 64);
            (0..50).map(|_| s.next_batch(16)).collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn expected_answers_match_a_scan_of_d() {
        let d = Dataset::generate(3, 4_000);
        let rel = d.relation();
        let mut rng = Rng::new(3, 99);
        let mut batches = vec![d.read_batch(&mut rng)];
        batches.extend((0..3).map(|kind| d.single_path_batch(&mut rng, kind)));
        for rb in batches {
            for (q, expected) in rb.batch.queries().iter().zip(&rb.expected) {
                let scanned: Vec<usize> = rel
                    .rows()
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| q.matches(row))
                    .map(|(gid, _)| gid)
                    .collect();
                assert_eq!(&scanned, expected, "{q:?}");
            }
        }
    }

    #[test]
    fn op_stream_keeps_a_bounded_window_and_deletes_only_earlier_keys() {
        let mut s = OpStream::new(5, 0, 64);
        let mut live = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let batch = s.next_batch(16);
            let before = live.clone();
            for op in batch {
                match op {
                    Op::Insert { key, .. } => assert!(live.insert(key)),
                    Op::Delete { key } => {
                        assert!(before.contains(&key), "delete of a key from this batch");
                        assert!(live.remove(&key));
                    }
                }
            }
            assert!(live.len() <= 64 + 16);
        }
        assert!(live.len() >= 32);
    }
}
