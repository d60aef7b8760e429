//! Seeded input generation and the plain-Rust reference answers every
//! workload checks its results against.

use conclave_engine::Relation;
use std::collections::BTreeMap;

/// SplitMix64: a tiny, fully specified generator, so the same `--seed`
/// gives the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: different streams of
    /// the same seed are independent.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// A two-column `(k, v)` table of `rows` rows in which every key of
/// `0..keys` occurs (row `i` has key `i % keys`, then the rows are shuffled),
/// so the number of groups, and with it the shape of every MPC step, is the
/// same for every seed.
pub fn keyed_rows(rng: &mut Rng, rows: usize, keys: i64, v_lo: i64, v_hi: i64) -> Vec<[i64; 2]> {
    let mut out: Vec<[i64; 2]> = (0..rows)
        .map(|i| [i as i64 % keys, rng.range(v_lo, v_hi)])
        .collect();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

pub fn relation(names: [&str; 2], rows: &[[i64; 2]]) -> Relation {
    let rows: Vec<Vec<i64>> = rows.iter().map(|r| r.to_vec()).collect();
    Relation::from_ints(&names, &rows)
}

/// `SELECT k, SUM(v) … (a UNION ALL b) GROUP BY k`, in the clear.
pub fn grouped_sum(tables: &[&[[i64; 2]]]) -> BTreeMap<i64, i64> {
    let mut sums = BTreeMap::new();
    for t in tables {
        for &[k, v] in t.iter() {
            *sums.entry(k).or_insert(0i64) += v;
        }
    }
    sums
}

/// The pipeline query's Σ 3·v over rows with v > 0, in the clear.
pub fn pipeline_total(tables: &[&[[i64; 2]]]) -> i64 {
    tables
        .iter()
        .flat_map(|t| t.iter())
        .filter(|r| r[1] > 0)
        .map(|r| 3 * r[1])
        .sum()
}

/// The credit-regulation inputs: the regulator's `(ssn, zip)` demographics
/// with distinct SSNs, and two agencies' `(ssn, score)` tables whose SSNs are
/// drawn from a range a quarter larger than the population, so about a fifth
/// of the scores find no match.
pub struct CreditInputs {
    pub demographics: Vec<[i64; 2]>,
    pub scores1: Vec<[i64; 2]>,
    pub scores2: Vec<[i64; 2]>,
}

pub fn credit_inputs(seed: u64, rows: usize, zips: i64) -> CreditInputs {
    let mut rng = Rng::new(seed, "credit");
    let demographics = (0..rows as i64)
        .map(|ssn| [ssn, 10_000 + rng.range(0, zips)])
        .collect();
    let span = rows as i64 + rows as i64 / 4;
    let mut scores = || -> Vec<[i64; 2]> {
        (0..rows)
            .map(|_| [rng.range(0, span), rng.range(300, 851)])
            .collect()
    };
    let scores1 = scores();
    let scores2 = scores();
    CreditInputs {
        demographics,
        scores1,
        scores2,
    }
}

/// `SELECT zip, SUM(score) FROM demographics JOIN (scores1 UNION ALL
/// scores2) ON ssn = ssn GROUP BY zip`, in the clear.
pub fn credit_totals(inputs: &CreditInputs) -> BTreeMap<i64, i64> {
    let zip_of: BTreeMap<i64, i64> = inputs.demographics.iter().map(|r| (r[0], r[1])).collect();
    let mut sums = BTreeMap::new();
    for &[ssn, score] in inputs.scores1.iter().chain(&inputs.scores2) {
        if let Some(&zip) = zip_of.get(&ssn) {
            *sums.entry(zip).or_insert(0i64) += score;
        }
    }
    sums
}

/// Reads a `(key, total)` result relation into a map; `None` if a column is
/// missing, a cell is not an integer, or a key repeats.
pub fn keyed_result(rel: &Relation, key: &str, total: &str) -> Option<BTreeMap<i64, i64>> {
    let ki = rel.col_index(key)?;
    let ti = rel.col_index(total)?;
    let mut out = BTreeMap::new();
    for row in &rel.rows {
        let k = row.get(ki)?.as_int()?;
        let t = row.get(ti)?.as_int()?;
        if out.insert(k, t).is_some() {
            return None;
        }
    }
    Some(out)
}

/// Reads a one-row, one-column integer result.
pub fn scalar_result(rel: &Relation) -> Option<i64> {
    match rel.rows.as_slice() {
        [row] if row.len() == 1 => row[0].as_int(),
        _ => None,
    }
}
