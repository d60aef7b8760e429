//! The secret-sharing protocol engine.
//!
//! [`Protocol`] provides the primitives the oblivious relational operators
//! are built from: sharing and opening values, linear arithmetic, Beaver
//! multiplication, oblivious comparison/equality, and multiplexing. It keeps
//! a [`PrimitiveCounts`] tally that the cost model converts into simulated
//! wall-clock time.
//!
//! ## Fidelity note
//!
//! Sharing, reconstruction, linear operations and Beaver multiplication are
//! implemented for real over `Z_{2^64}` shares. Oblivious comparison and
//! equality are *simulated-oblivious*: the result bit is computed by an
//! in-process simulator (standing in for the bit-decomposition sub-protocol)
//! and re-shared, while the primitive counter charges the full documented
//! cost of the real protocol. This preserves both the data flow (inputs and
//! outputs remain secret-shared) and the performance shape, which is what the
//! paper's evaluation depends on.

use crate::cost::PrimitiveCounts;
use crate::ring::RingElem;
use crate::share::Shares;
use crate::triples::TripleDealer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A secret-sharing MPC protocol instance shared by one MPC job.
#[derive(Debug)]
pub struct Protocol {
    parties: usize,
    dealer: TripleDealer,
    rng: StdRng,
    counts: PrimitiveCounts,
}

impl Protocol {
    /// Creates a protocol instance for `parties` computing parties.
    pub fn new(parties: usize, seed: u64) -> Self {
        assert!(parties >= 2, "MPC needs at least two parties");
        Protocol {
            parties,
            dealer: TripleDealer::new(parties),
            rng: StdRng::seed_from_u64(seed),
            counts: PrimitiveCounts::default(),
        }
    }

    /// Number of computing parties.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Snapshot of the primitive counters.
    pub fn counts(&self) -> PrimitiveCounts {
        self.counts
    }

    /// Resets the primitive counters (e.g. between measured phases).
    pub fn reset_counts(&mut self) {
        self.counts = PrimitiveCounts::default();
    }

    /// Access to the protocol's RNG (for randomized sub-protocols).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Input / output.
    // ------------------------------------------------------------------

    /// Secret-shares an input value into the MPC.
    pub fn share_value(&mut self, v: i64) -> Shares {
        self.counts.input_elems += 1;
        Shares::share(RingElem::from_i64(v), self.parties, &mut self.rng)
    }

    /// Secret-shares a whole column of input values at once (one bulk call
    /// per column instead of per-cell call sites). Delegates to
    /// [`Protocol::share_value`] so accounting and share construction have a
    /// single source of truth.
    pub fn share_column(&mut self, values: &[i64]) -> Vec<Shares> {
        values.iter().map(|&v| self.share_value(v)).collect()
    }

    /// Shares a public constant (no randomness, no input cost).
    pub fn constant(&self, v: i64) -> Shares {
        Shares::constant(RingElem::from_i64(v), self.parties)
    }

    /// Opens (reveals) a shared value to all parties.
    pub fn open(&mut self, x: &Shares) -> i64 {
        self.counts.opened_elems += 1;
        x.reconstruct().to_i64()
    }

    /// Reveals a shared value to a single party (e.g. the STP). Costs the
    /// same as an open but is tracked identically; the *authorization* to do
    /// this is checked by the compiler, not here.
    pub fn reveal(&mut self, x: &Shares) -> i64 {
        self.counts.opened_elems += 1;
        x.reconstruct().to_i64()
    }

    // ------------------------------------------------------------------
    // Linear operations (free).
    // ------------------------------------------------------------------

    /// Adds two shared values (local).
    pub fn add(&self, x: &Shares, y: &Shares) -> Shares {
        x.add(y)
    }

    /// Subtracts two shared values (local).
    pub fn sub(&self, x: &Shares, y: &Shares) -> Shares {
        x.sub(y)
    }

    /// Adds a public constant (local).
    pub fn add_public(&self, x: &Shares, c: i64) -> Shares {
        x.add_public(RingElem::from_i64(c))
    }

    // ------------------------------------------------------------------
    // Non-linear operations (communication).
    // ------------------------------------------------------------------

    /// Multiplies two shared values with a Beaver triple (one round).
    pub fn mul(&mut self, x: &Shares, y: &Shares) -> Shares {
        self.counts.mults += 1;
        let (z, _d, _e) = self.dealer.beaver_multiply(x, y, &mut self.rng);
        z
    }

    /// Oblivious less-than: returns a sharing of `1` if `x < y`, else `0`.
    pub fn lt(&mut self, x: &Shares, y: &Shares) -> Shares {
        self.counts.comparisons += 1;
        let bit = i64::from(x.reconstruct().to_i64() < y.reconstruct().to_i64());
        Shares::share(RingElem::from_i64(bit), self.parties, &mut self.rng)
    }

    /// Oblivious equality: returns a sharing of `1` if `x == y`, else `0`.
    pub fn eq(&mut self, x: &Shares, y: &Shares) -> Shares {
        self.counts.equalities += 1;
        let bit = i64::from(x.reconstruct().to_i64() == y.reconstruct().to_i64());
        Shares::share(RingElem::from_i64(bit), self.parties, &mut self.rng)
    }

    /// Oblivious multiplexer: returns `a` if the shared bit `c` is 1, else
    /// `b`. Computed as `b + c·(a − b)`, i.e. one multiplication.
    pub fn mux(&mut self, c: &Shares, a: &Shares, b: &Shares) -> Shares {
        let diff = a.sub(b);
        let scaled = self.mul(c, &diff);
        b.add(&scaled)
    }

    /// Records the cost of obliviously shuffling `elements` field elements
    /// (the driver calls this from the relational shuffle).
    pub fn charge_shuffle(&mut self, elements: u64) {
        self.counts.shuffled_elems += elements;
    }

    /// Adds externally-computed primitive counts (used by analytical
    /// estimators that skip real execution).
    pub fn charge(&mut self, extra: &PrimitiveCounts) {
        self.counts.merge(extra);
    }

    /// Generates a random permutation of `0..n` (for oblivious shuffles); the
    /// permutation itself stays inside the protocol simulator.
    pub fn random_permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> Protocol {
        Protocol::new(3, 42)
    }

    #[test]
    fn share_open_round_trip() {
        let mut p = proto();
        for v in [-5i64, 0, 7, i64::MAX] {
            let s = p.share_value(v);
            assert_eq!(p.open(&s), v);
        }
        assert_eq!(p.counts().input_elems, 4);
        assert_eq!(p.counts().opened_elems, 4);
    }

    #[test]
    #[should_panic(expected = "at least two parties")]
    fn rejects_single_party() {
        let _ = Protocol::new(1, 0);
    }

    #[test]
    fn linear_ops_are_free() {
        let mut p = proto();
        let a = p.share_value(10);
        let b = p.share_value(4);
        let before = p.counts().nonlinear_ops();
        let sum = p.add(&a, &b);
        let diff = p.sub(&a, &b);
        let shifted = p.add_public(&a, 100);
        assert_eq!(p.counts().nonlinear_ops(), before);
        assert_eq!(p.open(&sum), 14);
        assert_eq!(p.open(&diff), 6);
        assert_eq!(p.open(&shifted), 110);
    }

    #[test]
    fn multiplication_counts_and_is_correct() {
        let mut p = proto();
        let a = p.share_value(-7);
        let b = p.share_value(6);
        let prod = p.mul(&a, &b);
        assert_eq!(p.open(&prod), -42);
        assert_eq!(p.counts().mults, 1);
    }

    #[test]
    fn comparisons_and_equality() {
        let mut p = proto();
        let a = p.share_value(3);
        let b = p.share_value(5);
        let lt_ab = p.lt(&a, &b);
        let lt_ba = p.lt(&b, &a);
        let eq_aa = p.eq(&a, &a.clone());
        let eq_ab = p.eq(&a, &b);
        assert_eq!(p.open(&lt_ab), 1);
        assert_eq!(p.open(&lt_ba), 0);
        assert_eq!(p.open(&eq_aa), 1);
        assert_eq!(p.open(&eq_ab), 0);
        let c = p.counts();
        assert_eq!(c.comparisons, 2);
        assert_eq!(c.equalities, 2);
    }

    #[test]
    fn mux_selects_by_bit() {
        let mut p = proto();
        let a = p.share_value(111);
        let b = p.share_value(222);
        let one = p.share_value(1);
        let zero = p.share_value(0);
        let pick_a = p.mux(&one, &a, &b);
        let pick_b = p.mux(&zero, &a, &b);
        assert_eq!(p.open(&pick_a), 111);
        assert_eq!(p.open(&pick_b), 222);
        assert_eq!(p.counts().mults, 2);
    }

    #[test]
    fn constants_and_charges() {
        let mut p = proto();
        let c = p.constant(9);
        assert_eq!(p.open(&c), 9);
        p.charge_shuffle(100);
        p.charge(&PrimitiveCounts {
            mults: 7,
            ..Default::default()
        });
        assert_eq!(p.counts().shuffled_elems, 100);
        assert_eq!(p.counts().mults, 7);
        p.reset_counts();
        assert_eq!(p.counts(), PrimitiveCounts::default());
        assert_eq!(p.parties(), 3);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = proto();
        let perm = p.random_permutation(100);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(perm, (0..100).collect::<Vec<_>>(), "should be shuffled");
    }
}
