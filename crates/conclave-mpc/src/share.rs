//! Additive secret shares, plain and SPDZ-authenticated.
//!
//! A value `x` is split into `n` random shares that sum to `x` in
//! `Z_{2^64}`. Each computing party holds one share; no strict subset of the
//! parties learns anything about `x`. Linear operations (addition,
//! subtraction, multiplication by public constants) are local; products of
//! two shared values require a Beaver triple and one communication round
//! (see [`crate::protocol`]).
//!
//! [`Shares`] is the *dealer-side* view: all `n` shares of one value, used by
//! the in-process [`crate::protocol::Protocol`] of the hybrid operators. [`AuthShare`] is the *party-side* view used by the
//! distributed runtime: one party's share of the value paired with its share
//! of the value's SPDZ MAC `α·x` under the additively-shared global key `α`.

use crate::ring::RingElem;
use rand::Rng;

/// The shares of a single secret value, one per computing party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shares {
    /// `shares[i]` is party `i`'s additive share.
    pub shares: Vec<RingElem>,
}

impl Shares {
    /// Splits `value` into `n` additive shares using `rng` for the masks.
    pub fn share<R: Rng>(value: RingElem, n: usize, rng: &mut R) -> Self {
        assert!(n >= 2, "need at least two parties to secret-share");
        let mut shares = Vec::with_capacity(n);
        let mut acc = RingElem::ZERO;
        for _ in 0..n - 1 {
            let r = RingElem(rng.gen::<u64>());
            shares.push(r);
            acc += r;
        }
        shares.push(value - acc);
        Shares { shares }
    }

    /// A trivial (public) sharing of a constant: the first party holds the
    /// value, everyone else holds zero.
    pub fn constant(value: RingElem, n: usize) -> Self {
        let mut shares = vec![RingElem::ZERO; n];
        shares[0] = value;
        Shares { shares }
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.shares.len()
    }

    /// Reconstructs the secret by summing all shares.
    pub fn reconstruct(&self) -> RingElem {
        self.shares.iter().fold(RingElem::ZERO, |acc, s| acc + *s)
    }

    /// Local addition of two sharings (no communication).
    pub fn add(&self, other: &Shares) -> Shares {
        assert_eq!(self.num_parties(), other.num_parties());
        Shares {
            shares: self
                .shares
                .iter()
                .zip(&other.shares)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }

    /// Local subtraction of two sharings (no communication).
    pub fn sub(&self, other: &Shares) -> Shares {
        assert_eq!(self.num_parties(), other.num_parties());
        Shares {
            shares: self
                .shares
                .iter()
                .zip(&other.shares)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }

    /// Local addition of a public constant (added to the first share only).
    pub fn add_public(&self, c: RingElem) -> Shares {
        let mut shares = self.shares.clone();
        shares[0] += c;
        Shares { shares }
    }

    /// Local multiplication by a public constant (applied to every share).
    pub fn mul_public(&self, c: RingElem) -> Shares {
        Shares {
            shares: self.shares.iter().map(|s| *s * c).collect(),
        }
    }

    /// Bytes needed to transmit one share of this value (u64 per party).
    pub fn share_bytes() -> u64 {
        8
    }
}

/// One party's SPDZ-style authenticated share of a secret value: the additive
/// value share `v` together with an additive share `m` of the value's MAC
/// `α·x`, where `α` is a global key that is itself additively shared (party
/// `i` holds `α_i`, `Σ α_i = α`). The invariant across all parties is
/// `Σ m_i = α · (Σ v_i)`.
///
/// Linear operations are componentwise and local. Operations that involve a
/// *public* constant `c` are **not** symmetric between the components — the
/// value adjustment lands on one designated party while every party adjusts
/// its MAC by `α_i·c` — so they live on the session (which knows the party
/// index and `α_i`), not here.
///
/// The unauthenticated runtime mode reuses this type with `m = 0` throughout,
/// so one cell representation serves both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthShare {
    /// This party's additive share of the value.
    pub v: RingElem,
    /// This party's additive share of the MAC `α·x`.
    pub m: RingElem,
}

impl AuthShare {
    /// The all-zero share (a valid sharing of zero under any key).
    pub const ZERO: AuthShare = AuthShare {
        v: RingElem::ZERO,
        m: RingElem::ZERO,
    };

    /// Pairs a value share with its MAC share.
    pub fn new(v: RingElem, m: RingElem) -> Self {
        AuthShare { v, m }
    }

    /// Local multiplication by a public constant (scales both components:
    /// `α·(c·x) = c·(α·x)`).
    pub fn mul_public(self, c: RingElem) -> Self {
        AuthShare {
            v: self.v * c,
            m: self.m * c,
        }
    }
}

impl std::ops::Add for AuthShare {
    type Output = AuthShare;
    fn add(self, rhs: AuthShare) -> AuthShare {
        AuthShare {
            v: self.v + rhs.v,
            m: self.m + rhs.m,
        }
    }
}

impl std::ops::Sub for AuthShare {
    type Output = AuthShare;
    fn sub(self, rhs: AuthShare) -> AuthShare {
        AuthShare {
            v: self.v - rhs.v,
            m: self.m - rhs.m,
        }
    }
}

impl std::ops::AddAssign for AuthShare {
    fn add_assign(&mut self, rhs: AuthShare) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for AuthShare {
    fn sub_assign(&mut self, rhs: AuthShare) {
        *self = *self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn share_and_reconstruct() {
        let mut r = rng();
        for v in [0i64, 1, -1, 123456789, i64::MIN, i64::MAX] {
            let s = Shares::share(RingElem::from_i64(v), 3, &mut r);
            assert_eq!(s.num_parties(), 3);
            assert_eq!(s.reconstruct().to_i64(), v);
        }
    }

    #[test]
    #[should_panic(expected = "at least two parties")]
    fn sharing_requires_two_parties() {
        let mut r = rng();
        let _ = Shares::share(RingElem::ONE, 1, &mut r);
    }

    #[test]
    fn shares_are_not_the_value() {
        // With overwhelming probability no single share equals the secret.
        let mut r = rng();
        let v = RingElem::from_i64(42);
        let s = Shares::share(v, 3, &mut r);
        let equal_count = s.shares.iter().filter(|x| **x == v).count();
        assert!(equal_count < 3, "shares should look random");
    }

    #[test]
    fn linear_operations() {
        let mut r = rng();
        let a = Shares::share(RingElem::from_i64(10), 3, &mut r);
        let b = Shares::share(RingElem::from_i64(-4), 3, &mut r);
        assert_eq!(a.add(&b).reconstruct().to_i64(), 6);
        assert_eq!(a.sub(&b).reconstruct().to_i64(), 14);
        assert_eq!(
            a.add_public(RingElem::from_i64(5)).reconstruct().to_i64(),
            15
        );
        assert_eq!(
            a.mul_public(RingElem::from_i64(3)).reconstruct().to_i64(),
            30
        );
    }

    #[test]
    fn constant_sharing() {
        let c = Shares::constant(RingElem::from_i64(9), 4);
        assert_eq!(c.reconstruct().to_i64(), 9);
        assert_eq!(c.shares[1], RingElem::ZERO);
        assert_eq!(Shares::share_bytes(), 8);
    }

    #[test]
    fn auth_share_linear_ops_preserve_the_mac_invariant() {
        // Two parties, key α = α₀ + α₁. Hand-build sharings of 10 and -4 and
        // check the invariant Σm = α·Σv through add/sub/mul_public.
        let alpha = RingElem::from_i64(17);
        let mk = |v0: i64, v1: i64| {
            let x = RingElem::from_i64(v0) + RingElem::from_i64(v1);
            let m0 = RingElem::from_i64(3);
            let m1 = alpha * x - m0;
            [
                AuthShare::new(RingElem::from_i64(v0), m0),
                AuthShare::new(RingElem::from_i64(v1), m1),
            ]
        };
        let a = mk(7, 3);
        let b = mk(-9, 5);
        let check = |s: [AuthShare; 2], expect: i64| {
            let v = s[0].v + s[1].v;
            let m = s[0].m + s[1].m;
            assert_eq!(v.to_i64(), expect);
            assert_eq!(m, alpha * v, "MAC invariant broken");
        };
        check([a[0] + b[0], a[1] + b[1]], 6);
        check([a[0] - b[0], a[1] - b[1]], 14);
        let c = RingElem::from_i64(-3);
        check([a[0].mul_public(c), a[1].mul_public(c)], -30);
        let mut acc = a[0];
        acc += b[0];
        acc -= b[0];
        assert_eq!(acc, a[0]);
        assert_eq!(AuthShare::ZERO.v, RingElem::ZERO);
    }

    proptest! {
        #[test]
        fn reconstruction_is_exact(v in any::<i64>(), n in 2usize..6) {
            let mut r = rng();
            let s = Shares::share(RingElem::from_i64(v), n, &mut r);
            prop_assert_eq!(s.reconstruct().to_i64(), v);
        }

        #[test]
        fn addition_homomorphism(a in any::<i64>(), b in any::<i64>()) {
            let mut r = rng();
            let sa = Shares::share(RingElem::from_i64(a), 3, &mut r);
            let sb = Shares::share(RingElem::from_i64(b), 3, &mut r);
            prop_assert_eq!(sa.add(&sb).reconstruct().to_i64(), a.wrapping_add(b));
        }

        #[test]
        fn public_mul_homomorphism(a in any::<i64>(), c in -1000i64..1000) {
            let mut r = rng();
            let sa = Shares::share(RingElem::from_i64(a), 3, &mut r);
            prop_assert_eq!(
                sa.mul_public(RingElem::from_i64(c)).reconstruct().to_i64(),
                a.wrapping_mul(c)
            );
        }
    }
}
