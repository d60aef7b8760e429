//! MPC substrates for the Conclave reproduction.
//!
//! The paper's prototype generates code for two external MPC frameworks:
//! Sharemind (3-party additive secret sharing) and Obliv-C (2-party garbled
//! circuits); its SMCQL comparison additionally uses ObliVM. None of these
//! are available here, so this crate implements the substrates from scratch:
//!
//! * [`runtime`] — the **distributed party runtime**, the one secret-shared
//!   implementation of the MPC operators: a session-lifetime
//!   [`runtime::PartySession`] (identity, dealer streams, triple cache) that
//!   hands out per-plan-step [`runtime::StepCtx`] drivers. Each step drives
//!   open/multiply/comparisons and the oblivious relational operators
//!   (Batcher sorting networks, Cartesian-product joins, filters, the
//!   Jónsson-style sorting aggregation) through real
//!   [`conclave_net::Transport`] message rounds on its own logical stream,
//!   recording observed (not modeled) traffic. Its tests check it against
//!   the cleartext oracle (`conclave_engine::execute` and plain `i64`
//!   arithmetic); [`runtime::check_supported`] is the one static statement
//!   of what it can evaluate.
//! * [`backend`] — [`MpcEngine`]: the analytic cost model of every operator
//!   under a secret-sharing or garbled-circuit backend (the numbers behind
//!   the planner and the paper's figures), and the simulated execution mode
//!   that evaluates a step in the clear and charges that modeled cost.
//! * [`ring`], [`share`], [`triples`], [`protocol`], [`relation`],
//!   [`oblivious`] — an in-process additive secret-sharing layer over
//!   `Z_{2^64}` (all parties' shares in one struct, Beaver multiplication,
//!   *simulated-oblivious* comparisons computed by a trusted simulator while
//!   the documented cost is charged), with the shuffle, oblivious-indexing
//!   and grouped-aggregation sub-protocols the hybrid operators of §5.3 use
//!   until they move onto the party runtime.
//! * [`garbled`] — a garbled-circuit backend model (Obliv-C / ObliVM-like):
//!   boolean circuit construction with gate counting and a memory model that
//!   reproduces the out-of-memory cliffs in Figure 1.
//! * [`cost`] — cost models converting primitive counts into simulated
//!   wall-clock time, calibrated against the datapoints the paper reports.
//! * [`circuits`] — bit-decomposed comparison circuits for the party
//!   runtime: signed less-than and equality computed entirely on shares
//!   (Kogge-Stone carry adders over XOR-shared bits, binary Beaver ANDs,
//!   daBit bit-to-arithmetic conversion), so no operand value ever crosses
//!   the wire unmasked.
//! * [`dealer`] — the **offline phase**: a standalone dealer that
//!   pregenerates SPDZ-authenticated Beaver triples, binary triples, dual
//!   bit masks, daBits, and input masks, delivered to the online parties as
//!   per-party files ([`dealer::write_party_files`]), over a dedicated
//!   dealer link ([`dealer::serve_party`]), or synthesized in-process from
//!   the session seed. Online shares carry SPDZ MACs ([`share::AuthShare`])
//!   checked at every reveal boundary.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod backend;
pub mod circuits;
pub mod cost;
pub mod dealer;
pub mod garbled;
pub mod oblivious;
pub mod protocol;
pub mod relation;
pub mod ring;
pub mod runtime;
pub mod share;
pub mod triples;

pub use backend::{BackendKind, MpcBackendConfig, MpcEngine, MpcError, MpcResult, MpcStepStats};
pub use cost::{GarbledCostModel, PrimitiveCounts, SecretShareCostModel};
pub use dealer::{
    generate_blocks, load_party_file, serve_party, write_party_files, DealerSource, DealerStream,
    InputMask, MaterialBlocks, MaterialSpec,
};
pub use protocol::Protocol;
pub use relation::SharedRelation;
pub use ring::RingElem;
pub use runtime::{PartyError, PartyRelation, PartyResult, PartySession, PendingOpen, StepCtx};
pub use share::{AuthShare, Shares};
