//! Unified MPC backend engine.
//!
//! [`MpcEngine`] models relational operators under a configured backend —
//! secret sharing (Sharemind-like) or garbled circuits (Obliv-C /
//! ObliVM-like). Its *analytic estimators* ([`MpcEngine::estimate_op`] and
//! friends) turn cardinalities into [`MpcStepStats`] (modeled runtime,
//! primitive/gate counts, traffic and memory); the planner, the benchmark
//! harness (the paper's figures, up to 10⁹ records) and simulated execution
//! all charge these same numbers. [`MpcEngine::execute_op`] evaluates one
//! operator in the clear and charges it that modeled cost. The secret-shared
//! evaluation of the operators is the party runtime's ([`crate::runtime`]);
//! the in-process [`Protocol`] here serves only the hybrid protocols of
//! §5.3.

use crate::cost::{GarbledCostModel, PrimitiveCounts, SecretShareCostModel};
use crate::garbled::{gates, CircuitStats};
use crate::protocol::Protocol;
use crate::relation::SharedRelation;
use conclave_engine::{Relation, Table};
use conclave_ir::ops::Operator;
use conclave_net::NetworkModel;
use std::fmt;
use std::time::Duration;

/// Which MPC framework the backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// Three-party additive secret sharing (Sharemind-like).
    SharemindLike,
    /// Two-party garbled circuits (Obliv-C-like).
    OblivCLike,
    /// Two-party garbled circuits with a heavier runtime (ObliVM-like), used
    /// for the SMCQL comparison.
    OblivVmLike,
}

impl BackendKind {
    /// Number of computing parties the framework supports.
    pub fn parties(self) -> u32 {
        match self {
            BackendKind::SharemindLike => 3,
            BackendKind::OblivCLike | BackendKind::OblivVmLike => 2,
        }
    }

    /// Returns `true` for secret-sharing backends.
    pub fn is_secret_sharing(self) -> bool {
        matches!(self, BackendKind::SharemindLike)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendKind::SharemindLike => "sharemind-like",
            BackendKind::OblivCLike => "obliv-c-like",
            BackendKind::OblivVmLike => "oblivm-like",
        };
        f.write_str(s)
    }
}

/// Configuration of an MPC backend instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcBackendConfig {
    /// Framework being modelled.
    pub kind: BackendKind,
    /// Network model between the parties.
    pub network: NetworkModel,
    /// RNG seed for the sharing layer (determinism in tests and benches).
    pub seed: u64,
    /// Secret-sharing cost calibration.
    pub ss_cost: SecretShareCostModel,
    /// Garbled-circuit cost calibration.
    pub gc_cost: GarbledCostModel,
}

impl MpcBackendConfig {
    /// Default configuration for the given framework.
    pub fn new(kind: BackendKind) -> Self {
        let gc_cost = match kind {
            BackendKind::OblivVmLike => GarbledCostModel::obliv_vm(),
            _ => GarbledCostModel::obliv_c(),
        };
        MpcBackendConfig {
            kind,
            network: NetworkModel::lan(),
            seed: 0xC0C1A7E,
            ss_cost: SecretShareCostModel::default(),
            gc_cost,
        }
    }

    /// Sharemind-like defaults.
    pub fn sharemind() -> Self {
        Self::new(BackendKind::SharemindLike)
    }

    /// Obliv-C-like defaults.
    pub fn obliv_c() -> Self {
        Self::new(BackendKind::OblivCLike)
    }

    /// ObliVM-like defaults.
    pub fn obliv_vm() -> Self {
        Self::new(BackendKind::OblivVmLike)
    }
}

impl Default for MpcBackendConfig {
    fn default() -> Self {
        MpcBackendConfig::sharemind()
    }
}

/// Statistics for one MPC step (one operator, or one whole MPC job).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpcStepStats {
    /// Simulated wall-clock time of the step.
    pub simulated_time: Duration,
    /// Secret-sharing primitive counts (zero for garbled-circuit backends).
    pub counts: PrimitiveCounts,
    /// Garbled-circuit gate counts (zero for secret-sharing backends).
    pub circuit: CircuitStats,
    /// Peak additional memory the step needs, in bytes (garbled backends).
    pub memory_bytes: f64,
    /// Total input rows processed.
    pub input_rows: u64,
    /// Output rows produced.
    pub output_rows: u64,
}

impl MpcStepStats {
    /// Merges another step's statistics (times add; the memory peak is the max).
    pub fn merge(&mut self, other: &MpcStepStats) {
        self.simulated_time += other.simulated_time;
        self.counts.merge(&other.counts);
        self.circuit.merge(&other.circuit);
        self.memory_bytes = self.memory_bytes.max(other.memory_bytes);
        self.input_rows += other.input_rows;
        self.output_rows = other.output_rows;
    }
}

/// Errors from the MPC engine.
#[derive(Debug, Clone, PartialEq)]
pub enum MpcError {
    /// The operator is not executable under this backend.
    Unsupported(String),
    /// The garbled-circuit backend exceeded its memory limit (the OOM cliffs
    /// of Figure 1).
    OutOfMemory {
        /// Bytes the computation would need.
        needed: f64,
        /// The backend's limit.
        limit: f64,
    },
    /// Execution failed (bad column, arity, etc.).
    Exec(String),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::Unsupported(s) => write!(f, "unsupported under MPC: {s}"),
            MpcError::OutOfMemory { needed, limit } => write!(
                f,
                "garbled-circuit backend out of memory: needs {:.1} GB, limit {:.1} GB",
                needed / 1e9,
                limit / 1e9
            ),
            MpcError::Exec(s) => write!(f, "MPC execution failed: {s}"),
        }
    }
}

impl std::error::Error for MpcError {}

/// Result alias for MPC operations.
pub type MpcResult<T> = Result<T, MpcError>;

/// Models relational operators under an MPC backend.
#[derive(Debug)]
pub struct MpcEngine {
    config: MpcBackendConfig,
    proto: Protocol,
}

impl MpcEngine {
    /// Creates an engine for the given configuration.
    pub fn new(config: MpcBackendConfig) -> Self {
        let proto = Protocol::new(config.kind.parties() as usize, config.seed);
        MpcEngine { config, proto }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MpcBackendConfig {
        &self.config
    }

    /// Mutable access to the underlying secret-sharing protocol (used by the
    /// driver to run hybrid protocols that interleave MPC and STP steps).
    pub fn protocol(&mut self) -> &mut Protocol {
        &mut self.proto
    }

    /// Secret-shares a [`conclave_engine::Table`], picking the
    /// column-at-a-time path whenever its columnar representation is already
    /// materialized (see [`SharedRelation::from_table`]).
    pub fn share_table(&mut self, table: &Table) -> MpcResult<SharedRelation> {
        SharedRelation::from_table(table, &mut self.proto).map_err(MpcError::Exec)
    }

    /// Opens a shared relation back to cleartext.
    pub fn reconstruct(&mut self, rel: &SharedRelation) -> Relation {
        rel.reconstruct(&mut self.proto)
    }

    /// Converts the protocol's current primitive counters into step stats and
    /// resets them.
    pub fn drain_stats(&mut self, input_rows: u64, output_rows: u64) -> MpcStepStats {
        let counts = self.proto.counts();
        self.proto.reset_counts();
        self.stats_from_counts(counts, input_rows, output_rows)
    }

    /// Executes one operator as a standalone MPC job: checks that the backend
    /// can run it ([`MpcEngine::check_op`]), evaluates it in the clear, and
    /// charges the modeled cost of the job ([`MpcEngine::estimate_job`]). The
    /// secret-shared evaluation itself is the party runtime's
    /// ([`crate::runtime::execute_party_op`]); this is the simulated
    /// counterpart, with the same result and the planner's cost.
    pub fn execute_op(
        &self,
        op: &Operator,
        inputs: &[&Relation],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let tables: Vec<Table> = inputs
            .iter()
            .map(|r| Table::from_rows((*r).clone()))
            .collect();
        let tables: Vec<&Table> = tables.iter().collect();
        self.check_op(op, &tables)?;
        let out =
            conclave_engine::execute(op, inputs).map_err(|e| MpcError::Exec(e.to_string()))?;
        let (rows, cols) = shapes(&tables);
        let op_stats = self.estimate_op(op, &rows, &cols, out.num_rows() as u64)?;
        let stats = self.estimate_job(op_stats, &tables, out.num_rows(), out.num_cols());
        Ok((out, stats))
    }

    /// Rejects, before any evaluation, what the configured backend cannot
    /// run on these inputs. Secret-sharing backends accept exactly what the
    /// party runtime accepts: the operator must pass
    /// [`crate::runtime::check_supported`] and every input cell must be
    /// shareable (an integer-encodable, non-NULL value). Garbled-circuit
    /// backends evaluate any operator.
    pub fn check_op(&self, op: &Operator, inputs: &[&Table]) -> MpcResult<()> {
        if !self.config.kind.is_secret_sharing() {
            return Ok(());
        }
        crate::runtime::check_supported(op).map_err(MpcError::Unsupported)?;
        inputs.iter().try_for_each(|t| check_shareable(t))
    }

    /// Wraps one operator's modeled cost (`op_stats`, from
    /// [`MpcEngine::estimate_op`] or a specialised estimator) into the cost of
    /// a standalone MPC job over `inputs` with a result of `output_rows` ×
    /// `output_cols`. Secret-sharing backends add sharing every input cell,
    /// opening every result cell and the fixed job overhead; garbled-circuit
    /// estimates already carry their input and output wires and the job
    /// overhead, and are returned unchanged.
    pub fn estimate_job(
        &self,
        op_stats: MpcStepStats,
        inputs: &[&Table],
        output_rows: usize,
        output_cols: usize,
    ) -> MpcStepStats {
        if !self.config.kind.is_secret_sharing() {
            return op_stats;
        }
        let (rows, cols) = shapes(inputs);
        let mut counts = op_stats.counts;
        counts.merge(&PrimitiveCounts {
            input_elems: rows.iter().zip(&cols).map(|(r, c)| r * c).sum(),
            opened_elems: (output_rows * output_cols) as u64,
            ..Default::default()
        });
        let mut stats = self.stats_from_counts(counts, rows.iter().sum(), output_rows as u64);
        stats.simulated_time += Duration::from_secs_f64(self.config.ss_cost.job_overhead);
        stats
    }

    // ------------------------------------------------------------------
    // Analytic estimators (for paper-scale cardinalities).
    // ------------------------------------------------------------------

    /// Estimates the cost of secret-sharing `rows × cols` elements into the MPC.
    pub fn estimate_input(&self, rows: u64, cols: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            input_elems: rows * cols,
            ..Default::default()
        };
        self.stats_from_counts(counts, rows, rows)
    }

    /// Estimates the cost of opening `rows × cols` elements out of the MPC.
    pub fn estimate_open(&self, rows: u64, cols: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            opened_elems: rows * cols,
            ..Default::default()
        };
        self.stats_from_counts(counts, rows, rows)
    }

    /// Estimates the cost of one operator from cardinalities alone.
    ///
    /// `input_rows`/`input_cols` describe each input; `output_rows` is the
    /// (estimated) result cardinality. The same primitive-count formulas as
    /// the real execution path are used, so estimates and measurements agree
    /// asymptotically.
    pub fn estimate_op(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
    ) -> MpcResult<MpcStepStats> {
        let n: u64 = input_rows.iter().sum();
        let cols: u64 = input_cols.iter().copied().max().unwrap_or(1);
        match self.config.kind {
            BackendKind::SharemindLike => {
                let counts = match op {
                    Operator::Join { left_keys, .. } => PrimitiveCounts {
                        equalities: input_rows.first().copied().unwrap_or(0)
                            * input_rows.get(1).copied().unwrap_or(0)
                            * left_keys.len() as u64,
                        ..Default::default()
                    },
                    Operator::Aggregate { group_by, .. } => {
                        let mut c = sort_counts(n, cols);
                        if group_by.is_empty() {
                            c = PrimitiveCounts::default();
                        }
                        c.merge(&aggregate_scan_counts(n, cols));
                        c
                    }
                    Operator::SortBy { .. }
                    | Operator::Distinct { .. }
                    | Operator::DistinctCount { .. } => {
                        let mut c = sort_counts(n, cols);
                        c.merge(&PrimitiveCounts {
                            equalities: n,
                            opened_elems: n,
                            ..Default::default()
                        });
                        c
                    }
                    Operator::Merge { .. } => PrimitiveCounts {
                        comparisons: n * log2(n),
                        mults: 2 * n * log2(n) * cols,
                        ..Default::default()
                    },
                    Operator::Filter { predicate } => PrimitiveCounts {
                        comparisons: n * predicate.op_count() as u64,
                        shuffled_elems: n * cols,
                        opened_elems: n,
                        ..Default::default()
                    },
                    Operator::Multiply { operands, .. } => PrimitiveCounts {
                        mults: n * operands.len().saturating_sub(1) as u64,
                        ..Default::default()
                    },
                    Operator::Shuffle => PrimitiveCounts {
                        shuffled_elems: n * cols,
                        ..Default::default()
                    },
                    Operator::ObliviousSelect { .. } => PrimitiveCounts {
                        mults: (n + output_rows) * log2(n + output_rows) * cols,
                        ..Default::default()
                    },
                    Operator::Project { .. }
                    | Operator::Concat
                    | Operator::Limit { .. }
                    | Operator::Enumerate { .. }
                    | Operator::RevealTo { .. }
                    | Operator::CloseTo
                    | Operator::Open { .. }
                    | Operator::Collect { .. } => PrimitiveCounts::default(),
                    Operator::HybridJoin { .. } => {
                        return Ok(self.estimate_hybrid_join(
                            input_rows.first().copied().unwrap_or(0),
                            input_rows.get(1).copied().unwrap_or(0),
                            output_rows,
                            cols,
                        ))
                    }
                    Operator::HybridAggregate { .. } => {
                        return Ok(self.estimate_hybrid_aggregate(n, output_rows, cols))
                    }
                    Operator::PublicJoin { .. } => {
                        return Ok(self.estimate_public_join(n, output_rows))
                    }
                    other => {
                        return Err(MpcError::Unsupported(format!(
                            "no secret-sharing estimate for {}",
                            other.name()
                        )))
                    }
                };
                Ok(self.stats_from_counts(counts, n, output_rows))
            }
            BackendKind::OblivCLike | BackendKind::OblivVmLike => {
                let per_record = self.config.gc_cost.state_bytes_per_record;
                let (and_gates, memory) = match op {
                    Operator::Join { left_keys, .. } => (
                        gates::join(
                            input_rows.first().copied().unwrap_or(0),
                            input_rows.get(1).copied().unwrap_or(0),
                            left_keys.len() as u64,
                            cols,
                        ),
                        n as f64 * per_record * 10.0,
                    ),
                    Operator::Aggregate { group_by, .. } => (
                        gates::aggregate(n, group_by.len() as u64),
                        n as f64 * per_record * 3.0,
                    ),
                    Operator::Distinct { .. }
                    | Operator::DistinctCount { .. }
                    | Operator::SortBy { .. } => (gates::distinct(n), n as f64 * per_record * 3.0),
                    Operator::Filter { predicate } => {
                        (n * predicate.op_count() as u64 * 64, n as f64 * per_record)
                    }
                    _ => (gates::project(n, cols), n as f64 * per_record),
                };
                if self.config.gc_cost.exceeds_memory(memory) {
                    return Err(MpcError::OutOfMemory {
                        needed: memory,
                        limit: self.config.gc_cost.memory_limit_bytes,
                    });
                }
                Ok(MpcStepStats {
                    simulated_time: self.config.gc_cost.time(and_gates, &self.config.network),
                    counts: PrimitiveCounts::default(),
                    circuit: CircuitStats {
                        and_gates,
                        xor_gates: 2 * and_gates,
                        input_wires: n * cols * 64,
                        output_wires: output_rows * cols * 64,
                    },
                    memory_bytes: memory,
                    input_rows: n,
                    output_rows,
                })
            }
        }
    }

    /// Estimates a grouped aggregation whose input is already sorted by its
    /// group-by key: the §5.4 sort-elimination pay-off skips the oblivious
    /// sort and pays only the accumulation scan.
    pub fn estimate_presorted_aggregate(
        &self,
        n: u64,
        cols: u64,
        output_rows: u64,
    ) -> MpcStepStats {
        self.stats_from_counts(aggregate_scan_counts(n, cols), n, output_rows)
    }

    /// Estimates a division over `n` rows. The secret-sharing layer is
    /// integer-only, so a division is charged as an oblivious fixed-point
    /// division (about thirty comparison-equivalents per row) while its
    /// result is computed in the clear; this keeps the paper's "whole query
    /// under MPC" baselines (Figures 4 and 6) runnable.
    pub fn estimate_divide(&self, n: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            comparisons: 30 * n,
            ..Default::default()
        };
        self.stats_from_counts(counts, n, n)
    }

    /// Estimates the MPC-side cost of the hybrid join protocol of §5.3
    /// (Figure 3): oblivious shuffles of both inputs, revealing the key
    /// columns to the STP, secret-sharing the index relations back, two
    /// oblivious-select invocations, and a final shuffle of the result.
    pub fn estimate_hybrid_join(
        &self,
        n_left: u64,
        n_right: u64,
        output_rows: u64,
        cols: u64,
    ) -> MpcStepStats {
        let n = n_left + n_right;
        let total = (n + output_rows).max(2);
        let counts = PrimitiveCounts {
            shuffled_elems: n * cols + output_rows * 2 * cols,
            opened_elems: n,                   // key columns revealed to the STP
            input_elems: 2 * output_rows,      // index relations shared back in
            mults: total * log2(total) * cols, // oblivious indexing
            ..Default::default()
        };
        self.stats_from_counts(counts, n, output_rows)
    }

    /// Estimates the MPC-side cost of the hybrid aggregation protocol of
    /// §5.3: an oblivious shuffle, revealing the group-by column, re-sharing
    /// the equality flags, a linear oblivious accumulation scan, and a final
    /// shuffle-and-reveal of the flags.
    pub fn estimate_hybrid_aggregate(&self, n: u64, output_rows: u64, cols: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            shuffled_elems: 2 * n * cols,
            opened_elems: 2 * n, // group-by column + final flags
            input_elems: n,      // equality flags shared by the STP
            mults: 2 * n,        // conditional accumulation muxes
            ..Default::default()
        };
        self.stats_from_counts(counts, n, output_rows)
    }

    /// Estimates the cost of the public join of §5.3: the MPC is avoided
    /// entirely; parties exchange key columns in the clear and the helper
    /// joins locally, so the only cost charged here is data movement.
    pub fn estimate_public_join(&self, n: u64, output_rows: u64) -> MpcStepStats {
        let bytes = (n + output_rows) * 8;
        MpcStepStats {
            simulated_time: self.config.network.transfer_time(bytes),
            counts: PrimitiveCounts::default(),
            circuit: CircuitStats::default(),
            memory_bytes: 0.0,
            input_rows: n,
            output_rows,
        }
    }

    /// Builds step statistics from primitive counts. Also the entry point
    /// for externally-measured counts: the distributed party runtime
    /// executes operators itself and reports its counters here so
    /// simulated-time accounting stays uniform across both modes.
    pub fn stats_from_counts(
        &self,
        counts: PrimitiveCounts,
        input_rows: u64,
        output_rows: u64,
    ) -> MpcStepStats {
        MpcStepStats {
            simulated_time: self
                .config
                .ss_cost
                .time_no_overhead(&counts, &self.config.network),
            counts,
            circuit: CircuitStats::default(),
            memory_bytes: 0.0,
            input_rows,
            output_rows,
        }
    }
}

/// Primitive counts of a Batcher sort of `n` rows of `cols` columns.
fn sort_counts(n: u64, cols: u64) -> PrimitiveCounts {
    let n = n.max(2);
    let log = log2(n);
    let compare_exchanges = n * log * log / 4;
    PrimitiveCounts {
        comparisons: compare_exchanges,
        mults: 2 * compare_exchanges * cols,
        ..Default::default()
    }
}

fn log2(n: u64) -> u64 {
    64 - n.max(2).leading_zeros() as u64
}

/// Primitive counts of the sorting aggregation's accumulation scan over `n`
/// key-sorted rows: one equality and two multiplexers per row, then a
/// shuffle-and-open of the group-boundary flags.
fn aggregate_scan_counts(n: u64, cols: u64) -> PrimitiveCounts {
    PrimitiveCounts {
        equalities: n,
        mults: 2 * n,
        shuffled_elems: n * (cols + 1),
        opened_elems: n,
        ..Default::default()
    }
}

/// Row and column counts of each table.
fn shapes(tables: &[&Table]) -> (Vec<u64>, Vec<u64>) {
    tables
        .iter()
        .map(|t| (t.num_rows() as u64, t.num_cols() as u64))
        .unzip()
}

/// Checks that a table can be secret-shared: every column has an
/// integer-encodable type and every cell an integer value, the same rule the
/// party runtime's `share_relation` applies.
fn check_shareable(table: &Table) -> MpcResult<()> {
    if let Some(col) = table
        .schema()
        .columns
        .iter()
        .find(|c| !c.dtype.mpc_compatible())
    {
        return Err(MpcError::Exec(format!(
            "column `{}` has type {} which cannot be secret-shared",
            col.name, col.dtype
        )));
    }
    let bad = if table.has_columns() {
        let rel = table.as_columns();
        rel.columns()
            .iter()
            .enumerate()
            .filter(|(_, col)| col.as_ints().is_none())
            .flat_map(|(c, _)| (0..rel.num_rows()).map(move |i| rel.value(i, c)))
            .find(|v| v.as_int().is_none())
    } else {
        table
            .as_rows()
            .rows
            .iter()
            .flatten()
            .find(|v| v.as_int().is_none())
            .cloned()
    };
    match bad {
        Some(v) => Err(MpcError::Exec(format!(
            "cannot share non-integer value {v}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, JoinKind, Operand};

    fn sharemind() -> MpcEngine {
        MpcEngine::new(MpcBackendConfig::sharemind())
    }

    fn sales() -> Relation {
        Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        )
    }

    #[test]
    fn backend_kind_properties() {
        assert_eq!(BackendKind::SharemindLike.parties(), 3);
        assert_eq!(BackendKind::OblivCLike.parties(), 2);
        assert!(BackendKind::SharemindLike.is_secret_sharing());
        assert!(!BackendKind::OblivVmLike.is_secret_sharing());
        assert_eq!(BackendKind::SharemindLike.to_string(), "sharemind-like");
    }

    #[test]
    fn sharemind_aggregate_matches_cleartext() {
        let eng = sharemind();
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, stats) = eng.execute_op(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert!(stats.counts.comparisons > 0);
        assert!(
            stats.simulated_time > Duration::from_secs(1),
            "includes job overhead"
        );
        assert_eq!(stats.input_rows, 5);
        assert_eq!(stats.output_rows, 3);
    }

    #[test]
    fn sharemind_join_matches_cleartext_and_counts_quadratic_equalities() {
        let eng = sharemind();
        let left = Relation::from_ints(&["k", "a"], &[vec![1, 1], vec![2, 2], vec![3, 3]]);
        let right = Relation::from_ints(&["k", "b"], &[vec![2, 20], vec![3, 30], vec![4, 40]]);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        let (out, stats) = eng.execute_op(&op, &[&left, &right]).unwrap();
        let expected = execute(&op, &[&left, &right]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert_eq!(stats.counts.equalities, 9);
    }

    #[test]
    fn sharemind_filter_multiply_sort_limit() {
        let eng = sharemind();
        let rel = sales();
        let filter = Operator::Filter {
            predicate: Expr::col("price").gt(Expr::lit(6)),
        };
        let (out, _) = eng.execute_op(&filter, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&execute(&filter, &[&rel]).unwrap()));

        let mul = Operator::Multiply {
            out: "sq".into(),
            operands: vec![
                Operand::col("price"),
                Operand::col("price"),
                Operand::lit(2),
            ],
        };
        let (out, _) = eng.execute_op(&mul, &[&rel]).unwrap();
        assert_eq!(
            out.column_values("sq").unwrap()[0],
            conclave_ir::types::Value::Int(200)
        );

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let (out, _) = eng.execute_op(&sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));

        let limit = Operator::Limit { n: 2 };
        let (out, _) = eng.execute_op(&limit, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn sharemind_distinct_and_distinct_count() {
        let eng = sharemind();
        let rel = sales();
        let d = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let (out, _) = eng.execute_op(&d, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 3);
        let dc = Operator::DistinctCount {
            column: "price".into(),
            out: "n".into(),
        };
        let (out, _) = eng.execute_op(&dc, &[&rel]).unwrap();
        assert_eq!(out.scalar(), Some(&conclave_ir::types::Value::Int(4)));
    }

    #[test]
    fn complex_predicates_under_mpc() {
        let eng = sharemind();
        let rel = sales();
        let pred = Expr::col("price")
            .ge(Expr::lit(5))
            .and(Expr::col("companyID").ne(Expr::lit(3)))
            .or(Expr::col("price").eq(Expr::lit(7)));
        let op = Operator::Filter {
            predicate: pred.clone(),
        };
        let (out, _) = eng.execute_op(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        // An arithmetic predicate is rejected.
        let bad = Operator::Filter {
            predicate: Expr::col("price").add(Expr::lit(1)),
        };
        assert!(matches!(
            eng.execute_op(&bad, &[&rel]),
            Err(MpcError::Unsupported(_))
        ));
    }

    #[test]
    fn unsupported_operators() {
        let eng = sharemind();
        let rel = sales();
        assert!(matches!(
            eng.execute_op(
                &Operator::Divide {
                    out: "x".into(),
                    num: Operand::col("price"),
                    den: Operand::lit(2)
                },
                &[&rel]
            ),
            Err(MpcError::Unsupported(_))
        ));
        assert!(eng
            .execute_op(
                &Operator::HybridJoin {
                    left_keys: vec!["companyID".into()],
                    right_keys: vec!["companyID".into()],
                    stp: 1
                },
                &[&rel, &rel]
            )
            .is_err());
        // Multi-column group-by is not supported under MPC.
        assert!(eng
            .execute_op(
                &Operator::Aggregate {
                    group_by: vec!["companyID".into(), "price".into()],
                    func: AggFunc::Count,
                    over: None,
                    out: "n".into()
                },
                &[&rel]
            )
            .is_err());
    }

    #[test]
    fn execute_op_charges_the_modeled_standalone_job() {
        let eng = sharemind();
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, stats) = eng.execute_op(&op, &[&rel]).unwrap();
        let modeled = eng.estimate_op(&op, &[5], &[2], 3).unwrap();
        // The job = share 5×2 input cells + the operator + open 3×2 result
        // cells + the fixed overhead.
        let mut expected = modeled.counts;
        expected.merge(&PrimitiveCounts {
            input_elems: 10,
            opened_elems: 6,
            ..Default::default()
        });
        assert_eq!(out.num_rows(), 3);
        assert_eq!(stats.counts, expected);
        let overhead = Duration::from_secs_f64(eng.config().ss_cost.job_overhead);
        assert_eq!(
            stats.simulated_time,
            eng.stats_from_counts(expected, 5, 3).simulated_time + overhead
        );
        // A presorted aggregation skips the sort: the scan alone is cheaper.
        let presorted = eng.estimate_presorted_aggregate(5, 2, 3);
        assert_eq!(presorted.counts.comparisons, 0);
        assert!(presorted.simulated_time < modeled.simulated_time);
        assert_eq!(eng.estimate_divide(4).counts.comparisons, 120);
    }

    #[test]
    fn unshareable_inputs_are_rejected_like_the_party_runtime() {
        let eng = sharemind();
        let op = Operator::Shuffle;
        let floats = Relation::new(
            conclave_ir::schema::Schema::new(vec![conclave_ir::schema::ColumnDef::new(
                "x",
                conclave_ir::types::DataType::Float,
            )]),
            vec![vec![conclave_ir::types::Value::Float(1.5)]],
        )
        .unwrap();
        let nulls = Relation::new(
            conclave_ir::schema::Schema::ints(&["x"]),
            vec![vec![conclave_ir::types::Value::Null]],
        )
        .unwrap();
        for rel in [&floats, &nulls] {
            assert!(matches!(
                eng.execute_op(&op, &[rel]),
                Err(MpcError::Exec(_))
            ));
            let columnar = Table::from_columns(conclave_engine::ColumnarRelation::from_rows(rel));
            assert!(matches!(
                eng.check_op(&op, &[&columnar]),
                Err(MpcError::Exec(_))
            ));
        }
        // Garbled circuits evaluate any cleartext value.
        let gc = MpcEngine::new(MpcBackendConfig::obliv_c());
        assert!(gc.execute_op(&op, &[&floats]).is_ok());
    }

    #[test]
    fn garbled_backend_executes_and_counts_gates() {
        let eng = MpcEngine::new(MpcBackendConfig::obliv_c());
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, stats) = eng.execute_op(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&execute(&op, &[&rel]).unwrap()));
        assert!(stats.circuit.and_gates > 0);
        assert_eq!(stats.counts, PrimitiveCounts::default());
    }

    #[test]
    fn garbled_join_hits_out_of_memory_at_figure_1_scale() {
        let eng = MpcEngine::new(MpcBackendConfig::obliv_c());
        let n = 20_000usize;
        let rows: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let big = Relation::from_ints(&["k", "v"], &rows);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        match eng.execute_op(&op, &[&big, &big]) {
            Err(MpcError::OutOfMemory { needed, limit }) => {
                assert!(needed > limit);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // Estimates hit the same wall.
        assert!(matches!(
            eng.estimate_op(&op, &[40_000, 40_000], &[2, 2], 40_000),
            Err(MpcError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn estimates_track_paper_asymptotics() {
        let eng = sharemind();
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        let t1 = eng
            .estimate_op(&join, &[1_000, 1_000], &[2, 2], 1_000)
            .unwrap()
            .simulated_time
            .as_secs_f64();
        let t2 = eng
            .estimate_op(&join, &[2_000, 2_000], &[2, 2], 2_000)
            .unwrap()
            .simulated_time
            .as_secs_f64();
        assert!((t2 / t1 - 4.0).abs() < 0.5, "MPC join should be quadratic");

        // Hybrid join is asymptotically better than the MPC join at scale.
        let hybrid = eng.estimate_hybrid_join(100_000, 100_000, 100_000, 2);
        let full = eng
            .estimate_op(&join, &[100_000, 100_000], &[2, 2], 100_000)
            .unwrap();
        assert!(hybrid.simulated_time < full.simulated_time / 10);

        // Public join is cheaper still.
        let public = eng.estimate_public_join(200_000, 100_000);
        assert!(public.simulated_time < hybrid.simulated_time);

        // Hybrid aggregation beats the sort-based MPC aggregation.
        let agg = Operator::Aggregate {
            group_by: vec!["k".into()],
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        };
        let hybrid_agg = eng.estimate_hybrid_aggregate(100_000, 10_000, 2);
        let full_agg = eng.estimate_op(&agg, &[100_000], &[2], 10_000).unwrap();
        assert!(hybrid_agg.simulated_time < full_agg.simulated_time);
    }

    #[test]
    fn estimate_input_and_open_scale_linearly() {
        let eng = sharemind();
        let a = eng.estimate_input(1_000, 2).simulated_time.as_secs_f64();
        let b = eng.estimate_input(10_000, 2).simulated_time.as_secs_f64();
        assert!((b / a - 10.0).abs() < 0.5);
        assert!(eng.estimate_open(1_000, 2).simulated_time > Duration::ZERO);
    }

    #[test]
    fn step_stats_merge() {
        let mut a = MpcStepStats {
            simulated_time: Duration::from_secs(1),
            memory_bytes: 10.0,
            input_rows: 5,
            output_rows: 5,
            ..Default::default()
        };
        let b = MpcStepStats {
            simulated_time: Duration::from_secs(2),
            memory_bytes: 3.0,
            input_rows: 7,
            output_rows: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.simulated_time, Duration::from_secs(3));
        assert_eq!(a.memory_bytes, 10.0);
        assert_eq!(a.input_rows, 12);
        assert_eq!(a.output_rows, 2);
    }

    #[test]
    fn error_display() {
        assert!(MpcError::Unsupported("x".into()).to_string().contains('x'));
        assert!(MpcError::OutOfMemory {
            needed: 5e9,
            limit: 4e9
        }
        .to_string()
        .contains("out of memory"));
        assert!(MpcError::Exec("boom".into()).to_string().contains("boom"));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(MpcBackendConfig::default().kind, BackendKind::SharemindLike);
        assert_eq!(MpcBackendConfig::obliv_vm().kind, BackendKind::OblivVmLike);
        let eng = MpcEngine::new(MpcBackendConfig::obliv_c());
        assert_eq!(eng.config().kind, BackendKind::OblivCLike);
    }
}
