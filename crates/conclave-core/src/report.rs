//! Execution reports: results, simulated runtime breakdown and leakage audit.

use crate::passes::leakage::LeakageReport;
use conclave_engine::{ConversionCounts, Relation};
use conclave_ir::ops::ExecSite;
use conclave_ir::party::PartyId;
use conclave_mpc::backend::MpcStepStats;
use conclave_net::NetStats;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// One entry of the leakage audit: a place where data left the MPC boundary
/// in cleartext, with the justification the compiler derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakageEvent {
    /// Node at whose execution the reveal happened.
    pub node: usize,
    /// Party that received cleartext data.
    pub to_party: PartyId,
    /// What was revealed (column names or "result").
    pub what: String,
    /// Why the reveal is authorized (trust annotation, output recipient,
    /// reversible push-up, or cardinality-only).
    pub justification: String,
}

/// Report of one end-to-end query execution.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The query output, per recipient party.
    pub outputs: BTreeMap<PartyId, Relation>,
    /// Local (cleartext) processing time per party. **Modeled**: the local
    /// executor's cost model, not wall clock. Parties work in parallel, so
    /// the critical path takes the maximum.
    pub local_time: BTreeMap<PartyId, Duration>,
    /// Time spent in MPC steps (sequential across all parties). **Modeled**
    /// in every mode: the secret-sharing cost model applied to the steps'
    /// primitive counts (counted on the mesh in the distributed modes,
    /// estimated from cardinalities in simulated mode), never wall clock.
    pub mpc_time: Duration,
    /// Time spent in STP cleartext steps of hybrid protocols. **Modeled**
    /// by the STP executor's cost model.
    pub stp_time: Duration,
    /// Total data moved between parties, in bytes. Modeled from primitive
    /// counts in simulated mode. When the distributed party runtime executed
    /// the MPC steps, their contribution is the *observed* wire-byte total
    /// instead — but driver-orchestrated hybrid protocols and the division
    /// path still contribute modeled bytes, so on plans containing
    /// those this total mixes both accountings (the purely-measured portion
    /// is always available as [`RunReport::net`]`.total_bytes()`).
    pub network_bytes: u64,
    /// Per-link traffic of the distributed MPC steps. Empty in simulated
    /// mode; when [`RunReport::net_measured`] is true, these are **measured**
    /// per-link byte/message counts and synchronous round totals observed on
    /// the party transports — not cost-model output.
    pub net: NetStats,
    /// True when [`RunReport::net`] holds measured transport statistics
    /// (i.e. MPC steps ran on the distributed party runtime).
    pub net_measured: bool,
    /// Traffic on the dedicated per-party dealer links (the offline phase),
    /// present only when the run streamed its material from a dealer. Link
    /// keys use [`crate::party_exec::DEALER_ID`] for the dealer endpoint;
    /// kept separate from [`RunReport::net`] so offline bytes never blur the
    /// online round/byte accounting the paper's cost model is about.
    pub dealer_net: Option<NetStats>,
    /// Aggregated MPC statistics (primitive counts, gates, memory). In
    /// simulated mode these are **modeled** (the planner's estimates for each
    /// step); in the distributed modes the party steps' primitive counts are
    /// counted on the mesh, while hybrid protocols count on the in-process
    /// protocol and the division path is modeled.
    pub mpc_stats: MpcStepStats,
    /// Leakage audit log (dynamic: recorded as reveals actually happen).
    pub leakage: Vec<LeakageEvent>,
    /// The plan's statically certified leakage report, attached by the
    /// driver before execution. Every dynamic [`RunReport::leakage`] event
    /// must be covered by a disclosure in here — the differential tests
    /// assert exactly that.
    pub static_leakage: Option<LeakageReport>,
    /// Per-node runtimes, for detailed breakdowns. **Modeled**, like
    /// [`RunReport::mpc_time`] and [`RunReport::local_time`].
    pub per_node: Vec<(usize, ExecSite, Duration)>,
    /// Row↔columnar conversions the run's data plane performed. With the
    /// unified `Table` representation, a columnar-mode driven query should
    /// convert only at input binding and reveal/collect boundaries — never
    /// between plan operators — and tests assert exactly that on this field.
    pub conversions: ConversionCounts,
}

impl RunReport {
    /// End-to-end simulated runtime: the slowest party's local work plus the
    /// (sequential) MPC and STP phases.
    pub fn total_time(&self) -> Duration {
        let local_max = self.local_time.values().copied().max().unwrap_or_default();
        local_max + self.mpc_time + self.stp_time
    }

    /// The output delivered to a given party, if it is a recipient.
    pub fn output_for(&self, party: PartyId) -> Option<&Relation> {
        self.outputs.get(&party)
    }

    /// Synchronous protocol rounds the whole query paid on the wire —
    /// the paper's dominant MPC cost. Zero unless
    /// [`RunReport::net_measured`] is set.
    pub fn rounds_per_query(&self) -> u64 {
        self.net.rounds
    }

    /// How many transport meshes were built for the query. The plan-scoped
    /// party runtime builds exactly one; more indicates a regression to
    /// per-step meshes.
    pub fn mesh_builds(&self) -> u64 {
        self.net.mesh_builds
    }

    /// Records a leakage event.
    pub fn record_leakage(
        &mut self,
        node: usize,
        to_party: PartyId,
        what: impl Into<String>,
        justification: impl Into<String>,
    ) {
        self.leakage.push(LeakageEvent {
            node,
            to_party,
            what: what.into(),
            justification: justification.into(),
        });
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Conclave run report ===")?;
        writeln!(
            f,
            "total simulated time: {:.2} s",
            self.total_time().as_secs_f64()
        )?;
        for (party, t) in &self.local_time {
            writeln!(f, "  local @ P{party}: {:.2} s", t.as_secs_f64())?;
        }
        writeln!(f, "  MPC: {:.2} s", self.mpc_time.as_secs_f64())?;
        writeln!(f, "  STP: {:.2} s", self.stp_time.as_secs_f64())?;
        writeln!(f, "network bytes: {}", self.network_bytes)?;
        if self.net_measured {
            writeln!(
                f,
                "measured MPC traffic: {} B over {} messages in {} rounds \
                 ({} mesh build(s))",
                self.net.total_bytes(),
                self.net.total_messages(),
                self.net.rounds,
                self.net.mesh_builds
            )?;
            for ((from, to), link) in &self.net.links {
                writeln!(
                    f,
                    "  link P{from} -> P{to}: {} B in {} messages",
                    link.bytes, link.messages
                )?;
            }
            writeln!(
                f,
                "integrity: {} deferred MAC check(s) at reveal boundaries",
                self.mpc_stats.counts.mac_checks
            )?;
        }
        if let Some(dealer) = &self.dealer_net {
            writeln!(
                f,
                "offline (dealer) traffic: {} B over {} messages",
                dealer.total_bytes(),
                dealer.total_messages()
            )?;
            for ((from, to), link) in &dealer.links {
                let name = |p: &u32| {
                    if *p == crate::party_exec::DEALER_ID {
                        "dealer".to_string()
                    } else {
                        format!("P{p}")
                    }
                };
                writeln!(
                    f,
                    "  link {} -> {}: {} B in {} messages",
                    name(from),
                    name(to),
                    link.bytes,
                    link.messages
                )?;
            }
        }
        writeln!(
            f,
            "data-plane conversions: {} row->columnar, {} columnar->row",
            self.conversions.row_to_columnar, self.conversions.columnar_to_row
        )?;
        writeln!(
            f,
            "MPC primitives: {} non-linear ops, {} AND gates",
            self.mpc_stats.counts.nonlinear_ops(),
            self.mpc_stats.circuit.and_gates
        )?;
        writeln!(f, "leakage events: {}", self.leakage.len())?;
        for e in &self.leakage {
            writeln!(
                f,
                "  node #{} -> P{}: {} ({})",
                e.node, e.to_party, e.what, e.justification
            )?;
        }
        for (party, rel) in &self.outputs {
            writeln!(f, "output for P{party}: {} rows", rel.num_rows())?;
        }
        if let Some(static_report) = &self.static_leakage {
            write!(f, "{static_report}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_is_critical_path() {
        let mut r = RunReport::default();
        r.local_time.insert(1, Duration::from_secs(5));
        r.local_time.insert(2, Duration::from_secs(9));
        r.mpc_time = Duration::from_secs(3);
        r.stp_time = Duration::from_secs(1);
        assert_eq!(r.total_time(), Duration::from_secs(13));
        // With no local work at all, only MPC+STP count.
        let r2 = RunReport {
            mpc_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(r2.total_time(), Duration::from_secs(2));
    }

    #[test]
    fn leakage_and_outputs_render() {
        let mut r = RunReport::default();
        r.record_leakage(3, 1, "ssn column", "trust annotation names P1 as STP");
        r.outputs.insert(1, Relation::from_ints(&["x"], &[vec![1]]));
        assert!(r.output_for(1).is_some());
        assert!(r.output_for(2).is_none());
        let text = r.to_string();
        assert!(text.contains("leakage events: 1"));
        assert!(text.contains("ssn column"));
        assert!(text.contains("output for P1: 1 rows"));
    }
}
