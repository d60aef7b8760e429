//! Distributed execution of MPC plan steps: a query-lifetime party mesh.
//!
//! When [`crate::config::ConclaveConfig::party_runtime`] selects a
//! distributed mode, the driver routes the plan's secret-sharing MPC steps
//! into a [`PartyMeshRuntime`]:
//!
//! 1. **one** transport mesh ([`Mesh::channel`] or a localhost
//!    [`Mesh::tcp_localhost`], per the configured [`PartyRuntime`]) is built
//!    for the whole query — `NetStats::mesh_builds` stays at 1 however many
//!    steps the plan has;
//! 2. one worker thread per computing party is spawned **once**, each owning
//!    a session-lifetime [`PartySession`] (dealer streams, triple cache) that
//!    holds **only that party's shares**;
//! 3. the driver feeds plan steps over a work queue. Intermediate relations
//!    stay **resident** on the workers as shares between steps — they are
//!    re-used by reference, not re-shared — and results are opened only at
//!    *reveal boundaries* (steps whose output leaves the MPC pipeline);
//! 4. opens are split-phase ([`begin_open_relation`] /
//!    [`finish_open_relation`]): the broadcast goes out as soon as a step
//!    finishes, but the peer shares are collected only once the work queue
//!    drains, so a worker accepts the next step's inputs while the previous
//!    step's final open is still in flight;
//! 5. at every reveal the driver verifies that all parties opened the
//!    *identical* relation (a built-in consistency check of the share
//!    arithmetic), and [`PartyMeshRuntime::finish`] merges the per-endpoint
//!    [`NetStats`] into one measured per-link byte/round picture for
//!    [`crate::report::RunReport::net`].
//!
//! Comparison-bearing steps (sorts, joins, filters) run the bit-decomposed
//! circuits of [`conclave_mpc::circuits`], so their [`StepOutcome::counts`]
//! additionally report `bit_ands` (binary Beaver AND gates) and
//! `circuit_rounds` (masked-open / gate-level synchronous rounds); both are
//! batch-size-dependent only, so the cross-party equality check in step 5
//! covers them too.
//!
//! The default [`PartyRuntime::Simulated`] mode runs no protocol at all: it
//! evaluates each MPC step in the clear and charges the planner's modeled
//! cost. The tests hold this runtime against the cleartext oracle
//! (`conclave_engine::execute`): a transport-executed plan must reveal the
//! same cells. [`execute_op_distributed`] survives as a single-step
//! convenience wrapper over the runtime.

use crate::config::{DealerMode, PartyRuntime};
use crate::driver::DriverError;
use conclave_engine::{Relation, Table};
use conclave_ir::ops::Operator;
use conclave_ir::schema::Schema;
use conclave_mpc::cost::PrimitiveCounts;
use conclave_mpc::dealer::{
    load_party_file, serve_party, DealerSource, MaterialBlocks, MaterialPool,
};
use conclave_mpc::runtime::{
    begin_open_relation, execute_party_op, finish_open_relation, share_relation, PartyError,
    PartyRelation, PartySession, PendingOpen,
};
use conclave_mpc::MpcError;
use conclave_net::{merge_mesh_stats, ChannelTransport, Mesh, NetStats, Transport};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

/// Sentinel party id standing for the dealer endpoint in
/// [`MeshSummary::dealer_net`] link keys: each party's dedicated offline link
/// is re-keyed `(party, DEALER_ID)` / `(DEALER_ID, party)`.
pub const DEALER_ID: u32 = u32::MAX;

/// Whether the party-runtime protocol drivers execute this operator.
///
/// The exclusions are exactly the operators the driver orchestrates itself:
/// plan inputs/outputs, the hybrid protocols, and `Divide` (integer-only
/// secret sharing; the driver substitutes the simulated division path).
pub fn op_is_party_capable(op: &Operator) -> bool {
    !matches!(
        op,
        Operator::Input { .. }
            | Operator::Collect { .. }
            | Operator::Divide { .. }
            | Operator::HybridJoin { .. }
            | Operator::PublicJoin { .. }
            | Operator::HybridAggregate { .. }
    )
}

/// One input of a step fed to [`PartyMeshRuntime::enqueue`].
pub enum StepInput {
    /// A cleartext relation entering the MPC pipeline: the runtime picks an
    /// owning party (round-robin by input position) which secret-shares it.
    Table(Relation),
    /// The output of an earlier enqueued step, still resident on the workers
    /// as shares; consumed by reference without re-sharing.
    Resident(u32),
}

/// What every party reported for one executed step (identical across
/// parties; the runtime enforces this).
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The step id [`PartyMeshRuntime::enqueue`] returned.
    pub step: u32,
    /// Total input rows (shared + resident).
    pub input_rows: u64,
    /// Rows of the step's result relation.
    pub output_rows: u64,
    /// Primitive counts attributable to this step alone.
    pub counts: PrimitiveCounts,
    /// The opened result — present only for reveal-boundary steps.
    pub opened: Option<Relation>,
}

/// Everything a finished query measured: per-step outcomes plus the merged
/// observed traffic of the whole mesh.
#[derive(Debug)]
pub struct MeshSummary {
    /// Outcomes ordered by step id.
    pub steps: Vec<StepOutcome>,
    /// Per-link bytes/messages, synchronous rounds, and mesh builds.
    pub net: NetStats,
    /// Traffic on the dedicated per-party dealer links (the offline phase),
    /// present only under [`DealerMode::Streamed`]. Link keys use
    /// [`DEALER_ID`] for the dealer endpoint; this traffic is accounted
    /// separately from the online mesh in [`MeshSummary::net`].
    pub dealer_net: Option<NetStats>,
}

/// A step as shipped to one worker: the owning parties' copies carry the
/// cleartext input data, everyone else's carry schema and row count only.
struct StepSpec {
    step: u32,
    op: Operator,
    inputs: Vec<WorkerInput>,
    presorted: bool,
    reveal: bool,
}

enum WorkerInput {
    Share {
        owner: u32,
        schema: Schema,
        num_rows: usize,
        data: Option<Relation>,
    },
    Resident(u32),
}

enum WorkMsg {
    Step(Box<StepSpec>),
    /// Ends the current query on a long-lived mesh: flush deferred opens,
    /// drop resident relations, acknowledge with cumulative endpoint stats.
    /// The worker (and its session, MAC key, dealer feed) stays alive for
    /// the next query.
    EndQuery,
    /// Tops up the session's preloaded stock with a fresh pool bundle
    /// (dealt under the same MAC key) before the next query runs.
    Refill(Box<MaterialBlocks>),
    Finish,
}

enum WorkerReply {
    Step(u32, Result<StepOutcome, PartyError>),
    /// Acknowledges [`WorkMsg::EndQuery`]: this endpoint's *cumulative* mesh
    /// stats (the runtime turns them into per-query deltas) plus, in
    /// streamed-dealer mode, the cumulative dealer-link stats.
    QueryEnd {
        net: NetStats,
        dealer: Option<NetStats>,
    },
}

/// What one worker thread needs to set up its session's offline feed.
enum WorkerDealer {
    /// Synthesize material from the mesh seed in-process.
    Seeded,
    /// Load this party's pregenerated dealer file.
    File(PathBuf),
    /// Stream blocks over this dedicated link (the party holds endpoint 0,
    /// the dealer server endpoint 1).
    Link(Box<dyn Transport>),
    /// Preload this party's block of a pool bundle; later queries on the
    /// same mesh are topped up via [`WorkMsg::Refill`].
    Preloaded(Box<MaterialBlocks>),
}

struct WorkerHandle {
    work: Sender<WorkMsg>,
    replies: Receiver<WorkerReply>,
    join: Option<JoinHandle<(NetStats, Option<NetStats>)>>,
}

/// A streamed-mode dealer server thread: yields whether serving succeeded
/// and the traffic observed on the dealer's end of the link.
type DealerServerHandle = JoinHandle<(Result<(), PartyError>, NetStats)>;

/// The query-lifetime distributed runtime: one mesh, one worker thread and
/// one [`PartySession`] per party, a pipelined work queue of plan steps.
/// Under a non-seeded [`DealerMode`] the offline phase runs first: per-party
/// dealer files are loaded, or a dealer server thread per party streams
/// blocks over a dedicated link for the lifetime of the query.
pub struct PartyMeshRuntime {
    workers: Vec<WorkerHandle>,
    /// In-process dealer servers (streamed mode), one per party, joined at
    /// [`PartyMeshRuntime::finish`] once the workers drop their link ends.
    dealer_servers: Vec<(u32, DealerServerHandle)>,
    next_step: u32,
    /// Replies received out of order, per worker, keyed by step.
    buffered: Vec<HashMap<u32, StepOutcome>>,
    /// Cross-party-checked outcomes, keyed by step.
    completed: BTreeMap<u32, StepOutcome>,
    /// The shared pool backing [`DealerMode::Pooled`]: each
    /// [`PartyMeshRuntime::begin_query`] draws one fresh bundle from it.
    pool: Option<MaterialPool>,
    /// First step id of the current query (step ids keep counting across
    /// queries on a long-lived mesh).
    query_start: u32,
    /// Per-worker cumulative-stats baselines as of the last
    /// [`PartyMeshRuntime::end_query`], for per-query delta attribution.
    net_base: Vec<NetStats>,
    /// Same, for the worker-side dealer-link stats (streamed mode).
    dealer_base: Vec<NetStats>,
}

impl PartyMeshRuntime {
    /// Builds the mesh (once) and spawns the per-party workers (once),
    /// synthesizing offline material from the seed ([`DealerMode::Seeded`]).
    pub fn new(parties: u32, seed: u64, runtime: PartyRuntime) -> Result<Self, DriverError> {
        Self::with_dealer(parties, seed, runtime, &DealerMode::Seeded)
    }

    /// Builds the mesh and workers with an explicit offline-material source.
    pub fn with_dealer(
        parties: u32,
        seed: u64,
        runtime: PartyRuntime,
        dealer: &DealerMode,
    ) -> Result<Self, DriverError> {
        let mesh = match runtime {
            PartyRuntime::Simulated => {
                return Err(DriverError::Mpc(MpcError::Exec(
                    "PartyMeshRuntime built in simulated mode".into(),
                )))
            }
            PartyRuntime::Channel => Mesh::channel(parties),
            PartyRuntime::Tcp => Mesh::tcp_localhost(parties).map_err(DriverError::Transport)?,
        };
        let mut dealer_servers = Vec::new();
        // Pooled mode draws the first bundle up front (blocking until the
        // refiller has one ready — a starved pool delays, never corrupts).
        let mut pool_bundle = match dealer {
            DealerMode::Pooled(pool) => {
                if pool.parties() != parties as usize {
                    return Err(DriverError::Mpc(MpcError::Exec(format!(
                        "dealer pool deals for {} parties, but the mesh has {parties}",
                        pool.parties()
                    ))));
                }
                Some(pool.take())
            }
            _ => None,
        };
        let workers: Vec<WorkerHandle> = mesh
            .into_endpoints()
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let feed = match dealer {
                    DealerMode::Seeded => WorkerDealer::Seeded,
                    DealerMode::File(dir) => {
                        WorkerDealer::File(dir.join(format!("party-{i}.dealer")))
                    }
                    DealerMode::Pooled(_) => {
                        let bundle = pool_bundle.as_mut().expect("bundle taken above");
                        WorkerDealer::Preloaded(Box::new(std::mem::take(&mut bundle[i])))
                    }
                    DealerMode::Streamed => {
                        // One dedicated 2-endpoint link per party: the party
                        // keeps endpoint 0, the dealer server thread serves
                        // on endpoint 1 until the party drops its end.
                        let mut ends = ChannelTransport::mesh(2).into_iter();
                        let party_end = ends.next().expect("two endpoints");
                        let dealer_end = ends.next().expect("two endpoints");
                        let party = i as u32;
                        dealer_servers.push((
                            party,
                            std::thread::spawn(move || {
                                let served = serve_party(&dealer_end, party, parties, seed);
                                (served, dealer_end.stats())
                            }),
                        ));
                        WorkerDealer::Link(Box::new(party_end))
                    }
                };
                let (work_tx, work_rx) = std::sync::mpsc::channel();
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let join =
                    std::thread::spawn(move || worker_main(net, seed, feed, work_rx, reply_tx));
                WorkerHandle {
                    work: work_tx,
                    replies: reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        let buffered = workers.iter().map(|_| HashMap::new()).collect();
        let net_base = workers.iter().map(|_| NetStats::default()).collect();
        let dealer_base = workers.iter().map(|_| NetStats::default()).collect();
        Ok(PartyMeshRuntime {
            workers,
            dealer_servers,
            next_step: 0,
            buffered,
            completed: BTreeMap::new(),
            pool: match dealer {
                DealerMode::Pooled(pool) => Some(pool.clone()),
                _ => None,
            },
            query_start: 0,
            net_base,
            dealer_base,
        })
    }

    /// Number of computing parties in the mesh.
    pub fn parties(&self) -> u32 {
        self.workers.len() as u32
    }

    /// Enqueues one plan step on every worker and returns its step id
    /// without waiting for execution: workers drain the queue at their own
    /// pace, so the driver can keep feeding steps while earlier opens are in
    /// flight. `reveal` marks a reveal boundary — the step's result is opened
    /// and becomes retrievable via [`PartyMeshRuntime::wait_opened`].
    pub fn enqueue(
        &mut self,
        op: &Operator,
        inputs: Vec<StepInput>,
        presorted: bool,
        reveal: bool,
    ) -> Result<u32, DriverError> {
        let step = self.next_step;
        self.next_step += 1;
        let parties = self.parties();
        for (w, worker) in self.workers.iter().enumerate() {
            let spec_inputs: Vec<WorkerInput> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| match input {
                    StepInput::Table(rel) => {
                        let owner = (i as u32) % parties;
                        WorkerInput::Share {
                            owner,
                            schema: rel.schema.clone(),
                            num_rows: rel.num_rows(),
                            data: (w as u32 == owner).then(|| rel.clone()),
                        }
                    }
                    StepInput::Resident(s) => WorkerInput::Resident(*s),
                })
                .collect();
            let spec = StepSpec {
                step,
                op: op.clone(),
                inputs: spec_inputs,
                presorted,
                reveal,
            };
            worker
                .work
                .send(WorkMsg::Step(Box::new(spec)))
                .map_err(|_| {
                    DriverError::Mpc(MpcError::Exec(format!("party worker {w} exited early")))
                })?;
        }
        Ok(step)
    }

    /// Blocks until every party has opened step `step`, cross-checks that
    /// all opened relations are identical, and returns the relation.
    pub fn wait_opened(&mut self, step: u32) -> Result<Relation, DriverError> {
        let outcome = self.collect_step(step)?;
        outcome.opened.clone().ok_or_else(|| {
            DriverError::Mpc(MpcError::Exec(format!(
                "step {step} was not enqueued as a reveal step"
            )))
        })
    }

    /// Prepares a long-lived mesh for its next query: in pooled-dealer mode,
    /// draws one fresh bundle from the pool (blocking if the refiller lags)
    /// and tops up every worker's session. A no-op under other dealer modes
    /// — their feeds are query-unbounded by construction.
    pub fn begin_query(&mut self) -> Result<(), DriverError> {
        let Some(pool) = self.pool.clone() else {
            return Ok(());
        };
        let mut bundle = pool.take();
        for (i, w) in self.workers.iter().enumerate() {
            let blocks = std::mem::take(&mut bundle[i]);
            w.work
                .send(WorkMsg::Refill(Box::new(blocks)))
                .map_err(|_| {
                    DriverError::Mpc(MpcError::Exec(format!("party worker {i} exited early")))
                })?;
        }
        Ok(())
    }

    /// Ends the current query **without** tearing down the mesh: flushes all
    /// in-flight opens, drains this query's step outcomes, drops the workers'
    /// resident relations, and returns a [`MeshSummary`] covering *only* the
    /// traffic since the previous `end_query` (so `mesh_builds` is 1 for the
    /// first query on a mesh and 0 for every later one). The workers, their
    /// sessions and the MAC key survive for the next query.
    pub fn end_query(&mut self) -> Result<MeshSummary, DriverError> {
        for (i, w) in self.workers.iter().enumerate() {
            w.work.send(WorkMsg::EndQuery).map_err(|_| {
                DriverError::Mpc(MpcError::Exec(format!("party worker {i} exited early")))
            })?;
        }
        for step in self.query_start..self.next_step {
            self.collect_step(step)?;
        }
        let mut mesh_stats = Vec::new();
        let mut dealer_net: Option<NetStats> = None;
        for w in 0..self.workers.len() {
            let (net, dealer) = self.take_query_end(w)?;
            mesh_stats.push(net.since(&self.net_base[w]));
            self.net_base[w] = net;
            if let Some(d) = dealer {
                let delta = d.since(&self.dealer_base[w]);
                self.dealer_base[w] = d;
                dealer_net
                    .get_or_insert_with(NetStats::default)
                    .merge(&remap_dealer_stats(w as u32, delta));
            }
        }
        let steps: Vec<StepOutcome> = (self.query_start..self.next_step)
            .filter_map(|s| self.completed.remove(&s))
            .collect();
        self.query_start = self.next_step;
        Ok(MeshSummary {
            steps,
            net: merge_mesh_stats(mesh_stats),
            dealer_net,
        })
    }

    /// Receives worker `w`'s [`WorkerReply::QueryEnd`] acknowledgement,
    /// buffering any step replies that are still in flight ahead of it.
    fn take_query_end(&mut self, w: usize) -> Result<(NetStats, Option<NetStats>), DriverError> {
        loop {
            match self.workers[w].replies.recv() {
                Ok(WorkerReply::QueryEnd { net, dealer }) => return Ok((net, dealer)),
                Ok(WorkerReply::Step(s, Ok(outcome))) => {
                    self.buffered[w].insert(s, outcome);
                }
                Ok(WorkerReply::Step(_, Err(e))) => return Err(party_to_driver_error(e)),
                Err(_) => {
                    return Err(DriverError::Mpc(MpcError::Exec(format!(
                        "party worker {w} exited before acknowledging query end"
                    ))))
                }
            }
        }
    }

    /// Flushes all in-flight opens, drains every outstanding step outcome,
    /// joins the workers, and returns the per-step outcomes together with
    /// the merged measured traffic (since the last
    /// [`PartyMeshRuntime::end_query`], if any was run).
    pub fn finish(mut self) -> Result<MeshSummary, DriverError> {
        for w in &self.workers {
            let _ = w.work.send(WorkMsg::Finish);
        }
        let mut first_err = None;
        for step in self.query_start..self.next_step {
            if let Err(e) = self.collect_step(step) {
                first_err = Some(e);
                break;
            }
        }
        // Join every worker even on error, so no thread outlives the query.
        let mut mesh_stats = Vec::new();
        let mut dealer_net: Option<NetStats> = None;
        for (i, w) in self.workers.iter_mut().enumerate() {
            if let Some(j) = w.join.take() {
                let (net, dealer) = j.join().expect("party worker panicked");
                // Baselines are empty unless `end_query` ran: a one-shot mesh
                // reports its full traffic, a long-lived one only the
                // residual since its last per-query summary.
                mesh_stats.push(net.since(&self.net_base[i]));
                if let Some(d) = dealer {
                    dealer_net
                        .get_or_insert_with(NetStats::default)
                        .merge(&remap_dealer_stats(i as u32, d.since(&self.dealer_base[i])));
                }
            }
        }
        // The workers dropped their link ends above, so the dealer servers
        // have observed the disconnect and returned.
        for (party, j) in self.dealer_servers.drain(..) {
            let (served, stats) = j.join().expect("dealer server panicked");
            if let Err(e) = served {
                if first_err.is_none() {
                    first_err = Some(party_to_driver_error(e));
                }
            }
            dealer_net
                .get_or_insert_with(NetStats::default)
                .merge(&remap_dealer_stats(party, stats));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(MeshSummary {
            steps: std::mem::take(&mut self.completed).into_values().collect(),
            net: merge_mesh_stats(mesh_stats),
            dealer_net,
        })
    }

    /// Ensures step `step`'s outcome has been received from every worker and
    /// cross-checked (opened relations and primitive counts must be
    /// identical on all parties).
    fn collect_step(&mut self, step: u32) -> Result<&StepOutcome, DriverError> {
        if !self.completed.contains_key(&step) {
            let mut agreed: Option<StepOutcome> = None;
            for w in 0..self.workers.len() {
                let outcome = self.take_reply(w, step)?;
                match &agreed {
                    None => agreed = Some(outcome),
                    Some(first) => {
                        if first.opened != outcome.opened
                            || first.counts != outcome.counts
                            || first.output_rows != outcome.output_rows
                        {
                            return Err(DriverError::Mpc(MpcError::Exec(
                                "parties opened divergent results from one MPC step".into(),
                            )));
                        }
                    }
                }
            }
            let outcome = agreed.expect("mesh has at least two parties");
            self.completed.insert(step, outcome);
        }
        Ok(&self.completed[&step])
    }

    /// Receives worker `w`'s reply for `step`, buffering replies for other
    /// steps (reveal-boundary outcomes are flushed lazily, so replies can
    /// arrive out of step order).
    fn take_reply(&mut self, w: usize, step: u32) -> Result<StepOutcome, DriverError> {
        if let Some(outcome) = self.buffered[w].remove(&step) {
            return Ok(outcome);
        }
        loop {
            let reply = self.workers[w].replies.recv().map_err(|_| {
                DriverError::Mpc(MpcError::Exec(format!(
                    "party worker {w} exited before reporting step {step}"
                )))
            })?;
            let (s, result) = match reply {
                WorkerReply::Step(s, result) => (s, result),
                WorkerReply::QueryEnd { .. } => {
                    return Err(DriverError::Mpc(MpcError::Exec(format!(
                        "party worker {w} ended the query before reporting step {step}"
                    ))))
                }
            };
            let outcome = result.map_err(party_to_driver_error)?;
            if s == step {
                return Ok(outcome);
            }
            self.buffered[w].insert(s, outcome);
        }
    }
}

impl Drop for PartyMeshRuntime {
    fn drop(&mut self) {
        // On early teardown (driver error paths): ask every worker to flush
        // and exit, then wait for it. All workers received identical work
        // queues, so their remaining collective steps stay aligned and
        // terminate; transport timeouts bound the wait if a peer died.
        for w in &self.workers {
            let _ = w.work.send(WorkMsg::Finish);
        }
        for w in &mut self.workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
        // Dealer servers exit once their party's worker (link owner) is gone.
        for (_, j) in self.dealer_servers.drain(..) {
            let _ = j.join();
        }
    }
}

/// Re-keys one party's 2-endpoint dealer-link stats (party = endpoint 0,
/// dealer = endpoint 1) into mesh-wide ids: the party's real id and
/// [`DEALER_ID`]. `mesh_builds` is dropped — the dedicated links are part of
/// the offline phase, not extra online mesh constructions.
fn remap_dealer_stats(party: u32, stats: NetStats) -> NetStats {
    let mut out = NetStats {
        rounds: stats.rounds,
        bytes_by_kind: stats.bytes_by_kind,
        ..NetStats::default()
    };
    for ((from, to), link) in stats.links {
        let f = if from == 1 { DEALER_ID } else { party };
        let t = if to == 1 { DEALER_ID } else { party };
        out.links.insert((f, t), link);
    }
    out
}

/// A reveal whose broadcast went out when the step executed, still waiting
/// for peer shares. Held on the worker until the work queue drains.
struct DeferredOpen {
    outcome: StepOutcome,
    pending: PendingOpen,
}

/// The per-party worker: one [`PartySession`] for the whole query, resident
/// shares between steps, deferred opens flushed when the queue runs dry.
/// Returns the online mesh stats plus, in streamed-dealer mode, this
/// endpoint's request traffic on its dedicated dealer link.
fn worker_main(
    net: Box<dyn Transport>,
    seed: u64,
    dealer: WorkerDealer,
    work: Receiver<WorkMsg>,
    replies: Sender<WorkerReply>,
) -> (NetStats, Option<NetStats>) {
    let source = match dealer {
        WorkerDealer::Seeded => Ok(DealerSource::Seeded),
        WorkerDealer::File(path) => {
            load_party_file(&path).map(|b| DealerSource::Preloaded(Box::new(b)))
        }
        WorkerDealer::Link(link) => Ok(DealerSource::Streamed { link, dealer: 1 }),
        WorkerDealer::Preloaded(blocks) => Ok(DealerSource::Preloaded(blocks)),
    };
    let mut sess = match source.and_then(|s| PartySession::with_dealer(&*net, seed, s)) {
        Ok(sess) => sess,
        Err(e) => {
            // The offline phase failed (unreadable file, dead dealer): fail
            // every queued step so the driver surfaces it, then exit.
            let msg = format!("offline phase failed: {e}");
            while let Ok(m) = work.recv() {
                match m {
                    WorkMsg::Finish => break,
                    WorkMsg::Step(spec) => {
                        let _ = replies.send(WorkerReply::Step(
                            spec.step,
                            Err(PartyError::Proto(msg.clone())),
                        ));
                    }
                    WorkMsg::EndQuery => {
                        let _ = replies.send(WorkerReply::QueryEnd {
                            net: net.stats(),
                            dealer: None,
                        });
                    }
                    WorkMsg::Refill(_) => {}
                }
            }
            return (net.stats(), None);
        }
    };
    let mut resident: HashMap<u32, PartyRelation> = HashMap::new();
    let mut deferred: Vec<DeferredOpen> = Vec::new();
    // A failed refill (wrong mesh, foreign MAC key) poisons the worker: the
    // material in the session is still sound, but the driver's expectation
    // ("this query was topped up") is not, so every subsequent step fails
    // with the stored reason until the mesh is torn down.
    let mut refill_err: Option<String> = None;
    loop {
        // Pipelining: only collect in-flight opens once no further step is
        // queued — the next step's protocol rounds take priority.
        let msg = match work.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                flush_opens(&mut sess, &mut deferred, &replies);
                match work.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match msg {
            WorkMsg::Finish => break,
            WorkMsg::EndQuery => {
                flush_opens(&mut sess, &mut deferred, &replies);
                resident.clear();
                let _ = replies.send(WorkerReply::QueryEnd {
                    net: net.stats(),
                    dealer: sess.dealer_stats(),
                });
            }
            WorkMsg::Refill(blocks) => {
                if let Err(e) = sess.refill(*blocks) {
                    refill_err = Some(format!("dealer refill failed: {e}"));
                }
            }
            WorkMsg::Step(spec) => {
                let step = spec.step;
                if let Some(msg) = &refill_err {
                    let _ =
                        replies.send(WorkerReply::Step(step, Err(PartyError::Proto(msg.clone()))));
                    continue;
                }
                let before = sess.counts();
                match run_step(&mut sess, &resident, &spec) {
                    Ok((input_rows, result, pending)) => {
                        let outcome = StepOutcome {
                            step,
                            input_rows,
                            output_rows: result.num_rows() as u64,
                            counts: sess.counts().since(&before),
                            opened: None,
                        };
                        resident.insert(step, result);
                        match pending {
                            Some(pending) => deferred.push(DeferredOpen { outcome, pending }),
                            None => {
                                let _ = replies.send(WorkerReply::Step(step, Ok(outcome)));
                            }
                        }
                    }
                    Err(e) => {
                        // Step failures are deterministic (validation happens
                        // before any communication), so every party fails the
                        // same step identically and the mesh stays aligned.
                        let _ = replies.send(WorkerReply::Step(step, Err(e)));
                    }
                }
            }
        }
    }
    flush_opens(&mut sess, &mut deferred, &replies);
    let dealer_net = sess.dealer_stats();
    (net.stats(), dealer_net)
}

/// Shares fresh inputs, resolves resident ones, executes the operator, and —
/// for reveal boundaries — *begins* the open (broadcast sent, peer shares
/// left in flight) under the same step context.
fn run_step(
    sess: &mut PartySession,
    resident: &HashMap<u32, PartyRelation>,
    spec: &StepSpec,
) -> Result<(u64, PartyRelation, Option<PendingOpen>), PartyError> {
    let mut proto = sess.step(spec.step);
    let mut input_rows = 0u64;
    let mut fresh: Vec<Option<PartyRelation>> = Vec::with_capacity(spec.inputs.len());
    for input in &spec.inputs {
        match input {
            WorkerInput::Share {
                owner,
                schema,
                num_rows,
                data,
            } => {
                input_rows += *num_rows as u64;
                fresh.push(Some(share_relation(
                    &mut proto,
                    *owner,
                    data.as_ref(),
                    schema,
                    *num_rows,
                )?));
            }
            WorkerInput::Resident(s) => {
                let rel = resident.get(s).ok_or_else(|| {
                    PartyError::Proto(format!(
                        "step {} references step {s}, which is not resident",
                        spec.step
                    ))
                })?;
                input_rows += rel.num_rows() as u64;
                fresh.push(None);
            }
        }
    }
    let refs: Vec<&PartyRelation> = spec
        .inputs
        .iter()
        .zip(&fresh)
        .map(|(input, f)| match input {
            WorkerInput::Resident(s) => &resident[s],
            WorkerInput::Share { .. } => f.as_ref().expect("shared above"),
        })
        .collect();
    let result = execute_party_op(&mut proto, &spec.op, &refs, spec.presorted)?;
    let pending = spec
        .reveal
        .then(|| begin_open_relation(&mut proto, &result))
        .transpose()?;
    Ok((input_rows, result, pending))
}

/// Collects every deferred open (FIFO — all parties flush in enqueue order,
/// keeping receives aligned), runs the deferred SPDZ MAC check over
/// everything opened since the last check, and reports the completed
/// outcomes. Every reveal boundary passes through
/// [`PartySession::check_integrity`] — a tampered or mis-MAC'd open turns
/// into [`PartyError::Integrity`] here instead of leaking a wrong value.
fn flush_opens(
    sess: &mut PartySession,
    deferred: &mut Vec<DeferredOpen>,
    replies: &Sender<WorkerReply>,
) {
    for d in deferred.drain(..) {
        let step = d.outcome.step;
        let before = sess.counts();
        let reply = match finish_open_relation(sess, d.pending)
            .and_then(|rel| sess.check_integrity().map(|()| rel))
        {
            Ok(rel) => {
                let mut outcome = d.outcome;
                outcome.opened = Some(rel);
                // The collected open and its MAC check run outside the step
                // context; fold their counts into the revealing step so the
                // cross-party counts-equality check still covers them.
                outcome.counts.merge(&sess.counts().since(&before));
                Ok(outcome)
            }
            Err(e) => Err(e),
        };
        let _ = replies.send(WorkerReply::Step(step, reply));
    }
}

/// Outcome of one distributed MPC step: the opened result, the primitive
/// counts every party tallied, and the merged *measured* traffic.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The opened (revealed) result relation.
    pub relation: Relation,
    /// Primitive counts of the step (identical on every party).
    pub counts: PrimitiveCounts,
    /// Observed per-link bytes/messages and synchronous rounds.
    pub net: NetStats,
}

/// Executes one relational operator as a real multi-party protocol — a
/// single-step convenience wrapper over [`PartyMeshRuntime`] (the driver
/// feeds whole plans through one runtime instead).
///
/// `parties` is the computing-party count of the configured backend, `seed`
/// drives the mesh's common randomness, and `presorted_aggregate` mirrors
/// the driver's §5.4 sort-elimination shortcut.
pub fn execute_op_distributed(
    op: &Operator,
    inputs: &[&Table],
    parties: u32,
    seed: u64,
    runtime: PartyRuntime,
    presorted_aggregate: bool,
) -> Result<DistributedOutcome, DriverError> {
    let mut rt = PartyMeshRuntime::new(parties, seed, runtime)?;
    let step_inputs: Vec<StepInput> = inputs
        .iter()
        .map(|t| StepInput::Table(t.as_rows().clone()))
        .collect();
    let step = rt.enqueue(op, step_inputs, presorted_aggregate, true)?;
    let relation = rt.wait_opened(step)?;
    let summary = rt.finish()?;
    let counts = summary.steps[0].counts;
    Ok(DistributedOutcome {
        relation,
        counts,
        net: summary.net,
    })
}

fn party_to_driver_error(e: PartyError) -> DriverError {
    match e {
        PartyError::Net(t) => DriverError::Transport(t),
        PartyError::Proto(s) => DriverError::Mpc(MpcError::Exec(s)),
        PartyError::Unsupported(s) => DriverError::Mpc(MpcError::Unsupported(s)),
        PartyError::Integrity(s) => {
            DriverError::Mpc(MpcError::Exec(format!("integrity violation: {s}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, Operand};
    use conclave_ir::types::Value;
    use conclave_mpc::backend::{MpcBackendConfig, MpcEngine};

    fn sales_table() -> Table {
        Table::from_rows(Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        ))
    }

    #[test]
    fn channel_step_matches_the_cleartext_oracle() {
        let table = sales_table();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let expected = execute(&op, &[table.as_rows()]).unwrap();
        let outcome =
            execute_op_distributed(&op, &[&table], 3, 42, PartyRuntime::Channel, false).unwrap();
        assert!(outcome.relation.same_rows_unordered(&expected));
        assert!(outcome.net.total_bytes() > 0, "bytes must be measured");
        assert!(outcome.net.rounds > 0, "rounds must be measured");
        assert_eq!(outcome.net.mesh_builds, 1);
        assert!(outcome.counts.nonlinear_ops() > 0);
    }

    #[test]
    fn tcp_step_matches_the_channel_step() {
        let table = sales_table();
        let op = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let chan =
            execute_op_distributed(&op, &[&table], 3, 7, PartyRuntime::Channel, false).unwrap();
        let tcp = execute_op_distributed(&op, &[&table], 3, 7, PartyRuntime::Tcp, false).unwrap();
        assert_eq!(chan.relation.rows, tcp.relation.rows);
        // Equal payload flow, different framing is allowed; both measured.
        assert!(tcp.net.total_bytes() > 0);
        assert_eq!(chan.net.rounds, tcp.net.rounds);
    }

    #[test]
    fn comparison_steps_report_circuit_gate_counts() {
        let table = sales_table();
        let op = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let outcome =
            execute_op_distributed(&op, &[&table], 3, 7, PartyRuntime::Channel, false).unwrap();
        // Sorting drives bit-decomposed less-than circuits: the step's counts
        // must carry the measured AND gates and gate-level rounds, not just
        // the flat comparison tally. (Cross-party equality of these counts is
        // enforced by `collect_step` for every run, this test included.)
        assert!(outcome.counts.comparisons > 0);
        assert!(
            outcome.counts.bit_ands > 0,
            "circuit comparisons must tally binary AND gates"
        );
        assert!(
            outcome.counts.circuit_rounds > 0,
            "circuit comparisons must tally gate-level rounds"
        );
    }

    #[test]
    fn simulated_mode_is_rejected_here() {
        let table = sales_table();
        let op = Operator::Shuffle;
        assert!(matches!(
            execute_op_distributed(&op, &[&table], 3, 1, PartyRuntime::Simulated, false),
            Err(DriverError::Mpc(MpcError::Exec(_)))
        ));
    }

    #[test]
    fn unsupported_operators_surface_as_mpc_unsupported() {
        let table = sales_table();
        let op = Operator::Divide {
            out: "x".into(),
            num: conclave_ir::ops::Operand::col("price"),
            den: conclave_ir::ops::Operand::lit(2),
        };
        assert!(matches!(
            execute_op_distributed(&op, &[&table], 3, 1, PartyRuntime::Channel, false),
            Err(DriverError::Mpc(MpcError::Unsupported(_)))
        ));
    }

    /// The simulated path ([`MpcEngine::execute_op`], which the driver's
    /// simulated mode runs through the same check) and the channel mesh
    /// reject the same operators, with the same typed `Unsupported` error.
    #[test]
    fn simulated_and_mesh_modes_reject_the_same_operators() {
        let table = sales_table();
        let rejected = [
            Operator::Filter {
                predicate: Expr::col("price").add(Expr::lit(1)),
            },
            Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(Value::Float(1.5))),
            },
            Operator::Multiply {
                out: "x".into(),
                operands: vec![Operand::col("price"), Operand::lit(Value::Str("a".into()))],
            },
            Operator::Aggregate {
                group_by: vec!["companyID".into(), "price".into()],
                func: AggFunc::Count,
                over: None,
                out: "n".into(),
            },
            Operator::Divide {
                out: "x".into(),
                num: Operand::col("price"),
                den: Operand::lit(2),
            },
        ];
        let simulated = MpcEngine::new(MpcBackendConfig::sharemind());
        for op in &rejected {
            assert!(
                matches!(
                    simulated.execute_op(op, &[table.as_rows()]),
                    Err(MpcError::Unsupported(_))
                ),
                "simulated mode accepted {op:?}"
            );
            assert!(
                matches!(
                    execute_op_distributed(op, &[&table], 3, 1, PartyRuntime::Channel, false),
                    Err(DriverError::Mpc(MpcError::Unsupported(_)))
                ),
                "channel mode accepted {op:?}"
            );
        }
    }

    fn run_with_dealer(dealer: &DealerMode) -> (Relation, MeshSummary) {
        let table = sales_table();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let mut rt = PartyMeshRuntime::with_dealer(3, 42, PartyRuntime::Channel, dealer).unwrap();
        let step = rt
            .enqueue(
                &op,
                vec![StepInput::Table(table.as_rows().clone())],
                false,
                true,
            )
            .unwrap();
        let opened = rt.wait_opened(step).unwrap();
        let summary = rt.finish().unwrap();
        (opened, summary)
    }

    #[test]
    fn dealer_file_mode_matches_the_seeded_runtime() {
        let dir = std::env::temp_dir().join(format!(
            "conclave-dealer-files-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        conclave_mpc::dealer::write_party_files(&dir, 42, 3, Default::default()).unwrap();
        let (seeded, seeded_summary) = run_with_dealer(&DealerMode::Seeded);
        let (filed, filed_summary) = run_with_dealer(&DealerMode::File(dir.clone()));
        std::fs::remove_dir_all(&dir).ok();
        // Same result set (row order may differ: the seeded mode's α draw
        // shifts the common stream, so shuffle permutations differ).
        assert!(seeded.same_rows_unordered(&filed), "got\n{filed}");
        // Pregenerated files involve no dedicated links and no extra mesh.
        assert!(filed_summary.dealer_net.is_none());
        assert_eq!(filed_summary.net.mesh_builds, 1);
        // Both modes check the reveal: the MAC check is part of the step.
        for s in [&seeded_summary, &filed_summary] {
            assert!(
                s.steps[0].counts.mac_checks >= 1,
                "reveal boundary must run the deferred MAC check"
            );
        }
    }

    #[test]
    fn streamed_dealer_attributes_offline_traffic_separately() {
        let (seeded, _) = run_with_dealer(&DealerMode::Seeded);
        let (streamed, summary) = run_with_dealer(&DealerMode::Streamed);
        assert!(seeded.same_rows_unordered(&streamed), "got\n{streamed}");
        assert_eq!(summary.net.mesh_builds, 1, "dealer links are not a mesh");
        let dealer = summary.dealer_net.expect("streamed mode measures links");
        assert!(dealer.total_bytes() > 0, "offline blocks crossed the links");
        assert!(
            dealer
                .links
                .keys()
                .any(|&(f, t)| f == DEALER_ID || t == DEALER_ID),
            "dealer traffic is keyed by the dealer sentinel: {:?}",
            dealer.links.keys().collect::<Vec<_>>()
        );
        // Offline traffic never leaks into the online accounting.
        assert!(summary
            .net
            .links
            .keys()
            .all(|&(f, t)| f != DEALER_ID && t != DEALER_ID));
    }

    #[test]
    fn missing_dealer_files_surface_as_errors() {
        let dir = std::env::temp_dir().join("conclave-no-such-dealer-dir");
        let table = sales_table();
        let op = Operator::Shuffle;
        let mut rt =
            PartyMeshRuntime::with_dealer(3, 42, PartyRuntime::Channel, &DealerMode::File(dir))
                .unwrap();
        let step = rt
            .enqueue(
                &op,
                vec![StepInput::Table(table.as_rows().clone())],
                false,
                true,
            )
            .unwrap();
        let err = rt.wait_opened(step).unwrap_err();
        assert!(
            format!("{err:?}").contains("offline phase failed"),
            "got {err:?}"
        );
    }

    #[test]
    fn pooled_mesh_runs_many_queries_on_one_build() {
        use conclave_mpc::dealer::MaterialSpec;
        let table = sales_table();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let expected = execute(&op, &[table.as_rows()]).unwrap();
        let spec = MaterialSpec {
            triples: 256,
            bit_triples: 512,
            shared_bits: 256,
            dabits: 64,
            input_masks: 64,
        };
        let pool = MaterialPool::start(42, 3, spec, 2);
        let mut rt = PartyMeshRuntime::with_dealer(
            3,
            42,
            PartyRuntime::Channel,
            &DealerMode::Pooled(pool.clone()),
        )
        .unwrap();
        let mut mesh_builds = 0;
        for q in 0..3 {
            if q > 0 {
                // Later queries top the long-lived sessions up with a fresh
                // bundle (same MAC key) instead of rebuilding anything.
                rt.begin_query().unwrap();
            }
            let step = rt
                .enqueue(
                    &op,
                    vec![StepInput::Table(table.as_rows().clone())],
                    false,
                    true,
                )
                .unwrap();
            let opened = rt.wait_opened(step).unwrap();
            assert!(
                opened.same_rows_unordered(&expected),
                "query {q}:\n{opened}"
            );
            let summary = rt.end_query().unwrap();
            assert_eq!(summary.steps.len(), 1, "per-query outcomes only");
            assert!(summary.net.total_bytes() > 0, "each query is attributed");
            mesh_builds += summary.net.mesh_builds;
        }
        assert_eq!(mesh_builds, 1, "one mesh for all queries, not one each");
        drop(rt);
        assert!(pool.stats().taken >= 3, "one bundle per query");
    }

    #[test]
    fn resident_relations_pipeline_across_steps_on_one_mesh() {
        let table = sales_table();
        let filter_op = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let agg_op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        // Oracle: the same two steps in the clear.
        let sorted = execute(&filter_op, &[table.as_rows()]).unwrap();
        let expected = execute(&agg_op, &[&sorted]).unwrap();

        let mut rt = PartyMeshRuntime::new(3, 11, PartyRuntime::Channel).unwrap();
        let s0 = rt
            .enqueue(
                &filter_op,
                vec![StepInput::Table(table.as_rows().clone())],
                false,
                false,
            )
            .unwrap();
        let s1 = rt
            .enqueue(&agg_op, vec![StepInput::Resident(s0)], false, true)
            .unwrap();
        let opened = rt.wait_opened(s1).unwrap();
        assert!(opened.same_rows_unordered(&expected), "got\n{opened}");
        let summary = rt.finish().unwrap();
        assert_eq!(summary.net.mesh_builds, 1, "one mesh for the whole query");
        assert_eq!(summary.steps.len(), 2);
        assert!(summary.steps[0].opened.is_none(), "no open between steps");
        // The intermediate stayed resident: step 0's result was never opened
        // (sorting opens nothing), so every opened element belongs to the
        // reveal boundary.
        assert_eq!(summary.steps[0].counts.opened_elems, 0);
        assert!(summary.steps[1].opened.is_some());
    }
}
