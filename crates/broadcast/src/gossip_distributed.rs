//! Gossiping as a real V-CONGEST protocol.
//!
//! [`crate::gossip`] simulates the Appendix-A schedule centrally; this
//! module runs the same dissemination as actual message passing on the
//! simulator — each node broadcasts at most one `(message, tree)` token
//! per round, tree members relay tokens of their tree, and every node
//! collects everything it hears. The two implementations must agree on
//! completeness, and their round counts must stay within a small factor
//! (the central scheduler picks relays greedily; the protocol relays
//! FIFO), which the tests check.
//!
//! Tokens carry the tree chosen at the origin; under
//! [`TreeChoice::Weighted`] that choice comes from the shared
//! weight-proportional sampler ([`decomp_core::packing::TreeSampler`]),
//! so the protocol follows the same fractional-regime assignment as the
//! schedule-level simulation.
//!
//! Under [`Regime::Rlnc`] the protocol forwards no tree tokens at all:
//! each node runs one [`RlncDecoder`] per generation and broadcasts
//! seeded-random GF(2⁸) combinations of its received rows — coefficients
//! packed into the V-CONGEST word budget, payloads the known
//! [`symbol_word`] of each message so completion is checked by actually
//! decoding. Coefficient draws come from the simulator's per-node RNG
//! streams (the model's private coins), which is what makes the run
//! bit-identical across engines.

use crate::gossip::{BitRows, GossipConfig, Regime, TreeChoice};
use crate::rlnc::{symbol_word, RlncDecoder};
use decomp_congest::{
    EngineKind, Fault, FaultPlan, Inbox, Message, Model, NodeCtx, NodeProgram, RunStats,
    ScheduledFault, SimError, Simulator,
};
use decomp_core::packing::DomTreePacking;
use decomp_graph::{Graph, GrowableGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

struct GossipProgram {
    /// Sorted tree ids this node belongs to.
    trees: Vec<u32>,
    /// Tokens to relay, FIFO: (msg id, tree id).
    queue: VecDeque<(u64, u64)>,
    /// Message ids already queued/relayed here (keyed on the message
    /// alone — a message rides exactly one tree, chosen at its origin,
    /// so one relay per node covers it). Origins enter at injection
    /// time: an origin inside its own tree must not re-queue its
    /// message when the broadcast echoes back via a neighbor. One row
    /// of message-id bits, as is `received`.
    seen: BitRows,
    /// All message ids received.
    received: BitRows,
    /// Number of ids in `received`.
    held: usize,
    /// Initial injections for messages originating here.
    inject: VecDeque<(u64, u64)>,
    /// Deliveries of messages this node already held
    /// ([`RunStats::wasted_bandwidth`]).
    wasted: usize,
}

impl GossipProgram {
    /// A node of the sorted `trees` that first broadcasts its `inject`
    /// tokens, over message ids `0..nmsg`.
    fn new(trees: Vec<u32>, inject: VecDeque<(u64, u64)>, nmsg: usize) -> Self {
        let mut seen = BitRows::new(1, nmsg);
        for &(m, _) in &inject {
            seen.set(0, m as usize);
        }
        GossipProgram {
            trees,
            queue: VecDeque::new(),
            seen,
            received: BitRows::new(1, nmsg),
            held: 0,
            inject,
            wasted: 0,
        }
    }

    /// One program per node: `membership[v]` and `injections[v]`.
    fn per_node(
        membership: &[Vec<u32>],
        injections: Vec<VecDeque<(u64, u64)>>,
        nmsg: usize,
    ) -> Vec<Self> {
        membership
            .iter()
            .zip(injections)
            .map(|(trees, inject)| GossipProgram::new(trees.clone(), inject, nmsg))
            .collect()
    }

    /// Records `msg` as received; returns whether it is new here.
    fn receive(&mut self, msg: u64) -> bool {
        if self.received.get(0, msg as usize) {
            return false;
        }
        self.received.set(0, msg as usize);
        self.held += 1;
        true
    }

    fn accept(&mut self, msg: u64, tree: u64) {
        if !self.receive(msg) {
            self.wasted += 1;
        }
        if self.trees.binary_search(&(tree as u32)).is_ok() && !self.seen.get(0, msg as usize) {
            self.seen.set(0, msg as usize);
            self.queue.push_back((msg, tree));
        }
    }
}

impl NodeProgram for GossipProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (_, m) in inbox {
            self.accept(m.word(0), m.word(1));
        }
        if let Some((msg, tree)) = self.inject.pop_front() {
            self.receive(msg);
            ctx.broadcast(Message::from_words([msg, tree]));
            return;
        }
        if let Some((msg, tree)) = self.queue.pop_front() {
            ctx.broadcast(Message::from_words([msg, tree]));
        }
    }

    fn is_done(&self) -> bool {
        self.queue.is_empty() && self.inject.is_empty()
    }
}

/// Payload bytes each coded packet carries (one simulator word).
const RLNC_PAYLOAD: usize = 8;

/// Per-node program of the network-coded regime: one [`RlncDecoder`]
/// per generation; every round the node broadcasts a random combination
/// of one generation's received rows, drawn from the simulator's
/// per-node RNG stream.
///
/// Quiescence: a node keeps relaying a generation until every neighbor
/// has *announced* completion (broadcast it at full rank — any full-rank
/// send doubles as the announcement, and a freshly complete node
/// prioritizes announcing each generation once over random relaying).
/// `is_done` holds when every generation is complete, announced, and
/// announced-by-every-neighbor, so the run quiesces exactly when no
/// packet could still teach anyone anything.
struct RlncGossipProgram {
    /// Per-generation sizes (the last generation may be short).
    sizes: Vec<usize>,
    degree: usize,
    decoders: Vec<RlncDecoder>,
    /// Per generation: sorted neighbors that have broadcast it at full
    /// rank.
    nbr_complete: Vec<Vec<NodeId>>,
    /// Per generation: whether this node has broadcast it at full rank.
    announced: Vec<bool>,
    /// Non-innovative receptions ([`RunStats::wasted_bandwidth`]).
    wasted: usize,
    /// Per-round scratch: a received packet, an outgoing combination,
    /// its wire words, and the generations worth relaying.
    pkt: Vec<u8>,
    out: Vec<u8>,
    words: Vec<u64>,
    sendable: Vec<usize>,
}

impl RlncGossipProgram {
    fn new(sizes: &[usize], degree: usize) -> Self {
        RlncGossipProgram {
            sizes: sizes.to_vec(),
            degree,
            decoders: sizes
                .iter()
                .map(|&s| RlncDecoder::new(s, RLNC_PAYLOAD))
                .collect(),
            nbr_complete: vec![Vec::new(); sizes.len()],
            announced: vec![false; sizes.len()],
            wasted: 0,
            pkt: Vec::new(),
            out: Vec::new(),
            words: Vec::new(),
            sendable: Vec::new(),
        }
    }
}

impl NodeProgram for RlncGossipProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (from, m) in inbox {
            // Wire format: word 0 = generation | sender rank << 32, then
            // ⌈size/8⌉ words of LE-packed coefficient bytes, then the
            // payload word.
            let w0 = m.word(0);
            let gen = (w0 & 0xffff_ffff) as usize;
            let sender_rank = (w0 >> 32) as usize;
            let size = self.sizes[gen];
            if sender_rank == size {
                let done = &mut self.nbr_complete[gen];
                if let Err(pos) = done.binary_search(&from) {
                    done.insert(pos, from);
                }
            }
            let pkt = &mut self.pkt;
            pkt.clear();
            pkt.resize(size + RLNC_PAYLOAD, 0);
            for (i, b) in pkt[..size].iter_mut().enumerate() {
                *b = (m.word(1 + i / 8) >> (8 * (i % 8))) as u8;
            }
            pkt[size..].copy_from_slice(&m.word(1 + size.div_ceil(8)).to_le_bytes());
            if !self.decoders[gen].receive(pkt) {
                self.wasted += 1;
            }
        }
        // Send: first announce any freshly completed generation (lowest
        // index first), else relay a random generation some neighbor
        // still needs.
        let mut gen =
            (0..self.sizes.len()).find(|&g| self.decoders[g].is_complete() && !self.announced[g]);
        if gen.is_none() {
            self.sendable.clear();
            self.sendable.extend((0..self.sizes.len()).filter(|&g| {
                self.decoders[g].rank() > 0 && self.nbr_complete[g].len() < self.degree
            }));
            if !self.sendable.is_empty() {
                gen = Some(self.sendable[ctx.rng().gen_range(0..self.sendable.len())]);
            }
        }
        let Some(gen) = gen else { return };
        let size = self.sizes[gen];
        let out = &mut self.out;
        out.clear();
        out.resize(size + RLNC_PAYLOAD, 0);
        self.decoders[gen].combine(ctx.rng(), out);
        let rank = self.decoders[gen].rank();
        if rank == size {
            self.announced[gen] = true;
        }
        let words = &mut self.words;
        words.clear();
        words.push(gen as u64 | ((rank as u64) << 32));
        for chunk in out[..size].chunks(8) {
            let mut w = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * j);
            }
            words.push(w);
        }
        words.push(u64::from_le_bytes(out[size..].try_into().expect("8 bytes")));
        ctx.broadcast(Message::from_words(words.iter().copied()));
    }

    fn is_done(&self) -> bool {
        (0..self.sizes.len()).all(|g| {
            self.decoders[g].is_complete()
                && self.announced[g]
                && self.nbr_complete[g].len() == self.degree
        })
    }
}

/// Result of the message-passing gossip run.
#[derive(Clone, Debug)]
pub struct DistGossipReport {
    /// Whether every node received every message.
    pub complete: bool,
    /// Tokens assigned to each tree (mirrors
    /// [`crate::gossip::GossipReport::per_tree_load`]).
    pub per_tree_load: Vec<usize>,
    /// Full simulator statistics for the run — rounds, messages, words,
    /// and the peak-memory counters (`peak_queued_messages` /
    /// `peak_arena_words`).
    pub stats: RunStats,
}

/// Runs the Appendix-A gossip as a V-CONGEST protocol on a fresh simulator
/// over `g`: message `i` starts at `origins[i]`, gets a uniformly random
/// tree of `packing`, and is relayed FIFO by that tree's members.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if the packing is empty or `g` is disconnected.
pub fn gossip_protocol(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
) -> Result<DistGossipReport, SimError> {
    gossip_protocol_with(g, packing, origins, seed, GossipConfig::default())
}

/// [`gossip_protocol`] with an explicit [`GossipConfig`]: under
/// [`TreeChoice::Weighted`] the protocol tokens carry trees drawn by the
/// shared weight-proportional sampler
/// ([`decomp_core::packing::TreeSampler`]) instead of uniformly. The
/// sharing policy does not apply here — relaying is the protocol's FIFO.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if the packing is empty (or carries no weight under
/// [`TreeChoice::Weighted`]) or `g` is disconnected.
pub fn gossip_protocol_with(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
) -> Result<DistGossipReport, SimError> {
    let mut sim = Simulator::with_seed(g, Model::VCongest, seed);
    gossip_protocol_on(&mut sim, packing, origins, seed, config)
}

/// Runs the protocol on a caller-supplied simulator (engine included —
/// the regression suites sweep `DECOMP_ENGINE` through here). `seed`
/// drives the message-to-tree assignment only; per-node RNG streams come
/// from the simulator itself.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if the packing is empty (or carries no weight under
/// [`TreeChoice::Weighted`]), the simulator graph is disconnected, or
/// the simulator is not in [`Model::VCongest`].
pub fn gossip_protocol_on(
    sim: &mut Simulator<'_>,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
) -> Result<DistGossipReport, SimError> {
    let g = sim.graph();
    assert_eq!(
        sim.model(),
        Model::VCongest,
        "gossip is a V-CONGEST protocol"
    );
    assert!(packing.num_trees() > 0, "need at least one tree");
    assert!(
        decomp_graph::traversal::is_connected(g),
        "gossip requires a connected graph"
    );
    if let Regime::Rlnc {
        generation_size, ..
    } = config.regime
    {
        return rlnc_protocol_on(sim, packing, origins, generation_size);
    }
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(seed);
    // membership[v] = sorted tree ids containing v
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tree) in packing.trees.iter().enumerate() {
        for v in tree.vertices(n) {
            membership[v].push(t as u32);
        }
    }
    let mut injections: Vec<VecDeque<(u64, u64)>> = vec![Default::default(); n];
    let sampler = match config.tree_choice {
        TreeChoice::Uniform => None,
        TreeChoice::Weighted => Some(packing.sampler()),
    };
    let mut per_tree_load = vec![0usize; packing.num_trees()];
    for (i, &origin) in origins.iter().enumerate() {
        let tree = match &sampler {
            None => rng.gen_range(0..packing.num_trees()) as u64,
            Some(s) => s.sample(&mut rng) as u64,
        };
        per_tree_load[tree as usize] += 1;
        injections[origin].push_back((i as u64, tree));
    }
    let programs = GossipProgram::per_node(&membership, injections, origins.len());
    let (programs, mut stats) = sim.run(programs, 64 * (n + origins.len()) + 4096)?;
    stats.wasted_bandwidth = programs.iter().map(|p| p.wasted).sum();
    let complete = programs.iter().all(|p| p.held == origins.len());
    Ok(DistGossipReport {
        complete,
        per_tree_load,
        stats,
    })
}

/// The [`Regime::Rlnc`] body of [`gossip_protocol_on`]: one
/// [`RlncGossipProgram`] per node over generations of `gsize` messages.
/// Tree assignment is skipped entirely (coded packets ride no tree, so
/// `per_tree_load` is all zeros) and the regime's coefficient seed is
/// unused here — at the protocol layer the coefficient draws are the
/// nodes' private coins, i.e. the simulator's per-node RNG streams,
/// which is what keeps the run bit-identical across engines. Completion
/// is verified by *decoding*: every generation at every node must
/// reconstruct the known [`symbol_word`] payloads, not merely reach
/// full rank.
fn rlnc_protocol_on(
    sim: &mut Simulator<'_>,
    packing: &DomTreePacking,
    origins: &[NodeId],
    gsize: usize,
) -> Result<DistGossipReport, SimError> {
    let g = sim.graph();
    let n = g.n();
    let nmsg = origins.len();
    assert!(
        (1..=crate::rlnc::MAX_GENERATION).contains(&gsize),
        "generation_size must be in 1..={}",
        crate::rlnc::MAX_GENERATION
    );
    // Header word + packed coefficient bytes + payload word must fit
    // one V-CONGEST message.
    assert!(
        2 + gsize.div_ceil(8) <= decomp_congest::sim::DEFAULT_WORD_BUDGET,
        "generation_size {gsize} overflows the V-CONGEST word budget (max {})",
        8 * (decomp_congest::sim::DEFAULT_WORD_BUDGET - 2)
    );
    let gens = nmsg.div_ceil(gsize);
    let sizes: Vec<usize> = (0..gens).map(|gen| gsize.min(nmsg - gen * gsize)).collect();
    let mut programs: Vec<RlncGossipProgram> = (0..n)
        .map(|v| RlncGossipProgram::new(&sizes, g.neighbors(v).len()))
        .collect();
    // Origins hold their symbols as unit coefficient vectors.
    for (m, &origin) in origins.iter().enumerate() {
        let seeded = programs[origin].decoders[m / gsize]
            .receive_symbol(m % gsize, &symbol_word(m).to_le_bytes());
        debug_assert!(seeded, "distinct unit seeds are always innovative");
    }
    let (programs, mut stats) = sim.run(programs, 64 * (n + nmsg) + 4096)?;
    stats.wasted_bandwidth = programs.iter().map(|p| p.wasted).sum();
    let complete = programs.iter().all(|p| {
        (0..gens).all(|gen| match p.decoders[gen].decode() {
            None => false,
            Some(payloads) => payloads
                .iter()
                .enumerate()
                .all(|(i, payload)| payload[..] == symbol_word(gen * gsize + i).to_le_bytes()),
        })
    });
    Ok(DistGossipReport {
        complete,
        per_tree_load: vec![0; packing.num_trees()],
        stats,
    })
}

/// Result of a fault-injected protocol run ([`gossip_protocol_faulty`]).
#[derive(Clone, Debug)]
pub struct FaultyDistGossipReport {
    /// Whether every *surviving* node received every message that was
    /// not lost outright.
    pub complete: bool,
    /// Messages whose every copy sat on a dead node when the faulted
    /// phase quiesced (possible only when an origin dies before its
    /// first broadcast, or when faults exceed the packing's
    /// connectivity).
    pub lost_messages: usize,
    /// Messages the repair phase re-injected on a surviving tree (or as
    /// a flood when no tree could carry them).
    pub reinjected: usize,
    /// Tokens assigned to each tree at the origin.
    pub per_tree_load: Vec<usize>,
    /// Cumulative statistics: the faulted run plus the repair run.
    pub stats: RunStats,
}

/// Sentinel token tree id: a flood token, relayed by every surviving
/// node instead of one tree's members.
const FLOOD_TOKEN: u32 = u32::MAX;

/// [`gossip_protocol_with`] under a seeded [`FaultPlan`], in two phases:
/// the protocol first runs on a faulted simulator (dead nodes fall
/// silent mid-round, in-flight messages drop — the engine-level
/// semantics of `decomp_congest::fault`), then any message a surviving
/// node is still missing is re-injected from a live holder on the
/// lowest-id tree that is intact on the survivors — or as a flood token
/// every survivor relays — on a second, fault-quiesced simulator run.
/// Statistics are cumulative across both phases.
///
/// With `f < k` faults against a `k`-connected packing and fault rounds
/// late enough for each origin's first broadcast (round ≥ 2), no
/// message is lost and `complete` holds on every fixture family — the
/// protocol-level counterpart of
/// [`crate::gossip::gossip_via_trees_faulty`].
///
/// # Errors
/// Propagates simulator round-limit errors from either phase.
///
/// # Panics
/// Panics if the packing is empty (or carries no weight under
/// [`TreeChoice::Weighted`]) or `g` is disconnected.
pub fn gossip_protocol_faulty(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<FaultyDistGossipReport, SimError> {
    assert!(packing.num_trees() > 0, "need at least one tree");
    assert!(
        decomp_graph::traversal::is_connected(g),
        "gossip requires a connected graph"
    );
    // The repair phase reasons about surviving *trees*; coded gossip has
    // no tree-bound repair story at the protocol layer — the
    // schedule-level `gossip_via_trees_faulty` covers RLNC under faults.
    assert_eq!(
        config.regime,
        Regime::Trees,
        "gossip_protocol_faulty supports the tree regimes only"
    );
    let n = g.n();
    let nmsg = origins.len();
    let num_trees = packing.num_trees();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tree) in packing.trees.iter().enumerate() {
        for v in tree.vertices(n) {
            membership[v].push(t as u32);
        }
    }
    let sampler = match config.tree_choice {
        TreeChoice::Uniform => None,
        TreeChoice::Weighted => Some(packing.sampler()),
    };
    let mut per_tree_load = vec![0usize; num_trees];
    let mut tree_of: Vec<u64> = Vec::with_capacity(nmsg);
    let mut injections: Vec<VecDeque<(u64, u64)>> = vec![Default::default(); n];
    for (i, &origin) in origins.iter().enumerate() {
        let tree = match &sampler {
            None => rng.gen_range(0..num_trees) as u64,
            Some(s) => s.sample(&mut rng) as u64,
        };
        per_tree_load[tree as usize] += 1;
        tree_of.push(tree);
        injections[origin].push_back((i as u64, tree));
    }
    let cap = 64 * (n + nmsg) + 4096;

    // Phase 1: the protocol under fire.
    let mut sim = Simulator::with_seed(g, Model::VCongest, seed)
        .with_engine(engine)
        .with_faults(plan.clone());
    let (phase1, mut stats) =
        sim.run(GossipProgram::per_node(&membership, injections, nmsg), cap)?;
    stats.wasted_bandwidth = phase1.iter().map(|p| p.wasted).sum();

    // The survivors' view once every fault has fired.
    let dead_list = plan.dead_vertices_after(usize::MAX);
    let mut dead = vec![false; n];
    for &v in &dead_list {
        dead[v] = true;
    }
    // Arrivals have all fired by `usize::MAX`, so the survivors' view
    // only needs the cuts (an activated edge is just a live edge).
    let mut cut: Vec<(usize, usize)> = plan
        .events()
        .iter()
        .filter_map(|e| match e.fault {
            Fault::Edge(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    cut.sort_unstable();
    let edge_ok = |u: usize, v: usize| {
        !dead[u] && !dead[v] && cut.binary_search(&(u.min(v), u.max(v))).is_err()
    };
    let is_member = |t: usize, v: usize| membership[v].binary_search(&(t as u32)).is_ok();
    // A tree is intact on the survivors iff its members are all alive,
    // its edges all uncut, and every survivor is still dominated
    // through a live edge.
    let tree_intact = |t: usize| {
        packing.trees[t].edges.iter().all(|&(u, v)| edge_ok(u, v))
            && packing.trees[t].singleton.is_none_or(|s| !dead[s])
            && (0..n).filter(|&v| !dead[v] && !is_member(t, v)).all(|v| {
                g.neighbors(v)
                    .iter()
                    .any(|&u| is_member(t, u) && edge_ok(v, u))
            })
    };
    let intact: Vec<bool> = (0..num_trees).map(&tree_intact).collect();

    // Repair: re-inject every message some survivor is still missing,
    // from a live holder, on a surviving tree (or as a flood).
    let mut reinjections: Vec<VecDeque<(u64, u64)>> = vec![Default::default(); n];
    let mut lost = vec![false; nmsg];
    let mut reinjected = 0usize;
    for m in 0..nmsg {
        let missing = (0..n).any(|v| !dead[v] && !phase1[v].received.get(0, m));
        if !missing {
            continue;
        }
        let holders: Vec<usize> = (0..n)
            .filter(|&v| !dead[v] && phase1[v].received.get(0, m))
            .collect();
        if holders.is_empty() {
            lost[m] = true;
            continue;
        }
        let eligible = |t: usize, v: usize| is_member(t, v) || v == origins[m];
        let carrier = (0..num_trees)
            .find(|&t| intact[t] && holders.iter().any(|&v| eligible(t, v)))
            .map(|t| t as u32)
            .unwrap_or(FLOOD_TOKEN);
        let injector = *holders
            .iter()
            .find(|&&v| carrier == FLOOD_TOKEN || eligible(carrier as usize, v))
            .expect("carrier choice guarantees an eligible holder");
        reinjections[injector].push_back((m as u64, carrier as u64));
        reinjected += 1;
    }

    // Messages neither delivered everywhere nor re-injected are lost —
    // with no survivor holding a copy, the repair phase has nothing to
    // work with, so completeness is judged over the rest.
    stats.repair_events += reinjected;
    let any_flood = reinjections
        .iter()
        .flatten()
        .any(|&(_, c)| c == FLOOD_TOKEN as u64);
    let mut complete = true;
    if reinjected > 0 {
        // Every survivor relays flood tokens; tree tokens keep their
        // membership.
        let membership2: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut t = membership[v].clone();
                t.push(FLOOD_TOKEN);
                t
            })
            .collect();
        // Same final topology, quiesced: every fault fires at round 0.
        let plan0 = FaultPlan::new(plan.events().iter().map(|e| ScheduledFault {
            round: 0,
            fault: e.fault,
        }));
        let mut sim2 = Simulator::with_seed(g, Model::VCongest, seed ^ 0xf1f0_0d17)
            .with_engine(engine)
            .with_faults(plan0);
        let (phase2, stats2) = sim2.run(
            GossipProgram::per_node(&membership2, reinjections, nmsg),
            cap,
        )?;
        // Every phase-2 round may carry flood tokens, so the flood
        // column charges the whole repair run when any message fell
        // back to flooding (no surviving tree could carry it).
        if any_flood {
            stats.flood_rounds += stats2.rounds;
        }
        stats.absorb(stats2);
        stats.wasted_bandwidth += phase2.iter().map(|p| p.wasted).sum::<usize>();
        complete = (0..n).filter(|&v| !dead[v]).all(|v| {
            (0..nmsg)
                .all(|m| lost[m] || phase1[v].received.get(0, m) || phase2[v].received.get(0, m))
        });
    }

    Ok(FaultyDistGossipReport {
        complete,
        lost_messages: lost.iter().filter(|&&l| l).count(),
        reinjected,
        per_tree_load,
        stats,
    })
}

/// Why [`gossip_protocol_churn`] refused to run or failed.
#[derive(Debug)]
pub enum ChurnProtocolError {
    /// The fault plan failed [`FaultPlan::validate`].
    Plan(decomp_congest::FaultPlanError),
    /// The final topology is disconnected.
    Disconnected,
    /// A simulator phase exceeded its round cap.
    Sim(SimError),
}

impl std::fmt::Display for ChurnProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnProtocolError::Plan(e) => write!(f, "invalid churn plan: {e}"),
            ChurnProtocolError::Disconnected => {
                write!(f, "churn gossip requires a connected final graph")
            }
            ChurnProtocolError::Sim(e) => write!(f, "simulator phase failed: {e}"),
        }
    }
}

impl std::error::Error for ChurnProtocolError {}

/// Result of a churn-injected protocol run ([`gossip_protocol_churn`]).
#[derive(Clone, Debug)]
pub struct ChurnDistGossipReport {
    /// Whether every surviving node received every non-lost message.
    pub complete: bool,
    /// Messages whose every copy sat on a dead node after phase 1.
    pub lost_messages: usize,
    /// Messages the repair phase re-injected.
    pub reinjected: usize,
    /// Touched classes whose dominating tree was re-extracted from the
    /// incrementally repacked [`ClassState`](decomp_core::cds::class_state::ClassState) for the repair phase.
    pub reextractions: usize,
    /// Classes certified over the survivors (tree available to repair).
    pub certified_classes: usize,
    /// Cumulative statistics across both phases, with
    /// [`RunStats::repair_events`] / [`RunStats::flood_rounds`] set.
    pub stats: RunStats,
}

/// [`gossip_protocol_faulty`] for live churn: the plan may also carry
/// [`Fault::AddVertex`] / [`Fault::AddEdge`] events (the engines handle
/// dormancy natively), and the repair phase re-injects on trees
/// **re-extracted between the phases** from the incrementally
/// repacked [`ClassState`](decomp_core::cds::class_state::ClassState) — flood fallback only when a message's
/// holders sit outside every certified class.
///
/// `state` must be the [`ClassState`](decomp_core::cds::class_state::ClassState) the `cds` packing was built with
/// over the **final** topology
/// ([`cds_packing_with_state`](decomp_core::cds::centralized::cds_packing_with_state));
/// on return it reflects the post-churn membership. Arrivals are
/// membership no-ops here (the state already holds the final
/// population), so only deaths and cuts repack — each touching only
/// its own classes.
#[allow(clippy::too_many_arguments)] // churn protocol plumbing
pub fn gossip_protocol_churn(
    g: &Graph,
    cds: &decomp_core::cds::centralized::CdsPacking,
    state: &mut decomp_core::cds::class_state::ClassState,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<ChurnDistGossipReport, ChurnProtocolError> {
    run_protocol_churn(g, None, cds, state, origins, seed, config, plan, engine)
}

/// [`gossip_protocol_churn`] over a *growing* topology: phase 1 runs the
/// engines on `gg.base()` through the growth view
/// ([`Simulator::with_growth`]) — each round's neighbor lists are the
/// edges with activation epoch `<= round`, so no engine ever sees the
/// final adjacency up front. Class-free arrivals (vertices the packing
/// predates) are *admitted* into the maintained class state between the
/// phases ([`ClassState::admit_vertex`](decomp_core::cds::class_state::ClassState::admit_vertex)),
/// so repair re-injection serves them from re-extracted trees instead of
/// flooding; [`RunStats::admitted_via_packing`] /
/// [`RunStats::flood_served`] report the split. The repair phase itself
/// runs over the final topology (its quiesced round-0 plan activates
/// everything immediately).
///
/// Build `gg` with
/// [`FaultPlan::growth_topology`] so overlay epochs match the plan's
/// arrival rounds. Engine choice never changes any output — the growing
/// run is bit-identical across `sequential` / `sharded` backends and
/// shard counts, exactly like the settled one.
#[allow(clippy::too_many_arguments)] // churn protocol plumbing
pub fn gossip_protocol_growth(
    gg: &GrowableGraph,
    cds: &decomp_core::cds::centralized::CdsPacking,
    state: &mut decomp_core::cds::class_state::ClassState,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<ChurnDistGossipReport, ChurnProtocolError> {
    let gfull = gg.final_graph();
    run_protocol_churn(
        &gfull,
        Some(gg),
        cds,
        state,
        origins,
        seed,
        config,
        plan,
        engine,
    )
}

/// Shared body of [`gossip_protocol_churn`] (settled, `growth: None`)
/// and [`gossip_protocol_growth`]. `g` is always the final topology;
/// `growth` carries the phase-1 delivery view when the run grows.
#[allow(clippy::too_many_arguments)] // churn protocol plumbing
fn run_protocol_churn(
    g: &Graph,
    growth: Option<&GrowableGraph>,
    cds: &decomp_core::cds::centralized::CdsPacking,
    state: &mut decomp_core::cds::class_state::ClassState,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<ChurnDistGossipReport, ChurnProtocolError> {
    use decomp_core::cds::tree_extract::{reextract_class_tree, to_dom_tree_packing_with_state};

    plan.validate(g).map_err(ChurnProtocolError::Plan)?;
    if !decomp_graph::traversal::is_connected(g) {
        return Err(ChurnProtocolError::Disconnected);
    }
    assert_eq!(
        config.regime,
        Regime::Trees,
        "gossip_protocol_churn supports the tree regimes only"
    );
    let n = g.n();
    let nmsg = origins.len();
    let num_classes = cds.num_classes();

    // Phase-1 routing: trees certified over the final topology (dormant
    // members simply stay silent until they arrive).
    let packing = to_dom_tree_packing_with_state(g, cds, state).packing;
    assert!(packing.num_trees() > 0, "need at least one certified class");
    let num_trees = packing.num_trees();
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tree) in packing.trees.iter().enumerate() {
        for v in tree.vertices(n) {
            membership[v].push(t as u32);
        }
    }
    let sampler = match config.tree_choice {
        TreeChoice::Uniform => None,
        TreeChoice::Weighted => Some(packing.sampler()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut injections: Vec<VecDeque<(u64, u64)>> = vec![Default::default(); n];
    for (i, &origin) in origins.iter().enumerate() {
        let tree = match &sampler {
            None => rng.gen_range(0..num_trees) as u64,
            Some(s) => s.sample(&mut rng) as u64,
        };
        injections[origin].push_back((i as u64, tree));
    }
    // The run idles until the last arrival if it must.
    let last_event = plan.events().last().map_or(0, |e| e.round);
    let cap = 64 * (n + nmsg) + 4096 + last_event;

    // Phase 1: the protocol under churn. A growing run delivers over
    // the view (base CSR + epoch-stamped overlay) — the base is the
    // engines' bookkeeping topology, never their adjacency source.
    let mut sim = Simulator::with_seed(growth.map_or(g, |gg| gg.base()), Model::VCongest, seed)
        .with_engine(engine)
        .with_faults(plan.clone());
    if let Some(gg) = growth {
        sim = sim.with_growth(gg);
    }
    let (phase1, mut stats) = sim
        .run(GossipProgram::per_node(&membership, injections, nmsg), cap)
        .map_err(ChurnProtocolError::Sim)?;
    stats.wasted_bandwidth = phase1.iter().map(|p| p.wasted).sum();

    // The survivors' final view; arrivals have all fired.
    let dead_list = plan.dead_vertices_after(usize::MAX);
    let mut dead = vec![false; n];
    for &v in &dead_list {
        dead[v] = true;
    }
    let mut cut: Vec<(usize, usize)> = plan
        .events()
        .iter()
        .filter_map(|e| match e.fault {
            Fault::Edge(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    cut.sort_unstable();
    let edge_ok = |u: usize, v: usize| {
        !dead[u] && !dead[v] && cut.binary_search(&(u.min(v), u.max(v))).is_err()
    };

    // Apply the churn to the class state. The state already holds the
    // final membership of every *packed* vertex, so those arrivals
    // repack nothing; deaths and cuts each repair exactly their touched
    // classes. A class-free arrival — a vertex the packing predates —
    // is admitted incrementally in growth mode (tree service for the
    // newcomer) and counted against the flood fallback otherwise.
    let g_surv = plan.surviving_graph(g, usize::MAX);
    let mut touched: std::collections::BTreeSet<usize> = Default::default();
    let mut admitted_via_packing = 0usize;
    let mut flood_served = 0usize;
    for e in plan.events() {
        match e.fault {
            Fault::Vertex(v) => {
                for c in state.delete_vertex(&g_surv, v) {
                    touched.insert(c as usize);
                }
            }
            Fault::Edge(u, v) => {
                for c in state.delete_edge(&g_surv, u, v) {
                    touched.insert(c as usize);
                }
            }
            Fault::AddVertex(v) => {
                if !dead[v] && state.classes_at(v).is_empty() {
                    if growth.is_some() {
                        let entered = state.admit_vertex(&g_surv, v);
                        if entered.is_empty() {
                            flood_served += 1;
                        } else {
                            admitted_via_packing += 1;
                        }
                        for c in entered {
                            touched.insert(c as usize);
                        }
                    } else {
                        flood_served += 1;
                    }
                }
            }
            Fault::AddEdge(_, _) => {}
        }
    }
    stats.admitted_via_packing = admitted_via_packing;
    stats.flood_served = flood_served;
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_classes];
    for v in 0..n {
        for &c in state.classes_at(v) {
            members[c as usize].push(v);
        }
    }
    let dominates = |ms: &[NodeId]| {
        let mut is_m = vec![false; n];
        for &v in ms {
            is_m[v] = true;
        }
        (0..n)
            .filter(|&v| !dead[v] && !is_m[v])
            .all(|v| g.neighbors(v).iter().any(|&u| is_m[u] && edge_ok(v, u)))
    };

    // Tree re-extraction between the phases: untouched certified
    // classes keep their tree (members and tree edges intact — only
    // domination can break, through a cut to a non-member); touched
    // ones re-extract from the repaired state, which can also revive
    // classes that were invalid over the full topology.
    let mut repaired: Vec<Option<decomp_core::packing::WeightedDomTree>> = vec![None; num_classes];
    for tree in &packing.trees {
        if !touched.contains(&tree.id) && dominates(&members[tree.id]) {
            repaired[tree.id] = Some(tree.clone());
        }
    }
    let mut reextractions = 0usize;
    for &c in &touched {
        if state.component_count(c) == 1 && dominates(&members[c]) {
            repaired[c] = reextract_class_tree(g, c, &members[c], edge_ok);
            if repaired[c].is_some() {
                reextractions += 1;
            }
        }
    }
    let certified_classes = repaired.iter().filter(|t| t.is_some()).count();
    let class_member = |c: usize, v: usize| members[c].binary_search(&v).is_ok();

    // Repair: re-inject every message some survivor is still missing,
    // from a live holder, on a re-extracted certified class (or as a
    // flood when no class can carry it).
    let mut reinjections: Vec<VecDeque<(u64, u64)>> = vec![Default::default(); n];
    let mut lost = vec![false; nmsg];
    let mut reinjected = 0usize;
    for m in 0..nmsg {
        let missing = (0..n).any(|v| !dead[v] && !phase1[v].received.get(0, m));
        if !missing {
            continue;
        }
        let holders: Vec<usize> = (0..n)
            .filter(|&v| !dead[v] && phase1[v].received.get(0, m))
            .collect();
        if holders.is_empty() {
            lost[m] = true;
            continue;
        }
        let eligible = |c: usize, v: usize| class_member(c, v) || v == origins[m];
        let carrier = (0..num_classes)
            .find(|&c| repaired[c].is_some() && holders.iter().any(|&v| eligible(c, v)))
            .map(|c| c as u32)
            .unwrap_or(FLOOD_TOKEN);
        let injector = *holders
            .iter()
            .find(|&&v| carrier == FLOOD_TOKEN || eligible(carrier as usize, v))
            .expect("carrier choice guarantees an eligible holder");
        reinjections[injector].push_back((m as u64, carrier as u64));
        reinjected += 1;
    }
    stats.repair_events += reinjected;
    let any_flood = reinjections
        .iter()
        .flatten()
        .any(|&(_, c)| c == FLOOD_TOKEN as u64);

    let mut complete = true;
    if reinjected > 0 {
        // Phase-2 tokens are keyed by *class id*; members of certified
        // classes relay their class, every survivor relays floods.
        let membership2: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut t: Vec<u32> = (0..num_classes)
                    .filter(|&c| repaired[c].is_some() && class_member(c, v))
                    .map(|c| c as u32)
                    .collect();
                t.push(FLOOD_TOKEN);
                t
            })
            .collect();
        // Same final topology, quiesced: every fault fires at round 0
        // (arrivals at round 0 are simply present from the start).
        let plan0 = FaultPlan::new(plan.events().iter().map(|e| ScheduledFault {
            round: 0,
            fault: e.fault,
        }));
        let mut sim2 = Simulator::with_seed(g, Model::VCongest, seed ^ 0xf1f0_0d17)
            .with_engine(engine)
            .with_faults(plan0);
        let (phase2, stats2) = sim2
            .run(
                GossipProgram::per_node(&membership2, reinjections, nmsg),
                cap,
            )
            .map_err(ChurnProtocolError::Sim)?;
        if any_flood {
            stats.flood_rounds += stats2.rounds;
        }
        stats.absorb(stats2);
        stats.wasted_bandwidth += phase2.iter().map(|p| p.wasted).sum::<usize>();
        complete = (0..n).filter(|&v| !dead[v]).all(|v| {
            (0..nmsg)
                .all(|m| lost[m] || phase1[v].received.get(0, m) || phase2[v].received.get(0, m))
        });
    }

    Ok(ChurnDistGossipReport {
        complete,
        lost_messages: lost.iter().filter(|&&l| l).count(),
        reinjected,
        reextractions,
        certified_classes,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_core::cds::tree_extract::to_dom_tree_packing;
    use decomp_graph::generators;

    fn packing_for(g: &Graph, k: usize, seed: u64) -> DomTreePacking {
        let p = cds_packing(g, &CdsPackingConfig::with_known_k(k, seed));
        to_dom_tree_packing(g, &p).packing
    }

    #[test]
    fn protocol_delivers_everything() {
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = gossip_protocol(&g, &packing, &origins, 5).unwrap();
        assert!(r.complete, "every node must receive every message");
        assert!(r.stats.rounds > 0);
        assert!(r.stats.messages > 0);
        assert_eq!(r.per_tree_load.iter().sum::<usize>(), origins.len());
    }

    #[test]
    fn agrees_with_schedule_simulation_on_completion() {
        let g = generators::thick_path(4, 6);
        let packing = packing_for(&g, 4, 3);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let protocol = gossip_protocol(&g, &packing, &origins, 7).unwrap();
        let schedule = crate::gossip::gossip_via_trees(&g, &packing, &origins, 7);
        assert!(protocol.complete);
        // FIFO relaying is at most a small factor slower than the greedy
        // central scheduler.
        assert!(
            protocol.stats.rounds <= 4 * schedule.rounds + 16,
            "protocol {} vs schedule {}",
            protocol.stats.rounds,
            schedule.rounds
        );
    }

    #[test]
    fn single_message_floods_fast() {
        let g = generators::cycle(12);
        let packing = packing_for(&g, 2, 0);
        let r = gossip_protocol(&g, &packing, &[4], 1).unwrap();
        assert!(r.complete);
        assert!(r.stats.rounds <= 40);
    }

    #[test]
    fn empty_workload_no_rounds_needed() {
        let g = generators::cycle(5);
        let packing = packing_for(&g, 2, 0);
        let r = gossip_protocol(&g, &packing, &[], 0).unwrap();
        assert!(r.complete);
    }

    /// A cycle carrying one dominating tree that spans every vertex, so
    /// each origin sits inside the tree carrying its own message — the
    /// configuration that used to double-relay.
    fn full_cycle_packing(n: usize) -> (Graph, DomTreePacking) {
        let g = generators::cycle(n);
        let packing = DomTreePacking {
            trees: vec![decomp_core::packing::WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: (0..n - 1).map(|i| (i, i + 1)).collect(),
                singleton: None,
            }],
        };
        packing.validate(&g, 1e-9).unwrap();
        (g, packing)
    }

    #[test]
    fn duplicate_relay_regression_origin_broadcasts_once() {
        // Every vertex of the cycle is a member of the one tree, so with
        // no duplicate relays each of the `N` messages is broadcast by
        // each of the `n` vertices exactly once (the origin at injection,
        // everyone else on first reception), and every broadcast delivers
        // to the cycle's 2 neighbors: `RunStats.messages` must equal
        // exactly `2 · n · N`. The pre-fix protocol did not mark injected
        // messages as seen, so a tree-member origin re-queued its own
        // message when the broadcast echoed back via `accept` — one extra
        // broadcast (2 extra deliveries) per message, failing this pin.
        let n = 8;
        let (g, packing) = full_cycle_packing(n);
        let origins: Vec<usize> = (0..n).collect();
        let mut sim = decomp_congest::Simulator::with_seed(&g, Model::VCongest, 3)
            .with_engine(decomp_testkit::engine_from_env());
        let r =
            gossip_protocol_on(&mut sim, &packing, &origins, 3, GossipConfig::default()).unwrap();
        assert!(r.complete, "every node must receive every message");
        assert_eq!(
            r.stats.messages,
            2 * n * origins.len(),
            "per-(node, message) broadcast count must be exactly one \
             broadcast per tree vertex per message — duplicates detected"
        );
    }

    #[test]
    fn faulty_protocol_completes_below_connectivity() {
        // f = 3 < κ = 8 node kills from round 2 on (each origin has
        // broadcast once, so ≥ deg + 1 > f copies exist): nothing is
        // lost and every survivor ends up with every message, possibly
        // via the repair phase.
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::random_vertices(&g, 3, (2, 6), 21);
        let r = gossip_protocol_faulty(
            &g,
            &packing,
            &origins,
            5,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert!(r.complete, "survivors must receive every message");
        assert_eq!(r.lost_messages, 0, "f < k loses nothing");
        assert!(r.stats.rounds > 0);
    }

    #[test]
    fn origin_killed_at_injection_loses_exactly_its_message() {
        // Node 4's message dies with it before the first broadcast; the
        // other messages must still reach every survivor.
        let g = generators::harary(4, 16);
        let packing = packing_for(&g, 4, 2);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([ScheduledFault {
            round: 0,
            fault: Fault::Vertex(4),
        }]);
        let r = gossip_protocol_faulty(
            &g,
            &packing,
            &origins,
            7,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert_eq!(r.lost_messages, 1, "only the dead origin's message dies");
        assert!(
            r.complete,
            "completeness is judged over the non-lost messages"
        );
    }

    #[test]
    fn faulty_protocol_is_engine_equivalent_and_deterministic() {
        let g = generators::harary(6, 30);
        let packing = packing_for(&g, 6, 4);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::random_vertices(&g, 4, (2, 5), 9);
        let run = |engine| {
            let r = gossip_protocol_faulty(
                &g,
                &packing,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            (
                r.complete,
                r.lost_messages,
                r.reinjected,
                r.per_tree_load.clone(),
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        assert_eq!(baseline.1, 0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
    }

    #[test]
    fn rlnc_protocol_delivers_and_decodes() {
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = gossip_protocol_with(&g, &packing, &origins, 5, GossipConfig::rlnc(8, 3)).unwrap();
        assert!(r.complete, "every node must decode every generation");
        assert!(r.stats.rounds > 0);
        assert!(r.stats.messages > 0);
        // Coded gossip commits to no trees: the per-tree ledger stays empty.
        assert!(r.per_tree_load.iter().all(|&l| l == 0));
        // All-to-all coded gossip on a dense graph inevitably delivers
        // some non-innovative packets — the waste ledger must see them.
        assert!(r.stats.wasted_bandwidth > 0);
    }

    #[test]
    fn rlnc_protocol_is_engine_equivalent_and_deterministic() {
        let g = generators::harary(6, 30);
        let packing = packing_for(&g, 6, 4);
        let origins: Vec<usize> = (0..g.n()).collect();
        let run = |engine| {
            let mut sim =
                decomp_congest::Simulator::with_seed(&g, Model::VCongest, 11).with_engine(engine);
            let r = gossip_protocol_on(&mut sim, &packing, &origins, 11, GossipConfig::rlnc(6, 17))
                .unwrap();
            (
                r.complete,
                r.per_tree_load.clone(),
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        // Double-run under the same engine: bit-identical, not just close.
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn churn_protocol_reextracts_and_serves_survivors() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        // One mid-run kill and one arrival: the kill touches its
        // classes (incremental repack + tree re-extraction), the
        // arrival is a membership no-op, and every survivor —
        // including the newcomer — must end complete.
        let g = generators::harary(8, 40);
        let (cds, mut state) = cds_packing_with_state(&g, &CdsPackingConfig::with_known_k(8, 1));
        let newcomer = 17;
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != newcomer).collect();
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(newcomer),
            },
            ScheduledFault {
                round: 3,
                fault: Fault::Vertex(5),
            },
        ]);
        let r = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &origins,
            13,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert!(r.complete, "survivors (incl. the newcomer) must be served");
        assert_eq!(r.lost_messages, 0, "one death below κ loses nothing");
        assert!(r.certified_classes > 0, "repair must have trees to use");
        assert_eq!(r.stats.repair_events, r.reinjected);
        // The killed vertex belonged to some class, so its classes were
        // repacked; over this κ=8 graph they stay connected and
        // dominating, so re-extraction succeeds.
        assert!(r.reextractions > 0, "the kill must re-extract its classes");
        // The state now reflects the post-churn membership.
        assert!(state.classes_at(5).is_empty());
    }

    #[test]
    fn churn_protocol_is_engine_equivalent_and_deterministic() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        let g = generators::harary(6, 30);
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != 11).collect();
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(11),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::Edge(0, 1),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::Vertex(3),
            },
        ]);
        let run = |engine| {
            let (cds, mut state) =
                cds_packing_with_state(&g, &CdsPackingConfig::with_known_k(6, 4));
            let r = gossip_protocol_churn(
                &g,
                &cds,
                &mut state,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            (
                r.complete,
                r.lost_messages,
                r.reinjected,
                r.reextractions,
                r.certified_classes,
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn growth_protocol_admits_newcomers_and_is_engine_equivalent() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        // Adjacency revealed only at arrival: vertex 11 is isolated in
        // the base CSR, its edges live in the growth overlay with
        // epoch = its arrival round, and the packing predates it. The
        // run must admit it into a class between the phases and stay
        // bit-identical across every engine.
        let gfull = generators::harary(6, 30);
        let newcomer = 11usize;
        let base = Graph::from_edges(
            gfull.n(),
            (0..gfull.n()).flat_map(|u| {
                gfull
                    .neighbors(u)
                    .iter()
                    .filter(move |&&v| u < v && u != newcomer && v != newcomer)
                    .map(move |&v| (u, v))
            }),
        );
        let mut events = vec![
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(newcomer),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::Vertex(3),
            },
        ];
        for &u in gfull.neighbors(newcomer) {
            events.push(ScheduledFault {
                round: 2,
                fault: Fault::AddEdge(newcomer, u),
            });
        }
        let plan = FaultPlan::new(events);
        let gg = plan.growth_topology(&base);
        assert_eq!(gg.overlay_len(), gfull.neighbors(newcomer).len());
        let origins: Vec<usize> = (0..gfull.n()).filter(|&v| v != newcomer).collect();
        let run = |engine| {
            let (mut cds, mut state) =
                cds_packing_with_state(&gfull, &CdsPackingConfig::with_known_k(6, 4));
            // Evict the newcomer: membership exactly as if the packing
            // had been built before it existed.
            for c in state.delete_vertex(&gfull, newcomer) {
                let ms = &mut cds.classes[c as usize];
                if let Ok(i) = ms.binary_search(&newcomer) {
                    ms.remove(i);
                }
            }
            let r = gossip_protocol_growth(
                &gg,
                &cds,
                &mut state,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            assert!(!state.classes_at(newcomer).is_empty(), "admitted");
            (
                r.complete,
                r.lost_messages,
                r.reinjected,
                r.reextractions,
                r.certified_classes,
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0, "the newcomer must be served");
        assert_eq!(baseline.5.admitted_via_packing, 1);
        assert_eq!(baseline.5.flood_served, 0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn churn_protocol_rejects_invalid_plans() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        let g = generators::cycle(6);
        let (cds, mut state) = cds_packing_with_state(&g, &CdsPackingConfig::with_classes(1, 0));
        let plan = FaultPlan::new([ScheduledFault {
            round: 1,
            fault: Fault::AddVertex(99),
        }]);
        let err = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &[0],
            1,
            GossipConfig::default(),
            &plan,
            EngineKind::Sequential,
        )
        .unwrap_err();
        assert!(matches!(err, ChurnProtocolError::Plan(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "tree regimes only")]
    fn faulty_protocol_rejects_the_rlnc_regime() {
        let g = generators::harary(4, 16);
        let packing = packing_for(&g, 4, 2);
        let plan = FaultPlan::new([]);
        let _ = gossip_protocol_faulty(
            &g,
            &packing,
            &[0],
            7,
            GossipConfig::rlnc(4, 1),
            &plan,
            decomp_testkit::engine_from_env(),
        );
    }

    #[test]
    fn weighted_tokens_follow_the_shared_sampler() {
        // Weighted tree choice must route every token off a zero-weight
        // tree; uniform choice keeps using it. Both must still complete.
        let t = 6;
        let g = generators::complete_bipartite(t, 30);
        let mut packing = DomTreePacking {
            trees: (0..t)
                .map(|i| decomp_core::packing::WeightedDomTree {
                    id: i,
                    weight: 1.0,
                    edges: vec![(i, t + i)],
                    singleton: None,
                })
                .collect(),
        };
        packing.trees[0].weight = 0.0;
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let weighted = gossip_protocol_with(
            &g,
            &packing,
            &origins,
            5,
            GossipConfig {
                tree_choice: crate::gossip::TreeChoice::Weighted,
                sharing: crate::gossip::Sharing::Greedy,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(weighted.complete);
        assert_eq!(
            weighted.per_tree_load[0], 0,
            "zero-weight tree must carry no tokens under weighted choice"
        );
        assert_eq!(weighted.per_tree_load.iter().sum::<usize>(), origins.len());
        let uniform = gossip_protocol(&g, &packing, &origins, 5).unwrap();
        assert!(uniform.complete);
        assert!(
            uniform.per_tree_load[0] > 0,
            "uniform choice ignores weights (premise of the comparison)"
        );
    }
}
