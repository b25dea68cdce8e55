//! The two workloads, each one pass of setup → decompose → disseminate
//! through the public APIs of `graph`, `core`, `congest` and `broadcast`.
//! Between them every layer is called. A third, the gossip protocol from 64
//! origins over a `random_regular(2000, 8)` packing, was dropped: on a shared
//! 2-vCPU host its time moved by 25–33 % between sets of runs of the same
//! code.
//!
//! Every call goes through [`Ctx::call`], so it is counted, timed as a
//! layer span when tracing is on, and caught if it panics; every output is
//! checked before the next stage consumes it. A pass returns its stage wall
//! times and its exact counters (rounds, messages, words, digests, tree
//! weights), which are folded into one fingerprint.

use crate::trace::Ctx;
use decomp_broadcast::gossip::{gossip_via_trees_with, GossipConfig, GossipReport};
use decomp_broadcast::gossip_distributed::{gossip_protocol_on, DistGossipReport};
use decomp_congest::{EngineKind, Model, RunStats, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPacking, CdsPackingConfig};
use decomp_core::cds::distributed::cds_packing_distributed;
use decomp_core::cds::tree_extract::{to_dom_tree_packing, ExtractedTrees};
use decomp_core::stp::distributed::distributed_stp_mwu;
use decomp_core::stp::mwu::MwuConfig;
use decomp_graph::{generators, Graph, NodeId};
use std::time::Instant;

/// Engine of every timed simulated call. One thread: on a shared 2-vCPU
/// host a second engine thread measures the scheduler more than the engine
/// (the same barrier-bound call on `sharded:2` took 4–10 s from pass to
/// pass, 0.65–0.70 s on `sequential`).
pub const ENGINE: EngineKind = EngineKind::Sequential;

/// Engine a traced pass repeats every simulated call on, outside the stage
/// timings, for `congest.sharded_speedup` and `congest.cross_ratio`: two
/// shards over contiguous id ranges.
pub const SHARDED: EngineKind = EngineKind::Sharded {
    shards: 2,
    partition: decomp_congest::PartitionKind::Contiguous,
};

/// Tolerance of the packing validity checks.
const TOL: f64 = 1e-9;

// Sizes are chosen so that one pass takes 0.3–1 s on one core of a
// 2-vCPU host (a 60-second run reports figures over 60–200 passes) and so
// that a call's working set stays near the 2 MB per-core L2: code that
// lives in the shared L3 or in DRAM slowed down up to 2–3× for tens of
// seconds at a time under neighbours' load, ALU-bound code by 10 %.

/// `harary_distributed`: Theorem 1.1's distributed CDS packing on a
/// circulant, all-node gossip over its trees, and Theorem 1.3's distributed
/// MWU spanning-tree packing on a smaller circulant. Every vertex is an
/// origin so that dissemination is long enough to time steadily.
const HD_CDS_K: usize = 16;
const HD_CDS_N: usize = 300;
const HD_STP_LAMBDA: usize = 8;
const HD_STP_N: usize = 16;
const HD_STP_EPSILON: f64 = 0.1;

/// `rr_alltoall`: every vertex a source, over the trees of a centralized
/// CDS packing, under the three gossip regimes.
const AA_N: usize = 500;
const AA_DEGREE: usize = 16;
const AA_GENERATION: usize = 16;

pub const NAMES: [&str; 2] = ["harary_distributed", "rr_alltoall"];

/// One simulated call: its layer span name, the timed engine's
/// statistics, and those of its repeat on [`SHARDED`] in a traced pass.
pub struct SimCall {
    pub span: &'static str,
    pub stats: RunStats,
    pub sharded: Option<RunStats>,
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of setup, decompose and disseminate.
    pub stage_s: [f64; 3],
    /// Simulated or scheduled rounds over every stage.
    pub sim_rounds: usize,
    /// Σ x_τ over every packing built.
    pub tree_weight: f64,
    /// Gossip messages disseminated, over every dissemination call.
    pub messages: usize,
    /// Rounds of the dissemination calls.
    pub diss_rounds: usize,
    /// Exact per-layer counters, by metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Simulated calls, for the engine's per-layer metrics.
    pub sim_calls: Vec<SimCall>,
    /// Digest of every exact counter of the pass.
    pub fingerprint: u64,
}

/// Instance provenance: family, size, degree and seed of each graph.
pub fn instances(workload: &str, seed: u64) -> Vec<String> {
    match workload {
        "harary_distributed" => vec![
            format!("harary n={HD_CDS_N} k={HD_CDS_K}"),
            format!("harary n={HD_STP_N} k={HD_STP_LAMBDA}"),
        ],
        "rr_alltoall" => vec![format!("random_regular n={AA_N} d={AA_DEGREE} seed={seed}")],
        _ => Vec::new(),
    }
}

/// Runs one pass of `workload`. `reference` also repeats every simulated
/// call on [`SHARDED`], outside the stage timings, under a `sharded.<call>`
/// span, and checks it agrees with the timed run. `None` means a call failed; the failure is
/// on `ctx`'s ledger.
pub fn run(workload: &str, ctx: &mut Ctx, seed: u64, reference: bool) -> Option<Pass> {
    let mut pass = match workload {
        "harary_distributed" => harary_distributed(ctx, seed, reference)?,
        "rr_alltoall" => rr_alltoall(ctx, seed)?,
        other => unreachable!("unknown workload {other}"),
    };
    pass.fingerprint = fingerprint(&pass);
    Some(pass)
}

/// Opens a stage: a span when tracing, and a wall clock either way.
fn stage(ctx: &mut Ctx, name: &'static str) -> Instant {
    ctx.trace.begin(name);
    Instant::now()
}

fn stage_end(ctx: &mut Ctx, clock: Instant) -> f64 {
    let s = clock.elapsed().as_secs_f64();
    ctx.trace.end();
    s
}

fn decompose_centralized(
    ctx: &mut Ctx,
    g: &Graph,
    config: &CdsPackingConfig,
) -> Option<(CdsPacking, ExtractedTrees)> {
    let packing = ctx.call("cds.packing", || cds_packing(g, config))?;
    let trees = extract(ctx, g, &packing)?;
    Some((packing, trees))
}

fn extract(ctx: &mut Ctx, g: &Graph, packing: &CdsPacking) -> Option<ExtractedTrees> {
    let ex = ctx.call("cds.extract", || to_dom_tree_packing(g, packing))?;
    let verdict = if ex.packing.num_trees() == 0 {
        Err("no dominating tree extracted".into())
    } else {
        ex.packing.validate(g, TOL)
    };
    ctx.check("cds.extract", verdict).then_some(ex)
}

fn cds_counters(pass: &mut Pass, packing: &CdsPacking, ex: &ExtractedTrees) {
    let final_excess = packing.trace.last().map_or(0, |l| l.excess_after);
    pass.counters.extend([
        ("cds.layers", packing.layout.layers() as f64),
        ("cds.classes", packing.num_classes() as f64),
        ("cds.final_excess", final_excess as f64),
        ("cds.trees", ex.packing.num_trees() as f64),
    ]);
    pass.tree_weight += ex.packing.size();
}

/// Σ x_τ in ascending order of weight. `MwuReport` lists its trees in hash
/// order, so a plain sum can differ in its last bits between two calls with
/// identical packings.
fn ordered_size(weights: impl Iterator<Item = f64>) -> f64 {
    let mut w: Vec<f64> = weights.collect();
    w.sort_by(f64::total_cmp);
    w.into_iter().sum()
}

fn protocol_verdict(r: &DistGossipReport) -> Result<(), String> {
    if r.complete {
        Ok(())
    } else {
        Err("gossip protocol left a message undelivered".into())
    }
}

/// Checks a simulated call's repeat on [`SHARDED`] against the timed run:
/// every locality-blind counter must match. Returns the repeat's stats.
fn check_reference(
    ctx: &mut Ctx,
    span: &'static str,
    timed: RunStats,
    sharded: Option<RunStats>,
) -> Option<RunStats> {
    let sharded = sharded?;
    let verdict = if sharded.locality_blind() == timed.locality_blind() {
        Ok(())
    } else {
        Err(format!("{SHARDED} {sharded:?} != {ENGINE} {timed:?}"))
    };
    ctx.check(span, verdict).then_some(sharded)
}

fn harary_distributed(ctx: &mut Ctx, seed: u64, reference: bool) -> Option<Pass> {
    let mut pass = Pass::default();

    let clock = stage(ctx, "setup");
    let g_cds = ctx.call("graph.generate", || generators::harary(HD_CDS_K, HD_CDS_N))?;
    let g_stp = ctx.call("graph.generate", || {
        generators::harary(HD_STP_LAMBDA, HD_STP_N)
    })?;
    let (mut sim_cds, mut sim_gossip, mut sim_stp) = ctx.call("congest.build", || {
        (
            Simulator::with_seed(&g_cds, Model::VCongest, seed).with_engine(ENGINE),
            Simulator::with_seed(&g_cds, Model::VCongest, seed).with_engine(ENGINE),
            Simulator::with_seed(&g_stp, Model::ECongest, seed).with_engine(ENGINE),
        )
    })?;
    pass.stage_s[0] = stage_end(ctx, clock);

    let clock = stage(ctx, "decompose");
    let config = CdsPackingConfig::with_known_k(HD_CDS_K, seed);
    let mwu = MwuConfig {
        epsilon: HD_STP_EPSILON,
        max_iterations: None,
    };
    let cds = ctx
        .call_ok("cds_dist", || {
            cds_packing_distributed(&mut sim_cds, &config)
        })
        .and_then(|packing| Some((extract(ctx, &g_cds, &packing)?, packing)));
    let stp = ctx.call_ok("stp_dist", || {
        distributed_stp_mwu(&mut sim_stp, HD_STP_LAMBDA, &mwu)
    });
    pass.stage_s[1] = stage_end(ctx, clock);
    let (ex, packing) = cds?;
    let stp = stp?;
    // Theorem 1.3: size ≥ ⌈(λ−1)/2⌉(1 − 6ε).
    let floor = (HD_STP_LAMBDA - 1).div_ceil(2) as f64 * (1.0 - 6.0 * mwu.epsilon);
    let verdict = stp.packing.validate(&g_stp, TOL).and_then(|()| {
        let size = stp.packing.size();
        if size + TOL >= floor {
            Ok(())
        } else {
            Err(format!("packing size {size} below {floor}"))
        }
    });
    ctx.check("stp_dist", verdict).then_some(())?;

    let origins: Vec<NodeId> = g_cds.vertices().collect();
    let clock = stage(ctx, "disseminate");
    let gossip = ctx.call_ok("protocol", || {
        gossip_protocol_on(
            &mut sim_gossip,
            &ex.packing,
            &origins,
            seed,
            GossipConfig::default(),
        )
    });
    pass.stage_s[2] = stage_end(ctx, clock);
    let gossip = gossip?;
    ctx.check("protocol", protocol_verdict(&gossip))
        .then_some(())?;

    let (cds_stats, stp_stats) = (sim_cds.stats(), sim_stp.stats());
    let mut sharded = [None; 3];
    if reference {
        let mut sim = Simulator::with_seed(&g_cds, Model::VCongest, seed).with_engine(SHARDED);
        let p = ctx.call_ok("sharded.cds_dist", || {
            cds_packing_distributed(&mut sim, &config)
        });
        let p = p.filter(|p| {
            let same = p.class_of == packing.class_of;
            ctx.check(
                "sharded.cds_dist",
                same.then_some(()).ok_or("packing differs".into()),
            )
        });
        sharded[0] = check_reference(ctx, "sharded.cds_dist", cds_stats, p.map(|_| sim.stats()));

        let mut sim = Simulator::with_seed(&g_stp, Model::ECongest, seed).with_engine(SHARDED);
        let p = ctx.call_ok("sharded.stp_dist", || {
            distributed_stp_mwu(&mut sim, HD_STP_LAMBDA, &mwu)
        });
        sharded[1] = check_reference(ctx, "sharded.stp_dist", stp_stats, p.map(|_| sim.stats()));

        let mut sim = Simulator::with_seed(&g_cds, Model::VCongest, seed).with_engine(SHARDED);
        let r = ctx.call_ok("sharded.protocol", || {
            gossip_protocol_on(
                &mut sim,
                &ex.packing,
                &origins,
                seed,
                GossipConfig::default(),
            )
        });
        sharded[2] = check_reference(ctx, "sharded.protocol", gossip.stats, r.map(|r| r.stats));
    }

    pass.counters
        .push(("graph.edges", (g_cds.m() + g_stp.m()) as f64));
    cds_counters(&mut pass, &packing, &ex);
    let stp_weight = ordered_size(stp.packing.trees.iter().map(|t| t.weight));
    pass.counters.extend([
        ("cds_dist.rounds", cds_stats.rounds as f64),
        ("cds_dist.messages", cds_stats.messages as f64),
        ("stp_dist.rounds", stp_stats.rounds as f64),
        ("stp_dist.iterations", stp.iterations.len() as f64),
        ("stp_dist.trees", stp.packing.num_trees() as f64),
        ("stp_dist.weight", stp_weight),
    ]);
    pass.tree_weight += stp_weight;
    pass.sim_rounds = cds_stats.rounds + stp_stats.rounds + gossip.stats.rounds;
    pass.messages = origins.len();
    pass.diss_rounds = gossip.stats.rounds;
    pass.sim_calls.extend([
        SimCall {
            span: "cds_dist",
            stats: cds_stats,
            sharded: sharded[0],
        },
        SimCall {
            span: "stp_dist",
            stats: stp_stats,
            sharded: sharded[1],
        },
        SimCall {
            span: "protocol",
            stats: gossip.stats,
            sharded: sharded[2],
        },
    ]);
    Some(pass)
}

fn rr_alltoall(ctx: &mut Ctx, seed: u64) -> Option<Pass> {
    let mut pass = Pass::default();

    let clock = stage(ctx, "setup");
    let g = ctx.call("graph.generate", || {
        generators::random_regular(AA_N, AA_DEGREE, seed)
    });
    pass.stage_s[0] = stage_end(ctx, clock);
    let g = g?;

    let clock = stage(ctx, "decompose");
    let decomposed =
        decompose_centralized(ctx, &g, &CdsPackingConfig::with_known_k(AA_DEGREE, seed));
    pass.stage_s[1] = stage_end(ctx, clock);
    let (packing, ex) = decomposed?;

    let origins: Vec<NodeId> = g.vertices().collect();
    let regimes: [(&'static str, GossipConfig); 3] = [
        ("gossip.uniform", GossipConfig::default()),
        ("gossip.weighted", GossipConfig::weighted()),
        ("rlnc", GossipConfig::rlnc(AA_GENERATION, seed)),
    ];
    let clock = stage(ctx, "disseminate");
    let reports: Vec<Option<GossipReport>> = regimes
        .iter()
        .map(|&(span, config)| {
            ctx.call(span, || {
                gossip_via_trees_with(&g, &ex.packing, &origins, seed, config)
            })
        })
        .collect();
    pass.stage_s[2] = stage_end(ctx, clock);
    let mut ok = Vec::with_capacity(reports.len());
    for (&(span, _), r) in regimes.iter().zip(reports) {
        let r = r?;
        let verdict = if r.lost_messages > 0 || r.num_messages != origins.len() {
            Err(format!(
                "{} of {} messages lost",
                r.lost_messages, r.num_messages
            ))
        } else {
            Ok(())
        };
        ctx.check(span, verdict).then_some(())?;
        ok.push(r);
    }
    let [uniform, weighted, coded] = <[GossipReport; 3]>::try_from(ok).ok()?;

    // Useful deliveries: every message reaches the n − 1 vertices that did
    // not originate it.
    let useful = ((g.n() - 1) * origins.len()) as f64;
    let tree_waste = (uniform.wasted_bandwidth + weighted.wasted_bandwidth) as f64;
    pass.counters.push(("graph.edges", g.m() as f64));
    cds_counters(&mut pass, &packing, &ex);
    pass.counters.extend([
        (
            "gossip.schedule_digest",
            digest53(
                uniform.schedule_digest
                    ^ weighted.schedule_digest.rotate_left(1)
                    ^ coded.schedule_digest.rotate_left(2),
            ),
        ),
        (
            "gossip.peak_state_words",
            uniform.peak_state_words.max(weighted.peak_state_words) as f64,
        ),
        ("rlnc.rounds", coded.rounds as f64),
        ("rlnc.peak_state_words", coded.peak_state_words as f64),
        (
            "gossip.useful_ratio",
            2.0 * useful / (2.0 * useful + tree_waste),
        ),
        (
            "rlnc.innovative_ratio",
            useful / (useful + coded.wasted_bandwidth as f64),
        ),
    ]);
    let rounds = uniform.rounds + weighted.rounds + coded.rounds;
    pass.sim_rounds = rounds;
    pass.messages = 3 * origins.len();
    pass.diss_rounds = rounds;
    Some(pass)
}

/// Fits a 64-bit digest into a JSON number that round-trips exactly.
pub fn digest53(d: u64) -> f64 {
    (d & ((1 << 53) - 1)) as f64
}

/// FNV-1a over the pass's exact counters, in a fixed order.
fn fingerprint(pass: &Pass) -> u64 {
    let mut words = vec![
        pass.sim_rounds as u64,
        pass.tree_weight.to_bits(),
        pass.messages as u64,
        pass.diss_rounds as u64,
    ];
    for &(_, v) in &pass.counters {
        words.push(v.to_bits());
    }
    for c in &pass.sim_calls {
        let s = c.stats;
        words.extend(
            [
                s.rounds,
                s.messages,
                s.words,
                s.local_words,
                s.cross_shard_words,
                s.peak_queued_messages,
                s.peak_arena_words,
                s.wasted_bandwidth,
            ]
            .map(|x| x as u64),
        );
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
