//! Distributed CDS packing in V-CONGEST (Theorem 1.1, Appendix B).
//!
//! Each real node simulates its `3L = Θ(log n)` virtual nodes; one
//! *meta-round* (`Θ(log n)` virtual-graph rounds) corresponds to one
//! simulator round carrying `O(log n)` words. The per-layer pipeline is
//! Appendix B's:
//!
//! 1. **component identification** of the old nodes, per class — our
//!    Theorem-B.2 stand-in is multi-key min-label flooding
//!    ([`decomp_congest::multiflood`]), running all classes simultaneously;
//! 2. **deactivation** of components already bridged by a type-1 new node
//!    (connector announcements + component-wide OR flood);
//! 3. **bridging-graph formation** — type-3 new nodes announce their
//!    suitable components (`(class, comp)` or the `connector` symbol);
//!    type-2 new nodes assemble their neighbor lists;
//! 4. **maximal matching** in `O(log n)` stages of Luby-style proposals:
//!    type-2 nodes propose with random values, components accept their
//!    maximum via a component-wide max flood, winners join the class.
//!
//! Single-round neighborhood exchanges (class lists, component tables,
//! proposals) are performed by the driver on locally-known state and
//! charged one meta-round each — their message content is exactly the
//! neighbor state being read, so round accounting matches the protocol.
//! All component-wide steps run as real message-passing floods.

use crate::cds::centralized::{CdsPacking, CdsPackingConfig, LayerTrace};
use crate::virtual_graph::{default_layers, VType, VirtualLayout};
use decomp_congest::multiflood::{multikey_flood, Combine};
use decomp_congest::{Model, SimError, Simulator};
use decomp_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Entry of a class-indexed `n × t` component table for a class the
/// node does not hold.
const ABSENT: u64 = u64::MAX;

/// Runs the distributed CDS-packing construction on `sim` (V-CONGEST).
///
/// Produces the same object as [`crate::cds::centralized::cds_packing`];
/// round costs accumulate in `sim.stats()`.
///
/// # Errors
/// Propagates simulator round-limit errors from the flooding subroutines.
///
/// # Panics
/// Panics if `sim` is not a V-CONGEST simulator or the graph is empty.
#[allow(clippy::needless_range_loop)] // lockstep loops index several per-node arrays at once
pub fn cds_packing_distributed(
    sim: &mut Simulator<'_>,
    config: &CdsPackingConfig,
) -> Result<CdsPacking, SimError> {
    assert_eq!(
        sim.model(),
        Model::VCongest,
        "Theorem 1.1 is a V-CONGEST result"
    );
    let n = sim.graph().n();
    assert!(n > 0, "CDS packing needs a non-empty graph");
    let layers = default_layers(n, config.layers_factor);
    let layout = VirtualLayout::new(n, layers);
    let t = config.num_classes;
    let half = layout.jump_start();
    let mut class_of: Vec<Option<u32>> = vec![None; layout.total()];
    // Per-node private coins.
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|v| StdRng::seed_from_u64(config.seed.wrapping_mul(0x100000001b3) ^ v as u64))
        .collect();

    // old_classes[v] = sorted classes with an old virtual node on v.
    let mut old_classes: Vec<Vec<u32>> = vec![Vec::new(); n];
    let add_class = |oc: &mut Vec<Vec<u32>>, v: usize, c: u32| {
        if let Err(pos) = oc[v].binary_search(&c) {
            oc[v].insert(pos, c);
        }
    };

    // --- Jump start (local coin flips; no communication) ----------------
    for layer in 0..half {
        for v in 0..n {
            for vtype in VType::ALL {
                let c = rngs[v].gen_range(0..t) as u32;
                class_of[layout.vid(v, layer, vtype)] = Some(c);
                add_class(&mut old_classes, v, c);
            }
        }
    }

    let graph = sim.graph().clone();
    let closed = |v: usize| std::iter::once(v).chain(graph.neighbors(v).iter().copied());
    // A component is (class, component-min id); at most one per class
    // and node, so `class · n + cid` indexes components densely.
    let comp_key = |class: u32, comp: u64| -> u64 { class as u64 * n as u64 + comp };
    let mut probe = Simulator::new(&graph, Model::VCongest).with_engine(sim.engine());

    let mut trace = Vec::with_capacity(layers - half);
    for layer in half..layers {
        // (1) Component identification per class: key = class,
        //     value = real id; fixpoint = component-min per class.
        //     comp[v·t + c] = id of v's class-c component, or ABSENT.
        let comp = identify_components(sim, &old_classes, t)?;
        let cid_at = |x: usize, class: u32| comp[x * t + class as usize];
        let comp_key_at = |v: usize, c: u32| comp_key(c, cid_at(v, c));
        let excess_before = excess_components(&comp, &old_classes, t);

        // One meta-round: everyone learns the neighbors' (class, comp)
        // tables.
        sim.charge_rounds(1);

        // (2) Type-1 / type-3 random classes (local).
        let c1: Vec<u32> = (0..n).map(|v| rngs[v].gen_range(0..t) as u32).collect();
        let c3: Vec<u32> = (0..n).map(|v| rngs[v].gen_range(0..t) as u32).collect();
        for v in 0..n {
            class_of[layout.vid(v, layer, VType::T1)] = Some(c1[v]);
            class_of[layout.vid(v, layer, VType::T3)] = Some(c3[v]);
        }

        // Deactivation: type-1 connectors announce; adjacent components
        // deactivate and flood the flag component-wide. Every member of
        // a component must learn the flag, so all members take part in
        // the OR flood with default 0.
        let mut flags = vec![0u64; n * t];
        for v in 0..n {
            let i = c1[v];
            let mut seen: Vec<u64> = Vec::new();
            for x in closed(v) {
                let cid = cid_at(x, i);
                if cid != ABSENT && !seen.contains(&cid) {
                    seen.push(cid);
                }
            }
            if seen.len() >= 2 {
                // The connector message reaches the adjacent old nodes,
                // which seed the component-wide OR flood.
                for x in closed(v) {
                    if cid_at(x, i) != ABSENT {
                        flags[x * t + i as usize] = 1;
                    }
                }
            }
        }
        sim.charge_rounds(1); // connector announcement meta-round
        flood_held(sim, &old_classes, t, comp_key_at, &mut flags, Combine::Max)?;
        let is_deactivated = |v: usize, class: u32| flags[v * t + class as usize] == 1;
        let mut deactivated_count = 0usize;
        {
            let mut seen = vec![false; t * n];
            for v in 0..n {
                for &c in &old_classes[v] {
                    let key = comp_key_at(v, c) as usize;
                    if is_deactivated(v, c) && !seen[key] {
                        seen[key] = true;
                        deactivated_count += 1;
                    }
                }
            }
        }

        // (3) Bridging graph: type-3 announcements -> type-2 lists.
        //     mw = None | One(comp) | Connector, per type-3 node.
        #[derive(Clone, Copy, PartialEq)]
        enum Mw {
            None,
            One(u64),
            Connector,
        }
        let mw: Vec<Mw> = (0..n)
            .map(|v| {
                let mut seen: Vec<u64> = Vec::new();
                for x in closed(v) {
                    let cid = cid_at(x, c3[v]);
                    if cid != ABSENT && !seen.contains(&cid) {
                        seen.push(cid);
                    }
                }
                match seen.len() {
                    0 => Mw::None,
                    1 => Mw::One(seen[0]),
                    _ => Mw::Connector,
                }
            })
            .collect();
        sim.charge_rounds(1); // type-3 announcement meta-round

        // Type-2 node x's neighbor list: active components (class i, comp c)
        // with an old node in the closed neighborhood, passing condition
        // (c) — in closed-neighborhood order, each node's classes ascending.
        let mut lists: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for x in 0..n {
            let mut list: Vec<(u32, u64)> = Vec::new();
            for y in closed(x) {
                for &class in &old_classes[y] {
                    if is_deactivated(y, class) {
                        continue;
                    }
                    let cid = cid_at(y, class);
                    // condition (c): some type-3 new neighbor w of x joined
                    // `class` and reaches a component != cid (or connector).
                    let ok = closed(x).any(|w| {
                        c3[w] == class
                            && match mw[w] {
                                Mw::None => false,
                                Mw::One(other) => other != cid,
                                Mw::Connector => true,
                            }
                    });
                    if ok && !list.contains(&(class, cid)) {
                        list.push((class, cid));
                    }
                }
            }
            lists[x] = list;
        }

        // (4) Maximal matching in O(log n) proposal stages.
        let stages = 2 * ((n.max(2) as f64).log2().ceil() as usize) + 2;
        let mut c2: Vec<Option<u32>> = vec![None; n];
        let mut matched_components = vec![false; t * n];
        let mut matched = 0usize;
        for _stage in 0..stages {
            // Unmatched type-2 nodes propose to their best random option.
            // proposal value = (random 31 bits) << 32 | proposer id.
            let mut proposals: Vec<Option<(u32, u64, u64)>> = vec![None; n];
            let mut any = false;
            for x in 0..n {
                if c2[x].is_some() || lists[x].is_empty() {
                    continue;
                }
                let (mut best, mut best_val) = ((0u32, 0u64), 0u64);
                for &(class, cid) in &lists[x] {
                    let r = (rngs[x].gen::<u32>() as u64 >> 1) << 32 | x as u64;
                    if r > best_val {
                        best_val = r;
                        best = (class, cid);
                    }
                }
                proposals[x] = Some((best.0, best.1, best_val));
                any = true;
            }
            if !any {
                break;
            }
            sim.charge_rounds(1); // proposal meta-round
                                  // Old nodes adjacent to proposers seed the component-wide max.
            let mut accepted = vec![0u64; n * t];
            for x in 0..n {
                if let Some((class, cid, val)) = proposals[x] {
                    for y in closed(x) {
                        if cid_at(y, class) == cid {
                            let slot = &mut accepted[y * t + class as usize];
                            *slot = (*slot).max(val);
                        }
                    }
                }
            }
            flood_held(
                sim,
                &old_classes,
                t,
                comp_key_at,
                &mut accepted,
                Combine::Max,
            )?;
            sim.charge_rounds(1); // acceptance announcement meta-round
                                  // Winners join; losers prune accepted components from lists.
            for x in 0..n {
                if let Some((class, cid, val)) = proposals[x] {
                    let key = comp_key(class, cid) as usize;
                    // x hears the accepted value from any adjacent member.
                    let heard = closed(x)
                        .filter(|&y| cid_at(y, class) == cid)
                        .map(|y| accepted[y * t + class as usize])
                        .max()
                        .unwrap_or(0);
                    if heard == val && !matched_components[key] {
                        c2[x] = Some(class);
                        matched_components[key] = true;
                        matched += 1;
                    }
                }
            }
            // Prune matched components from every list.
            for x in 0..n {
                lists[x].retain(|&(class, cid)| !matched_components[comp_key(class, cid) as usize]);
            }
        }
        // Unmatched type-2 nodes pick random classes.
        for x in 0..n {
            let c = match c2[x] {
                Some(c) => c,
                None => rngs[x].gen_range(0..t) as u32,
            };
            class_of[layout.vid(x, layer, VType::T2)] = Some(c);
            c2[x] = Some(c);
        }

        // Finalize the layer locally.
        for v in 0..n {
            add_class(&mut old_classes, v, c1[v]);
            add_class(&mut old_classes, v, c3[v]);
            add_class(&mut old_classes, v, c2[v].unwrap());
        }

        // Post-layer instrumentation (driver-side; not a protocol step).
        let comp_after = identify_components(&mut probe, &old_classes, t)?;
        let excess_after = excess_components(&comp_after, &old_classes, t);
        trace.push(LayerTrace {
            layer,
            excess_before,
            excess_after,
            matched,
            deactivated: deactivated_count,
        });
    }

    // Projection.
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); t];
    for v in 0..n {
        for &c in &old_classes[v] {
            classes[c as usize].push(v);
        }
    }
    Ok(CdsPacking {
        layout,
        num_classes: t,
        class_of,
        classes,
        trace,
    })
}

/// Component identification for every class at once: a min-label flood
/// keyed by class. Returns the class-indexed `n × t` table of component
/// ids (the component's minimum real id), [`ABSENT`] where a node holds
/// no old node of the class.
fn identify_components(
    sim: &mut Simulator<'_>,
    held: &[Vec<u32>],
    t: usize,
) -> Result<Vec<u64>, SimError> {
    let mut comp = vec![ABSENT; held.len() * t];
    for (v, classes) in held.iter().enumerate() {
        for &c in classes {
            comp[v * t + c as usize] = v as u64;
        }
    }
    flood_held(sim, held, t, |_, c| c as u64, &mut comp, Combine::Min)?;
    Ok(comp)
}

/// One [`multikey_flood`] over the classes each node holds: node `v`
/// enters `(key(v, c), vals[v·t + c])` for every `c` in `held[v]` and
/// reads the fixpoint back into `vals`. `key` must increase with `c`
/// (`held[v]` is sorted), so every table is key-sorted.
fn flood_held(
    sim: &mut Simulator<'_>,
    held: &[Vec<u32>],
    t: usize,
    key: impl Fn(usize, u32) -> u64,
    vals: &mut [u64],
    combine: Combine,
) -> Result<(), SimError> {
    let tables = held
        .iter()
        .enumerate()
        .map(|(v, classes)| {
            classes
                .iter()
                .map(|&c| (key(v, c), vals[v * t + c as usize]))
                .collect()
        })
        .collect();
    let fixpoint = multikey_flood(sim, tables, combine)?;
    for (v, (classes, table)) in held.iter().zip(fixpoint).enumerate() {
        for (&c, (_, value)) in classes.iter().zip(table) {
            vals[v * t + c as usize] = value;
        }
    }
    Ok(())
}

/// Counts `Σ_i max(0, N_i − 1)` from a class-indexed component table.
fn excess_components(comp: &[u64], held: &[Vec<u32>], t: usize) -> usize {
    let n = held.len();
    let mut seen = vec![false; t * n];
    let mut comps_per_class = vec![0usize; t];
    for (v, classes) in held.iter().enumerate() {
        for &c in classes {
            let c = c as usize;
            let key = c * n + comp[v * t + c] as usize;
            if !seen[key] {
                seen[key] = true;
                comps_per_class[c] += 1;
            }
        }
    }
    comps_per_class
        .into_iter()
        .map(|k| k.saturating_sub(1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cds::verify::{verify_centralized, VerifyOutcome};
    use decomp_graph::generators;

    #[test]
    fn distributed_packing_classes_are_cds() {
        let g = generators::harary(12, 48);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(12, 3)).unwrap();
        assert!(p.num_classes() >= 2);
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
        assert!(sim.stats().rounds > 0);
        assert!(sim.stats().messages > 0);
    }

    #[test]
    fn hypercube_distributed() {
        let g = generators::hypercube(5); // 32 nodes, k = 5
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(5, 7)).unwrap();
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
    }

    #[test]
    fn single_class_any_connected_graph() {
        let g = generators::random_connected(24, 8, 5);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_classes(1, 2)).unwrap();
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
    }

    #[test]
    fn excess_never_increases() {
        let g = generators::harary(8, 40);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(8, 1)).unwrap();
        for tr in &p.trace {
            assert!(
                tr.excess_after <= tr.excess_before,
                "layer {}: {} -> {}",
                tr.layer,
                tr.excess_before,
                tr.excess_after
            );
        }
        assert_eq!(p.trace.last().unwrap().excess_after, 0);
    }

    #[test]
    fn multiplicity_logarithmic() {
        let g = generators::harary(10, 50);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(10, 9)).unwrap();
        assert!(p.max_real_multiplicity() <= 3 * p.layout.layers());
    }

    #[test]
    fn identical_calls_return_identical_stats_and_classes() {
        // t = 8 classes: nodes hold more than the 4 keys one flood
        // message carries, so the order in which a node first announces
        // its keys decides later rounds and messages.
        let g = generators::harary(32, 128);
        let cfg = CdsPackingConfig::with_known_k(32, 1);
        let run = || {
            let mut sim = Simulator::new(&g, Model::VCongest);
            let p = cds_packing_distributed(&mut sim, &cfg).unwrap();
            (sim.stats(), p.class_of)
        };
        let first = run();
        for _ in 0..2 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::harary(6, 30);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Model::VCongest);
            cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(6, seed))
                .unwrap()
                .classes
        };
        assert_eq!(run(4), run(4));
    }
}
