//! Repository benchmark: generate → decompose → disseminate, end to end and
//! per layer.
//!
//! ```text
//! perfbench --workload <harary_distributed|rr_alltoall>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--rustc <version>] [--git-rev <rev>]
//! ```
//!
//! A run makes the workload's inputs from `--seed`, runs one untimed warm-up
//! pass, then repeats timed passes until `--seconds` have elapsed (at least
//! [`MIN_PASSES`]). Every pass is checked (see `workloads`) and its exact
//! counters are fingerprinted; a fingerprint that drifts between passes of
//! one run is a failure. Every per-pass value is reported as its median
//! over the run's passes.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` untraced and traced passes alternate, the traced ones
//! also repeat each simulated call on the sharded engine, and the last
//! line reports the per-layer metrics. Lines before it give the run's
//! provenance and fingerprint.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Ctx, Tracer};
use workloads::{digest53, Pass, ENGINE, NAMES, SHARDED};

/// Fewest timed passes a run reports its figures over.
const MIN_PASSES: usize = 5;

/// A run stops starting passes after this long, whatever `--seconds` says,
/// so that it ends well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("decompose_s", "s"),
    ("disseminate_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("sim_rounds", "rounds"),
    ("tree_weight", "trees"),
    ("msgs_per_round", "msgs/round"),
];

/// Layer spans and the per-layer metric each one feeds: the span's wall
/// seconds in a traced pass.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("graph.generate", "graph.generate_s"),
    ("congest.build", "congest.build_s"),
    ("cds.packing", "cds.packing_s"),
    ("cds.extract", "cds.extract_s"),
    ("cds_dist", "cds_dist.s"),
    ("stp_dist", "stp_dist.s"),
    ("protocol", "protocol.s"),
    ("gossip.uniform", "gossip.uniform_s"),
    ("gossip.weighted", "gossip.weighted_s"),
    ("rlnc", "rlnc.s"),
];

/// Per-layer metrics, reported with `--trace 1`. A metric of a layer the
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("graph.generate_s", "s"),
    ("graph.edges", "count"),
    ("congest.build_s", "s"),
    ("cds.packing_s", "s"),
    ("cds.extract_s", "s"),
    ("cds.layers", "count"),
    ("cds.classes", "count"),
    ("cds.final_excess", "count"),
    ("cds.trees", "count"),
    ("cds_dist.s", "s"),
    ("cds_dist.rounds", "rounds"),
    ("cds_dist.messages", "count"),
    ("stp_dist.s", "s"),
    ("stp_dist.rounds", "rounds"),
    ("stp_dist.iterations", "count"),
    ("stp_dist.trees", "count"),
    ("stp_dist.weight", "trees"),
    ("congest.rounds_per_s", "1/s"),
    ("congest.words_per_s", "1/s"),
    ("congest.cross_ratio", "ratio"),
    ("congest.peak_queued_messages", "count"),
    ("congest.peak_arena_words", "words"),
    ("congest.sharded_speedup", "x"),
    ("protocol.s", "s"),
    ("gossip.uniform_s", "s"),
    ("gossip.weighted_s", "s"),
    ("rlnc.s", "s"),
    ("gossip.schedule_digest", "digest"),
    ("gossip.peak_state_words", "words"),
    ("rlnc.rounds", "rounds"),
    ("rlnc.peak_state_words", "words"),
    ("gossip.useful_ratio", "ratio"),
    ("rlnc.innovative_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.traced_total_s", "s"),
    ("counters.fingerprint", "digest"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |flag: &str| flags.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {NAMES:?})"));
    }
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("{flag} is required"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let args = Args {
        workload,
        seed: number(take("--seed"), "--seed")?,
        seconds: number(take("--seconds"), "--seconds")?,
        trace: match take("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        trace_out: take("--trace-out"),
        rustc: take("--rustc").unwrap_or_else(|| "unknown".into()),
        git_rev: take("--git-rev").unwrap_or_else(|| "unknown".into()),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

/// The median of a run's per-pass values. On a shared host the fastest
/// pass is a lucky draw: over ten runs per workload it spread 1.4–4 times
/// as much as the median did, and the lower quartile up to 1.6 times.
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-layer values of one traced pass, from its spans and counters.
fn layer_values(spans: &Tracer, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let it = spans.iteration();
    let of_pass = || spans.spans.iter().filter(move |s| s.iteration == it);
    let secs = |name: &str| -> f64 {
        of_pass()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .fold(0.0, |a, b| a + b)
    };
    let mut out: BTreeMap<&'static str, f64> = pass.counters.iter().copied().collect();

    // Stage self time: what the stage spans hold outside any layer span.
    let stage_ids: Vec<usize> = (0..spans.spans.len())
        .filter(|&i| spans.spans[i].iteration == it && spans.spans[i].parent.is_none())
        .filter(|&i| ["setup", "decompose", "disseminate"].contains(&spans.spans[i].name))
        .collect();
    let staged = stage_ids
        .iter()
        .fold(0.0, |a, &i| a + spans.spans[i].secs());
    let layered = of_pass()
        .filter(|s| s.parent.is_some_and(|p| stage_ids.contains(&p)))
        .fold(0.0, |a, s| a + s.secs());
    out.insert("trace.unattributed_s", staged - layered);
    for (span, metric) in LAYER_SPANS {
        out.insert(metric, secs(span));
    }

    if !pass.sim_calls.is_empty() {
        let timed: f64 = pass.sim_calls.iter().map(|c| secs(c.span)).sum();
        let sharded: f64 = pass
            .sim_calls
            .iter()
            .map(|c| secs(&format!("sharded.{}", c.span)))
            .sum();
        let total = |f: fn(&decomp_congest::RunStats) -> usize| -> f64 {
            pass.sim_calls.iter().map(|c| f(&c.stats) as f64).sum()
        };
        let peak = |f: fn(&decomp_congest::RunStats) -> usize| -> f64 {
            pass.sim_calls
                .iter()
                .map(|c| f(&c.stats))
                .max()
                .unwrap_or(0) as f64
        };
        let words = total(|s| s.words);
        out.insert("congest.rounds_per_s", total(|s| s.rounds) / timed);
        out.insert("congest.words_per_s", words / timed);
        let cross: usize = pass
            .sim_calls
            .iter()
            .filter_map(|c| c.sharded.map(|s| s.cross_shard_words))
            .sum();
        out.insert("congest.cross_ratio", cross as f64 / words);
        out.insert(
            "congest.peak_queued_messages",
            peak(|s| s.peak_queued_messages),
        );
        out.insert("congest.peak_arena_words", peak(|s| s.peak_arena_words));
        out.insert("congest.sharded_speedup", timed / sharded);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let instances: Vec<String> = workloads::instances(&args.workload, args.seed)
        .iter()
        .map(|s| json_string(s))
        .collect();
    println!(
        "provenance {{\"workload\":{},\"seed\":{},\"nproc\":{nproc},\"git_rev\":{},\"rustc\":{},\"engine\":\"{ENGINE}\",\"reference_engine\":\"{SHARDED}\",\"instances\":[{}]}}",
        json_string(&args.workload),
        args.seed,
        json_string(&args.git_rev),
        json_string(&args.rustc),
        instances.join(",")
    );

    let mut ctx = Ctx::new();
    let seconds = Duration::from_secs(args.seconds);
    let warmup = workloads::run(&args.workload, &mut ctx, args.seed, false);
    let expected = warmup.as_ref().map(|p| p.fingerprint);
    let mut drift = 0usize;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, BTreeMap<&'static str, f64>)> = Vec::new();
    let start = Instant::now();
    while expected.is_some() {
        let tracing = args.trace && untraced.len() > traced.len();
        ctx.trace
            .start_pass(untraced.len() + traced.len() + 1, tracing);
        let Some(pass) = workloads::run(&args.workload, &mut ctx, args.seed, tracing) else {
            break;
        };
        if Some(pass.fingerprint) != expected {
            drift += 1;
            ctx.failed += 1;
            ctx.failures.push(format!(
                "fingerprint drift: {:016x} != {:016x}",
                pass.fingerprint,
                expected.unwrap_or(0)
            ));
        }
        eprintln!(
            "pass {:>3}{}: setup {:.4}s decompose {:.4}s disseminate {:.4}s",
            ctx.trace.iteration(),
            if tracing { " (traced)" } else { "" },
            pass.stage_s[0],
            pass.stage_s[1],
            pass.stage_s[2]
        );
        if tracing {
            let values = layer_values(&ctx.trace, &pass);
            traced.push((pass, values));
        } else {
            untraced.push(pass);
        }
        let done = untraced.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        let elapsed = start.elapsed();
        if (done && elapsed >= seconds) || elapsed >= HARD_STOP {
            break;
        }
    }

    let fingerprint = expected.unwrap_or(0);
    println!(
        "fingerprint {} {fingerprint:016x} passes={} drift={drift}",
        args.workload,
        untraced.len() + traced.len() + 1
    );
    for f in &ctx.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if let (Some(path), true) = (&args.trace_out, args.trace) {
        if let Err(e) = std::fs::write(path, ctx.trace.to_json()) {
            eprintln!("perfbench: cannot write {path}: {e}");
            ctx.failed += 1;
        }
    }
    let complete = !untraced.is_empty() && (!args.trace || !traced.is_empty());
    let correct = ctx.failed == 0 && complete;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if complete {
        let pass_total = |p: &Pass| p.stage_s.iter().sum::<f64>();
        let total = median(untraced.iter().map(pass_total));
        if args.trace {
            let traced_total = median(traced.iter().map(|(p, _)| pass_total(p)));
            for (name, unit) in PER_LAYER {
                let values = traced
                    .iter()
                    .map(|(_, v)| v.get(name).copied().unwrap_or(0.0));
                let value = match name {
                    "trace.overhead_s" => traced_total - total,
                    "trace.traced_total_s" => traced_total,
                    "counters.fingerprint" => digest53(fingerprint),
                    _ => median(values),
                };
                metrics.push((name, value, unit));
            }
        } else {
            let p0 = &untraced[0];
            let stage = |i: usize| untraced.iter().map(move |p| p.stage_s[i]);
            let values = [
                median(stage(0)),
                median(stage(1)),
                median(stage(2)),
                total,
                peak_rss_mb(),
                ctx.attempted.saturating_sub(ctx.failed) as f64 / ctx.attempted as f64,
                p0.sim_rounds as f64,
                p0.tree_weight,
                p0.messages as f64 / p0.diss_rounds as f64,
            ];
            for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, value, unit));
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.attempted,
        ctx.failed,
        body.join(",")
    );
}
