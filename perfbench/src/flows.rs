//! The flow workloads, `table1` and `large`: each circuit is imported,
//! optimized pass by pass through one shared `OptContext`, verified,
//! exported and (on `table1`) mapped and written, with every call timed.

use mig_core::{Mig, OptContext, PassKind};
use mig_netlist::{parse_verilog, write_verilog, Network};
use mig_techmap::{map_mig, CellLibrary, MapConfig};

use crate::{cpu, eval, gen, stats, Layers, Outcome, RunConfig};

/// Equivalence rounds of the program's own checks (the `mighty opt`
/// default).
const ROUNDS: usize = 32;
/// Circuits faster than this (ms) are timed again after each slower one
/// in an untraced round.
const SHORT_MS: f64 = 100.0;

struct FlowSpec {
    passes: Vec<PassKind>,
    effort: usize,
    /// Map onto cmos22, check the mapped netlist and write Verilog.
    map_and_write: bool,
}

/// Span name, ledger-time metric and gain metrics of one pass.
fn pass_names(kind: PassKind) -> (&'static str, &'static str, &'static str, &'static str) {
    match kind {
        PassKind::Size => (
            "core.opt.size",
            "core.opt.size_ms",
            "core.opt.size.dsize",
            "core.opt.size.ddepth",
        ),
        PassKind::Rewrite => (
            "core.opt.rewrite",
            "core.opt.rewrite_ms",
            "core.opt.rewrite.dsize",
            "core.opt.rewrite.ddepth",
        ),
        PassKind::Depth => (
            "core.opt.depth",
            "core.opt.depth_ms",
            "core.opt.depth.dsize",
            "core.opt.depth.ddepth",
        ),
        PassKind::DepthRewrite => (
            "core.opt.depth_rewrite",
            "core.opt.depth_rewrite_ms",
            "core.opt.depth_rewrite.dsize",
            "core.opt.depth_rewrite.ddepth",
        ),
        PassKind::Activity => (
            "core.opt.activity",
            "core.opt.activity_ms",
            "core.opt.activity.dsize",
            "core.opt.activity.ddepth",
        ),
        other => panic!("pass {other} is in no benchmark flow"),
    }
}

/// Final MIG metrics of one circuit.
#[derive(Clone, Copy, Default)]
struct Quality {
    size: f64,
    depth: f64,
    activity: f64,
    area: f64,
    delay: f64,
    cells: f64,
}

/// One circuit through the flow. Returns its timed wall and CPU
/// latencies (ms), its final quality, and the number of failed checks;
/// adds every call's
/// time and the per-pass and level counters to `layers`.
fn run_circuit(
    net: &Network,
    spec: &FlowSpec,
    ctx: &mut OptContext,
    layers: &mut Layers,
    seed: u64,
    mismatches: &mut Vec<String>,
) -> ((f64, f64), Quality, u64) {
    let name = net.name();
    let lib = CellLibrary::shared_by_name("cmos22").expect("stock library");
    let span = crate::trace::span("perfbench.circuit", name);
    let start = cpu::Stopwatch::start();
    let imported = layers.time("core.convert.import", name, || Mig::from_network(net));
    let mut cur = layers.time("core.convert.import", name, || imported.cleanup());
    for &kind in &spec.passes {
        let pass = kind.build(spec.effort);
        cur = layers.time(pass_names(kind).0, name, || ctx.run_pass(&*pass, cur));
    }
    let mig_equiv = layers.time("core.simulate.equiv", name, || cur.equiv(&imported, ROUNDS));
    let optimized = layers.time("core.convert.export", name, || cur.to_network());
    let net_equiv = layers.time("sim.equiv", name, || {
        mig_sim::equivalent(net, &optimized, ROUNDS)
    });
    let mapped = spec.map_and_write.then(|| {
        let design = layers.time("techmap.map", name, || {
            map_mig(&cur, &lib, &MapConfig::default())
        });
        let (mapped_net, map_equiv) = layers.time("techmap.verify", name, || {
            let mapped_net = design.to_network();
            let ok = mig_sim::equivalent(net, &mapped_net, ROUNDS);
            (mapped_net, ok)
        });
        let verilog = layers.time("netlist.write", name, || write_verilog(&optimized));
        (design, mapped_net, map_equiv, verilog)
    });
    let (wall_s, cpu_s) = start.elapsed_s();
    let latency = (wall_s * 1e3, cpu_s * 1e3);
    drop(span);

    // Untimed bookkeeping and the benchmark's own checks.
    let mut failed = u64::from(!mig_equiv) + u64::from(!net_equiv);
    let mut first_size = true;
    for r in ctx.take_ledger() {
        let kind = PassKind::parse(&r.pass).expect("ledger names are pass names");
        let (_, ms_key, dsize, ddepth) = pass_names(kind);
        layers.add(ms_key, r.millis);
        layers.add(dsize, r.before.size as f64 - r.after.size as f64);
        layers.add(ddepth, f64::from(r.before.depth) - f64::from(r.after.depth));
        if kind == PassKind::Activity {
            layers.add(
                "core.opt.activity.dactivity",
                r.before.activity - r.after.activity,
            );
        }
        if kind == PassKind::Size {
            let key = if first_size {
                "core.opt.size.first_ms"
            } else {
                "core.opt.size.repeat_ms"
            };
            layers.add(key, r.millis);
            first_size = false;
        }
        failed += u64::from(r.outcome.degraded());
    }
    let lv = ctx.take_level_stats();
    layers.add(
        "core.level.incremental_repairs",
        lv.incremental_repairs as f64,
    );
    layers.add("core.level.repaired_nodes", lv.repaired_nodes as f64);
    layers.add("core.level.global_rebuilds", lv.global_rebuilds as f64);
    layers.add("core.level.global_nodes", lv.global_nodes as f64);
    layers.max("core.mig.arena_bytes", cur.arena_bytes() as f64);
    layers.max("core.strash.bytes", cur.strash_bytes() as f64);
    layers.max(
        "core.opt.rewrite_cache_entries",
        ctx.rewrite_cache_entries() as f64,
    );

    let mut quality = Quality {
        size: cur.size() as f64,
        depth: f64::from(cur.depth()),
        activity: cur.switching_activity_uniform(),
        ..Quality::default()
    };
    failed += check(net, "optimized", &optimized, seed, mismatches);
    if let Some((design, mapped_net, map_equiv, verilog)) = mapped {
        failed += u64::from(!map_equiv) + check(net, "mapped", &mapped_net, seed, mismatches);
        failed += match parse_verilog(&verilog) {
            Ok(written) => check(net, "written", &written, seed, mismatches),
            Err(e) => {
                mismatches.push(format!("{name} written Verilog does not parse: {e}"));
                1
            }
        };
        quality.area = design.area();
        quality.delay = design.delay();
        quality.cells = design.num_cells() as f64;
    }
    (latency, quality, failed)
}

/// The benchmark's own check of one output netlist; 1 on a mismatch.
fn check(
    net: &Network,
    what: &str,
    candidate: &Network,
    seed: u64,
    mismatches: &mut Vec<String>,
) -> u64 {
    match eval::check_same_function(net, candidate, seed) {
        Ok(()) => 0,
        Err(e) => {
            mismatches.push(format!("{} {what}: {e}", net.name()));
            1
        }
    }
}

/// Runs `circuits` through `spec` in timed rounds and fills the outcome.
fn run_flow_workload(
    cfg: &RunConfig,
    setup: Layers,
    circuits: &[Network],
    spec: &FlowSpec,
    warm_up: &Network,
) -> Result<Outcome, String> {
    let mut ctx = OptContext::with_jobs(1);
    let mut mismatches = Vec::new();
    // Warm-up, outside the timed phase: first-touch of the code paths
    // and the context's buffers.
    run_circuit(
        warm_up,
        spec,
        &mut ctx,
        &mut Layers::default(),
        cfg.seed,
        &mut mismatches,
    );

    let mut out = Outcome::default();
    let mut per_item: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    let mut per_item_cpu: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    let mut quality = vec![Quality::default(); circuits.len()];
    let (mut plain, mut traced) = (Layers::default(), Layers::default());
    let mut traced_rounds = Vec::new();
    let (_, n_traced) = cfg.phases(|is_traced| {
        let layers = if is_traced { &mut traced } else { &mut plain };
        let mut round_ms = 0.0;
        let mut short = Vec::new();
        for (i, net) in circuits.iter().enumerate() {
            let ((lat, cpu_ms), q, failed) =
                run_circuit(net, spec, &mut ctx, layers, cfg.seed, &mut mismatches);
            round_ms += lat;
            quality[i] = q;
            out.attempted += 1;
            out.failed += failed;
            if is_traced {
                continue;
            }
            per_item[i].push(lat);
            per_item_cpu[i].push(cpu_ms);
            if lat < SHORT_MS {
                short.push(i);
                continue;
            }
            // The host's speed drifts over seconds, so the short circuits
            // seen so far are timed again after each long one: their
            // samples then spread over the round instead of sharing one
            // moment. These runs are not part of the round's layer times.
            for &j in &short {
                let ((lat, cpu_ms), _, failed) = run_circuit(
                    &circuits[j],
                    spec,
                    &mut ctx,
                    &mut Layers::default(),
                    cfg.seed,
                    &mut mismatches,
                );
                per_item[j].push(lat);
                per_item_cpu[j].push(cpu_ms);
                out.attempted += 1;
                out.failed += failed;
            }
        }
        if is_traced {
            traced_rounds.push(round_ms / 1e3);
        } else {
            out.round_s.push(round_ms / 1e3);
        }
        Ok(true)
    })?;

    out.item_ms = per_item.iter().map(|v| stats::median(v)).collect();
    out.wall_s = out.item_ms.iter().sum::<f64>() / 1e3;
    out.cpu_s = per_item_cpu.iter().map(|v| stats::median(v)).sum::<f64>() / 1e3;
    out.size = quality.iter().map(|q| q.size).sum();
    out.depth = quality.iter().map(|q| q.depth).sum();
    out.activity = quality.iter().map(|q| q.activity).sum();
    out.correct = mismatches.is_empty();
    out.notes.extend(mismatches.iter().take(10).cloned());
    for (i, net) in circuits.iter().enumerate() {
        out.notes.push(format!(
            "{:<10} {:>8.1} ms  cpu {:>8.1} ms  size {:>7}  depth {:>5}  activity {:>10.2}",
            net.name(),
            stats::median(&per_item[i]),
            stats::median(&per_item_cpu[i]),
            quality[i].size,
            quality[i].depth,
            quality[i].activity
        ));
    }
    if spec.map_and_write {
        let area: f64 = quality.iter().map(|q| q.area).sum();
        let delay: f64 = quality.iter().map(|q| q.delay).sum();
        out.notes.push(format!(
            "cmos22 mapped: area_um2 {area:.2}  delay_ns {delay:.4}"
        ));
    }

    let layers = if cfg.trace { &traced } else { &plain };
    let rounds = if cfg.trace {
        n_traced
    } else {
        out.round_s.len()
    }
    .max(1) as f64;
    out.fill_layers(&setup, layers, rounds);
    out.set(
        "core.level.nodes_per_repair",
        layers.get("core.level.repaired_nodes")
            / layers.get("core.level.incremental_repairs").max(1.0),
    );
    for key in [
        "core.mig.arena_bytes",
        "core.strash.bytes",
        "core.opt.rewrite_cache_entries",
    ] {
        out.set(key, layers.get(key));
    }
    if spec.map_and_write {
        out.set("techmap.cells", quality.iter().map(|q| q.cells).sum());
        out.set("techmap.area_um2", quality.iter().map(|q| q.area).sum());
        out.set("techmap.delay_ns", quality.iter().map(|q| q.delay).sum());
    }
    out.set_overhead(&traced_rounds);
    Ok(out)
}

/// `table1`: the paper's Table I flow on the 14 MCNC stand-ins.
pub fn table1(cfg: &RunConfig, setup: Layers) -> Result<Outcome, String> {
    let circuits = gen::table1(cfg.seed);
    let spec = FlowSpec {
        passes: vec![
            PassKind::Size,
            PassKind::Rewrite,
            PassKind::Depth,
            PassKind::Activity,
        ],
        effort: 4,
        map_and_write: true,
    };
    let warm = mig_benchgen::generate("count").expect("MCNC name");
    run_flow_workload(cfg, setup, &circuits, &spec, &warm)
}

/// `large`: `mul_1m` and a seeded `alu_400k` through the large flow.
pub fn large(cfg: &RunConfig, setup: Layers) -> Result<Outcome, String> {
    let circuits = gen::large(cfg.seed);
    let spec = FlowSpec {
        passes: vec![
            PassKind::Size,
            PassKind::Size,
            PassKind::Rewrite,
            PassKind::DepthRewrite,
            PassKind::Depth,
        ],
        effort: 4,
        map_and_write: false,
    };
    let warm = mig_benchgen::wide_multiplier(24);
    run_flow_workload(cfg, setup, &circuits, &spec, &warm)
}
