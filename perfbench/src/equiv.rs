//! The `equiv` workload: known-answer pairs timed through the call
//! `mighty equiv` makes, `mig_sim::equivalent` at its default 32 rounds.
//!
//! Each seeded base circuit (8 to 1,494 inputs, up to about 100k gates)
//! yields four pairs whose answer the benchmark knows without asking a
//! verifier:
//! - `opt`: the circuit against its optimized form (equivalent; the form
//!   is also checked by the benchmark's own evaluator);
//! - `demorgan`: against a De Morgan/associativity rewrite (equivalent by
//!   construction);
//! - `k3`: against `y ^ AND(3 literals)` (differs on 1/8 of all minterms);
//! - `one`: against `y ^ AND(all inputs)` (differs on exactly one
//!   minterm). Above 16 inputs the verifier only samples patterns, so it
//!   calls these pairs equivalent: they are the known wrong verdicts.

use mig_core::{Flow, Mig, OptContext};
use mig_netlist::{Network, SplitMix64};

use crate::{cpu, eval, gen, stats, Layers, Outcome, RunConfig};

/// `mighty equiv`'s default rounds.
const ROUNDS: usize = 32;
/// The flow that makes each base's optimized form.
const PREP_FLOW: &str = "size";

struct Pair {
    name: String,
    base: usize,
    other: Network,
    equivalent: bool,
    /// Patterns the verifier evaluates unless it refutes early.
    patterns: f64,
}

pub fn run(cfg: &RunConfig, setup: Layers) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mismatches = Vec::new();
    let flow = Flow::parse(PREP_FLOW).expect("benchmark flow parses");
    let mut ctx = OptContext::with_jobs(1);
    let mut bases = Vec::with_capacity(gen::EQUIV_BASES);
    let mut pairs = Vec::new();
    for shape in 0..gen::EQUIV_BASES {
        let tag = format!("equiv{shape}");
        let net = gen::equiv_base(shape, gen::derive(cfg.seed, &tag));
        let n = net.num_inputs();
        let patterns = if n <= 16 {
            (1u64 << n) as f64
        } else {
            (64 * ROUNDS) as f64
        };
        let opt = flow.run(Mig::from_network(&net).cleanup(), 1, &mut ctx);
        ctx.take_ledger();
        out.size += opt.size() as f64;
        out.depth += f64::from(opt.depth());
        out.activity += opt.switching_activity_uniform();
        let opt_net = opt.to_network();
        // The optimized form's answer comes from the benchmark's own
        // evaluator, never from the verifier under test.
        let opt_equivalent = match eval::check_same_function(&net, &opt_net, cfg.seed) {
            Ok(()) => true,
            Err(e) => {
                mismatches.push(format!("{} optimized form: {e}", net.name()));
                false
            }
        };
        let mut rng = SplitMix64::seed_from_u64(gen::derive(cfg.seed, &format!("{tag}.mutants")));
        let out_k3 = rng.gen_range(0..net.num_outputs());
        let lits_k3 = gen::literals(&mut rng, n, 3.min(n));
        let out_one = rng.gen_range(0..net.num_outputs());
        let lits_one = gen::literals(&mut rng, n, n);
        let variants = [
            ("opt", opt_net, opt_equivalent),
            ("demorgan", gen::demorgan(&net), true),
            ("k3", gen::mutant(&net, out_k3, &lits_k3), false),
            ("one", gen::mutant(&net, out_one, &lits_one), false),
        ];
        for (kind, other, equivalent) in variants {
            pairs.push(Pair {
                name: format!("{}/{kind}", net.name()),
                base: shape,
                other,
                equivalent,
                patterns,
            });
        }
        bases.push(net);
    }
    // Warm-up, outside the timed phase.
    for p in pairs.iter().take(8) {
        mig_sim::equivalent(&bases[p.base], &p.other, ROUNDS);
    }

    let (mut plain, mut traced) = (Layers::default(), Layers::default());
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut cpu_times: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut traced_rounds = Vec::new();
    let mut wrong: Vec<&str> = Vec::new();
    cfg.phases(|is_traced| {
        let layers = if is_traced { &mut traced } else { &mut plain };
        let per_pair = if is_traced {
            &mut traced_times
        } else {
            &mut times
        };
        wrong.clear();
        let mut round_ms = 0.0;
        for (i, p) in pairs.iter().enumerate() {
            let a = &bases[p.base];
            let t = cpu::Stopwatch::start();
            let verdict = layers.time("sim.equiv", &p.name, || {
                a.num_inputs() == p.other.num_inputs()
                    && a.num_outputs() == p.other.num_outputs()
                    && mig_sim::equivalent(a, &p.other, ROUNDS)
            });
            let (wall_s, cpu_s) = t.elapsed_s();
            let ms = wall_s * 1e3;
            round_ms += ms;
            per_pair[i].push(ms);
            if !is_traced {
                cpu_times[i].push(cpu_s * 1e3);
            }
            layers.add("sim.patterns", p.patterns);
            out.attempted += 1;
            if verdict != p.equivalent {
                out.failed += 1;
                wrong.push(&p.name);
            }
        }
        if is_traced {
            traced_rounds.push(round_ms / 1e3);
        } else {
            out.round_s.push(round_ms / 1e3);
        }
        Ok(true)
    })?;

    out.item_ms = times.iter().map(|v| stats::median(v)).collect();
    out.wall_s = out.item_ms.iter().sum::<f64>() / 1e3;
    out.cpu_s = cpu_times.iter().map(|v| stats::median(v)).sum::<f64>() / 1e3;
    out.correct = mismatches.is_empty();
    out.notes.extend(mismatches.iter().take(10).cloned());
    let one_minterm_wide = pairs
        .iter()
        .filter(|p| p.name.ends_with("/one") && bases[p.base].num_inputs() > 16)
        .count();
    out.notes.push(format!(
        "{} pairs ({} equivalent); wrong_verdicts {} (one-minterm pairs above 16 inputs: {})",
        pairs.len(),
        pairs.iter().filter(|p| p.equivalent).count(),
        wrong.len(),
        one_minterm_wide
    ));
    if !wrong.is_empty() {
        out.notes
            .push(format!("wrong verdicts: {}", wrong.join(" ")));
    }

    let (layers, per_pair, rounds) = if cfg.trace {
        (&traced, &traced_times, traced_rounds.len())
    } else {
        (&plain, &times, out.round_s.len())
    };
    out.fill_layers(&setup, layers, rounds.max(1) as f64);
    let medians: Vec<f64> = per_pair.iter().map(|v| stats::median(v)).collect();
    let split = |eq: bool| -> Vec<f64> {
        pairs
            .iter()
            .zip(&medians)
            .filter(|(p, _)| p.equivalent == eq)
            .map(|(_, &m)| m)
            .collect()
    };
    out.set("sim.eq_verdict_ms", stats::median(&split(true)));
    out.set("sim.neq_verdict_ms", stats::median(&split(false)));
    out.set("sim.verdict_p50_ms", stats::median(&medians));
    // p90 keeps ten pairs beyond it once there are at least 100 pairs.
    if stats::beyond(medians.len(), 90.0) >= 10 {
        out.set(
            "sim.verdict_p90_ms",
            stats::nearest_rank(&stats::sorted(&medians), 90.0),
        );
    }
    out.set("sim.wrong_verdicts", wrong.len() as f64);
    out.set_overhead(&traced_rounds);
    Ok(out)
}
