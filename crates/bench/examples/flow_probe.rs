//! Hot-path profiling probe: run one generator through one flow with
//! per-pass wall times and a final equivalence check — the manual loupe
//! behind the `--suite large` numbers in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p mig_bench --example flow_probe -- \
//!     mul_1m "size*2; rewrite; depth_rewrite; depth" 4
//! ```

use mig_core::{Flow, OptContext};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(|s| s.as_str()).unwrap_or("mul_100k");
    let net = mig_benchgen::generate(name).unwrap();
    let t_import = std::time::Instant::now();
    let mig = mig_core::Mig::from_network(&net);
    eprintln!(
        "{name}: mig_nodes={} depth={} import={:.2}s",
        mig.num_nodes(),
        mig.depth(),
        t_import.elapsed().as_secs_f64()
    );
    let flow = Flow::parse(
        args.get(2)
            .map(|s| s.as_str())
            .unwrap_or("size*2; rewrite; depth_rewrite; depth"),
    )
    .unwrap();
    let effort: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);
    let mut ctx = OptContext::with_jobs(1);
    let t0 = std::time::Instant::now();
    let out = flow.run(mig.clone(), effort, &mut ctx);
    eprintln!(
        "flow done in {:.2}s: size {} -> {}, depth {} -> {}",
        t0.elapsed().as_secs_f64(),
        mig.size(),
        out.size(),
        mig.depth(),
        out.depth()
    );
    for r in ctx.ledger() {
        eprintln!("  pass {:14} {:>9.1}ms", r.pass, r.millis);
    }
    let t1 = std::time::Instant::now();
    let ok = out.equiv(&mig, 16);
    eprintln!(
        "equiv(16 rounds)={ok} in {:.2}s",
        t1.elapsed().as_secs_f64()
    );
}
