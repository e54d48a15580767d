//! The MIG suite's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates one workload's circuits from `--seed`, drives the
//! library crates through their public functions, times every call into
//! every layer, checks every output with its own evaluator, and prints
//! one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also records a span per call, prints each layer's self time and the
//! tracing overhead, and writes the spans as Chrome trace-event JSON
//! under `perfbench/out/`. See `perfbench/README.md` for the workloads
//! and for which end-to-end metric each per-layer metric should move.

mod cpu;
mod equiv;
mod eval;
mod flows;
mod gen;
mod serve_load;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["table1", "large", "serve", "equiv"];

/// Fresh processes timed from spawn to "ready" for `setup_s`, half
/// before the timed phase and half after it, so that they meet more than
/// one state of a drifting host.
const SETUP_PROBES: usize = 41;

/// Per-layer accumulator: milliseconds per timed call site plus counters,
/// summed over the rounds that ran with it.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` as one call into layer `name` for `item`: opens a span
    /// (recorded only in traced rounds) and adds its wall time in ms.
    pub fn time<T>(&mut self, name: &'static str, item: &str, f: impl FnOnce() -> T) -> T {
        let _span = trace::span(name, item);
        let t = Instant::now();
        let out = f();
        self.add(name, ms(t.elapsed()));
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The timed phase in CPU seconds of this process: the sum over the
    /// workload's items of each item's median CPU time over the untraced
    /// rounds (serve: the median round, server and clients together).
    pub cpu_s: f64,
    /// The same sum (serve: the mean round) in wall seconds.
    pub wall_s: f64,
    /// Wall time of each untraced round, in seconds.
    pub round_s: Vec<f64>,
    /// Per-item latencies (circuit, job or pair), in ms.
    pub item_ms: Vec<f64>,
    /// Sums of the final MIG metrics over the workload's circuits.
    pub size: f64,
    pub depth: f64,
    pub activity: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Every output the benchmark checked itself was right.
    pub correct: bool,
    /// Per-layer metrics: name → (value, unit).
    pub layer: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The per-layer metrics every run reports (0 where the workload does not
/// reach the layer), with their units.
pub const LAYER_METRICS: [(&str, &str); 59] = [
    ("tt.db_build_ms", "ms"),
    ("techmap.lib_build_ms", "ms"),
    ("mighty.serve.start_ms", "ms"),
    ("core.convert.import_ms", "ms"),
    ("core.convert.export_ms", "ms"),
    ("netlist.write_ms", "ms"),
    ("core.opt.size_ms", "ms"),
    ("core.opt.rewrite_ms", "ms"),
    ("core.opt.depth_ms", "ms"),
    ("core.opt.depth_rewrite_ms", "ms"),
    ("core.opt.activity_ms", "ms"),
    ("core.opt.size.first_ms", "ms"),
    ("core.opt.size.repeat_ms", "ms"),
    ("core.opt.size.dsize", "nodes"),
    ("core.opt.size.ddepth", "levels"),
    ("core.opt.rewrite.dsize", "nodes"),
    ("core.opt.rewrite.ddepth", "levels"),
    ("core.opt.depth.dsize", "nodes"),
    ("core.opt.depth.ddepth", "levels"),
    ("core.opt.depth_rewrite.dsize", "nodes"),
    ("core.opt.depth_rewrite.ddepth", "levels"),
    ("core.opt.activity.dsize", "nodes"),
    ("core.opt.activity.ddepth", "levels"),
    ("core.opt.activity.dactivity", "activity"),
    ("core.level.incremental_repairs", "count"),
    ("core.level.repaired_nodes", "count"),
    ("core.level.global_rebuilds", "count"),
    ("core.level.global_nodes", "count"),
    ("core.level.nodes_per_repair", "nodes"),
    ("core.mig.arena_bytes", "bytes"),
    ("core.strash.bytes", "bytes"),
    ("core.opt.rewrite_cache_entries", "count"),
    ("core.simulate.equiv_ms", "ms"),
    ("sim.equiv_ms", "ms"),
    ("sim.eq_verdict_ms", "ms"),
    ("sim.neq_verdict_ms", "ms"),
    ("sim.verdict_p50_ms", "ms"),
    ("sim.verdict_p90_ms", "ms"),
    ("sim.patterns", "count"),
    ("sim.wrong_verdicts", "count"),
    ("techmap.map_ms", "ms"),
    ("techmap.verify_ms", "ms"),
    ("techmap.cells", "count"),
    ("techmap.area_um2", "um2"),
    ("techmap.delay_ns", "ns"),
    ("mighty.serve.jobs_per_s", "1/s"),
    ("mighty.serve.latency_p50_ms", "ms"),
    ("mighty.serve.latency_tail_ms", "ms"),
    ("mighty.serve.job_p50_ms", "ms"),
    ("mighty.serve.wait_p50_ms", "ms"),
    ("mighty.serve.wait_tail_ms", "ms"),
    ("mighty.serve.hit_p50_ms", "ms"),
    ("mighty.serve.miss_p50_ms", "ms"),
    ("mighty.serve.cache_hit_rate", "ratio"),
    ("mighty.serve.reply_kb", "KiB"),
    ("perfbench.rounds", "count"),
    ("perfbench.trace_overhead_s", "s"),
    ("perfbench.wall_s", "s"),
    ("perfbench.setup_wall_s", "s"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--setup-probe" => {
                args.workload = value()?;
                args.probe = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Builds what a workload needs before it can take work: the NPN
/// database, and per workload the cmos22 library with its match index and
/// a 2-worker server answering `ping` (returned). Each step is one call
/// into the layer its span names.
pub fn set_up(
    workload: &str,
    layers: &mut Layers,
) -> Result<Option<mig_mighty::serve::Server>, String> {
    layers.time("tt.db_build", "setup", || {
        mig_tt::MigDatabase::global();
    });
    if matches!(workload, "table1" | "serve") {
        layers.time("techmap.lib_build", "setup", || {
            let lib = mig_techmap::CellLibrary::shared_by_name("cmos22").expect("stock library");
            // The match index is built by the first mapping.
            let mut m = mig_core::Mig::new("warm");
            let (a, b, c) = (m.add_input("a"), m.add_input("b"), m.add_input("c"));
            let y = m.maj(a, b, c);
            m.add_output("y", y);
            mig_techmap::map_mig(&m, &lib, &mig_techmap::MapConfig::default());
        });
    }
    if workload == "serve" {
        return layers
            .time("mighty.serve.start", "setup", serve_load::start_server)
            .map(Some);
    }
    Ok(None)
}

/// The `--setup-probe` child: set up, say "ready" with the CPU seconds
/// used so far, shut down.
fn probe(workload: &str) -> Result<(), String> {
    let server = set_up(workload, &mut Layers::default())?;
    let cpu_s = cpu::now_s();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {cpu_s}")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    if let Some(server) = server {
        server.shutdown();
        if !server.wait() {
            return Err("server did not drain".to_string());
        }
    }
    Ok(())
}

/// Set-up times of fresh copies of this program, each timed from
/// process start to everything the workload needs before its first job:
/// the CPU seconds each copy reports with its "ready" line, and the wall
/// time from spawn to that line.
#[derive(Default)]
struct SetupProbes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl SetupProbes {
    /// Times `n` more copies.
    fn take(&mut self, workload: &str, n: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        for _ in 0..n {
            let (cpu_s, wall_s) = probe_once(&exe, workload)?;
            self.cpu.push(cpu_s);
            self.wall.push(wall_s);
        }
        Ok(())
    }

    /// Median (CPU, wall) seconds over every copy timed.
    fn medians(&self) -> (f64, f64) {
        (stats::median(&self.cpu), stats::median(&self.wall))
    }
}

/// Spawns one `--setup-probe` copy; returns its (CPU, wall) set-up time.
fn probe_once(exe: &std::path::Path, workload: &str) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-probe", workload])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    let reported = line
        .trim()
        .strip_prefix("ready ")
        .and_then(|v| v.parse::<f64>().ok());
    let (Ok(_), Some(cpu_s), true) = (read, reported, status.success()) else {
        return Err(format!("setup probe failed ({status})"));
    };
    Ok((cpu_s, elapsed))
}

/// Peak RSS of each untraced round, in MiB, where the kernel let the
/// round reset it.
static ROUND_PEAKS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Resets this process's peak RSS (VmHWM) to its current RSS; false if
/// the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs timed rounds until `seconds` are used up (the last round may run
/// over), with tracing set to `traced`. Records the peak RSS of each
/// untraced round. Returns the number of rounds.
pub fn run_rounds(
    seconds: f64,
    traced: bool,
    mut round: impl FnMut() -> Result<bool, String>,
) -> Result<usize, String> {
    trace::set_enabled(traced);
    let start = Instant::now();
    let mut n = 0;
    loop {
        let reset = !traced && reset_peak_rss();
        let more = {
            let _span = trace::span("perfbench.round", &n.to_string());
            round()?
        };
        if reset {
            ROUND_PEAKS
                .lock()
                .expect("no panics under the lock")
                .push(peak_rss_mb());
        }
        n += 1;
        if !more || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    trace::set_enabled(false);
    Ok(n)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut probes = SetupProbes::default();
    probes.take(&args.workload, SETUP_PROBES / 2)?;
    let mut layers = Layers::default();
    trace::set_enabled(args.trace);
    let server = set_up(&args.workload, &mut layers)?;
    trace::set_enabled(false);
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut out = match args.workload.as_str() {
        "table1" => flows::table1(&cfg, layers)?,
        "large" => flows::large(&cfg, layers)?,
        "serve" => serve_load::run(
            &cfg,
            layers,
            server.expect("the serve set-up starts a server"),
        )?,
        "equiv" => equiv::run(&cfg, layers)?,
        _ => unreachable!("workload names are checked"),
    };
    // A round's peak RSS: the median round's, or the whole process's if
    // the kernel did not let the rounds reset it. The whole-process peak
    // of `table1` jumped between two levels 12 % apart from run to run;
    // the peak of a single round did so in about one round in twenty.
    let peak = {
        let peaks = ROUND_PEAKS.lock().expect("no panics under the lock");
        if peaks.is_empty() {
            peak_rss_mb()
        } else {
            stats::median(&peaks)
        }
    };
    probes.take(&args.workload, SETUP_PROBES - SETUP_PROBES / 2)?;
    let (setup_s, setup_wall_s) = probes.medians();
    out.set("perfbench.wall_s", out.wall_s);
    out.set("perfbench.setup_wall_s", setup_wall_s);

    let mut e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_s, "s"),
        ("cpu_s", out.cpu_s, "s"),
        ("peak_rss_mb", peak, "MiB"),
        ("size", out.size, "nodes"),
        ("depth", out.depth, "levels"),
        ("activity", out.activity, "activity"),
    ];
    let fail_rate = out.failed as f64 / out.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {}: {} rounds, {} items timed, item latency p50 {:.4} ms",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.round_s.len(),
        out.item_ms.len(),
        stats::median(&out.item_ms)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let rounds: Vec<String> = out.round_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  round wall_s: {}", rounds.join(" "));
    let peaks: Vec<String> = ROUND_PEAKS
        .lock()
        .expect("no panics under the lock")
        .iter()
        .map(|m| format!("{m:.1}"))
        .collect();
    println!("  round peak_rss_mb: {}", peaks.join(" "));
    println!("  wall_s           {:>14.4} s", out.wall_s);
    println!("  setup wall_s     {setup_wall_s:>14.4} s");
    for (name, v, unit) in &e2e {
        println!("  {name:<16} {v:>14.4} {unit}");
    }
    println!(
        "  fail_rate        {fail_rate:>14.4} ({} of {} failed)",
        out.failed, out.attempted
    );

    if args.trace {
        let spans = trace::take();
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  self time over set-up and {} traced rounds ({} spans, {}):",
            out.layer_value("perfbench.rounds"),
            spans.len(),
            path.display()
        );
        println!(
            "    {:<28} {:>7} {:>12} {:>12}",
            "layer", "spans", "total ms", "self ms"
        );
        for (name, t) in trace::layer_times(&spans) {
            println!(
                "    {name:<28} {:>7} {:>12.3} {:>12.3}",
                t.count, t.total_ms, t.self_ms
            );
        }
        e2e = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, out.layer_value(name), unit))
            .collect();
    }
    let metrics: Vec<String> = e2e
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

impl Outcome {
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layer.get(name).map_or(0.0, |v| v.0)
    }

    /// Fills every per-layer metric from the set-up calls and from the
    /// call times and counters summed over `rounds` rounds (per round).
    pub fn fill_layers(&mut self, setup: &Layers, layers: &Layers, rounds: f64) {
        for (name, _) in LAYER_METRICS {
            let base = name.strip_suffix("_ms").unwrap_or(name);
            let v = if setup.values.contains_key(base) {
                setup.get(base)
            } else if layers.values.contains_key(name) {
                layers.get(name) / rounds
            } else {
                layers.get(base) / rounds
            };
            self.set(name, v);
        }
        self.set("perfbench.rounds", rounds);
    }

    /// Records the tracing overhead: the median traced round minus the
    /// median untraced round of the same run.
    pub fn set_overhead(&mut self, traced_rounds: &[f64]) {
        if traced_rounds.is_empty() {
            return;
        }
        let (traced, plain) = (stats::median(traced_rounds), stats::median(&self.round_s));
        self.set("perfbench.trace_overhead_s", traced - plain);
        self.notes.push(format!(
            "tracing overhead: traced round {traced:.4} s - untraced round {plain:.4} s = {:.4} s",
            traced - plain
        ));
    }

    /// Records a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("undeclared layer metric {name}"), |(_, u)| *u);
        self.layer.insert(name, (value, unit));
    }
}

/// Settings every workload reads.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Runs the timed phase. Untraced: rounds for `seconds`. Traced:
    /// untraced rounds for half the time, then traced rounds for the
    /// other half, so that the overhead is measured in one process.
    /// Returns (untraced rounds, traced rounds).
    pub fn phases(
        &self,
        mut round: impl FnMut(bool) -> Result<bool, String>,
    ) -> Result<(usize, usize), String> {
        if !self.trace {
            return Ok((run_rounds(self.seconds, false, || round(false))?, 0));
        }
        let half = self.seconds / 2.0;
        let plain = run_rounds(half, false, || round(false))?;
        let traced = run_rounds(half, true, || round(true))?;
        Ok((plain, traced))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return match probe(&args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: setup probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
