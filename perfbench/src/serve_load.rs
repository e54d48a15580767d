//! The `serve` workload: an in-process `mighty serve` server with 2
//! workers and the default result cache, driven by a closed loop of 2
//! client connections that each wait for a reply before sending the next
//! job. Jobs are seeded MCNC-scale netlists sent as Verilog text; about
//! one job in three resubmits a netlist sent a few jobs earlier, so the
//! cache-hit path runs beside the miss path. Every reply is compared with
//! a reference `run_flow_with` result computed before timing starts.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mig_core::Flow;
use mig_mighty::json::escape_str;
use mig_mighty::serve::{ServeConfig, Server};
use mig_mighty::{run_flow_with, RunOptions};
use mig_netlist::{parse_verilog, write_verilog, SplitMix64};

use crate::{cpu, eval, gen, stats, trace, Layers, Outcome, RunConfig};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const FLOW: &str = "size; rewrite; depth";
const EFFORT: usize = 2;
/// The server's default equivalence rounds for a job.
const SERVE_ROUNDS: usize = 16;
const JOBS_PER_ROUND: usize = 60;
/// Rounds prepared per second of `--seconds` (a run stops early once
/// its time is up, after at least one round).
const ROUNDS_PER_SECOND: f64 = 0.5;

/// Starts the server and waits until it answers `ping`.
pub fn start_server() -> Result<Server, String> {
    let server = Server::start(&ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })?;
    let reply = Conn::connect(server.addr())?.call("{\"op\": \"ping\"}")?;
    if !reply.contains("pong") {
        return Err(format!("unexpected ping reply: {reply}"));
    }
    Ok(server)
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and returns the reply line.
    fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A distinct netlist of the job stream with its reference result.
struct Netlist {
    request: String,
    /// The reference result's Verilog, escaped as a reply carries it.
    reference_escaped: String,
    size: f64,
    depth: f64,
    activity: f64,
}

/// One timed job: which netlist, its client latency and the reply.
struct Reply {
    netlist: usize,
    latency_ms: f64,
    line: String,
}

/// Draws the job stream: per round, [`JOBS_PER_ROUND`] jobs, of which
/// every third (from the sixth on) resubmits a netlist sent 4 to 12 jobs
/// earlier in the same round, so that it is in the cache unless its first
/// run is still going.
fn job_stream(seed: u64, rounds: usize) -> (Vec<mig_netlist::Network>, Vec<Vec<usize>>) {
    let mut rng = SplitMix64::seed_from_u64(gen::derive(seed, "serve.jobs"));
    let mut nets = Vec::new();
    let mut plan = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut jobs: Vec<usize> = Vec::with_capacity(JOBS_PER_ROUND);
        for i in 0..JOBS_PER_ROUND {
            if i % 3 == 2 && i >= 5 {
                jobs.push(jobs[i - rng.gen_range(4..=i.min(12))]);
            } else {
                let k = nets.len();
                let name = format!("job{r}_{i}");
                nets.push(gen::small_circuit(k, gen::derive(seed, &name), &name));
                jobs.push(k);
            }
        }
        plan.push(jobs);
    }
    (nets, plan)
}

/// Computes each netlist's request text and reference result on up to
/// `CLIENTS` threads, and checks every reference with the benchmark's
/// own evaluator.
fn references(
    nets: &[mig_netlist::Network],
    seed: u64,
    mismatches: &Mutex<Vec<String>>,
) -> Vec<Netlist> {
    let flow = Flow::parse(FLOW).expect("benchmark flow parses");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Netlist>>> = nets.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(net) = nets.get(i) else { break };
                let request = write_verilog(net);
                let parsed = parse_verilog(&request).expect("written Verilog parses");
                let r = run_flow_with(
                    &parsed,
                    &flow,
                    EFFORT,
                    SERVE_ROUNDS,
                    1,
                    &RunOptions::default(),
                );
                if let Err(e) = eval::check_same_function(&parsed, &r.optimized, seed) {
                    mismatches
                        .lock()
                        .expect("no panics under the lock")
                        .push(format!("{} reference: {e}", net.name()));
                }
                *slots[i].lock().expect("no panics under the lock") = Some(Netlist {
                    request,
                    reference_escaped: escape_str(&write_verilog(&r.optimized)),
                    size: r.after.size as f64,
                    depth: f64::from(r.after.depth),
                    activity: r.after.activity,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no panics")
                .expect("every netlist computed")
        })
        .collect()
}

/// Runs one round: the clients take jobs in order until none are left.
/// Returns the round's wall and CPU seconds (the CPU of every thread of
/// the process: clients and server) and the replies.
fn run_round(
    conns: &mut [Conn],
    jobs: &[usize],
    netlists: &[Netlist],
    first_id: usize,
) -> Result<((f64, f64), Vec<Reply>), String> {
    let round_span = trace::current();
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = cpu::Stopwatch::start();
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, replies) = (&next, &replies);
                s.spawn(move || -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = jobs.get(i) else {
                            return Ok(());
                        };
                        let id = first_id + i;
                        let request = format!(
                            "{{\"id\": {id}, \"netlist\": \"{}\", \"flow\": \"{FLOW}\", \"effort\": {EFFORT}}}",
                            escape_str(&netlists[k].request)
                        );
                        let _span =
                            trace::span_under(round_span, "mighty.serve.job", &id.to_string());
                        let t = Instant::now();
                        let line = conn.call(&request)?;
                        let latency_ms = crate::ms(t.elapsed());
                        replies.lock().expect("no panics under the lock").push(Reply {
                            netlist: k,
                            latency_ms,
                            line,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok((start.elapsed_s(), replies.into_inner().expect("no panics")))
}

/// What the benchmark reads from one reply.
struct Checked {
    ok: bool,
    cached: bool,
    millis: f64,
}

/// The raw text of scalar member `key` of a reply line (its first
/// occurrence, which precedes the trailing `verilog` member).
fn member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

/// Checks one reply against its netlist's reference. The reply format
/// is fixed (`verilog` is its last member), so the check reads the
/// members it needs directly and compares the escaped Verilog text.
fn check_reply(reply: &Reply, netlists: &[Netlist], mismatches: &mut Vec<String>) -> Checked {
    let line = reply.line.trim_end();
    let ok = member(line, "type") == Some("\"result\"")
        && member(line, "exit_code") == Some("0")
        && member(line, "mig_equiv") == Some("true")
        && member(line, "net_equiv") == Some("true");
    let verilog = line
        .find("\"verilog\": \"")
        .and_then(|i| line.get(i + 12..line.len().checked_sub(2)?));
    let same = verilog == Some(netlists[reply.netlist].reference_escaped.as_str());
    if !(ok && same) {
        mismatches.push(format!(
            "reply for netlist {}: result verified {ok}, equal to reference {same}: {}",
            reply.netlist,
            &line[..line.len().min(160)]
        ));
    }
    Checked {
        ok: ok && same,
        cached: member(line, "cached") == Some("true"),
        millis: member(line, "millis")
            .and_then(|m| m.parse().ok())
            .unwrap_or(0.0),
    }
}

pub fn run(cfg: &RunConfig, setup: Layers, server: Server) -> Result<Outcome, String> {
    let rounds = ((cfg.seconds * ROUNDS_PER_SECOND).ceil() as usize).max(2);
    let (nets, plan) = job_stream(cfg.seed, rounds);
    let mismatches = Mutex::new(Vec::new());
    let netlists = references(&nets, cfg.seed, &mismatches);
    drop(nets);
    let mut mismatches = mismatches.into_inner().expect("no panics");

    let mut conns = (0..CLIENTS)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up, outside the timed phase: one job per worker on netlists
    // that the timed rounds never send.
    let warm: Vec<_> = (0..WORKERS)
        .map(|k| gen::small_circuit(k, gen::derive(cfg.seed, "serve.warm"), &format!("warm{k}")))
        .collect();
    let warm_refs = references(&warm, cfg.seed, &Mutex::new(Vec::new()));
    run_round(&mut conns, &[0, 1], &warm_refs, 1_000_000_000)?;

    let mut out = Outcome::default();
    let mut timed: Vec<(bool, (f64, f64), Vec<Reply>)> = Vec::new();
    let mut round = 0;
    cfg.phases(|traced| {
        let (secs, replies) =
            run_round(&mut conns, &plan[round], &netlists, round * JOBS_PER_ROUND)?;
        timed.push((traced, secs, replies));
        round += 1;
        // A traced run leaves half of the prepared rounds to its traced phase.
        let limit = if cfg.trace && !traced {
            plan.len() / 2
        } else {
            plan.len()
        };
        Ok(round < limit)
    })?;
    let stats_line = conns[0].call("{\"op\": \"stats\"}")?;
    drop(conns);
    server.shutdown();
    if !server.wait() {
        return Err("server did not drain".to_string());
    }

    // Untimed: check every reply against its reference.
    let (mut lat, mut job_ms, mut wait, mut hit, mut miss, mut rates) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut reply_bytes, mut replies_seen) = (0usize, 0usize);
    let mut sums = (0.0, 0.0, 0.0);
    let mut plain_rounds = 0;
    let mut round_cpu = Vec::new();
    for (r, (traced, (secs, cpu_secs), replies)) in timed.iter().enumerate() {
        let for_layers = *traced == cfg.trace;
        if !traced {
            out.round_s.push(*secs);
            round_cpu.push(*cpu_secs);
            plain_rounds += 1;
            let mut seen = std::collections::BTreeSet::new();
            for &k in &plan[r] {
                if seen.insert(k) {
                    sums.0 += netlists[k].size;
                    sums.1 += netlists[k].depth;
                    sums.2 += netlists[k].activity;
                }
            }
        }
        if for_layers {
            rates.push(replies.len() as f64 / secs);
        }
        for reply in replies {
            let c = check_reply(reply, &netlists, &mut mismatches);
            out.attempted += 1;
            out.failed += u64::from(!c.ok);
            if !traced {
                out.item_ms.push(reply.latency_ms);
            }
            if for_layers && c.ok {
                lat.push(reply.latency_ms);
                job_ms.push(c.millis);
                wait.push(reply.latency_ms - c.millis);
                if c.cached { &mut hit } else { &mut miss }.push(reply.latency_ms);
                reply_bytes += reply.line.len();
                replies_seen += 1;
            }
        }
    }
    let plain_rounds = f64::from(plain_rounds).max(1.0);
    out.wall_s = out.round_s.iter().sum::<f64>() / plain_rounds;
    out.cpu_s = stats::median(&round_cpu);
    out.size = sums.0 / plain_rounds;
    out.depth = sums.1 / plain_rounds;
    out.activity = sums.2 / plain_rounds;
    out.correct = mismatches.is_empty();
    out.notes.extend(mismatches.iter().take(10).cloned());

    let layer_rounds = timed.iter().filter(|t| t.0 == cfg.trace).count().max(1) as f64;
    out.fill_layers(&setup, &Layers::default(), layer_rounds);
    let tail = |v: &[f64]| {
        stats::tail_percentile(v.len()).map_or(0.0, |p| stats::nearest_rank(&stats::sorted(v), p))
    };
    let count = |key| member(&stats_line, key).and_then(|v| v.parse::<f64>().ok());
    let hit_rate = match (count("cache_hits"), count("cache_misses")) {
        (Some(h), Some(m)) => h / (h + m).max(1.0),
        _ => 0.0,
    };
    out.set("mighty.serve.jobs_per_s", stats::median(&rates));
    out.set("mighty.serve.latency_p50_ms", stats::median(&lat));
    out.set("mighty.serve.latency_tail_ms", tail(&lat));
    out.set("mighty.serve.job_p50_ms", stats::median(&job_ms));
    out.set("mighty.serve.wait_p50_ms", stats::median(&wait));
    out.set("mighty.serve.wait_tail_ms", tail(&wait));
    out.set("mighty.serve.hit_p50_ms", stats::median(&hit));
    out.set("mighty.serve.miss_p50_ms", stats::median(&miss));
    out.set("mighty.serve.cache_hit_rate", hit_rate);
    out.set(
        "mighty.serve.reply_kb",
        reply_bytes as f64 / replies_seen.max(1) as f64 / 1024.0,
    );
    let traced_rounds: Vec<f64> = timed.iter().filter(|t| t.0).map(|t| t.1 .0).collect();
    out.set_overhead(&traced_rounds);
    out.notes.push(format!(
        "{} jobs in {} rounds ({} clients, {} workers); latency p50 {:.2} ms, tail p{} {:.2} ms; \
         {} cache hits / {} misses; jobs_per_s {:.1}",
        lat.len(),
        layer_rounds,
        CLIENTS,
        WORKERS,
        stats::median(&lat),
        stats::tail_percentile(lat.len()).unwrap_or(0.0),
        tail(&lat),
        hit.len(),
        miss.len(),
        stats::median(&rates),
    ));
    Ok(out)
}
