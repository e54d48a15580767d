//! Integration tests for `mighty serve` — the concurrent optimization
//! service (`DESIGN.md` §15).
//!
//! Everything here drives an in-process [`Server`] over real TCP
//! sockets, exactly as an external client would; the signal-driven
//! shutdown test (which needs a separate process to receive SIGTERM)
//! lives in `crates/mighty/tests/serve_signal.rs`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use mig_core::Flow;
use mig_mighty::json::Json;
use mig_mighty::serve::{LoadConfig, ServeConfig, Server};
use mig_mighty::{run_flow_with, RunOptions};
use mig_netlist::write_verilog;

fn start(workers: usize, cache: usize) -> Server {
    Server::start(&ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: cache,
        drain_ms: 30_000,
    })
    .expect("server starts")
}

/// A tiny line-oriented client.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            writer: BufWriter::new(stream.try_clone().expect("clone")),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(&line).expect("response parses")
    }

    /// Receives until a non-progress line arrives.
    fn recv_final(&mut self) -> Json {
        loop {
            let v = self.recv();
            if v.get_str("type") != Some("progress") {
                return v;
            }
        }
    }
}

/// The local reference: what `mighty opt` emits for the same job.
fn reference_verilog(name: &str, flow: &str, effort: usize) -> String {
    let net = mig_benchgen::generate(name).expect("known benchmark");
    let flow = Flow::parse(flow).expect("flow parses");
    let out = run_flow_with(&net, &flow, effort, 16, 1, &RunOptions::default());
    assert!(out.mig_equiv && out.net_equiv, "reference run verifies");
    write_verilog(&out.optimized)
}

#[test]
fn served_results_are_bit_identical_to_cli_across_concurrent_clients() {
    let jobs = [
        ("my_adder", "size; rewrite"),
        ("count", "size"),
        ("b9", "size; rewrite"),
        ("cla", "depth"),
    ];
    let reference: HashMap<&str, String> = jobs
        .iter()
        .map(|(name, flow)| (*name, reference_verilog(name, flow, 1)))
        .collect();

    let server = start(2, 16);
    let addr = server.addr();
    let mut handles = Vec::new();
    for (name, flow) in jobs {
        let expected = reference[name].clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr);
            client.send(&format!(
                "{{\"id\": 1, \"netlist\": \"{name}\", \"flow\": \"{flow}\", \"effort\": 1}}"
            ));
            let v = client.recv_final();
            assert_eq!(v.get_str("type"), Some("result"), "{name}");
            assert_eq!(v.get_num("exit_code"), Some(0.0), "{name}");
            assert_eq!(v.get_bool("mig_equiv"), Some(true), "{name}");
            assert_eq!(v.get_bool("net_equiv"), Some(true), "{name}");
            assert_eq!(
                v.get_str("verilog"),
                Some(expected.as_str()),
                "{name}: served result differs from `mighty opt`"
            );
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
    assert!(server.wait(), "drain");
}

#[test]
fn cache_hit_replays_bit_identical_result() {
    let server = start(1, 16);
    let mut client = Client::connect(server.addr());
    let job = "{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}";
    client.send(job);
    let first = client.recv_final();
    assert_eq!(first.get_bool("cached"), Some(false));
    assert_eq!(first.get_num("exit_code"), Some(0.0));
    client.send(job);
    let second = client.recv_final();
    assert_eq!(second.get_bool("cached"), Some(true), "second run hits");
    assert_eq!(second.get_num("exit_code"), Some(0.0));
    assert_eq!(
        first.get_str("verilog"),
        second.get_str("verilog"),
        "cache replay must be bit-identical"
    );
    assert_eq!(second.get_bool("net_equiv"), Some(true), "hits re-verify");
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn progress_lines_stream_per_pass() {
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    client.send(
        "{\"id\": 9, \"netlist\": \"my_adder\", \"flow\": \"size; rewrite\", \
         \"effort\": 1, \"progress\": true}",
    );
    let mut passes = Vec::new();
    let result = loop {
        let v = client.recv();
        if v.get_str("type") == Some("progress") {
            passes.push(v.get_str("pass").expect("pass name").to_string());
            continue;
        }
        break v;
    };
    assert_eq!(result.get_str("type"), Some("result"));
    assert!(
        passes.iter().any(|p| p == "size") && passes.iter().any(|p| p == "rewrite"),
        "streamed passes {passes:?} should cover the flow"
    );
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn malformed_requests_get_errors_and_the_connection_survives() {
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    // Unparseable JSON.
    client.send("{nope");
    let v = client.recv();
    assert_eq!(v.get_str("type"), Some("error"));
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Missing netlist.
    client.send("{\"id\": 1, \"flow\": \"size\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Unknown benchmark.
    client.send("{\"id\": 2, \"netlist\": \"no_such_bench\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(3.0));
    // Bad Verilog.
    client.send("{\"id\": 3, \"netlist\": \"module broken\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(3.0));
    // Bad flow script.
    client.send("{\"id\": 4, \"netlist\": \"count\", \"flow\": \"warpdrive\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Unknown op.
    client.send("{\"op\": \"dance\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // The same connection still serves real work afterwards.
    client.send("{\"id\": 5, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
    let v = client.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn mid_job_disconnect_does_not_kill_the_server() {
    let server = start(1, 0);
    let addr = server.addr();
    {
        // Submit a job and slam the connection shut before the result
        // can be written.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut w = BufWriter::new(stream.try_clone().expect("clone"));
        writeln!(
            w,
            "{{\"id\": 1, \"netlist\": \"alu4\", \"flow\": \"size; rewrite\", \"effort\": 2}}"
        )
        .expect("send");
        w.flush().expect("flush");
        stream
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown socket");
    }
    // The orphaned job must still run (and its result be dropped)
    // without poisoning the worker: a fresh client gets served.
    let mut client = Client::connect(addr);
    client.send("{\"id\": 2, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
    let v = client.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    server.shutdown();
    assert!(server.wait(), "drain includes the orphaned job");
}

#[test]
fn one_worker_completes_jobs_in_submission_order() {
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    // One write carries every job, so jobs 2..=5 queue behind the slow
    // first one; a LIFO queue would answer them 5, 4, 3, 2.
    let netlists = ["alu4", "count", "my_adder", "cla", "b9"];
    let batch: String = netlists
        .iter()
        .enumerate()
        .map(|(i, name)| {
            format!(
                "{{\"id\": {}, \"netlist\": \"{name}\", \"flow\": \"size; rewrite\", \
                 \"effort\": 2}}\n",
                i + 1
            )
        })
        .collect();
    client.writer.write_all(batch.as_bytes()).expect("send");
    client.writer.flush().expect("flush");
    let ids: Vec<f64> = netlists
        .iter()
        .map(|_| {
            let v = client.recv_final();
            assert_eq!(v.get_num("exit_code"), Some(0.0));
            v.get_num("id").expect("result carries its id")
        })
        .collect();
    assert_eq!(ids, [1.0, 2.0, 3.0, 4.0, 5.0]);
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn ping_stats_and_wire_shutdown() {
    let server = start(1, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr);
    client.send("{\"op\": \"ping\"}");
    assert_eq!(client.recv().get_str("type"), Some("pong"));
    client.send("{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
    let v = client.recv_final();
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    let mut client2 = Client::connect(addr);
    client2.send("{\"op\": \"stats\"}");
    let st = client2.recv();
    assert_eq!(st.get_str("type"), Some("stats"));
    assert!(st.get_num("jobs_done") >= Some(1.0));
    assert!(st.get_num("connections") >= Some(2.0));
    client2.send("{\"op\": \"shutdown\"}");
    assert_eq!(client2.recv().get_str("type"), Some("shutting_down"));
    assert!(server.wait(), "wire shutdown drains and exits");
    // New connections are refused after shutdown.
    thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn quick_load_sweep_verifies_and_matches_cli() {
    // One worker count and a small corpus keep this test in CI-seconds;
    // the full sweep runs behind `mighty serve --bench`.
    let cfg = LoadConfig {
        workers_sweep: vec![2],
        clients: 3,
        jobs_per_client: 2,
        flow: "size".to_string(),
        effort: 1,
        corpus: vec!["my_adder".to_string(), "count".to_string()],
    };
    let sweeps = mig_mighty::serve::run_load(&cfg).expect("load sweep runs");
    assert_eq!(sweeps.len(), 1);
    let s = &sweeps[0];
    assert_eq!(s.jobs, 6);
    assert!(s.verified, "all responses verified");
    assert!(s.bit_identical, "all responses bit-identical to the CLI");
    assert!(s.jobs_per_sec > 0.0 && s.p50_ms > 0.0 && s.p95_ms >= s.p50_ms);
}

/// MIG_FAULTS-armed: a job whose passes panic degrades (the pass
/// manager rolls the pass back) while the server keeps serving.
#[cfg(feature = "faultpoints")]
mod fault_injection {
    use super::*;
    use mig_suite::mig::faultpoint;

    #[test]
    fn injected_panic_job_degrades_without_killing_the_server() {
        // Every rewrite commit panics: the pass manager rolls each one
        // back, so the job completes degraded but verified.
        faultpoint::configure("rewrite.commit:panic:1:1").expect("valid plan");
        let server = start(1, 0);
        let mut client = Client::connect(server.addr());
        client.send(
            "{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size; rewrite\", \"effort\": 1}",
        );
        let v = client.recv_final();
        faultpoint::clear();
        assert_eq!(v.get_str("type"), Some("result"));
        assert_eq!(v.get_num("exit_code"), Some(5.0), "degraded completion");
        assert_eq!(v.get_bool("degraded"), Some(true));
        assert_eq!(v.get_bool("mig_equiv"), Some(true), "rollback preserved");
        assert_eq!(v.get_bool("net_equiv"), Some(true));
        // The worker survived: an un-faulted job still runs clean.
        client.send("{\"id\": 2, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
        let v = client.recv_final();
        assert_eq!(v.get_num("exit_code"), Some(0.0), "server recovered");
        server.shutdown();
        assert!(server.wait());
    }
}
