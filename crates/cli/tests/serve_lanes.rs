//! Multi-lane durable sessions against the **real** `sst serve --tcp`
//! binary: `--session-lanes 4`, a `--data-dir`, and `--max-sessions` well
//! below the number of live sessions, so spills and cold reloads run on
//! one lane while other lanes check out, repair and write back their own
//! sessions. Several connections each pipeline create → delta → solve →
//! close over their sessions, interleaved, and replay every delta on the
//! client's own copy of the instance. The gate:
//!
//! * no response says `unknown session` — a spill never loses a session;
//! * every delta and solve makespan equals the client's own evaluation of
//!   the returned solution on its replayed instance — an acknowledged
//!   delta is never dropped by the store.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use sst_core::delta::InstanceDelta;
use sst_core::model::{MachineModel, Uniform, Unrelated};
use sst_portfolio::protocol::{
    parse_response, session_request_to_json, Response, SessionRequest, SessionVerb,
};
use sst_portfolio::ProblemInstance;

const CONNECTIONS: u64 = 4;
const SESSIONS_PER_CONNECTION: u64 = 6;
const MAX_SESSIONS: u64 = 4;
const DELTA_ROUNDS: u64 = 6;

fn spawn_server(data_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2", "--budget-ms", "20"])
        .args(["--session-lanes", "4", "--max-sessions", &MAX_SESSIONS.to_string()])
        .arg("--data-dir")
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sst serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .strip_prefix("sst-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();
    (child, addr)
}

fn base_instance(sid: u64) -> ProblemInstance {
    if sid.is_multiple_of(2) {
        ProblemInstance::Uniform(sst_gen::uniform(&sst_gen::UniformParams {
            n: 24,
            m: 3,
            k: 4,
            seed: sid,
            ..Default::default()
        }))
    } else {
        ProblemInstance::Unrelated(sst_gen::unrelated(&sst_gen::UnrelatedParams {
            n: 24,
            m: 3,
            k: 4,
            seed: sid,
            ..Default::default()
        }))
    }
}

/// One round of deltas for `inst`: a job arrives, one is resized and one
/// leaves, so a dropped round shifts every later job id.
fn deltas_for(inst: &ProblemInstance, round: u64) -> Vec<InstanceDelta> {
    let width = match inst {
        ProblemInstance::Uniform(_) => 1,
        _ => inst.m(),
    };
    let times = |base: u64| (0..width as u64).map(|i| base + 3 * i).collect::<Vec<_>>();
    let n = inst.n();
    vec![
        InstanceDelta::AddJob { class: (round % 4) as usize, times: times(5 + round) },
        InstanceDelta::ResizeJob { job: (round as usize * 7) % n, times: times(11 + round) },
        InstanceDelta::RemoveJob { job: (round as usize * 5 + 1) % n },
    ]
}

fn apply(inst: &ProblemInstance, deltas: &[InstanceDelta]) -> ProblemInstance {
    match inst {
        ProblemInstance::Uniform(u) => {
            ProblemInstance::Uniform(Uniform::apply_deltas(u, deltas).expect("valid deltas"))
        }
        ProblemInstance::Unrelated(u) => {
            ProblemInstance::Unrelated(Unrelated::apply_deltas(u, deltas).expect("valid deltas"))
        }
        ProblemInstance::Splittable(_) => unreachable!("the workload has no splittable sessions"),
    }
}

/// One connection's pipelined script: the verbs of its sessions,
/// interleaved round by round so every session stays live across the
/// whole run, plus the instance each delta/solve answer must be valid on.
fn script(conn: u64) -> (Vec<String>, BTreeMap<u64, ProblemInstance>) {
    let sids: Vec<u64> = (0..SESSIONS_PER_CONNECTION).map(|i| conn * 100 + i).collect();
    let mut current: BTreeMap<u64, ProblemInstance> =
        sids.iter().map(|&sid| (sid, base_instance(sid))).collect();
    let mut lines = Vec::new();
    let mut expect = BTreeMap::new();
    let mut id = conn * 10_000;
    let mut push = |verb: SessionVerb, lines: &mut Vec<String>| {
        id += 1;
        lines.push(session_request_to_json(&SessionRequest { id, verb }));
        id
    };
    for &sid in &sids {
        push(SessionVerb::Create { sid, instance: current[&sid].clone() }, &mut lines);
    }
    for round in 0..DELTA_ROUNDS {
        for &sid in &sids {
            let deltas = deltas_for(&current[&sid], round);
            let next = apply(&current[&sid], &deltas);
            let id = push(SessionVerb::Delta { sid, deltas }, &mut lines);
            expect.insert(id, next.clone());
            current.insert(sid, next);
            if round % 3 == 2 {
                let solve = SessionVerb::Solve {
                    sid,
                    budget_ms: Some(10),
                    top_k: Some(2),
                    seed: Some(sid),
                };
                let id = push(solve, &mut lines);
                expect.insert(id, current[&sid].clone());
            }
        }
    }
    for &sid in &sids {
        push(SessionVerb::Close { sid }, &mut lines);
    }
    (lines, expect)
}

/// Sends `conn`'s whole script without waiting, reads every answer, and
/// checks each against the client's own replay.
fn drive(addr: &str, conn: u64) {
    let (lines, expect) = script(conn);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let expected_answers = lines.len();
    let sender = std::thread::spawn(move || {
        for line in lines {
            writeln!(writer, "{line}").expect("send");
        }
        writer.flush().expect("flush");
    });
    let mut reader = BufReader::new(stream);
    for _ in 0..expected_answers {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF on connection {conn}");
        let resp = parse_response(line.trim()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        match resp {
            Response::Error { message, .. } => {
                assert!(!message.contains("unknown session"), "session lost: {message}");
                panic!("error line on connection {conn}: {message}");
            }
            Response::Ok { id, makespan, solution, .. } => {
                let inst = &expect[&id];
                let reval = inst.evaluate(&solution).unwrap_or_else(|e| {
                    panic!("answer {id} invalid on the client's replayed instance: {e:?}")
                });
                assert_eq!(reval, makespan, "answer {id} disagrees with the client's replay");
            }
            Response::Session { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    sender.join().expect("sender thread");
}

#[test]
fn four_lanes_over_a_spilling_durable_store_lose_no_delta() {
    let dir = std::env::temp_dir().join(format!("sst-serve-lanes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut child, addr) = spawn_server(&dir);
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || drive(&addr, conn))
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
    child.kill().expect("kill server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    for result in results {
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }
}
