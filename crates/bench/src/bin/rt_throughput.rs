//! Runtime data-plane harness: measures the threaded runtime's ping-pong
//! latency percentiles and all-to-one fan-in throughput and emits
//! `BENCH_rt.json` so the runtime's perf trajectory is tracked in-repo.
//!
//! ```text
//! rt_throughput [--quick] [--label STR] [--out PATH] [--check PATH] [--shards N]
//! ```
//!
//! * `--quick`            reduced round/message counts (CI smoke); skips
//!   the shard sweep.
//! * `--label`            free-form description recorded in the JSON.
//! * `--out`              write the JSON document to PATH (default: stdout).
//! * `--check`            compare measured fan-in msgs/sec against the
//!   `lockfree` number recorded in PATH; exit non-zero on a >20%
//!   regression. When the shard sweep ran, additionally gates it:
//!   throughput must not decrease by more than 10% from one shard count
//!   to the next, and the top shard count must strictly beat `shards=1`
//!   when the host has more than one core.
//! * `--shards N`         per-node proxy shard threads for the main
//!   ping-pong / fan-in runs (default 1). The recorded baseline is the
//!   unsharded single-proxy number, so `--shards 2 --check` gates the
//!   sharding tax on a single-user workload.
//!
//! A default run measures the two workloads and then sweeps the
//! proxies×users fan-in over 1/2/4 shards. The results sit under the
//! `lockfree` key, as they have since the locked `Mutex<VecDeque>` plane
//! was the other half of an A/B (EXPERIMENTS.md keeps that record), so
//! committed `BENCH_rt.json` files stay comparable.

use std::fmt::Write as _;
use std::process::ExitCode;

use mproxy_bench::rt::{self, FanIn, PingPong, ShardPoint};
use mproxy_rt::MAX_SHARDS;

/// Allowed fan-in msgs/sec regression before `--check` fails.
const CHECK_TOLERANCE: f64 = 0.20;
/// Allowed step-to-step dip in the shard sweep before `--check` fails —
/// tighter than [`CHECK_TOLERANCE`] because consecutive sweep points run
/// back to back in one process, so run-to-run noise is the only slack
/// needed; on a single-core host extra shard threads must be near-free.
const SWEEP_TOLERANCE: f64 = 0.10;
/// Fan-in source processes (each on its own node).
const SOURCES: usize = 3;
/// Shard counts the proxies×users sweep visits.
const SWEEP_SHARDS: [usize; 3] = [1, 2, 4];
/// Sink users sharing node 0 in the sweep: a multiple of every swept
/// shard count, so the round-robin placement loads each lane equally
/// (8 / 4+4 / 2+2+2+2).
const SWEEP_USERS: usize = 8;
/// PUT payload bytes for sweep points. Bulk frames, unlike the main runs'
/// [`rt::PAYLOAD`]-byte pings: the sweep's question is how *delivery
/// work* scales with proxy shards, so the per-message segment copy must
/// dominate per-frame bookkeeping (at tiny payloads the curve mostly
/// measures scheduler churn on oversubscribed hosts).
const SWEEP_PAYLOAD: u32 = 2048;
/// Best-of runs per sweep point: the sweep's contract is *monotonic
/// non-decreasing*, so each point takes the best of a few runs to keep
/// scheduler noise from manufacturing a fake regression. Reps are
/// interleaved across shard counts (rep-major) so a noisy host epoch
/// taxes every point equally instead of whichever point it lands on.
/// Points are deliberately short (~0.2 s) and reps many: shared-host
/// noise arrives in multi-second bursts, and a short point has a real
/// chance of landing wholly inside a quiet window, which is the regime
/// the sweep is defined over.
const SWEEP_REPS: usize = 15;

struct Args {
    quick: bool,
    label: String,
    out: Option<String>,
    check: Option<String>,
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        label: "current".to_string(),
        out: None,
        check: None,
        shards: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--label" => args.label = value("--label")?,
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if !(1..=MAX_SHARDS).contains(&args.shards) {
                    return Err(format!("--shards must be in 1..={MAX_SHARDS}"));
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Extracts the recorded fan-in msgs/sec from a JSON document produced
/// by this binary (manual scan; the harnesses avoid a JSON dependency).
fn extract_lockfree_fanin(doc: &str) -> Option<f64> {
    let plane = doc.find("\"lockfree\":")?;
    let fanin = plane + doc[plane..].find("\"fan_in\":")?;
    let key = "\"msgs_per_sec\":";
    let k = fanin + doc[fanin..].find(key)? + key.len();
    let rest = doc[k..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Both main workloads.
fn run_main(pp_rounds: u64, fi_msgs: u64, shards: usize) -> (PingPong, FanIn) {
    eprintln!("rt_throughput: ping-pong ({pp_rounds} rounds, {shards} shards) ...");
    let pp = rt::ping_pong(pp_rounds, true, shards);
    eprintln!(
        "rt_throughput:   p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        pp.p50_us, pp.p90_us, pp.p99_us
    );
    eprintln!("rt_throughput: fan-in ({SOURCES} sources x {fi_msgs} msgs, {shards} shards) ...");
    let fi = rt::fan_in(SOURCES, fi_msgs, true, shards);
    eprintln!("rt_throughput:   {:.0} msgs/sec", fi.msgs_per_sec);
    (pp, fi)
}

/// The proxies×users sweep: best-of-[`SWEEP_REPS`] multi-user bulk
/// fan-in at each shard count in [`SWEEP_SHARDS`].
///
fn run_sweep(fi_msgs: u64) -> Vec<ShardPoint> {
    eprintln!(
        "rt_throughput: sweep fan-in ({SOURCES} sources x {fi_msgs} x {SWEEP_PAYLOAD}B msgs -> \
         {SWEEP_USERS} users, shards {SWEEP_SHARDS:?}, best of {SWEEP_REPS} interleaved) ..."
    );
    let mut best: Vec<Option<ShardPoint>> = vec![None; SWEEP_SHARDS.len()];
    for _ in 0..SWEEP_REPS {
        for (i, &shards) in SWEEP_SHARDS.iter().enumerate() {
            let p = rt::fan_in_users(shards, SWEEP_USERS, SOURCES, fi_msgs, SWEEP_PAYLOAD);
            if best[i].is_none_or(|b| p.msgs_per_sec > b.msgs_per_sec) {
                best[i] = Some(p);
            }
        }
    }
    let sweep: Vec<ShardPoint> = best.into_iter().map(|p| p.expect("SWEEP_REPS > 0")).collect();
    for p in &sweep {
        eprintln!(
            "rt_throughput:   {} shards: {:.0} msgs/sec",
            p.shards, p.msgs_per_sec
        );
    }
    sweep
}

fn sweep_json(sweep: &[ShardPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in sweep.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"shards\": {}, \"users\": {}, \"sources\": {}, \
             \"msgs_per_source\": {}, \"payload\": {}, \"wall_s\": {:.6}, \
             \"msgs_per_sec\": {:.1}}}",
            p.shards, p.users, p.sources, p.msgs_per_source, p.payload, p.wall_s, p.msgs_per_sec
        );
        s.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]");
    s
}

/// Gates the sweep: monotone non-decreasing (within [`SWEEP_TOLERANCE`])
/// across consecutive shard counts, and a strict speedup from the first
/// to the last point when the host actually has parallel cores.
fn check_sweep(sweep: &[ShardPoint]) -> Result<(), String> {
    for w in sweep.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.msgs_per_sec < a.msgs_per_sec * (1.0 - SWEEP_TOLERANCE) {
            return Err(format!(
                "sweep NOT monotone: {} shards {:.0} msgs/sec -> {} shards {:.0} msgs/sec \
                 (> {:.0}% dip)",
                a.shards,
                a.msgs_per_sec,
                b.shards,
                b.msgs_per_sec,
                SWEEP_TOLERANCE * 100.0
            ));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores > 1 {
        let (first, last) = (&sweep[0], &sweep[sweep.len() - 1]);
        if last.msgs_per_sec <= first.msgs_per_sec {
            return Err(format!(
                "no sharding speedup on a {cores}-core host: {} shards {:.0} msgs/sec vs \
                 {} shards {:.0} msgs/sec",
                first.shards, first.msgs_per_sec, last.shards, last.msgs_per_sec
            ));
        }
    } else {
        eprintln!("rt_throughput: single-core host; strict sweep speedup not asserted");
    }
    Ok(())
}

fn plane_json(pp: &PingPong, fi: &FanIn) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "      \"ping_pong\": {{");
    let _ = writeln!(s, "        \"rounds\": {},", pp.rounds);
    let _ = writeln!(s, "        \"wall_s\": {:.6},", pp.wall_s);
    let _ = writeln!(s, "        \"p50_us\": {:.2},", pp.p50_us);
    let _ = writeln!(s, "        \"p90_us\": {:.2},", pp.p90_us);
    let _ = writeln!(s, "        \"p99_us\": {:.2}", pp.p99_us);
    let _ = writeln!(s, "      }},");
    let _ = writeln!(s, "      \"fan_in\": {{");
    let _ = writeln!(s, "        \"sources\": {},", fi.sources);
    let _ = writeln!(s, "        \"msgs_per_source\": {},", fi.msgs_per_source);
    let _ = writeln!(s, "        \"wall_s\": {:.6},", fi.wall_s);
    let _ = writeln!(s, "        \"msgs_per_sec\": {:.1}", fi.msgs_per_sec);
    let _ = writeln!(s, "      }}");
    let _ = write!(s, "    }}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rt_throughput: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (pp_rounds, fi_msgs) = if args.quick {
        (500, 5_000)
    } else {
        (3_000, 30_000)
    };
    let mode = if args.quick { "quick" } else { "full" };

    let (pp, fi) = run_main(pp_rounds, fi_msgs, args.shards);
    // The proxies×users sweep is a full-mode measurement with its own
    // shard axis; --quick (CI smoke) skips it for time.
    let sweep = if args.quick {
        Vec::new()
    } else {
        run_sweep(fi_msgs)
    };

    let mut doc = format!(
        "{{\n{}  \"after\": {{\n",
        mproxy_bench::reports::bench_header_json(None)
    );
    let _ = writeln!(doc, "    \"label\": \"{}\",", args.label);
    let _ = writeln!(doc, "    \"mode\": \"{mode}\",");
    let _ = writeln!(doc, "    \"shards\": {},", args.shards);
    let _ = write!(doc, "    \"lockfree\": {}", plane_json(&pp, &fi));
    if !sweep.is_empty() {
        let _ = write!(doc, ",\n    \"shard_sweep\": {}", sweep_json(&sweep));
    }
    doc.push('\n');
    doc.push_str("  }\n}\n");

    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("rt_throughput: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("rt_throughput: wrote {path}");
        }
        None => print!("{doc}"),
    }

    if let Some(path) = &args.check {
        let recorded = std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(extract_lockfree_fanin);
        let Some(recorded) = recorded else {
            eprintln!("rt_throughput: no recorded fan-in msgs/sec in {path}");
            return ExitCode::FAILURE;
        };
        let floor = recorded * (1.0 - CHECK_TOLERANCE);
        if fi.msgs_per_sec < floor {
            eprintln!(
                "rt_throughput: REGRESSION: {:.0} msgs/sec < {floor:.0} \
                 (recorded {recorded:.0} - {:.0}%)",
                fi.msgs_per_sec,
                CHECK_TOLERANCE * 100.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "rt_throughput: check ok: {:.0} msgs/sec vs recorded {recorded:.0} (floor {floor:.0})",
            fi.msgs_per_sec
        );
        if !sweep.is_empty() {
            if let Err(e) = check_sweep(&sweep) {
                eprintln!("rt_throughput: REGRESSION: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("rt_throughput: shard sweep check ok");
        }
    }
    ExitCode::SUCCESS
}
