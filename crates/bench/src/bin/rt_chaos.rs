//! Chaos soak for the threaded runtime: drives kill / corrupt / stall
//! scenarios under load (see [`mproxy_bench::chaos`]) and checks the
//! recovery invariants — no acked op lost or duplicated, recovery
//! bounded, survivors live. Emits `BENCH_chaos.json` and exits non-zero
//! on any violation, which is the CI gate.
//!
//! ```text
//! rt_chaos [--quick] [--check] [--seeds N] [--label STR] [--out PATH]
//! ```
//!
//! * `--quick`   fewer randomized seeds and lighter per-scenario load
//!   (CI smoke).
//! * `--check`   gate mode: suppress the JSON document, just run and
//!   exit non-zero on violation.
//! * `--seeds`   randomized scenario count (default 30 full / 6 quick).
//! * `--label`   free-form description recorded in the JSON.
//! * `--out`     write the JSON document to PATH (default: stdout).

use std::fmt::Write as _;
use std::process::ExitCode;

use mproxy_bench::chaos::{self, ScenarioResult};

struct Args {
    quick: bool,
    check: bool,
    seeds: Option<u64>,
    label: String,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        check: false,
        seeds: None,
        label: "current".to_string(),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--seeds" => {
                args.seeds = Some(
                    value("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?,
                );
            }
            "--label" => args.label = value("--label")?,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn scenario_json(r: &ScenarioResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{ \"name\": \"{}\", \"seed\": {}, \"passed\": {}, \"acked_ops\": {}, \
         \"deaths\": {}, \"restarts\": {}, \"max_ack_wait_ms\": {:.2}",
        r.name, r.seed, r.passed, r.acked_ops, r.deaths, r.restarts, r.max_ack_wait_ms
    );
    if !r.failure.is_empty() {
        let _ = write!(s, ", \"failure\": \"{}\"", mproxy_obs::json::esc(&r.failure));
    }
    if !r.shutdown_json.is_empty() {
        let _ = write!(s, ",\n      \"shutdown\": {}", r.shutdown_json);
    }
    if let Some(obs) = &r.obs {
        let _ = write!(s, ",\n      \"obs\": {}", obs.to_json());
    }
    let _ = write!(s, " }}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rt_chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seeds, fan_msgs, load_msgs, ring_rounds) = if args.quick {
        (args.seeds.unwrap_or(6), 40, 200, 25)
    } else {
        (args.seeds.unwrap_or(30), 80, 600, 40)
    };
    let mode = if args.quick { "quick" } else { "full" };

    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut run = |r: ScenarioResult| {
        eprintln!(
            "rt_chaos: {:<24} seed {:<3} {} (acked {}, deaths {}, restarts {}, \
             max ack wait {:.1} ms){}",
            r.name,
            r.seed,
            if r.passed { "ok " } else { "FAIL" },
            r.acked_ops,
            r.deaths,
            r.restarts,
            r.max_ack_wait_ms,
            if r.failure.is_empty() {
                String::new()
            } else {
                format!(" — {}", r.failure)
            }
        );
        results.push(r);
    };

    // Deterministic scenarios: one of each fault family.
    run(chaos::kill_sink_fan_in(101, fan_msgs));
    run(chaos::kill_sender_fan_in(202, fan_msgs));
    run(chaos::corrupt_under_load(303, load_msgs));
    run(chaos::stall_survivor_liveness(404, ring_rounds));
    // Seeded randomized soak.
    for seed in 0..seeds {
        run(chaos::randomized(seed, ring_rounds));
    }

    let passed = results.iter().filter(|r| r.passed).count();
    let total = results.len();
    let acked: u64 = results.iter().map(|r| r.acked_ops).sum();
    let deaths: u64 = results.iter().map(|r| r.deaths).sum();
    let restarts: u64 = results.iter().map(|r| r.restarts).sum();
    let max_wait = results
        .iter()
        .map(|r| r.max_ack_wait_ms)
        .fold(0.0f64, f64::max);
    eprintln!(
        "rt_chaos: {passed}/{total} scenarios clean — {acked} acked ops, {deaths} proxy \
         deaths, {restarts} respawns, max ack wait {max_wait:.1} ms"
    );

    if !args.check {
        let mut doc = format!("{{\n{}", mproxy_bench::reports::bench_header_json(None));
        let _ = writeln!(doc, "  \"label\": \"{}\",", args.label);
        let _ = writeln!(doc, "  \"mode\": \"{mode}\",");
        let _ = writeln!(doc, "  \"scenarios\": {total},");
        let _ = writeln!(doc, "  \"passed\": {passed},");
        let _ = writeln!(doc, "  \"acked_ops\": {acked},");
        let _ = writeln!(doc, "  \"proxy_deaths\": {deaths},");
        let _ = writeln!(doc, "  \"respawns\": {restarts},");
        let _ = writeln!(doc, "  \"max_ack_wait_ms\": {max_wait:.2},");
        let _ = writeln!(doc, "  \"results\": [");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 < results.len() { "," } else { "" };
            let _ = writeln!(doc, "{}{sep}", scenario_json(r));
        }
        doc.push_str("  ]\n}\n");
        match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("rt_chaos: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rt_chaos: wrote {path}");
            }
            None => print!("{doc}"),
        }
    }

    if passed != total {
        eprintln!("rt_chaos: INVARIANT VIOLATION in {} scenario(s)", total - passed);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
