//! One benchmark for the proxy runtime and the simulator. README.md has the
//! workloads, the metrics and how they are meant to interact;
//! `../BENCHMARK.json` has the contract this binary is run under.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out FILE] [--repeat N] [--trace-out FILE]
//! perfbench --compare A B [--bounds BENCHMARK.json]
//! perfbench --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod cpu;
mod host;
mod json;
mod probes;
mod rep;
mod rt;
mod sim;
mod span;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use host::Host;
use json::Value;
use rep::Rep;
use span::{Name, Recorder};
use spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use stats::Summary;

const DEFAULT_SEED: u64 = 1997;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;
const QUICK_SECONDS: f64 = 0.25;
/// Timed reps a run's `--seconds` are cut into.
const REPS: usize = 40;
/// No run makes more reps than this, however short they turn out.
const MAX_REPS: usize = 128;
/// The warm-up rep is a tenth of the run, but no longer than this.
const WARM_UP_SECONDS: f64 = 1.0;

#[derive(Debug, Clone)]
struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke-test sizes: a fraction of a second, `sim_apps` on two nodes,
    /// probes cut a thousandfold. Checks outputs; measures nothing steady.
    quick: bool,
    /// Where a traced run writes its Chrome trace.
    trace_out: Option<PathBuf>,
    /// This executable, to time set-ups in fresh processes with
    /// (`--setup-probe`); without it the reps' own set-ups are reported.
    exe: Option<PathBuf>,
}

/// One metric of a run: the value reported, and the summary of the
/// per-rep values it was taken from.
struct Measured {
    spec: &'static MetricSpec,
    value: f64,
    over: Summary,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Measured>,
    errors: Vec<String>,
    notes: Vec<String>,
}

fn run_rep(cfg: &Config, budget: f64, tracer: Option<&mut Recorder>) -> Rep {
    let budget = Duration::from_secs_f64(budget.max(0.0));
    match cfg.workload {
        Workload::RtLatency => rt::latency(cfg.seed, budget, tracer),
        Workload::RtFaninSmall => rt::small_stream(cfg.seed, budget, 2, false, tracer),
        Workload::RtBulkBidir => rt::bulk_bidir(cfg.seed, budget, tracer),
        Workload::RtLossy => rt::small_stream(cfg.seed, budget, 1, true, tracer),
        Workload::SimFaultyLink => {
            let units = if cfg.quick {
                sim::UNITS_QUICK
            } else {
                sim::UNITS
            };
            sim::faulty_link(cfg.seed, units, tracer)
        }
        Workload::SimApps => {
            let nodes = if cfg.quick {
                sim::APP_NODES_QUICK
            } else {
                sim::APP_NODES
            };
            sim::apps_cycle(cfg.seed, nodes, tracer)
        }
    }
}

/// `--setup-probe`: sets the workload up once, as a rep would, and prints
/// the seconds it took.
fn setup_probe(cfg: &Config) -> ExitCode {
    let took = rt::set_up_only(cfg.workload, cfg.seed)
        .or_else(|| sim::set_up_only(cfg.workload, cfg.seed));
    println!(
        "{}",
        took.expect("every workload is on the runtime or on the simulator")
    );
    ExitCode::SUCCESS
}

/// Set-up time as a user pays it: in a fresh process, with a cold
/// allocator. Inside one long-lived process the same set-up costs anything
/// between a third and the whole of that, depending on whether the
/// allocator happens to hand back pages it kept or must fault new ones in,
/// which no workload controls. Returns `None` when the probe process fails.
fn probe_setup(cfg: &Config, exe: &Path) -> Option<f64> {
    let seed = cfg.seed.to_string();
    // `output` waits for the child: none is left running.
    let child = std::process::Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            cfg.workload.name(),
            "--seed",
            &seed,
        ])
        .output()
        .ok()?;
    let printed = String::from_utf8_lossy(&child.stdout);
    child
        .status
        .success()
        .then(|| printed.trim().parse().ok())?
}

fn run(cfg: &Config) -> Outcome {
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    // One discarded warm-up rep: page faults, allocator growth and thread
    // start-up paths are paid before anything is timed.
    let warm = run_rep(cfg, (cfg.seconds / 10.0).min(WARM_UP_SECONDS), None);
    errors.extend(warm.errors.iter().map(|e| format!("warm-up: {e}")));

    // Timed reps, each on a fresh cluster or simulation, until the measured
    // windows add up to `seconds`. A traced run alternates untraced and
    // traced reps, so that both see the same host conditions.
    let slices = REPS as f64;
    let mut recorder = Recorder::default();
    let mut plain: Vec<Rep> = Vec::with_capacity(MAX_REPS);
    let mut traced: Vec<Rep> = Vec::with_capacity(MAX_REPS);
    let mut measured = 0.0;
    // Set-up probes run between the reps, not in a block of their own: the
    // host has slow spells of many seconds, and a block would fall wholly
    // inside or outside one.
    let mut probed = Vec::new();
    // A single-threaded workload takes its reps on each processor in turn:
    // the slow spells of one are not those of another, and the thread would
    // otherwise stay wherever the scheduler first put it.
    let cpus = if cfg.workload.single_threaded() {
        cpu::allowed()
    } else {
        Vec::new()
    };
    loop {
        if cpus.len() > 1 {
            // In a traced run a turn is an untraced rep and a traced one.
            let turn = (plain.len() + traced.len()) / (1 + usize::from(cfg.trace)) % cpus.len();
            cpu::confine_to(&cpus[turn..=turn]);
        }
        if let (Some(exe), false) = (&cfg.exe, cfg.trace) {
            match probe_setup(cfg, exe) {
                Some(s) => probed.push(s),
                None => errors.push("a set-up probe process failed".into()),
            }
        }
        let with_spans = cfg.trace && plain.len() > traced.len();
        let budget = (cfg.seconds / slices).min(cfg.seconds - measured);
        let mut rep = run_rep(cfg, budget, with_spans.then_some(&mut recorder));
        rep.close(cfg.workload);
        measured += rep.wall_s;
        let (last, broken) = (rep.wall_s, !rep.errors.is_empty());
        if with_spans { &mut traced } else { &mut plain }.push(rep);
        // A traced run ends on a traced rep: each untraced one has its pair.
        let paired = !cfg.trace || traced.len() == plain.len();
        let used_up =
            cfg.seconds - measured <= 0.5 * last || plain.len() + traced.len() >= MAX_REPS;
        if broken || (used_up && paired) {
            break;
        }
    }

    if cpus.len() > 1 {
        cpu::confine_to(&cpus);
    }
    let all = || plain.iter().chain(&traced);
    errors.extend(all().flat_map(|r| r.errors.iter().cloned()));
    // A rep cut short covers a prefix of what a full one covers.
    let first_print = &plain[0].fingerprint;
    let same_prefix = |r: &Rep| r.fingerprint.iter().zip(first_print).all(|(a, b)| a == b);
    if !all().all(same_prefix) {
        errors.push("simulated results differ between reps of one seed".into());
    }
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    if failed > 0 && errors.is_empty() {
        errors.push(format!("{failed} operations failed"));
    }
    notes.push(format!(
        "{} timed reps ({} traced) after 1 warm-up, {measured:.2} s measured",
        plain.len() + traced.len(),
        traced.len()
    ));

    let metrics = if cfg.trace {
        per_layer_metrics(cfg, &plain, &traced, &recorder, &mut notes)
    } else {
        end_to_end_metrics(cfg, &plain, &probed, &mut notes)
    };
    Outcome {
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        errors,
        notes,
    }
}

fn end_to_end_metrics(
    cfg: &Config,
    reps: &[Rep],
    probed: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Measured> {
    let w = cfg.workload;
    let mut e = rep::end_to_end(w, reps);
    if !probed.is_empty() {
        notes.push(format!(
            "setup_s is of {} fresh processes; the reps' own set-ups had a median of {:.6} s",
            probed.len(),
            e.setup_s.over.median
        ));
        e.setup_s = rep::Figure::across_reps(probed, false);
    }
    if !cfg.quick && stats::pick_tail(e.min_samples) < w.tail_permille() {
        notes.push(format!(
            "WARNING: {} latency samples leave fewer than ten beyond p{}",
            e.min_samples,
            w.tail_permille() as f64 / 10.0
        ));
    }
    notes.push(
        "value = the mean of the better quarter of the per-rep values (sim_apps: of each run over \
         the cycles)"
            .into(),
    );
    notes.push(format!(
        "op = {}; its p{} of >= {} samples (op.tail_us of a traced run): {:.3} us, median of reps {:.3}",
        w.op(),
        w.tail_permille() as f64 / 10.0,
        e.min_samples,
        e.op_tail_us.value,
        e.op_tail_us.over.median
    ));
    END_TO_END
        .iter()
        .map(|spec| {
            let rep::Figure { value, over } = match spec.name {
                "ops_per_s" => e.ops_per_s,
                "op_p50_us" => e.op_p50_us,
                "setup_s" => e.setup_s,
                "peak_rss_mb" => rep::Figure::median_of(&[host::peak_rss_mb()]),
                other => unreachable!("{other} is not an end-to-end metric"),
            };
            Measured { spec, value, over }
        })
        .collect()
}

fn per_layer_metrics(
    cfg: &Config,
    plain: &[Rep],
    traced: &[Rep],
    rec: &Recorder,
    notes: &mut Vec<String>,
) -> Vec<Measured> {
    // Counters, histograms and latencies come from the untraced reps; the
    // traced reps give what only spans can: time inside each public call.
    let mut layers: BTreeMap<&'static str, Summary> = rep::layer_medians(plain);
    let mut set = |name: &'static str, value: f64| {
        layers.insert(name, stats::summarize(&[value]));
    };
    let calls = [Name::EndpointPut, Name::EndpointGet, Name::EndpointEnq].map(|n| rec.total(n));
    let call_count: u64 = calls.iter().map(|t| t.count).sum();
    let call_ns: u64 = calls.iter().map(|t| t.ns).sum();
    if call_count > 0 {
        set("cluster.submit_ns", call_ns as f64 / call_count as f64);
        set(
            "cluster.wait_ns",
            rec.total(Name::EndpointWait).ns as f64 / call_count as f64,
        );
    }
    let rate = |reps: &[Rep]| stats::median(&reps.iter().map(Rep::ops_per_s).collect::<Vec<_>>());
    let (untraced, with_spans) = (rate(plain), rate(traced));
    if with_spans > 0.0 {
        set("trace.overhead_pct", (untraced / with_spans - 1.0) * 100.0);
    }
    set("trace.spans", rec.recorded() as f64);

    set(
        "op.tail_us",
        rep::end_to_end(cfg.workload, plain).op_tail_us.value,
    );

    let probes = probes::run_all(if cfg.quick { 1_000 } else { 1 });
    for &(name, value) in &probes {
        set(name, value);
    }
    let probe = |name: &str| probes.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1);
    if cfg.workload == Workload::RtBulkBidir && untraced > 0.0 {
        // Per-byte work per 4 KiB message, as the probes time it, beside
        // the measured time per message.
        let seg_pair_ns = 2.0 * 4096.0 / probe("mem.copy4k_mb_per_s") * 1e3;
        let copy_ns = seg_pair_ns + probe("bytes.copy4k_ns");
        let per_msg_ns = 1e9 / untraced;
        set("cluster.copy_share_pct", copy_ns / per_msg_ns * 100.0);
        notes.push(format!(
            "per 4 KiB message: mem.copy4k {seg_pair_ns:.0} ns + bytes.copy4k {:.0} ns = {copy_ns:.0} ns \
             of {per_msg_ns:.0} ns measured",
            probe("bytes.copy4k_ns")
        ));
    }
    if cfg.workload == Workload::RtLatency {
        let l = |name: &str| layers.get(name).map_or(0.0, |s| s.median);
        let (cmd, wire, lsync) = (
            l("cluster.cmd_wait_ns_p50"),
            l("cluster.wire_rtt_ns_p50"),
            l("cluster.lsync_rtt_ns_p50"),
        );
        let put = l("cluster.put_rtt_p50_us") * 1e3;
        let holds = cmd + wire <= lsync && lsync <= put;
        notes.push(format!(
            "stages of a one-word PUT (p50, ns): cmd_wait {cmd:.0} + wire_rtt {wire:.0} = {:.0} <= \
             lsync_rtt {lsync:.0} <= put_rtt {put:.0}: {}",
            cmd + wire,
            if holds { "holds" } else { "DOES NOT HOLD" }
        ));
    }
    if rec.total(Name::Op).count > 0 {
        notes.push(format!(
            "spans: {} recorded, {} kept for the trace file; generator self time {:.0} ns per op",
            rec.recorded(),
            rec.spans().len(),
            rec.op_self_ns() as f64 / rec.total(Name::Op).count as f64
        ));
    }
    if let Some(path) = &cfg.trace_out {
        let obs = traced.iter().rev().find_map(|r| r.obs_json.as_deref());
        match write_trace(path, cfg, rec, obs, &layers) {
            Ok(()) => notes.push(format!("trace written to {}", path.display())),
            Err(e) => notes.push(format!(
                "WARNING: trace not written to {}: {e}",
                path.display()
            )),
        }
    }
    PER_LAYER
        .iter()
        .map(|spec| {
            // A layer this workload never entered did no work: 0.
            let idle = stats::summarize(&[0.0]);
            let over = layers.get(spec.name).copied().unwrap_or(idle);
            Measured {
                spec,
                value: over.median,
                over,
            }
        })
        .collect()
}

/// Chrome-trace JSON: the benchmark's spans as `traceEvents`, plus the
/// runtime's telemetry snapshot and the per-layer values of the run.
fn write_trace(
    path: &Path,
    cfg: &Config,
    rec: &Recorder,
    obs_json: Option<&str>,
    layers: &BTreeMap<&'static str, Summary>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let layer_obj = json::obj(layers.iter().map(|(k, s)| (*k, Value::Num(s.median))));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"traceEvents\": [")?;
    writeln!(f, "{}", rec.chrome_events())?;
    writeln!(f, "],")?;
    writeln!(f, "\"displayTimeUnit\": \"ns\",")?;
    writeln!(
        f,
        "\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"layers\": {},",
        cfg.workload.name(),
        cfg.seed,
        Host::read().to_json().render(),
        layer_obj.render()
    )?;
    writeln!(f, "\"obs_snapshot\": {}}}}}", obs_json.unwrap_or("null"))?;
    f.flush()
}

fn result_json(o: &Outcome) -> Value {
    let metrics = o.metrics.iter().map(|m| {
        (
            m.spec.name,
            json::obj([
                ("value", Value::Num(m.value)),
                ("unit", json::str(m.spec.unit)),
            ]),
        )
    });
    json::obj([
        ("correct", Value::Bool(o.correct)),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("metrics", json::obj(metrics)),
    ])
}

fn print_report(cfg: &Config, host: &Host, o: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={} | nproc={} load1={:.2} git={} {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host.nproc,
        host.load1,
        host.git_rev,
        host.rustc
    );
    if host.load1 > host::LOAD_WARN {
        println!(
            "WARNING: 1-minute load average {:.2} > {}: the host is not idle",
            host.load1,
            host::LOAD_WARN
        );
    }
    for note in &o.notes {
        println!("{note}");
    }
    println!(
        "{:<34} {:>16} {:>16} {:>16} {:>16} {:>3}  {:<8} better",
        "metric", "value", "median", "q1", "q3", "n", "unit"
    );
    for m in &o.metrics {
        let better = if m.spec.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let (name, unit, s) = (m.spec.name, m.spec.unit, m.over);
        println!(
            "{name:<34} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>3}  {unit:<8} {better}",
            m.value, s.median, s.q1, s.q3, s.n
        );
    }
    println!("operations: {} attempted, {} failed", o.attempted, o.failed);
    for e in &o.errors {
        println!("CHECK FAILED: {e}");
    }
}

struct Args {
    cfg: Option<Config>,
    /// Internal: time one set-up and print it (see `probe_setup`).
    setup_probe: bool,
    out: Option<PathBuf>,
    repeat: usize,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (DEFAULT_SEED, None, false, false);
    let mut probe = false;
    let mut trace_out = None;
    let mut args = Args {
        cfg: None,
        setup_probe: false,
        out: None,
        repeat: 1,
        compare: None,
        bounds: "BENCHMARK.json".into(),
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--setup-probe" => probe = true,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&args.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--bounds" => args.bounds = value()?.into(),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(workload) = workload {
        let seconds = seconds.unwrap_or(if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        });
        let trace_out = trace_out
            .or_else(|| Some(format!("perfbench/out/trace-{}.json", workload.name()).into()))
            .filter(|_| trace);
        args.setup_probe = probe;
        args.cfg = Some(Config {
            workload,
            seed,
            seconds,
            trace,
            quick,
            trace_out,
            exe: std::env::current_exe().ok(),
        });
    } else if args.compare.is_none() && !args.list {
        return Err("one of --workload, --compare or --list is needed".into());
    }
    Ok(args)
}

/// `--repeat N`: N fresh processes back to back, so that every invocation
/// starts with its own peak-RSS mark and cold allocator.
fn repeat(argv: &[String], n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find myself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut child_args = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--repeat" {
            it.next();
        } else {
            child_args.push(a);
        }
    }
    let mut all_ok = true;
    for i in 1..=n {
        println!("--- invocation {i} of {n}");
        // `status` waits for the child: none is left running.
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(s) => all_ok &= s.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run invocation {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in Workload::ALL {
            println!("{:<16} op = {}", w.name(), w.op());
        }
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let done = read(&args.bounds)
            .and_then(|t| compare::read_bounds(&t))
            .and_then(|bounds| compare::compare(&read(a)?, &read(b)?, &bounds));
        return match done {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                println!("{n} metrics regressed past their bounds");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.repeat > 1 {
        return repeat(&argv, args.repeat);
    }

    let cfg = args.cfg.expect("parse_args requires a workload here");
    if args.setup_probe {
        return setup_probe(&cfg);
    }
    let host = Host::read();
    let outcome = run(&cfg);
    print_report(&cfg, &host, &outcome);
    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        let mut line = vec![
            ("workload".to_string(), json::str(cfg.workload.name())),
            ("seed".to_string(), Value::Num(cfg.seed as f64)),
            ("seconds".to_string(), Value::Num(cfg.seconds)),
            (
                "trace".to_string(),
                Value::Num(f64::from(u8::from(cfg.trace))),
            ),
            ("host".to_string(), host.to_json()),
        ];
        line.extend(
            result
                .as_obj()
                .expect("result is an object")
                .iter()
                .cloned(),
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", Value::Obj(line).render()));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, trace: bool, seed: u64) -> Outcome {
        // No `exe`: the test binary is not `perfbench`, so set-up times
        // come from the reps themselves.
        let cfg = Config {
            workload,
            seed,
            seconds: QUICK_SECONDS,
            trace,
            quick: true,
            trace_out: None,
            exe: None,
        };
        run(&cfg)
    }

    /// The `--quick` smoke of each workload passes its output checks and
    /// reports every end-to-end metric, none of them zero.
    #[test]
    fn every_workload_passes_its_checks_quickly() {
        for w in Workload::ALL {
            let t0 = std::time::Instant::now();
            let o = quick(w, false, DEFAULT_SEED);
            assert!(o.correct, "{}: {:?}", w.name(), o.errors);
            assert_eq!(o.failed, 0, "{}", w.name());
            assert_eq!(o.metrics.len(), END_TO_END.len());
            for m in &o.metrics {
                let value = m.value;
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {} = {value}",
                    w.name(),
                    m.spec.name
                );
            }
            let doc = json::parse(&result_json(&o).render()).expect("result line parses");
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                t0.elapsed().as_secs_f64() < 20.0,
                "{} smoke took {:?}",
                w.name(),
                t0.elapsed()
            );
        }
    }

    /// A traced run reports every per-layer metric, and another seed passes
    /// the checks too.
    #[test]
    fn traced_runs_report_every_layer() {
        for w in [
            Workload::RtLatency,
            Workload::RtBulkBidir,
            Workload::SimFaultyLink,
        ] {
            let o = quick(w, true, 7);
            assert!(o.correct, "{}: {:?}", w.name(), o.errors);
            let names: Vec<&str> = o.metrics.iter().map(|m| m.spec.name).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            let value = |n: &str| o.metrics.iter().find(|m| m.spec.name == n).unwrap().value;
            assert!(value("trace.spans") > 0.0 && value("spsc.send_recv_ns") > 0.0);
            if w == Workload::SimFaultyLink {
                assert!(value("des.events") > 0.0 && value("core.link_retransmits") > 0.0);
                assert_eq!(
                    value("cluster.submit_ns"),
                    0.0,
                    "the runtime is never entered"
                );
            } else {
                assert!(value("cluster.submit_ns") > 0.0 && value("cluster.put_rtt_p50_us") > 0.0);
                assert_eq!(
                    value("cluster.retransmits_per_kmsg"),
                    0.0,
                    "no loss was injected"
                );
                assert_eq!(value("des.events"), 0.0, "the simulator is never entered");
            }
        }
    }

    #[test]
    fn command_line_follows_the_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload rt_lossy --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        let cfg = a.cfg.unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
            (Workload::RtLossy, 42, 10.0, true)
        );
        assert_eq!(
            cfg.trace_out,
            Some("perfbench/out/trace-rt_lossy.json".into())
        );
        let cfg = parse_args(&argv("--workload sim_apps --trace 0"))
            .unwrap()
            .cfg
            .unwrap();
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace_out),
            (DEFAULT_SEED, DEFAULT_SECONDS, None)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sim_apps --trace",
            "--workload sim_apps --trace 2",
            "--workload sim_apps --seconds 0",
            "--workload sim_apps --repeat 0",
            "--compare a",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
        assert!(parse_args(&argv("--compare a b"))
            .unwrap()
            .compare
            .is_some());
    }
}
