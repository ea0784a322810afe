//! Command line: `bench` (one workload in this process — what the driver
//! runs), `run` (workloads each in their own process, a table a person
//! reads), `record` / `repeat` (provenance and the run-to-run table in
//! `crates/perf/RECORD.json`), `spec` (prints `BENCHMARK.json`).

use crate::json::{self, Value};
use crate::report::{self, Outcome};
use crate::span::Tracer;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Stat;
use crate::{clock, ctrl, probes, relay, sim, sys, RunPlan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "\
usage: incast-perf <command> [options]
  bench  --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
         one workload in this process; last stdout line is the result JSON
  run    [--all | --workload NAME] [--seed N] [--seconds S] [--trace] [--smoke]
         each workload in its own process: end-to-end table, and with
         --trace the separate traced run's per-layer table
  record [--seed N] [--allow-dirty]
         run --all --trace, stamp machine + revision, write crates/perf/RECORD.json;
         refuses a tree dirty outside BENCHMARK.json and RECORD.json unless
         --allow-dirty, which records the dirty paths in the stamp
  repeat [--seed N]   two full sets on this tree; per metric x workload the relative
                      difference against its bound; non-zero exit on a breach
  spec                print BENCHMARK.json as generated from src/spec.rs
workloads: relay_bulk_64B relay_incast_1400B relay_pingpong_64B sim_incast_full sim_fleet_hybrid ctrl_lease_churn";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    allow_dirty: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        allow_dirty: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace` alone (run) or `--trace 0|1` (bench, the driver's form).
                a.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--allow-dirty" => a.allow_dirty = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

/// Where traces go: `<target dir>/incast-perf/`, beside the build that
/// produced this executable (`<target dir>/<profile>/incast-perf`).
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(|t| t.join("incast-perf")))
        .unwrap_or_else(|| PathBuf::from("target/incast-perf"))
}

/// Runs one workload in this process.
fn run_workload(workload: &str, plan: &RunPlan) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut out = Outcome::default();
    match workload {
        spec::RELAY_BULK | spec::RELAY_INCAST | spec::RELAY_PINGPONG => {
            relay::run(workload, plan, &mut tracer, &mut out)
                .map_err(|e| format!("{workload}: {e}"))?
        }
        spec::SIM_INCAST => sim::run_incast_full(plan, &mut tracer, &mut out),
        spec::SIM_FLEET => sim::run_fleet_hybrid(plan, &mut tracer, &mut out),
        spec::CTRL_CHURN => ctrl::run(plan, &mut tracer, &mut out),
        other => return Err(format!("unknown workload {other}")),
    }
    if plan.traced {
        tracer.set_enabled(true);
        tracer.set_run(u32::MAX);
        probes::run_all(&mut tracer, &mut out, plan.smoke).map_err(|e| format!("probes: {e}"))?;
        out.set_layer("e2e.failed_ops_share", out.failed_share());
        let path = trace_dir().join(format!("trace-{workload}-seed{}.jsonl", plan.seed));
        tracer
            .write_jsonl(&path, workload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes.push(format!(
            "{} spans ({} dropped) -> {}",
            tracer.spans().len(),
            tracer.dropped(),
            path.display()
        ));
        out.span_table = tracer
            .summary()
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "{:<44} {:>9} {:>14.3} {:>14.3}",
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
    }
    if let Some(mb) = sys::peak_rss_mb() {
        out.e2e.insert(spec::PEAK_RSS_MB, Stat::exact(mb));
    }
    Ok(out)
}

/// Set (to the CPU number) in a `bench` process that was re-run pinned.
const PINNED_ENV: &str = "INCAST_PERF_PINNED";

/// Re-runs this `bench` invocation under `taskset`, pinned to one CPU,
/// and returns its exit code; `None` if this process is already the
/// pinned one or `taskset` cannot pin here (then the run goes ahead
/// unpinned and says so).
///
/// The relay workloads run on one CPU because on a two-vCPU guest two
/// buy nothing and measure the hypervisor: the harness and the relay's one
/// shard hand every datagram to each other through the loopback socket,
/// and across CPUs each hand-over wakes a halted vCPU. Measured on the
/// recording box, 5 s each: `relay_pingpong_64B` 43 us per round trip on
/// two CPUs against 4.9 us on one; `relay_bulk_64B` 378 k datagrams/s on
/// two against 400 k on one, while the relay's CPU per datagram doubles
/// (2.3 us against 1.2 us). Which of the two placements the scheduler
/// picks changes from run to run. The crate forbids `unsafe`, so it
/// cannot call `sched_setaffinity` itself.
fn rerun_pinned(args: &[String]) -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    // The highest allowed CPU: CPU 0 usually also serves the interrupts.
    let cpu = allowed.trim().rsplit([',', '-']).next()?.to_string();
    let can_pin = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !can_pin {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .arg("bench")
        .args(args)
        .env(PINNED_ENV, &cpu)
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

fn cmd_bench(args: &[String]) -> Result<i32, String> {
    let a = parse_args(args)?;
    let workload = a.workload.ok_or("bench needs --workload")?;
    let relay = workload.starts_with("relay_");
    if relay {
        if let Some(code) = rerun_pinned(args) {
            return Ok(code);
        }
    }
    let plan = RunPlan {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        traced: a.trace,
    };
    let mut out = run_workload(&workload, &plan)?;
    if relay {
        out.notes.push(match std::env::var(PINNED_ENV) {
            Ok(cpu) => format!("process pinned to CPU {cpu}"),
            Err(_) => "process NOT pinned (taskset unavailable): harness and relay may run on two CPUs, see cli::rerun_pinned".to_string(),
        });
    }
    out.notes.push(format!(
        "times on the nominal box (meter burst {:.1} us); this run's fastest burst {:.1} us",
        clock::NOMINAL_BURST_NS / 1e3,
        clock::fastest_reading() / 1e3
    ));
    report::print_human(&workload, plan.seed, plan.traced, &out);
    println!("{}", report::contract_line(plan.traced, &out));
    // An incorrect run is still a result the driver must see: exit 0.
    Ok(0)
}

/// One parsed result line of a child `bench` process.
#[derive(Debug, Clone)]
struct BenchResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Spawns `bench` for one workload, echoes its table, parses its last line.
fn spawn_bench(workload: &str, a: &Args, traced: bool, quiet: bool) -> Result<BenchResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("bench")
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    if !quiet {
        for l in &lines {
            println!("{l}");
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    parse_result(last).map_err(|e| format!("{workload}: {e}"))
}

fn parse_result(line: &str) -> Result<BenchResult, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or("metric lacks value")?;
        metrics.insert(name.clone(), value);
    }
    Ok(BenchResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

/// A full set: every selected workload, untraced (and traced if asked).
struct Set {
    e2e: BTreeMap<String, BenchResult>,
    layers: BTreeMap<String, BenchResult>,
}

fn run_set(a: &Args, quiet: bool) -> Result<Set, String> {
    let names: Vec<&str> = match &a.workload {
        Some(w) if !a.all => vec![w.as_str()],
        _ => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut set = Set {
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
    };
    for name in names {
        set.e2e
            .insert(name.to_string(), spawn_bench(name, a, false, quiet)?);
        if a.trace {
            set.layers
                .insert(name.to_string(), spawn_bench(name, a, true, quiet)?);
        }
    }
    Ok(set)
}

fn set_ok(set: &Set) -> bool {
    set.e2e
        .values()
        .chain(set.layers.values())
        .all(|r| r.correct && r.failed == 0)
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let a = parse_args(args)?;
    if !a.all && a.workload.is_none() {
        return Err("run needs --all or --workload".into());
    }
    let set = run_set(&a, false)?;
    println!("== summary (seed {})", a.seed);
    for (name, r) in &set.e2e {
        println!(
            "   {:<20} {}  failed {} of {}",
            name,
            if r.correct { "correct" } else { "INCORRECT" },
            r.failed,
            r.attempted
        );
    }
    Ok(if set_ok(&set) { 0 } else { 1 })
}

// ---------------------------------------------------------------------
// record / repeat: crates/perf/RECORD.json
// ---------------------------------------------------------------------

/// Paths a recorded tree may have dirty: the two files recording itself
/// rewrites. Anything else dirty means the numbers do not belong to the
/// revision they are stamped with.
fn dirt_allowed(path: &str) -> bool {
    path == "BENCHMARK.json" || path == format!("{}/RECORD.json", spec::PATHS[0])
}

fn record_path() -> Result<PathBuf, String> {
    let root = Command::new("git")
        .args(["rev-parse", "--show-toplevel"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| PathBuf::from(String::from_utf8_lossy(&o.stdout).trim()))
        .ok_or("record/repeat must run inside the git repository")?;
    Ok(root.join(spec::PATHS[0]).join("RECORD.json"))
}

fn set_json(set: &BTreeMap<String, BenchResult>) -> Value {
    Value::Obj(
        set.iter()
            .map(|(w, r)| {
                let mut o = BTreeMap::new();
                o.insert("correct".into(), Value::Bool(r.correct));
                o.insert("attempted".into(), Value::Num(r.attempted as f64));
                o.insert("failed".into(), Value::Num(r.failed as f64));
                o.insert(
                    "failed_ops_share".into(),
                    Value::Num(r.failed as f64 / r.attempted.max(1) as f64),
                );
                o.insert(
                    "metrics".into(),
                    Value::Obj(
                        r.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v)))
                            .collect(),
                    ),
                );
                (w.clone(), Value::Obj(o))
            })
            .collect(),
    )
}

/// Pretty-prints two levels deep so the file diffs line by line.
fn write_record(path: &PathBuf, record: &BTreeMap<String, Value>) -> Result<(), String> {
    let mut text = String::from("{\n");
    let n = record.len();
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        match v {
            Value::Obj(inner) if !inner.is_empty() => {
                text.push_str(&format!("  {}: {{\n", json::quote(k)));
                let m = inner.len();
                for (j, (ik, iv)) in inner.iter().enumerate() {
                    let icomma = if j + 1 < m { "," } else { "" };
                    text.push_str(&format!(
                        "    {}: {}{icomma}\n",
                        json::quote(ik),
                        json::write(iv)
                    ));
                }
                text.push_str(&format!("  }}{comma}\n"));
            }
            other => text.push_str(&format!(
                "  {}: {}{comma}\n",
                json::quote(k),
                json::write(other)
            )),
        }
    }
    text.push_str("}\n");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_record(path: &PathBuf) -> BTreeMap<String, Value> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|v| v.as_obj().cloned())
        .unwrap_or_default()
}

fn stamp(allow_dirty: bool) -> Result<Value, String> {
    let (rev, dirty) = sys::git_state().ok_or("not a git checkout")?;
    let offending: Vec<String> = dirty.into_iter().filter(|p| !dirt_allowed(p)).collect();
    if !offending.is_empty() && !allow_dirty {
        return Err(format!(
            "refusing to record: the tree is dirty outside BENCHMARK.json and RECORD.json: {offending:?}"
        ));
    }
    let m = sys::MachineStamp::read();
    let mut o = BTreeMap::new();
    // With dirty paths the numbers belong to `git_rev` plus those
    // uncommitted files, not to `git_rev` itself.
    o.insert("git_rev".into(), Value::Str(rev));
    o.insert("clean".into(), Value::Bool(offending.is_empty()));
    o.insert(
        "dirty_paths".into(),
        Value::Arr(offending.into_iter().map(Value::Str).collect()),
    );
    o.insert("nproc".into(), Value::Num(m.nproc as f64));
    o.insert("cpu_model".into(), Value::Str(m.cpu_model));
    o.insert("kernel".into(), Value::Str(m.kernel));
    o.insert("rustc".into(), Value::Str(m.rustc));
    o.insert(
        "socket_layer".into(),
        Value::Str(netproxy::SocketLayer::Auto.name().to_string()),
    );
    o.insert("link".into(), Value::Str("loopback".into()));
    o.insert(
        "rmem_default".into(),
        Value::Num(sys::rmem_default().unwrap_or(0) as f64),
    );
    o.insert("run_seconds".into(), Value::Num(spec::RUN_SECONDS as f64));
    let mut frozen = BTreeMap::new();
    for w in [spec::RELAY_BULK, spec::RELAY_INCAST, spec::RELAY_PINGPONG] {
        let s = relay::shape_of(w);
        frozen.insert(
            w.to_string(),
            Value::Str(format!(
                "flows {} window {} payload {} B trim 1/{} ack {} warmup {}",
                s.flows, s.window, s.payload, s.trim_one_in, s.ack, s.warmup_ops
            )),
        );
    }
    o.insert("frozen_relay_shapes".into(), Value::Obj(frozen));
    Ok(Value::Obj(o))
}

fn cmd_record(args: &[String]) -> Result<i32, String> {
    let mut a = parse_args(args)?;
    a.all = true;
    a.trace = true;
    let path = record_path()?;
    let stamp = stamp(a.allow_dirty)?;
    let set = run_set(&a, false)?;
    let mut record = read_record(&path);
    record.insert("machine".into(), stamp);
    record.insert("seed".into(), Value::Num(a.seed as f64));
    record.insert("end_to_end".into(), set_json(&set.e2e));
    record.insert("per_layer".into(), set_json(&set.layers));
    let mut summary = BTreeMap::new();
    summary.insert("all_correct".into(), Value::Bool(set_ok(&set)));
    summary.insert(
        "note".into(),
        Value::Str("defines the benchmark; changes no product code".into()),
    );
    summary.insert("claim".into(), Value::Null);
    record.insert("summary".into(), Value::Obj(summary));
    write_record(&path, &record)?;
    println!("== recorded -> {}", path.display());
    Ok(if set_ok(&set) { 0 } else { 1 })
}

fn cmd_repeat(args: &[String]) -> Result<i32, String> {
    let mut a = parse_args(args)?;
    a.all = true;
    a.trace = true; // exact-count metrics live in the traced run
    let path = record_path()?;
    println!("== repeat: set 1");
    let first = run_set(&a, true)?;
    println!("== repeat: set 2");
    let second = run_set(&a, true)?;
    let mut table = BTreeMap::new();
    let mut breaches = 0;
    println!(
        "   {:<20} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (x, y) = (
                first.e2e[w.name].metrics[m.name],
                second.e2e[w.name].metrics[m.name],
            );
            // Either order may be the "parent": the difference must fit the bound both ways.
            let worse = m.better.worsening(x, y).max(m.better.worsening(y, x));
            let breach = worse > m.bound;
            breaches += breach as u32;
            println!(
                "   {:<20} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            table.insert(
                format!("{}/{}", w.name, m.name),
                Value::Str(format!(
                    "{x} vs {y}: {:.2}% of {:.0}%",
                    worse * 100.0,
                    m.bound * 100.0
                )),
            );
        }
        // Exact counts must agree bit for bit.
        for l in PER_LAYER.iter().filter(|l| l.exact) {
            let (x, y) = (
                first.layers[w.name].metrics[l.name],
                second.layers[w.name].metrics[l.name],
            );
            let breach = x.to_bits() != y.to_bits();
            breaches += breach as u32;
            if breach || x != 0.0 {
                println!(
                    "   {:<20} {:<44} {} {}{}",
                    w.name,
                    l.name,
                    x,
                    y,
                    if breach { "  DIFFERS" } else { "  identical" }
                );
            }
            table.insert(
                format!("{}/{}", w.name, l.name),
                Value::Str(if breach {
                    format!("{x} vs {y}: DIFFERS")
                } else {
                    format!("{x}: identical")
                }),
            );
        }
    }
    let ok = breaches == 0 && set_ok(&first) && set_ok(&second);
    let mut record = read_record(&path);
    let mut o = BTreeMap::new();
    o.insert("seed".into(), Value::Num(a.seed as f64));
    o.insert("breaches".into(), Value::Num(breaches as f64));
    o.insert("table".into(), Value::Obj(table));
    record.insert("repeat".into(), Value::Obj(o));
    write_record(&path, &record)?;
    println!("== repeat: {breaches} breaches -> {}", path.display());
    Ok(if ok { 0 } else { 1 })
}

pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bench") => cmd_bench(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(0)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("incast-perf: {message}");
            2
        }
    }
}
