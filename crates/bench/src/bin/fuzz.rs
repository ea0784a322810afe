//! Fuzzer driver: random fault-laden scenarios, with shrinking and
//! replayable repro files ([`bench::fuzz`]).
//!
//! ```text
//! fuzz [--control-plane | --soak] [--count N] [--start-seed S] [--jobs J]
//!      [--out DIR] [--shrink-budget N] [--replay FILE]
//! ```
//!
//! Campaign mode (default): generates and runs `--count` scenarios from
//! consecutive fuzz seeds. Every failure (panic, invariant violation,
//! event-cap livelock) is shrunk to a minimal scenario that fails the
//! same way and written to `--out` as a JSON repro file. Exits non-zero
//! when any scenario failed. The closing line also says how many
//! scenarios fell in each of the family's census cells (the chaos
//! family's: transport × failover). The default family is the chaos fuzzer
//! (the packet simulator under fault plans); `--control-plane` runs the
//! sharded lease plane ([`bench::cpfuzz`]) instead: shard crashes
//! mid-incast, stale placements, and gossip delayed past lease expiry,
//! checked against a lease-lifecycle model and the lease ledger.
//! `--soak` runs the live relay on loopback sockets ([`bench::soak`]):
//! a fault plan on its sockets, a shard crash and wedge, and the shed
//! ladder, judged by a packet-accounting ledger. Soak scenarios time real
//! sockets, so they run one at a time whatever `--jobs` says.
//!
//! Replay mode (`--replay FILE`): [`bench::fuzz::replay`] runs the file's
//! scenario **twice**, checks the two runs are identical (determinism)
//! and that the outcome matches the file's `expect` field (`"clean"` or a
//! failure kind); the family comes from the file's `"type"` tag. Exits 1
//! on mismatch or divergence, 2 on a file it cannot read, parse, or
//! whose tag names no family.

use bench::cpfuzz::ControlPlane;
use bench::fuzz::{details, replay, run_campaign, Campaign, Chaos, Family, DEFAULT_SHRINK_BUDGET};
use bench::soak::Soak;

#[derive(Debug, Clone)]
struct Cli {
    control_plane: bool,
    soak: bool,
    count: u64,
    start_seed: u64,
    jobs: usize,
    out: String,
    shrink_budget: usize,
    replay: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            control_plane: false,
            soak: false,
            count: 500,
            start_seed: 1,
            jobs: 0,
            out: "target/fuzz-repros".to_string(),
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            replay: None,
        }
    }
}

fn parse_args() -> Cli {
    let mut cli = Cli::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = "usage: fuzz [--control-plane | --soak] [--count N] [--start-seed S] [--jobs J] \
                 [--out DIR] [--shrink-budget N] [--replay FILE]";
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("{arg} needs a value; {usage}"))
                .clone()
        };
        match arg.as_str() {
            "--control-plane" => cli.control_plane = true,
            "--soak" => cli.soak = true,
            "--count" => cli.count = value().parse().expect("--count: integer"),
            "--start-seed" => cli.start_seed = value().parse().expect("--start-seed: integer"),
            "--jobs" => cli.jobs = value().parse().expect("--jobs: integer"),
            "--out" => cli.out = value(),
            "--shrink-budget" => {
                cli.shrink_budget = value().parse().expect("--shrink-budget: integer")
            }
            "--replay" => cli.replay = Some(value()),
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; {usage}"),
        }
    }
    cli
}

/// Runs a campaign of family `F`; writes a repro per finding. Exit code 1
/// when any scenario failed.
fn campaign<F: Family>(cli: &Cli) -> i32 {
    let family = F::TAG.map_or(String::new(), |tag| format!("{tag} "));
    println!(
        "== fuzz: {} {family}scenarios from seed {} (shrink budget {}) ==",
        cli.count, cli.start_seed, cli.shrink_budget
    );
    // Failing scenarios panic inside catch_unwind; silence the default
    // hook's backtrace spam for the campaign (panics are reported as
    // findings instead).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let Campaign { findings, census } =
        run_campaign::<F>(cli.start_seed, cli.count, cli.jobs, cli.shrink_budget);
    std::panic::set_hook(default_hook);

    // The family's census rides on the closing line, e.g.
    // "; rate+failover: 61 of 500".
    let census: String = census
        .iter()
        .map(|(cell, n)| format!("; {cell}: {n} of {}", cli.count))
        .collect();
    if findings.is_empty() {
        println!("all {} {family}scenarios clean{census}", cli.count);
        return 0;
    }
    eprintln!("{} failing {family}scenario(s){census}:", findings.len());
    for finding in &findings {
        eprintln!(
            "  seed {}: {} — {}",
            finding.seed,
            finding.kind,
            F::describe(&finding.shrunk)
        );
        for line in details::<F>(&finding.outcome) {
            eprintln!("    {line}");
        }
        let prefix = F::TAG.map_or(String::new(), |tag| format!("{tag}-"));
        let path = format!(
            "{}/{prefix}repro-seed{}-{}.json",
            cli.out, finding.seed, finding.kind
        );
        let written = std::fs::create_dir_all(&cli.out)
            .and_then(|()| std::fs::write(&path, finding.repro().to_json()));
        match written {
            Ok(()) => eprintln!("    repro written to {path}"),
            Err(e) => eprintln!("    failed to write repro: {e}"),
        }
    }
    1
}

fn main() {
    let cli = parse_args();
    let code = match &cli.replay {
        Some(path) => match replay(path) {
            Ok(passed) => i32::from(!passed),
            Err(e) => {
                eprintln!("fuzz: {path}: {e}");
                2
            }
        },
        None if cli.control_plane => campaign::<ControlPlane>(&cli),
        None if cli.soak => campaign::<Soak>(&cli),
        None => campaign::<Chaos>(&cli),
    };
    std::process::exit(code);
}
