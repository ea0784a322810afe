//! `ctrl_lease_churn`: the sharded lease control plane under steady churn.
//!
//! Pure CPU — no sockets, no simulator: the only workload where the lease
//! table, shard lookup and gossip are the whole cost, and where the
//! takeover path runs. One repetition is a healthy phase and a phase with
//! shard 0 crashed and gossip converged; each phase holds 1,024 leases,
//! churns release+select pairs against them, then runs renew sweeps
//! (`advance_to` +1 ms, renew all 1,024).

use crate::clock::{self, timed, Lap, Laps, Scaled};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::spec::{self, Better};
use crate::stats::{best_decile, best_sum, grouped_quantile, Stat};
use crate::RunPlan;
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::{
    IncastRequest, ProxySelector, RenewOutcome, ShardedConfig, ShardedOrchestrator,
};
use std::hint::black_box;
use trace::derive_seed;

const CONCURRENT: u64 = 1024;
const CANDIDATES: u32 = 64;
/// Release+select pairs per phase, renew sweeps per phase. (The shape is
/// 1:10 of ISSUE 11's 2 M pairs + 10,000 sweeps so a fifteen-second run
/// holds enough repetitions for a median.)
const PAIRS: u64 = 200_000;
const SWEEPS: u64 = 1_000;
const WARMUP_PAIRS: u64 = 100_000;
/// One select in this many is timed on its own; one call in
/// `SPAN_EVERY` gets a span in a traced repetition.
const TIME_EVERY: u64 = 4;
const SPAN_EVERY: u64 = 64;

fn request(id: u64, receivers: &[HostId]) -> IncastRequest {
    IncastRequest {
        id,
        senders: vec![HostId(1000), HostId(1001)],
        receiver: receivers[(id % receivers.len() as u64) as usize],
        expected_bytes: 1 << 20,
    }
}

/// A plane already carrying `CONCURRENT` live leases. Returns the plane,
/// its clock, the next unused id, and how many grants were refused.
fn loaded_plane(
    seed: u64,
    crash: bool,
    receivers: &[HostId],
) -> (ShardedOrchestrator, SimTime, u64, u64) {
    let mut orch = ShardedOrchestrator::new(
        (0..CANDIDATES).map(HostId).collect(),
        ShardedConfig::default(),
        seed,
    );
    if crash {
        orch.crash_shard(0);
    }
    // Four heartbeat periods, one tick at a time so each round of gossip
    // is delivered: with a crash, the survivors then suspect exactly the
    // dead shard and grants for its receivers go through sibling
    // takeover, not the pre-convergence fallback.
    let mut now = SimTime::ZERO;
    for _ in 0..4 {
        now += SimDuration::from_millis(1);
        orch.advance_to(now);
    }
    let mut refused = 0;
    for id in 0..CONCURRENT {
        if orch.select(&request(id, receivers)).is_none() {
            refused += 1;
        }
    }
    (orch, now, CONCURRENT, refused)
}

/// Pieces per stretch: the churn and the sweeps of a phase are each cut
/// into this many equal chunks (about 25 ms), timed separately: short
/// enough to fall inside a quiet moment of the host (see `stats`).
const CHUNKS: usize = 4;

#[derive(Default)]
struct Phase {
    /// Each chunk of the churn, then of the sweeps (not loading the
    /// plane, whose 1,024 grants are not counted as decisions either).
    chunks: Vec<Lap>,
    decisions: u64,
    refused: u64,
    not_renewed: u64,
    /// Wall ns of the sweeps, split by what was called.
    renew_ns: u64,
    advance_ns: u64,
    pairs: u64,
    renews: u64,
    ticks: u64,
    selects: u64,
    fallbacks: u64,
    takeovers: u64,
    ledger_balanced: bool,
    converged: bool,
}

fn run_phase(
    seed: u64,
    crash: bool,
    pairs: u64,
    sweeps: u64,
    receivers: &[HostId],
    grant_ns: &mut Vec<u32>,
    tracer: &mut Tracer,
) -> Phase {
    let (mut orch, mut now, mut next, refused) = loaded_plane(seed, crash, receivers);
    let mut p = Phase {
        refused,
        converged: orch.health_converged(),
        ..Phase::default()
    };
    let mut oldest = 0u64;
    let mut laps = Laps::start();
    for i in 0..pairs {
        if i > 0 && i % pairs.div_ceil(CHUNKS as u64) == 0 {
            laps.lap();
        }
        let spanned = i % SPAN_EVERY == 0;
        let span = spanned.then(|| tracer.enter("incast_core.orchestrator.release"));
        orch.release(oldest);
        if let Some(s) = span {
            tracer.exit(s);
        }
        oldest += 1;
        let req = request(next, receivers);
        next += 1;
        let span = spanned.then(|| tracer.enter("incast_core.orchestrator.select"));
        let granted = if i % TIME_EVERY == 0 {
            let t = clock::now();
            let a = orch.select(&req);
            grant_ns.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            a
        } else {
            orch.select(&req)
        };
        if let Some(s) = span {
            tracer.exit(s);
        }
        match granted {
            Some(a) => {
                black_box(a.proxy);
            }
            None => p.refused += 1,
        }
    }
    laps.lap();
    p.pairs = pairs;
    let step = SimDuration::from_millis(1);
    for tick in 0..sweeps {
        if tick > 0 && tick % sweeps.div_ceil(CHUNKS as u64) == 0 {
            laps.lap();
        }
        now += step;
        let spanned = tick % SPAN_EVERY == 0;
        let t_tick = clock::now();
        let span = spanned.then(|| tracer.enter("incast_core.orchestrator.advance_to"));
        orch.advance_to(now);
        if let Some(s) = span {
            tracer.exit(s);
        }
        p.advance_ns += t_tick.elapsed().as_nanos() as u64;
        let t_sweep = clock::now();
        let span = spanned.then(|| tracer.enter("incast_core.orchestrator.renew_sweep"));
        for id in oldest..next {
            if orch.renew(id, now) != RenewOutcome::Renewed {
                p.not_renewed += 1;
            }
        }
        if let Some(s) = span {
            tracer.exit(s);
        }
        p.renew_ns += t_sweep.elapsed().as_nanos() as u64;
    }
    if sweeps > 0 {
        laps.lap();
    }
    p.chunks = laps.pieces;
    p.ticks = sweeps;
    p.renews = sweeps * (next - oldest);
    p.selects = CONCURRENT + pairs;
    p.decisions = 2 * pairs + p.renews;
    let stats = orch.stats();
    p.fallbacks = stats.fallback_selections;
    p.takeovers = stats.takeovers;
    p.ledger_balanced = orch.ledger().balanced() && orch.ledger().active == CONCURRENT;
    p
}

pub fn run(plan: &RunPlan, tracer: &mut Tracer, out: &mut Outcome) {
    let (pairs, sweeps, warmup) = if plan.smoke {
        (5_000, 20, 2_000)
    } else {
        (PAIRS, SWEEPS, WARMUP_PAIRS)
    };
    // Sixteen victim hosts, spread over all four shards; which sixteen
    // comes from the seed.
    let base = 2000 + (derive_seed(plan.seed, 0xC7) % 1000) as u32;
    let receivers: Vec<HostId> = (0..16).map(|i| HostId(base + i)).collect();

    // Set-up: plane construction, 1,024 grants, warm-up churn. Repeated
    // ahead of a repetition every so often, so the set-ups are spread
    // over the measured section.
    let mut setups: Vec<Lap> = Vec::new();
    let mut scratch = Vec::new();

    // Every repetition does identical work (same seeds), so repetitions
    // differ only by what the host did to them.
    let budget = plan.seconds;
    let section = clock::now();
    struct Rep {
        traced: bool,
        phases: [Phase; 2],
        /// Every chunk of either phase, in order.
        chunks: Vec<Lap>,
        /// Individually timed selects: (p50, p99, samples), ns.
        grant: (f64, f64, usize),
    }
    impl Rep {
        fn total(&self, pick: impl Fn(&Phase) -> u64) -> f64 {
            self.phases.iter().map(pick).sum::<u64>() as f64
        }
        /// A time taken all over the repetition, scaled by the mean of
        /// its chunks' factors.
        fn inside(&self, ns: f64) -> Scaled {
            let factor =
                self.chunks.iter().map(Lap::factor).sum::<f64>() / self.chunks.len() as f64;
            (ns * factor, true)
        }
    }
    let mut reps: Vec<Rep> = Vec::new();
    let mut grant_ns: Vec<u32> = Vec::with_capacity((2 * pairs / TIME_EVERY) as usize + 2);
    let min_reps = if plan.traced { 2 } else { 1 };
    while reps.len() < min_reps || section.elapsed().as_secs_f64() < budget {
        let k = reps.len();
        if plan.setup_due(setups.len(), section.elapsed().as_secs_f64(), budget) {
            tracer.set_enabled(false);
            let seed = derive_seed(plan.seed, 0xC000 + setups.len() as u64);
            let (p, lap) =
                timed(|| run_phase(seed, false, warmup, 0, &receivers, &mut scratch, tracer));
            black_box(p.decisions);
            setups.push(lap);
        }
        let traced = plan.traced && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_run(k as u32);
        grant_ns.clear();
        let outer = tracer.enter("ctrl_lease_churn.repetition");
        let healthy = run_phase(
            derive_seed(plan.seed, 0),
            false,
            pairs,
            sweeps,
            &receivers,
            &mut grant_ns,
            tracer,
        );
        let crashed = run_phase(
            derive_seed(plan.seed, 1),
            true,
            pairs,
            sweeps,
            &receivers,
            &mut grant_ns,
            tracer,
        );
        tracer.exit(outer);
        reps.push(Rep {
            traced,
            chunks: healthy
                .chunks
                .iter()
                .chain(&crashed.chunks)
                .copied()
                .collect(),
            grant: (
                grouped_quantile(&mut grant_ns, 0.50),
                grouped_quantile(&mut grant_ns, 0.99),
                grant_ns.len(),
            ),
            phases: [healthy, crashed],
        });
        if plan.smoke && reps.len() >= min_reps {
            break;
        }
    }
    tracer.set_enabled(false);

    // Every chunk of every phase at its best decile over the untraced
    // repetitions, summed (see `stats`).
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let chunks_of = |traced: bool| -> Vec<&[Lap]> {
        reps.iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.chunks.as_slice())
            .collect()
    };
    let chunks = chunks_of(false);
    let every = 0..chunks[0].len();
    let per =
        |f: &dyn Fn(&Rep) -> Scaled| -> Vec<Scaled> { untraced.iter().map(|r| f(r)).collect() };
    let whole =
        |r: &Rep, pick: fn(&Lap) -> Scaled| -> f64 { r.chunks.iter().map(|l| pick(l).0).sum() };
    let decisions = reps[0].total(|p| p.decisions);
    let wall = best_sum(&chunks, every.clone(), Lap::wall);
    let cpu = best_sum(&chunks, every.clone(), Lap::cpu);
    let setup_secs: Vec<f64> = setups.iter().map(|lap| lap.wall().0 / 1e9).collect();
    out.e2e.insert(spec::SETUP_S, Stat::median(&setup_secs));
    out.e2e.insert(
        spec::OPS_PER_S,
        Stat::over(
            decisions * 1e9 / wall,
            untraced
                .iter()
                .map(|r| decisions * 1e9 / whole(r, Lap::wall)),
        ),
    );
    out.e2e.insert(
        spec::CPU_NS_PER_OP,
        Stat::over(
            cpu / decisions,
            untraced.iter().map(|r| whole(r, Lap::cpu) / decisions),
        ),
    );
    out.e2e.insert(
        spec::LAT_P50_US,
        Stat::best(&per(&|r| r.inside(r.grant.0)), Better::Lower).scaled(1e-3),
    );
    out.set_layer(
        spec::LAT_TAIL_US,
        best_decile(&per(&|r| r.inside(r.grant.1)), Better::Lower) / 1e3,
    );
    out.notes.push(format!(
        "{} repetitions of (healthy, shard 0 crashed) x ({pairs} release+select pairs, {sweeps} renew sweeps of {CONCURRENT}); lat = 1 select in {TIME_EVERY} timed alone, p99 has {} samples beyond it per repetition",
        reps.len(),
        reps[0].grant.2 / 100
    ));

    // Correctness.
    let all: Vec<&Phase> = reps.iter().flat_map(|r| r.phases.iter()).collect();
    out.attempted = all.iter().map(|p| p.selects + p.renews).sum();
    out.failed = all.iter().map(|p| p.refused + p.not_renewed).sum();
    out.check(
        "every select granted",
        all.iter().all(|p| p.refused == 0),
        format!("{} selects", all.iter().map(|p| p.selects).sum::<u64>()),
    );
    out.check(
        "every renew renewed",
        all.iter().all(|p| p.not_renewed == 0),
        format!("{} renews", all.iter().map(|p| p.renews).sum::<u64>()),
    );
    out.check(
        "lease ledger balances",
        all.iter().all(|p| p.ledger_balanced),
        format!("granted == released + expired + reclaimed + active, active == {CONCURRENT}"),
    );
    out.check(
        "gossip converged before the crashed phase",
        all.iter().all(|p| p.converged),
        "every live shard suspects exactly the dead ones".to_string(),
    );

    // Per-layer: the same calls, split by what was called. The churn and
    // the sweeps are separate chunks; within the sweeps, renewals and
    // clock ticks split the time in the proportion measured over the
    // whole section.
    let per_rep = |pick: &dyn Fn(&Phase) -> u64| reps[0].total(pick);
    let stretch = |churn: bool| -> f64 {
        let per_phase = chunks[0].len() / 2;
        let split = CHUNKS.min(per_phase);
        let which = (0..2).flat_map(|ph| {
            let range = if churn { 0..split } else { split..per_phase };
            range.map(move |c| ph * per_phase + c)
        });
        best_sum(&chunks, which, Lap::wall)
    };
    out.set_layer(
        "incast_core.orchestrator.select_release_ns",
        stretch(true) / per_rep(&|p| p.pairs),
    );
    if sweeps > 0 {
        let total = |pick: &dyn Fn(&Phase) -> u64| all.iter().map(|p| pick(p)).sum::<u64>() as f64;
        let renew_share =
            total(&|p| p.renew_ns) / (total(&|p| p.renew_ns) + total(&|p| p.advance_ns));
        let sweeps_ns = stretch(false);
        out.set_layer(
            "incast_core.orchestrator.renew_ns",
            sweeps_ns * renew_share / per_rep(&|p| p.renews),
        );
        out.set_layer(
            "incast_core.orchestrator.advance_tick_us",
            sweeps_ns * (1.0 - renew_share) / per_rep(&|p| p.ticks) / 1e3,
        );
    }
    // Exact counts: from the first repetition only.
    let first = &reps[0].phases;
    out.set_layer(
        "incast_core.orchestrator.fallback_share",
        first.iter().map(|p| p.fallbacks).sum::<u64>() as f64
            / first.iter().map(|p| p.selects).sum::<u64>() as f64,
    );
    out.set_layer(
        "incast_core.orchestrator.takeovers",
        first.iter().map(|p| p.takeovers).sum::<u64>() as f64,
    );
    let traced = chunks_of(true);
    if !traced.is_empty() {
        out.set_layer(
            "trace_overhead_pct",
            (best_sum(&traced, every, Lap::wall) / wall - 1.0) * 100.0,
        );
    }
}
