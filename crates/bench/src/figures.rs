//! The simulated evaluation as data.
//!
//! The paper's evaluation is one question — incast completion time under
//! {Baseline, Naive, Streamlined} as degree, size and long-haul latency
//! vary (§4, Figs 2–3) — plus ablations of it. Every such study is an
//! entry of [`STUDIES`], run by the one `figures` binary. Most are a
//! [`Grid`]: an outer axis times a list of variants, each cell an
//! [`ExperimentConfig`], swept once through [`sweep_experiments`] and
//! rendered by one driver. The rest keep their own sampling function
//! ([`Bespoke`]) and print through the same row / table / `JSON` path.
//! A new study is a new entry.

use crate::{banner, expect_no_event_cap, json_line, sweep_experiments, take, RunOptions};
use dcsim::packet::FlowId;
use dcsim::prelude::*;
use dcsim::protocol::dctcp::EcnResponse;
use incast_core::experiment::{ExperimentConfig, FaultScenario, IncastOutcome, TrimPolicy};
use incast_core::lossdetect::{LossDetector, LossDetectorConfig};
use incast_core::orchestrator::{
    DecentralizedSelector, IncastRequest, ProxySelector, ShardedConfig, ShardedOrchestrator,
};
use incast_core::scenario::{Fabric, Flow, Incast, Scenario, SCHEME_NAMES};
use incast_core::scheme::{IncastKnobs, IncastSpec, Scheme, Transport};
use trace::json::{from_name, Json};
use trace::table::{fmt_bytes, fmt_secs};
use trace::timeseries::{step_max, step_mean};
use trace::{derive_seed, SplitMix64, Summary, Table};

/// One named, runnable study.
pub trait Study: Sync {
    /// The name `figures <name>` runs it by; also its `results/<name>.txt`.
    fn name(&self) -> &'static str;
    /// The full report — banner, `JSON` rows, table(s), closing note.
    fn render(&self, opts: &RunOptions) -> String;
}

/// One table row and the machine-readable point behind it, built column
/// by column so each column is defined in one place: its title, its text
/// and its `JSON` field.
#[derive(Default)]
pub struct Row {
    cells: Vec<(&'static str, String)>,
    point: Vec<(&'static str, Json)>,
}

impl Row {
    /// A column of the table only.
    fn cell(mut self, title: &'static str, text: impl Into<String>) -> Self {
        self.cells.push((title, text.into()));
        self
    }

    /// A field of the `JSON` row only.
    fn json(mut self, key: &'static str, value: Json) -> Self {
        self.point.push((key, value));
        self
    }

    /// A label: the same text in both.
    fn text(self, title: &'static str, key: &'static str, text: &str) -> Self {
        self.cell(title, text).json(key, Json::str(text))
    }

    /// A duration: human units in the table, seconds in the `JSON` row.
    fn secs(self, title: &'static str, key: &'static str, secs: f64) -> Self {
        self.cell(title, fmt_secs(secs)).json(key, Json::f64(secs))
    }

    /// A count: the same number in both.
    fn count(self, title: &'static str, key: &'static str, n: u64) -> Self {
        self.cell(title, n.to_string()).json(key, Json::u64(n))
    }
}

/// Appends one result block: a `JSON` line per row, then the aligned
/// table (headed by the first row's column titles).
fn section(out: &mut String, figure: &str, rows: Vec<Row>) {
    let titles = rows.first().map_or(Vec::new(), |row| {
        row.cells.iter().map(|&(title, _)| title).collect()
    });
    let mut table = Table::new(titles);
    for row in rows {
        out.push_str(&json_line(figure, row.point));
        out.push('\n');
        table.row(row.cells.into_iter().map(|(_, text)| text).collect());
    }
    out.push_str(&table.render());
}

/// Frames a study's body with its banner and, after a blank line, its
/// closing lines.
fn report<S: AsRef<str>>(
    (figure, description): (&str, &str),
    body: impl FnOnce(&mut String),
    closing: &[S],
) -> String {
    let mut out = banner(figure, description);
    body(&mut out);
    if !closing.is_empty() {
        out.push('\n');
    }
    for line in closing {
        out.push_str(line.as_ref());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Grid studies
// ---------------------------------------------------------------------------

/// One axis of a [`Grid`] and how its values print.
pub struct Axis<T: 'static> {
    /// Table column header.
    pub header: &'static str,
    /// `JSON` key.
    pub key: &'static str,
    /// Values under `--quick`.
    pub quick: &'static [T],
    /// Values of the full study.
    pub full: &'static [T],
    /// How a value reads in the table.
    pub label: fn(T) -> String,
    /// How a value reads in the `JSON` row.
    pub json: fn(T) -> Json,
}

impl<T> Axis<T> {
    fn values(&self, opts: &RunOptions) -> &'static [T] {
        if opts.quick {
            self.quick
        } else {
            self.full
        }
    }
}

/// The usual inner axis: one row per scheme.
pub const fn schemes(quick: &'static [Scheme], full: &'static [Scheme]) -> Axis<Scheme> {
    Axis {
        header: "scheme",
        key: "scheme",
        quick,
        full,
        label: |scheme| scheme.label().to_string(),
        json: |scheme| Json::str(scheme.label()),
    }
}

/// The paper's three schemes, at every size of the study.
pub const PAPER_SCHEMES: Axis<Scheme> = schemes(&Scheme::ALL, &Scheme::ALL);

/// Baseline against the Streamlined proxy only.
pub const BASELINE_VS_STREAMLINED: Axis<Scheme> = schemes(
    &[Scheme::Baseline, Scheme::ProxyStreamlined],
    &[Scheme::Baseline, Scheme::ProxyStreamlined],
);

/// An inner axis of named configurations (`quick`: the ones that also
/// run under `--quick`): rows show the name, the config function takes
/// the `T`.
pub const fn named<T>(
    quick: &'static [(&'static str, T)],
    full: &'static [(&'static str, T)],
) -> Axis<(&'static str, T)> {
    Axis {
        header: "variant",
        key: "variant",
        quick,
        full,
        label: |(name, _)| name.to_string(),
        json: |(name, _)| Json::str(name),
    }
}

/// A column comparing each row with the first row of its outer-axis group.
pub enum Relative {
    /// `vs baseline`: ICT reduction, `—` for the first row then `{:+.1}%`;
    /// also the `reduction_vs_baseline` field of every `JSON` row.
    Reduction,
    /// A ratio under the given header: `1.00x` for the first row then
    /// `{:.2}x`. Table only.
    Ratio(&'static str),
}

/// A per-cell column computed from the runs' outcomes.
pub enum Extra {
    /// `rtos/run`: mean RTO expirations per run. Table only.
    RtosPerRun,
    /// `express saved`: the share of effective events (processed + `TxDone`s
    /// never scheduled + express-elided) the hybrid-fidelity express path
    /// elided; `express_saved_frac` in the `JSON` row.
    ExpressSaved,
}

/// A study that is an `ExperimentConfig` grid: outer axis × variants,
/// `--runs` repetitions per cell, one table.
pub struct Grid<A: 'static, V: 'static> {
    pub name: &'static str,
    /// Banner: figure title and one-line description.
    pub banner: (&'static str, &'static str),
    /// The outer axis: the swept parameter.
    pub axis: Axis<A>,
    /// The inner axis: what is compared at each outer value.
    pub variants: Axis<V>,
    /// The cell's config from its two axis values and the base seed.
    pub config: fn(A, V, u64) -> ExperimentConfig,
    /// Report `min` / `max` next to `ICT mean` (the paper's protocol).
    pub min_max: bool,
    pub relative: Option<Relative>,
    pub extras: &'static [Extra],
    /// The paper's own average reductions, for a closing line that sets
    /// the measured Naive / Streamlined averages against them (needs
    /// [`Relative::Reduction`]).
    pub paper_average: Option<&'static str>,
    /// Closing note.
    pub note: &'static [&'static str],
}

impl<A, V> Grid<A, V> {
    /// A grid reporting `ICT mean` alone, with no closing note.
    pub const fn new(
        name: &'static str,
        banner: (&'static str, &'static str),
        axis: Axis<A>,
        variants: Axis<V>,
        config: fn(A, V, u64) -> ExperimentConfig,
    ) -> Self {
        Grid {
            name,
            banner,
            axis,
            variants,
            config,
            min_max: false,
            relative: None,
            extras: &[],
            paper_average: None,
            note: &[],
        }
    }
}

impl<A: Copy + Sync, V: Copy + Sync> Study for Grid<A, V> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn render(&self, opts: &RunOptions) -> String {
        let (values, variants) = (self.axis.values(opts), self.variants.values(opts));
        let cells: Vec<(A, V)> = values
            .iter()
            .flat_map(|&value| variants.iter().map(move |&variant| (value, variant)))
            .collect();
        let configs: Vec<ExperimentConfig> = cells
            .iter()
            .map(|&(value, variant)| (self.config)(value, variant, opts.seed))
            .collect();
        let results = sweep_experiments(&opts.sweep_runner(), &configs, opts.runs);

        let mut rows = Vec::new();
        let (mut naive, mut streamlined) = (Vec::new(), Vec::new());
        for (cell, (summary, outcomes)) in results.iter().enumerate() {
            let (value, variant) = cells[cell];
            let i = cell % variants.len();
            let first_mean = results[cell - i].0.mean;
            let mut row = Row::default()
                .cell(self.axis.header, (self.axis.label)(value))
                .json(self.axis.key, (self.axis.json)(value))
                .cell(self.variants.header, (self.variants.label)(variant))
                .json(self.variants.key, (self.variants.json)(variant))
                .secs("ICT mean", "mean_secs", summary.mean);
            if self.min_max {
                row = row
                    .secs("min", "min_secs", summary.min)
                    .secs("max", "max_secs", summary.max);
            }
            match self.relative {
                Some(Relative::Reduction) => {
                    let reduction = if i == 0 {
                        0.0
                    } else {
                        (first_mean - summary.mean) / first_mean
                    };
                    match configs[cell].scheme {
                        Scheme::ProxyNaive => naive.push(reduction),
                        Scheme::ProxyStreamlined => streamlined.push(reduction),
                        _ => {}
                    }
                    let text = if i == 0 {
                        "—".to_string()
                    } else {
                        format!("{:+.1}%", -reduction * 100.0)
                    };
                    row = row
                        .cell("vs baseline", text)
                        .json("reduction_vs_baseline", Json::f64(reduction));
                }
                Some(Relative::Ratio(title)) => {
                    let text = if i == 0 {
                        "1.00x".to_string()
                    } else {
                        format!("{:.2}x", summary.mean / first_mean)
                    };
                    row = row.cell(title, text);
                }
                None => {}
            }
            for extra in self.extras {
                row = match extra {
                    Extra::RtosPerRun => {
                        let rtos: u64 = outcomes.iter().map(|o| o.rto_fires).sum();
                        row.cell("rtos/run", (rtos / outcomes.len() as u64).to_string())
                    }
                    Extra::ExpressSaved => {
                        let effective: u64 = outcomes
                            .iter()
                            .map(|o| o.events + o.tx_elided_events + o.express_saved_events)
                            .sum();
                        let saved: u64 = outcomes.iter().map(|o| o.express_saved_events).sum();
                        let saved_frac = saved as f64 / effective as f64;
                        row.cell("express saved", format!("{:.1}%", saved_frac * 100.0))
                            .json("express_saved_frac", Json::f64(saved_frac))
                    }
                };
            }
            rows.push(row);
        }

        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
        let closing: Vec<String> = self
            .paper_average
            .map(|paper| {
                format!(
                    "average ICT reduction: Naive {:.1}% | Streamlined {:.1}%   (paper: {paper})",
                    avg(&naive),
                    avg(&streamlined)
                )
            })
            .into_iter()
            .chain(self.note.iter().map(|line| line.to_string()))
            .collect();
        report(self.banner, |out| section(out, self.name, rows), &closing)
    }
}

/// The paper's protocol cell: `degree` senders, 100 MB, §4.1 defaults.
fn paper_cell(scheme: Scheme, degree: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        scheme,
        degree: degree as usize,
        total_bytes: 100_000_000,
        seed,
        ..Default::default()
    }
}

/// An incast-degree axis.
const fn degrees(quick: &'static [u64], full: &'static [u64]) -> Axis<u64> {
    Axis {
        header: "degree",
        key: "degree",
        quick,
        full,
        label: |degree| degree.to_string(),
        json: Json::u64,
    }
}

/// Figure 2 (Left): incast completion time vs incast degree.
///
/// §4.2: "we fix the total incast size to 100MB and vary the number of
/// incast senders. The total traffic is split equally among all senders."
/// Each point is 5 seeded runs, reported as mean (min–max), per the
/// paper's protocol.
static FIG2_LEFT: Grid<u64, Scheme> = Grid {
    min_max: true,
    relative: Some(Relative::Reduction),
    paper_average: Some("75.67% | 70.60%"),
    ..Grid::new(
        "fig2_left",
        (
            "Figure 2 (Left)",
            "incast completion time vs degree (100 MB total, 1 ms long-haul links)",
        ),
        degrees(&[4, 16], &[2, 4, 8, 16, 32, 63]),
        PAPER_SCHEMES,
        |degree, scheme, seed| paper_cell(scheme, degree, seed),
    )
};

/// Figure 2 (Right): incast completion time vs incast size.
///
/// §4.2: "we fix the incast degree to 4 and vary the total amount of
/// incast traffic. Both proxy schemes demonstrate significant incast
/// latency reduction compared to the baseline for any incast larger than
/// 20MB ... In the case of the 20MB-incast ... all three schemes are on
/// par and there is no benefit using a proxy."
static FIG2_RIGHT: Grid<u64, Scheme> = Grid {
    min_max: true,
    relative: Some(Relative::Reduction),
    paper_average: Some("57.08% | 53.60%"),
    note: &["expected shape: all three on par at 20 MB; proxies win beyond it."],
    ..Grid::new(
        "fig2_right",
        (
            "Figure 2 (Right)",
            "incast completion time vs size (degree 4, 1 ms long-haul links)",
        ),
        Axis {
            header: "size",
            key: "total_mb",
            quick: &[20, 100],
            full: &[20, 40, 60, 100, 150, 200],
            label: |mb| fmt_bytes(mb * 1_000_000),
            json: Json::u64,
        },
        PAPER_SCHEMES,
        |mb, scheme, seed| ExperimentConfig {
            total_bytes: mb * 1_000_000,
            ..paper_cell(scheme, 4, seed)
        },
    )
};

/// Figure 2 (Left) rerun at 100× incast scale, enabled by the
/// hybrid-fidelity engine (ISSUE 7).
///
/// The paper's figure stops at 63 senders on a 512-host-per-DC fabric.
/// This sweep pushes the same protocol — 100 MB total, split equally,
/// 1 ms long-haul — to 800 senders (100× the paper's modal degree-8
/// point) on a 1024-host-per-DC fabric (8 spines × 16 leaves × 64
/// hosts/leaf), with hybrid fidelity advancing the uncontended fabric
/// analytically. The question it answers: where does the proxy's ICT
/// benefit saturate as the incast degree keeps growing?
///
/// Baseline vs Streamlined only: the Naive relay's per-connection state
/// scales poorly past a few hundred senders and the paper's verdict on
/// it is already in at degree 63.
static FIG2_SCALE100: Grid<u64, Scheme> = Grid {
    min_max: true,
    relative: Some(Relative::Reduction),
    extras: &[Extra::ExpressSaved],
    ..Grid::new(
        "fig2_scale100",
        (
            "Figure 2 (Left) at 100x scale",
            "ICT vs degree to 800 senders (100 MB total, 1024-host DCs, hybrid fidelity)",
        ),
        degrees(&[50, 200], &[50, 100, 200, 400, 600, 800]),
        BASELINE_VS_STREAMLINED,
        |degree, scheme, seed| ExperimentConfig {
            topo: TwoDcParams {
                spines_per_dc: 8,
                leaves_per_dc: 16,
                hosts_per_leaf: 64,
                ..Default::default()
            },
            fidelity: true,
            ..paper_cell(scheme, degree, seed)
        },
    )
};

/// Figure 3: incast completion time vs long-haul link latency (log–log).
///
/// §4.2: "we fix the incast degree to 4 and the total incast size to
/// 100MB. The intra-datacenter link latency is 1us. We vary the latency
/// of the long-haul links ... Both proxy schemes outperform the baseline
/// for any link latency larger than or equal to 100us ... The incast
/// latency savings are more pronounced with larger link latencies."
static FIG3: Grid<u64, Scheme> = Grid {
    min_max: true,
    relative: Some(Relative::Reduction),
    note: &[
        "expected shape: baseline ahead at ~1 us (the extra hop is pure",
        "overhead), crossover around 100 us, proxy wins growing with the",
        "latency gap at region (ms) and WAN (100 ms) scale.",
    ],
    ..Grid::new(
        "fig3",
        (
            "Figure 3",
            "incast completion time vs long-haul link latency (degree 4, 100 MB; log-log)",
        ),
        Axis {
            header: "link latency",
            key: "wan_latency_us",
            quick: &[1, 1_000],
            full: &[1, 10, 100, 1_000, 10_000, 100_000],
            label: |us| SimDuration::from_micros(us).to_string(),
            json: Json::u64,
        },
        PAPER_SCHEMES,
        |us, scheme, seed| ExperimentConfig {
            topo: TwoDcParams::default().with_wan_latency(SimDuration::from_micros(us)),
            ..paper_cell(scheme, 4, seed)
        },
    )
};

/// Ablation: ECN marking-threshold sensitivity (§4.1 parameters).
///
/// §4.1 fixes the leaf/spine marking thresholds at 33.2 KB / 136.95 KB
/// (DCTCP-style shallow marking). Shallow thresholds are tuned for
/// microsecond RTTs; across a millisecond long-haul they force deep
/// window cuts long before the pipe is full — one reason the baseline
/// struggles (cf. the Gemini paper, reference 73 in the paper). We scale
/// both thresholds together and watch each scheme's sensitivity.
static ABLATION_MARKING: Grid<f64, Scheme> = Grid {
    note: &[
        "expected: the baseline improves substantially with deeper",
        "thresholds (its cuts are driven by marks echoed over the long",
        "haul); the proxies barely move — their convergence is governed",
        "by the short local loop, not by the marking configuration.",
    ],
    ..Grid::new(
        "ablation_marking",
        (
            "Ablation: ECN thresholds",
            "ICT vs marking-threshold scale (degree 8, 100 MB; 1.0 = paper values)",
        ),
        Axis {
            header: "threshold scale",
            key: "threshold_scale",
            quick: &[1.0, 16.0],
            full: &[0.25, 1.0, 4.0, 16.0, 64.0],
            label: |scale| format!("{scale}x"),
            json: Json::f64,
        },
        PAPER_SCHEMES,
        |scale, scheme, seed| {
            let mut config = paper_cell(scheme, 8, seed);
            config.topo.dc_queue.mark_low_bytes = (33_200.0 * scale) as u64;
            config.topo.dc_queue.mark_high_bytes = (136_950.0 * scale) as u64;
            config
        },
    )
};

/// Ablation: initial-window sensitivity (§2's first-RTT overload).
///
/// "Such aggressiveness is not rarely seen in incast senders that are
/// eager to push out all traffic and thus set their initial sending rates
/// proportional to BDP. Hence, they can severely congest the network just
/// with their first-RTT traffic."
///
/// We sweep the initial window from 1/8 BDP to 2 BDP for the Baseline and
/// Streamlined schemes: small windows protect the baseline (at the cost
/// of slow ramp-up for everything else), large windows devastate it; the
/// proxy is insensitive because its feedback loop tames any start.
static ABLATION_INITWND: Grid<f64, Scheme> = Grid {
    note: &[
        "measured shape: IW tuning cannot fix inter-DC incast. Tiny windows",
        "(<= 0.05 BDP) avoid the collapse but ramp-limit *both* schemes",
        "(every increase costs a long-haul RTT); from ~0.25 BDP up the",
        "baseline's first-RTT burst overloads the receiver regardless (the",
        "burst is flow-size-capped), while the proxy stays ~12-14 ms across",
        "the whole sweep — it removes the initial-window dilemma entirely.",
    ],
    ..Grid::new(
        "ablation_initwnd",
        (
            "Ablation: initial window",
            "ICT vs initial-window scale (degree 8, 100 MB; 1.0 = the paper's 1 BDP)",
        ),
        Axis {
            header: "IW scale",
            key: "iw_scale",
            quick: &[0.25, 1.0],
            full: &[0.01, 0.05, 0.25, 1.0, 2.0],
            label: |iw_scale| format!("{iw_scale} BDP"),
            json: Json::f64,
        },
        BASELINE_VS_STREAMLINED,
        |iw_scale, scheme, seed| ExperimentConfig {
            knobs: IncastKnobs {
                iw_scale,
                ..Default::default()
            },
            ..paper_cell(scheme, 8, seed)
        },
    )
};

const ECN_RESPONSES: &[(&str, EcnResponse)] = &[
    (
        "DCTCP alpha (g=1/16)",
        EcnResponse::DctcpAlpha { g: 1.0 / 16.0 },
    ),
    ("halve per round", EcnResponse::HalvePerRound),
];

/// Ablation: ECN response — DCTCP α estimation vs plain halving.
///
/// §4.1 describes the senders as "DCTCP-like". The two readings differ:
/// true DCTCP cuts the window in proportion to the *fraction* of marked
/// bytes per round (gentle under transient marking), while a literal
/// "decrease upon marked ACK" halves once per round regardless. The
/// choice matters most for the baseline, whose long feedback loop makes
/// every over-cut expensive to regrow.
static ABLATION_CC_RESPONSE: Grid<(&str, EcnResponse), Scheme> = Grid {
    note: &[
        "expected: the proxies are robust to the response rule; the",
        "baseline degrades under blunt halving because every recovery",
        "round costs a full long-haul RTT.",
    ],
    ..Grid::new(
        "ablation_cc_response",
        (
            "Ablation: ECN response",
            "DCTCP alpha-proportional cuts vs halve-per-round (degree 8, 100 MB)",
        ),
        Axis {
            header: "ECN response",
            key: "response",
            quick: ECN_RESPONSES,
            full: ECN_RESPONSES,
            label: |(label, _)| label.to_string(),
            json: |(label, _)| Json::str(label),
        },
        PAPER_SCHEMES,
        |(_, ecn_response), scheme, seed| ExperimentConfig {
            knobs: IncastKnobs {
                ecn_response,
                ..Default::default()
            },
            ..paper_cell(scheme, 8, seed)
        },
    )
};

const TRANSPORTS: &[(&str, Transport)] = &[
    ("windowed (DCTCP-like)", Transport::WindowedDctcp),
    ("rate-based (BBR-lite)", Transport::RateBased),
];

/// Ablation: windowed DCTCP-like vs rate-based (BBR-flavoured) senders.
///
/// §5 FW#1: the proxy's loss-detection requirements "are intertwined with
/// ... congestion control (e.g., BBR is more resilient to loss)". Two
/// questions, answered with the rate-based policy [`dcsim::protocol::Rate`]:
///
/// 1. Does the baseline's inter-DC collapse survive a switch to paced,
///    loss-resilient senders (i.e. is the problem transport-specific)?
/// 2. Does the *detecting* proxy (which emits some spurious NACKs) fare
///    relatively better under a transport that never cuts its rate on a
///    NACK?
static ABLATION_TRANSPORT: Grid<(&str, Transport), Scheme> = Grid {
    extras: &[Extra::RtosPerRun],
    note: &[
        "reading: pacing softens the baseline's first-RTT catastrophe but",
        "cannot shorten the feedback loop — the proxy still wins; and the",
        "detecting proxy's occasional spurious NACKs are harmless to a",
        "sender that treats NACKs as retransmit-only signals.",
    ],
    ..Grid::new(
        "ablation_transport",
        (
            "Ablation: transport",
            "windowed DCTCP-like vs rate-based loss-resilient senders (degree 8, 100 MB)",
        ),
        Axis {
            header: "transport",
            key: "transport",
            quick: TRANSPORTS,
            full: TRANSPORTS,
            label: |(label, _)| label.to_string(),
            json: |(label, _)| Json::str(label),
        },
        schemes(
            &[Scheme::Baseline, Scheme::ProxyStreamlined],
            &Scheme::EXTENDED,
        ),
        |(_, transport), scheme, seed| ExperimentConfig {
            knobs: IncastKnobs {
                transport,
                ..Default::default()
            },
            ..paper_cell(scheme, 8, seed)
        },
    )
};

/// Ablation: trimming is what enables the early loss signal (§3, FW#1).
///
/// The Streamlined proxy turns trimmed headers into immediate NACKs; with
/// drop-tail switches there are no headers to convert and loss detection
/// falls back to the RTO. This sweep quantifies how much of the scheme's
/// benefit depends on trimming support — the motivation for Future Work
/// #1 (loss tracking without router support, see
/// `incast_core::lossdetect`).
static ABLATION_NO_TRIM: Grid<u64, (&str, TrimPolicy)> = Grid {
    relative: Some(Relative::Ratio("slowdown")),
    note: &[
        "expected: without trimming the proxy never sees loss evidence,",
        "recovery is RTO-bound, and much of the benefit evaporates —",
        "hence FW#1's proxy-side loss detector (ablation_loss_detector).",
    ],
    ..Grid::new(
        "ablation_no_trim",
        (
            "Ablation: trimming",
            "Streamlined with trimming switches vs drop-tail switches (100 MB)",
        ),
        degrees(&[8], &[4, 8, 16, 32]),
        named(TRIM_VARIANTS, TRIM_VARIANTS),
        |degree, (_, trim), seed| ExperimentConfig {
            trim,
            ..paper_cell(Scheme::ProxyStreamlined, degree, seed)
        },
    )
};

const TRIM_VARIANTS: &[(&str, TrimPolicy)] = &[
    ("streamlined + trimming", TrimPolicy::SchemeDefault),
    ("streamlined + drop-tail", TrimPolicy::ForceOff),
];

/// Ablation: a proxy that *merely relays* does not help (Insight #2).
///
/// §3: "Crucially, a proxy that simply relays packets between senders and
/// the receiver does not accelerate convergence, because it still takes
/// at least as long for the senders to receive network signals."
///
/// We run the Streamlined scheme twice: with early NACKs (the design) and
/// with NACK generation disabled, so trimmed headers travel on to the
/// remote receiver and the loss signal pays the full long-haul RTT.
static ABLATION_RELAY_ONLY: Grid<u64, (&str, (Scheme, bool))> = Grid {
    relative: Some(Relative::Ratio("vs early-NACK")),
    note: &[
        "expected: relay-only loses most of the proxy's benefit — the",
        "bottleneck moved, but the feedback loop did not shorten.",
    ],
    ..Grid::new(
        "ablation_relay_only",
        (
            "Ablation: relay-only proxy",
            "Streamlined with vs without early NACKs (100 MB), plus the no-proxy baseline",
        ),
        degrees(&[8], &[4, 8, 16, 32]),
        named(RELAY_VARIANTS, RELAY_VARIANTS),
        |degree, (_, (scheme, early_nack)), seed| ExperimentConfig {
            knobs: IncastKnobs {
                early_nack,
                ..Default::default()
            },
            ..paper_cell(scheme, degree, seed)
        },
    )
};

/// Scheme, and whether the proxy NACKs early.
const RELAY_VARIANTS: &[(&str, (Scheme, bool))] = &[
    ("proxy, early NACKs", (Scheme::ProxyStreamlined, true)),
    ("proxy, relay-only", (Scheme::ProxyStreamlined, false)),
    ("no proxy (baseline)", (Scheme::Baseline, true)),
];

/// Ablation: the FW#1 detector-based proxy vs trimming and baseline.
///
/// §5 Future Work #1 asks whether a proxy can track loss *without* switch
/// trimming support, and how much error reordering induces. This study
/// answers with the detecting kind of [`incast_core::relay::RelayAgent`]: on a
/// drop-tail network (no trimming anywhere) the proxy infers losses from
/// sequence gaps and NACKs early. Swept across reorder thresholds and
/// path jitter (unequal equal-cost paths make spraying reorder, §5's
/// "topology" caveat), against two references: the trimming-based
/// Streamlined proxy (upper reference) and the no-proxy baseline (lower
/// reference).
static ABLATION_DETECTOR_PROXY: Grid<f64, (&str, (Scheme, u32))> = Grid {
    relative: Some(Relative::Ratio("vs trimming")),
    note: &[
        "expected: the detecting proxy recovers most of the trimming",
        "proxy's benefit on symmetric paths; jitter-induced reordering",
        "penalizes low thresholds (spurious NACKs) — the FW#1 trade-off.",
    ],
    ..Grid::new(
        "ablation_detector_proxy",
        (
            "Ablation: detector-based proxy (FW#1)",
            "loss inference vs trimming support (degree 8, 100 MB), across path jitter",
        ),
        Axis {
            header: "path jitter",
            key: "jitter",
            quick: &[0.0],
            full: &[0.0, 0.25, 0.5],
            label: |jitter| jitter.to_string(),
            json: Json::f64,
        },
        named(DETECTOR_QUICK, DETECTOR_VARIANTS),
        |jitter, (_, (scheme, reorder_threshold)), seed| ExperimentConfig {
            topo: TwoDcParams::default().with_path_jitter(jitter, seed),
            knobs: IncastKnobs {
                detector: LossDetectorConfig {
                    reorder_threshold,
                    max_pending: 4096,
                },
                ..Default::default()
            },
            ..paper_cell(scheme, 8, seed)
        },
    )
};

/// Per jitter level: the trimming reference, the detecting proxy at each
/// reorder threshold (the other schemes ignore it), then the baseline.
const DETECTOR_VARIANTS: &[(&str, (Scheme, u32))] = &[
    ("streamlined (trimming)", (Scheme::ProxyStreamlined, 8)),
    ("detecting (no trim, thresh=3)", (Scheme::ProxyDetecting, 3)),
    ("detecting (no trim, thresh=8)", (Scheme::ProxyDetecting, 8)),
    (
        "detecting (no trim, thresh=32)",
        (Scheme::ProxyDetecting, 32),
    ),
    ("baseline (no proxy)", (Scheme::Baseline, 8)),
];

/// Under `--quick`: the two references around threshold 8.
const DETECTOR_QUICK: &[(&str, (Scheme, u32))] = &[
    DETECTOR_VARIANTS[0],
    DETECTOR_VARIANTS[2],
    DETECTOR_VARIANTS[4],
];

/// Ablation: does the proxy's benefit survive background traffic?
///
/// §2 motivates the problem with busy production datacenters; §4 evaluates
/// on an otherwise idle network. Here the same degree-8, 100 MB incast
/// shares the two datacenters with web-search-style background flows
/// (heavy-tailed sizes, random pairs, staggered starts), at increasing
/// intensity.
static ABLATION_BACKGROUND: Grid<u64, Scheme> = Grid {
    relative: Some(Relative::Reduction),
    note: &[
        "expected: background load slows everyone, but the ordering and",
        "the bulk of the reduction persist — the mechanism (feedback-loop",
        "length) is orthogonal to how busy the fabric is.",
    ],
    ..Grid::new(
        "ablation_background",
        (
            "Ablation: background traffic",
            "degree-8, 100 MB incast sharing the network with web-search-style flows",
        ),
        Axis {
            header: "background flows",
            key: "background_flows",
            quick: &[0, 128],
            full: &[0, 64, 256, 512],
            label: |flows| flows.to_string(),
            json: Json::u64,
        },
        PAPER_SCHEMES,
        |flows, scheme, seed| ExperimentConfig {
            background_flows: flows as usize,
            ..paper_cell(scheme, 8, seed)
        },
    )
};

// ---------------------------------------------------------------------------
// Bespoke studies
// ---------------------------------------------------------------------------

/// A study with its own sampling function, printing through [`section`].
pub struct Bespoke {
    pub name: &'static str,
    /// Banner: figure title and one-line description.
    pub banner: (&'static str, &'static str),
    /// Samples the study and appends its result blocks.
    pub body: fn(&RunOptions, &mut String),
    /// Closing note.
    pub note: &'static [&'static str],
}

impl Study for Bespoke {
    fn name(&self) -> &'static str {
        self.name
    }

    fn render(&self, opts: &RunOptions) -> String {
        report(self.banner, |out| (self.body)(opts, out), self.note)
    }
}

/// Distinct termination reasons across a cell's repetitions, joined with
/// `+` in first-seen order (normally just `completed`; anything else
/// flags a degraded point).
fn reasons(outcomes: &[IncastOutcome]) -> String {
    let mut seen: Vec<String> = Vec::new();
    for o in outcomes {
        let r = o.terminated_reason.to_string();
        if !seen.contains(&r) {
            seen.push(r);
        }
    }
    seen.join("+")
}

/// Ablation: collateral damage — what the incast does to *other* traffic
/// at the receiver.
///
/// §1: incast "can quickly overwhelm the network, causing congestion and
/// severely degrading the performance of critical applications". The
/// victims are whoever shares the receiver's down-ToR: here, a latency-
/// sensitive 1 MB intra-datacenter flow to the incast receiver, started
/// mid-incast. Under Baseline it queues behind megabytes of incast
/// backlog (or loses packets outright); under the proxy schemes the
/// receiver-side link is clean and the victim barely notices.
static ABLATION_VICTIMS: Bespoke = Bespoke {
    name: "ablation_victims",
    banner: (
        "Ablation: victim flows",
        "FCT of a 1 MB intra-DC flow to the incast receiver, started mid-incast",
    ),
    body: victims,
    note: &[
        "reading: under Baseline the victim queues behind megabytes of",
        "incast backlog (and risks drops); under the proxy schemes it only",
        "shares *bandwidth* with the paced relay stream — no buffer",
        "standing between it and the receiver — cutting its slowdown by",
        "6x (Streamlined). Rerouting the incast protects co-located",
        "services, not just the incast itself.",
    ],
};

/// Runs the victim flow, with the incast under `scheme` or (`None`) alone;
/// returns (victim FCT, incast ICT).
fn victim_run(scheme: Option<Scheme>, seed: u64) -> (f64, f64) {
    const VICTIM_BYTES: u64 = 1_000_000;
    /// Start the victim 2 ms in, while the incast backlog is at its worst.
    const VICTIM_START: SimTime = SimTime(2 * 1_000_000_000);
    let config = paper_cell(scheme.unwrap_or(Scheme::Baseline), 8, seed);
    let mut sc = match scheme {
        Some(_) => config.scenario(),
        None => Scenario {
            time_limit: config.time_limit,
            ..Scenario::new(Fabric::TwoDc(config.topo.with_trim(false)))
        },
    };
    // The victim: an intra-DC flow from the receiver's rack-mate to the
    // receiver itself, sharing exactly the congested down-ToR port.
    let dc1 = sc.fabric.hosts_in_dc(1);
    sc.flows.push(Flow {
        spec: FlowSpec::new(dc1[1], dc1[0], VICTIM_BYTES),
        start: VICTIM_START,
    });
    let (mut sim, incasts, flows) = sc.build(seed).expect("victim run builds");
    expect_no_event_cap(sim.run(Some(sc.deadline())), "victim-flows ablation");
    let victim_fct = sim
        .metrics()
        .completion(flows[0])
        .expect("victim completes")
        .since(VICTIM_START)
        .as_secs_f64();
    let ict = incasts.first().map_or(0.0, |h| {
        h.completion(sim.metrics())
            .expect("incast completes")
            .as_secs_f64()
    });
    (victim_fct, ict)
}

fn victims(opts: &RunOptions, out: &mut String) {
    // Solo reference: the victim with no incast at all.
    let (solo, _) = victim_run(None, opts.seed);
    out.push_str(&format!(
        "victim FCT with no incast: {}\n\n",
        fmt_secs(solo)
    ));
    let sampled = opts
        .sweep_runner()
        .run_repeated(&Scheme::ALL, opts.runs, |&scheme, r| {
            victim_run(Some(scheme), derive_seed(opts.seed, r as u64))
        });
    let rows = Scheme::ALL
        .into_iter()
        .zip(sampled)
        .map(|(scheme, outcomes)| {
            let fcts: Vec<f64> = outcomes.iter().map(|&(fct, _)| fct).collect();
            let icts: Vec<f64> = outcomes.iter().map(|&(_, ict)| ict).collect();
            let fct = Summary::of(&fcts).mean;
            Row::default()
                .text("scheme", "scheme", scheme.label())
                .secs("victim FCT", "victim_fct_secs", fct)
                .cell("slowdown vs solo", format!("{:.1}x", fct / solo))
                .secs("incast ICT", "incast_ict_secs", Summary::of(&icts).mean)
                .json("solo_fct_secs", Json::f64(solo))
        })
        .collect();
    section(out, "ablation_victims", rows);
}

/// Mechanism demonstration: the proxy *moves the congestion point*
/// (Figure 1 / Insight #1, measured).
///
/// Traces the queue occupancy of the two candidate bottlenecks — the
/// receiver's down-ToR in the receiving datacenter and the proxy's
/// down-ToR in the sending datacenter — under each scheme, and prints the
/// occupancy timeline. Under Baseline the receiver-side queue saturates
/// (and the loss evidence sits a millisecond from the senders); under the
/// proxy schemes the proxy-side queue saturates instead, microseconds
/// from the senders, while the receiver-side queue stays almost empty.
static CONGESTION_POINT: Bespoke = Bespoke {
    name: "congestion_point",
    banner: (
        "Congestion point",
        "queue occupancy at the receiver vs proxy down-ToR (degree 8, 100 MB)",
    ),
    body: congestion_point,
    note: &[
        "expected: Baseline saturates the receiver down-ToR (a full",
        "17 MB buffer, milliseconds from the senders); the proxy schemes",
        "saturate the proxy down-ToR instead and leave the receiver-side",
        "queue nearly empty — the bottleneck moved into the sending DC.",
    ],
};

fn congestion_point(opts: &RunOptions, out: &mut String) {
    // One traced simulation per scheme, all independent: fan them out and
    // collect each scheme's two (queue name, max, mean) rows.
    let results = opts.sweep_runner().run(&Scheme::ALL, |&scheme| {
        let config = paper_cell(scheme, 8, opts.seed);
        let (mut sim, spec, handle) = config.build(opts.seed);
        let rx_port = sim.topology().down_tor_port(spec.receiver);
        let px_port = sim
            .topology()
            .down_tor_port(spec.proxy.expect("placement sets proxy"));
        sim.trace_port(rx_port);
        sim.trace_port(px_port);
        expect_no_event_cap(
            sim.run(Some(SimTime::ZERO + config.time_limit)),
            "congestion-point sweep",
        );
        let end = handle.completion(sim.metrics()).expect("completes");
        [("receiver down-ToR", rx_port), ("proxy down-ToR", px_port)].map(|(name, port)| {
            // The sim keeps running (stray timers, trailing control
            // packets) after the incast completes; the occupancy stats
            // cover the incast itself, so clip the trace at `end`.
            let samples: Vec<(u64, u64)> = sim
                .port_trace(port)
                .iter()
                .map(|&(t, b)| (t.0, b))
                .take_while(|&(t, _)| t <= end.0)
                .collect();
            (name, step_max(&samples), step_mean(&samples, end.0) as u64)
        })
    });
    let rows = Scheme::ALL
        .into_iter()
        .zip(results)
        .flat_map(|(scheme, queues)| {
            queues.map(|(name, max, mean)| {
                Row::default()
                    .text("scheme", "scheme", scheme.label())
                    .text("queue", "queue", name)
                    .cell("max occupancy", fmt_bytes(max))
                    .json("max_occupancy_bytes", Json::u64(max))
                    .cell("mean occupancy", fmt_bytes(mean))
                    .json("mean_occupancy_bytes", Json::u64(mean))
            })
        })
        .collect();
    section(out, "congestion_point", rows);
}

/// Ablation: the proxy schemes on an *unstructured* topology.
///
/// §5 FW#1 ties loss detection to topology: "unstructured topology can
/// cause more reordered packets with varied-length paths". The random-
/// graph two-datacenter topology (`dcsim::topology::two_dc_unstructured`)
/// has exactly that property — equal-cost choices lead onto continuations
/// of genuinely different hop counts — so packet spraying reorders far
/// more than on the symmetric leaf–spine fabric. We run all four schemes
/// there and compare the detecting proxy's accuracy-sensitive behaviour
/// against the leaf–spine results.
static ABLATION_UNSTRUCTURED: Bespoke = Bespoke {
    name: "ablation_unstructured",
    banner: (
        "Ablation: unstructured topology",
        "all schemes on a random-graph fabric with varied-length paths (degree 8, 100 MB)",
    ),
    body: unstructured,
    note: &[
        "reading: the proxy's ordering survives an arbitrary fabric; the",
        "varied-length paths raise reordering, which penalizes the",
        "detecting proxy's low thresholds more than on the symmetric",
        "leaf-spine (compare ablation_detector_proxy) — FW#1's topology",
        "coupling, measured.",
    ],
};

fn unstructured_run(scheme: Scheme, threshold: u32, seed: u64) -> f64 {
    let mut params = UnstructuredParams {
        switches_per_dc: 16,
        extra_links_per_dc: 24,
        hosts_per_dc: 32,
        gateways: 4,
        seed: derive_seed(seed, 0x7079),
        ..Default::default()
    };
    // Trimming only for the Streamlined scheme, as in §4.1.
    params.dc_queue.trim = scheme == Scheme::ProxyStreamlined;
    let fabric = Fabric::Unstructured(params);
    let mut spec = fabric.placement(8, 100_000_000);
    spec.knobs.detector = LossDetectorConfig {
        reorder_threshold: threshold,
        max_pending: 4096,
    };
    let sc = Scenario::incast(fabric, scheme, spec);
    let (_, report, icts) = sc.run(seed).expect("unstructured run builds");
    expect_no_event_cap(report, "unstructured-traffic ablation");
    icts[0].expect("incast completes").as_secs_f64()
}

fn unstructured(opts: &RunOptions, out: &mut String) {
    let mut cases: Vec<(String, Scheme, u32)> = vec![
        ("baseline".into(), Scheme::Baseline, 8),
        ("proxy (naive)".into(), Scheme::ProxyNaive, 8),
        (
            "proxy (streamlined, trimming)".into(),
            Scheme::ProxyStreamlined,
            8,
        ),
    ];
    let thresholds: &[u32] = if opts.quick { &[8] } else { &[3, 8, 32] };
    for &t in thresholds {
        cases.push((
            format!("proxy (detecting, thresh={t})"),
            Scheme::ProxyDetecting,
            t,
        ));
    }
    let sampled =
        opts.sweep_runner()
            .run_repeated(&cases, opts.runs, |&(_, scheme, threshold), r| {
                unstructured_run(scheme, threshold, derive_seed(opts.seed, r as u64))
            });
    let rows = cases
        .iter()
        .zip(sampled)
        .map(|((label, _, threshold), samples)| {
            let summary = Summary::of(&samples);
            Row::default()
                .text("variant", "scheme", label)
                .json("threshold", Json::u64(*threshold as u64))
                .secs("ICT mean", "mean_secs", summary.mean)
                .cell("min", fmt_secs(summary.min))
                .cell("max", fmt_secs(summary.max))
        })
        .collect();
    section(out, "ablation_unstructured", rows);
}

/// Ablation: orchestrating proxy selection across incasts (§5, FW#3).
///
/// Two questions the paper raises, answered quantitatively:
///
/// 1. **Does contention matter?** Simulate N concurrent incasts sharing
///    one proxy vs spread over distinct proxies.
/// 2. **How do the selection designs compare?** Drive many allocation
///    requests through the global orchestrator, the decentralized
///    power-of-k selector (at several staleness levels), and random
///    placement; report load imbalance and trial overhead.
/// 3. **What does crash tolerance cost?** Drive the sharded control
///    plane through each rung of its degradation ladder — healthy, one
///    shard down before and after gossip convergence, majority down —
///    and report where grants came from and how balanced they stayed.
static ABLATION_ORCHESTRATION: Bespoke = Bespoke {
    name: "ablation_orchestration",
    banner: (
        "Ablation: orchestration (FW#3)",
        "proxy contention across concurrent incasts, and selector comparison",
    ),
    body: orchestration,
    note: &[
        "expected: shared proxies multiply the job-level ICT; the global",
        "orchestrator balances perfectly at zero trial overhead, the",
        "decentralized selector trades balance and retries for avoiding",
        "the central status stream the paper worries about. The sharded",
        "plane serves every request on every rung of the ladder: home",
        "grants while healthy, sibling takeover once gossip converges,",
        "power-of-k fallback before convergence or under majority loss.",
    ],
};

/// Senders per concurrent incast in the orchestration study.
const ORCH_DEGREE: usize = 4;

/// Runs one streamlined 50 MB incast per entry of `proxies`, concurrently,
/// each through its given proxy; returns the worst completion (the
/// job-level metric).
fn run_concurrent(proxies: &[HostId], seed: u64) -> f64 {
    let fabric = Fabric::TwoDc(TwoDcParams::default().with_trim(true));
    let (dc0, dc1) = (fabric.hosts_in_dc(0), fabric.hosts_in_dc(1));
    let incasts = proxies.iter().enumerate().map(|(i, &proxy)| {
        let senders = dc0[i * ORCH_DEGREE..(i + 1) * ORCH_DEGREE].to_vec();
        let spec = IncastSpec::new(senders, dc1[i], 50_000_000).with_proxy(proxy);
        Incast {
            scheme: Scheme::ProxyStreamlined,
            spec,
        }
    });
    let sc = Scenario {
        incasts: incasts.collect(),
        ..Scenario::new(fabric)
    };
    let (_, report, icts) = sc.run(seed).expect("concurrent incasts build");
    expect_no_event_cap(report, "orchestration ablation");
    let icts = icts
        .into_iter()
        .map(|ict| ict.expect("completes").as_secs_f64());
    icts.fold(0.0, f64::max)
}

fn orchestration(opts: &RunOptions, out: &mut String) {
    // Part 1: contention in simulation.
    let dc0 = Fabric::TwoDc(TwoDcParams::default()).hosts_in_dc(0);
    let counts: &[usize] = if opts.quick { &[2] } else { &[2, 3, 4] };
    // Both placements of every contention level simulate in parallel.
    let cells: Vec<Vec<HostId>> = counts
        .iter()
        .flat_map(|&n| {
            let pool_start = n * ORCH_DEGREE; // hosts beyond the senders
            [
                vec![dc0[pool_start]; n],
                (0..n).map(|i| dc0[pool_start + i]).collect(),
            ]
        })
        .collect();
    let worsts = opts
        .sweep_runner()
        .run(&cells, |proxies| run_concurrent(proxies, opts.seed));
    let rows = counts
        .iter()
        .zip(worsts.chunks(2))
        .flat_map(|(&n, worst)| {
            let (shared, distinct) = (worst[0], worst[1]);
            [
                ("one shared proxy", "shared", shared),
                ("distinct proxies", "distinct", distinct),
            ]
            .map(|(label, placement, ict)| {
                Row::default()
                    .count("concurrent", "concurrent_incasts", n as u64)
                    .cell("placement", label)
                    .json("placement", Json::str(placement))
                    .secs("worst ICT", "worst_ict_secs", ict)
                    .cell("penalty", format!("{:.2}x", ict / distinct))
            })
        })
        .collect();
    section(out, "ablation_orchestration", rows);
    out.push('\n');

    // Part 2: selector quality at allocation scale.
    let candidates: Vec<HostId> = (0..32).map(HostId).collect();
    let requests: Vec<IncastRequest> = (0..256)
        .map(|id| IncastRequest {
            id,
            senders: vec![HostId(1000), HostId(1001)],
            receiver: HostId(2000),
            expected_bytes: 1,
        })
        .collect();
    let selector_row = |name: &str, max_load: u64, avg_trials: f64, conflicts: u64| {
        Row::default()
            .text("selector", "selector", name)
            .count("max load", "max_load", max_load)
            .cell("avg trials", format!("{avg_trials:.2}"))
            .json("avg_trials", Json::f64(avg_trials))
            .count("conflicts", "conflicts", conflicts)
    };
    // Drives every request through a selector: (max load, mean trials).
    let drive = |selector: &mut dyn ProxySelector| {
        let mut trials = 0u64;
        for r in &requests {
            trials += selector.select(r).expect("assignment").trials as u64;
        }
        let max = candidates.iter().map(|&c| selector.load_of(c)).max();
        (max.expect("candidates"), trials as f64 / 256.0)
    };
    let mut rows = Vec::new();

    // The global orchestrator is the lease plane with one shard.
    let global = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let (max, trials) = drive(&mut ShardedOrchestrator::new(
        candidates.clone(),
        global,
        opts.seed,
    ));
    rows.push(selector_row("global orchestrator", max, trials, 0));

    for (label, p) in [
        ("decentralized k=2, fresh", 0.0),
        ("decentralized k=2, stale p=0.3", 0.3),
    ] {
        let mut dec = DecentralizedSelector::new(candidates.clone(), 2, opts.seed)
            .with_conflict_probability(p);
        let (max, trials) = drive(&mut dec);
        rows.push(selector_row(label, max, trials, dec.conflicts));
    }

    // Random placement strawman.
    let mut rng = SplitMix64::new(opts.seed);
    let mut load = vec![0u64; candidates.len()];
    for _ in &requests {
        load[rng.next_bounded(candidates.len() as u64) as usize] += 1;
    }
    let max = *load.iter().max().unwrap();
    rows.push(selector_row("random placement", max, 1.0, 0));

    section(out, "ablation_orchestration_selectors", rows);
    out.push('\n');

    // Part 3: the sharded control plane down its degradation ladder.
    // Four rungs, same 256-request workload spread across all shards:
    //   healthy           — every grant comes from the receiver's home shard
    //   crash, pre-gossip — shard 0 dies, requests arrive before anyone
    //                       suspects it: the ladder falls through to the
    //                       decentralized fallback
    //   crash, converged  — same crash, but gossip has converged: the ring
    //                       successor adopts shard 0's victims (takeover)
    //   majority dead     — 3 of 4 shards down: the whole plane degrades
    //                       to power-of-k fallback
    let cfg = ShardedConfig::default();
    let rows = [
        ("healthy", 0u32, 0u64),
        ("1 shard down, pre-gossip", 1, 0),
        ("1 shard down, converged", 1, 4_000),
        ("majority down", 3, 4_000),
    ]
    .into_iter()
    .map(|(mode, crashes, settle_us)| {
        let mut orch = ShardedOrchestrator::new(candidates.clone(), cfg, opts.seed);
        for shard in 0..crashes {
            orch.crash_shard(shard);
        }
        let now = SimTime::ZERO + SimDuration::from_micros(settle_us);
        orch.advance_to(now);
        let mut granted = 0u64;
        for r in &requests {
            // Receivers cycle over every shard so the crash actually bites.
            let spread = IncastRequest {
                receiver: HostId(2000 + (r.id as u32 % 8)),
                ..r.clone()
            };
            if orch.select(&spread).is_some() {
                granted += 1;
            }
        }
        let max_load = candidates.iter().map(|&c| orch.load_of(c)).max().unwrap();
        let stats = orch.stats();
        for r in &requests {
            orch.release(r.id);
        }
        assert!(orch.ledger().balanced(), "{:?}", orch.ledger());
        assert_eq!(orch.ledger().active, 0, "{:?}", orch.ledger());
        let home = granted - stats.takeovers - stats.fallback_selections;
        Row::default()
            .text("mode", "mode", mode)
            .count("granted", "granted", granted)
            .count("max load", "max_load", max_load)
            .count("home", "home_grants", home)
            .count("takeover", "takeovers", stats.takeovers)
            .count("fallback", "fallback_selections", stats.fallback_selections)
            .count("reclaims", "reclaims", stats.reclaims)
    })
    .collect();
    section(out, "ablation_orchestration_sharded", rows);
}

/// Ablation: reorder-tolerant loss detection without trimming (§5, FW#1).
///
/// "The challenge lies in disambiguating reordered packets from lost
/// packets ... Are false positives or false negatives more fatal?"
///
/// We synthesize packet streams with spraying-style reordering (each
/// packet's arrival displaced by a bounded random offset, modelling
/// equal-cost paths of slightly different queue depths) plus genuine
/// random loss, and sweep the detector's reorder threshold. Reported per
/// cell: recall (declared real losses), false positives (reordered
/// packets declared lost), and detection latency in packets.
static ABLATION_LOSS_DETECTOR: Bespoke = Bespoke {
    name: "ablation_loss_detector",
    banner: (
        "Ablation: loss detector (FW#1)",
        "recall / false positives vs reorder threshold under spraying-style reordering",
    ),
    body: loss_detector,
    note: &[
        "expected: low thresholds misfire under deep reordering (false",
        "positives -> spurious retransmits + window cuts); high thresholds",
        "delay detection. The knee sits near the spraying depth, which is",
        "why FW#1 ties the answer to routing and topology.",
    ],
};

/// Generates a stream of `n` sequences with bounded random displacement
/// (`depth`) and drop probability `loss`, returning (arrival order, lost).
fn synth_stream(n: u64, depth: usize, loss: f64, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SplitMix64::new(seed);
    let mut lost = Vec::new();
    let mut kept = Vec::new();
    for seq in 0..n {
        if rng.next_f64() < loss && seq < n - 1 {
            lost.push(seq);
        } else {
            kept.push(seq);
        }
    }
    // Displacement: bubble each packet backward by up to `depth` slots.
    let mut arrival = kept.clone();
    if depth > 0 {
        for i in 0..arrival.len() {
            let back = rng.next_bounded(depth as u64 + 1) as usize;
            let j = i.saturating_sub(back);
            let v = arrival.remove(i);
            arrival.insert(j, v);
        }
    }
    (arrival, lost)
}

fn loss_detector(opts: &RunOptions, out: &mut String) {
    let n: u64 = if opts.quick { 5_000 } else { 50_000 };
    let loss = 0.05;
    let depths: &[usize] = if opts.quick { &[4] } else { &[0, 2, 4, 8, 16] };
    let thresholds: &[u32] = &[1, 3, 8, 16, 32];

    // The synthetic streams are pure CPU work, one per (depth, threshold,
    // repetition) — fan them all out through the sweep runner too.
    let cells: Vec<(usize, u32)> = depths
        .iter()
        .flat_map(|&depth| thresholds.iter().map(move |&t| (depth, t)))
        .collect();
    let measured =
        opts.sweep_runner()
            .run_repeated(&cells, opts.runs, |&(depth, threshold), run| {
                let (arrival, lost) =
                    synth_stream(n, depth, loss, derive_seed(opts.seed, run as u64));
                // No sweeps: this study isolates first-declaration
                // accuracy (re-NACKs are the detector-proxy ablation's
                // concern).
                let mut det = LossDetector::new(LossDetectorConfig {
                    reorder_threshold: threshold,
                    max_pending: 4096,
                });
                let mut declared = Vec::new();
                for &seq in &arrival {
                    declared.extend(det.observe(FlowId(0), seq).into_iter().map(|e| e.seq));
                }
                let true_hits = declared.iter().filter(|s| lost.contains(s)).count();
                let false_hits = declared.len() - true_hits;
                (
                    true_hits as f64 / lost.len().max(1) as f64,
                    false_hits as f64 / declared.len().max(1) as f64,
                    declared.len() as u64,
                )
            });
    let rows = cells
        .iter()
        .zip(&measured)
        .map(|(&(depth, threshold), runs)| {
            let recall_sum: f64 = runs.iter().map(|&(r, _, _)| r).sum();
            let fp_sum: f64 = runs.iter().map(|&(_, f, _)| f).sum();
            let declared_sum: u64 = runs.iter().map(|&(_, _, d)| d).sum();
            let recall = recall_sum / opts.runs as f64;
            let fp = fp_sum / opts.runs as f64;
            Row::default()
                .count("reorder depth", "reorder_depth", depth as u64)
                .count("threshold", "threshold", threshold as u64)
                .cell("recall", format!("{:.1}%", recall * 100.0))
                .json("recall", Json::f64(recall))
                .cell("FP rate", format!("{:.1}%", fp * 100.0))
                .json("false_positive_rate", Json::f64(fp))
                .cell("declared", (declared_sum / opts.runs as u64).to_string())
        })
        .collect();
    section(out, "ablation_loss_detector", rows);
}

/// Ablation: proxy-crash timing vs incast completion time.
///
/// The proxy is a single point of failure on the detour path: if the host
/// dies mid-incast, every flow's data and feedback blackhole there. This
/// sweep crashes the proxy at different fractions of the fault-free
/// completion time and measures the cost of surviving it via sender-side
/// failover (silence detection, direct-path fallback, proxy re-probing).
/// Baseline (direct path, no proxy) is immune by construction and serves
/// as the reference.
static ABLATION_FAULTS: Bespoke = Bespoke {
    name: "ablation_faults",
    banner: (
        "Ablation: proxy crash",
        "crash the proxy mid-incast; sender failover keeps flows alive (100 MB)",
    ),
    body: faults,
    note: &[
        "expected: Baseline is flat (no proxy to lose); proxied schemes pay",
        "a silence-detection delay (~3 RTOs) plus direct-path retransmission",
        "of everything stranded at the dead proxy — earlier crashes cost more",
        "because more of the transfer must be redone without the detour.",
    ],
};

fn faults(opts: &RunOptions, out: &mut String) {
    let fractions: &[f64] = if opts.quick {
        &[0.25, 0.75]
    } else {
        &[0.1, 0.25, 0.5, 0.75]
    };
    let schemes = [
        Scheme::ProxyStreamlined,
        Scheme::ProxyDetecting,
        Scheme::Baseline,
    ];
    let config_for = |scheme| ExperimentConfig {
        knobs: IncastKnobs {
            failover: true,
            ..Default::default()
        },
        ..paper_cell(scheme, 8, opts.seed)
    };

    // Two sweep phases: the crash times depend on each scheme's fault-free
    // mean, so the healthy runs must finish before the fault grid exists.
    // Within each phase every cell is independent and runs in parallel.
    let runner = opts.sweep_runner();
    let healthy_configs: Vec<ExperimentConfig> = schemes.into_iter().map(config_for).collect();
    let healthy_results = sweep_experiments(&runner, &healthy_configs, opts.runs);
    let fault_configs: Vec<ExperimentConfig> = healthy_results
        .iter()
        .zip(schemes)
        .flat_map(|((healthy, _), scheme)| {
            fractions.iter().map(move |&frac| ExperimentConfig {
                faults: FaultScenario::ProxyCrash {
                    after: SimDuration::from_secs_f64(frac * healthy.mean),
                    restore_after: None,
                },
                ..config_for(scheme)
            })
        })
        .collect();
    let fault_results = sweep_experiments(&runner, &fault_configs, opts.runs);

    // Per scheme: the healthy row, then one row per crash fraction.
    let mut rows = Vec::new();
    for (s, scheme) in schemes.into_iter().enumerate() {
        let (healthy, healthy_outcomes) = &healthy_results[s];
        let crashed = fractions
            .iter()
            .zip(&fault_results[s * fractions.len()..])
            .map(|(&frac, (summary, outcomes))| (Some(frac), summary, outcomes));
        for (frac, summary, outcomes) in
            std::iter::once((None, healthy, healthy_outcomes)).chain(crashed)
        {
            let failovers: u64 = outcomes.iter().map(|o| o.failover_activations).sum();
            let lost: u64 = outcomes.iter().map(|o| o.packets_lost_to_fault).sum();
            let max_lat = outcomes
                .iter()
                .map(|o| o.failover_latency_max_secs)
                .fold(0.0, f64::max);
            let slowdown = summary.mean / healthy.mean;
            rows.push(
                Row::default()
                    .text("scheme", "scheme", scheme.label())
                    .cell(
                        "crash at",
                        frac.map_or("never".to_string(), |f| format!("{:.0}% of ICT", f * 100.0)),
                    )
                    .json("crash_fraction", Json::f64(frac.unwrap_or(f64::NAN)))
                    .secs("ICT mean", "mean_secs", summary.mean)
                    .cell("slowdown", format!("{slowdown:.2}x"))
                    .json("slowdown", Json::f64(slowdown))
                    .count("failovers", "failover_activations", failovers)
                    .count("lost pkts", "packets_lost_to_fault", lost)
                    .cell(
                        "max failover lat",
                        if max_lat > 0.0 {
                            fmt_secs(max_lat)
                        } else {
                            "-".to_string()
                        },
                    )
                    .json("failover_latency_max_secs", Json::f64(max_lat))
                    .text("end", "terminated", &reasons(outcomes)),
            );
        }
    }
    section(out, "ablation_faults", rows);
}

// ---------------------------------------------------------------------------
// Ad hoc runs
// ---------------------------------------------------------------------------

/// The flags of `figures adhoc`.
pub const ADHOC_USAGE: &str = "\
figures adhoc [flags]
  --scheme baseline|naive|streamlined|detecting|all|extended   (default all)
  --degree N          senders (default 8)
  --mb N              total incast megabytes (default 100)
  --wan-us N          long-haul link latency in µs (default 1000)
  --runs N            repetitions (default 5)
  --seed N            base seed (default 1)
  --iw-scale X        initial-window scale (default 1.0)
  --jitter X          leaf-spine latency jitter fraction (default 0)
  --background N      background flows sharing the fabric (default 0)
  --trim default|on|off   trimming policy (default scheme-default)
  --jobs N            worker threads for the sweep (default: all cores)";

/// How `figures adhoc --trim` spells the trimming policies.
const TRIM_NAMES: &[(&str, TrimPolicy)] = &[
    ("default", TrimPolicy::SchemeDefault),
    ("on", TrimPolicy::ForceOn),
    ("off", TrimPolicy::ForceOff),
];

/// `figures adhoc`: one incast configuration from flags ([`ADHOC_USAGE`]),
/// reported like a study — per scheme, mean / min / max ICT over the
/// repetitions.
///
/// ```console
/// $ cargo run --release -p bench --bin figures -- adhoc \
///       --scheme streamlined --degree 16 --mb 100 --wan-us 1000 --runs 5
/// ```
pub fn adhoc(args: &[String]) -> String {
    let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
    let schemes =
        match take(&mut args, "--scheme", "all".to_string()).as_str() {
            "all" => Scheme::ALL.to_vec(),
            "extended" => Scheme::EXTENDED.to_vec(),
            one => vec![from_name(SCHEME_NAMES, "scheme", one)
                .unwrap_or_else(|e| panic!("{e}\n{ADHOC_USAGE}"))],
        };
    let trim = take(&mut args, "--trim", "default".to_string());
    let trim = from_name(TRIM_NAMES, "trim policy", &trim)
        .unwrap_or_else(|e| panic!("{e}\n{ADHOC_USAGE}"));
    let degree: usize = take(&mut args, "--degree", 8);
    let mb: u64 = take(&mut args, "--mb", 100);
    let wan_us: u64 = take(&mut args, "--wan-us", 1000);
    let runs: usize = take(&mut args, "--runs", 5);
    let seed: u64 = take(&mut args, "--seed", 1);
    let iw_scale: f64 = take(&mut args, "--iw-scale", 1.0);
    let jitter: f64 = take(&mut args, "--jitter", 0.0);
    let background: usize = take(&mut args, "--background", 0);
    let jobs: usize = take(&mut args, "--jobs", 0);
    assert!(args.is_empty(), "unknown argument {args:?}\n{ADHOC_USAGE}");
    assert!(runs > 0, "--runs must be positive");

    // Each repetition draws its own jittered fabric, so the topology is
    // per run, not per cell: one config per (scheme, repetition).
    let sampled = crate::SweepRunner::new(jobs).run_repeated(&schemes, runs, |&scheme, r| {
        let seed = derive_seed(seed, r as u64);
        let config = ExperimentConfig {
            scheme,
            degree,
            total_bytes: mb * 1_000_000,
            knobs: IncastKnobs {
                iw_scale,
                ..Default::default()
            },
            trim,
            background_flows: background,
            topo: TwoDcParams::default()
                .with_wan_latency(SimDuration::from_micros(wan_us))
                .with_path_jitter(jitter, seed),
            ..Default::default()
        };
        incast_core::run_incast(&config, seed)
    });
    let mut out = format!(
        "incast: degree {degree} x {mb} MB total, wan {wan_us} us, iw x{iw_scale}, \
         jitter {jitter}, background {background}, {runs} run(s)\n\n"
    );
    let mut baseline_mean = None;
    let rows = schemes
        .iter()
        .zip(&sampled)
        .map(|(&scheme, outcomes)| {
            let icts: Vec<f64> = outcomes.iter().map(|o| o.completion_secs).collect();
            let rtos: u64 = outcomes.iter().map(|o| o.rto_fires).sum();
            let retx: u64 = outcomes.iter().map(|o| o.retransmits).sum();
            let summary = Summary::of(&icts);
            if scheme == Scheme::Baseline {
                baseline_mean = Some(summary.mean);
            }
            Row::default()
                .text("scheme", "scheme", scheme.label())
                .secs("ICT mean", "mean_secs", summary.mean)
                .secs("min", "min_secs", summary.min)
                .secs("max", "max_secs", summary.max)
                .cell("rtos", (rtos / runs as u64).to_string())
                .cell("retx", (retx / runs as u64).to_string())
                .text("end", "terminated", &reasons(outcomes))
        })
        .collect();
    section(&mut out, "adhoc", rows);
    if let Some(base) = baseline_mean {
        out.push_str(&format!(
            "\nbaseline mean: {} — reductions are relative to it\n",
            fmt_secs(base)
        ));
    }
    out
}

/// Every simulated study, in the order `figures --list` prints them.
pub static STUDIES: [&dyn Study; 18] = [
    &FIG2_LEFT,
    &FIG2_RIGHT,
    &FIG2_SCALE100,
    &FIG3,
    &CONGESTION_POINT,
    &ABLATION_MARKING,
    &ABLATION_INITWND,
    &ABLATION_CC_RESPONSE,
    &ABLATION_TRANSPORT,
    &ABLATION_NO_TRIM,
    &ABLATION_RELAY_ONLY,
    &ABLATION_DETECTOR_PROXY,
    &ABLATION_LOSS_DETECTOR,
    &ABLATION_UNSTRUCTURED,
    &ABLATION_BACKGROUND,
    &ABLATION_VICTIMS,
    &ABLATION_ORCHESTRATION,
    &ABLATION_FAULTS,
];
