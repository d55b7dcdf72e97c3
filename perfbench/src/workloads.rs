//! The four benchmark workloads, each a lab cell rebuilt from public API
//! calls so that every call into a layer can carry its own span.
//!
//! Each workload reproduces one lab computation exactly — same seeds, same
//! call sequence, same row formatting — so at the default seed its rows
//! equal the lab's fast-fidelity output (see `expected.rs`). A `--seed`
//! other than 0 is XOR-ed into the lab's base seed, and every cell derives
//! its own seed from that base the way the lab experiment does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use apps::{social_network, SocialNetwork, UBench, UBenchConfig};
use defense::{Ids, IdsConfig, RateShield};
use grunt::{CampaignConfig, CommanderConfig, GruntCampaign, Profiler, ProfilerConfig};
use lab::experiments::table1;
use lab::report::fmt;
use lab::scenario::WARMUP;
use lab::{sweep, AttackRun, Scenario, WarmProfiled};
use microsim::{
    BreakerPolicy, Outcome, RequestFilter, ResilienceConfig, ResiliencePolicy, RetryPolicy,
    SimConfig, Simulation,
};
use simnet::{derive_seed, SimDuration, SimTime, Welford};
use telemetry::{GroundTruth, ProfilerScore};
use workload::ClosedLoopUsers;

use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig16 App.1 profiler accuracy at three closed-loop loads.
    ProfileSweep,
    /// table1 damage-goal sweep: one profiled prefix, four forked attacks.
    AttackFork,
    /// One 100 000-user closed-loop cell, no attacker.
    Population100k,
    /// The three `lab resilience` configurations at fast scale.
    ResilienceStorm,
}

/// Every workload, in the order the docs list them.
pub const ALL: [Workload; 4] = [
    Workload::ProfileSweep,
    Workload::AttackFork,
    Workload::Population100k,
    Workload::ResilienceStorm,
];

/// What one rep of a workload needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Span recorder (a pass-through when tracing is off).
    pub tracer: &'a Tracer,
    /// Benchmark seed; 0 reproduces the lab's default seeds.
    pub seed: u64,
    /// Sweep worker threads.
    pub jobs: usize,
}

/// Deterministic counts of what a cell simulated. Records of a forked
/// prefix are counted once, by the prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests resolved while warming up (and measuring the baseline).
    pub warm_requests: u64,
    /// Pending kernel wheel events at the end of the warm phase.
    pub pending_events: u64,
    /// Requests resolved during the profiling phase.
    pub profile_requests: u64,
    /// Simulated microseconds the profiling phase took.
    pub profile_sim_us: u64,
    /// Probe requests the Profiler sent.
    pub probe_requests: u64,
    /// Requests resolved during attack windows.
    pub attack_requests: u64,
    /// Bot-farm size at the end of each attack, summed.
    pub bots: u64,
    /// Simulations forked from a snapshot.
    pub forks: u64,
    /// Request-log records (resolved attempts).
    pub request_records: u64,
    /// Gateway access-log records.
    pub access_records: u64,
    /// Platform retry attempts.
    pub retries: u64,
    /// Attempts failed by deadline expiry.
    pub timed_out: u64,
    /// Attempts shed at a full queue.
    pub shed: u64,
    /// Request-log records with outcome `Ok`.
    pub ok_records: u64,
}

/// Column names of a counts row, in [`Counts::values`] order.
pub const COUNT_FIELDS: [&str; 14] = [
    "warm_requests",
    "pending_events",
    "profile_requests",
    "profile_sim_us",
    "probe_requests",
    "attack_requests",
    "bots",
    "forks",
    "request_records",
    "access_records",
    "retries",
    "timed_out",
    "shed",
    "ok_records",
];

impl Counts {
    /// Every count, in [`COUNT_FIELDS`] order.
    pub fn values(&self) -> [u64; 14] {
        [
            self.warm_requests,
            self.pending_events,
            self.profile_requests,
            self.profile_sim_us,
            self.probe_requests,
            self.attack_requests,
            self.bots,
            self.forks,
            self.request_records,
            self.access_records,
            self.retries,
            self.timed_out,
            self.shed,
            self.ok_records,
        ]
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.warm_requests += o.warm_requests;
        self.pending_events += o.pending_events;
        self.profile_requests += o.profile_requests;
        self.profile_sim_us += o.profile_sim_us;
        self.probe_requests += o.probe_requests;
        self.attack_requests += o.attack_requests;
        self.bots += o.bots;
        self.forks += o.forks;
        self.request_records += o.request_records;
        self.access_records += o.access_records;
        self.retries += o.retries;
        self.timed_out += o.timed_out;
        self.shed += o.shed;
        self.ok_records += o.ok_records;
    }
}

/// One sweep cell's result.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    /// The cell's report rows, or the panic message if it panicked.
    pub rows: Result<Vec<String>, String>,
    /// What it simulated (zero if it panicked).
    pub counts: Counts,
    /// Whether the cell runs under a resilience policy.
    pub policy: bool,
}

/// One rep of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOut {
    /// Sweep cells in cell order.
    pub cells: Vec<CellOut>,
    /// Work done outside the sweep (a shared, forked prefix).
    pub prefix: Counts,
}

impl RepOut {
    /// Counts of the whole rep.
    pub fn counts(&self) -> Counts {
        let mut total = self.prefix;
        for c in &self.cells {
            total += c.counts;
        }
        total
    }

    /// The rep's counts as table rows: one per sweep cell, then one for
    /// the prefix, each led by the workload's name and the cell's label.
    pub fn count_rows(&self, workload: Workload) -> Vec<String> {
        let row = |label: String, c: &Counts| {
            let mut cells = vec![workload.name().to_string(), label];
            cells.extend(c.values().iter().map(u64::to_string));
            render(&cells)
        };
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| row(i.to_string(), &c.counts))
            .chain(std::iter::once(row("prefix".to_string(), &self.prefix)))
            .collect()
    }
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileSweep => "profile_sweep",
            Workload::AttackFork => "attack_fork",
            Workload::Population100k => "population_100k",
            Workload::ResilienceStorm => "resilience_storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one rep.
    pub fn run(self, ctx: Ctx<'_>) -> RepOut {
        match self {
            Workload::ProfileSweep => profile_sweep(ctx),
            Workload::AttackFork => attack_fork(ctx),
            Workload::Population100k => population(ctx),
            Workload::ResilienceStorm => resilience_storm(ctx),
        }
    }

    /// Builds every cell's application, simulation and population agent —
    /// the set-up a rep performs before simulated time advances — and
    /// drops them.
    pub fn setup(self, seed: u64) {
        let t = &Tracer::new(false);
        match self {
            Workload::ProfileSweep => {
                let app = UBench::generate(UBenchConfig::app1(FIG16_NOMINAL));
                for users in fig16_users() {
                    drop(fig16_build(t, &app, users, fig16_seed(seed, users)));
                }
            }
            Workload::AttackFork => drop(scenario_build(t, &table1_scenario(t, seed))),
            Workload::Population100k => drop(population_build(t, seed).0),
            Workload::ResilienceStorm => {
                for (i, (_, config)) in resilience_cells().into_iter().enumerate() {
                    drop(resilience_build(t, config, resilience_seed(seed, i)).0);
                }
            }
        }
    }
}

/// Renders a row exactly as `lab::Report::table` does.
pub fn render(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

fn len(sim: &Simulation) -> u64 {
    sim.metrics().request_log().len() as u64
}

fn access_len(sim: &Simulation) -> u64 {
    sim.metrics().access_log().len() as u64
}

/// Outcome-`Ok` records over the whole run.
fn ok_records(t: &Tracer, sim: &Simulation) -> u64 {
    let ok = RequestFilter {
        is_attack: None,
        request_type: None,
        outcome: Some(Outcome::Ok),
    };
    t.span("metrics.query", || {
        sim.metrics()
            .request_log()
            .count_matching(SimTime::ZERO, SimTime::FAR_FUTURE, ok) as u64
    })
}

/// Runs `body` over `cells` through `lab::sweep::map_cells`, one `cell`
/// span per cell under a `sweep.map_cells` span. A panicking cell becomes
/// an `Err` row instead of aborting the rep.
fn sweep_cells<C: Sync>(
    ctx: Ctx<'_>,
    cells: &[C],
    body: impl Fn(&C) -> (Vec<String>, Counts, bool) + Sync,
) -> Vec<CellOut> {
    let t = ctx.tracer;
    t.span("sweep.map_cells", || {
        let parent = t.current();
        sweep::map_cells(ctx.jobs, cells, |i, c| {
            t.cell(i as u32, parent, || match guarded(|| body(c)) {
                Ok((rows, counts, policy)) => CellOut {
                    rows: Ok(rows),
                    counts,
                    policy,
                },
                Err(msg) => CellOut {
                    rows: Err(msg),
                    counts: Counts::default(),
                    policy: false,
                },
            })
        })
    })
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

// ---------------------------------------------------------------------------
// profile_sweep: lab::experiments::fig16 at Fidelity::Fast.

const FIG16_NOMINAL: usize = 4_000;
const FIG16_FRACTIONS: [f64; 3] = [0.25, 1.0, 1.8];

fn fig16_users() -> Vec<usize> {
    FIG16_FRACTIONS
        .iter()
        .map(|f| ((FIG16_NOMINAL as f64) * f) as usize)
        .collect()
}

fn fig16_seed(seed: u64, users: usize) -> u64 {
    (0xF16 ^ seed) ^ users as u64
}

fn fig16_build(t: &Tracer, app: &UBench, users: usize, seed: u64) -> Simulation {
    let mut sim = t.span("microsim.new", || {
        Simulation::new(
            app.topology().clone(),
            SimConfig::default().seed(seed).access_log(false),
        )
    });
    if users > 0 {
        t.span("workload.build", || {
            sim.add_agent(Box::new(ClosedLoopUsers::new(
                users,
                app.browsing_model(),
                derive_seed(seed, "fig16/users"),
            )))
        });
    }
    sim
}

fn profile_sweep(ctx: Ctx<'_>) -> RepOut {
    let t = ctx.tracer;
    let app = t.span("apps.build", || {
        UBench::generate(UBenchConfig::app1(FIG16_NOMINAL))
    });
    let cells = sweep_cells(ctx, &fig16_users(), |&users| {
        let seed = fig16_seed(ctx.seed, users);
        let mut sim = fig16_build(t, &app, users, seed);
        let mut c = Counts::default();
        t.span("kernel.warm", || sim.run_until(SimTime::from_secs(10)));
        c.warm_requests = len(&sim);
        c.pending_events = sim.pending_events() as u64;
        let start = sim.now();
        let outcome = t.span("grunt.profile", || {
            let id = sim.add_agent(Box::new(Profiler::new(ProfilerConfig {
                seed,
                ..ProfilerConfig::default()
            })));
            loop {
                let next = sim.now() + SimDuration::from_secs(30);
                sim.run_until(next);
                if sim.agent_as::<Profiler>(id).expect("registered").is_done() {
                    break;
                }
                assert!(sim.now() < SimTime::from_secs(4 * 3_600), "profiler stuck");
            }
            sim.agent_as::<Profiler>(id)
                .expect("registered")
                .outcome()
                .expect("done")
                .clone()
        });
        c.profile_requests = len(&sim) - c.warm_requests;
        c.profile_sim_us = sim.now().saturating_since(start).as_micros();
        c.probe_requests = outcome.requests_sent;
        let score = t.span("telemetry.score", || {
            let gt = GroundTruth::from_topology(app.topology());
            let members: Vec<_> = outcome.catalog.iter().map(|(id, _)| *id).collect();
            ProfilerScore::compute(&members, &gt, &outcome.groups)
        });
        c.request_records = len(&sim);
        c.access_records = access_len(&sim);
        c.ok_records = ok_records(t, &sim);
        t.span("microsim.drop", || drop(sim));
        let row = render(&[
            users.to_string(),
            fmt(score.precision(), 2),
            fmt(score.recall(), 2),
            fmt(score.f_score(), 2),
        ]);
        (vec![row], c, false)
    });
    RepOut {
        cells,
        prefix: Counts::default(),
    }
}

// ---------------------------------------------------------------------------
// attack_fork: table1::param_sweep_report at Fidelity::Fast, forking.

const TABLE1_BASELINE: SimDuration = SimDuration::from_secs(40);
const TABLE1_ATTACK: SimDuration = SimDuration::from_secs(180);

fn table1_scenario(t: &Tracer, seed: u64) -> Scenario {
    let (label, platform, users, provision) = &table1::settings()[0];
    t.span("apps.build", || {
        Scenario::social_network(
            label,
            platform.clone(),
            *users,
            *provision,
            (0x7AB1 ^ seed) ^ *users as u64,
        )
    })
}

/// `Scenario::build`, one span per layer.
fn scenario_build(t: &Tracer, scenario: &Scenario) -> Simulation {
    let cfg = SimConfig::default()
        .seed(scenario.seed)
        .platform(scenario.platform.clone());
    let mut sim = t.span("microsim.new", || {
        Simulation::new(scenario.topology.clone(), cfg)
    });
    t.span("workload.build", || {
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            scenario.users,
            scenario.browsing.clone(),
            derive_seed(scenario.seed, "scenario/users"),
        )))
    });
    sim
}

/// `WarmProfiled::new`: warm-up + baseline, checkpoint, fork, profile,
/// checkpoint.
fn table1_prefix(t: &Tracer, seed: u64) -> (WarmProfiled, Counts) {
    let scenario = table1_scenario(t, seed);
    let mut sim = scenario_build(t, &scenario);
    let mut c = Counts::default();
    let baseline_window = t.span("kernel.warm", || {
        sim.run_until(SimTime::ZERO + WARMUP);
        let from = sim.now();
        sim.run_until(from + TABLE1_BASELINE);
        (from, sim.now())
    });
    c.warm_requests = len(&sim);
    c.pending_events = sim.pending_events() as u64;
    let base = t
        .span("snapshot.checkpoint", || sim.checkpoint())
        .expect("scenario agents support snapshotting");
    t.span("microsim.drop", || drop(sim));
    let mut sim = t.span("snapshot.fork", || Simulation::from_snapshot(&base));
    c.forks = 1;
    let start = sim.now();
    let profile = t.span("grunt.profile", || {
        GruntCampaign::profile(&mut sim, CampaignConfig::default().profiler)
    });
    c.profile_requests = len(&sim) - c.warm_requests;
    c.profile_sim_us = sim.now().saturating_since(start).as_micros();
    c.probe_requests = profile.requests_sent;
    let snapshot = t
        .span("snapshot.checkpoint", || sim.checkpoint())
        .expect("profiled agents support snapshotting");
    c.request_records = len(&sim);
    c.access_records = access_len(&sim);
    c.ok_records = ok_records(t, &sim);
    t.span("microsim.drop", || {
        drop(sim);
        drop(base);
    });
    let warm = WarmProfiled {
        label: scenario.label,
        snapshot,
        baseline_window,
        profile,
    };
    (warm, c)
}

/// FNV-1a over `text`, as 16 hex digits.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The table1 param-sweep row and the IDS/shield verdict row of one
/// attacked fork.
pub fn attack_rows(t: &Tracer, goal: f64, run: &AttackRun) -> Vec<String> {
    let (base, att) = t.span("telemetry.latency", || {
        (run.baseline_latency(), run.attack_latency())
    });
    let pmb = t.span("telemetry.score", || run.mean_pmb_ms());
    let (from, to) = run.attack_window;
    let ids = t.span("defense.ids", || {
        Ids::new(IdsConfig::default()).analyze_window(run.metrics(), from, to)
    });
    let shield = t.span("defense.shield", || {
        RateShield::paper_default().analyze_window(run.metrics(), from, to)
    });
    let blocked = shield
        .values()
        .filter(|v| matches!(v, defense::ShieldVerdict::Blocked(_)))
        .count();
    vec![
        render(&[
            fmt(goal, 0),
            run.campaign.bots_used.to_string(),
            fmt(pmb, 0),
            fmt(base.avg_ms, 0),
            fmt(att.avg_ms, 0),
            fmt(att.avg_ms / base.avg_ms.max(1.0), 1),
        ]),
        render(&[
            fmt(goal, 0),
            ids.alerts().len().to_string(),
            ids.attacker_hits().to_string(),
            shield.len().to_string(),
            blocked.to_string(),
            digest(&format!("{:?}|{shield:?}", ids.alerts())),
        ]),
    ]
}

/// `AttackRun::forked`, with the fork and the attack in separate spans.
fn forked_attack(t: &Tracer, warm: &WarmProfiled, goal: f64) -> AttackRun {
    let commander = CommanderConfig {
        damage_goal_ms: goal,
        ..CampaignConfig::default().commander
    };
    let pacing = commander.burst_length;
    let mut sim = t.span("snapshot.fork", || warm.fork());
    let campaign = t.span("grunt.attack", || {
        GruntCampaign::attack_with(&mut sim, warm.profile.clone(), commander, TABLE1_ATTACK)
    });
    let ramp = SimDuration::from_secs(20).min(TABLE1_ATTACK / 4);
    let attack_window = (
        campaign.attack_started + ramp,
        campaign.attack_started + TABLE1_ATTACK,
    );
    AttackRun {
        label: warm.label.clone(),
        sim,
        campaign,
        baseline_window: warm.baseline_window,
        attack_window,
        pacing,
    }
}

fn attack_fork(ctx: Ctx<'_>) -> RepOut {
    let t = ctx.tracer;
    let goals = table1::PARAM_SWEEP_GOALS;
    let prefix = t.cell(goals.len() as u32, t.current(), || {
        guarded(|| table1_prefix(t, ctx.seed))
    });
    let (warm, prefix_counts) = match prefix {
        Ok(p) => p,
        Err(msg) => {
            let failed = CellOut {
                rows: Err(format!("prefix: {msg}")),
                counts: Counts::default(),
                policy: false,
            };
            return RepOut {
                cells: vec![failed; goals.len()],
                prefix: Counts::default(),
            };
        }
    };
    let cells = sweep_cells(ctx, &goals, |&goal| {
        let run = forked_attack(t, &warm, goal);
        let rows = attack_rows(t, goal, &run);
        let mut c = Counts {
            forks: 1,
            bots: run.campaign.bots_used as u64,
            ..Counts::default()
        };
        assert!(c.bots > 0, "the commander must recruit bots");
        c.attack_requests = len(&run.sim) - prefix_counts.request_records;
        c.request_records = c.attack_requests;
        c.access_records = access_len(&run.sim) - prefix_counts.access_records;
        c.ok_records = ok_records(t, &run.sim) - prefix_counts.ok_records;
        t.span("microsim.drop", || drop(run));
        (rows, c, false)
    });
    RepOut {
        cells,
        prefix: prefix_counts,
    }
}

// ---------------------------------------------------------------------------
// population_100k: lab::experiments::megacell at Fidelity::Full.

/// Population of the mega-cell.
const POP_USERS: usize = 100_000;
/// Simulated horizon of the mega-cell: the lab's full-fidelity horizon.
const POP_HORIZON: SimDuration = SimDuration::from_secs(60);
/// The lab's mega-cell seed.
const POP_SEED: u64 = 0xCE11;

fn population_build(t: &Tracer, seed: u64) -> (Simulation, microsim::AgentId) {
    let seed = POP_SEED ^ seed;
    let app = t.span("apps.build", || social_network(POP_USERS));
    let mut sim = t.span("microsim.new", || {
        Simulation::new(
            app.topology().clone(),
            SimConfig::default().seed(seed).access_log(false),
        )
    });
    let id = t.span("workload.build", || {
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            POP_USERS,
            app.browsing_model(),
            derive_seed(seed, "megacell/users"),
        )))
    });
    (sim, id)
}

/// The `lab megacell` table row for a finished mega-cell.
fn megacell_row(s: &lab::experiments::megacell::CellStats) -> String {
    render(&[
        s.users.to_string(),
        fmt(s.sim_secs, 0),
        s.requests.to_string(),
        fmt(s.req_per_s, 0),
        fmt(s.mean_ms, 2),
        s.pending_events.to_string(),
        s.think_buckets.to_string(),
        s.tick_micros.to_string(),
    ])
}

fn population(ctx: Ctx<'_>) -> RepOut {
    let t = ctx.tracer;
    let cells = sweep_cells(ctx, &[POP_USERS], |&users| {
        let (mut sim, id) = population_build(t, ctx.seed);
        let horizon = SimTime::ZERO + POP_HORIZON;
        t.span("kernel.warm", || sim.run_until(horizon));
        let pop: &ClosedLoopUsers = sim.agent_as(id).expect("population registered");
        let sim_secs = horizon.as_micros() as f64 / 1e6;
        let requests = sim.metrics().request_log().len();
        let stats = lab::experiments::megacell::CellStats {
            users,
            sim_secs,
            requests,
            req_per_s: requests as f64 / sim_secs,
            mean_ms: pop.latency_stats().mean(),
            pending_events: sim.pending_events(),
            think_buckets: pop.pending_think_buckets(),
            tick_micros: pop.think_tick_micros(),
        };
        assert!(
            stats.pending_events < 10_000,
            "pending wheel events must stay under 10k, got {}",
            stats.pending_events
        );
        let c = Counts {
            warm_requests: len(&sim),
            pending_events: stats.pending_events as u64,
            request_records: len(&sim),
            access_records: access_len(&sim),
            ok_records: ok_records(t, &sim),
            ..Counts::default()
        };
        t.span("microsim.drop", || drop(sim));
        (vec![megacell_row(&stats)], c, false)
    });
    RepOut {
        cells,
        prefix: Counts::default(),
    }
}

// ---------------------------------------------------------------------------
// resilience_storm: lab::experiments::resilience at Fidelity::Fast.

const RES_USERS: usize = 2_000;
const RES_BASELINE: SimDuration = SimDuration::from_secs(30);
const RES_ATTACK: SimDuration = SimDuration::from_secs(90);
/// The lab experiment's user retry probability.
const RES_USER_RETRY: f64 = 0.5;

/// The three `lab resilience` configurations, rebuilt from the public
/// policy builders.
fn resilience_cells() -> Vec<(&'static str, ResilienceConfig)> {
    vec![
        ("unprotected", ResilienceConfig::disabled()),
        (
            "mitigating (deadline+shed+breaker)",
            ResilienceConfig::uniform(ResiliencePolicy {
                deadline: Some(SimDuration::from_secs(2)),
                retry: RetryPolicy::disabled(),
                breaker: BreakerPolicy {
                    failure_threshold: 50,
                    probe_interval: SimDuration::from_secs(2),
                },
                queue_bound: Some(200),
            }),
        ),
        (
            "retry storm (deadline+4 attempts)",
            ResilienceConfig::uniform(ResiliencePolicy {
                deadline: Some(SimDuration::from_millis(800)),
                retry: RetryPolicy {
                    max_attempts: 4,
                    backoff_base: SimDuration::from_millis(50),
                    jitter: 0.1,
                },
                breaker: BreakerPolicy::disabled(),
                queue_bound: None,
            }),
        ),
    ]
}

fn resilience_seed(seed: u64, cell: usize) -> u64 {
    (0x5E51 ^ seed).wrapping_add(cell as u64)
}

fn resilience_build(
    t: &Tracer,
    config: ResilienceConfig,
    seed: u64,
) -> (Simulation, microsim::AgentId) {
    let app = t.span("apps.build", || SocialNetwork::new(RES_USERS));
    let cfg = SimConfig::default().seed(seed).resilience(config);
    let mut sim = t.span("microsim.new", || {
        Simulation::new(app.topology().clone(), cfg)
    });
    let id = t.span("workload.build", || {
        sim.add_agent(Box::new(
            ClosedLoopUsers::new(
                RES_USERS,
                app.browsing_model(),
                derive_seed(seed, "scenario/users"),
            )
            .with_retry(RES_USER_RETRY),
        ))
    });
    (sim, id)
}

/// Successful legit completions per second in `[from, to)`.
fn goodput(sim: &Simulation, from: SimTime, to: SimTime) -> f64 {
    let filter = RequestFilter {
        is_attack: Some(false),
        request_type: None,
        outcome: Some(Outcome::Ok),
    };
    let n = sim.metrics().request_log().count_matching(from, to, filter);
    n as f64 / to.saturating_since(from).as_secs_f64().max(1e-9)
}

fn resilience_storm(ctx: Ctx<'_>) -> RepOut {
    let t = ctx.tracer;
    let configs: Vec<(usize, &'static str, ResilienceConfig)> = resilience_cells()
        .into_iter()
        .enumerate()
        .map(|(i, (label, config))| (i, label, config))
        .collect();
    let cells = sweep_cells(ctx, &configs, |(i, label, config)| {
        let policy = *config != ResilienceConfig::disabled();
        let (mut sim, users_id) =
            resilience_build(t, config.clone(), resilience_seed(ctx.seed, *i));
        let mut c = Counts::default();
        let (base_from, base_to) = t.span("kernel.warm", || {
            sim.run_until(SimTime::ZERO + WARMUP);
            let from = sim.now();
            sim.run_until(from + RES_BASELINE);
            (from, sim.now())
        });
        c.warm_requests = len(&sim);
        c.pending_events = sim.pending_events() as u64;
        let start = sim.now();
        let profile = t.span("grunt.profile", || {
            GruntCampaign::profile(&mut sim, CampaignConfig::default().profiler)
        });
        c.profile_requests = len(&sim) - c.warm_requests;
        c.profile_sim_us = sim.now().saturating_since(start).as_micros();
        c.probe_requests = profile.requests_sent;
        let campaign = t.span("grunt.attack", || {
            GruntCampaign::attack_with(
                &mut sim,
                profile,
                CampaignConfig::default().commander,
                RES_ATTACK,
            )
        });
        c.attack_requests = len(&sim) - c.warm_requests - c.profile_requests;
        c.bots = campaign.bots_used as u64;
        let ramp = SimDuration::from_secs(20).min(RES_ATTACK / 4);
        let (att_from, att_to) = (
            campaign.attack_started + ramp,
            campaign.attack_started + RES_ATTACK,
        );
        let (ok_avg_ms, base_goodput, attack_goodput) = t.span("metrics.query", || {
            let ok_filter = RequestFilter {
                is_attack: Some(false),
                request_type: None,
                outcome: Some(Outcome::Ok),
            };
            let mut ok_lat = Welford::new();
            sim.metrics()
                .request_log()
                .for_each_matching(att_from, att_to, ok_filter, |rec| {
                    ok_lat.push(rec.latency().as_millis_f64());
                });
            (
                ok_lat.mean(),
                goodput(&sim, base_from, base_to),
                goodput(&sim, att_from, att_to),
            )
        });
        let counters = *sim.metrics().resilience();
        let resolved = len(&sim);
        let amplification = counters.retry_amplification(resolved.saturating_sub(counters.retries));
        let pop: &ClosedLoopUsers = sim.agent_as(users_id).expect("population registered");
        let (user_retries, abandoned) = (pop.user_retries(), pop.abandoned());
        // The signature outcomes the lab's own resilience test pins: the
        // unprotected cell never fails anything, and the retry storm both
        // times requests out and amplifies attempts. The mitigating cell's
        // 2 s deadlines need not expire at every seed.
        match *i {
            0 => assert_eq!(
                counters.timed_out + counters.shed + counters.retries + user_retries + abandoned,
                0,
                "disabled policies never fail anything"
            ),
            2 => assert!(
                counters.timed_out > 0 && amplification > 1.0,
                "800 ms deadlines with retries must time out and amplify attempts"
            ),
            _ => {}
        }
        c.request_records = resolved;
        c.access_records = access_len(&sim);
        c.retries = counters.retries;
        c.timed_out = counters.timed_out;
        c.shed = counters.shed;
        c.ok_records = ok_records(t, &sim);
        t.span("microsim.drop", || drop(sim));
        let row = render(&[
            (*label).to_string(),
            fmt(base_goodput, 0),
            fmt(attack_goodput, 0),
            fmt(ok_avg_ms, 0),
            counters.timed_out.to_string(),
            counters.shed.to_string(),
            counters.rejected.to_string(),
            counters.breaker_opens.to_string(),
            fmt(amplification, 2),
            user_retries.to_string(),
            abandoned.to_string(),
        ]);
        (vec![row], c, policy)
    });
    RepOut {
        cells,
        prefix: Counts::default(),
    }
}
