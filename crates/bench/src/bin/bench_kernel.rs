//! Machine-readable kernel benchmark: measures the fast-path event queue
//! against the reference binary heap, kernel steady-state throughput, and
//! the parallel sweep speedup, then writes `BENCH_kernel.json`.
//!
//! ```text
//! cargo run --release -p bench --bin bench_kernel [-- --out <path> --quick --check]
//! ```
//!
//! `--quick` skips the Table I slices (the slowest sections). `--check`
//! runs only the correctness smoke test — a warm-snapshot forked campaign
//! must be byte-identical to a cold one, batched RNG draws must match the
//! per-call sequence, and the indexed telemetry/defense queries must match
//! their naive full-scan ground truths — writing no JSON and exiting
//! nonzero on any mismatch (CI runs this). All timing uses `std::time::Instant`; output
//! goes to the JSON file and stdout.

use bench::{kernel_offset_micros, xorshift64, HOLD_PENDING};
use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
use microsim::agents::FixedRate;
use microsim::{
    BreakerPolicy, Metrics, Origin, ResilienceConfig, ResiliencePolicy, RetryPolicy, SimConfig,
    Simulation,
};
use simnet::{EventQueue, HeapEventQueue, SimDuration, SimTime};
use std::time::Instant;
use telemetry::{LatencySummary, Traffic};

/// Counting global allocator (only with `--features alloc-count`): wraps the
/// system allocator and counts `alloc`/`realloc` calls so the steady-state
/// section can report allocations per simulated request.
#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Total `alloc` + `realloc` calls since process start.
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator plus a relaxed counter bump per allocation.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Hold-model program (the kernel's steady-state access pattern): keep a
/// paper-cell-scale pending population, pop the earliest and reschedule a
/// successor at an offset drawn from the kernel's event mixture, then
/// drain. Mirrors the `queue/*_hold_model` Criterion benches.
const HOLD_OPS: u64 = 50_000;

macro_rules! hold_program {
    ($queue:expr, $pending:expr) => {{
        let mut q = $queue;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..$pending {
            let r = xorshift64(&mut x);
            q.push(SimTime::from_micros(kernel_offset_micros(r)), i);
        }
        let mut sum = 0u64;
        for i in 0..HOLD_OPS {
            let (t, v) = q.pop().expect("pending population never drains");
            sum = sum.wrapping_add(v);
            let r = xorshift64(&mut x);
            q.push(t + SimDuration::from_micros(1 + kernel_offset_micros(r)), i);
        }
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    }};
}

/// Pending population of the deep-wheel regime: what a 100k+ user cell
/// would park on the wheel *without* the think-timer arena (one timer per
/// sleeping user plus in-flight request events).
const DEEP_PENDING: u64 = 131_072;

/// Runs `f` repeatedly for at least `budget_ms` per round and returns the
/// best round's mean ns per call (best-of-3 damps scheduler noise on
/// shared machines).
fn time_ns<F: FnMut() -> u64>(mut f: F, budget_ms: u64) -> f64 {
    std::hint::black_box(f()); // warm up
    let budget = std::time::Duration::from_millis(budget_ms);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let mut iters = 0u64;
        while started.elapsed() < budget {
            std::hint::black_box(f());
            iters += 1;
        }
        best = best.min(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn chain_topology() -> callgraph::Topology {
    let mut b = TopologyBuilder::new();
    let gw = b.add_service(ServiceSpec::new("gw").threads(256).cores(4).demand_cv(0.1));
    let api = b.add_service(ServiceSpec::new("api").threads(64).cores(2).demand_cv(0.1));
    let db = b.add_service(ServiceSpec::new("db").threads(32).cores(2).demand_cv(0.1));
    b.add_request_type(
        "r",
        vec![
            (gw, SimDuration::from_micros(300)),
            (api, SimDuration::from_millis(2)),
            (db, SimDuration::from_millis(4)),
        ],
    );
    b.build()
}

/// One simulated second of 500 req/s through a 3-stage chain; returns the
/// number of completed requests.
fn kernel_steady_state() -> u64 {
    let mut sim = Simulation::new(chain_topology(), SimConfig::default().access_log(false));
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        SimDuration::from_micros(2_000),
        500,
    )));
    sim.run_until(SimTime::from_secs(1));
    sim.metrics().request_log().len() as u64
}

/// Runs the 3-stage chain at 400 req/s (plus a 40 req/s attack source, so
/// the request log carries both origins) for `secs` simulated seconds and
/// returns the warm simulation. The rate keeps every stage below
/// saturation (db: 440 · 4 ms / 2 cores = 0.88), so the in-flight
/// population — and with it the live state a fork must copy — stays
/// bounded no matter how long the prefix runs.
fn warm_sim(secs: u64) -> Simulation {
    let mut sim = Simulation::new(chain_topology(), SimConfig::default().access_log(false));
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        SimDuration::from_micros(2_500),
        400 * secs,
    )));
    sim.add_agent(Box::new(
        FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_micros(25_000),
            40 * secs,
        )
        .with_origin(Origin::attack(1, 1)),
    ));
    sim.run_until(SimTime::from_secs(secs));
    sim
}

/// Mostly-legit traffic mix for the defense-analytics section: 64 browsers
/// on distinct IPs/sessions pacing one request per 3.2 s (above the IDS
/// inter-request threshold, so they trip no interval rule) plus one slow
/// attack source. Access logging stays on — the IDS and shield read it.
fn defense_sim(secs: u64) -> Simulation {
    let mut sim = Simulation::new(chain_topology(), SimConfig::default());
    let legit_interval = SimDuration::from_micros(3_200_000);
    let per_agent = secs * 1_000_000 / 3_200_000;
    for i in 0..64u32 {
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), legit_interval, per_agent)
                .with_origin(Origin::legit(0x0A00_0000 + i, u64::from(i))),
        ));
    }
    sim.add_agent(Box::new(
        FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(500),
            2 * secs,
        )
        .with_origin(Origin::attack(0xBAD, 0xBAD)),
    ));
    sim.run_until(SimTime::from_secs(secs));
    sim
}

/// What a pre-COW `Metrics` clone had to do: copy every record of every log
/// into freshly allocated storage. The baseline for the fork-cost section.
fn deep_copy_metrics(m: &Metrics) -> u64 {
    let requests: Vec<_> = m.request_log().iter().copied().collect();
    let services: Vec<_> = m.windows().flat_map(|row| row.iter().copied()).collect();
    let network: Vec<_> = m.network_windows().copied().collect();
    (requests.len() + services.len() + network.len()) as u64
}

/// The smoke test behind `--check`: asserts the two invariants this crate's
/// numbers rely on, fast enough for CI.
fn check() {
    eprintln!("== check: batched RNG draws match the per-call sequence ==");
    let mut per_call = simnet::RngStream::from_label(7, "bench/check");
    let mut batched = simnet::RngStream::from_label(7, "bench/check");
    let mut buf = [0.0f64; 32];
    batched.fill_standard_normal(&mut buf);
    for (i, z) in buf.iter().enumerate() {
        let expected = per_call.lognormal_mean_cv(4.0, 0.3);
        let got = simnet::lognormal_mean_cv_from_z(4.0, 0.3, *z);
        assert!(
            expected == got,
            "draw {i}: per-call {expected} != batched {got}"
        );
    }

    eprintln!("== check: forked campaign is byte-identical to cold ==");
    let scenario = lab::Scenario::social_network(
        "check",
        microsim::PlatformProfile::ec2(),
        1_500,
        1_500,
        0xC4EC,
    );
    let baseline = SimDuration::from_secs(20);
    let attack = SimDuration::from_secs(60);
    let forked = lab::AttackRun::execute_opts(
        &scenario,
        grunt::CampaignConfig::default(),
        baseline,
        attack,
        true,
    );
    let cold = lab::AttackRun::execute_opts(
        &scenario,
        grunt::CampaignConfig::default(),
        baseline,
        attack,
        false,
    );
    let forked_report = comparison_report(&forked);
    let cold_report = comparison_report(&cold);
    if forked_report != cold_report {
        print_first_divergence(&forked_report, &cold_report);
        panic!(
            "forked campaign diverges from cold re-simulation (first divergent report line above)"
        );
    }

    eprintln!("== check: indexed latency summaries match the naive scan ==");
    let m = forked.sim.metrics();
    let horizon = SimTime::from_secs(120);
    for traffic in [Traffic::All, Traffic::Legit, Traffic::Attack] {
        for request_type in [
            None,
            Some(RequestTypeId::new(0)),
            Some(RequestTypeId::new(3)),
        ] {
            for (from, to) in [
                (SimTime::ZERO, horizon),
                (SimTime::from_secs(25), SimTime::from_secs(45)),
                (SimTime::from_millis(10_500), SimTime::from_millis(11_750)),
            ] {
                let fast = LatencySummary::compute(m, traffic, request_type, from, to);
                let naive = LatencySummary::compute_naive(m, traffic, request_type, from, to);
                assert!(
                    fast == naive,
                    "indexed summary diverges from naive ({traffic:?}, {request_type:?}, \
                     [{from}, {to})): {fast:?} != {naive:?}"
                );
            }
        }
    }
    eprintln!("== check: explicitly-disabled resilience is byte-identical to none ==");
    // The tentpole invariant of the resilience layer: configuring it with
    // every policy off must leave the kernel bit-identical to a config
    // that never mentions resilience — same metrics, same RNG positions,
    // same pending events. A closed-loop cell exercises the submit path
    // (where deadline arming, breaker checks, and queue bounds branch)
    // thousands of times.
    let resilience_cell = |config: SimConfig| {
        let app = apps::social_network(2_000);
        let mut sim = Simulation::new(app.topology().clone(), config.access_log(false));
        sim.add_agent(Box::new(workload::ClosedLoopUsers::new(
            2_000,
            app.browsing_model(),
            simnet::derive_seed(0xAB1E, "bench/resilience-off"),
        )));
        sim.run_until(SimTime::from_secs(5));
        sim
    };
    let plain = resilience_cell(SimConfig::default().seed(0xAB1E));
    let disabled = resilience_cell(
        SimConfig::default()
            .seed(0xAB1E)
            .resilience(ResilienceConfig::uniform(ResiliencePolicy::disabled())),
    );
    assert!(
        plain.metrics() == disabled.metrics(),
        "disabled resilience config must record byte-identical metrics"
    );
    assert!(
        plain.rng_fingerprint() == disabled.rng_fingerprint(),
        "disabled resilience config must leave every RNG stream untouched"
    );
    assert!(
        plain.pending_events() == disabled.pending_events(),
        "disabled resilience config must schedule no extra wheel events"
    );

    eprintln!("== check: indexed defense analytics match the naive scans ==");
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let shield = defense::RateShield::paper_default();
    for (from, to) in [
        (SimTime::ZERO, SimTime::FAR_FUTURE),
        (SimTime::from_secs(25), SimTime::from_secs(45)),
        (SimTime::from_millis(10_500), SimTime::from_millis(11_750)),
        (SimTime::from_secs(70), SimTime::from_secs(70)),
    ] {
        assert!(
            ids.analyze_window(m, from, to) == ids.analyze_naive(m, from, to),
            "indexed IDS report diverges from naive ([{from}, {to}))"
        );
        assert!(
            shield.analyze_window(m, from, to) == shield.analyze_naive(m, from, to),
            "indexed shield verdicts diverge from naive ([{from}, {to}))"
        );
    }
    eprintln!("check OK");
}

/// Renders a run's comparable end state as a line-oriented report — one
/// metrics field per line plus the RNG fingerprint and pending-event count
/// — so a determinism failure can name the exact quantity that diverged.
fn comparison_report(run: &lab::AttackRun) -> String {
    format!(
        "{:#?}\nrng_fingerprint: {:?}\npending_events: {}\n",
        run.sim.metrics(),
        run.sim.rng_fingerprint(),
        run.sim.pending_events()
    )
}

/// Prints the first line where the forked and cold reports diverge.
fn print_first_divergence(forked: &str, cold: &str) {
    let (mut f, mut c) = (forked.lines(), cold.lines());
    let mut line = 0usize;
    loop {
        line += 1;
        match (f.next(), c.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => {
                eprintln!("reports compare unequal but no line differs (encoding?)");
                return;
            }
            (a, b) => {
                eprintln!("first divergent report line ({line}):");
                eprintln!("  forked: {}", a.unwrap_or("<end of report>"));
                eprintln!("  cold:   {}", b.unwrap_or("<end of report>"));
                return;
            }
        }
    }
}

/// Host CPU model, toolchain and git revision of this run, as a JSON
/// object. The revision is `null` outside a git work tree; `git_dirty`
/// records uncommitted changes to tracked files.
fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let rev = git(&["rev-parse", "HEAD"]).map_or("null".to_string(), |r| quoted(r.trim()));
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or("null".to_string(), |s| (!s.is_empty()).to_string());
    format!(
        "{{\"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {rev}, \"git_dirty\": {dirty}}}",
        quoted(&cpu),
        quoted(env!("BENCH_RUSTC")),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        check();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());

    eprintln!("== event queue: timing wheel vs binary heap (hold model) ==");
    let wheel_ns = time_ns(
        || hold_program!(EventQueue::<u64>::with_capacity(1_024), HOLD_PENDING),
        500,
    );
    let heap_ns = time_ns(
        || hold_program!(HeapEventQueue::<u64>::with_capacity(1_024), HOLD_PENDING),
        500,
    );
    let ops = (HOLD_PENDING + HOLD_OPS) as f64;
    let queue_speedup = heap_ns / wheel_ns;
    eprintln!(
        "   wheel {:.1} ns/op, heap {:.1} ns/op, speedup {queue_speedup:.2}x",
        wheel_ns / ops,
        heap_ns / ops
    );

    eprintln!("== deep wheel: {DEEP_PENDING} pending events (un-arena'd mega-cell) ==");
    let deep_wheel_ns = time_ns(
        || hold_program!(EventQueue::<u64>::with_capacity(1_024), DEEP_PENDING),
        500,
    );
    let deep_heap_ns = time_ns(
        || hold_program!(HeapEventQueue::<u64>::with_capacity(1_024), DEEP_PENDING),
        500,
    );
    let deep_ops = (DEEP_PENDING + HOLD_OPS) as f64;
    let deep_speedup = deep_heap_ns / deep_wheel_ns;
    eprintln!(
        "   wheel {:.1} ns/op, heap {:.1} ns/op, speedup {deep_speedup:.2}x",
        deep_wheel_ns / deep_ops,
        deep_heap_ns / deep_ops
    );

    eprintln!("== kernel steady state (1 sim-second, 500 req/s, 3-stage chain) ==");
    let mut requests = 0u64;
    let kernel_ns = time_ns(
        || {
            requests = kernel_steady_state();
            requests
        },
        2_000,
    );
    let req_per_sec = requests as f64 / (kernel_ns / 1e9);
    let sim_speed = 1.0 / (kernel_ns / 1e9);
    eprintln!("   {req_per_sec:.0} requests/s simulated ({sim_speed:.0}x real time)");

    eprintln!("== service-demand RNG: per-call vs batched draws ==");
    const DRAWS: usize = 4_096;
    let per_call_ns = time_ns(
        || {
            let mut rng = simnet::RngStream::from_label(11, "bench/demand");
            let mut acc = 0.0f64;
            for _ in 0..DRAWS {
                acc += rng.lognormal_mean_cv(4.0, 0.3);
            }
            acc.to_bits()
        },
        200,
    ) / DRAWS as f64;
    let batched_ns = time_ns(
        || {
            let mut rng = simnet::RngStream::from_label(11, "bench/demand");
            let mut buf = [0.0f64; 32];
            let mut acc = 0.0f64;
            for _ in 0..DRAWS / 32 {
                rng.fill_standard_normal(&mut buf);
                for z in buf {
                    acc += simnet::lognormal_mean_cv_from_z(4.0, 0.3, z);
                }
            }
            acc.to_bits()
        },
        200,
    ) / DRAWS as f64;
    eprintln!(
        "   per-call {per_call_ns:.1} ns/draw, batched {batched_ns:.1} ns/draw, \
         speedup {:.2}x",
        per_call_ns / batched_ns
    );

    eprintln!("== Markov transitions: alias table vs weighted_choice scan ==");
    // The population's per-response transition draw. Same distribution,
    // one uniform per draw either way; the alias table is O(1) in the
    // catalogue size where the inverse-CDF scan is O(outcomes).
    const OUTCOMES: usize = 32;
    let weights: Vec<f64> = (0..OUTCOMES).map(|i| 1.0 + (i % 7) as f64).collect();
    let alias = simnet::AliasTable::new(&weights);
    let alias_ns = time_ns(
        || {
            let mut rng = simnet::RngStream::from_label(13, "bench/markov");
            let mut acc = 0usize;
            for _ in 0..DRAWS {
                acc += alias.sample_with(&mut rng);
            }
            acc as u64
        },
        200,
    ) / DRAWS as f64;
    let scan_ns = time_ns(
        || {
            let mut rng = simnet::RngStream::from_label(13, "bench/markov");
            let mut acc = 0usize;
            for _ in 0..DRAWS {
                acc += rng.weighted_choice(&weights);
            }
            acc as u64
        },
        200,
    ) / DRAWS as f64;
    let alias_speedup = scan_ns / alias_ns;
    eprintln!(
        "   alias {alias_ns:.1} ns/draw, weighted_choice {scan_ns:.1} ns/draw \
         ({OUTCOMES} outcomes), speedup {alias_speedup:.2}x"
    );

    eprintln!("== large population: 100k-user closed-loop cell, flat-arena vs naive twin ==");
    // One SocialNetwork mega-cell driven to `MEGA_SECS` sim-seconds by the
    // flat-arena engine and by its retained naive twin (token HashMap,
    // BTreeMap think buckets, per-call draws). The two runs are
    // byte-identical in every recorded metric — the twin is the
    // correctness baseline the engine's speedup is measured against.
    const MEGA_USERS: usize = 100_000;
    const MEGA_SECS: u64 = 10;
    let app = apps::social_network(MEGA_USERS);
    let build_cell = || {
        Simulation::new(
            app.topology().clone(),
            SimConfig::default().seed(0xCE11).access_log(false),
        )
    };
    let pop_seed = simnet::derive_seed(0xCE11, "bench/megacell");
    let t0 = Instant::now();
    let mut engine_sim = build_cell();
    let engine_id = engine_sim.add_agent(Box::new(workload::ClosedLoopUsers::new(
        MEGA_USERS,
        app.browsing_model(),
        pop_seed,
    )));
    engine_sim.run_until(SimTime::from_secs(MEGA_SECS));
    let engine_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut naive_sim = build_cell();
    naive_sim.add_agent(Box::new(workload::ClosedLoopUsersNaive::new(
        MEGA_USERS,
        app.browsing_model(),
        pop_seed,
    )));
    naive_sim.run_until(SimTime::from_secs(MEGA_SECS));
    let naive_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        engine_sim.metrics(),
        naive_sim.metrics(),
        "flat-arena engine must be byte-identical to the naive twin"
    );
    let mega_requests = engine_sim.metrics().request_log().len();
    let mega_pending = engine_sim.pending_events();
    let mega_buckets = engine_sim
        .agent_as::<workload::ClosedLoopUsers>(engine_id)
        .expect("population registered")
        .pending_think_buckets();
    assert!(
        mega_pending < 10_000,
        "mega-cell must keep pending wheel events under 10k, got {mega_pending}"
    );
    let pop_speedup = naive_secs / engine_secs;
    eprintln!(
        "   engine {engine_secs:.2}s, naive twin {naive_secs:.2}s for {MEGA_SECS} sim-s \
         ({mega_requests} requests, byte-identical), speedup {pop_speedup:.2}x; \
         {mega_pending} pending wheel events ({mega_buckets} think buckets) for {MEGA_USERS} users"
    );

    eprintln!("== metrics fork cost: COW clone vs deep copy, short vs long prefix ==");
    let short = warm_sim(5);
    let long = warm_sim(40);
    let short_requests = short.metrics().request_log().len();
    let long_requests = long.metrics().request_log().len();
    // The COW clone is what Kernel::clone does on every snapshot/fork:
    // sealed log segments are shared by Arc bump, only the bounded mutable
    // tails are copied, so the cost is independent of how long the warm
    // prefix ran.
    let fork_short_ns = time_ns(|| short.metrics().clone().request_log().len() as u64, 300);
    let fork_long_ns = time_ns(|| long.metrics().clone().request_log().len() as u64, 300);
    let deep_long_ns = time_ns(|| deep_copy_metrics(long.metrics()), 300);
    let fork_vs_deep = deep_long_ns / fork_long_ns;
    // The full fork (metrics + agent snapshots + event queue rebuild) is
    // what every warm-start experiment pays per cell. With COW sample
    // stores the cost depends only on the bounded mutable tails, so an
    // 8x-longer warm prefix must fork in (nearly) the same time.
    let snap_short = short.checkpoint().expect("FixedRate supports snapshotting");
    let snap_long = long.checkpoint().expect("FixedRate supports snapshotting");
    let sim_fork_short_ns = time_ns(
        || {
            let fork = Simulation::from_snapshot(&snap_short);
            fork.pending_events() as u64
        },
        300,
    );
    let sim_fork_long_ns = time_ns(
        || {
            let fork = Simulation::from_snapshot(&snap_long);
            fork.pending_events() as u64
        },
        300,
    );
    let fork_ratio = sim_fork_long_ns / sim_fork_short_ns;
    eprintln!(
        "   COW clone {:.1} us ({short_requests} reqs) / {:.1} us ({long_requests} reqs), \
         deep copy {:.1} us, speedup {fork_vs_deep:.1}x; full sim fork {:.1} us (short) / \
         {:.1} us (long), long/short ratio {fork_ratio:.2}",
        fork_short_ns / 1e3,
        fork_long_ns / 1e3,
        deep_long_ns / 1e3,
        sim_fork_short_ns / 1e3,
        sim_fork_long_ns / 1e3
    );

    eprintln!("== analysis window query: indexed vs naive full scan ==");
    let m = long.metrics();
    // The Monitor's shape of query: attack-only latencies over a short
    // window. The posting lists slice straight to the ~9% matching records
    // while the naive path scans and filters the whole log.
    let (q_from, q_to) = (SimTime::from_secs(20), SimTime::from_secs(25));
    assert_eq!(
        LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to),
        LatencySummary::compute_naive(m, Traffic::Attack, None, q_from, q_to),
        "indexed summary must match the naive reference"
    );
    let matching = LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to).count;
    let indexed_ns = time_ns(
        || LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to).count as u64,
        300,
    );
    let naive_ns = time_ns(
        || LatencySummary::compute_naive(m, Traffic::Attack, None, q_from, q_to).count as u64,
        300,
    );
    let query_speedup = naive_ns / indexed_ns;
    eprintln!(
        "   indexed {:.1} us, naive {:.1} us, speedup {query_speedup:.1}x \
         ({matching} of {long_requests} records match)",
        indexed_ns / 1e3,
        naive_ns / 1e3
    );

    eprintln!("== defense window analytics: indexed postings vs naive full scan ==");
    let dsim = defense_sim(1_200);
    let dm = dsim.metrics();
    let entries = dm.access_log().len();
    // A 20 s audit window out of a 20-minute run: <2% selectivity. The
    // indexed paths collate from per-segment IP/session posting lists; the
    // naive ground truths scan and filter every access-log entry.
    let (w_from, w_to) = (SimTime::from_secs(600), SimTime::from_secs(620));
    let w_matching = dm.access_log().count_in(w_from, w_to);
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let shield = defense::RateShield::paper_default();
    assert_eq!(
        ids.analyze_window(dm, w_from, w_to),
        ids.analyze_naive(dm, w_from, w_to),
        "indexed IDS window report must match the naive reference"
    );
    assert_eq!(
        shield.analyze_window(dm, w_from, w_to),
        shield.analyze_naive(dm, w_from, w_to),
        "indexed shield window verdicts must match the naive reference"
    );
    let ids_indexed_ns = time_ns(
        || ids.analyze_window(dm, w_from, w_to).alerts().len() as u64,
        300,
    );
    let ids_naive_ns = time_ns(
        || ids.analyze_naive(dm, w_from, w_to).alerts().len() as u64,
        300,
    );
    let ids_speedup = ids_naive_ns / ids_indexed_ns;
    let shield_indexed_ns = time_ns(|| shield.analyze_window(dm, w_from, w_to).len() as u64, 300);
    let shield_naive_ns = time_ns(|| shield.analyze_naive(dm, w_from, w_to).len() as u64, 300);
    let shield_speedup = shield_naive_ns / shield_indexed_ns;
    eprintln!(
        "   IDS indexed {:.1} us, naive {:.1} us, speedup {ids_speedup:.1}x; \
         shield indexed {:.1} us, naive {:.1} us, speedup {shield_speedup:.1}x \
         ({w_matching} of {entries} entries in window)",
        ids_indexed_ns / 1e3,
        ids_naive_ns / 1e3,
        shield_indexed_ns / 1e3,
        shield_naive_ns / 1e3
    );

    eprintln!("== resilience ablation: overloaded chain, policies off vs on ==");
    // The 3-stage chain driven 60% past the db stage's capacity (800 req/s
    // against 500 req/s of db throughput). With resilience off the wait
    // queues absorb the whole overload; with a 200 ms per-attempt
    // deadline, 3 jittered-backoff attempts, and a 64-entry queue bound,
    // the layer sheds and times out the excess instead. The counters are
    // the machine-readable summary of what the layer did — amplification
    // > 1 shows platform retries adding load, shed_rate the fraction of
    // attempts dropped at full queues.
    const RES_SECS: u64 = 10;
    let overloaded_chain = |config: SimConfig| {
        let mut sim = Simulation::new(chain_topology(), config.access_log(false));
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_micros(1_250),
            800 * RES_SECS,
        )));
        sim.run_until(SimTime::from_secs(RES_SECS));
        sim
    };
    let t0 = Instant::now();
    let res_off = overloaded_chain(SimConfig::default());
    let res_off_secs = t0.elapsed().as_secs_f64();
    let active_policy = ResiliencePolicy {
        deadline: Some(SimDuration::from_millis(200)),
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(20),
            jitter: 0.1,
        },
        breaker: BreakerPolicy::disabled(),
        queue_bound: Some(64),
    };
    let t1 = Instant::now();
    let res_on =
        overloaded_chain(SimConfig::default().resilience(ResilienceConfig::uniform(active_policy)));
    let res_on_secs = t1.elapsed().as_secs_f64();
    let res_counters = *res_on.metrics().resilience();
    let res_resolved = res_on.metrics().request_log().len() as u64;
    let res_first = res_resolved.saturating_sub(res_counters.retries);
    let res_amplification = res_counters.retry_amplification(res_first);
    let res_attempts = res_first + res_counters.retries;
    let shed_rate = res_counters.shed as f64 / res_attempts.max(1) as f64;
    let res_off_resolved = res_off.metrics().request_log().len();
    eprintln!(
        "   off {res_off_secs:.2}s ({res_off_resolved} resolved), \
         on {res_on_secs:.2}s ({res_resolved} resolved attempts); \
         amplification {res_amplification:.3}, shed rate {shed_rate:.3} \
         ({} timed out, {} shed, {} retries)",
        res_counters.timed_out, res_counters.shed, res_counters.retries
    );

    #[cfg(feature = "alloc-count")]
    let allocs = {
        use std::sync::atomic::Ordering;
        eprintln!("== allocations per request (counting global allocator) ==");
        std::hint::black_box(kernel_steady_state()); // warm up
        let before = alloc_count::ALLOCS.load(Ordering::Relaxed);
        let counted_requests = kernel_steady_state();
        let after = alloc_count::ALLOCS.load(Ordering::Relaxed);
        let per_request = (after - before) as f64 / counted_requests as f64;
        eprintln!(
            "   {} allocations / {counted_requests} requests = {per_request:.1} per request",
            after - before
        );
        (after - before, counted_requests, per_request)
    };

    let snapshot_fork = if quick {
        eprintln!("== skipping snapshot fork slice (--quick) ==");
        None
    } else {
        eprintln!("== Table I param sweep (4 damage-goal cells): cold vs forked ==");
        let opts = lab::RunOpts::new(lab::Fidelity::Fast);
        let t0 = Instant::now();
        let cold = lab::experiments::table1::param_sweep_report(opts.snapshots(false));
        let cold_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let forked = lab::experiments::table1::param_sweep_report(opts);
        let forked_secs = t1.elapsed().as_secs_f64();
        assert_eq!(
            cold.to_markdown(),
            forked.to_markdown(),
            "forked param sweep must be byte-identical to cold"
        );
        eprintln!(
            "   cold {cold_secs:.1}s, forked {forked_secs:.1}s, speedup {:.2}x (byte-identical; \
             the shared warm-up + baseline + profiling prefix is simulated once instead of {} times)",
            cold_secs / forked_secs,
            lab::experiments::table1::PARAM_SWEEP_GOALS.len()
        );
        Some((cold_secs, forked_secs))
    };

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let table1 = if quick {
        eprintln!("== skipping Table I slice (--quick) ==");
        None
    } else {
        eprintln!("== Table I two-cell slice: serial vs --jobs 2 ==");
        let settings: Vec<lab::experiments::table1::Setting> = lab::experiments::table1::settings()
            .into_iter()
            .take(2)
            .collect();
        let t0 = Instant::now();
        let serial = lab::experiments::table1::report_for(&settings, lab::Fidelity::Fast, 1);
        let serial_secs = t0.elapsed().as_secs_f64();
        // On a single-CPU host the jobs=2 run would just time-slice the
        // same core and report a meaningless "slowdown", so measure it only
        // when a second CPU exists and publish `null` otherwise.
        let parallel_secs = if cpus >= 2 {
            let t1 = Instant::now();
            let parallel = lab::experiments::table1::report_for(&settings, lab::Fidelity::Fast, 2);
            let secs = t1.elapsed().as_secs_f64();
            assert_eq!(
                serial.to_markdown(),
                parallel.to_markdown(),
                "parallel sweep must be byte-identical to serial"
            );
            eprintln!(
                "   serial {serial_secs:.1}s, jobs=2 {secs:.1}s, speedup {:.2}x (byte-identical)",
                serial_secs / secs
            );
            Some(secs)
        } else {
            eprintln!(
                "   serial {serial_secs:.1}s; single CPU — skipping the jobs=2 measurement \
                 (speedup: null)"
            );
            None
        };
        Some((serial_secs, parallel_secs))
    };

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    json.push_str(&format!("  \"provenance\": {},\n", provenance()));
    json.push_str(&format!(
        "  \"queue_hold_model\": {{\n    \"pending\": {HOLD_PENDING},\n    \"ops\": {HOLD_OPS},\n    \"wheel_ns_per_op\": {:.2},\n    \"heap_ns_per_op\": {:.2},\n    \"speedup\": {:.3}\n  }},\n",
        wheel_ns / ops,
        heap_ns / ops,
        queue_speedup
    ));
    json.push_str(&format!(
        "  \"deep_wheel\": {{\n    \"pending\": {DEEP_PENDING},\n    \"ops\": {HOLD_OPS},\n    \"wheel_ns_per_op\": {:.2},\n    \"heap_ns_per_op\": {:.2},\n    \"speedup\": {:.3}\n  }},\n",
        deep_wheel_ns / deep_ops,
        deep_heap_ns / deep_ops,
        deep_speedup
    ));
    json.push_str(&format!(
        "  \"kernel_steady_state\": {{\n    \"requests_per_wall_second\": {req_per_sec:.0},\n    \"sim_seconds_per_wall_second\": {sim_speed:.1}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"demand_rng_batching\": {{\n    \"per_call_ns_per_draw\": {:.2},\n    \"batched_ns_per_draw\": {:.2},\n    \"speedup\": {:.3}\n  }},\n",
        per_call_ns,
        batched_ns,
        per_call_ns / batched_ns
    ));
    json.push_str(&format!(
        "  \"markov_transition\": {{\n    \"outcomes\": {OUTCOMES},\n    \"alias_ns_per_draw\": {alias_ns:.2},\n    \"weighted_choice_ns_per_draw\": {scan_ns:.2},\n    \"speedup\": {alias_speedup:.3}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"large_population\": {{\n    \"users\": {MEGA_USERS},\n    \"sim_secs\": {MEGA_SECS},\n    \"requests\": {mega_requests},\n    \"req_per_wall_second\": {:.0},\n    \"engine_secs\": {engine_secs:.2},\n    \"naive_secs\": {naive_secs:.2},\n    \"pending_wheel_events\": {mega_pending},\n    \"think_buckets\": {mega_buckets},\n    \"byte_identical_to_naive\": true,\n    \"speedup\": {pop_speedup:.3}\n  }},\n",
        mega_requests as f64 / engine_secs
    ));
    json.push_str(&format!(
        "  \"fork_cost\": {{\n    \"short_prefix_requests\": {short_requests},\n    \"long_prefix_requests\": {long_requests},\n    \"metrics_fork_short_us\": {:.2},\n    \"metrics_fork_long_us\": {:.2},\n    \"metrics_deep_copy_long_us\": {:.2},\n    \"metrics_fork_vs_deep_copy_speedup\": {:.3},\n    \"sim_fork_short_us\": {:.2},\n    \"sim_fork_long_us\": {:.2},\n    \"long_vs_short_fork_ratio\": {:.3}\n  }},\n",
        fork_short_ns / 1e3,
        fork_long_ns / 1e3,
        deep_long_ns / 1e3,
        fork_vs_deep,
        sim_fork_short_ns / 1e3,
        sim_fork_long_ns / 1e3,
        fork_ratio
    ));
    json.push_str(&format!(
        "  \"analysis_window_query\": {{\n    \"records\": {long_requests},\n    \"matching\": {matching},\n    \"indexed_us\": {:.2},\n    \"naive_us\": {:.2},\n    \"speedup\": {:.3}\n  }},\n",
        indexed_ns / 1e3,
        naive_ns / 1e3,
        query_speedup
    ));
    json.push_str(&format!(
        "  \"ids_window_query\": {{\n    \"entries\": {entries},\n    \"matching\": {w_matching},\n    \"ids_indexed_us\": {:.2},\n    \"ids_naive_us\": {:.2},\n    \"shield_indexed_us\": {:.2},\n    \"shield_naive_us\": {:.2},\n    \"shield_speedup\": {:.3},\n    \"speedup\": {:.3}\n  }}",
        ids_indexed_ns / 1e3,
        ids_naive_ns / 1e3,
        shield_indexed_ns / 1e3,
        shield_naive_ns / 1e3,
        shield_speedup,
        ids_speedup
    ));
    json.push_str(&format!(
        ",\n  \"resilience_ablation\": {{\n    \"sim_secs\": {RES_SECS},\n    \"off_resolved\": {res_off_resolved},\n    \"off_secs\": {res_off_secs:.2},\n    \"on_resolved_attempts\": {res_resolved},\n    \"on_secs\": {res_on_secs:.2},\n    \"retries\": {},\n    \"timed_out\": {},\n    \"shed\": {},\n    \"retry_amplification\": {res_amplification:.3},\n    \"shed_rate\": {shed_rate:.3}\n  }}",
        res_counters.retries, res_counters.timed_out, res_counters.shed
    ));
    #[cfg(feature = "alloc-count")]
    {
        let (count, counted_requests, per_request) = allocs;
        json.push_str(&format!(
            ",\n  \"allocs_per_request\": {{\n    \"allocations\": {count},\n    \"requests\": {counted_requests},\n    \"per_request\": {per_request:.2}\n  }}"
        ));
    }
    if let Some((cold_secs, forked_secs)) = snapshot_fork {
        json.push_str(&format!(
            ",\n  \"table1_param_sweep_fork\": {{\n    \"cells\": {},\n    \"cold_secs\": {:.2},\n    \"forked_secs\": {:.2},\n    \"speedup\": {:.3}\n  }}",
            lab::experiments::table1::PARAM_SWEEP_GOALS.len(),
            cold_secs,
            forked_secs,
            cold_secs / forked_secs
        ));
    }
    if let Some((serial_secs, parallel_secs)) = table1 {
        // An honest null: on a 1-CPU host the jobs=2 run is skipped rather
        // than reported as a time-sliced "slowdown", and the skip reason is
        // machine-readable.
        let (jobs2_json, speedup_json) = match parallel_secs {
            Some(secs) => (format!("{secs:.2}"), format!("{:.3}", serial_secs / secs)),
            None => ("null".to_string(), "null".to_string()),
        };
        json.push_str(&format!(
            ",\n  \"table1_two_cell_slice\": {{\n    \"serial_secs\": {serial_secs:.2},\n    \"jobs2_secs\": {jobs2_json},\n    \"jobs2_skipped_1cpu\": {},\n    \"speedup\": {speedup_json}\n  }}",
            parallel_secs.is_none()
        ));
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    print!("{json}");
    eprintln!("wrote {out_path}");
}
