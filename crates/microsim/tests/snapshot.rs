//! Property-based tests of snapshot/fork equivalence: for random
//! topologies and agent mixes, `checkpoint → fork → run_until(T)` must
//! match an uninterrupted `run_until(T)` on every recorded metric, the
//! pending event count, and the final RNG stream positions.

use callgraph::{RequestTypeId, ServiceSpec, Topology, TopologyBuilder};
use microsim::agents::FixedRate;
use microsim::{
    BreakerPolicy, ResilienceConfig, ResiliencePolicy, RetryPolicy, SimConfig, Simulation,
};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};
use workload::{BrowsingModel, ClosedLoopUsers};

/// A random small application: 2-5 services, 1-3 chain request types.
#[derive(Debug, Clone)]
struct RandomApp {
    services: Vec<(u32, u32)>,      // (threads, cores)
    chains: Vec<Vec<(usize, u64)>>, // (service index, demand ms)
}

fn app_strategy() -> impl Strategy<Value = RandomApp> {
    let services = prop::collection::vec((1u32..48, 1u32..4), 2..6);
    services.prop_flat_map(|services| {
        let n = services.len();
        let chain = prop::collection::vec((0..n, 1u64..12), 1..4).prop_map(move |raw| {
            // Visit each service at most once per chain.
            let mut seen = std::collections::HashSet::new();
            raw.into_iter()
                .filter(|(s, _)| seen.insert(*s))
                .collect::<Vec<_>>()
        });
        let chains = prop::collection::vec(chain, 1..4);
        (Just(services), chains).prop_map(|(services, chains)| RandomApp {
            services,
            chains: chains.into_iter().filter(|c| !c.is_empty()).collect(),
        })
    })
}

fn build(app: &RandomApp) -> Option<Topology> {
    if app.chains.is_empty() {
        return None;
    }
    let mut b = TopologyBuilder::new();
    let ids: Vec<_> = app
        .services
        .iter()
        .enumerate()
        .map(|(i, (threads, cores))| {
            b.add_service(
                ServiceSpec::new(format!("s{i}"))
                    .threads(*threads)
                    .cores(*cores)
                    .demand_cv(0.2),
            )
        })
        .collect();
    for (i, chain) in app.chains.iter().enumerate() {
        b.add_request_type(
            format!("r{i}"),
            chain
                .iter()
                .map(|(s, d)| (ids[*s], SimDuration::from_millis(*d)))
                .collect(),
        );
    }
    Some(b.build())
}

/// A random agent mix to register on the simulation: a closed-loop user
/// population plus one `FixedRate` source per request type subset.
#[derive(Debug, Clone)]
struct AgentMix {
    users: usize,
    fixed_sources: Vec<(u64, u64)>, // (interval ms, count) per request type
}

fn mix_strategy() -> impl Strategy<Value = AgentMix> {
    (
        1usize..30,
        prop::collection::vec((5u64..40, 10u64..60), 0..3),
    )
        .prop_map(|(users, fixed_sources)| AgentMix {
            users,
            fixed_sources,
        })
}

fn populate(sim: &mut Simulation, topo: &Topology, mix: &AgentMix, seed: u64, retry_prob: f64) {
    let types: Vec<RequestTypeId> = (0..topo.num_request_types())
        .map(|t| RequestTypeId::new(t as u32))
        .collect();
    sim.add_agent(Box::new(
        ClosedLoopUsers::new(
            mix.users,
            BrowsingModel::uniform(types.iter().copied()),
            seed ^ 0x5EED,
        )
        .with_retry(retry_prob),
    ));
    for (i, (interval, count)) in mix.fixed_sources.iter().enumerate() {
        sim.add_agent(Box::new(FixedRate::new(
            types[i % types.len()],
            SimDuration::from_millis(*interval),
            *count,
        )));
    }
}

/// A random resilience configuration. Deadlines are deliberately tight
/// against the 1-12 ms step demands and the queue bounds small against the
/// thread counts, so a good fraction of cases checkpoint with live
/// deadline timers, tripped breakers and shed jobs.
#[derive(Debug, Clone)]
struct RandomResilience {
    deadline_ms: Option<u64>,
    max_attempts: u32,
    jitter: bool,
    breaker_threshold: u32,
    queue_bound: Option<u32>,
}

impl RandomResilience {
    fn config(&self) -> ResilienceConfig {
        ResilienceConfig::uniform(ResiliencePolicy {
            deadline: self.deadline_ms.map(SimDuration::from_millis),
            retry: RetryPolicy {
                max_attempts: self.max_attempts,
                backoff_base: SimDuration::from_millis(5),
                jitter: if self.jitter { 0.2 } else { 0.0 },
            },
            breaker: BreakerPolicy {
                failure_threshold: self.breaker_threshold,
                probe_interval: SimDuration::from_millis(50),
            },
            queue_bound: self.queue_bound,
        })
    }
}

fn resilience_strategy() -> impl Strategy<Value = RandomResilience> {
    // Raw integer draws folded into the option/off cases: deadline 0-3 →
    // no deadline, breaker 0-1 → breakers off, bound 0 → unbounded.
    (0u64..60, 1u32..4, 0u32..2, 0u32..20, 0u32..24).prop_map(
        |(deadline_raw, max_attempts, jitter, breaker_raw, bound_raw)| RandomResilience {
            deadline_ms: (deadline_raw >= 4).then_some(deadline_raw),
            max_attempts,
            jitter: jitter == 1,
            breaker_threshold: if breaker_raw < 2 { 0 } else { breaker_raw },
            queue_bound: (bound_raw >= 1).then_some(bound_raw),
        },
    )
}

/// Everything we compare between the forked and the uninterrupted run.
fn observe(sim: &Simulation) -> (usize, (u64, u64), Vec<(u64, u64)>) {
    (
        sim.pending_events(),
        sim.rng_fingerprint(),
        sim.metrics()
            .request_log()
            .iter()
            .map(|r| (r.submitted_at.as_micros(), r.completed_at.as_micros()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `checkpoint` at T1, fork, run both to T2: the fork and the original
    /// must stay in lockstep on metrics, event counts and RNG positions.
    #[test]
    fn fork_matches_uninterrupted_run(
        app in app_strategy(),
        mix in mix_strategy(),
        seed in any::<u64>(),
        t1_s in 1u64..8,
    ) {
        let Some(topo) = build(&app) else { return Ok(()); };
        let mut sim = Simulation::new(topo.clone(), SimConfig::default().seed(seed));
        populate(&mut sim, &topo, &mix, seed, 0.0);

        let t1 = SimTime::from_secs(t1_s);
        let t2 = t1 + SimDuration::from_secs(10);
        sim.run_until(t1);
        let snapshot = sim.checkpoint().expect("test agents support snapshotting");
        let mut fork = Simulation::from_snapshot(&snapshot);

        // The snapshot froze the exact live state.
        prop_assert_eq!(fork.now(), sim.now());
        prop_assert_eq!(fork.pending_events(), sim.pending_events());
        prop_assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
        prop_assert_eq!(fork.metrics(), sim.metrics());

        // ...and both continuations stay in lockstep.
        sim.run_until(t2);
        fork.run_until(t2);
        prop_assert_eq!(observe(&fork), observe(&sim));
        prop_assert_eq!(fork.metrics(), sim.metrics());
    }

    /// Agent-internal sample stores survive the fork: a `FixedRate`
    /// source's recorded latencies — held in a copy-on-write `SegSamples`
    /// with sealed segments shared between fork and original — are
    /// logically identical at the checkpoint, stay isolated while only one
    /// side runs on, and re-converge bit-for-bit when both reach the same
    /// simulated time.
    #[test]
    fn fork_preserves_agent_sample_state(seed in any::<u64>(), t1_s in 2u64..5) {
        let mut b = TopologyBuilder::new();
        let svc = b.add_service(ServiceSpec::new("api").threads(32).cores(2).demand_cv(0.2));
        b.add_request_type("r", vec![(svc, SimDuration::from_millis(2))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default().seed(seed));
        // 1 ms interval: enough completions by t1 to seal at least one
        // 1024-sample segment, so the shared-spine path is exercised.
        let id = sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(1),
            100_000,
        )));

        let t1 = SimTime::from_secs(t1_s);
        let t2 = t1 + SimDuration::from_secs(3);
        sim.run_until(t1);
        let snapshot = sim.checkpoint().expect("FixedRate supports snapshotting");
        let mut fork = Simulation::from_snapshot(&snapshot);

        let stats = |s: &Simulation| {
            let lat = s
                .agent_as::<FixedRate>(id)
                .expect("agent survives the fork")
                .latencies_ms();
            (lat.len(), lat.mean().to_bits(), lat.max().to_bits())
        };
        let at_t1 = stats(&sim);
        prop_assert!(at_t1.0 > 1024, "want a sealed segment, got {} samples", at_t1.0);
        prop_assert_eq!(stats(&fork), at_t1);
        let p99 = |s: &mut Simulation| {
            s.agent_as_mut::<FixedRate>(id)
                .expect("agent survives the fork")
                .latencies_ms_mut()
                .percentile(0.99)
                .to_bits()
        };
        prop_assert_eq!(p99(&mut fork), p99(&mut sim));

        // Running only the original leaves the fork's store untouched.
        sim.run_until(t2);
        prop_assert_eq!(stats(&fork), at_t1);
        prop_assert!(stats(&sim).0 > at_t1.0, "original kept recording");

        // Catching the fork up re-converges every statistic bit-for-bit.
        fork.run_until(t2);
        prop_assert_eq!(stats(&fork), stats(&sim));
        prop_assert_eq!(p99(&mut fork), p99(&mut sim));
    }

    /// Resilience state is part of the snapshot: with random deadlines,
    /// retries, breakers and queue bounds active, the checkpoint can land
    /// with pending deadline timers, open breakers and retry backoffs in
    /// flight — and the fork must still stay in lockstep with the
    /// uninterrupted original, down to the off-wheel deadline FIFOs and the
    /// `"kernel/retry"` stream position.
    #[test]
    fn resilient_fork_matches_uninterrupted_run(
        app in app_strategy(),
        mix in mix_strategy(),
        res in resilience_strategy(),
        seed in any::<u64>(),
        t1_s in 1u64..6,
    ) {
        let Some(topo) = build(&app) else { return Ok(()); };
        let mut sim = Simulation::new(
            topo.clone(),
            SimConfig::default().seed(seed).resilience(res.config()),
        );
        populate(&mut sim, &topo, &mix, seed, 0.4);

        let t1 = SimTime::from_secs(t1_s);
        let t2 = t1 + SimDuration::from_secs(8);
        sim.run_until(t1);
        let snapshot = sim.checkpoint().expect("test agents support snapshotting");
        let mut fork = Simulation::from_snapshot(&snapshot);

        prop_assert_eq!(fork.now(), sim.now());
        prop_assert_eq!(fork.pending_events(), sim.pending_events());
        prop_assert_eq!(fork.pending_deadlines(), sim.pending_deadlines());
        prop_assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
        prop_assert_eq!(fork.metrics(), sim.metrics());

        sim.run_until(t2);
        fork.run_until(t2);
        prop_assert_eq!(observe(&fork), observe(&sim));
        prop_assert_eq!(fork.pending_deadlines(), sim.pending_deadlines());
        prop_assert_eq!(fork.metrics(), sim.metrics());
    }

    /// The snapshot is immutable: running one fork does not disturb a
    /// sibling forked from the same snapshot later.
    #[test]
    fn sibling_forks_are_independent(
        app in app_strategy(),
        mix in mix_strategy(),
        seed in any::<u64>(),
    ) {
        let Some(topo) = build(&app) else { return Ok(()); };
        let mut sim = Simulation::new(topo.clone(), SimConfig::default().seed(seed));
        populate(&mut sim, &topo, &mix, seed, 0.0);
        sim.run_until(SimTime::from_secs(3));
        let snapshot = sim.checkpoint().expect("test agents support snapshotting");
        drop(sim);

        let t2 = SimTime::from_secs(9);
        let mut first = Simulation::from_snapshot(&snapshot);
        first.run_until(t2);
        let mut second = Simulation::from_snapshot(&snapshot);
        second.run_until(t2);
        prop_assert_eq!(observe(&first), observe(&second));
        prop_assert_eq!(first.metrics(), second.metrics());
    }
}

/// A deliberately saturated cell where the random strategies only
/// *sometimes* land: at the checkpoint there are provably live deadline
/// timers (the long-deadline request type), already-tripped breakers, shed
/// and timed-out attempts and platform retries in flight. All of that
/// state must fork bit-identically and both continuations must stay in
/// lockstep.
#[test]
fn saturated_resilient_checkpoint_forks_bit_identically() {
    let mut b = TopologyBuilder::new();
    let hot = b.add_service(ServiceSpec::new("hot").threads(4).cores(1).demand_cv(0.1));
    let calm = b.add_service(ServiceSpec::new("calm").threads(8).cores(2).demand_cv(0.1));
    b.add_request_type("burst", vec![(hot, SimDuration::from_millis(5))]);
    b.add_request_type("slow", vec![(calm, SimDuration::from_millis(2))]);
    // Default policy: tight 15 ms deadline (the 4-deep wait queue alone is
    // worth ~40 ms), 3 attempts with jittered backoff, a hair-trigger
    // breaker, 4-entry queue bound. The "slow" type overrides with a 500 ms
    // deadline that never expires on the uncontended service — its entries
    // sit in their deadline class for 500 ms, so the checkpoint at 600 ms
    // is guaranteed to hold pending timers.
    let resilience = ResilienceConfig::uniform(ResiliencePolicy {
        deadline: Some(SimDuration::from_millis(15)),
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(10),
            jitter: 0.5,
        },
        breaker: BreakerPolicy {
            failure_threshold: 3,
            probe_interval: SimDuration::from_millis(50),
        },
        queue_bound: Some(4),
    })
    .set_type(
        1,
        ResiliencePolicy {
            deadline: Some(SimDuration::from_millis(500)),
            ..ResiliencePolicy::disabled()
        },
    );
    let mut sim = Simulation::new(
        b.build(),
        SimConfig::default().seed(0xBADD).resilience(resilience),
    );
    // 1000 req/s against 200 req/s of service: permanent overload.
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        SimDuration::from_millis(1),
        2_000,
    )));
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(1),
        SimDuration::from_millis(20),
        100,
    )));
    sim.run_until(SimTime::from_millis(600));

    let counters = *sim.metrics().resilience();
    assert!(counters.timed_out > 0, "saturation must expire deadlines");
    assert!(counters.shed > 0, "saturation must shed at the queue bound");
    assert!(
        counters.retries > 0,
        "failed attempts must schedule retries"
    );
    assert!(
        counters.breaker_opens > 0,
        "consecutive failures must trip the breaker"
    );
    assert!(
        sim.pending_deadlines() > 0,
        "the long-deadline class must hold pending timers at the checkpoint"
    );

    let snapshot = sim.checkpoint().expect("FixedRate supports snapshotting");
    let mut fork = Simulation::from_snapshot(&snapshot);
    assert_eq!(fork.now(), sim.now());
    assert_eq!(fork.pending_events(), sim.pending_events());
    assert_eq!(fork.pending_deadlines(), sim.pending_deadlines());
    assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
    assert_eq!(fork.metrics(), sim.metrics());

    let t2 = SimTime::from_millis(1_500);
    sim.run_until(t2);
    fork.run_until(t2);
    assert_eq!(observe(&fork), observe(&sim));
    assert_eq!(fork.pending_deadlines(), sim.pending_deadlines());
    assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
    assert_eq!(fork.metrics(), sim.metrics());
}

/// A checkpoint at an idle `run_until` horizon with work pending *behind*
/// the calendar cursor. Peeking for the next event — the 1.1 s metrics
/// sample, several level-0 blocks away — cascades the calendar cursor past
/// the 1.01 s horizon; agents then started at the horizon schedule wakes
/// and deliveries between the horizon and that cursor, some at identical
/// instants. A fork taken right there must replay exactly like a cold run
/// of the same program, and so must the original.
#[test]
fn fork_at_horizon_with_behind_cursor_pushes_matches_cold_run() {
    let horizon = SimTime::from_micros(1_010_000);
    let t2 = SimTime::from_secs(2);
    let run_to_horizon = || {
        let mut b = TopologyBuilder::new();
        let api = b.add_service(ServiceSpec::new("api").threads(4).cores(1).demand_cv(0.2));
        let db = b.add_service(ServiceSpec::new("db").threads(8).cores(2).demand_cv(0.2));
        b.add_request_type(
            "read",
            vec![
                (api, SimDuration::from_micros(400)),
                (db, SimDuration::from_micros(700)),
            ],
        );
        b.add_request_type("ping", vec![(api, SimDuration::from_micros(150))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default().seed(0x0C0D));
        sim.run_until(horizon);
        // Two sources on the same schedule: their wakes and deliveries
        // collide, so same-instant FIFO order behind the cursor matters.
        for (rt, interval_us) in [(0, 300), (0, 300), (1, 1_100), (1, 20_000)] {
            sim.add_agent(Box::new(FixedRate::new(
                RequestTypeId::new(rt),
                SimDuration::from_micros(interval_us),
                400,
            )));
        }
        sim.run_until(horizon);
        sim
    };

    let mut cold = run_to_horizon();
    cold.run_until(t2);

    let mut sim = run_to_horizon();
    let pending = sim.pending_events();
    assert!(
        pending > 4,
        "deliveries and wakes must be pending, got {pending}"
    );
    let snapshot = sim.checkpoint().expect("FixedRate supports snapshotting");
    let mut fork = Simulation::from_snapshot(&snapshot);
    assert_eq!(fork.pending_events(), pending);
    fork.run_until(t2);
    sim.run_until(t2);

    assert!(cold.metrics().request_log().iter().count() > 1_000);
    assert_eq!(observe(&fork), observe(&cold));
    assert_eq!(fork.metrics(), cold.metrics());
    assert_eq!(observe(&sim), observe(&cold));
    assert_eq!(sim.metrics(), cold.metrics());
}
