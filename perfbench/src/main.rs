//! End-to-end and per-layer benchmark of the simulator's lab cells.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-expected
//! ```
//!
//! One run first runs a serial rep (one sweep worker): the reference rows
//! and counts, and the point where `peak_rss_mb` is read. It then repeats
//! two-worker reps for `--seconds`, checking every cell of every rep, and
//! repeats the workload's set-up a few times after each rep (`setup_s` is
//! the median trial). Times are CPU time, so a rep preempted by another
//! process on the host costs no more than one that ran alone, and a fixed
//! piece of work timed before every rep scales them to the reference
//! host's speed (see `calib.rs`).
//! With `--trace 0` the timed reps are untraced and the last stdout line
//! carries the end-to-end metrics. With `--trace 1` untraced and traced
//! reps alternate, the span file is written, and the last line carries the
//! per-layer metrics. Every metric is also printed by name with its unit,
//! after a provenance line. See README.md in this directory.

mod calib;
mod expected;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use expected::Reference;
use trace::{Ledger, Span, Tracer, NO_CELL};
use workloads::{Counts, Ctx, RepOut, Workload};

/// Set-up trials after each timed rep: at least this many, and for at
/// least this share of the rep's wall time. A trial takes 0.3–3 ms.
const SETUP_MIN_TRIALS: usize = 10;
const SETUP_SHARE: f64 = 0.02;

/// Where the full result and the span file are written.
const OUT_DIR: &str = ".bench_build/perfbench";

/// Sweep workers of the timed reps.
const JOBS: usize = 2;

/// Timed reps per run, at least; more run while the next one is expected
/// to end within `--seconds`.
const MIN_REPS: usize = 3;

/// Per-layer metrics: name and unit, in output order.
const PER_LAYER: [(&str, &str); 43] = [
    ("apps.build_s", "s"),
    ("microsim.new_s", "s"),
    ("workload.build_s", "s"),
    ("microsim.drop_s", "s"),
    ("kernel.warm_s", "s"),
    ("kernel.warm_requests", "count"),
    ("kernel.warm_ns_per_req", "ns"),
    ("kernel.pending_events", "count"),
    ("grunt.profile_s", "s"),
    ("grunt.profile_requests", "count"),
    ("grunt.profile_sim_s", "sim_s"),
    ("grunt.profile_ns_per_req", "ns"),
    ("grunt.probe_requests", "count"),
    ("grunt.attack_s", "s"),
    ("grunt.attack_requests", "count"),
    ("grunt.attack_ns_per_req", "ns"),
    ("grunt.bots", "count"),
    ("snapshot.checkpoint_us", "us"),
    ("snapshot.fork_us", "us"),
    ("snapshot.forks", "count"),
    ("telemetry.latency_us", "us"),
    ("telemetry.score_us", "us"),
    ("defense.ids_us", "us"),
    ("defense.shield_us", "us"),
    ("metrics.query_us", "us"),
    ("metrics.request_records", "count"),
    ("metrics.access_records", "count"),
    ("metrics.bytes_per_record", "B"),
    ("resilience.retries", "count"),
    ("resilience.timed_out", "count"),
    ("resilience.shed", "count"),
    ("resilience.ok_ratio", "ratio"),
    ("resilience.ns_per_attempt", "ns"),
    ("resilience.overhead", "ratio"),
    ("sweep.busy_s", "s"),
    ("sweep.cell_max_s", "s"),
    ("sweep.efficiency", "ratio"),
    ("rep.cpu_s", "s"),
    ("rep.wall_s", "s"),
    ("rep.sim_req_per_s", "1/s"),
    ("host.slowdown", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.accounted", "ratio"),
];

/// End-to-end metrics: name and unit, in output order.
const END_TO_END: [(&str, &str); 4] = [
    ("ref_cpu_s", "s"),
    ("sim_req_per_ref_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <profile_sweep|attack_fork|population_100k|\
resilience_storm> --seed <n> --seconds <s> --trace <0|1>\n       \
perfbench --write-expected";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-expected"] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        if let Err(e) = expected::write_all(&dir) {
            eprintln!("perfbench: writing {}: {e}", dir.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", dir.display());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    if let Err(e) = result.write_files(&args) {
        eprintln!("perfbench: writing results under {}: {e}", OUT_DIR);
        std::process::exit(1);
    }
    println!("provenance {}", result.provenance);
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        println!("metric {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "setup trials {}, calibration {:?}",
        result.setup.len(),
        result.cal
    );
    println!(
        "reps untraced wall {:?} cpu {:?} traced wall {:?}",
        result.walls, result.cpus, result.traced_walls
    );
    println!(
        "cells attempted {} failed {} (cell_fail_ratio {})",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    let shown = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    println!("{}", result.json_line(shown));
}

/// One named measurement.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
struct RunResult {
    provenance: String,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Seconds of each set-up trial.
    setup: Vec<f64>,
    /// Wall seconds of each untraced and each traced timed rep.
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Process CPU seconds of each untraced timed rep.
    cpus: Vec<f64>,
    /// CPU seconds of each calibration: one before each timed rep and one
    /// after the last.
    cal: Vec<f64>,
    /// Spans of each traced rep.
    traces: Vec<Vec<Span>>,
}

/// Checks every cell of every rep against the reference: the committed
/// expected rows and counts at seed 0, the first rep's otherwise.
#[derive(Debug)]
struct Gate {
    workload: Workload,
    reference: Option<Reference>,
    attempted: usize,
    failed: usize,
}

impl Gate {
    fn new(workload: Workload, reference: Option<Reference>) -> Self {
        Gate {
            workload,
            reference,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, rep: &RepOut) {
        let w = self.workload;
        let reference = self.reference.get_or_insert_with(|| Reference::of(w, rep));
        let counts = rep.count_rows(w);
        for (i, ok) in reference.passed(w, rep).into_iter().enumerate() {
            self.attempted += 1;
            if !ok {
                self.failed += 1;
                eprintln!(
                    "perfbench: cell {i} failed: got {:?} {:?} (prefix {:?}), want {:?} {:?} \
                     (prefix {:?})",
                    rep.cells.get(i).map(|c| &c.rows),
                    counts.get(i),
                    counts.last(),
                    reference.rows.get(i),
                    reference.counts.get(i),
                    reference.counts.last(),
                );
            }
        }
    }
}

fn run(args: &Args) -> RunResult {
    let w = args.workload;
    let start_rss = status_kb("VmRSS:");
    let provenance = provenance(args);

    let mut gate = Gate::new(w, (args.seed == 0).then(|| Reference::committed(w)));
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let ctx = |tracer, jobs| Ctx {
        tracer,
        seed: args.seed,
        jobs,
    };
    // A serial rep first: its rows and counts are the reference every
    // parallel rep must reproduce (the sweep's worker count must change
    // nothing), it warms caches and the allocator for the timed reps, and
    // the memory high-water mark is read right after it, before parallel
    // cells can interleave their allocations.
    let (serial, serial_wall) = timed(|| w.run(ctx(&off, 1)));
    gate.check(&serial);
    let peak_kb = status_kb("VmHWM:");
    let counts = serial.counts();
    let requests = counts.request_records as f64;

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traces = Vec::new();
    let mut setup = Vec::new();
    let mut cal = Vec::new();
    let units = calib::units(serial_wall);
    for i in 0.. {
        let traced = args.trace && i % 2 == 1;
        let tracer = if traced { &on } else { &off };
        // How fast the host runs now, with no other thread of ours running.
        cal.push(thread_cpu(|| calib::run(units)));
        let cpu = cpu_secs(Clock::Process);
        let (rep, wall) = timed(|| tracer.span("rep", || w.run(ctx(tracer, JOBS))));
        let cpu = cpu_secs(Clock::Process) - cpu;
        gate.check(&rep);
        if traced {
            traced_walls.push(wall);
            traces.push(on.take());
        } else {
            walls.push(wall);
            cpus.push(cpu);
        }
        // Set-up trials between reps, so `setup_s` samples the host over
        // the whole run with no other thread of the benchmark running. The
        // first trial after a rep runs on cold caches and is not kept.
        w.setup(args.seed);
        let trials = Instant::now();
        let mut n = 0;
        while n < SETUP_MIN_TRIALS || trials.elapsed().as_secs_f64() < SETUP_SHARE * wall {
            setup.push(thread_cpu(|| w.setup(args.seed)));
            n += 1;
        }
        let enough =
            walls.len() + traced_walls.len() >= MIN_REPS && (!args.trace || !traces.is_empty());
        if enough && started.elapsed() + Duration::from_secs_f64(wall) > budget {
            break;
        }
    }

    cal.push(thread_cpu(|| calib::run(units)));
    let per_request = |secs: &[f64]| median(&secs.iter().map(|s| requests / s).collect::<Vec<_>>());
    // CPU seconds on the reference host. Rep and calibration times are
    // both averaged over the run: the ratio of their totals is how many
    // calibrations' worth of CPU a rep takes, measured over the same
    // stretch of the host's speed.
    let calls = units * cal.len() as u32;
    let slowdown = calib::slowdown(cal.iter().sum(), calls);
    let ref_cpu = mean(&cpus) / slowdown;
    let e2e = [
        ref_cpu,
        requests / ref_cpu,
        median(&setup) / slowdown,
        peak_kb / 1024.0,
    ];
    let end_to_end = metrics(&END_TO_END, &e2e);

    let per_layer = if args.trace {
        let records = (counts.request_records + counts.access_records).max(1) as f64;
        let whole_run = WholeRun {
            bytes_per_record: (peak_kb - start_rss).max(0.0) * 1024.0 / records,
            trace_overhead: median(&traced_walls) / median(&walls) - 1.0,
            cpu_s: mean(&cpus),
            wall_s: median(&walls),
            sim_req_per_s: per_request(&walls),
            slowdown,
        };
        let per_rep: Vec<Vec<f64>> = traces
            .iter()
            .map(|spans| layer_values(&Ledger::of(spans), &serial, &whole_run))
            .collect();
        let values: Vec<f64> = (0..PER_LAYER.len())
            .map(|k| median(&per_rep.iter().map(|v| v[k]).collect::<Vec<_>>()))
            .collect();
        metrics(&PER_LAYER, &values)
    } else {
        Vec::new()
    };

    RunResult {
        provenance,
        attempted: gate.attempted,
        failed: gate.failed,
        end_to_end,
        per_layer,
        setup,
        walls,
        traced_walls,
        cpus,
        cal,
        traces,
    }
}

fn metrics(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| {
            assert!(valid_name(name), "invalid metric name {name:?}");
            Metric { name, value, unit }
        })
        .collect()
}

/// Per-layer inputs measured over a whole run rather than one rep.
#[derive(Debug)]
struct WholeRun {
    bytes_per_record: f64,
    trace_overhead: f64,
    cpu_s: f64,
    wall_s: f64,
    sim_req_per_s: f64,
    slowdown: f64,
}

/// Per-layer values of one traced rep, in [`PER_LAYER`] order.
fn layer_values(l: &Ledger, rep: &RepOut, run: &WholeRun) -> Vec<f64> {
    let c: Counts = rep.counts();
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let us = |name: &str| l.secs(name) * 1e6;
    let cell_ns = |i: usize| l.sweep_cells_ns.get(&(i as u32)).copied().unwrap_or(0);
    // Host nanoseconds and records of the sweep cells with and without a
    // resilience policy.
    let mut policy = [(0u64, 0u64); 2];
    for (i, cell) in rep.cells.iter().enumerate() {
        let slot = &mut policy[usize::from(cell.policy)];
        slot.0 += cell_ns(i);
        slot.1 += cell.counts.request_records;
    }
    let ns_per = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let overhead = if policy[0].1 > 0 && policy[1].1 > 0 {
        ns_per(policy[1]) / ns_per(policy[0])
    } else {
        0.0
    };
    let busy_ns: u64 = l.sweep_cells_ns.values().sum();
    let workers = JOBS.min(rep.cells.len()).max(1) as f64;
    let efficiency = if l.sweep_wall_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / (workers * l.sweep_wall_ns as f64)
    };
    let thread = l.thread_secs();
    vec![
        l.secs("apps.build"),
        l.secs("microsim.new"),
        l.secs("workload.build"),
        l.secs("microsim.drop"),
        l.secs("kernel.warm"),
        c.warm_requests as f64,
        per(l.secs("kernel.warm"), c.warm_requests),
        c.pending_events as f64,
        l.secs("grunt.profile"),
        c.profile_requests as f64,
        c.profile_sim_us as f64 / 1e6,
        per(l.secs("grunt.profile"), c.profile_requests),
        c.probe_requests as f64,
        l.secs("grunt.attack"),
        c.attack_requests as f64,
        per(l.secs("grunt.attack"), c.attack_requests),
        c.bots as f64,
        us("snapshot.checkpoint"),
        us("snapshot.fork"),
        c.forks as f64,
        us("telemetry.latency"),
        us("telemetry.score"),
        us("defense.ids"),
        us("defense.shield"),
        us("metrics.query"),
        c.request_records as f64,
        c.access_records as f64,
        run.bytes_per_record,
        c.retries as f64,
        c.timed_out as f64,
        c.shed as f64,
        c.ok_records as f64 / c.request_records.max(1) as f64,
        ns_per((policy[0].0 + policy[1].0, policy[0].1 + policy[1].1)),
        overhead,
        busy_ns as f64 / 1e9,
        l.sweep_cells_ns.values().max().copied().unwrap_or(0) as f64 / 1e9,
        efficiency,
        run.cpu_s,
        run.wall_s,
        run.sim_req_per_s,
        run.slowdown,
        run.trace_overhead,
        if thread > 0.0 {
            l.layer_secs() / thread
        } else {
            0.0
        },
    ]
}

/// A CPU-time clock of `clock_gettime`.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Every thread of the process, exited ones included.
    Process = 2,
    /// The calling thread.
    Thread = 3,
}

/// CPU seconds `clock` has counted. Time the thread spends runnable but
/// not running (preempted, or its vCPU stolen by the hypervisor) is not
/// counted.
fn cpu_secs(clock: Clock) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds the calling thread spends in `f`.
fn thread_cpu<T>(f: impl FnOnce() -> T) -> f64 {
    let start = cpu_secs(Clock::Thread);
    std::hint::black_box(f());
    cpu_secs(Clock::Thread) - start
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Arithmetic mean; 0 for no values.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the middle two for an even count); 0 for no values.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A `kB` field of `/proc/self/status` (0 where unavailable).
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Host, toolchain, revision and run settings, as a JSON object.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a checkout that is itself a git work tree has a revision; a
    // plain source tree must not pick up an enclosing repository's.
    let git = |args: &[&str]| {
        if !Path::new(".git").exists() {
            return None;
        }
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let rev = git(&["rev-parse", "HEAD"]).map(|s| s.trim().to_string());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"git_dirty\": {}, \"jobs\": {}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \
         \"trace\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        rev.as_deref().map_or("null".to_string(), json_str),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        JOBS,
        args.seed,
        json_str(args.workload.name()),
        args.seconds,
        args.trace,
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn json_line(&self, shown: &[Metric]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(shown)
        )
    }

    /// Writes the full result (provenance, every metric) and, for a traced
    /// run, the span file.
    fn write_files(&self, args: &Args) -> std::io::Result<()> {
        let out = Path::new(OUT_DIR);
        std::fs::create_dir_all(out)?;
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        let result = format!(
            "{{\"provenance\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}\n",
            self.provenance,
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer)
        );
        let trace_flag = u8::from(args.trace);
        std::fs::write(out.join(format!("{stem}-trace{trace_flag}.json")), result)?;
        if !args.trace {
            return Ok(());
        }
        let mut spans = format!("{{\"provenance\": {}, \"spans\": [\n", self.provenance);
        let mut first = true;
        for (rep, trace) in self.traces.iter().enumerate() {
            for s in trace {
                if !first {
                    spans.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    spans,
                    "{{\"rep\": {rep}, \"id\": {}, \"parent\": {}, \"name\": {}, \"cell\": {}, \
                     \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(s.name),
                    if s.cell == NO_CELL {
                        "null".to_string()
                    } else {
                        s.cell.to_string()
                    },
                    s.thread,
                    s.start_ns,
                    s.end_ns
                );
            }
        }
        spans.push_str("\n]}\n");
        std::fs::write(out.join(format!("spans-{stem}.json")), spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::CellOut;

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("grunt.profile_ns_per_req"));
        assert!(valid_name("peak_rss_mb"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("wall s"));
        assert!(!valid_name("req/s"));
        assert!(!valid_name("µs"));
        for (name, _) in PER_LAYER.iter().chain(&END_TO_END) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER.iter().chain(&END_TO_END) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, PER_LAYER.len() + END_TO_END.len());
    }

    fn rep(rows: &[&[&str]]) -> RepOut {
        RepOut {
            cells: rows
                .iter()
                .map(|r| CellOut {
                    rows: Ok(r.iter().map(|s| (*s).to_string()).collect()),
                    counts: Counts::default(),
                    policy: false,
                })
                .collect(),
            prefix: Counts::default(),
        }
    }

    #[test]
    fn gate_reports_a_mutated_expected_row_as_a_failed_cell() {
        let w = Workload::ProfileSweep;
        let good = rep(&[&["| 1 |"], &["| 2 |"], &["| 3 |"]]);
        let mut reference = Reference::of(w, &good);
        reference.rows[1][0] = "| 2 (mutated) |".to_string();
        let mut gate = Gate::new(w, Some(reference));
        gate.check(&good);
        assert_eq!((gate.attempted, gate.failed), (3, 1));
    }

    #[test]
    fn gate_without_expected_rows_checks_reps_against_the_first() {
        let mut gate = Gate::new(Workload::ProfileSweep, None);
        gate.check(&rep(&[&["| 1 |"], &["| 2 |"]]));
        gate.check(&rep(&[&["| 1 |"], &["| 2 |"]]));
        assert_eq!((gate.attempted, gate.failed), (4, 0));
        gate.check(&rep(&[&["| 1 |"], &["| 7 |"]]));
        let mut drifted = rep(&[&["| 1 |"], &["| 2 |"]]);
        drifted.cells[0].counts.request_records = 1;
        gate.check(&drifted);
        assert_eq!((gate.attempted, gate.failed), (8, 2));
    }

    #[test]
    fn mean_of_values_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload attack_fork --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::AttackFork, 7, 10.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload attack_fork --trace 2",
            "--workload attack_fork --jobs 2",
            "--workload attack_fork --seconds -1",
            "--seed 3",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
