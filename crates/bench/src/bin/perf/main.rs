//! The CRAC benchmark.  See `README.md` beside this file for the metric
//! tables, the workloads and how to read a trace.
//!
//! ```text
//! perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat-check]
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a process of
//! its own.  Each run prints a table to standard error and ends with one
//! JSON line on standard output: the end-to-end metrics, or with `--trace`
//! the per-layer metrics.

mod clock;
mod host;
mod inputs;
mod probes;
mod report;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;

use clock::now_ns;
use report::{fold, summarize, RunResult, Samples, END_TO_END, PER_LAYER};
use trace::Recorder;
use workloads::{Cx, WORKLOADS};

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 25;
/// Default length of the measured loop; `BENCHMARK.json` records the same.
const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy)]
struct Options {
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Set-up, the measured loop, and in a traced run the probes.
fn measure(name: &str, opts: Options, cx: &mut Cx<'_>) -> sut::Res<()> {
    // Set-up, several times over: launch, fill memory from the seed.
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = now_ns();
        workload = Some(workloads::setup(name, cx).map_err(|e| format!("set-up: {e}"))?);
        cx.e2e.add("setup_s", (now_ns() - t) as f64 / 1e9);
    }
    let Some(mut workload) = workload else {
        return Ok(());
    };

    // A traced run records every other iteration, so the recorder's
    // overhead is the difference between neighbouring iterations and not
    // between two stretches of the disk's time.
    let budget_ns = opts.seconds * 1_000_000_000;
    let start = now_ns();
    let mut ckpt_ms: [Vec<f64>; 2] = Default::default();
    let mut iterations = 0;
    while now_ns() - start < budget_ns || iterations < 1 + usize::from(opts.trace) {
        let traced = opts.trace && iterations % 2 == 1;
        cx.rec.set_on(traced);
        let seen = cx.e2e.get("ckpt_ms").len();
        // Peak memory is taken per iteration and reported as the median,
        // which a one-off allocator spike cannot move.
        host::reset_peak_rss();
        workload.iterate(cx)?;
        cx.e2e.add("peak_rss_mb", host::peak_rss_mb());
        ckpt_ms[usize::from(traced)].extend_from_slice(&cx.e2e.get("ckpt_ms")[seen..]);
        iterations += 1;
    }
    cx.rec.set_on(opts.trace);
    workload.finish(cx)?;
    if opts.trace {
        let [untraced, traced] = ckpt_ms.map(|v| median(&v));
        cx.layers
            .add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        probes::run(cx, workload.as_mut())?;
    }
    Ok(())
}

/// Runs one workload once.
fn run_workload(name: &'static str, opts: Options) -> RunResult {
    let mut result = RunResult {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    let fail = |e: String| format!("{name} (seed {}): {e}", opts.seed);

    let dirs = match host::RunDir::create(name) {
        Ok(dirs) => dirs,
        Err(e) => {
            let failure = fail(format!("scratch directory: {e}"));
            eprintln!("FAILED: {failure}");
            result.failures.push(failure);
            return result;
        }
    };
    let rec = Recorder::default();
    let mut cx = Cx {
        rec: &rec,
        dirs: &dirs,
        gen: inputs::Gen::new(opts.seed),
        e2e: Samples::default(),
        layers: Samples::default(),
        attempted: 0,
    };
    if let Err(e) = measure(name, opts, &mut cx) {
        result.failures.push(fail(e));
    }
    result.attempted = cx.attempted;

    let fs = host::fs_type(dirs.root());
    eprintln!(
        "\n== {name}: seed {}, {} s{}, {} cores, stores on {fs} ({}) ==",
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        dirs.root().display(),
    );
    for metric in END_TO_END {
        if let Some(s) = summarize(cx.e2e.get(metric.name)) {
            eprintln!(
                "{:<44} {:>14.4} {:<6} p{:<4} {:>12.4}  n={}",
                metric.name, s.median, metric.unit, s.tail_percentile, s.tail, s.count
            );
        }
    }

    if opts.trace {
        let path = host::out_dir().join(format!("trace-{name}.json"));
        let meta = [
            ("workload", name.to_string()),
            ("seed", opts.seed.to_string()),
            ("fs", fs),
        ];
        match rec.write_json(&path, &meta) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => result
                .failures
                .push(fail(format!("writing the trace: {e}"))),
        }
        eprintln!(
            "{:<44} {:>14} {:>8}",
            "span (self time)", "median ms", "count"
        );
        for (span, own) in rec.self_times() {
            let own: Vec<f64> = own.into_iter().map(clock::ms).collect();
            eprintln!("{:<44} {:>14.4} {:>8}", span, median(&own), own.len());
        }
        // The table leaves out what this workload took no sample of; the
        // result line has to carry every per-layer metric and says 0.
        for metric in PER_LAYER {
            let value = fold(cx.layers.get(metric.name), metric.fold);
            if let Some(value) = value {
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                eprintln!(
                    "{:<44} {:>14.4} {:<6} ({better} is better)",
                    metric.name, value, metric.unit
                );
            }
            result
                .metrics
                .push((metric.name, metric.unit, value.unwrap_or(0.0)));
        }
    } else {
        for metric in END_TO_END {
            let value = median(cx.e2e.get(metric.name));
            result.metrics.push((metric.name, metric.unit, value));
        }
    }
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    result
}

/// Runs one workload in a process of its own and returns its result line.
/// Peak memory is a process's: run one after another in this process, a
/// workload would be charged the heap its predecessors freed.
fn run_in_child(name: &str, opts: Options) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if out.status.success() && line.contains("\"correct\":true") {
        Ok(line.to_string())
    } else {
        Err(format!("{name} failed: {line}"))
    }
}

/// The value of `metric` in a result line this program printed.
fn value_in(line: &str, metric: &str) -> Option<f64> {
    let (_, rest) = line.split_once(&format!("\"{metric}\":{{\"value\":"))?;
    rest[..rest.find(',')?].parse().ok()
}

/// Runs of each workload in each of the two sets of `--repeat-check`.
const RUNS_PER_SET: usize = 3;

/// Two full sets with the same seed, their runs interleaved: per metric
/// and workload the median of each set's runs and the gap between the
/// two, as a share of the smaller, against the metric's bound.
fn repeat_check(names: &[&'static str], opts: Options) -> bool {
    let mut ok = true;
    // lines[set][workload]: the result lines of that set's runs.
    let mut lines = [vec![Vec::new(); names.len()], vec![Vec::new(); names.len()]];
    for _ in 0..RUNS_PER_SET {
        for set in &mut lines {
            for (name, runs) in names.iter().zip(set.iter_mut()) {
                match run_in_child(name, opts) {
                    Ok(line) => runs.push(line),
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let [first, second] = &lines;
    for (name, (first, second)) in names.iter().zip(first.iter().zip(second)) {
        for metric in END_TO_END {
            let of = |runs: &[String]| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|line| value_in(line, metric.name))
                    .collect();
                median(&values)
            };
            let (a, b) = (of(first), of(second));
            // Both sets ran the same code, so a gap either way is noise.
            let gap = (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE);
            let miss = gap > metric.bound;
            ok &= !miss;
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{}",
                name,
                metric.name,
                a,
                b,
                100.0 * gap,
                100.0 * metric.bound,
                if miss { "  MISS" } else { "" }
            );
        }
    }
    ok
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perf: {problem}");
    eprintln!(
        "usage: perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat-check]"
    );
    eprintln!(
        "workloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut only = None;
    let mut check = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut number = || args.next().and_then(|v| v.parse::<u64>().ok());
        match arg.as_str() {
            "--workload" => match args.next() {
                Some(w) => only = Some(w),
                None => return usage("--workload needs a name"),
            },
            "--seed" => match number() {
                Some(n) => opts.seed = n,
                None => return usage("--seed needs a whole number"),
            },
            "--seconds" => match number() {
                Some(n) => opts.seconds = n,
                None => return usage("--seconds needs a whole number"),
            },
            "--trace" => {
                opts.trace = args.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--repeat-check" => check = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| only.as_deref().is_none_or(|w| w == *name))
        .collect();
    if names.is_empty() {
        return usage("no such workload");
    }

    let mut ok = true;
    if check {
        ok = repeat_check(&names, opts);
    } else if let [name] = names[..] {
        let result = run_workload(name, opts);
        ok = result.failures.is_empty();
        println!("{}", result.json_line());
    } else {
        for name in names {
            match run_in_child(name, opts) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
