//! End-to-end and per-layer benchmark of the unified real-time runtime.
//!
//! ```text
//! e2ebench --workload <ctrl-loops|plant-pipeline|param-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones (set-up time, free-running throughput, paced cycle
//! time, peak memory); with `--trace 1` they are the per-layer figures of
//! a traced pass. The line before it carries host provenance, sample
//! counts and every check's outcome. See `README.md` next to this crate.

mod host;
mod phases;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use phases::{Check, Paced, Until, Windows};
use stats::quantile;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use urt_core::threading::ThreadPolicy;
use workloads::Workload;

const USAGE: &str = "usage: e2ebench --workload <ctrl-loops|plant-pipeline|param-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Windows in the traced pass: fixed, so its counts repeat exactly.
const TRACE_WINDOWS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds must be within 1..=600, got {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
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

/// A finite JSON number (non-finite values cannot be represented;
/// adding zero turns an empty float sum's `-0` into `0`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "0".to_owned()
    }
}

type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = host::provenance();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let Some(w) = Workload::generate(&args.workload, args.seed, nproc) else {
        eprintln!("e2ebench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(&w, &args) {
        Ok((metrics, checks, info, cycles)) => {
            let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
            let failed_cycles = if cycles.1 { 0 } else { cycles.0 };
            let attempted = cycles.0 + checks.len() as u64;
            let failed = failed_cycles + failed_checks;

            let mut line = format!(
                "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{",
                json_str(w.name()),
                args.seed,
                json_num(args.seconds),
                u8::from(args.trace)
            );
            let host: Vec<String> = provenance
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            line.push_str(&host.join(","));
            line.push_str("},\"samples\":{");
            let info: Vec<String> =
                info.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))).collect();
            line.push_str(&info.join(","));
            line.push_str("},\"checks\":[");
            let checks_json: Vec<String> = checks
                .iter()
                .map(|c| {
                    format!(
                        "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                        json_str(&c.name),
                        c.ok,
                        json_str(&c.detail)
                    )
                })
                .collect();
            line.push_str(&checks_json.join(","));
            line.push_str("]}");
            println!("{line}");
            for c in checks.iter().filter(|c| !c.ok) {
                eprintln!("e2ebench: check {} failed: {}", c.name, c.detail);
            }

            let body: Vec<String> = metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json_str(name),
                        json_num(*value),
                        json_str(unit)
                    )
                })
                .collect();
            println!(
                "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
                failed == 0,
                body.join(",")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Metrics, checks, sample counts, and `(paced cycles attempted, paced
/// run succeeded)`.
type RunOutput = (Vec<Metric>, Vec<Check>, Vec<(&'static str, f64)>, (u64, bool));

/// Seconds of one measurement round (see [`run`]).
const ROUND_SECONDS: f64 = 2.5;
/// Measured cycles of one paced segment: enough that ten steps lie beyond
/// the p99.
const SEGMENT_CYCLES: u64 = 1_000;

/// Runs the phases and checks of one run.
///
/// The host's speed drifts over seconds (other tenants share the
/// machine), so the untraced run does not measure its phases one after
/// another: it cycles through rounds of set-ups, free-running windows
/// and a paced segment, and every end-to-end figure pools its samples
/// from all rounds. Free-running throughput is total instance-steps over
/// total window time: the host alternates between speed modes for
/// seconds at a time, and a median over windows would jump between them
/// while this total moves with the share of time spent in each.
///
/// Every paced segment replays the same macro steps from time zero, so
/// each step is timed once per round. A step's compute time is the
/// interquartile mean of its repeats, and the cycle quantiles are taken
/// over these step times. Interference from other tenants hits a few
/// cycles at random and at a rate that drifts with the host's load;
/// pooled over all cycles, that rate set the p99. Taken per step, it is
/// filtered out, and what remains is the spread of the program's own
/// per-step work.
///
/// The untraced paced segments run on the calling thread for every
/// workload: on a shared virtual machine a dedicated-thread cycle's tail
/// is the latency of waking an idle virtual CPU, which measures the
/// host. The traced pass paces each workload under its own policy, so
/// `plant-pipeline`'s per-step release across threads is still
/// reported, per layer.
fn run(w: &Workload, args: &Args) -> Result<RunOutput, urt_core::CoreError> {
    let rounds = (args.seconds / ROUND_SECONDS).round().max(1.0);
    let share = |f: f64| Duration::from_secs_f64(args.seconds * f / rounds);
    let cycles_per_round = SEGMENT_CYCLES + phases::WARMUP_CYCLES as u64;
    let cycles = cycles_per_round * rounds as u64;
    let mut info: Vec<(&'static str, f64)> = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut checks = Vec::new();
    let mut paced = Paced::default();
    let mut paced_ok = Ok(());

    if args.trace {
        let setup = phases::setup_layers(w, share(0.1 * rounds))?;
        info.push(("setup_reps", setup.reps as f64));
        metrics.extend([
            ("model.build_ms", setup.build_ms, "ms"),
            ("analysis.analyze_ms", setup.analyze_ms, "ms"),
            ("analysis.diagnostics", setup.diagnostics as f64, "count"),
            ("elaborate.compile_ms", setup.compile_ms, "ms"),
            ("elaborate.instantiate_ms", setup.instantiate_ms, "ms"),
            ("engine.build_ms", setup.engine_ms, "ms"),
        ]);
        let layers = phases::traced_pass(w, TRACE_WINDOWS)?;
        info.push(("traced_windows", TRACE_WINDOWS as f64));
        checks.push(Check {
            name: "traced-recorder-samples".into(),
            ok: layers.samples.0 == layers.samples.1,
            detail: format!("{} recorded, {} expected", layers.samples.0, layers.samples.1),
        });
        checks.push(Check {
            name: "child-spans-within-parents".into(),
            ok: layers.overfull_parents == 0,
            detail: format!("{} overfull parent spans", layers.overfull_parents),
        });
        metrics.extend(layers.metrics);
        paced_ok = paced.run(w, w.policy(), cycles);
    } else {
        let mut setup = Vec::new();
        let mut free = Windows::default();
        let mut sim = phases::free_engine(w, None)?;
        for _ in 0..rounds as usize {
            phases::setup_seconds(w, share(0.1), 3, &mut setup)?;
            let until = Until::Deadline(Instant::now() + share(0.35));
            phases::windows(&mut sim, w, until, false, &mut free)?;
            if paced_ok.is_ok() {
                paced_ok = paced.run(w, ThreadPolicy::CurrentThread, cycles_per_round);
            }
        }
        drop(sim);
        info.push(("setup_reps", setup.len() as f64));
        info.push(("free_windows", free.rates.len() as f64));
        checks.push(Check {
            name: "recorder-samples".into(),
            ok: free.samples.0 == free.samples.1,
            detail: format!("{} recorded, {} expected", free.samples.0, free.samples.1),
        });
        metrics.push(("setup_s", stats::median(&setup), "s"));
        let steps_per_s = free.total.0 as f64 / (free.total.1 as f64 * 1e-9);
        metrics.push(("steps_per_s", steps_per_s, "instance-steps/s"));
    }

    if let Err(e) = &paced_ok {
        checks.push(Check { name: "paced-run".into(), ok: false, detail: format!("error: {e}") });
    }
    let pooled = paced.pooled();
    let step_us = paced.step_times_us();
    let p50 = quantile(&step_us, 0.5).unwrap_or(0.0);
    let p99 = quantile(&step_us, 0.99).unwrap_or(0.0);
    let n = step_us.len() as f64;
    info.push(("cycles", pooled.compute_ns.len() as f64));
    info.push(("paced_segments", paced.segments.len() as f64));
    info.push(("steps", n));
    info.push(("steps_beyond_p99", n - (0.99 * n).ceil()));
    // The tail with other tenants' interference left in, for reference.
    let raw_p99 = quantile(&pooled.compute_ns, 0.99).unwrap_or(0);
    info.push(("pooled_cycle_p99_us", raw_p99 as f64 * 1e-3));
    info.push(("pacer_misses", paced.misses() as f64));

    if args.trace {
        if w.policy() == ThreadPolicy::DedicatedThreads {
            // The threaded engine has no per-step entry point of its own:
            // its per-step spans are the paced cycles (batch of one).
            for m in metrics.iter_mut() {
                match m.0 {
                    "engine.step_us.p50" => m.1 = p50,
                    "engine.step_us.p99" => m.1 = p99,
                    _ => {}
                }
            }
        }
        let late: Vec<f64> = pooled.release_late_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        metrics.push(("pacer.release_late_us.p99", quantile(&late, 0.99).unwrap_or(0.0), "us"));
        metrics.push(("pacer.misses", paced.misses() as f64, "count"));
    } else {
        metrics.push(("cycle_p50_us", p50, "us"));
        metrics.push(("cycle_p99_us", p99, "us"));
    }

    checks.extend(phases::checks(w, args.seed, paced_ok.is_ok().then_some(&paced)));
    if !args.trace {
        metrics.push(("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"));
    }
    Ok((metrics, checks, info, (cycles, paced_ok.is_ok())))
}
