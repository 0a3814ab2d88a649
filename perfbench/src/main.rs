//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <sink-reads|dim-roaming-mixed|ght-churn|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--nodes <n>] [--preload <n>]
//! ```
//!
//! `--trace 0` runs the end-to-end measurement, `--trace 1` the traced
//! per-layer run. The last line of standard output is the JSON result;
//! the lines before it give every metric with its unit, and notes.
//! `--workload all` runs each workload in turn and ends with one combined
//! line whose metric names carry the workload as a prefix.

use perfbench::report::Outcome;
use perfbench::{e2e, traced, Params, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: perfbench::alloc::Counting = perfbench::alloc::Counting;

struct Args {
    workloads: Vec<Workload>,
    params: Params,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut nodes = 10_000usize;
    let mut preload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            "--nodes" => nodes = value.parse().map_err(|_| bad())?,
            "--preload" => preload = Some(value.parse().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    if !(300..=200_000).contains(&nodes) {
        return Err(format!("--nodes {nodes} outside 300..=200000"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is not 0 or 1")),
    };
    let params = Params {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        nodes,
        preload: preload.unwrap_or(2 * nodes).max(1),
    };
    Ok(Args { workloads, params, trace })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut combined = Outcome { correct: true, ..Outcome::default() };
    let mut last = None;
    for &workload in &args.workloads {
        let (outcome, notes) = if args.trace {
            traced::run(workload, &args.params)
        } else {
            e2e::run(workload, &args.params)
        };
        for m in &outcome.metrics {
            println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
        }
        for note in &notes {
            println!("{} note: {note}", workload.name());
        }
        combined.correct &= outcome.correct;
        combined.attempted += outcome.attempted;
        combined.failed += outcome.failed;
        for m in &outcome.metrics {
            combined.push(&format!("{}.{}", workload.name(), m.name), m.value, m.unit);
        }
        last = Some(outcome);
    }
    let result = if args.workloads.len() == 1 { last.expect("one workload ran") } else { combined };
    println!("{}", result.json());
    ExitCode::SUCCESS
}
