//! End-to-end benchmark of the distributed virtual windtunnel: the
//! command → compute → transfer → render loop the paper budgets at 1/8 s,
//! closed by a real client against a real server process, with per-layer
//! attribution measured from outside. See `benchmark/README.md`.

mod layers;
mod metrics;
mod relay;
mod rig;
mod run;
mod serve;
mod session;
mod spans;
mod spanstore;
mod stats;
mod workloads;

use metrics::{MetricDef, Values, BUDGET_MS, END_TO_END, PER_LAYER, TAIL_PERCENTILE};
use rig::Profile;
use run::{run_pass, Pass, RunConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Timed seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 12.0;
/// Same, under `--quick`.
const QUICK_SECONDS: f64 = 0.5;

#[derive(Debug)]
pub struct BenchError(String);

impl BenchError {
    pub fn new(msg: impl Into<String>) -> BenchError {
        BenchError(msg.into())
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError(format!("I/O: {e}"))
    }
}

impl From<dlib::DlibError> for BenchError {
    fn from(e: dlib::DlibError) -> BenchError {
        BenchError(format!("dlib: {e}"))
    }
}

impl From<flowfield::FieldError> for BenchError {
    fn from(e: flowfield::FieldError) -> BenchError {
        BenchError(format!("dataset: {e}"))
    }
}

pub type Result<T> = std::result::Result<T, BenchError>;

const USAGE: &str = "usage:
  dvw-benchmark run    --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--quick]
  dvw-benchmark repeat --seed N [--sets K] [--seconds S] [--quick]
  dvw-benchmark --list
run from the repository root; everything written goes under benchmark/out/";

/// Flags shared by the sub-commands, parsed from `--name value` pairs.
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: usize,
    data: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        quick: false,
        sets: 2,
        data: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| BenchError::new(format!("{flag} needs a value")))?;
        let bad = || BenchError::new(format!("{flag}: cannot use '{value}'"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                args.sets = value.parse().map_err(|_| bad())?;
                if args.sets < 2 {
                    return Err(bad());
                }
            }
            "--data" => args.data = Some(PathBuf::from(value)),
            _ => return Err(BenchError::new(format!("unknown flag {flag}"))),
        }
    }
    Ok(args)
}

impl Args {
    fn config(&self, workload: Workload) -> Result<RunConfig> {
        let (profile, seconds) = match self.quick {
            true => (Profile::QUICK, QUICK_SECONDS),
            false => (Profile::FULL, DEFAULT_SECONDS),
        };
        Ok(RunConfig {
            workload,
            seed: self
                .seed
                .ok_or_else(|| BenchError::new("--seed is required"))?,
            seconds: self.seconds.unwrap_or(seconds),
            profile,
        })
    }
}

fn print_list() {
    for w in Workload::ALL {
        println!("workload {}", w.name());
    }
    for d in END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        );
    }
    for d in PER_LAYER {
        println!("per_layer {} {} {}", d.name, d.unit, d.better.as_str());
    }
}

fn print_values(defs: &[MetricDef], values: &Values) {
    metrics::assert_matches(defs, values);
    for (def, (_, value)) in defs.iter().zip(values) {
        println!("  {:<34} {:>14.4} {}", def.name, value, def.unit);
    }
}

/// The result line the driver parses: one JSON object, last on stdout.
fn result_json(
    attempted: usize,
    failed: usize,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (def, (name, value))) in defs.iter().zip(values).enumerate() {
        if !value.is_finite() {
            return Err(BenchError::new(format!("metric {name} is {value}")));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn print_pass_header(cfg: &RunConfig, pass: &Pass, traced: bool) {
    let n = pass.frames.len();
    println!(
        "workload {}  seed {}  {}  timed {:.2} s  frames {n} ({} beyond p{TAIL_PERCENTILE})  \
         attempted {}  failed {}  failed_frac {:.6}  budget_ms = {BUDGET_MS}",
        cfg.workload.name(),
        cfg.seed,
        if traced { "traced" } else { "untraced" },
        pass.timed_secs,
        stats::samples_beyond(n, TAIL_PERCENTILE),
        pass.attempted,
        pass.failed(),
        pass.failed() as f64 / pass.attempted.max(1) as f64,
    );
    for why in &pass.failures {
        println!("  FAILED {why}");
    }
}

/// Run one workload the way the driver asks: untraced for the end-to-end
/// metrics; with `--trace 1` an untraced pass for the overhead's base and
/// then the traced pass for the per-layer metrics.
fn run_workload(cfg: &RunConfig, trace: bool) -> Result<()> {
    let untraced = run_pass(cfg, false)?;
    print_pass_header(cfg, &untraced, false);
    let values = untraced.end_to_end();
    print_values(&END_TO_END, &values);
    if !trace {
        let json = result_json(untraced.attempted, untraced.failed(), &END_TO_END, &values)?;
        println!("{json}");
        return Ok(());
    }
    let traced = run_pass(cfg, true)?;
    print_pass_header(cfg, &traced, true);
    let values = traced.per_layer(cfg.workload, untraced.frame_ms_p50());
    print_values(&PER_LAYER, &values);
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed() + traced.failed();
    println!("{}", result_json(attempted, failed, &PER_LAYER, &values)?);
    Ok(())
}

/// A run that printed its result succeeds as a process; whether the
/// outputs were correct is in the result (`correct`, `failed`).
fn cmd_run(args: &Args) -> Result<bool> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for w in workloads {
        run_workload(&args.config(w)?, args.trace)?;
    }
    Ok(true)
}

/// Run every workload `sets` times, alternating the order, and hold each
/// end-to-end metric's spread between the sets against its bound.
fn cmd_repeat(args: &Args) -> Result<bool> {
    let mut results: Vec<Vec<Values>> = vec![Vec::new(); Workload::ALL.len()];
    let mut ok = true;
    for set in 0..args.sets {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for idx in order {
            let cfg = args.config(Workload::ALL[idx])?;
            let pass = run_pass(&cfg, false)?;
            print_pass_header(&cfg, &pass, false);
            ok &= pass.failed() == 0;
            results[idx].push(pass.end_to_end());
        }
    }
    for (w, sets) in Workload::ALL.iter().zip(&results) {
        println!("workload {}", w.name());
        for (m, def) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|v| v[m].1).collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / lo;
            let within = spread <= def.bound;
            ok &= within;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<26} {:<4} {}  spread {:.4}  bound {}  {}",
                def.name,
                def.unit,
                shown.join("  "),
                spread,
                def.bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn dispatch(argv: &[String]) -> Result<bool> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(BenchError::new(USAGE));
    };
    match cmd.as_str() {
        "--list" => {
            print_list();
            Ok(true)
        }
        "serve" => {
            let args = parse_args(rest)?;
            let data = args
                .data
                .ok_or_else(|| BenchError::new("serve needs --data"))?;
            serve::run(&data, args.trace)?;
            Ok(true)
        }
        "run" | "repeat" => {
            let args = parse_args(rest)?;
            std::fs::create_dir_all(rig::OUT_DIR)?;
            if cmd == "run" {
                cmd_run(&args)
            } else {
                cmd_repeat(&args)
            }
        }
        _ => Err(BenchError::new(USAGE)),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // Results were printed; a failed check or an exceeded bound is
        // reported through the exit code as well.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dvw-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
