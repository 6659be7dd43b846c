//! `hmh-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints one `#` line per metric with its unit and sample count, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A traced run also writes its spans to
//! `.bench_tmp/spans-<workload>-<seed>.tsv`. Exits 1 when a check fails
//! and 2 when the run cannot be made.

use std::path::PathBuf;
use std::process::ExitCode;

use hmh_perfbench::gen::DEFAULT_SEED;
use hmh_perfbench::{run, Config, Outcome};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tamper: false,
        root: PathBuf::from(".bench_tmp"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn print(out: &Outcome) {
    let meta: Vec<String> = out.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", meta.join(" "));
    for m in &out.metrics {
        let only = if m.in_result { "" } else { "  (printed only)" };
        println!("# {:<28} {:>14.4} {:<6} (n={}){only}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "# fail_ratio {} ({} of {} ops failed or refused)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("# checked {} replies and final states; {} problems", out.checked, out.problems.len());
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.in_result)
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            print(&out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
