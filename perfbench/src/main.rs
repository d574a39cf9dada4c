//! The repository's benchmark: one command, four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_decode|offline_prefill|serve_chat|plan_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with every tracer
//! off; `--trace 1` runs the same workload with the tracers on and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the process
//! exits 1 when a correctness check failed and 2 on a usage error. See
//! README.md for the workloads and the metric → layer → workload map.

mod kernels;
mod metrics;
mod offline;
mod plan;
mod serve;
mod stats;

use metrics::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = [
    "offline_decode",
    "offline_prefill",
    "serve_chat",
    "plan_grid",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed {value}: not a u64"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "offline_decode" => offline::run(&offline::DECODE, args)?,
        "offline_prefill" => offline::run(&offline::PREFILL, args)?,
        "serve_chat" => serve::run(args)?,
        "plan_grid" => plan::run(args)?,
        other => unreachable!("parse admits only known workloads, got {other}"),
    };
    report.set("peak_rss_mib", stats::peak_rss_mib()?);
    Ok(report)
}

/// The result line: every metric of the run's kind, in catalogue order.
/// An end-to-end metric must be measured; a per-layer metric of a layer
/// the workload bypasses reads 0.
fn result_json(args: &Args, report: &mut Report) -> String {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    let mut bypassed = Vec::new();
    for &(name, unit) in catalogue {
        let value = match report.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                report.errors.push(format!("{name} is not finite ({v})"));
                0.0
            }
            None if args.trace => {
                bypassed.push(name);
                0.0
            }
            None => {
                report
                    .errors
                    .push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        println!("{name:<32} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !bypassed.is_empty() {
        println!(
            "not exercised by {} (reported as 0): {}",
            args.workload,
            bypassed.join(", ")
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.tally.attempted.max(1),
        report.tally.failed,
        fields.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("  {line}");
    }
    let json = result_json(&args, &mut report);
    println!(
        "operations sent {}, succeeded {}, failed {}",
        report.tally.attempted,
        report.tally.succeeded(),
        report.tally.failed
    );
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{json}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload serve_chat --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_chat".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload plan_grid --seed x --seconds 1",
            "--workload plan_grid --seed 1 --seconds 0",
            "--workload plan_grid --seed 1 --seconds 1 --trace 2",
            "--workload plan_grid --seed 1",
            "--workload plan_grid --seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn generated_workload_inputs_follow_the_seed() {
        let a = offline::DECODE.request(5);
        assert_eq!(a.prompts, offline::DECODE.request(5).prompts);
        assert_ne!(a.prompts, offline::DECODE.request(6).prompts);
        let mut distinct = a.prompts.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), offline::DECODE.batch);

        let t = serve::traffic(9, 12.0);
        assert_eq!(t, serve::traffic(9, 12.0));
        assert_ne!(t, serve::traffic(10, 12.0));
        assert_eq!(t.len(), (serve::RATE * 12.0).ceil() as usize);
        assert!(t.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        let cfg = serve::model();
        assert!(t
            .iter()
            .all(|r| r.prompt.len() + r.gen_len <= cfg.max_seq_len as usize / 4));
    }

    #[test]
    fn missing_end_to_end_metric_is_a_failed_check() {
        let args = parse(&argv("--workload plan_grid --seed 1 --seconds 1")).unwrap();
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        let line = result_json(&args, &mut r);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(!r.correct());
    }
}
