//! Outside-in benchmark of the discovery stack.
//!
//! One workload per invocation:
//!
//! ```text
//! snd-perfbench --workload <wave-clean|wave-lossy|campaign> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's inputs (deployment, fault draws,
//! campaign cell seeds); the program under test only ever sees those
//! inputs through its public API. With `--trace 0` the run measures the
//! end-to-end metrics with every telemetry channel off. With `--trace 1`
//! it runs the same workload with the engine's `Profiler`, a
//! `RingRecorder` and tier-2 memory tracking on, next to untraced
//! controls, and reports the per-layer metrics instead. Every operation
//! (one wave, or one campaign grid) is checked against an oracle; the
//! last line of standard output is the JSON result.

mod campaign;
mod checks;
mod metrics;
mod probes;
mod wave;

use std::process::ExitCode;

use snd_observe::mem::TrackingAlloc;

use metrics::Outcome;

/// Tier-2 scope-attributed allocator; inert (one relaxed atomic load per
/// call) until a traced run turns it on.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The benchmark's workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WaveClean,
    WaveLossy,
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "wave-clean" => Some(Workload::WaveClean),
            "wave-lossy" => Some(Workload::WaveLossy),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: snd-perfbench --workload <wave-clean|wave-lossy|campaign> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a finite non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args) -> Outcome {
    let exec = metrics::bench_executor();
    let (seed, seconds) = (args.seed, args.seconds);
    let grid = campaign::default_spec(seed);
    let wave = match args.workload {
        Workload::WaveClean => Some(wave::WaveSpec::clean()),
        Workload::WaveLossy => Some(wave::WaveSpec::lossy()),
        Workload::Campaign => None,
    };
    let mut out = Outcome::default();
    match (wave, args.trace) {
        (Some(spec), false) => wave::measure(&spec, seed, seconds, exec, &mut out),
        (Some(spec), true) => {
            wave::trace(&spec, seed, seconds, exec, true, &mut out);
            campaign::trace_subgrids(&grid, exec, &mut out);
        }
        (None, false) => campaign::measure(&grid, seconds, exec, &mut out),
        (None, true) => campaign::trace(&grid, seconds, exec, &mut out),
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "snd-perfbench: workload {:?}, seed {}, {} s, trace {}, {} executor threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        metrics::bench_executor().threads()
    );
    let out = run(&args);
    let names = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match out.to_json(names) {
        Ok(line) => {
            for failure in &out.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("internal error: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "wave-lossy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::WaveLossy);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "campaign", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "campaign",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "campaign",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
