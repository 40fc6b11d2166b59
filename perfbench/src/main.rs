//! Command line:
//!
//! ```text
//! perfbench --workload <cold-prepare|warm-read|commit-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output. A traced run
//! also writes its spans and ledger under `out/` in this package.

use perfbench::inputs::Size;
use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(config.seconds > 0.0 && config.seconds <= 120.0) {
                    return Err(bad("a duration in (0, 120]"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if config.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", config.workload);
            ExitCode::FAILURE
        }
    }
}
