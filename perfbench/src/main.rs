//! Command-line entry of the benchmark:
//!
//! ```text
//! idd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload's end-to-end call in a closed
//! loop — one thread issuing, one call in flight — for about `--seconds`
//! seconds, at least [`MIN_CALLS`] calls and one whole round, verifying
//! every result. It reports as `time_to_result_s` the mean call over the
//! whole run: per position of the round the mean of its calls, averaged
//! over the round. The host's speed wanders over seconds to minutes, so a
//! mean over the whole run is steadier than the median of a few long calls.
//! Between calls it sets the workload up again, at [`SETUP_SHARE`] of the
//! time spent in calls and at least [`MIN_SETUPS`] times, and reports the
//! median set-up as `setup_s`. After each call it times [`Gauge`] passes
//! for [`GAUGE_SHARE`] of the call's time, and both times are scaled to
//! the reference host's speed by the gauge ([`Gauge::scale`]); the raw
//! figures go to standard error. With `--trace 1` it makes the traced,
//! per-layer run instead. The last line of standard output is the JSON
//! result.

use idd_perfbench::gauge::Gauge;
use idd_perfbench::layers::{self, PER_LAYER};
use idd_perfbench::{
    instance_key, median, peak_rss_mb, setup, timed, Bench, Inputs, Outcome, Size, Workload,
};
use std::time::Instant;

/// Fewest timed calls a run makes, however long they take.
const MIN_CALLS: usize = 3;
/// Fewest set-ups a run makes.
const MIN_SETUPS: usize = 3;
/// Set-ups are sampled between calls at this share of the time spent in
/// calls: their samples then span the run as the calls' do, instead of one
/// short window that the host's load at that moment decides.
const SETUP_SHARE: f64 = 0.1;
/// Gauge passes are timed after each call for this share of its time. The
/// gauge samples the host only between calls, so its median carries a
/// sampling error of its own; a quarter of the call time keeps that error
/// below the drift it removes.
const GAUGE_SHARE: f64 = 0.25;

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, each metric a `{"value", "unit"}` pair. A metric
/// that is not finite cannot be written as JSON, so it is written as 0 and
/// counted as one more failure.
fn render(attempted: u64, mut failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = Vec::with_capacity(metrics.len());
    for &(name, unit, value) in metrics {
        let value = if value.is_finite() {
            value
        } else {
            failed += 1;
            0.0
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Times set-ups of one workload and checks that each builds the same
/// instance.
struct Setups<'a> {
    args: &'a Args,
    times: Vec<f64>,
    key: Option<String>,
    failed: u64,
}

impl Setups<'_> {
    fn sample(&mut self) -> Result<Inputs, String> {
        let (result, seconds) = timed(|| setup(self.args.workload, Size::Full, self.args.seed));
        self.times.push(seconds);
        let inputs = result?;
        let key = instance_key(&inputs.instance);
        if self.key.get_or_insert_with(|| key.clone()) != &key {
            self.failed += 1;
            eprintln!(
                "perfbench: set-up {} built a different instance",
                self.times.len()
            );
        }
        Ok(inputs)
    }

    fn total(&self) -> f64 {
        self.times.iter().sum()
    }
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let mut setups = Setups {
        args,
        times: Vec::new(),
        key: None,
        failed: 0,
    };
    let bench = Bench::new(args.workload, Size::Full, args.seed, setups.sample()?)?;
    let mut gauge = Gauge::new();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let round = bench.round();
    let mut firsts: Vec<Option<Outcome>> = vec![None; round];
    let mut call_times = Vec::new();
    let mut by_position = vec![Vec::new(); round];
    let started = Instant::now();
    loop {
        // Another call, with the gauge passes and set-ups that follow it, is
        // made while it is expected to end nearer the run's target length
        // than stopping now would.
        let calls = call_times.len();
        let elapsed = started.elapsed().as_secs_f64();
        let mean_step = elapsed / calls.max(1) as f64;
        if calls >= MIN_CALLS.max(round) && elapsed + mean_step / 2.0 >= args.seconds {
            break;
        }
        let position = calls % round;
        attempted += 1;
        let (raw, seconds) = timed(|| bench.run(position));
        call_times.push(seconds);
        by_position[position].push(seconds);
        match raw.and_then(|raw| bench.verify(&raw)) {
            Ok(outcome) => {
                if firsts[position].get_or_insert_with(|| outcome.clone()) != &outcome {
                    failed += 1;
                    eprintln!(
                        "perfbench: call {} gave a different result",
                        call_times.len()
                    );
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: call {}: {e}", call_times.len());
            }
        }
        gauge.run_for(GAUGE_SHARE * seconds);
        while setups.total() < SETUP_SHARE * call_times.iter().sum::<f64>() {
            setups.sample()?;
        }
    }
    while setups.times.len() < MIN_SETUPS {
        setups.sample()?;
    }
    attempted += setups.times.len() as u64 + gauge.passes();
    failed += setups.failed + gauge.failed();
    let outcomes: Option<Vec<Outcome>> = firsts.into_iter().collect();
    let cost_ratio = outcomes.map_or(f64::NAN, |round| bench.cost_ratio(&round));
    let mean = |times: &[f64]| times.iter().sum::<f64>() / times.len() as f64;
    let round_mean = by_position.iter().map(|times| mean(times)).sum::<f64>() / round as f64;
    let setup_median = median(&setups.times);
    eprintln!(
        "perfbench: {} (seed {}, instance {}): raw setup_s {setup_median} and \
         time_to_result_s {round_mean}, gauge pass {} s ({} passes), {} set-ups, calls {:?} s",
        args.workload.name(),
        args.seed,
        setups.key.as_deref().unwrap_or_default(),
        gauge.median_pass_s(),
        gauge.passes(),
        setups.times.len(),
        call_times
    );
    let values = [
        setup_median * gauge.scale(),
        round_mean * gauge.scale(),
        cost_ratio,
        peak_rss_mb().unwrap_or(f64::NAN),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    Ok(render(attempted, failed, &metrics))
}

fn traced(args: &Args) -> Result<String, String> {
    let report = layers::traced(args.workload, Size::Full, args.seed)?;
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, report.metrics[name]))
        .collect();
    Ok(render(report.attempted, report.failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("idd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("idd-perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
