//! Output of one run: the human-readable listing, the full record that
//! `suite.py` collects into `results.json`, and the driver's one-line JSON.

use std::fmt::Write as _;

use crate::harness::{nproc, Outcome, Params, CONFIG_SUMMARY, SETUP_REPEATS};
use crate::spec::{self, MetricSpec};

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as measured, with all its digits; JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(outcome: &Outcome, specs: &[MetricSpec]) -> String {
    let fields: Vec<String> = specs
        .iter()
        .map(|m| {
            let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn specs_for(trace: bool) -> &'static [MetricSpec] {
    if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_line(outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome, specs_for(trace))
    )
}

/// Every metric by name with its unit, then what else the run recorded.
pub fn print_outcome(workload: &str, p: &Params, outcome: &Outcome) {
    let mode = if p.trace { "traced" } else { "untraced" };
    println!(
        "== {workload} ({mode}, seed {}, {} s): {} attempted, {} failed, failed_share {}",
        p.seed,
        p.seconds,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in specs_for(p.trace) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<34} {:>16.4} {}", m.name, value, m.unit);
    }
    for (key, value) in &outcome.details {
        println!("  # {key}: {value}");
    }
    for error in &outcome.errors {
        println!("  ! {error}");
    }
}

/// Everything one run recorded, as one JSON object on one line: what
/// `suite.py` stores in `results.json`. The configuration fields are the
/// run's fingerprint, so that two result files can be shown to be
/// comparable before their numbers are.
pub fn record_line(workload: &str, p: &Params, outcome: &Outcome, wall_s: f64) -> String {
    let details: Vec<String> = outcome
        .details
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"workload\": {}, \"traced\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"nproc\": {}, \
         \"min_setup_repeats\": {SETUP_REPEATS}, \"sample_every\": {}, \"config\": {}, \"stream_hash\": \"{:016x}\", \
         \"wall_s\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"details\": {{{}}}, \"errors\": [{}]}}",
        json_str(workload),
        p.trace,
        p.seed,
        json_num(p.seconds),
        p.quick,
        nproc(),
        spec::SAMPLE_EVERY,
        json_str(CONFIG_SUMMARY),
        outcome.stream_hash,
        json_num(wall_s),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome, specs_for(p.trace)),
        details.join(", "),
        errors.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.set("txn_per_s", 1234.5678);
        o.set("latency_p50_us", f64::NAN);
        let line = driver_line(&o, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"txn_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"latency_p50_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(line.contains("\"setup_s\""));
        assert!(!line.contains('\n'));
        let traced = driver_line(&o, true);
        for m in spec::PER_LAYER {
            assert!(traced.contains(&format!("\"{}\":", m.name)), "{}", m.name);
        }
        assert!(!traced.contains("\"txn_per_s\""));
    }

    #[test]
    fn record_is_one_line_with_details_and_fingerprint() {
        let p = Params {
            seed: 3,
            seconds: 8.0,
            trace: false,
            quick: false,
            out_dir: "out".into(),
        };
        let mut o = Outcome {
            attempted: 5,
            stream_hash: 0xabc,
            ..Default::default()
        };
        o.detail("keys", 20_000);
        o.fail(1, || "a \"quoted\" error".to_string());
        let line = record_line("ycsb_cached", &p, &o, 1.5);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"workload\": \"ycsb_cached\", \"traced\": false, \"seed\": 3"));
        assert!(line.contains("\"stream_hash\": \"0000000000000abc\""));
        assert!(line.contains("\"details\": {\"keys\": \"20000\"}"));
        assert!(line.contains("\"errors\": [\"a \\\"quoted\\\" error\"]"));
        assert!(line.contains("\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
