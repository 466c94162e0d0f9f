//! One benchmark round in a process of its own (so `peak_rss_mib` is the
//! round's own peak). `run.py` builds this binary, runs the rounds of a
//! workload and reports their medians.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --round <i> --seconds <f>
//!           --trace <0|1> --out <dir>
//! ```
//!
//! Prints one JSON object on its last line: `correct`, `attempted`,
//! `failed`, `empty`, `metrics`, `samples`, `info` and `errors`. Exits 1
//! when an output check failed.

mod host;
mod probes;
mod stats;
mod trace;
mod values;
mod workloads;

use std::path::PathBuf;

use workloads::{Report, Spec, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --round <i> --seconds <f> --trace <0|1> --out <dir>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Spec {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).unwrap_or_else(|| usage(&format!("missing {flag}")));
    let workload = Workload::parse(need("--workload")).unwrap_or_else(|| usage("unknown workload"));
    let seed = need("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let round = get("--round")
        .map_or(Ok(0), str::parse)
        .unwrap_or_else(|_| usage("--round takes an unsigned integer"));
    let seconds: f64 = need("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match need("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Spec {
        workload,
        seed,
        round,
        seconds,
        trace,
        out: PathBuf::from(need("--out")),
        inject: None,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn to_json(rep: &Report) -> String {
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(", "));
    let metrics = obj(rep
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect());
    let samples = obj(rep
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect());
    let info = obj(rep
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect());
    let errors: Vec<String> = rep.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"empty\": {}, \"metrics\": {metrics}, \"samples\": {samples}, \"info\": {info}, \"errors\": [{}]}}",
        rep.errors.is_empty(),
        rep.tally.attempted,
        rep.tally.failed,
        rep.tally.empty,
        errors.join(", ")
    )
}

fn main() {
    let spec = parse_args();
    if let Err(e) = std::fs::create_dir_all(&spec.out) {
        usage(&format!("cannot create {}: {e}", spec.out.display()));
    }
    let rep = workloads::run(&spec);
    println!("{}", to_json(&rep));
    if !rep.errors.is_empty() {
        std::process::exit(1);
    }
}
