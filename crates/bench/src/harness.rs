//! Shared plumbing for the `hcl-bench` gate runner: one median and one
//! percentile definition, one JSON value with its writer and reader, the
//! `BENCH_<suite>.json` schema, and one gate check.
//!
//! Every suite writes the same shape:
//!
//! ```text
//! {"suite": .., "description": ..,
//!  "host": {"cores": .., "ranks": .., "oversubscribed": ..},
//!  "seed": ..,                       (seeded suites only)
//!  "config": {..},
//!  "cells": [{"params": {..}, "unit": .., "samples": [..], "median": .., "stats": {..}}, ..],
//!  "summary": {..}}                  (the gate inputs)
//! ```
//!
//! A suite measures a cell by running it N times; each run returns its
//! [`Figures`]. The cell records the primary figure of every run as
//! `samples` with their median, and the median over runs of every other
//! figure (latency quantiles, counters) as `stats`. Gates read only those
//! medians and the summary.

use std::fmt;

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the element at index
/// `round((n - 1) * p)`. 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Count, p50 and p99 of per-op latencies merged over ranks.
pub fn quantiles<'a>(per_rank: impl Iterator<Item = &'a Vec<u64>>) -> (u64, u64, u64) {
    let mut merged: Vec<u64> = per_rank.flatten().copied().collect();
    merged.sort_unstable();
    (merged.len() as u64, percentile(&merged, 0.50), percentile(&merged, 0.99))
}

/// Aggregate throughput of one run: every rank's ops over the slowest
/// rank's wall time.
pub fn aggregate_rate(total_ops: u64, walls: impl Iterator<Item = f64>) -> f64 {
    total_ops as f64 / walls.fold(0.0f64, f64::max).max(1e-9)
}

/// A JSON value. Objects keep their insertion order so artifacts diff
/// cleanly between regenerations.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Build an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Floats are stored rounded to 4 decimals, so a gate judges the same
/// number in memory as it later reads back from the written file.
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num((x * 1e4).round() / 1e4)
    }
}

macro_rules! json_from {
    ($($t:ty => |$x:ident| $e:expr),*) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $e
            }
        }
    )*};
}
json_from!(u64 => |x| Json::Num(x as f64), u32 => |x| Json::Num(x as f64),
    usize => |x| Json::Num(x as f64), bool => |b| Json::Bool(b), &str => |s| Json::Str(s.into()));

impl Json {
    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements of an array; empty for any other value.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// `summary.<key>` of an artifact as a number; NaN when absent, so any
    /// bound built from a missing figure fails.
    pub fn summary(&self, key: &str) -> f64 {
        self.get("summary").and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        match parse_value(text)? {
            (v, rest) if rest.trim().is_empty() => Ok(v),
            (_, rest) => {
                Err(format!("trailing input {:?}", rest.chars().take(20).collect::<String>()))
            }
        }
    }

    fn render(&self, depth: usize) -> String {
        let entries: Vec<String> = match self {
            Json::Null => return "null".into(),
            Json::Bool(b) => return b.to_string(),
            Json::Num(x) if x.is_finite() => return x.to_string(),
            Json::Num(_) => return "null".into(),
            Json::Str(s) => return quote(s),
            Json::Arr(v) => v.iter().map(|x| x.render(depth + 1)).collect(),
            Json::Obj(f) => {
                f.iter().map(|(k, x)| format!("{}: {}", quote(k), x.render(depth + 1))).collect()
            }
        };
        let (open, close) = if matches!(self, Json::Arr(_)) { ('[', ']') } else { ('{', '}') };
        // Depth 0 and 1 put one entry per line, so artifacts diff by cell;
        // deeper containers (a cell's params, samples, stats) stay inline.
        if depth < 2 && !entries.is_empty() {
            let pad = "  ".repeat(depth);
            format!("{open}\n{pad}  {}\n{pad}{close}", entries.join(&format!(",\n{pad}  ")))
        } else {
            format!("{open}{}{close}", entries.join(", "))
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(0))
    }
}

/// Strings escape `"`, `\` and newline; artifacts hold no other control
/// characters.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"))
}

/// Parse one value from the front of `s`; returns it and the rest of `s`.
fn parse_value(s: &str) -> Result<(Json, &str), String> {
    let s = s.trim_start();
    let array = match s.chars().next() {
        Some('"') => return parse_str(&s[1..]).map(|(t, rest)| (Json::Str(t), rest)),
        Some('[') => true,
        Some('{') => false,
        _ => {
            let end = s.find(|c: char| ",]}".contains(c) || c.is_whitespace()).unwrap_or(s.len());
            let v = match &s[..end] {
                "null" => Json::Null,
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                t => Json::Num(t.parse().map_err(|_| format!("bad value {t:?}"))?),
            };
            return Ok((v, &s[end..]));
        }
    };
    let close = if array { ']' } else { '}' };
    let (mut items, mut fields, mut rest) = (Vec::new(), Vec::new(), s[1..].trim_start());
    if let Some(r) = rest.strip_prefix(close) {
        rest = r;
    } else {
        loop {
            if array {
                let (v, r) = parse_value(rest)?;
                items.push(v);
                rest = r;
            } else {
                let r = rest.trim_start().strip_prefix('"').ok_or("expected a key")?;
                let (key, r) = parse_str(r)?;
                let r = r.trim_start().strip_prefix(':').ok_or("expected ':'")?;
                let (v, r) = parse_value(r)?;
                fields.push((key, v));
                rest = r;
            }
            rest = rest.trim_start();
            match rest.chars().next() {
                Some(',') => rest = &rest[1..],
                Some(c) if c == close => {
                    rest = &rest[1..];
                    break;
                }
                _ => return Err(format!("expected ',' or '{close}'")),
            }
        }
    }
    Ok((if array { Json::Arr(items) } else { Json::Obj(fields) }, rest))
}

/// A string's text after its opening quote, and the input after its
/// closing quote.
fn parse_str(s: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        out.push(match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => '"',
                Some((_, '\\')) => '\\',
                Some((_, 'n')) => '\n',
                _ => return Err("unsupported escape".into()),
            },
            c => c,
        });
    }
    Err("unterminated string".into())
}

/// One run's named figures. The first is the cell's primary metric; every
/// run of a cell returns the same names in the same order.
pub type Figures = Vec<(&'static str, f64)>;

/// One measured cell from its runs, printed as one line as it completes:
/// its parameters, the unit of its primary metric, every run's primary
/// figure as `samples` with their median, and the median over runs of each
/// other figure as `stats`.
pub fn cell(params: Json, unit: &str, runs: &[Figures]) -> Json {
    let column = |i: usize| runs.iter().map(|r| r[i].1).collect::<Vec<_>>();
    let samples = column(0);
    let names = runs.first().map_or(&[][..], |r| &r[1..]);
    let stats = names.iter().enumerate().map(|(i, (k, _))| (*k, median(&column(i + 1)).into()));
    let c = obj(vec![
        ("params", params),
        ("unit", unit.into()),
        ("samples", Json::Arr(samples.iter().map(|&s| s.into()).collect())),
        ("median", median(&samples).into()),
        ("stats", obj(stats.collect())),
    ]);
    println!("{}", c.render(2));
    c
}

/// A cell's `median` or one of its `stats`; NaN when absent.
pub fn figure(cell: &Json, key: &str) -> f64 {
    let stat = || cell.get("stats")?.get(key);
    cell.get(key).or_else(stat).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// A whole `BENCH_<suite>.json` artifact. `ranks` is the most ranks any
/// cell runs; the host block sets it against the cores this process may
/// run on.
pub fn artifact(
    suite: &str,
    description: &str,
    ranks: u32,
    seed: Option<u64>,
    config: Json,
    cells: Vec<Json>,
    summary: Json,
) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let host = obj(vec![
        ("cores", cores.into()),
        ("ranks", ranks.into()),
        ("oversubscribed", (ranks > cores).into()),
    ]);
    let mut fields =
        vec![("suite", suite.into()), ("description", description.into()), ("host", host)];
    fields.extend(seed.map(|s| ("seed", s.into())));
    fields.extend([("config", config), ("cells", Json::Arr(cells)), ("summary", summary)]);
    obj(fields)
}

/// Which artifact a gate list judges: a fresh `--smoke` run, a fresh full
/// run, or the committed file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Smoke,
    Full,
    Committed,
}

/// The bar a summary figure must clear.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    AtLeast(f64),
    Above(f64),
    Below(f64),
    Exactly(f64),
    Within(f64, f64),
}

impl Bound {
    pub fn holds(self, v: f64) -> bool {
        match self {
            Bound::AtLeast(t) => v >= t,
            Bound::Above(t) => v > t,
            Bound::Below(t) => v < t,
            Bound::Exactly(t) => v == t,
            Bound::Within(lo, hi) => (lo..=hi).contains(&v),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(t) => write!(f, ">= {t}"),
            Bound::Above(t) => write!(f, "> {t}"),
            Bound::Below(t) => write!(f, "< {t}"),
            Bound::Exactly(t) => write!(f, "== {t}"),
            Bound::Within(lo, hi) => write!(f, "in [{lo}, {hi}]"),
        }
    }
}

/// One gate: `summary.<key>` must satisfy `bound`; `claim` names what the
/// gate protects and heads its failure message.
pub struct Gate {
    pub key: &'static str,
    pub bound: Bound,
    pub claim: &'static str,
}

pub fn gate(key: &'static str, bound: Bound, claim: &'static str) -> Gate {
    Gate { key, bound, claim }
}

/// Check an artifact: the host block is present, every cell carries a unit,
/// at least one sample and a median, every sample and median is > 0, and
/// every gate holds on the summary. Returns one message per failure.
pub fn check(artifact: &Json, gates: &[Gate]) -> Vec<String> {
    let mut fails = Vec::new();
    for key in ["cores", "ranks", "oversubscribed"] {
        if artifact.get("host").and_then(|h| h.get(key)).is_none() {
            fails.push(format!("host block records no {key}"));
        }
    }
    for (i, c) in artifact.get("cells").map_or(&[][..], Json::items).iter().enumerate() {
        let samples = c.get("samples").map_or(&[][..], Json::items);
        let positive =
            samples.iter().chain(c.get("median")).all(|v| v.as_f64().is_some_and(|x| x > 0.0));
        if c.get("unit").is_none() || samples.is_empty() || c.get("median").is_none() || !positive {
            fails.push(format!("cell {i}: needs a unit, samples and a median, all > 0"));
        }
    }
    for g in gates {
        let v = artifact.summary(g.key);
        if !g.bound.holds(v) {
            fails.push(format!("{}: summary.{} = {v}, need {}", g.claim, g.key, g.bound));
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_percentile_and_rate_on_known_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let odd = [10, 20, 30, 40, 50];
        assert_eq!(
            (percentile(&odd, 0.5), percentile(&odd, 0.99), percentile(&odd, 0.0)),
            (30, 50, 10)
        );
        // 100 elements: index round(99 * 0.5) = 50 (half rounds away from 0).
        let even: Vec<u64> = (1..=100).collect();
        assert_eq!((percentile(&even, 0.5), percentile(&even, 0.99)), (51, 99));
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(quantiles([vec![3, 1], vec![2]].iter()), (3, 2, 3));
        assert_eq!(aggregate_rate(300, [1.0, 3.0, 2.0].into_iter()), 100.0);
    }

    fn sample() -> Json {
        let runs: Vec<Figures> = [3.0, 1.0, 2.0].map(|x| vec![("op/s", x)]).into();
        let cells = vec![
            cell(obj(vec![("mode", "a".into())]), "op/s", &runs),
            cell(
                obj(vec![("mode", "b".into())]),
                "op/s",
                &[vec![("op/s", 2.0 / 3.0), ("p99_ns", 7.0)]],
            ),
        ];
        artifact(
            "demo",
            "a \"quoted\"\\ line",
            8,
            Some(42),
            obj(vec![]),
            cells,
            obj(vec![("ok", true.into())]),
        )
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let text = sample().to_string();
        assert_eq!(Json::parse(&text), Ok(sample()));
        let cells = sample().get("cells").unwrap().items().to_vec();
        assert_eq!((figure(&cells[0], "median"), figure(&cells[1], "p99_ns")), (2.0, 7.0));
        assert!(figure(&cells[0], "p99_ns").is_nan());
        // One cell per line, so committed artifacts diff by cell; floats
        // are stored to 4 decimals.
        assert!(text.contains("\n    {\"params\": {\"mode\": \"a\"}, \"unit\": \"op/s\", \"samples\": [3, 1, 2], \"median\": 2,"));
        assert!(text.contains("\"samples\": [0.6667]"));
        assert_eq!(Json::parse(" [ ] ").map(|j| j.items().len()), Ok(0));
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in [
            "{\"a\": 1",
            "[1, 2",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "{\"a\": tru}",
            "\"\\q\"",
            "[1,]",
            "{a: 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn zero_rate_missing_host_or_missing_gate_input_fails() {
        let zero = Json::parse(&sample().to_string().replace("[0.6667]", "[0]")).unwrap();
        assert_eq!(
            check(&zero, &[]),
            vec!["cell 1: needs a unit, samples and a median, all > 0".to_string()]
        );
        let no_host =
            Json::parse(&sample().to_string().replace("\"host\"", "\"machine\"")).unwrap();
        assert_eq!(check(&no_host, &[]).len(), 3);
        let fails = check(&sample(), &[gate("absent", Bound::AtLeast(0.0), "demo")]);
        assert_eq!(fails, vec!["demo: summary.absent = NaN, need >= 0".to_string()]);
    }
}
