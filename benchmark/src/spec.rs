//! The benchmark's contract: `BENCHMARK.json` at the repo root is compiled
//! in, so the metric names, units and bounds the binary works with are the
//! file's own — plus the bag metrics are collected in.

use crate::json::Json;

/// The names `main` dispatches on; a test holds them to `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "train_split_hmms",
    "train_plain",
    "serve_closed_c1",
    "serve_open_burst8",
];

pub fn contract() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

/// The entries of one of the contract's lists: `workloads`, `end_to_end`
/// (what a user of the system sees) or `per_layer` (the traced run).
pub fn entries<'a>(contract: &'a Json, list: &str) -> &'a [Json] {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {list:?}"))
}

/// A string field of a contract entry (`name`, `unit`, `better`).
pub fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no {key:?}"))
}

/// Measured values by metric name, in the order they were set.
#[derive(Default, Debug)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(&n, v);
        }
    }
}
