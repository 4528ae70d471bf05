//! The fixed per-workload settings from `workloads.json`: offered rate,
//! capacity ladder and detect p99 limit. They are compiled in, so a run
//! cannot pick them up from anywhere but the committed file.

use freqywm::service::proto::json::{self, Value};

const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Names of the workloads, in the order the docs list them.
pub const WORKLOADS: [&str; 3] = ["verify", "mixed", "tier"];

#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub name: String,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate_rps: f64,
    /// Rates tried by the capacity search, ascending.
    pub ladder: Vec<f64>,
    /// The capacity walk starts at the highest rung at or below this.
    pub walk_start_rps: f64,
    /// Detect p99 limit a ladder rung must meet.
    pub p99_limit_ms: f64,
    /// Share of `--seconds` spent at the fixed rate; the rest goes to
    /// the capacity search.
    pub fixed_share: f64,
}

/// Generator p99 lateness allowed, as a share of the mean inter-arrival
/// time at the offered rate. A phase over it is invalid.
pub fn lateness_share() -> f64 {
    root()
        .get("lateness_share")
        .and_then(Value::as_f64)
        .expect("workloads.json: lateness_share")
}

fn root() -> Value {
    json::parse(WORKLOADS_JSON).expect("workloads.json is valid JSON")
}

pub fn workload(name: &str) -> Option<WorkloadConfig> {
    let root = root();
    let w = root.get("workloads")?.get(name)?;
    let num = |key: &str| {
        w.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("workloads.json: {name}.{key}"))
    };
    let ladder: Vec<f64> = w
        .get("ladder")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("workloads.json: {name}.ladder"))
        .iter()
        .map(|v| v.as_f64().expect("ladder rates are numbers"))
        .collect();
    assert!(
        ladder.windows(2).all(|p| p[0] < p[1]),
        "workloads.json: {name}.ladder must ascend"
    );
    Some(WorkloadConfig {
        name: name.to_string(),
        rate_rps: num("rate_rps"),
        ladder,
        walk_start_rps: num("walk_start_rps"),
        p99_limit_ms: num("p99_limit_ms"),
        fixed_share: num("fixed_share"),
    })
}
