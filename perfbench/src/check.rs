//! The correctness gate: every response is held against the reference
//! its request was generated with.

use crate::gen::{Expect, Request};
use freqywm::service::proto::json::{self, Value};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The response matched its reference. Maintains carry the ledger
    /// index they were committed at.
    Ok { ledger_index: Option<u64> },
    /// `"ok":false` with a quota refusal or a full queue.
    Refused(String),
    /// `"ok":false` for any other reason.
    Failed(String),
    /// No response before the phase's drain deadline.
    TimedOut,
    /// `"ok":true` but a field differs from the reference.
    Wrong(String),
}

impl Outcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok { .. })
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Checks one response line against the request that produced it.
pub fn check(resp: &str, req: &Request) -> Outcome {
    let v = match json::parse(resp) {
        Ok(v) => v,
        Err(e) => return Outcome::Wrong(format!("unparseable response ({e}): {resp}")),
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("no error text")
            .to_string();
        let refused = v.get("error_kind").and_then(Value::as_str) == Some("quota_exhausted")
            || err.contains("queue full");
        return if refused {
            Outcome::Refused(err)
        } else {
            Outcome::Failed(err)
        };
    }
    let op = v.get("op").and_then(Value::as_str).unwrap_or("");
    if op != req.kind.as_str() {
        return Outcome::Wrong(format!("expected op {}, got {resp}", req.kind.as_str()));
    }
    if v.get("tenant").and_then(Value::as_str) != Some(req.tenant.as_str()) {
        return Outcome::Wrong(format!("expected tenant {}, got {resp}", req.tenant));
    }
    let mismatch = |what: &str| Outcome::Wrong(format!("{what} differs from reference: {resp}"));
    match &req.expect {
        Expect::Register => Outcome::Ok { ledger_index: None },
        Expect::Embed {
            chosen_pairs,
            eligible_pairs,
            total_change,
        } => {
            if field_u64(&v, "chosen_pairs") != Some(*chosen_pairs as u64)
                || field_u64(&v, "eligible_pairs") != Some(*eligible_pairs as u64)
                || field_u64(&v, "total_change") != Some(*total_change)
            {
                return mismatch("embed report");
            }
            Outcome::Ok { ledger_index: None }
        }
        Expect::Detect {
            accepted,
            accepted_pairs,
            present_pairs,
            total_pairs,
        } => {
            if v.get("accepted").and_then(Value::as_bool) != Some(*accepted)
                || field_u64(&v, "accepted_pairs") != Some(*accepted_pairs as u64)
                || field_u64(&v, "present_pairs") != Some(*present_pairs as u64)
                || field_u64(&v, "total_pairs") != Some(*total_pairs as u64)
            {
                return mismatch("detect verdict");
            }
            Outcome::Ok { ledger_index: None }
        }
        Expect::Maintain { .. } => match field_u64(&v, "ledger_index") {
            Some(i) => Outcome::Ok {
                ledger_index: Some(i),
            },
            None => mismatch("maintain ledger_index"),
        },
    }
}

/// Maintains acknowledged by one server must commit at distinct ledger
/// indices above every index its set-up used. Returns the first
/// violation.
pub fn check_ledger_indices(indices: &[u64], setup_floor: u64) -> Result<(), String> {
    let mut sorted = indices.to_vec();
    sorted.sort_unstable();
    if let Some(&low) = sorted.first() {
        if low <= setup_floor {
            return Err(format!(
                "maintain committed at ledger index {low}, not above the setup's {setup_floor}"
            ));
        }
    }
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("two maintains share ledger index {}", w[0]));
    }
    Ok(())
}
