//! Golden request corpus for `proto::plan`: every line's echoed id, op,
//! tenant, decoded data (histogram entries in rank order, tokens or
//! updates), protocol-set params, timeout and trace — or the exact
//! error string. Malformed JSON pins only the documented `bad json: `
//! prefix; the rest of that message is diagnostic text.
//!
//! Any rewrite of the request decoder must leave every expected value
//! here unchanged.

use freqywm_service::proto::json::{self, Value};
use freqywm_service::proto::{plan, Planned};
use freqywm_service::{JobData, JobPayload};

/// Expected value for a line that is not valid JSON.
const BAD_JSON: &str = "<bad json>";

fn data(d: &JobData) -> String {
    match d {
        JobData::Histogram(h) => {
            let e: Vec<String> = h
                .entries()
                .iter()
                .map(|(t, c)| format!("{:?}:{c}", t.as_str()))
                .collect();
            format!("h[{}]", e.join(","))
        }
        JobData::Tokens(ts) => {
            let e: Vec<String> = ts.iter().map(|t| format!("{:?}", t.as_str())).collect();
            format!("t[{}]", e.join(","))
        }
    }
}

/// One canonical text per plan outcome.
fn describe(line: &str) -> String {
    let (id, planned) = plan(line);
    let id = id.map_or("-".to_string(), |v| json::write(&v));
    let body = match planned {
        Err(e) if e.starts_with("bad json: ") && id == "-" => return BAD_JSON.to_string(),
        Err(e) => format!("err {e}"),
        Ok(Planned::Shutdown) => "shutdown".to_string(),
        Ok(Planned::Op(req)) => format!(
            "op {} tenant={:?}",
            req.get("op").and_then(Value::as_str).unwrap_or("?"),
            req.get("tenant").and_then(Value::as_str)
        ),
        Ok(Planned::Job(spec)) => {
            let job = match &spec.payload {
                JobPayload::Embed {
                    tenant,
                    data: d,
                    params,
                } => format!(
                    "embed {tenant:?} {} budget={} z={} xfree={}",
                    data(d),
                    params.budget_pct,
                    params.z,
                    params.exclude_free_pairs
                ),
                JobPayload::Detect {
                    tenant,
                    data: d,
                    params,
                } => format!(
                    "detect {tenant:?} {} t={} k={} scale={:?}",
                    data(d),
                    params.t,
                    params.k,
                    params.scale
                ),
                JobPayload::Maintain {
                    tenant,
                    updates,
                    replenish,
                } => {
                    let u: Vec<String> = updates
                        .iter()
                        .map(|(t, d)| format!("{:?}:{d}", t.as_str()))
                        .collect();
                    format!(
                        "maintain {tenant:?} u[{}] replenish={replenish}",
                        u.join(",")
                    )
                }
            };
            format!("{job} timeout={:?} trace={:?}", spec.timeout, spec.trace)
        }
    };
    format!("id={id} {body}")
}

fn check(cases: &[(&str, &str)]) {
    let mut failures = Vec::new();
    for (line, want) in cases {
        let got = describe(line);
        if got != *want {
            failures.push(format!("line: {line}\n want: {want}\n  got: {got}"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn job_ops_decode_their_bulk_arrays() {
    check(&[
        (
            r#"{"op":"detect","tenant":"t","counts":[["b",3],["a",5],["c",3]],"id":1}"#,
            r#"id=1 detect "t" h["a":5,"b":3,"c":3] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","tokens":["x","y","x"],"id":"s"}"#,
            r#"id="s" detect "t" t["x","y","x"] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"embed","tenant":"e","counts":[["a",9],["b",4]],"budget":3.5,"z":101,"exclude_free_pairs":true,"timeout_ms":250,"trace":"tr-1"}"#,
            r#"id=- embed "e" h["a":9,"b":4] budget=3.5 z=101 xfree=true timeout=Some(250ms) trace=Some("tr-1")"#,
        ),
        (
            r#"{"op":"embed","tenant":"e","tokens":[]}"#,
            r#"id=- embed "e" t[] budget=2 z=131 xfree=false timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[],"t":3,"k":2,"scale":1.5}"#,
            r#"id=- detect "t" h[] t=3 k=2 scale=Some(1.5) timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1]],"t":-1,"k":2.5,"scale":"x","timeout_ms":-4}"#,
            r#"id=- detect "t" h["a":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",-3],["b",2.0],["c",0]],"replenish":true,"timeout_ms":9,"trace":"tm"}"#,
            r#"id=- maintain "m" u["a":-3,"b":2,"c":0] replenish=true timeout=None trace=Some("tm")"#,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",1],["a",2]]}"#,
            r#"id=- maintain "m" u["a":1,"a":2] replenish=false timeout=None trace=None"#,
        ),
        // `counts` wins over `tokens` when both are present.
        (
            r#"{"op":"detect","tenant":"t","tokens":["z"],"counts":[["a",2]]}"#,
            r#"id=- detect "t" h["a":2] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        // Whitespace everywhere JSON allows it.
        (
            " { \"op\" : \"detect\" , \"tenant\" : \"t\" , \"counts\" : [ [ \"a\" , 7 ] , [\"b\",1] ] } ",
            r#"id=- detect "t" h["a":7,"b":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
    ]);
}

#[test]
fn keys_in_any_order_and_first_duplicate_wins() {
    check(&[
        (
            r#"{"counts":[["a",2]],"id":7,"tenant":"t","op":"detect"}"#,
            r#"id=7 detect "t" h["a":2] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"updates":[["a",1]],"op":"maintain","tenant":"m"}"#,
            r#"id=- maintain "m" u["a":1] replenish=false timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","op":"embed","tenant":"a","tenant":"b","id":1,"id":2,"counts":[]}"#,
            r#"id=1 detect "a" h[] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        // `counts` once as an array and once as a scalar, both orders.
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1]],"counts":5}"#,
            r#"id=- detect "t" h["a":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":5,"counts":[["a",1]]}"#,
            "id=- err counts must be an array",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1]],"counts":[["b",2],["b",3]]}"#,
            r#"id=- detect "t" h["a":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","tokens":"a","tokens":["b"]}"#,
            "id=- err tokens must be an array",
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":null,"updates":[["a",1]]}"#,
            "id=- err updates must be an array",
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",1]],"updates":{}}"#,
            r#"id=- maintain "m" u["a":1] replenish=false timeout=None trace=None"#,
        ),
        // A scalar `counts` shadows a `tokens` array.
        (
            r#"{"op":"detect","tenant":"t","counts":{},"tokens":["a"]}"#,
            "id=- err counts must be an array",
        ),
    ]);
}

#[test]
fn token_text_escapes_and_non_ascii() {
    check(&[
        (
            r#"{"op":"detect","tenant":"t\"q","counts":[["a\"b",6],["c\\d",5],["e\/f",4],["tab\there",3],["nl\nx",2],["\b\f\r",1]]}"#,
            r#"id=- detect "t\"q" h["a\"b":6,"c\\d":5,"e/f":4,"tab\there":3,"nl\nx":2,"\u{8}\u{c}\r":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["été",3],["naïve",2],["日本",1],["\u0000",0]]}"#,
            r#"id=- detect "t" h["été":3,"naïve":2,"日本":1,"\0":0] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","tokens":["日","日","xA"]}"#,
            r#"id=- detect "t" t["日","日","xA"] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        // An escaped and a literal spelling of one token collide.
        (
            r#"{"op":"detect","tenant":"t","counts":[["A",1],["\u0041",2]]}"#,
            r#"id=- err duplicate token "A" in counts"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["\ud800",1]]}"#,
            BAD_JSON,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["\x",1]]}"#,
            BAD_JSON,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["\u12",1]]}"#,
            BAD_JSON,
        ),
    ]);
}

#[test]
fn count_and_delta_values() {
    check(&[
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1e300],["b",2.0],["c",1e2],["d",-0],["e",007]]}"#,
            r#"id=- detect "t" h["a":18446744073709551615,"c":100,"e":7,"b":2,"d":0] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",9007199254740993]]}"#,
            r#"id=- detect "t" h["a":9007199254740992] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",-1]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1.5]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a","5"]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",null]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",[1]]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",1e300],["b",-1e300],["c",-0]]}"#,
            r#"id=- maintain "m" u["a":9223372036854775807,"b":-9223372036854775808,"c":0] replenish=false timeout=None trace=None"#,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",0.5]]}"#,
            "id=- err delta must be an integer",
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a",true]]}"#,
            "id=- err delta must be an integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1.]]}"#,
            r#"id=- detect "t" h["a":1] t=0 k=1 scale=None timeout=None trace=None"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1-]]}"#,
            BAD_JSON,
        ),
    ]);
}

#[test]
fn duplicate_tokens_and_the_first_error_in_order() {
    check(&[
        (
            r#"{"op":"embed","tenant":"d","counts":[["a",500],["a",300],["b",100]]}"#,
            r#"id=- err duplicate token "a" in counts"#,
        ),
        // The earliest failing entry decides the message.
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["b",1],["b",2],[1,2],["a",3]]}"#,
            r#"id=- err duplicate token "b" in counts"#,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],[1,2],["a",3]]}"#,
            "id=- err counts entries must be [token, count]",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["a",-1]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["b",-1],["a",2]]}"#,
            "id=- err count must be a non-negative integer",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["c",2],["b",3],["c",4],["b",5]]}"#,
            r#"id=- err duplicate token "c" in counts"#,
        ),
    ]);
}

#[test]
fn wrong_entry_shapes() {
    let shape = "id=- err counts entries must be [token, count]";
    let ushape = "id=- err updates entries must be [token, delta]";
    check(&[
        (r#"{"op":"detect","tenant":"t","counts":[["a"]]}"#, shape),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1,2]]}"#,
            shape,
        ),
        (r#"{"op":"detect","tenant":"t","counts":[[1,"a"]]}"#, shape),
        (r#"{"op":"detect","tenant":"t","counts":[[]]}"#, shape),
        (r#"{"op":"detect","tenant":"t","counts":["a"]}"#, shape),
        (r#"{"op":"detect","tenant":"t","counts":[5]}"#, shape),
        (r#"{"op":"detect","tenant":"t","counts":[{"a":1}]}"#, shape),
        (
            r#"{"op":"detect","tenant":"t","counts":[[["a"],1]]}"#,
            shape,
        ),
        (r#"{"op":"detect","tenant":"t","counts":[null]}"#, shape),
        (
            r#"{"op":"maintain","tenant":"m","updates":[["a"]]}"#,
            ushape,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":[[2,2]]}"#,
            ushape,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":["a",1]}"#,
            ushape,
        ),
        (
            r#"{"op":"detect","tenant":"t","tokens":["a",1]}"#,
            "id=- err tokens entries must be strings",
        ),
        (
            r#"{"op":"detect","tenant":"t","tokens":[["a"]]}"#,
            "id=- err tokens entries must be strings",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":"a"}"#,
            "id=- err counts must be an array",
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":null,"id":3}"#,
            "id=3 err counts must be an array",
        ),
        (
            r#"{"op":"detect","tenant":"t"}"#,
            r#"id=- err request needs "counts" or "tokens""#,
        ),
        (
            r#"{"op":"maintain","tenant":"m","counts":[["a",1]]}"#,
            r#"id=- err missing "updates""#,
        ),
        (
            r#"{"op":"maintain","tenant":"m","updates":7}"#,
            "id=- err updates must be an array",
        ),
        // Tenant is checked before the data.
        (
            r#"{"op":"detect","counts":5,"id":"x"}"#,
            r#"id="x" err missing string field "tenant""#,
        ),
        (
            r#"{"op":"embed","tenant":3,"counts":[["a",1]]}"#,
            r#"id=- err missing string field "tenant""#,
        ),
    ]);
}

#[test]
fn non_job_ops_and_missing_ops() {
    check(&[
        (
            r#"{"op":"metrics","counts":[["a",1],["a",2]],"id":4}"#,
            "id=4 op metrics tenant=None",
        ),
        (
            r#"{"op":"register","tenant":"r","tokens":["x",1],"updates":[[]]}"#,
            r#"id=- op register tenant=Some("r")"#,
        ),
        (
            r#"{"counts":[[1]],"op":"quota","tenant":"q","embed":3}"#,
            r#"id=- op quota tenant=Some("q")"#,
        ),
        (r#"{"op":"shutdown","updates":[1,2]}"#, "id=- shutdown"),
        (r#"{"op":"hello","id":"h"}"#, r#"id="h" op hello tenant=None"#),
        (
            r#"{"op":"fly","counts":[]}"#,
            r#"id=- err unknown op "fly""#,
        ),
        (
            r#"{"counts":[["a",1]],"id":2}"#,
            r#"id=2 err missing string field "op""#,
        ),
        (r#"{"op":5}"#, r#"id=- err missing string field "op""#),
        (r#"{}"#, r#"id=- err missing string field "op""#),
        (r#"[["a",1]]"#, r#"id=- err missing string field "op""#),
        (r#""detect""#, r#"id=- err missing string field "op""#),
        (r#"null"#, r#"id=- err missing string field "op""#),
        (
            r#"{"op":"metrics","id":[1,{"a":null}]}"#,
            r#"id=[1,{"a":null}] op metrics tenant=None"#,
        ),
        (
            r#"{"op":"metrics","id":-2.5e1}"#,
            "id=-25 op metrics tenant=None",
        ),
        (
            r#"{"op":"metrics","id":1e300}"#,
            "id=1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 op metrics tenant=None",
        ),
    ]);
}

#[test]
fn malformed_json() {
    check(&[
        ("", BAD_JSON),
        ("not json", BAD_JSON),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["b",2]"#,
            BAD_JSON,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],["b",2]]"#,
            BAD_JSON,
        ),
        (r#"{"op":"detect","tenant":"t","counts":[["a"#, BAD_JSON),
        (r#"{"op":"detect","tenant":"t","counts":[["a\"#, BAD_JSON),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1],]}"#,
            BAD_JSON,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1]}"#,
            BAD_JSON,
        ),
        (
            r#"{"op":"detect","tenant":"t","counts":[["a",1]]} x"#,
            BAD_JSON,
        ),
        (r#"{"op":"metrics"}{"op":"metrics"}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[1,}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[tru]}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[nul]}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[1 2]}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[{"a"}]}"#, BAD_JSON),
        (r#"{"op":"metrics","counts":[{1:2}]}"#, BAD_JSON),
        (r#"{"op":"metrics","tokens":["a",]}"#, BAD_JSON),
        (r#"{"op":"metrics","tokens":["a"],}"#, BAD_JSON),
        (r#"{"op":"metrics" "id":1}"#, BAD_JSON),
        (r#"{"op":"metrics","id":1"#, BAD_JSON),
        (r#"{"op":"metrics","id":--1}"#, BAD_JSON),
        // Trailing whitespace is not trailing bytes.
        ("{\"op\":\"metrics\"} \t\r\n", "id=- op metrics tenant=None"),
    ]);
}

/// `n` nested arrays around `inner`.
fn nest(n: usize, inner: &str) -> String {
    "[".repeat(n) + inner + &"]".repeat(n)
}

#[test]
fn nesting_inside_bulk_arrays_is_capped_at_128() {
    let line = |key: &str, counts: String| {
        format!(r#"{{"op":"detect","tenant":"t","{key}":{counts},"id":1}}"#)
    };
    // The request object is level 1, so `counts` may open 127 more.
    check(&[
        (
            &line("counts", nest(127, "0")),
            "id=1 err counts entries must be [token, count]",
        ),
        (&line("counts", nest(128, "0")), BAD_JSON),
        (
            &line("counts", format!(r#"[["a",{}]]"#, nest(125, "1"))),
            "id=1 err count must be a non-negative integer",
        ),
        (
            &line("counts", format!(r#"[["a",{}]]"#, nest(126, "1"))),
            BAD_JSON,
        ),
        (
            &line("tokens", nest(127, r#""a""#)),
            "id=1 err tokens entries must be strings",
        ),
        (&line("tokens", nest(128, r#""a""#)), BAD_JSON),
        (
            &format!(
                r#"{{"op":"maintain","tenant":"m","updates":[["a",1],{}]}}"#,
                nest(126, "")
            ),
            "id=- err updates entries must be [token, delta]",
        ),
        (
            &format!(
                r#"{{"op":"maintain","tenant":"m","updates":[["a",1],{}]}}"#,
                nest(127, "")
            ),
            BAD_JSON,
        ),
        // The same cap holds outside the bulk arrays.
        (
            &format!(r#"{{"op":"metrics","pad":{}}}"#, nest(127, "")),
            "id=- op metrics tenant=None",
        ),
        (
            &format!(r#"{{"op":"metrics","pad":{}}}"#, nest(128, "")),
            BAD_JSON,
        ),
        (
            &format!(r#"{{"op":"metrics","counts":{}}}"#, nest(100_000, "")),
            BAD_JSON,
        ),
    ]);
}

#[test]
fn paper_scale_counts_keep_every_entry_in_rank_order() {
    let n = 1000;
    let entries: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("tk{i:04}"), 5000 - 3 * i as u64))
        .collect();
    // Sent in reverse (ascending) order; the histogram ranks them.
    let counts: Vec<String> = entries
        .iter()
        .rev()
        .map(|(t, c)| format!("[\"{t}\",{c}]"))
        .collect();
    let want_h: Vec<String> = entries.iter().map(|(t, c)| format!("{t:?}:{c}")).collect();
    let line = format!(
        r#"{{"counts":[{}],"tenant":"big","t":2,"op":"detect","id":99}}"#,
        counts.join(",")
    );
    let want = format!(
        r#"id=99 detect "big" h[{}] t=2 k=1 scale=None timeout=None trace=None"#,
        want_h.join(",")
    );
    check(&[(&line, &want)]);

    // One duplicate at the very end still fails the whole request.
    let dup = format!(
        r#"{{"op":"embed","tenant":"big","counts":[{},["tk0000",1]]}}"#,
        counts.join(",")
    );
    check(&[(&dup, r#"id=- err duplicate token "tk0000" in counts"#)]);

    // A truncated paper-scale line is malformed JSON, not a short one.
    let cut = &line[..line.len() / 2];
    check(&[(cut, BAD_JSON)]);
}
