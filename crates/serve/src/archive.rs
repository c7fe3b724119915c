//! Lossless `RunHistory` ⇄ JSON codec for the knowledge bank.
//!
//! The plain [`Json`] writer serialises non-finite numbers as `null` — fine
//! for report files, fatal for an archive that must round-trip a run
//! *exactly* (a real trace legitimately contains `−∞` scores and NaN
//! metrics from failed simulations, and the surrogates' imputation depends
//! on which is which). The codec therefore writes non-finite values as the
//! tagged strings `"NaN"`, `"Infinity"` and `"-Infinity"`, and the reader
//! accepts numbers, those tags, and `null` (→ NaN, for files written by the
//! lossy writer).

use crate::json::Json;
use kato::{EvalRecord, RunHistory};
use kato_circuits::Metrics;

/// Encodes a number losslessly: finite values as JSON numbers, non-finite
/// ones as tagged strings.
#[must_use]
pub(crate) fn num_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::str("NaN")
    } else if v > 0.0 {
        Json::str("Infinity")
    } else {
        Json::str("-Infinity")
    }
}

/// Decodes a number written by [`num_to_json`] (also tolerating `null` from
/// the lossy writer, which becomes NaN).
///
/// # Errors
///
/// A message naming the unexpected value.
pub(crate) fn num_from_json(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::Null => Ok(f64::NAN),
        Json::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "Infinity" => Ok(f64::INFINITY),
            "-Infinity" => Ok(f64::NEG_INFINITY),
            other => Err(format!("expected number, got string '{other}'")),
        },
        other => Err(format!("expected number, got {other}")),
    }
}

fn nums_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num_to_json(v)).collect())
}

fn nums_from_json(v: &Json, what: &str) -> Result<Vec<f64>, String> {
    v.as_arr()
        .ok_or_else(|| format!("'{what}' is not an array"))?
        .iter()
        .map(num_from_json)
        .collect()
}

/// Serialises a full run trace to the bank's archive schema.
#[must_use]
pub fn history_to_json(history: &RunHistory) -> Json {
    let evals: Vec<Json> = history
        .evals
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("x", nums_to_json(&e.x)),
                ("metrics", nums_to_json(e.metrics.values())),
                ("feasible", Json::Bool(e.feasible)),
                ("score", num_to_json(e.score)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("problem", Json::str(&history.problem)),
        ("method", Json::str(&history.method)),
        ("seed", Json::Num(history.seed as f64)),
        ("evals", Json::Arr(evals)),
    ])
}

/// Deserialises a run trace written by [`history_to_json`].
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn history_from_json(doc: &Json) -> Result<RunHistory, String> {
    let problem = doc
        .get("problem")
        .and_then(Json::as_str)
        .ok_or("missing 'problem'")?;
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or("missing 'method'")?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing 'seed'")?;
    let mut history = RunHistory::new(problem, method, seed);
    let evals = doc
        .get("evals")
        .and_then(Json::as_arr)
        .ok_or("missing 'evals'")?;
    for (i, e) in evals.iter().enumerate() {
        let x = nums_from_json(
            e.get("x").ok_or_else(|| format!("eval {i}: missing 'x'"))?,
            "x",
        )?;
        let metrics = nums_from_json(
            e.get("metrics")
                .ok_or_else(|| format!("eval {i}: missing 'metrics'"))?,
            "metrics",
        )?;
        let feasible = e
            .get("feasible")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("eval {i}: missing 'feasible'"))?;
        let score = num_from_json(
            e.get("score")
                .ok_or_else(|| format!("eval {i}: missing 'score'"))?,
        )?;
        history.evals.push(EvalRecord {
            x,
            metrics: Metrics::new(metrics),
            feasible,
            score,
        });
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> RunHistory {
        let mut h = RunHistory::new("opamp2_180nm", "KATO", 11);
        h.evals.push(EvalRecord {
            x: vec![0.25, 0.5],
            metrics: Metrics::new(vec![42.0, -3.5]),
            feasible: true,
            score: -42.0,
        });
        // An infeasible, NaN-metric row: the case the tagged encoding exists for.
        h.evals.push(EvalRecord {
            x: vec![0.1, 0.9],
            metrics: Metrics::new(vec![f64::NAN, f64::INFINITY]),
            feasible: false,
            score: f64::NEG_INFINITY,
        });
        h
    }

    #[test]
    fn roundtrip_preserves_everything_including_non_finite() {
        let h = sample_history();
        let text = history_to_json(&h).to_string();
        let back = history_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.problem, h.problem);
        assert_eq!(back.method, h.method);
        assert_eq!(back.seed, h.seed);
        assert_eq!(back.evals.len(), 2);
        assert_eq!(back.evals[0].x, h.evals[0].x);
        assert_eq!(back.evals[0].metrics.values(), h.evals[0].metrics.values());
        assert!(back.evals[0].feasible);
        assert_eq!(back.evals[0].score, -42.0);
        assert!(back.evals[1].metrics.get(0).is_nan());
        assert_eq!(back.evals[1].metrics.get(1), f64::INFINITY);
        assert!(!back.evals[1].feasible);
        assert_eq!(back.evals[1].score, f64::NEG_INFINITY);
    }

    #[test]
    fn num_codec_tags_non_finite() {
        assert_eq!(num_to_json(1.5), Json::Num(1.5));
        assert_eq!(num_to_json(f64::NAN), Json::str("NaN"));
        assert_eq!(num_to_json(f64::INFINITY), Json::str("Infinity"));
        assert_eq!(num_to_json(f64::NEG_INFINITY), Json::str("-Infinity"));
        assert!(num_from_json(&Json::Null).unwrap().is_nan());
        assert!(num_from_json(&Json::str("bogus")).is_err());
        assert!(num_from_json(&Json::Bool(true)).is_err());
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        for bad in [
            "{}",
            r#"{"problem":"p","method":"m"}"#,
            r#"{"problem":"p","method":"m","seed":1,"evals":[{}]}"#,
            r#"{"problem":"p","method":"m","seed":1,"evals":[{"x":[0.1],"metrics":"nope","feasible":true,"score":0}]}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(history_from_json(&doc).is_err(), "accepted {bad}");
        }
    }
}
