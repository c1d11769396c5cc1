//! Golden records for the default seed, written by `bwbench bless` and
//! checked by every run at that seed.
//!
//! A golden file is `{seed, rel_tol, record}`. Records are compared
//! structurally: integers and strings (the `SimStats` counters, the
//! paper text's digest) must match exactly, floats (energies) within
//! `rel_tol` relative — so a speed-up that only reorders float sums
//! still passes while any simulated event count change does not.

use std::path::{Path, PathBuf};

use serde::Value;

/// Relative tolerance blessed into new golden files.
pub const REL_TOL: f64 = 1e-9;

/// FNV-1a, the repo's stable content hash, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Where the golden record of `workload` lives.
pub fn path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

/// Reads the tolerance field of a golden file: a finite number in
/// `(0, 1)`.
pub fn parse_tolerance(v: Option<&Value>) -> Result<f64, String> {
    let tol = match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(n)) => *n as f64,
        Some(other) => return Err(format!("rel_tol must be a number, got {other:?}")),
        None => return Err("golden file has no rel_tol".into()),
    };
    if tol.is_finite() && tol > 0.0 && tol < 1.0 {
        Ok(tol)
    } else {
        Err(format!("rel_tol {tol} is outside (0, 1)"))
    }
}

/// The golden file body for `record` at `seed`.
pub fn file_value(seed: u64, record: Value) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::U64(seed)),
        ("rel_tol".into(), Value::F64(REL_TOL)),
        ("record".into(), record),
    ])
}

/// Checks `actual` against the golden file text; `Err` names the first
/// difference.
pub fn check(text: &str, seed: u64, actual: &Value) -> Result<(), String> {
    let file = serde_json::parse_value_str(text).map_err(|e| format!("golden file: {}", e.0))?;
    if file.get("seed") != Some(&Value::U64(seed)) {
        return Err(format!("golden file is not for seed {seed}"));
    }
    let tol = parse_tolerance(file.get("rel_tol"))?;
    let expected = file.get("record").ok_or("golden file has no record")?;
    diff(expected, actual, tol, "record")
}

fn diff(expected: &Value, actual: &Value, tol: f64, at: &str) -> Result<(), String> {
    match (expected, actual) {
        (Value::F64(e), Value::F64(a)) => {
            if (e - a).abs() <= tol * e.abs().max(a.abs()) {
                Ok(())
            } else {
                Err(format!("{at}: {a} differs from golden {e} beyond {tol:e}"))
            }
        }
        (Value::Arr(e), Value::Arr(a)) => {
            if e.len() != a.len() {
                return Err(format!("{at}: {} items, golden has {}", a.len(), e.len()));
            }
            for (i, (e, a)) in e.iter().zip(a).enumerate() {
                diff(e, a, tol, &format!("{at}[{i}]"))?;
            }
            Ok(())
        }
        (Value::Obj(e), Value::Obj(a)) => {
            if e.len() != a.len() {
                return Err(format!("{at}: {} fields, golden has {}", a.len(), e.len()));
            }
            for ((ek, ev), (ak, av)) in e.iter().zip(a) {
                if ek != ak {
                    return Err(format!("{at}: field `{ak}` where golden has `{ek}`"));
                }
                diff(ev, av, tol, &format!("{at}.{ek}"))?;
            }
            Ok(())
        }
        (e, a) if e == a => Ok(()),
        (e, a) => Err(format!("{at}: {a:?} differs from golden {e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_must_be_a_small_positive_number() {
        assert_eq!(parse_tolerance(Some(&Value::F64(1e-9))), Ok(1e-9));
        let parsed = serde_json::parse_value_str(r#"{"rel_tol": 1e-9}"#).expect("json");
        assert_eq!(parse_tolerance(parsed.get("rel_tol")), Ok(1e-9));
        assert!(parse_tolerance(Some(&Value::F64(0.0))).is_err());
        assert!(parse_tolerance(Some(&Value::F64(-1e-9))).is_err());
        assert!(parse_tolerance(Some(&Value::F64(f64::NAN))).is_err());
        assert!(parse_tolerance(Some(&Value::U64(2))).is_err());
        assert!(parse_tolerance(Some(&Value::Str("1e-9".into()))).is_err());
        assert!(parse_tolerance(None).is_err());
    }

    fn cell(cycles: u64, energy: f64) -> Value {
        Value::Obj(vec![
            (
                "stats".into(),
                Value::Obj(vec![("cycles".into(), Value::U64(cycles))]),
            ),
            ("energy_j".into(), Value::Arr(vec![Value::F64(energy)])),
        ])
    }

    #[test]
    fn counts_are_exact_and_energies_are_relative() {
        let golden = serde_json::to_string(&file_value(1, Value::Arr(vec![cell(1000, 2.5e-3)])))
            .expect("render");
        let nudged = 2.5e-3 * (1.0 + 1e-12);
        assert_eq!(
            check(&golden, 1, &Value::Arr(vec![cell(1000, nudged)])),
            Ok(())
        );
        let far = 2.5e-3 * (1.0 + 1e-6);
        assert!(check(&golden, 1, &Value::Arr(vec![cell(1000, far)])).is_err());
        let err = check(&golden, 1, &Value::Arr(vec![cell(1001, 2.5e-3)])).unwrap_err();
        assert!(err.contains("record[0].stats.cycles"), "{err}");
        assert!(check(&golden, 2, &Value::Arr(vec![cell(1000, 2.5e-3)])).is_err());
        assert!(check(&golden, 1, &Value::Arr(vec![])).is_err());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
