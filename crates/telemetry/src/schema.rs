//! A JSON-Schema-subset validator for the telemetry stream.
//!
//! CI's telemetry-smoke job validates every emitted JSONL line against
//! the committed `docs/telemetry.schema.json`; `mmctl check` does
//! the same locally. The subset understood here is exactly what that
//! schema uses:
//!
//! - `type`: `object`, `array`, `string`, `integer`, `number`,
//!   `boolean`, `null` (a JSON integer also satisfies `number`)
//! - `properties` + `required` + `additionalProperties: false`
//! - `items` (single-schema form) for arrays
//! - `minimum` / `maximum` for numeric values
//! - `const` for pinned values (the stream version)
//! - `minItems` / `maxItems` for arrays
//!
//! Unknown keywords are ignored, as JSON Schema prescribes.

use crate::json::JsonValue;

/// Validate `value` against `schema`. Returns every violation found
/// (empty = valid); each message carries a JSON-pointer-style path.
#[must_use]
pub fn validate(schema: &JsonValue, value: &JsonValue) -> Vec<String> {
    let mut errors = Vec::new();
    check(schema, value, "$", &mut errors);
    errors
}

fn check(schema: &JsonValue, value: &JsonValue, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type").and_then(JsonValue::as_str) {
        if !type_matches(ty, value) {
            errors.push(format!("{path}: expected {ty}, got {}", value.type_name()));
            return; // further keyword checks assume the right shape
        }
    }

    if let Some(want) = schema.get("const") {
        if !const_eq(want, value) {
            errors.push(format!("{path}: value does not match const"));
        }
    }

    if let Some(n) = value.as_f64() {
        if let Some(min) = schema.get("minimum").and_then(JsonValue::as_f64) {
            if n < min {
                errors.push(format!("{path}: {n} < minimum {min}"));
            }
        }
        if let Some(max) = schema.get("maximum").and_then(JsonValue::as_f64) {
            if n > max {
                errors.push(format!("{path}: {n} > maximum {max}"));
            }
        }
    }

    if let JsonValue::Object(members) = value {
        if let Some(JsonValue::Array(req)) = schema.get("required") {
            for r in req {
                if let Some(name) = r.as_str() {
                    if value.get(name).is_none() {
                        errors.push(format!("{path}: missing required property '{name}'"));
                    }
                }
            }
        }
        let props = schema.get("properties");
        for (k, v) in members {
            match props.and_then(|p| p.get(k)) {
                Some(sub) => check(sub, v, &format!("{path}.{k}"), errors),
                None => {
                    if schema
                        .get("additionalProperties")
                        .and_then(JsonValue::as_bool)
                        == Some(false)
                    {
                        errors.push(format!("{path}: unexpected property '{k}'"));
                    }
                }
            }
        }
    }

    if let JsonValue::Array(items) = value {
        if let Some(min) = schema.get("minItems").and_then(JsonValue::as_u64) {
            if (items.len() as u64) < min {
                errors.push(format!("{path}: {} items < minItems {min}", items.len()));
            }
        }
        if let Some(max) = schema.get("maxItems").and_then(JsonValue::as_u64) {
            if (items.len() as u64) > max {
                errors.push(format!("{path}: {} items > maxItems {max}", items.len()));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item_schema, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

fn type_matches(ty: &str, value: &JsonValue) -> bool {
    match ty {
        "object" => matches!(value, JsonValue::Object(_)),
        "array" => matches!(value, JsonValue::Array(_)),
        "string" => matches!(value, JsonValue::Str(_)),
        "boolean" => matches!(value, JsonValue::Bool(_)),
        "null" => matches!(value, JsonValue::Null),
        "integer" => matches!(value, JsonValue::Num(_, true)),
        "number" => matches!(value, JsonValue::Num(_, _)),
        _ => true, // unknown type names never fail (permissive subset)
    }
}

fn const_eq(want: &JsonValue, got: &JsonValue) -> bool {
    match (want, got) {
        // Compare numerics by value so `"const": 1` matches both 1 and 1.0.
        (JsonValue::Num(a, _), JsonValue::Num(b, _)) => (a - b).abs() < f64::EPSILON,
        _ => want == got,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const LINE_SCHEMA: &str = r#"{
        "type": "object",
        "required": ["v", "epoch", "shard_steps"],
        "additionalProperties": false,
        "properties": {
            "v": {"type": "integer", "const": 1},
            "epoch": {"type": "integer", "minimum": 0},
            "rate": {"type": "number", "minimum": 0, "maximum": 1},
            "shard_steps": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 0}}
        }
    }"#;

    #[test]
    fn accepts_conforming_record() {
        let schema = parse(LINE_SCHEMA).unwrap();
        let v = parse(r#"{"v":1,"epoch":0,"rate":0.5,"shard_steps":[10,20]}"#).unwrap();
        assert!(validate(&schema, &v).is_empty());
    }

    #[test]
    fn integer_satisfies_number_but_not_vice_versa() {
        let schema = parse(r#"{"type": "number"}"#).unwrap();
        assert!(validate(&schema, &parse("3").unwrap()).is_empty());
        let int_schema = parse(r#"{"type": "integer"}"#).unwrap();
        let errs = validate(&int_schema, &parse("3.5").unwrap());
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("expected integer"));
    }

    #[test]
    fn reports_missing_required_and_unknown_properties() {
        let schema = parse(LINE_SCHEMA).unwrap();
        let v = parse(r#"{"v":1,"epoch":3,"bogus":true}"#).unwrap();
        let errs = validate(&schema, &v);
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required property 'shard_steps'")));
        assert!(errs
            .iter()
            .any(|e| e.contains("unexpected property 'bogus'")));
    }

    #[test]
    fn enforces_bounds_const_and_items() {
        let schema = parse(LINE_SCHEMA).unwrap();
        let v = parse(r#"{"v":2,"epoch":1,"rate":1.5,"shard_steps":[]}"#).unwrap();
        let errs = validate(&schema, &v);
        assert!(errs.iter().any(|e| e.contains("does not match const")));
        assert!(errs.iter().any(|e| e.contains("> maximum")));
        assert!(errs.iter().any(|e| e.contains("minItems")));

        let bad_item = parse(r#"{"v":1,"epoch":1,"shard_steps":[1,-2]}"#).unwrap();
        let errs = validate(&schema, &bad_item);
        assert!(errs.iter().any(|e| e.contains("shard_steps[1]")));
    }

    const COMMITTED: &str = include_str!("../../../docs/telemetry.schema.json");

    #[test]
    fn committed_stream_schema_accepts_real_line() {
        // The schema file CI uses must accept what export.rs writes.
        let schema = parse(COMMITTED).unwrap();
        let mut line = String::new();
        crate::export::write_jsonl_line(&crate::export::fixture(), &mut line);
        let v = parse(line.trim_end()).unwrap();
        let errs = validate(&schema, &v);
        assert!(errs.is_empty(), "schema rejected a real line: {errs:?}");
    }

    /// The committed schema lists exactly the table's columns, in
    /// order, typed by kind, at the current stream version.
    #[test]
    fn committed_schema_matches_the_column_table() {
        let schema = parse(COMMITTED).unwrap();
        let keys = crate::export::jsonl_keys();
        let Some(JsonValue::Array(required)) = schema.get("required") else {
            panic!("schema has no required list");
        };
        let required: Vec<&str> = required.iter().filter_map(JsonValue::as_str).collect();
        assert_eq!(required, keys, "required lists every key in order");
        let Some(JsonValue::Object(props)) = schema.get("properties") else {
            panic!("schema has no properties object");
        };
        let kind_type = |key: &str| match crate::COLUMNS.iter().find(|c| c.name == key) {
            Some(c) if c.kind == crate::ColumnKind::Rate => "number",
            _ if key == "shard_steps" => "array",
            _ => "integer",
        };
        let mut want: Vec<_> = keys.iter().map(|&k| (k, Some(kind_type(k)))).collect();
        let mut got: Vec<_> = props
            .iter()
            .map(|(k, p)| (k.as_str(), p.get("type").and_then(JsonValue::as_str)))
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "properties: every key, typed by its kind");
        let v = schema.get("properties").and_then(|p| p.get("v")).unwrap();
        let version = v.get("const").and_then(JsonValue::as_u64);
        assert_eq!(version, Some(crate::STREAM_VERSION), "v const");
    }
}
