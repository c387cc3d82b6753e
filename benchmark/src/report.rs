//! The metric catalog and the result line.
//!
//! The catalog is `BENCHMARK.json` at the repository root, compiled in:
//! its `end_to_end` and `per_layer` lists give every metric's name and
//! unit, so the names are written down once. Every run prints every
//! metric of its class: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A per-layer metric of a layer the
//! workload never calls reads 0.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use newtond::json::{self, Value};

/// The benchmark's contract file.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// The metric catalog: (name, unit) per class, in contract order.
pub struct Catalog {
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics from the traced run.
    pub per_layer: Vec<(String, String)>,
}

impl Catalog {
    fn parse(contract: &str) -> Result<Catalog, String> {
        let doc = json::parse(contract).map_err(|e| e.to_string())?;
        let class = |key: &str| -> Result<Vec<(String, String)>, String> {
            let list = doc.get(key).and_then(Value::as_array).ok_or(format!("no {key} list"))?;
            list.iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).map(String::from);
                    field("name").zip(field("unit")).ok_or(format!("{key} entry without name/unit"))
                })
                .collect()
        };
        Ok(Catalog { end_to_end: class("end_to_end")?, per_layer: class("per_layer")? })
    }

    fn knows(&self, name: &str) -> bool {
        self.end_to_end.iter().chain(&self.per_layer).any(|(n, _)| n == name)
    }
}

/// The catalog of `BENCHMARK.json`.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| Catalog::parse(CONTRACT).expect("BENCHMARK.json lists the metrics"))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted and failed inside the measured region.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(catalog().knows(&name), "metric {name} is not in BENCHMARK.json");
        self.metrics.insert(name, value);
    }

    /// The result line: the class's metrics in catalog order. A missing
    /// end-to-end metric is a bug in the workload and panics.
    pub fn to_json(&self, traced: bool) -> String {
        let class = if traced { &catalog().per_layer } else { &catalog().end_to_end };
        let metrics: Vec<String> = class
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement. JSON has no
/// infinity, and a failed op makes a latency tail infinite, so that
/// renders as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        format!("{:e}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let c = catalog();
        assert!(c.end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn traced_lines_fill_unused_layers_with_zero() {
        let mut o = Outcome { correct: true, attempted: 3, ..Outcome::default() };
        o.set("net.deliver_s", 1.25);
        let line = o.to_json(true);
        assert!(line.contains("\"net.deliver_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"query.parse_us\": {\"value\": 0.0, \"unit\": \"us\"}"));
        assert!(!line.contains("setup_s"));
    }

    #[test]
    fn infinite_tails_stay_valid_json_numbers() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
    }
}
