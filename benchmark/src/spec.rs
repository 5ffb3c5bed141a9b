//! `BENCHMARK.json`, read at compile time: the one place that names the
//! workloads, the metrics, their units and their bounds. The binary emits
//! exactly what the file declares and fails if it cannot.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(include_str!("../../BENCHMARK.json"))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: doc
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        if spec.workloads.is_empty() || spec.end_to_end.is_empty() || spec.per_layer.is_empty() {
            return Err(
                "BENCHMARK.json: workloads, end_to_end and per_layer must be non-empty".into(),
            );
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_parses_and_is_consistent() {
        let spec = Spec::load().unwrap();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for (name, _) in &spec.workloads {
            assert!(
                crate::workloads::NAMES.contains(&name.as_str()),
                "{name} has no driver"
            );
        }
    }
}
