//! Named counter / gauge registry with deterministic serialization.

use std::collections::BTreeMap;

use bpp_json::{Json, ToJson};

/// A registry of monotonically increasing counters and last-value gauges.
///
/// Keys are plain dotted strings (`"server.push_slots"`) in `BTreeMap`s,
/// so iteration — and therefore JSON output — is in sorted key order,
/// independent of insertion order. Reports are filled once at the end of a
/// run; per-event counting lives in the owners' own fields (see
/// [`EngineObs`](crate::EngineObs)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by one (creating it at zero first).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `by` (creating it at zero first).
    pub fn add(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if it has been set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// True when no counter or gauge has ever been written (`add(name, 0)`
    /// counts as a write).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Iterate counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::object([("counters", counters), ("gauges", gauges)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let mut m = Metrics::new();
        assert_eq!(m.gauge_value("g"), None);
        m.gauge("g", 1.5);
        m.gauge("g", -2.0);
        assert_eq!(m.gauge_value("g"), Some(-2.0));
    }

    #[test]
    fn json_is_sorted_by_key_regardless_of_insertion_order() {
        let mut m = Metrics::new();
        m.inc("zeta");
        m.inc("alpha");
        m.gauge("mid", 0.25);
        let text = bpp_json::to_string(&m);
        assert_eq!(
            text,
            r#"{"counters":{"alpha":1,"zeta":1},"gauges":{"mid":0.25}}"#
        );
    }

    #[test]
    fn iterators_walk_sorted_keys() {
        let mut m = Metrics::new();
        m.inc("b");
        m.inc("a");
        m.gauge("g", 1.0);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(m.gauges().next(), Some(("g", 1.0)));
    }

    #[test]
    fn is_empty_reflects_any_write() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.gauge("g", 0.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn adding_zero_registers_the_counter() {
        let mut m = Metrics::new();
        m.add("wired.but.quiet", 0);
        assert!(!m.is_empty());
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, ["wired.but.quiet"]);
    }
}
