//! Per-method request / latency / shed counters, plus service-wide
//! fault/retry/degradation counters.
//!
//! Since the observability layer landed, everything here is backed by one
//! [`MetricsRegistry`] (`rqp-obs`): per-method counters live under
//! `rpc.<method>.*`, latencies in `rpc.<method>.latency_us` histograms,
//! and the fault/waste accounting — including the previously CLI-invisible
//! `FaultStats::wasted_cost` — under `faults.*`. The `stats` method
//! snapshots the registry, so every counter the server keeps is observable
//! over the wire.

use crate::protocol::{num, obj};
use crate::service::CallStats;
use rqp_obs::{MetricValue, MetricsRegistry};
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Thread-safe service metrics, snapshotted by the `stats` method.
#[derive(Debug)]
pub struct Metrics {
    registry: MetricsRegistry,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics with the uptime clock started now.
    pub fn new() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            started: Instant::now(),
        }
    }

    /// The backing registry: callers can hang additional counters off it
    /// and they will show up in the `stats` response's `registry` block.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn method_counter(&self, method: &str, which: &str) -> rqp_obs::Counter {
        self.registry.counter(&format!("rpc.{method}.{which}"))
    }

    /// Records a completed request (success or error response) and its
    /// handler latency.
    pub fn record(&self, method: &str, success: bool, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.method_counter(method, "requests").inc();
        self.method_counter(method, if success { "ok" } else { "errors" })
            .inc();
        self.registry
            .histogram(&format!("rpc.{method}.latency_us"))
            .observe(micros as f64);
    }

    /// Records a request rejected by admission control (queue full).
    pub fn record_shed(&self, method: &str) {
        self.method_counter(method, "requests").inc();
        self.method_counter(method, "shed").inc();
    }

    /// Records a request whose deadline expired while queued.
    pub fn record_deadline_expired(&self, method: &str) {
        self.method_counter(method, "requests").inc();
        self.method_counter(method, "deadline_expired").inc();
    }

    /// Total requests shed so far, across methods.
    pub fn total_shed(&self) -> u64 {
        self.registry
            .snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("rpc.") && name.ends_with(".shed"))
            .map(|(_, v)| match v {
                MetricValue::Counter(n) => n,
                _ => 0,
            })
            .sum()
    }

    /// Folds one dispatched call's fault accounting into the
    /// service-wide counters.
    pub fn record_call(&self, stats: &CallStats) {
        self.registry
            .counter("faults.injected")
            .add(stats.faults_injected);
        self.registry.counter("faults.retries").add(stats.retries);
        if stats.breaker_opened {
            self.registry.counter("faults.breaker_open").inc();
        }
        if stats.degraded {
            self.registry.counter("faults.degraded_responses").inc();
        }
        if stats.wasted_cost > 0.0 {
            self.registry
                .gauge("faults.wasted_cost")
                .add(stats.wasted_cost);
        }
    }

    /// Records a connection-level injected fault (dropped read/write).
    pub fn record_injected(&self) {
        self.registry.counter("faults.injected").inc();
    }

    /// Budget burnt by fault-aborted oracle attempts, service-wide.
    pub fn total_wasted_cost(&self) -> f64 {
        self.registry.gauge("faults.wasted_cost").value()
    }

    /// The fault-counter block of the `stats` / `health` responses.
    pub fn faults_value(&self) -> Value {
        obj(vec![
            (
                "faults_injected",
                num(self.registry.counter("faults.injected").value() as f64),
            ),
            (
                "retries",
                num(self.registry.counter("faults.retries").value() as f64),
            ),
            (
                "breaker_open",
                num(self.registry.counter("faults.breaker_open").value() as f64),
            ),
            (
                "degraded_responses",
                num(self.registry.counter("faults.degraded_responses").value() as f64),
            ),
            ("wasted_cost", num(self.total_wasted_cost())),
        ])
    }

    /// Snapshot as the `stats` response body.
    pub fn to_value(&self, workers: usize, queue_capacity: usize) -> Value {
        // Regroup the flat registry names back into the per-method map the
        // protocol exposes: `rpc.<method>.<counter>`.
        #[derive(Default)]
        struct Method {
            requests: u64,
            ok: u64,
            errors: u64,
            shed: u64,
            deadline_expired: u64,
            latency: Option<(u64, f64, f64)>, // (count, sum, max)
        }
        let mut methods: BTreeMap<String, Method> = BTreeMap::new();
        for (name, value) in self.registry.snapshot() {
            let Some(rest) = name.strip_prefix("rpc.") else {
                continue;
            };
            let Some((method, field)) = rest.rsplit_once('.') else {
                continue;
            };
            let m = methods.entry(method.to_string()).or_default();
            match (field, value) {
                ("requests", MetricValue::Counter(n)) => m.requests = n,
                ("ok", MetricValue::Counter(n)) => m.ok = n,
                ("errors", MetricValue::Counter(n)) => m.errors = n,
                ("shed", MetricValue::Counter(n)) => m.shed = n,
                ("deadline_expired", MetricValue::Counter(n)) => m.deadline_expired = n,
                ("latency_us", MetricValue::Histogram { count, sum, max }) => {
                    m.latency = Some((count, sum, max))
                }
                _ => {}
            }
        }
        let methods: Vec<(String, Value)> = methods
            .into_iter()
            .map(|(name, m)| {
                let (count, sum, max) = m.latency.unwrap_or((0, 0.0, 0.0));
                let mean = if count > 0 { sum / count as f64 } else { 0.0 };
                // Quantiles come from the live histogram handle (the
                // snapshot only carries count/sum/max). Only fetched for
                // methods that recorded latency, so shed-only methods do
                // not register empty histograms as a side effect.
                let (p50, p99) = if m.latency.is_some() {
                    let h = self.registry.histogram(&format!("rpc.{name}.latency_us"));
                    (h.quantile(0.50), h.quantile(0.99))
                } else {
                    (0.0, 0.0)
                };
                (
                    name,
                    obj(vec![
                        ("requests", num(m.requests as f64)),
                        ("ok", num(m.ok as f64)),
                        ("errors", num(m.errors as f64)),
                        ("shed", num(m.shed as f64)),
                        ("deadline_expired", num(m.deadline_expired as f64)),
                        ("mean_latency_us", num(mean)),
                        ("max_latency_us", num(max)),
                        ("p50_latency_us", num(p50)),
                        ("p99_latency_us", num(p99)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("uptime_secs", num(self.started.elapsed().as_secs_f64())),
            ("workers", num(workers as f64)),
            ("queue_capacity", num(queue_capacity as f64)),
            ("methods", Value::Object(methods)),
            ("faults", self.faults_value()),
            ("registry", self.registry_value()),
        ])
    }

    /// The raw registry snapshot as a flat JSON object: every named
    /// metric, including ones other components registered.
    pub fn registry_value(&self) -> Value {
        let entries: Vec<(String, Value)> = self
            .registry
            .snapshot()
            .into_iter()
            .map(|(name, v)| {
                let value = match v {
                    MetricValue::Counter(n) => num(n as f64),
                    MetricValue::Gauge(g) => num(g),
                    MetricValue::Histogram { count, sum, max } => obj(vec![
                        ("count", num(count as f64)),
                        ("sum", num(sum)),
                        ("max", num(max)),
                    ]),
                };
                (name, value)
            })
            .collect();
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record("run_spillbound", true, Duration::from_micros(100));
        m.record("run_spillbound", false, Duration::from_micros(300));
        m.record_shed("run_spillbound");
        m.record_deadline_expired("explain");
        assert_eq!(m.total_shed(), 1);
        let v = m.to_value(4, 16);
        let sb = v.get("methods").unwrap().get("run_spillbound").unwrap();
        assert_eq!(sb.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(sb.get("shed").unwrap().as_f64(), Some(1.0));
        assert_eq!(sb.get("mean_latency_us").unwrap().as_f64(), Some(200.0));
        // Quantiles ride along: within log-linear bucket error of the
        // two observed latencies, and ordered p50 <= p99 <= max.
        let p50 = sb.get("p50_latency_us").unwrap().as_f64().unwrap();
        let p99 = sb.get("p99_latency_us").unwrap().as_f64().unwrap();
        assert!((90.0..=130.0).contains(&p50), "p50 = {p50}");
        assert!(p50 <= p99 && p99 <= 300.0, "p99 = {p99}");
        let ex = v.get("methods").unwrap().get("explain").unwrap();
        assert_eq!(ex.get("deadline_expired").unwrap().as_f64(), Some(1.0));
        assert_eq!(ex.get("p99_latency_us").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn fault_counters_accumulate() {
        let m = Metrics::new();
        m.record_call(&CallStats {
            faults_injected: 3,
            retries: 2,
            degraded: true,
            breaker_opened: true,
            wasted_cost: 12.5,
        });
        m.record_injected();
        let v = m.to_value(1, 1);
        let f = v.get("faults").unwrap();
        assert_eq!(f.get("faults_injected").unwrap().as_f64(), Some(4.0));
        assert_eq!(f.get("retries").unwrap().as_f64(), Some(2.0));
        assert_eq!(f.get("breaker_open").unwrap().as_f64(), Some(1.0));
        assert_eq!(f.get("degraded_responses").unwrap().as_f64(), Some(1.0));
        assert_eq!(f.get("wasted_cost").unwrap().as_f64(), Some(12.5));
    }

    #[test]
    fn registry_block_exposes_raw_metric_names() {
        let m = Metrics::new();
        m.record("stats", true, Duration::from_micros(50));
        m.registry().counter("custom.widget").inc();
        let v = m.to_value(1, 1);
        let reg = v.get("registry").unwrap();
        assert_eq!(reg.get("custom.widget").unwrap().as_f64(), Some(1.0));
        assert_eq!(reg.get("rpc.stats.requests").unwrap().as_f64(), Some(1.0));
        let lat = reg.get("rpc.stats.latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(1.0));
    }
}
