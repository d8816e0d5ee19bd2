//! The request-execution core the [`crate::service`] workers run for both
//! transports, the JSONL daemon and the HTTP gateway (`ccs-gateway`).
//!
//! One entry point: [`execute`] runs a protocol command against a
//! [`PlanCache`] under the panic backstop. Every failure mode — invalid
//! fields, domain errors, and panics anywhere below the handler — comes
//! back as a structured [`ServeError`]; the caller only decides how to
//! render and count it. This is what makes the panic-isolation guarantee
//! transport-independent: stdin, Unix socket, and TCP front ends all
//! funnel through the same boundary.

use crate::cache::PlanCache;
use crate::handlers::{self, Handled};
use crate::obs::ReqTrace;
use crate::protocol::ServeError;
use serde::value::Value;
use std::panic::{self, AssertUnwindSafe};

/// Renders a caught panic payload for the `internal` error message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one request body against `cache`, catching panics at this
/// boundary. A panic comes back as [`ServeError::internal`] — callers can
/// rely on `kind == Internal` meaning "a panic was caught" for their
/// panic counters.
///
/// # Errors
///
/// Every handler failure (and any caught panic) as a [`ServeError`].
pub fn execute(
    cache: &PlanCache,
    cmd: &str,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    match panic::catch_unwind(AssertUnwindSafe(|| {
        handlers::handle(cache, cmd, body, trace)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => Err(ServeError::internal(format!(
            "request handler panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ServeObs;
    use crate::protocol::ErrorKind;
    use ccs_wrsn::scenario::ScenarioGenerator;
    use serde::Serialize;

    #[test]
    fn a_panicking_handler_becomes_an_internal_error() {
        let cache = PlanCache::new();
        let obs = ServeObs::new(None, None);
        let mut trace = obs.start();
        // A scenario with no chargers panics inside `CcsProblem::new`.
        let mut value = ScenarioGenerator::new(5)
            .devices(4)
            .chargers(2)
            .generate()
            .to_value();
        if let Value::Object(map) = &mut value {
            map.insert("chargers".to_string(), Value::Array(Vec::new()));
        }
        let body: Value = serde_json::from_str(&format!(
            r#"{{"cmd":"plan","scenario":{}}}"#,
            serde_json::to_string(&value).unwrap()
        ))
        .unwrap();
        let Err(err) = execute(&cache, "plan", &body, &mut trace) else {
            panic!("a no-charger scenario must not produce a plan");
        };
        assert_eq!(err.kind, ErrorKind::Internal);
        assert!(err.message.contains("panicked"), "{}", err.message);
    }
}
