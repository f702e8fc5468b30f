//! The `/jobs` HTTP surface, mounted into the serve layer as a
//! [`ServeExtension`].
//!
//! | Method + path            | Behaviour                                   |
//! |--------------------------|---------------------------------------------|
//! | `POST /jobs`             | submit (200 / 400 / 429 / 503)              |
//! | `GET /jobs`              | one-line-per-job listing                    |
//! | `GET /jobs/<id>`         | status text                                 |
//! | `GET /jobs/<id>/events`  | NDJSON event stream, follows to completion  |
//! | `DELETE /jobs/<id>`      | cancel                                      |
//!
//! The events endpoint streams with `connection: close` framing (no
//! content length): lines are flushed as the flow emits them, and the
//! stream ends when the job's terminal `done` line has been written. A
//! client that goes away mid-stream just ends the write loop — the job
//! itself keeps running.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use mfaplace_serve::http::{write_stream_head, Request, Response};
use mfaplace_serve::{ExtensionOutcome, ServeExtension};

use crate::engine::{Job, JobEngine, SubmitJobError};
use crate::spec::parse_spec;

/// How long one streaming poll blocks before re-checking the connection.
const STREAM_POLL: Duration = Duration::from_millis(500);

/// Mounts a [`JobEngine`] at `/jobs`.
pub struct JobsExtension {
    engine: Arc<JobEngine>,
}

impl JobsExtension {
    /// Wraps the engine.
    pub fn new(engine: Arc<JobEngine>) -> Self {
        JobsExtension { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    fn submit(&self, req: &Request) -> Response {
        let body = match std::str::from_utf8(&req.body) {
            Ok(body) => body,
            Err(_) => return Response::text(400, "request body is not UTF-8\n"),
        };
        let spec = match parse_spec(body) {
            Ok(spec) => spec,
            Err(err) => return Response::text(400, format!("{err}\n")),
        };
        match self.engine.submit(spec) {
            Ok(job) => Response::text(
                200,
                format!("id {}\nstate {}\n", job.id(), job.state().name()),
            ),
            Err(SubmitJobError::Invalid(err)) => Response::text(400, format!("{err}\n")),
            Err(SubmitJobError::QueueFull) => Response::text(429, "job queue full\n"),
            Err(SubmitJobError::Draining) => Response::text(503, "job engine draining\n"),
        }
    }

    fn listing(&self) -> Response {
        let mut out = String::new();
        for job in self.engine.list() {
            let spec = job.spec();
            out.push_str(&format!(
                "{} {} flow={} slot={} events={}\n",
                job.id(),
                job.state().name(),
                spec.flow,
                spec.slot.as_deref().unwrap_or("default"),
                job.event_count()
            ));
        }
        Response::text(200, out)
    }

    fn status(&self, job: &Arc<Job>) -> Response {
        let spec = job.spec();
        let mut out = format!(
            "id {}\nflow {}\nslot {}\npredictor {}\nseed {}\nstate {}\nevents {}\n",
            job.id(),
            spec.flow,
            spec.slot.as_deref().unwrap_or("default"),
            spec.predictor.name(),
            spec.seed,
            job.state().name(),
            job.event_count()
        );
        if let Some(summary) = job.summary() {
            out.push_str(&format!("summary {summary}\n"));
        }
        if let Some(error) = job.error() {
            out.push_str(&format!("error {error}\n"));
        }
        Response::text(200, out)
    }

    fn cancel(&self, id: &str) -> Response {
        match self.engine.cancel(id) {
            None => Response::text(404, format!("no such job {id:?}\n")),
            Some(state) if state.is_terminal() => {
                Response::text(200, format!("already {}\n", state.name()))
            }
            Some(_) => Response::text(200, format!("cancelling {id}\n")),
        }
    }

    /// Streams the job's NDJSON event log, following until the terminal
    /// `done` line has been delivered or the client disconnects.
    fn stream_events(&self, job: &Arc<Job>, writer: &mut dyn Write) -> ExtensionOutcome {
        if write_stream_head(writer, 200, "application/x-ndjson").is_err() {
            return ExtensionOutcome::Streamed { status: 200 };
        }
        let mut sent = 0;
        loop {
            let (lines, state) = job.wait_events(sent, STREAM_POLL);
            for line in &lines {
                if writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .is_err()
                {
                    // Client went away; the job keeps running.
                    return ExtensionOutcome::Streamed { status: 200 };
                }
            }
            sent += lines.len();
            if writer.flush().is_err() {
                return ExtensionOutcome::Streamed { status: 200 };
            }
            if state.is_terminal() && lines.is_empty() {
                return ExtensionOutcome::Streamed { status: 200 };
            }
        }
    }
}

impl ServeExtension for JobsExtension {
    fn handle(&self, req: &Request, writer: &mut dyn Write) -> ExtensionOutcome {
        let Some(rest) = req.path.strip_prefix("/jobs") else {
            return ExtensionOutcome::NotHandled;
        };
        match (req.method.as_str(), rest) {
            ("POST", "" | "/") => ExtensionOutcome::Respond(self.submit(req)),
            ("GET", "" | "/") => ExtensionOutcome::Respond(self.listing()),
            (method, rest) => {
                let rest = rest.trim_start_matches('/');
                let (id, tail) = match rest.split_once('/') {
                    Some((id, tail)) => (id, Some(tail)),
                    None => (rest, None),
                };
                if id.is_empty() {
                    return ExtensionOutcome::NotHandled;
                }
                match (method, tail) {
                    ("GET", Some("events")) => match self.engine.get(id) {
                        Some(job) => self.stream_events(&job, writer),
                        None => ExtensionOutcome::Respond(Response::text(
                            404,
                            format!("no such job {id:?}\n"),
                        )),
                    },
                    ("GET", None) => match self.engine.get(id) {
                        Some(job) => ExtensionOutcome::Respond(self.status(&job)),
                        None => ExtensionOutcome::Respond(Response::text(
                            404,
                            format!("no such job {id:?}\n"),
                        )),
                    },
                    ("DELETE", None) => ExtensionOutcome::Respond(self.cancel(id)),
                    _ => ExtensionOutcome::Respond(Response::text(
                        405,
                        "method not allowed on /jobs\n",
                    )),
                }
            }
        }
    }

    /// Serve drains extensions after the listener stops accepting and all
    /// connection threads join, but *before* the fleet shuts down — so
    /// in-flight jobs can still get predictions while they finish.
    fn on_shutdown(&self) {
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JobsConfig;
    use mfaplace_fpga::design::DesignPreset;
    use mfaplace_fpga::io::write_design;
    use mfaplace_serve::{BatchConfig, Metrics, ModelFleet};

    fn extension(workers: usize) -> JobsExtension {
        let fleet = Arc::new(ModelFleet::new(
            Arc::new(Metrics::new()),
            BatchConfig::default(),
        ));
        JobsExtension::new(JobEngine::start(
            fleet,
            JobsConfig {
                workers,
                queue_bound: 4,
                default_deadline: Duration::from_secs(60),
                retain: 16,
            },
        ))
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn respond(ext: &JobsExtension, req: &Request) -> Response {
        let mut sink = Vec::new();
        match ext.handle(req, &mut sink) {
            ExtensionOutcome::Respond(resp) => resp,
            other => panic!("expected Respond, got {other:?}"),
        }
    }

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    #[test]
    fn routes_outside_jobs_are_not_handled() {
        let ext = extension(0);
        let mut sink = Vec::new();
        assert!(matches!(
            ext.handle(&request("GET", "/predict", ""), &mut sink),
            ExtensionOutcome::NotHandled
        ));
    }

    #[test]
    fn submit_status_cancel_round_trip() {
        let ext = extension(0);
        let design = write_design(
            &DesignPreset::design_116()
                .with_scale(1024, 128, 64)
                .generate(1),
        );
        let body = format!("predictor=rudy seed=2 iterations=3 grid=16\n---DESIGN---\n{design}");
        let resp = respond(&ext, &request("POST", "/jobs", &body));
        assert_eq!(resp.status, 200);
        let id = body_text(&resp)
            .lines()
            .next()
            .unwrap()
            .strip_prefix("id ")
            .unwrap()
            .to_owned();

        let status = respond(&ext, &request("GET", &format!("/jobs/{id}"), ""));
        assert_eq!(status.status, 200);
        assert!(body_text(&status).contains("state queued"));

        let listing = respond(&ext, &request("GET", "/jobs", ""));
        assert!(body_text(&listing).contains(&id));

        let cancel = respond(&ext, &request("DELETE", &format!("/jobs/{id}"), ""));
        assert_eq!(cancel.status, 200);
        let again = respond(&ext, &request("DELETE", &format!("/jobs/{id}"), ""));
        assert!(body_text(&again).contains("already cancelled"));

        // The stream of a terminal job ends after replaying the log.
        let mut sink = Vec::new();
        let outcome = ext.handle(
            &request("GET", &format!("/jobs/{id}/events"), ""),
            &mut sink,
        );
        assert!(matches!(
            outcome,
            ExtensionOutcome::Streamed { status: 200 }
        ));
        let text = String::from_utf8(sink).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("application/x-ndjson"));
        assert!(text.ends_with("{\"event\":\"done\",\"state\":\"cancelled\"}\n"));
        ext.engine().shutdown();
    }

    #[test]
    fn bad_submissions_get_400s_and_unknown_ids_404() {
        let ext = extension(0);
        assert_eq!(
            respond(&ext, &request("POST", "/jobs", "flow=bogus")).status,
            400
        );
        assert_eq!(
            respond(
                &ext,
                &request("POST", "/jobs", "predictor=rudy\n---DESIGN---\nnope\n")
            )
            .status,
            400
        );
        // An id past the last instance in a cascade, region or anchor is a
        // synchronous 400 too, not a job that fails later in the placer.
        let design = DesignPreset::design_116()
            .with_scale(1024, 128, 64)
            .generate(1);
        let n = design.netlist.num_instances();
        let text = write_design(&design);
        for bad in [
            format!("cascade DSP 0 {n}"),
            format!("region 0 0 2 2 {n}"),
            format!("anchor {n} 0 0"),
        ] {
            let body = format!("predictor=rudy grid=16\n---DESIGN---\n{text}{bad}\n");
            let resp = respond(&ext, &request("POST", "/jobs", &body));
            assert_eq!(resp.status, 400, "{bad}");
            let reply = String::from_utf8_lossy(&resp.body);
            assert!(reply.contains("out of range"), "{bad}: {reply}");
        }
        assert_eq!(
            respond(&ext, &request("GET", "/jobs/job-99", "")).status,
            404
        );
        assert_eq!(
            respond(&ext, &request("DELETE", "/jobs/job-99", "")).status,
            404
        );
        assert_eq!(
            respond(&ext, &request("PUT", "/jobs/job-99", "")).status,
            405
        );
        let mut sink = Vec::new();
        match ext.handle(&request("GET", "/jobs/job-99/events", ""), &mut sink) {
            ExtensionOutcome::Respond(resp) => assert_eq!(resp.status, 404),
            other => panic!("expected 404 Respond, got {other:?}"),
        }
        ext.engine().shutdown();
    }

    #[test]
    fn queue_full_maps_to_429_and_draining_to_503() {
        let ext = extension(0);
        let design = write_design(
            &DesignPreset::design_116()
                .with_scale(1024, 128, 64)
                .generate(1),
        );
        let body = format!("predictor=rudy grid=16\n---DESIGN---\n{design}");
        for _ in 0..4 {
            assert_eq!(respond(&ext, &request("POST", "/jobs", &body)).status, 200);
        }
        assert_eq!(respond(&ext, &request("POST", "/jobs", &body)).status, 429);
        ext.engine().shutdown();
        assert_eq!(respond(&ext, &request("POST", "/jobs", &body)).status, 503);
    }
}
