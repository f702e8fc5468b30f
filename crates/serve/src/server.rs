//! The TCP front end: accept loop, per-connection request handling, and
//! the graceful-shutdown choreography.
//!
//! One thread accepts connections and spawns a handler thread per
//! connection (requests are small and short-lived; the bounded per-slot
//! batcher queues — not the connection count — are the real concurrency
//! limiter). The [`ModelFleet`] owns one worker thread per slot, each
//! running that slot's micro-batch loop. Shutdown drains in order: stop
//! accepting, finish in-flight connections, drain every slot's queue,
//! then join the workers.
//!
//! Routing: `/predict` and `/predict/design` go to the slot named by the
//! `x-mfaplace-model` header, defaulting to the fleet's default slot —
//! which is what keeps single-model clients wire-compatible. The same
//! endpoints are also reachable per slot at `/models/<name>/predict` and
//! `/models/<name>/predict/design`; `GET /models` lists the fleet and
//! `POST /admin/slots` adds/removes/reloads slots at runtime.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfaplace_core::loader::LoadOptions;
use mfaplace_core::predictor::Engine;
use mfaplace_tensor::Tensor;

use crate::batcher::{BatchConfig, JobError, ModelSlot, SlotStatus, SubmitError};
use crate::fleet::{FleetSlot, ModelFleet, SlotLimits};
use crate::http::{HttpError, Request, Response};
use crate::metrics::Metrics;
use crate::protocol;

/// Server-level knobs (batching knobs live in [`BatchConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:8953` (port `0` picks one).
    pub addr: String,
    /// Batching and queueing configuration.
    pub batch: BatchConfig,
    /// Hard cap on request bodies, bytes.
    pub max_body: usize,
    /// Default per-request deadline when the client sends no
    /// `x-mfaplace-deadline-ms` header.
    pub default_deadline: Duration,
    /// Socket read timeout: a client that stalls mid-request is dropped
    /// after this long.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8953".into(),
            batch: BatchConfig::default().with_env_overrides(),
            max_body: 32 << 20,
            default_deadline: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// What a [`ServeExtension`] did with an offered request.
#[derive(Debug)]
pub enum ExtensionOutcome {
    /// Not this extension's path space; keep looking.
    NotHandled,
    /// Reply with this buffered response.
    Respond(Response),
    /// The extension wrote a complete (typically streaming) response to
    /// the connection itself; `status` is recorded in the request metrics.
    Streamed {
        /// HTTP status the extension sent in its stream head.
        status: u16,
    },
}

/// A pluggable route space mounted into the server, for subsystems that
/// live above this crate (the job engine mounts `/jobs` this way).
/// Extensions are offered every request that no built-in endpoint claims;
/// handlers get the raw connection writer so they can produce streaming
/// (connection-close-delimited) responses via
/// [`crate::http::write_stream_head`].
pub trait ServeExtension: Send + Sync {
    /// Handles `req` or declines it. Runs on the connection's thread.
    fn handle(&self, req: &Request, writer: &mut dyn Write) -> ExtensionOutcome;

    /// Called once during graceful shutdown, after in-flight connections
    /// finish but *before* the fleet's slot workers drain — so extension
    /// work queues that submit predictions can still complete them.
    fn on_shutdown(&self) {}
}

struct Shared {
    metrics: Arc<Metrics>,
    fleet: Arc<ModelFleet>,
    stop: AtomicBool,
    cfg: ServeConfig,
    addr: SocketAddr,
    extensions: Vec<Arc<dyn ServeExtension>>,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] and/or [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    main: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// The served model fleet.
    pub fn fleet(&self) -> Arc<ModelFleet> {
        self.shared.fleet.clone()
    }

    /// Requests a graceful shutdown: stop accepting, finish in-flight
    /// requests, drain the queue. Returns immediately; use
    /// [`ServerHandle::join`] to wait for completion.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Requests shutdown (idempotent) and blocks until the server has
    /// fully drained and exited.
    pub fn join(mut self) {
        trigger_shutdown(&self.shared);
        if let Some(main) = self.main.take() {
            let _ = main.join();
        }
    }

    /// Blocks until the server exits on its own — i.e. until something
    /// (typically `POST /admin/shutdown`) triggers the drain. This is what
    /// the CLI foreground mode uses.
    pub fn wait(mut self) {
        if let Some(main) = self.main.take() {
            let _ = main.join();
        }
    }
}

fn trigger_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

/// Binds `cfg.addr` and starts serving `slot` on background threads —
/// the single-model entry point, wrapping `slot` into a one-slot
/// [`ModelFleet`] (requests naming no slot route to it, so the wire
/// behavior is identical to the pre-fleet server).
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(
    slot: ModelSlot,
    metrics: Arc<Metrics>,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let fleet = Arc::new(ModelFleet::with_plan_cache(
        metrics.clone(),
        cfg.batch,
        slot.plan_cache().clone(),
    ));
    fleet
        .install_slot(slot, SlotLimits::default())
        .map_err(std::io::Error::other)?;
    serve_fleet(fleet, metrics, cfg)
}

/// Binds `cfg.addr` and starts serving an already-populated `fleet` on
/// background threads. Slots added to the fleet later (e.g. via
/// `POST /admin/slots`) become routable immediately.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_fleet(
    fleet: Arc<ModelFleet>,
    metrics: Arc<Metrics>,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    serve_fleet_with(fleet, metrics, cfg, Vec::new())
}

/// Like [`serve_fleet`], additionally mounting `extensions`: each request
/// that no built-in endpoint claims is offered to them in order, before
/// the final 404. On graceful shutdown every extension's
/// [`ServeExtension::on_shutdown`] runs after in-flight connections drain
/// and before the fleet's slot workers do.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_fleet_with(
    fleet: Arc<ModelFleet>,
    metrics: Arc<Metrics>,
    cfg: ServeConfig,
    extensions: Vec<Arc<dyn ServeExtension>>,
) -> std::io::Result<ServerHandle> {
    let listener = bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        metrics,
        fleet,
        stop: AtomicBool::new(false),
        cfg,
        addr,
        extensions,
    });
    let main = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("mfaplace-serve-accept".into())
            .spawn(move || accept_loop(&shared, &listener))?
    };
    Ok(ServerHandle {
        shared,
        main: Some(main),
    })
}

fn bind(addr: &str) -> std::io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    TcpListener::bind(&addrs[..])
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    // Slot workers are owned (spawned and joined) by the fleet itself.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        conns.retain(|h| !h.is_finished());
        let shared = shared.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("mfaplace-serve-conn".into())
            .spawn(move || handle_connection(&shared, stream))
        {
            conns.push(handle);
        }
    }

    // Graceful drain: in-flight connections first (they may still submit
    // jobs), then mounted extensions (their work queues may still submit
    // predictions), then every slot's queue and worker.
    for handle in conns {
        let _ = handle.join();
    }
    for ext in &shared.extensions {
        ext.on_shutdown();
    }
    shared.fleet.shutdown();
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let (endpoint, response) = match Request::read_from(&mut reader, shared.cfg.max_body) {
        Ok(req) => {
            let started = Instant::now();
            let endpoint = req.path.clone();
            let response = match route(shared, &req) {
                Some(response) => response,
                // Not a built-in endpoint: offer it to the mounted
                // extensions, which may stream their reply directly.
                None => match offer_to_extensions(shared, &req, &mut writer) {
                    ExtensionOutcome::Respond(response) => response,
                    ExtensionOutcome::Streamed { status } => {
                        shared.metrics.record_latency(started.elapsed());
                        shared.metrics.record_request(&endpoint, status);
                        return;
                    }
                    ExtensionOutcome::NotHandled => Response::text(404, "no such endpoint\n"),
                },
            };
            shared.metrics.record_latency(started.elapsed());
            (endpoint, response)
        }
        Err(HttpError::BadRequest(m)) => ("<parse>".to_owned(), Response::text(400, m + "\n")),
        Err(HttpError::TooLarge(m)) => ("<parse>".to_owned(), Response::text(413, m + "\n")),
        Err(HttpError::Io(_)) => return,
    };
    shared.metrics.record_request(&endpoint, response.status);
    let _ = response.write_to(&mut writer);
}

fn offer_to_extensions(shared: &Shared, req: &Request, writer: &mut dyn Write) -> ExtensionOutcome {
    for ext in &shared.extensions {
        match ext.handle(req, writer) {
            ExtensionOutcome::NotHandled => continue,
            handled => return handled,
        }
    }
    ExtensionOutcome::NotHandled
}

/// Routes built-in endpoints; `None` means the path belongs to no built-in
/// route space and should be offered to the mounted extensions.
fn route(shared: &Shared, req: &Request) -> Option<Response> {
    // Path-based slot routing: /models, /models/<name>, and the per-slot
    // predict endpoints underneath it.
    if req.path == "/models" || req.path.starts_with("/models/") {
        return Some(route_models(shared, req));
    }
    // Header-based routing for the legacy endpoints: no header means the
    // default slot, which is what keeps single-model clients compatible.
    let slot = req.header("x-mfaplace-model").map(str::to_owned);
    let slot = slot.as_deref();
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response::text(200, shared.metrics.render()),
        ("GET", "/model") => model_info(shared, slot, false),
        ("POST", "/predict") => predict(shared, req, slot, false),
        ("POST", "/predict/design") => predict(shared, req, slot, true),
        ("POST", "/admin/reload") => {
            let path = String::from_utf8_lossy(&req.body).trim().to_owned();
            if path.is_empty() {
                return Some(Response::text(400, "body must be a checkpoint path\n"));
            }
            match shared
                .fleet
                .reload_slot(slot, &path, LoadOptions::default())
            {
                Ok((_, version, spec)) => Response::text(
                    200,
                    format!(
                        "reloaded {} (grid {}) as version {version}\n",
                        spec.arch.model_name(),
                        spec.grid
                    ),
                ),
                Err(m) if is_unknown_slot(&m) => Response::text(404, m + "\n"),
                Err(m) => Response::text(409, m + "\n"),
            }
        }
        ("POST", "/admin/engine") => {
            let name = String::from_utf8_lossy(&req.body).trim().to_owned();
            let fs = match shared.fleet.resolve(slot) {
                Ok(fs) => fs,
                Err(m) => return Some(Response::text(404, m + "\n")),
            };
            match Engine::parse(&name) {
                Some(engine) => {
                    fs.slot().set_engine(engine);
                    Response::text(200, format!("engine {}\n", engine.name()))
                }
                None => Response::text(400, "body must be \"tape\", \"plan\" or \"quant\"\n"),
            }
        }
        ("GET", "/admin/slots") => Response::text(200, fleet_listing(shared)),
        ("POST", "/admin/slots") => admin_slots(shared, req),
        ("POST", "/admin/shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            // The throwaway connection unblocking accept comes from a
            // separate thread so this handler can still write its reply.
            let addr = shared.addr;
            std::thread::spawn(move || {
                let _ = TcpStream::connect(addr);
            });
            Response::text(200, "draining\n")
        }
        (
            _,
            "/healthz" | "/metrics" | "/model" | "/predict" | "/predict/design" | "/admin/reload"
            | "/admin/engine" | "/admin/slots" | "/admin/shutdown",
        ) => Response::text(405, "method not allowed\n"),
        _ => return None,
    })
}

/// Routes `/models` (fleet listing) and `/models/<name>[/predict[/design]]`.
fn route_models(shared: &Shared, req: &Request) -> Response {
    let rest = req.path.strip_prefix("/models").unwrap_or_default();
    let (slot, tail) = match rest.strip_prefix('/') {
        None => ("", ""),
        Some(r) => match r.split_once('/') {
            None => (r, ""),
            Some((name, t)) => (name, t),
        },
    };
    match (req.method.as_str(), slot, tail) {
        ("GET", "", "") => Response::text(200, fleet_listing(shared)),
        (_, "", "") => Response::text(405, "method not allowed\n"),
        ("GET", name, "") => model_info(shared, Some(name), true),
        ("POST", name, "predict") => predict(shared, req, Some(name), false),
        ("POST", name, "predict/design") => predict(shared, req, Some(name), true),
        (_, _, "" | "predict" | "predict/design") => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "no such endpoint\n"),
    }
}

fn is_unknown_slot(msg: &str) -> bool {
    msg.starts_with("no such model slot")
}

fn fleet_listing(shared: &Shared) -> String {
    let default = shared.fleet.default_name();
    let mut out = String::new();
    for name in shared.fleet.names() {
        let Ok(fs) = shared.fleet.resolve(Some(&name)) else {
            continue; // removed between names() and resolve()
        };
        let status = fs.slot().status();
        out.push_str(&format!(
            "{name} model={} grid={} version={} engine={}{}\n",
            status.spec.arch.model_name(),
            status.spec.grid,
            status.version,
            status.predictor.requested.name(),
            if default.as_deref() == Some(name.as_str()) {
                " default"
            } else {
                ""
            }
        ));
    }
    out
}

fn model_info(shared: &Shared, slot: Option<&str>, with_slot_line: bool) -> Response {
    let fs = match shared.fleet.resolve(slot) {
        Ok(fs) => fs,
        Err(m) => return Response::text(404, m + "\n"),
    };
    let mut body = String::new();
    if with_slot_line {
        body.push_str(&format!("slot {}\n", fs.name()));
    }
    body.push_str(&model_text(&fs.slot().status()));
    Response::text(200, body)
}

/// The `/model` body: what was asked for (`engine`), what is really
/// serving (`served_engine`, `precision`) and — only when those differ —
/// why (`fallback`).
fn model_text(status: &SlotStatus) -> String {
    let p = &status.predictor;
    let mut text = format!(
        "model {}\ngrid {}\nbase_channels {}\nversion {}\nengine {}\nserved_engine {}\nprecision {}\n",
        status.spec.arch.model_name(),
        status.spec.grid,
        status.spec.base_channels,
        status.version,
        p.requested.name(),
        p.served.name(),
        p.precision.name()
    );
    if let Some(reason) = &p.fallback {
        text.push_str(&format!("fallback {}\n", reason.replace('\n', " ")));
    }
    text
}

/// `POST /admin/slots` command interpreter. Whitespace-token commands:
/// `add <name> <path> [queue=N] [deadline_ms=N]`, `remove <name>`,
/// `reload <name> <path>`.
fn admin_slots(shared: &Shared, req: &Request) -> Response {
    const USAGE: &str = "body must be one of:\n  add <name> <checkpoint> [queue=N] [deadline_ms=N]\n  remove <name>\n  reload <name> <checkpoint>\n";
    let body = String::from_utf8_lossy(&req.body).into_owned();
    let tokens: Vec<&str> = body.split_whitespace().collect();
    match tokens.as_slice() {
        ["add", name, path, opts @ ..] => {
            let mut limits = SlotLimits::default();
            for opt in opts {
                if let Some(v) = opt.strip_prefix("queue=") {
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => limits.queue_bound = Some(n),
                        _ => return Response::text(400, format!("bad queue bound {v:?}\n")),
                    }
                } else if let Some(v) = opt.strip_prefix("deadline_ms=") {
                    match v.parse::<u64>() {
                        Ok(ms) => limits.default_deadline = Some(Duration::from_millis(ms)),
                        Err(_) => return Response::text(400, format!("bad deadline {v:?}\n")),
                    }
                } else {
                    return Response::text(400, format!("unknown option {opt:?}\n{USAGE}"));
                }
            }
            match shared
                .fleet
                .add_slot(name, path, LoadOptions::default(), limits)
            {
                Ok(fs) => {
                    let spec = fs.slot().status().spec;
                    Response::text(
                        200,
                        format!(
                            "added slot {name} serving {} (grid {})\n",
                            spec.arch.model_name(),
                            spec.grid
                        ),
                    )
                }
                Err(m) => Response::text(409, m + "\n"),
            }
        }
        ["remove", name] => match shared.fleet.remove_slot(name) {
            Ok(()) => Response::text(200, format!("removed slot {name}\n")),
            Err(m) if is_unknown_slot(&m) => Response::text(404, m + "\n"),
            Err(m) => Response::text(409, m + "\n"),
        },
        ["reload", name, path] => {
            match shared
                .fleet
                .reload_slot(Some(name), path, LoadOptions::default())
            {
                Ok((slot, version, spec)) => Response::text(
                    200,
                    format!(
                        "reloaded slot {slot} with {} (grid {}) as version {version}\n",
                        spec.arch.model_name(),
                        spec.grid
                    ),
                ),
                Err(m) if is_unknown_slot(&m) => Response::text(404, m + "\n"),
                Err(m) => Response::text(409, m + "\n"),
            }
        }
        _ => Response::text(400, USAGE),
    }
}

/// `POST /predict` (binary feature stack) and, with `design`, `POST
/// /predict/design` (design + placement text featurized server-side).
fn predict(shared: &Shared, req: &Request, slot: Option<&str>, design: bool) -> Response {
    // The deadline clock starts when the request arrives, not after
    // featurization.
    let arrived = Instant::now();
    let fs = match shared.fleet.resolve(slot) {
        Ok(fs) => fs,
        Err(m) => return Response::text(404, m + "\n"),
    };
    // Read from the status snapshot: never waits behind a running forward.
    let grid = fs.slot().status().spec.grid;
    let features = if design {
        std::str::from_utf8(&req.body)
            .map_err(|_| "body is not utf-8 text".to_owned())
            .and_then(|text| protocol::featurize_design_request(text, grid))
    } else {
        protocol::decode_features(&req.body)
    };
    let response = match features {
        Ok(features) => predict_on(shared, req, &fs, features, grid, arrived),
        Err(m) => Response::text(400, m + "\n"),
    };
    shared
        .metrics
        .record_slot_request(fs.name(), response.status);
    response
}

fn predict_on(
    shared: &Shared,
    req: &Request,
    fs: &FleetSlot,
    features: Tensor,
    grid: usize,
    arrived: Instant,
) -> Response {
    let shape = features.shape().to_vec();
    if shape != [protocol::NUM_WIRE_FEATURES, grid, grid] {
        return Response::text(
            400,
            format!(
                "feature shape {shape:?} does not match served model \
                 [{}, {grid}, {grid}]\n",
                protocol::NUM_WIRE_FEATURES
            ),
        );
    }
    // Deadline class: request header beats the slot's configured default,
    // which beats the server-wide default.
    let deadline_ms = req
        .header("x-mfaplace-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .or_else(|| fs.default_deadline())
        .unwrap_or(shared.cfg.default_deadline);
    let rx = match fs.batcher().submit(features, arrived + deadline_ms) {
        Ok(rx) => rx,
        Err(SubmitError::QueueFull) => {
            return Response::text(429, "queue full, retry later\n");
        }
        Err(SubmitError::Draining) => {
            return Response::text(503, "server is draining\n");
        }
    };
    match rx.recv() {
        Ok(Ok(levels)) => Response::bytes(200, protocol::encode_levels(&levels)),
        Ok(Err(JobError::DeadlineExceeded)) => Response::text(504, "deadline exceeded\n"),
        Ok(Err(JobError::ModelError(m))) => Response::text(500, m + "\n"),
        Err(_) => Response::text(500, "worker exited before answering\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::tests::{input, temp_path, tiny_slot, tiny_spec};
    use mfaplace_core::loader::{init_checkpoint, load_predictor};
    use mfaplace_core::QuantOptions;
    use mfaplace_models::{Arch, ArchSpec};

    /// A slot asked for the quant engine whose quantized build fails keeps
    /// serving the f32 plan; `/model` and `/metrics` must both say so.
    #[test]
    fn model_text_and_metrics_surface_a_latched_fallback() {
        let x = input(0.5);
        // A calibration collected on another architecture cannot be
        // aligned onto the UNet's plan.
        let other = temp_path("fallback_pgnn.mfaw");
        let mut other_spec = ArchSpec::new(Arch::Pgnn, 16);
        other_spec.base_channels = 2;
        init_checkpoint(&other_spec, 1, &other).unwrap();
        let (_, mut donor) = load_predictor(&other, LoadOptions::default()).unwrap();
        let stale = donor
            .calibrate(std::slice::from_ref(&x), QuantOptions::default())
            .unwrap();

        let ckpt = temp_path("fallback_unet.mfaw");
        init_checkpoint(&tiny_spec(), 1, &ckpt).unwrap();
        let (spec, mut predictor) = load_predictor(&ckpt, LoadOptions::default()).unwrap();
        predictor.set_calibration(stale, QuantOptions::default());
        predictor.set_engine(Engine::Quant);
        let metrics = Arc::new(Metrics::new());
        let slot = ModelSlot::from_predictor(spec, predictor, metrics.clone());
        slot.predict_batch(std::slice::from_ref(&x)).unwrap();

        let text = model_text(&slot.status());
        assert!(
            text.starts_with("model U-net\ngrid 16\nbase_channels 2\nversion 1\n"),
            "{text}"
        );
        assert!(
            text.contains("engine quant\nserved_engine plan\nprecision f32\nfallback "),
            "{text}"
        );
        assert!(text.contains("recalibrate"), "{text}");
        let scrape = metrics.render();
        assert!(
            scrape.contains("mfaplace_slot_engine_fallback_info{slot=\"default\",reason=\""),
            "{scrape}"
        );
        assert!(
            scrape.contains("mfaplace_slot_engine_info{slot=\"default\",engine=\"quant\"} 1"),
            "{scrape}"
        );
        assert!(
            scrape.contains("mfaplace_precision_info{precision=\"f32\"} 1"),
            "{scrape}"
        );

        // A healthy slot reports no fallback on either surface.
        let metrics = Arc::new(Metrics::new());
        let healthy = tiny_slot(metrics.clone());
        healthy.set_engine(Engine::Plan);
        let text = model_text(&healthy.status());
        assert!(
            text.ends_with("engine plan\nserved_engine plan\nprecision f32\n"),
            "{text}"
        );
        assert!(!metrics.render().contains("engine_fallback_info"));
    }
}
