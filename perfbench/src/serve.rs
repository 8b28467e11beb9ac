//! Serving: publishing fixtures to a store, the in-process daemon, the
//! closed-loop clients with their steady window, the wire-level output
//! check, and the per-layer probes of the traced run.

use crate::fixtures::{self, Golden};
use crate::measure::{binned_percentile, count_above, median, percentile, process_cpu_s, SpanLog};
use crate::{Metric, Outcome};
use proxim_model::characterize::Simulator;
use proxim_model::{GateTiming, InputEvent, ProximityModel};
use proxim_numeric::pwl::Edge;
use proxim_obs::json::Json;
use proxim_obs::serve_metrics as sm;
use proxim_obs::Snapshot;
use proxim_serve::proto::{self, ProtoError};
use proxim_serve::{LibraryOptions, ModelLibrary, ModelStore, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every success response starts with this; the rest of an expected
/// response is compared byte for byte.
const OK_PREFIX: &str = "{\"ok\":true,";

/// Queries in each workload's request pool (cycled by the clients).
pub const POOL_QUERIES: usize = 4096;

/// Spans kept per client connection in the traced run.
const SPANS_PER_CLIENT: usize = 40_000;

/// One prepared request: its frame, and the bytes the answer must end with.
pub struct Request {
    payload: String,
    frame: Vec<u8>,
    expect_tail: String,
    /// The in-process answers (one per query), for the encode probe.
    answers: Vec<GateTiming>,
    batch: bool,
}

impl Request {
    /// Queries this request answers (a batch counts each of its queries).
    pub fn queries(&self) -> u64 {
        self.answers.len() as u64
    }
}

fn push_events(out: &mut String, events: &[InputEvent]) {
    out.push_str("\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let edge = match e.edge() {
            Edge::Rising => "rise",
            Edge::Falling => "fall",
        };
        // `{}` prints the shortest decimal that parses back to the same
        // f64, so the server sees exactly these events.
        let _ = write!(
            out,
            "{{\"pin\":{},\"edge\":\"{edge}\",\"t\":{},\"tt\":{}}}",
            e.pin, e.ramp.t_start, e.ramp.transition_time
        );
    }
    out.push(']');
}

fn answer(model: &ProximityModel, events: &[InputEvent]) -> io::Result<GateTiming> {
    model
        .gate_timing(events)
        .map_err(|e| io::Error::other(format!("in-process query failed: {e}")))
}

fn expect_tail(rendered: String) -> String {
    rendered[OK_PREFIX.len()..].to_owned()
}

/// A single `query` request, with its in-process answer from `model`.
pub fn single(name: &str, model: &ProximityModel, events: &[InputEvent]) -> io::Result<Request> {
    let mut payload = format!("{{\"op\":\"query\",\"model\":\"{name}\",");
    push_events(&mut payload, events);
    payload.push('}');
    let t = answer(model, events)?;
    Ok(Request {
        frame: proto::frame_bytes(payload.as_bytes()),
        payload,
        expect_tail: expect_tail(proto::render_timing(&t, None)),
        answers: vec![t],
        batch: false,
    })
}

/// A `batch` request of `queries`, with the in-process answers.
pub fn batch(
    name: &str,
    model: &ProximityModel,
    queries: &[Vec<InputEvent>],
) -> io::Result<Request> {
    let mut payload = format!("{{\"op\":\"batch\",\"model\":\"{name}\",\"queries\":[");
    let mut answers = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        payload.push('{');
        push_events(&mut payload, q);
        payload.push('}');
        answers.push(answer(model, q)?);
    }
    payload.push_str("]}");
    let rendered: Vec<Result<GateTiming, ProtoError>> = answers.iter().copied().map(Ok).collect();
    Ok(Request {
        frame: proto::frame_bytes(payload.as_bytes()),
        payload,
        expect_tail: expect_tail(proto::render_batch(&rendered, None)),
        answers,
        batch: true,
    })
}

/// A store with its entries written and a daemon serving it.
pub struct Published {
    pub store: ModelStore,
    pub server: Server,
    pub socket: PathBuf,
    /// Bytes of the first entry on disk.
    pub entry_bytes: u64,
    /// Seconds `ModelLibrary::open_with` took.
    pub open_s: f64,
    pub entries: usize,
}

/// Writes `entries` to a fresh store under `dir`, opens the library (with
/// a memory budget of `budget_entries` times the first entry's size, when
/// given) and starts a daemon on shipped defaults.
pub fn publish(
    dir: &Path,
    entries: &[(String, &ProximityModel)],
    budget_entries: Option<u64>,
) -> io::Result<Published> {
    let store = ModelStore::new(dir.join("store"));
    for (name, model) in entries {
        store
            .save(name, model)
            .map_err(|e| io::Error::other(format!("store save {name}: {e}")))?;
    }
    let entry_bytes = std::fs::metadata(store.entry_path(&entries[0].0))?.len();
    let opts = LibraryOptions {
        memory_budget: budget_entries.map(|n| n * entry_bytes),
        ..LibraryOptions::default()
    };
    let t0 = Instant::now();
    let library = ModelLibrary::open_with(&store, opts);
    let open_s = t0.elapsed().as_secs_f64();
    if library.len() != entries.len() {
        return Err(io::Error::other(format!(
            "library serves {} of {} entries",
            library.len(),
            entries.len()
        )));
    }
    let socket = dir.join("serve.sock");
    let server = Server::start(library, &socket, ServeOptions::default())?;
    Ok(Published {
        store,
        server,
        socket,
        entry_bytes,
        open_s,
        entries: entries.len(),
    })
}

/// Stops a daemon and waits for its threads.
pub fn shut_down(p: Published) {
    p.server.begin_shutdown();
    p.server.join();
}

/// Length of the intervals the steady window is cut into.
const INTERVAL: Duration = Duration::from_secs(1);

/// One request answered inside the steady window.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Which interval of the window the answer arrived in.
    interval: usize,
    rtt_us: f64,
    queries: u64,
}

/// What the clients saw; window fields cover the steady window only.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Process CPU seconds at each interval edge.
    pub cpu_edges: Vec<f64>,
    /// Server phase breakdowns and cold-load times (traced run only).
    pub admit: Vec<u64>,
    pub queue: Vec<u64>,
    pub execute: Vec<u64>,
    pub load: Vec<u64>,
    /// Round trip minus the server phases, µs (traced run only).
    pub residual_us: Vec<f64>,
    /// Responses whose server phases exceed the client round trip.
    pub phase_overruns: u64,
    /// Requests sent over the whole drive, warm-up included.
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Server counters at the window's edges.
    pub before: Snapshot,
    pub after: Snapshot,
}

/// Pulls `"key":<integer>` out of a response.
fn field_u64(resp: &str, key: &str) -> Option<u64> {
    let at = resp.find(key)? + key.len();
    let digits = resp[at..].trim_start_matches([':', '"']);
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

struct ClientOut {
    w: Window,
    spans: SpanLog,
}

/// One closed-loop connection: send, wait for the answer, check it, repeat
/// until `end`. Requests sent before `start` are warm-up.
fn client(
    socket: &Path,
    pool: &[Request],
    first: usize,
    conn: u64,
    (start, end): (Instant, Instant),
    spans: SpanLog,
) -> io::Result<ClientOut> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut out = ClientOut {
        w: Window::default(),
        spans,
    };
    let traced = out.spans.on();
    let mut i = first;
    let mut seq = 0u64;
    loop {
        let req = &pool[i % pool.len()];
        i += 1;
        seq += 1;
        let trace = conn << 40 | seq;
        // The traced run names each request so its server-side records
        // correlate with the benchmark's spans.
        let traced_frame;
        let frame = if traced {
            let p = &req.payload;
            let payload = format!("{},\"trace_id\":\"pb{trace}\"}}", &p[..p.len() - 1]);
            traced_frame = proto::frame_bytes(payload.as_bytes());
            &traced_frame
        } else {
            &req.frame
        };
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        stream.write_all(frame)?;
        let resp = proto::read_frame(&mut stream)
            .map_err(|e| io::Error::other(e.to_string()))?
            .ok_or_else(|| io::Error::other("server closed the connection"))?;
        let t1 = Instant::now();
        let w = &mut out.w;
        w.requests += 1;
        w.attempted += req.queries();
        let resp = String::from_utf8_lossy(&resp);
        if !(resp.starts_with(OK_PREFIX) && resp.ends_with(&req.expect_tail)) {
            w.failed += req.queries();
            if w.failures.len() < 3 {
                w.failures
                    .push(format!("wrong answer: {}", &resp[..resp.len().min(300)]));
            }
            continue;
        }
        if t0 < start || t1 > end {
            continue;
        }
        let rtt_us = (t1 - t0).as_nanos() as f64 / 1e3;
        w.samples.push(Sample {
            interval: ((t1 - start).as_secs_f64() / INTERVAL.as_secs_f64()) as usize,
            rtt_us,
            queries: req.queries(),
        });
        if traced {
            let admit = field_u64(&resp, "\"admit_us\"").unwrap_or(0);
            let queue = field_u64(&resp, "\"queue_us\"").unwrap_or(0);
            let execute = field_u64(&resp, "\"execute_us\"").unwrap_or(0);
            let phases = (admit + queue + execute) as f64;
            // Phases are truncated to whole µs; allow that much per phase.
            if phases > rtt_us + 3.0 {
                w.phase_overruns += 1;
            }
            w.admit.push(admit);
            w.queue.push(queue);
            w.execute.push(execute);
            w.residual_us.push(rtt_us - phases);
            if let Some(load) = field_u64(&resp, "\"load_us\"") {
                w.load.push(load);
            }
            // The client does not see where inside the round trip each
            // server phase ran, only how long; the phase spans are laid
            // end to end from the request start with their measured
            // durations, so self time of the request span is the residual.
            let s = &mut out.spans;
            let root = s.record_at("serve.request", 0, trace, t0, t1);
            let mut at = s.ns(t0);
            for (name, us) in [
                ("serve.server.admit", admit),
                ("serve.server.queue", queue),
                ("serve.server.execute", execute),
            ] {
                s.record(name, root, trace, at, us * 1000);
                at += us * 1000;
            }
        }
    }
    Ok(out)
}

/// How the clients drive the daemon.
pub struct Drive {
    pub connections: usize,
    pub warmup: Duration,
    pub window: Duration,
}

/// Runs the closed loop: `connections` clients over `pool`, a warm-up, then
/// the steady window of whole seconds. Process CPU is read at every
/// interval edge, the server counters at the window's edges.
pub fn drive(p: &Published, pool: &[Request], d: &Drive, log: &mut SpanLog) -> io::Result<Window> {
    let intervals = (d.window.as_secs_f64() / INTERVAL.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let start = Instant::now() + d.warmup;
    let end = start + INTERVAL * intervals;
    let registry = p.server.registry();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..d.connections)
            .map(|c| {
                let spans = SpanLog::new(log.on(), log.epoch(), SPANS_PER_CLIENT);
                let first = c * pool.len() / d.connections;
                let socket = &p.socket;
                scope.spawn(move || client(socket, pool, first, c as u64 + 1, (start, end), spans))
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let before = registry.snapshot();
        let mut cpu_edges = vec![process_cpu_s()];
        for k in 1..=intervals {
            std::thread::sleep((start + INTERVAL * k).saturating_duration_since(Instant::now()));
            cpu_edges.push(process_cpu_s());
        }
        let after = registry.snapshot();
        let outs: Vec<io::Result<ClientOut>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect();
        (outs, before, after, cpu_edges)
    });
    let (outs, before, after, cpu_edges) = outs;
    let mut w = Window {
        cpu_edges,
        before,
        after,
        ..Window::default()
    };
    for out in outs {
        let ClientOut { w: c, spans } = out?;
        log.absorb(spans);
        w.samples.extend(c.samples);
        w.admit.extend(c.admit);
        w.queue.extend(c.queue);
        w.execute.extend(c.execute);
        w.load.extend(c.load);
        w.residual_us.extend(c.residual_us);
        w.phase_overruns += c.phase_overruns;
        w.requests += c.requests;
        w.attempted += c.attempted;
        w.failed += c.failed;
        w.failures.extend(c.failures);
    }
    Ok(w)
}

/// The end-to-end serve metrics of a window: each is the median over the
/// window's one-second intervals of that interval's figure, so a burst of
/// host interference moves a few intervals, not the result.
pub fn window_metrics(w: &Window, out: &mut Outcome) {
    let n = w.cpu_edges.len() - 1;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut queries = vec![0u64; n];
    for s in &w.samples {
        let i = s.interval.min(n - 1);
        lat[i].push(s.rtt_us);
        queries[i] += s.queries;
    }
    let (mut p50, mut p99, mut qps, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut beyond = 0;
    for (i, l) in lat.iter_mut().enumerate() {
        l.sort_by(f64::total_cmp);
        p50.push(percentile(l, 0.50));
        p99.push(percentile(l, 0.99));
        beyond += count_above(l, percentile(l, 0.99));
        qps.push(queries[i] as f64 / INTERVAL.as_secs_f64());
        cpu.push((w.cpu_edges[i + 1] - w.cpu_edges[i]) * 1e6 / queries[i].max(1) as f64);
    }
    out.e2e.push(Metric::new("p50_us", median(&p50), "us"));
    out.e2e.push(Metric::new("p99_us", median(&p99), "us"));
    out.e2e.push(Metric::new("qps", median(&qps), "queries/s"));
    out.e2e
        .push(Metric::new("cpu_us_per_query", median(&cpu), "us"));
    let mut per_interval: Vec<usize> = lat.iter().map(Vec::len).collect();
    per_interval.sort_unstable();
    let mut all: Vec<f64> = w.samples.iter().map(|s| s.rtt_us).collect();
    all.sort_by(f64::total_cmp);
    let p99_all = percentile(&all, 0.99);
    out.note("intervals", n);
    out.note("latency_samples", all.len());
    out.note("samples_per_interval_min", per_interval[0]);
    out.note("samples_per_interval_median", per_interval[n / 2]);
    out.note("samples_beyond_interval_p99", beyond);
    out.note("window_p99_us", p99_all);
    out.note("samples_beyond_window_p99", count_above(&all, p99_all));
    out.note("window_queries", queries.iter().sum::<u64>());
    out.note("window_cpu_s", w.cpu_edges[n] - w.cpu_edges[0]);
    out.attempted += w.attempted;
    out.sent += w.requests;
    out.failed += w.failed;
    out.failures.extend(w.failures.iter().cloned());
}

fn delta(w: &Window, name: &str) -> f64 {
    w.after.counter(name).saturating_sub(w.before.counter(name)) as f64
}

/// Per-layer serve metrics of a traced window.
pub fn window_layers(w: &Window, p: &Published, final_snap: &Snapshot, out: &mut Outcome) {
    for (name, v) in [
        ("admit", &w.admit),
        ("queue", &w.queue),
        ("execute", &w.execute),
    ] {
        out.layer(
            &format!("serve.server.{name}_us.p50"),
            binned_percentile(v, 0.50),
            "us",
        );
        out.layer(
            &format!("serve.server.{name}_us.p99"),
            binned_percentile(v, 0.99),
            "us",
        );
    }
    let write_p50 = final_snap
        .histogram(sm::PHASE_WRITE_SECONDS)
        .map_or(0.0, |h| h.quantile(0.50) * 1e6);
    out.layer("serve.server.write_us.p50", write_p50, "us");
    out.layer("serve.residual_us.p50", median(&w.residual_us), "us");

    let misses = delta(w, sm::LIBRARY_COLD_MISSES);
    out.layer("serve.library.cold_misses", misses, "count");
    out.layer(
        "serve.library.evictions",
        delta(w, sm::LIBRARY_EVICTIONS),
        "count",
    );
    let acquired = delta(w, sm::REQUESTS).max(1.0);
    out.layer("serve.library.hit_ratio", 1.0 - misses / acquired, "ratio");
    // Where requests never miss, the library pays its loads at open; that
    // per-entry cost stands in for the cold-load time.
    let load_us = if w.load.is_empty() {
        p.open_s * 1e6 / p.entries as f64
    } else {
        binned_percentile(&w.load, 0.50)
    };
    out.layer("serve.library.load_us.p50", load_us, "us");

    out.layer(
        "serve.requests",
        final_snap.counter(sm::REQUESTS) as f64,
        "count",
    );
    out.layer("serve.client_requests", out.sent as f64, "count");
    out.layer("serve.shed", final_snap.counter(sm::SHED) as f64, "count");
    let errors = final_snap.counter(sm::PROTO_ERRORS) + final_snap.counter(sm::DEADLINE_EXPIRED);
    out.layer("serve.errors", errors as f64, "count");

    // Reconciliation: mean round trip = mean server phases + mean residual.
    let requests = w.samples.len().max(1) as f64;
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / requests;
    let rtt = w.samples.iter().map(|s| s.rtt_us).sum::<f64>() / requests;
    let res = w.residual_us.iter().sum::<f64>() / requests;
    out.note(
        "reconcile_serve",
        format!(
            "{{\"rtt_us\":{rtt},\"admit_us\":{},\"queue_us\":{},\"execute_us\":{},\"residual_us\":{res},\"phase_overruns\":{}}}",
            mean(&w.admit),
            mean(&w.queue),
            mean(&w.execute),
            w.phase_overruns
        ),
    );
}

/// Asks the daemon for each golden configuration over the wire and checks
/// every answer against the in-process model; returns the wire answers'
/// (reference pin, delay, transition) for scoring.
pub fn wire_answers(
    p: &Published,
    name: &str,
    model: &ProximityModel,
    g: &Golden,
    out: &mut Outcome,
) -> io::Result<Vec<(usize, f64, f64)>> {
    let mut stream = UnixStream::connect(&p.socket)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut answers = Vec::with_capacity(g.events.len());
    for ev in &g.events {
        let req = single(name, model, ev)?;
        let resp =
            proto::call(&mut stream, &req.payload).map_err(|e| io::Error::other(e.to_string()))?;
        out.attempted += 1;
        out.sent += 1;
        if !(resp.starts_with(OK_PREFIX) && resp.ends_with(&req.expect_tail)) {
            out.fail(format!("wrong accuracy answer: {resp}"));
        }
        let timing = Json::parse(&resp)
            .ok()
            .and_then(|j| j.get("timing").cloned())
            .ok_or_else(|| io::Error::other(format!("no timing in {resp}")))?;
        let num = |k: &str| timing.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        answers.push((
            num("reference_pin") as usize,
            num("delay"),
            num("output_transition"),
        ));
    }
    Ok(answers)
}

/// Scores the served model on the gating population: the `acc_*` metrics.
pub fn accuracy_metrics(
    p: &Published,
    name: &str,
    model: &ProximityModel,
    out: &mut Outcome,
) -> io::Result<()> {
    let g = fixtures::golden(model, fixtures::GATING_SEED).map_err(io::Error::other)?;
    let a = fixtures::score(&g, &wire_answers(p, name, model, &g, out)?);
    out.e2e
        .push(Metric::new("acc_delay_err_rms_pct", a.delay_rms_pct, "%"));
    out.e2e
        .push(Metric::new("acc_trans_err_rms_pct", a.trans_rms_pct, "%"));
    out.e2e
        .push(Metric::new("acc_err_max_abs_pct", a.max_abs_pct, "%"));
    out.note(
        "acc_population",
        format!(
            "{{\"seed\":{},\"configs\":{}}}",
            fixtures::GATING_SEED,
            g.events.len()
        ),
    );
    Ok(())
}

fn timed<T>(log: &mut SpanLog, name: &'static str, f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let t1 = Instant::now();
    log.record_at(name, 0, 0, t0, t1);
    (t1 - t0).as_nanos() as f64 / 1e3
}

/// The traced run's direct layer timings, on the workload's own NAND3
/// model, store entry and request frames; each figure is a median.
#[allow(clippy::too_many_arguments)]
pub fn probe_layers(
    model: &ProximityModel,
    json: &str,
    p: &Published,
    entry: &str,
    pool: &[Request],
    seed: u64,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let frames = &pool[..pool.len().min(512)];
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    for r in frames {
        decode.push(timed(log, "serve.proto.decode", || {
            proto::parse_request(r.payload.as_bytes())
        }));
        encode.push(timed(log, "serve.proto.encode", || {
            if r.batch {
                let results: Vec<Result<GateTiming, ProtoError>> =
                    r.answers.iter().copied().map(Ok).collect();
                proto::render_batch(&results, None)
            } else {
                proto::render_timing(&r.answers[0], None)
            }
        }));
    }
    out.layer("serve.proto.decode_us", median(&decode), "us");
    out.layer("serve.proto.encode_us", median(&encode), "us");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    for k in 1..=3usize {
        let us: Vec<f64> = (0..300)
            .map(|_| {
                let q = fixtures::random_query(&mut rng, 3, k);
                timed(log, "model.query", || model.gate_timing(&q))
            })
            .collect();
        out.layer(&format!("model.query_us.{k}in"), median(&us), "us");
    }

    let load: Vec<f64> = (0..20)
        .map(|_| timed(log, "serve.store.load", || p.store.load(entry)))
        .collect();
    out.layer("serve.store.load_us", median(&load), "us");
    out.layer("serve.store.entry_bytes", p.entry_bytes as f64, "bytes");
    let parse: Vec<f64> = (0..20)
        .map(|_| {
            timed(log, "model.persist.from_json", || {
                ProximityModel::from_json(json)
            })
        })
        .collect();
    out.layer("model.persist.from_json_us", median(&parse), "us");

    // Characterization's own simulator settings, on fixed stimuli.
    let sim = Simulator::new(
        model.cell(),
        model.tech(),
        *model.thresholds(),
        model.reference_load(),
        model.dv_max(),
    );
    let single = [InputEvent::new(0, Edge::Falling, 0.0, 300e-12)];
    let dual = [
        InputEvent::new(0, Edge::Falling, 0.0, 300e-12),
        InputEvent::new(1, Edge::Falling, 100e-12, 500e-12),
    ];
    for (name, stim) in [("single", &single[..]), ("dual", &dual[..])] {
        let us: Vec<f64> = (0..15)
            .map(|_| timed(log, "spice.simulate", || sim.simulate(stim)))
            .collect();
        out.layer(&format!("spice.sim_us.{name}"), median(&us), "us");
    }
}
