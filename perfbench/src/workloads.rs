//! The four workloads. Each sets up (characterizes its fixtures, writes
//! them to a store, starts the daemon), measures a timed window, then
//! checks accuracy over the wire. `perfbench/README.md` says why each one
//! exists and which layers it weighs.

use crate::fixtures::{self, Characterized};
use crate::measure::{median, SpanLog};
use crate::serve::{self, Drive, Published, Request};
use crate::{Args, Metric, Outcome};
use proxim_cells::Cell;
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::jobs::CharStats;
use proxim_model::ProximityModel;
use proxim_obs as obs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["characterize", "serve_warm", "serve_batch", "serve_cold"];

/// Set-ups per serve run before and after the window; `setup_s` and the
/// fixture `char_s` are medians over all of them.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Queries per `batch` request on `serve_batch`.
const BATCH: usize = 64;

/// Store entries on `serve_cold`, and the memory budget in entries: the
/// working set is three times the budget, so round-robin always misses.
const COLD_ENTRIES: usize = 6;
const COLD_BUDGET_ENTRIES: u64 = 2;

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A seed for the held-out Table 5-1 population that never equals the
/// gating seed.
fn held_out_seed(seed: u64) -> u64 {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
    if s == fixtures::GATING_SEED {
        s + 1
    } else {
        s
    }
}

pub fn run(args: &Args, work: &Path, log: &mut SpanLog) -> io::Result<Outcome> {
    match args.workload.as_str() {
        "characterize" => characterize(args, work, log),
        name => serve_workload(name, args, work, log),
    }
}

/// Per-layer characterization metrics: phase medians over `runs`, counts
/// (which repeat exactly) from the last run, and solver ratios from the
/// global registry, which the traced run enables for its first
/// characterization of each fixture only, so the timed repeats carry no
/// metrics cost.
fn char_layers(runs: &[CharStats], out: &mut Outcome) {
    let phase = |f: fn(&CharStats) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.layer("model.jobs.vtc_s", phase(|s| s.phases.vtc), "s");
    out.layer("model.jobs.singles_s", phase(|s| s.phases.singles), "s");
    out.layer("model.jobs.pairs_s", phase(|s| s.phases.pairs), "s");
    out.layer("model.jobs.finish_s", phase(|s| s.phases.finish), "s");
    let last = runs.last().copied().unwrap_or_default();
    out.layer("model.jobs.sims", last.sims_run as f64, "count");
    out.layer("model.jobs.failed", last.failed_jobs as f64, "count");
    out.layer("model.jobs.recoveries", last.recoveries as f64, "count");
    out.layer(
        "model.jobs.degraded_slices",
        last.degraded_slices as f64,
        "count",
    );
    out.layer("model.audit.findings", last.audit_findings as f64, "count");

    let snap = obs::Registry::global().snapshot();
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean());
    out.layer(
        "spice.newton_iters_per_solve",
        mean("spice.tran.newton_iters_per_solve"),
        "iters",
    );
    let fixed = snap.counter("spice.lu.static_solves") as f64;
    let fallback = snap.counter("spice.lu.static_fallbacks") as f64;
    out.layer(
        "spice.lu.static_share",
        fixed / (fixed + fallback).max(1.0),
        "ratio",
    );
    let lanes = mean(obs::batch_metrics::LANES);
    let active = mean(obs::batch_metrics::ACTIVE_LANES);
    out.layer(
        "spice.batch.lane_occupancy",
        if lanes > 0.0 { active / lanes } else { 0.0 },
        "ratio",
    );
    out.layer(
        "spice.batch.evictions",
        snap.counter(obs::batch_metrics::EVICTIONS) as f64,
        "count",
    );
}

/// Spans for one characterization: the call, and its four phases laid end
/// to end with the durations `CharStats` reports (the program times them;
/// the benchmark only sees how long each took).
fn char_spans(log: &mut SpanLog, trace: u64, start: Instant, c: &Characterized) {
    let at = log.ns(start);
    let root = log.record("model.characterize", 0, trace, at, (c.wall_s * 1e9) as u64);
    let mut t = at;
    let p = c.stats.phases;
    for (name, s) in [
        ("model.jobs.vtc", p.vtc),
        ("model.jobs.singles", p.singles),
        ("model.jobs.pairs", p.pairs),
        ("model.jobs.finish", p.finish),
    ] {
        let ns = (s * 1e9) as u64;
        log.record(name, root, trace, t, ns);
        t += ns;
    }
}

/// Serves `pool` for the steady window, then scores the NAND3 entry
/// `entry` over the wire; the traced run adds the serve and probe layers.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    p: &Published,
    pool: &[Request],
    drive: &Drive,
    entry: &str,
    nand3: &Characterized,
    args: &Args,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> io::Result<()> {
    let w = serve::drive(p, pool, drive, log)?;
    serve::window_metrics(&w, out);
    serve::accuracy_metrics(p, entry, &nand3.model, out)?;
    if args.trace {
        let snap = p.server.registry().snapshot();
        serve::window_layers(&w, p, &snap, out);
        serve::probe_layers(
            &nand3.model,
            &nand3.json,
            p,
            entry,
            pool,
            args.seed,
            log,
            out,
        );
    }
    Ok(())
}

fn characterize(args: &Args, work: &Path, log: &mut SpanLog) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let cell = Cell::nand(3);
    let opts = CharacterizeOptions::medium();
    // The seconds split between the characterization repeats and a short
    // served query storm against the model they produce.
    let serve_s = (args.seconds / 4.0).clamp(1.0, 5.0);
    let char_s = (args.seconds - serve_s).max(0.0);

    let t0 = Instant::now();
    let fixture = fixtures::characterize(&cell, &opts, args.trace).map_err(io_err)?;
    char_spans(log, 0, t0, &fixture);
    let mut setup_s = t0.elapsed().as_secs_f64();
    out.attempted += 1;
    if let Some(why) = fixtures::char_defect(&fixture, &fixture) {
        out.fail(format!("fixture: {why}"));
    }

    let (mut walls, mut cpus, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(char_s);
    loop {
        let start = Instant::now();
        let c = fixtures::characterize(&cell, &opts, false).map_err(io_err)?;
        char_spans(log, walls.len() as u64 + 1, start, &c);
        out.attempted += 1;
        if let Some(why) = fixtures::char_defect(&c, &fixture) {
            out.fail(format!("characterization {}: {why}", walls.len() + 1));
        }
        walls.push(c.wall_s);
        cpus.push(c.cpu_s);
        stats.push(c.stats);
        if Instant::now() >= deadline {
            break;
        }
    }

    let t0 = Instant::now();
    let p = serve::publish(
        &work.join("serve"),
        &[("nand3".into(), &fixture.model)],
        None,
    )?;
    setup_s += t0.elapsed().as_secs_f64();
    let pool = fixtures::table5_1_events(&fixture.model, serve::POOL_QUERIES, args.seed)
        .iter()
        .map(|ev| serve::single("nand3", &fixture.model, ev))
        .collect::<io::Result<Vec<_>>>()?;
    let drive = Drive {
        connections: 1,
        warmup: Duration::from_secs_f64((serve_s / 4.0).min(0.5)),
        window: Duration::from_secs_f64(serve_s),
    };

    out.e2e.push(Metric::new("setup_s", setup_s, "s"));
    out.e2e.push(Metric::new("char_s", median(&walls), "s"));
    out.e2e.push(Metric::new("char_cpu_s", median(&cpus), "s"));
    out.note("char_repeats", walls.len());
    out.note("sims_per_characterization", fixture.stats.sims_run);
    out.note(
        "audit_findings_per_characterization",
        fixture.stats.audit_findings,
    );
    serve_phase(&p, &pool, &drive, "nand3", &fixture, args, log, &mut out)?;

    // The held-out population: same model, a seed the gating figures
    // never saw.
    let held = held_out_seed(args.seed);
    let g = fixtures::golden(&fixture.model, held).map_err(io_err)?;
    let a = fixtures::score(
        &g,
        &serve::wire_answers(&p, "nand3", &fixture.model, &g, &mut out)?,
    );
    out.note(
        "acc_held_out",
        format!(
            "{{\"seed\":{held},\"acc_delay_err_rms_pct\":{},\"acc_trans_err_rms_pct\":{},\"acc_err_max_abs_pct\":{}}}",
            a.delay_rms_pct, a.trans_rms_pct, a.max_abs_pct
        ),
    );

    if args.trace {
        char_layers(&stats, &mut out);
        let phases = median(&stats.iter().map(|s| s.phases.total()).collect::<Vec<_>>());
        let wall = median(&walls);
        out.note(
            "reconcile_char",
            format!(
                "{{\"char_s\":{wall},\"phases_sum_s\":{phases},\"residual_s\":{},\"residual_pct\":{}}}",
                wall - phases,
                (wall - phases) / wall * 100.0
            ),
        );
    }
    serve::shut_down(p);
    Ok(out)
}

/// The fixtures one serve workload characterizes at set-up.
fn serve_fixtures(workload: &str) -> Vec<(&'static str, Cell)> {
    if workload == "serve_warm" {
        vec![
            ("nand2", Cell::nand(2)),
            ("nand3", Cell::nand(3)),
            ("nor2", Cell::nor(2)),
            ("aoi21", Cell::aoi21()),
        ]
    } else {
        vec![("nand3", Cell::nand(3))]
    }
}

/// What one set-up cost.
struct SetupCost {
    setup_s: f64,
    char_wall_s: f64,
    char_cpu_s: f64,
    /// The fixture set's characterization, summed over fixtures.
    stats: CharStats,
}

/// One set-up of a serve workload: characterize the fixtures, store them,
/// open the library and start the daemon. Each fixture is checked against
/// `reference` (the first set-up's), when given.
fn set_up(
    workload: &str,
    rep: usize,
    reference: Option<&[Characterized]>,
    args: &Args,
    work: &Path,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> io::Result<(Published, Vec<Characterized>, SetupCost)> {
    let cells = serve_fixtures(workload);
    let t0 = Instant::now();
    let mut chars = Vec::new();
    for (i, (_, cell)) in cells.iter().enumerate() {
        let start = Instant::now();
        let metrics = args.trace && reference.is_none();
        let c =
            fixtures::characterize(cell, &CharacterizeOptions::fast(), metrics).map_err(io_err)?;
        char_spans(log, (rep * cells.len() + i) as u64, start, &c);
        chars.push(c);
    }
    let entries: Vec<(String, &ProximityModel)> = if workload == "serve_cold" {
        (0..COLD_ENTRIES)
            .map(|i| (format!("nand3_{i}"), &chars[0].model))
            .collect()
    } else {
        cells
            .iter()
            .zip(&chars)
            .map(|((name, _), c)| ((*name).to_owned(), &c.model))
            .collect()
    };
    let budget = (workload == "serve_cold").then_some(COLD_BUDGET_ENTRIES);
    let p = serve::publish(&work.join(format!("setup{rep}")), &entries, budget)?;
    let mut cost = SetupCost {
        setup_s: t0.elapsed().as_secs_f64(),
        char_wall_s: chars.iter().map(|c| c.wall_s).sum(),
        char_cpu_s: chars.iter().map(|c| c.cpu_s).sum(),
        stats: CharStats::default(),
    };
    for (i, c) in chars.iter().enumerate() {
        out.attempted += 1;
        let first = reference.map_or(c, |r| &r[i]);
        if let Some(why) = fixtures::char_defect(c, first) {
            out.fail(format!("fixture {}: {why}", c.model.cell().name()));
        }
        let (t, s) = (&mut cost.stats, c.stats);
        t.sims_run += s.sims_run;
        t.failed_jobs += s.failed_jobs;
        t.recoveries += s.recoveries;
        t.degraded_slices += s.degraded_slices;
        t.audit_findings += s.audit_findings;
        t.phases.vtc += s.phases.vtc;
        t.phases.singles += s.phases.singles;
        t.phases.pairs += s.phases.pairs;
        t.phases.finish += s.phases.finish;
    }
    Ok((p, chars, cost))
}

fn serve_workload(
    workload: &str,
    args: &Args,
    work: &Path,
    log: &mut SpanLog,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let cells = serve_fixtures(workload);

    // Set up several times before the window (the last set-up stays up
    // and is measured) and again after it, so the set-up medians span the
    // run rather than one stretch of host speed.
    let (mut p, first, cost) = set_up(workload, 0, None, args, work, log, &mut out)?;
    let mut costs = vec![cost];
    for rep in 1..SETUPS_BEFORE {
        let (next, _, cost) = set_up(workload, rep, Some(&first), args, work, log, &mut out)?;
        serve::shut_down(std::mem::replace(&mut p, next));
        costs.push(cost);
    }
    let nand3 = first
        .iter()
        .find(|c| c.model.cell().name() == "NAND3")
        .ok_or_else(|| io_err("no NAND3 fixture"))?;

    let mut rng = StdRng::seed_from_u64(args.seed);
    let (pool, connections, entry) = match workload {
        "serve_warm" => {
            let pool = (0..serve::POOL_QUERIES)
                .map(|i| {
                    let (name, _) = cells[i % cells.len()];
                    let model = &first[i % cells.len()].model;
                    let inputs = model.cell().input_count();
                    let k = rng.random_range(1..inputs.min(3) + 1);
                    serve::single(name, model, &fixtures::random_query(&mut rng, inputs, k))
                })
                .collect::<io::Result<Vec<_>>>()?;
            (pool, 1, "nand3".to_owned())
        }
        "serve_batch" => {
            let events = fixtures::table5_1_events(&nand3.model, serve::POOL_QUERIES, args.seed);
            let pool = events
                .chunks(BATCH)
                .map(|qs| serve::batch("nand3", &nand3.model, qs))
                .collect::<io::Result<Vec<_>>>()?;
            (pool, 2, "nand3".to_owned())
        }
        _ => {
            let pool = (0..serve::POOL_QUERIES)
                .map(|i| {
                    let name = format!("nand3_{}", i % COLD_ENTRIES);
                    serve::single(&name, &nand3.model, &fixtures::random_query(&mut rng, 3, 2))
                })
                .collect::<io::Result<Vec<_>>>()?;
            (pool, 1, "nand3_0".to_owned())
        }
    };
    let drive = Drive {
        connections,
        warmup: Duration::from_secs_f64((args.seconds / 10.0).min(1.0)),
        window: Duration::from_secs_f64(args.seconds),
    };

    serve_phase(&p, &pool, &drive, &entry, nand3, args, log, &mut out)?;
    serve::shut_down(p);
    for rep in SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER {
        let (again, _, cost) = set_up(workload, rep, Some(&first), args, work, log, &mut out)?;
        serve::shut_down(again);
        costs.push(cost);
    }

    let of = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    out.e2e.push(Metric::new("setup_s", of(|c| c.setup_s), "s"));
    out.e2e
        .push(Metric::new("char_s", of(|c| c.char_wall_s), "s"));
    out.e2e
        .push(Metric::new("char_cpu_s", of(|c| c.char_cpu_s), "s"));
    out.note("setup_repeats", costs.len());
    out.note("char_repeats", costs.len());
    if args.trace {
        char_layers(&costs.iter().map(|c| c.stats).collect::<Vec<_>>(), &mut out);
    }
    Ok(out)
}
