//! Fixture models, seeded query generation and the Table 5-1 accuracy
//! check. Everything here goes through the library's public API.

use crate::measure::process_cpu_s;
use proxim_bench::env::{ExperimentEnv, Fidelity};
use proxim_bench::table5_1;
use proxim_cells::{Cell, Technology};
use proxim_model::characterize::CharacterizeOptions;
use proxim_model::jobs::CharStats;
use proxim_model::{InputEvent, ModelError, ProximityModel};
use proxim_numeric::pwl::Edge;
use proxim_obs as obs;
use rand::rngs::StdRng;
use rand::RngExt;
use std::time::Instant;

/// Seed of the gating Table 5-1 population (the paper-reproduction seed
/// `experiments` uses). Fixed so `acc_*` repeat exactly run to run.
pub const GATING_SEED: u64 = 1996;

/// Configurations per Table 5-1 population, as in the paper.
pub const POPULATION: usize = 100;

/// One characterized fixture and what its characterization cost.
pub struct Characterized {
    pub model: ProximityModel,
    pub json: String,
    pub stats: CharStats,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Characterizes `cell` on the demo technology with one worker. With
/// `metrics` the global `obs` registry records solver counters for the
/// duration of the call (traced runs only).
pub fn characterize(
    cell: &Cell,
    opts: &CharacterizeOptions,
    metrics: bool,
) -> Result<Characterized, ModelError> {
    let opts = CharacterizeOptions {
        jobs: 1,
        ..opts.clone()
    };
    if metrics {
        obs::set_level(obs::Level::Metrics);
    }
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let result = ProximityModel::characterize_with_stats(cell, &Technology::demo_5v(), &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    obs::set_level(obs::Level::Off);
    let (model, stats) = result?;
    let json = model.to_json()?;
    Ok(Characterized {
        model,
        json,
        stats,
        wall_s,
        cpu_s,
    })
}

/// Why a characterization does not pass the benchmark's output check, if
/// it does not: byte identity with the reference run, no failed jobs or
/// degraded slices, and the same audit findings as the reference run.
pub fn char_defect(c: &Characterized, reference: &Characterized) -> Option<String> {
    if c.json != reference.json {
        return Some("model JSON differs from the first characterization".into());
    }
    let s = &c.stats;
    if s.failed_jobs != 0 || s.degraded_slices != 0 {
        return Some(format!(
            "{} failed jobs, {} degraded slices",
            s.failed_jobs, s.degraded_slices
        ));
    }
    if s.audit_findings != reference.stats.audit_findings {
        return Some(format!(
            "{} audit findings, the first run had {}",
            s.audit_findings, reference.stats.audit_findings
        ));
    }
    s.invariant_violation()
}

fn env_for(model: &ProximityModel) -> ExperimentEnv {
    ExperimentEnv {
        tech: model.tech().clone(),
        cell: model.cell().clone(),
        model: model.clone(),
        fidelity: Fidelity::Fast,
    }
}

/// The three falling input events of each configuration of a seeded
/// Table 5-1 population, placed for `model`'s thresholds.
pub fn table5_1_events(model: &ProximityModel, count: usize, seed: u64) -> Vec<Vec<InputEvent>> {
    let env = env_for(model);
    table5_1::population(count, seed)
        .iter()
        .map(|cfg| table5_1::events_for(&env, cfg).to_vec())
        .collect()
}

/// Direct-simulation answers for one population: per configuration the
/// delay from each input and the output transition time.
pub struct Golden {
    pub events: Vec<Vec<InputEvent>>,
    delays: Vec<[f64; 3]>,
    trans: Vec<f64>,
}

/// Simulates a Table 5-1 population with the validation simulator of
/// `proxim_bench` (tighter than characterization: the paper's golden runs).
pub fn golden(model: &ProximityModel, seed: u64) -> Result<Golden, ModelError> {
    let env = env_for(model);
    let th = env.thresholds();
    let sim = env.reference_simulator();
    let events = table5_1_events(model, POPULATION, seed);
    let mut delays = Vec::with_capacity(events.len());
    let mut trans = Vec::with_capacity(events.len());
    for ev in &events {
        let r = sim.simulate(ev)?;
        delays.push([
            r.delay_from(0, &th)?,
            r.delay_from(1, &th)?,
            r.delay_from(2, &th)?,
        ]);
        trans.push(r.transition_time(&th)?);
    }
    Ok(Golden {
        events,
        delays,
        trans,
    })
}

/// Model-versus-simulation error over one population.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub delay_rms_pct: f64,
    pub trans_rms_pct: f64,
    pub max_abs_pct: f64,
}

/// Scores the model's answers, one `(reference pin, delay, output
/// transition)` per golden configuration, in order.
pub fn score(g: &Golden, answers: &[(usize, f64, f64)]) -> Accuracy {
    let (mut d2, mut t2, mut max_abs) = (0.0, 0.0, 0.0f64);
    for (i, &(pin, delay, trans)) in answers.iter().enumerate() {
        let k = g.events[i].iter().position(|e| e.pin == pin).unwrap_or(0);
        let d = (delay - g.delays[i][k]) / g.delays[i][k] * 100.0;
        let t = (trans - g.trans[i]) / g.trans[i] * 100.0;
        d2 += d * d;
        t2 += t * t;
        max_abs = max_abs.max(d.abs()).max(t.abs());
    }
    let n = answers.len().max(1) as f64;
    Accuracy {
        delay_rms_pct: (d2 / n).sqrt(),
        trans_rms_pct: (t2 / n).sqrt(),
        max_abs_pct: max_abs,
    }
}

/// A seeded random query on an `inputs`-input cell: `k` distinct pins
/// switching the same way, transition times and starts in the Table 5-1
/// ranges (τ ∈ [50, 2000] ps, starts within 500 ps).
pub fn random_query(rng: &mut StdRng, inputs: usize, k: usize) -> Vec<InputEvent> {
    let mut pins: Vec<usize> = (0..inputs).collect();
    for i in 0..k {
        let j = rng.random_range(i..inputs);
        pins.swap(i, j);
    }
    let edge = if rng.random_range(0..2u64) == 0 {
        Edge::Rising
    } else {
        Edge::Falling
    };
    pins[..k]
        .iter()
        .map(|&pin| {
            InputEvent::new(
                pin,
                edge,
                rng.random_range(0.0..500e-12),
                rng.random_range(50e-12..2000e-12),
            )
        })
        .collect()
}
