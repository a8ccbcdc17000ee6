//! Benchmark of the FaaSFlow simulator: runs one workload for a time
//! budget, checks its outputs, and prints its end-to-end metrics
//! (`--trace 0`) or per-layer metrics (`--trace 1`), ending with one JSON
//! line. `run.py` builds it and is the entry point; see README.md.
//!
//! ```text
//! cargo run --release -p faasflow-bench --bin benchmark -- --workload paper7-mix
//! ```

mod layers;
mod reference;
mod round;
mod workload;

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use round::{fnv64, run_round, vm_kb, Round};
use workload::Workload;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Independent simulations per run. Round `i` simulates replica
/// `i % REPLICAS`, whose seed derives from `--seed`: pooling replicas
/// averages out the dynamics of any single seed, and repeating each one
/// gives it a cheapest round.
const REPLICAS: usize = 8;

/// `report_fnv64` at `--scale 1` of each workload on the default and the
/// held-out seed (x86_64 Linux). A run on one of these seeds says whether
/// it reproduces the recorded simulation bit for bit.
const RECORDED_FNV64: [(&str, u64, u64); 8] = [
    ("fleet128-wsp", 1, 0x1bd0_7081_d9d7_276d),
    ("fleet128-wsp", 7919, 0x70fd_4bc7_ec87_d9f4),
    ("paper7-mix", 1, 0x6835_bbb4_b517_0340),
    ("paper7-mix", 7919, 0x105c_bfd5_953f_3614),
    ("storage-msp32", 1, 0xf457_8d48_bbc8_10de),
    ("storage-msp32", 7919, 0x2cbf_114a_7e94_0010),
    ("observe7-traced", 1, 0xa97f_3da7_7a0d_a4cd),
    ("observe7-traced", 7919, 0x3696_5b7f_ff6e_0e46),
];

const USAGE: &str =
    "usage: benchmark --workload <fleet128-wsp|paper7-mix|storage-msp32|observe7-traced> \
[--seed N] [--seconds S] [--scale F] [--trace 0|1 --plain-fnv HEX]";

/// One named metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    /// Per-layer run: the plain build's `report_fnv64` on the same seed,
    /// which this run must reproduce.
    plain_fnv: Option<u64>,
}

fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut scale) = (DEFAULT_SEED, 15.0_f64, 1.0_f64);
        let (mut per_layer, mut plain_fnv) = (false, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = parse(&flag, &value)?,
                "--seconds" => seconds = parse(&flag, &value)?,
                "--scale" => scale = parse(&flag, &value)?,
                "--trace" => {
                    per_layer = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for {flag}: {value}")),
                    };
                }
                "--plain-fnv" => {
                    plain_fnv = Some(
                        u64::from_str_radix(&value, 16)
                            .map_err(|_| format!("bad value for {flag}: {value}"))?,
                    );
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds.is_finite() && seconds > 0.0 && scale.is_finite() && scale > 0.0) {
            return Err("--seconds and --scale must be positive".to_string());
        }
        if per_layer != plain_fnv.is_some() {
            return Err(
                "--trace 1 goes with --plain-fnv, taken from a plain run on the same seed"
                    .to_string(),
            );
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            scale,
            plain_fnv,
        })
    }
}

fn replica_seed(seed: u64, replica: usize) -> u64 {
    seed.wrapping_mul(REPLICAS as u64)
        .wrapping_add(replica as u64)
}

/// Runs rounds until the next one would overrun `args.seconds`; every
/// replica runs at least once.
fn run(args: &Args) -> Result<Vec<Round>, String> {
    // The first pass pays for page faults that later passes do not.
    reference::reference_pass();
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let per_round = spent / rounds.len().max(1) as f64;
        if rounds.len() >= REPLICAS && spent + per_round > args.seconds {
            return Ok(rounds);
        }
        let seed = replica_seed(args.seed, rounds.len() % REPLICAS);
        rounds.push(run_round(args.workload, seed, args.scale)?);
    }
}

/// Host-cost estimate: the mean over replicas of each replica's cheapest
/// round. Every round of a replica does identical work, and a busy host
/// only ever adds time to it, so the cheapest is the steadiest reading.
fn cheapest(rounds: &[Round], cost: impl Fn(&Round) -> f64) -> f64 {
    let best = |replica| {
        rounds
            .iter()
            .skip(replica)
            .step_by(REPLICAS)
            .map(&cost)
            .fold(f64::INFINITY, f64::min)
    };
    (0..REPLICAS).map(best).sum::<f64>() / REPLICAS as f64
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// End-to-end metrics. The simulated ones pool the first round of every
/// replica (later rounds repeat them exactly).
fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Vec<Metric> {
    let replicas = &rounds[..REPLICAS];
    let sims = || replicas.iter().map(|r| r.sim);
    let per_replica = |total: f64| total / REPLICAS as f64;
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", cheapest(rounds, |r| r.setup_s)),
        m(
            "host_ref_per_kinv",
            "ref/kinv",
            cheapest(rounds, host_ref_per_kinv),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb),
        m(
            "sim_mean_ms",
            "sim_ms",
            sims().map(|s| s.e2e_sum_ms).sum::<f64>()
                / sims().map(|s| s.e2e_count).sum::<u64>() as f64,
        ),
        m(
            "sim_tenant_p99_ms",
            "sim_ms",
            per_replica(sims().map(|s| s.tenant_p99_ms).sum()),
        ),
        m(
            "sim_inv_per_min",
            "1/sim_min",
            per_replica(sims().map(|s| s.inv_per_min).sum()),
        ),
        m(
            "goodput_frac",
            "frac",
            replicas.iter().map(|r| r.good).sum::<u64>() as f64
                / replicas.iter().map(|r| r.sent).sum::<u64>() as f64,
        ),
    ]
}

/// Host time of 1000 measured invocations in reference-kernel passes.
fn host_ref_per_kinv(round: &Round) -> f64 {
    round.measured_s * 1e3 / round.sent as f64 / round.ref_s
}

/// Per-round layer metrics reduced to their medians.
fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let per_round: Vec<Vec<Metric>> = rounds.iter().map(layers::layer_metrics).collect();
    per_round[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: median(per_round.iter().map(|ms| ms[i].value)),
            ..*first
        })
        .collect()
}

/// FNV-64 over the replicas' report digests, in replica order.
fn run_digest(rounds: &[Round]) -> u64 {
    let digests: Vec<u8> = rounds[..REPLICAS]
        .iter()
        .flat_map(|r| r.digest.to_le_bytes())
        .collect();
    fnv64(&digests)
}

/// Every failed output check of the run.
fn problems(rounds: &[Round], args: &Args) -> Vec<String> {
    let mut problems: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.problems.iter().map(move |p| format!("round {i}: {p}")))
        .collect();
    if (REPLICAS..rounds.len()).any(|i| rounds[i].digest != rounds[i % REPLICAS].digest) {
        problems.push("two rounds with the same seed simulated differently".to_string());
    }
    if let Some(plain_fnv) = args.plain_fnv {
        let digest = run_digest(rounds);
        if plain_fnv != digest {
            problems.push(format!(
                "report_fnv64 {digest:016x} differs from the plain build's {plain_fnv:016x}"
            ));
        }
    }
    let mut uncharged: Vec<&str> = rounds.iter().flat_map(layers::uncharged).collect();
    uncharged.sort_unstable();
    uncharged.dedup();
    for handler in uncharged {
        problems.push(format!(
            "handler {handler} ran but the layer table charges it to no layer"
        ));
    }
    problems
}

/// How the run's digest compares with the one recorded for its workload
/// and seed, if any.
fn recorded_note(args: &Args, digest: u64) -> String {
    let recorded = RECORDED_FNV64
        .iter()
        .find(|&&(w, seed, _)| w == args.workload.name() && seed == args.seed);
    match recorded {
        Some(&(_, seed, fnv)) if args.scale == 1.0 => {
            let verdict = if fnv == digest {
                "matches"
            } else {
                "differs from"
            };
            format!("{verdict} the {fnv:016x} recorded for seed {seed}")
        }
        _ => "no recorded value for this seed and scale".to_string(),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rounds = match run(&args) {
        Ok(rounds) => rounds,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(peak_rss_kb) = vm_kb("VmHWM:") else {
        eprintln!("benchmark: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let metrics = match args.plain_fnv {
        None => end_to_end(&rounds, peak_rss_kb as f64 / 1024.0),
        Some(_) if rounds.iter().all(|r| r.probe.handlers.is_empty()) => {
            eprintln!(
                "benchmark: --trace 1 needs a build with --features faasflow-core/loop-profile"
            );
            return ExitCode::from(2);
        }
        Some(_) => per_layer(&rounds),
    };
    let mut problems = problems(&rounds, &args);
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", m.name));
    }
    let attempted: u64 = rounds.iter().map(|r| r.sent).sum();
    let failed: u64 = rounds.iter().map(|r| r.sent - r.good).sum();

    println!(
        "workload {} seed {} scale {} rounds {}",
        args.workload.name(),
        args.seed,
        args.scale,
        rounds.len()
    );
    println!(
        "smallest per-tenant sample count {}",
        rounds
            .iter()
            .map(|r| r.sim.min_tenant_samples)
            .min()
            .unwrap_or(0)
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}: setup {:.6} s, measured {:.6} s (loop {:.6} s), {} invocations",
            r.setup_s, r.measured_s, r.probe.loop_s, r.sent
        );
    }
    let digest = run_digest(&rounds);
    println!("report_fnv64 {digest:016x}");
    println!("digest {}", recorded_note(&args, digest));
    println!(
        "host_us_per_inv {} (unnormalised; reference pass {} s)",
        cheapest(&rounds, |r| r.measured_s * 1e6 / r.sent as f64),
        median(rounds.iter().map(|r| r.ref_s))
    );
    for m in &metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    println!(
        "{}",
        result_json(problems.is_empty(), attempted, failed, &metrics)
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain run of `workload` at 1% of its size.
    fn small_args(workload: Workload) -> Args {
        Args {
            workload,
            seed: DEFAULT_SEED,
            seconds: 1e-9,
            scale: 0.01,
            plain_fnv: None,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_small_scale() {
        for workload in Workload::ALL {
            let round = run_round(workload, DEFAULT_SEED, 0.01).unwrap();
            assert!(round.sent > 0, "{}", workload.name());
            let problems = problems(&[round], &small_args(workload));
            assert!(problems.is_empty(), "{}: {problems:?}", workload.name());
        }
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        #[derive(serde::Deserialize)]
        struct Spec {
            end_to_end: Vec<MetricSpec>,
            per_layer: Vec<MetricSpec>,
        }
        #[derive(serde::Deserialize)]
        struct MetricSpec {
            name: String,
            unit: String,
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec: Spec = serde_json::from_str(&text).unwrap();
        let listed = |specs: &[MetricSpec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.clone(), s.unit.clone()))
                .collect()
        };
        let emitted = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let rounds = run(&small_args(Workload::Observe7Traced)).unwrap();
        assert_eq!(rounds.len(), REPLICAS);
        assert_eq!(emitted(end_to_end(&rounds, 1.0)), listed(&spec.end_to_end));
        assert_eq!(emitted(per_layer(&rounds)), listed(&spec.per_layer));
    }

    #[test]
    fn a_handler_outside_the_layer_table_fails_the_run() {
        let mut round = run_round(Workload::Paper7Mix, DEFAULT_SEED, 0.01).unwrap();
        round
            .probe
            .handlers
            .insert("Arrival".to_string(), (1, 1e-6));
        round
            .probe
            .handlers
            .insert("RenamedEvent".to_string(), (1, 1e-6));
        let problems = problems(&[round], &small_args(Workload::Paper7Mix));
        assert_eq!(
            problems,
            ["handler RenamedEvent ran but the layer table charges it to no layer"]
        );
    }

    #[test]
    fn digest_depends_only_on_the_seed() {
        let digest = |seed| run_round(Workload::Paper7Mix, seed, 0.01).unwrap().digest;
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }
}
