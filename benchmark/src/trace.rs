//! The traced run: per-layer numbers, taken from outside the crates.
//!
//! Four passes, each timing the public functions of some layers:
//!
//! * **replay** ([`crate::replay`]) — `serve::wire`, `serve::conn`,
//!   `serve::engine`, `core::persist` appends, and the stack total they
//!   sum to;
//! * **tcp** ([`crate::live`] with `/proc` sampling) — what `serve::tcp`
//!   adds on top of the work: waiting, and which thread is busy;
//! * **core** ([`crate::core_million`]) — `core::store`, `geo::grid`,
//!   `core::scheduler`, `core::selector`, deliveries, snapshot/recover;
//! * **runner** ([`crate::paper_study`]) — `bench::runner` per framework.
//!
//! A workload runs the passes that exercise *its* layers on its own
//! inputs at full size. Every run still reports every layer: the passes a
//! workload does not own run afterwards on a 1/20-scale reference input
//! and fill the remaining rows, marked `ref` in the notes — so a row is
//! never a constant, and a later change can be read off any traced run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use senseaid_core::persist::{DirStorage, PersistConfig};
use senseaid_serve::trace::trace_server;
use senseaid_sim::SimTime;

use crate::core_million::{self, CoreShape};
use crate::live::{self, LiveKind, LiveShape, TcpObservation};
use crate::paper_study::{self, StudyShape};
use crate::replay::{self, ReplayOutcome};
use crate::report::{Metric, Outcome};
use crate::span::{self, NameTotal, SpanLog};
use crate::stats;

/// Every per-layer metric, in report order, with its unit. The traced run
/// reports exactly these; `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.bytes_per_req", "B"),
    ("wire.bytes_per_resp", "B"),
    ("conn.reassemble_ns", "ns"),
    ("conn.flush_ns", "ns"),
    ("conn.frames_per_pump", "count"),
    ("engine.advance_ns", "ns"),
    ("engine.handle_self_ns", "ns"),
    ("engine.pushes_per_req", "count"),
    ("engine.ledger_depth_max", "count"),
    ("persist.append_ns", "ns"),
    ("persist.records_per_req", "count"),
    ("persist.bytes_per_req", "B"),
    ("persist.snapshot_ms", "ms"),
    ("persist.replay_krec_s", "krec/s"),
    ("persist.recover_ms", "ms"),
    ("stack.ns_per_req", "ns"),
    ("stack.wall_ns_per_req", "ns"),
    ("replay.driver_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("tcp.wait_ms", "ms"),
    ("tcp.engine_cpu_frac", "ratio"),
    ("tcp.worker_cpu_frac", "ratio"),
    ("tcp.cpu_us_per_req", "us"),
    ("tcp.idle_wakeups_s", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_frac", "ratio"),
    ("loadgen.backlog_end", "count"),
    ("scheduler.poll_ms", "ms"),
    ("scheduler.poll_tail_ms", "ms"),
    ("scheduler.assignments_per_round", "count"),
    ("selector.select_ns", "ns"),
    ("selector.rows_per_select", "count"),
    ("store.register_ns", "ns"),
    ("store.observe_ns", "ns"),
    ("store.update_state_ns", "ns"),
    ("store.gather_ns", "ns"),
    ("store.candidates_per_probe", "count"),
    ("store.bytes_per_device", "B"),
    ("grid.insert_ns", "ns"),
    ("grid.circle_ns", "ns"),
    ("core.deliver_ns", "ns"),
    ("runner.sa_complete_ms", "ms"),
    ("runner.sa_basic_ms", "ms"),
    ("runner.pcs_ms", "ms"),
    ("runner.periodic_ms", "ms"),
    ("runner.device_ticks_s", "1/s"),
    ("trace.spans", "count"),
];

/// Spans written to the JSONL file, at most.
const JSONL_CAP: usize = 200_000;

/// The rows collected so far. A pass that owns a row writes it first; a
/// reference pass only fills rows nobody owns.
#[derive(Default)]
struct Layers {
    rows: BTreeMap<&'static str, Metric>,
    problems: Vec<String>,
    void_phases: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: usize,
    /// The owning replay's (or core / runner pass's) span log, kept for the
    /// JSONL file.
    log: Option<SpanLog>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, n: usize, note: &str, reference: bool) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.rows.entry(name).or_insert_with(|| {
            let note = if reference {
                format!("ref (1/20-scale reference input): {note}")
            } else {
                note.to_owned()
            };
            Metric::new(name, value, unit, n, note)
        });
    }

    fn keep_log(&mut self, log: SpanLog, reference: bool) {
        self.spans += log.spans().len();
        if !reference && self.log.is_none() {
            self.log = Some(log);
        }
    }
}

fn per_call(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotal::self_ns_per_call)
}

// ---------------------------------------------------------------------
// Pass: replay
// ---------------------------------------------------------------------

fn replay_pass(
    layers: &mut Layers,
    kind: LiveKind,
    seed: u64,
    shape: &LiveShape,
    sat_ops: usize,
    out_dir: &Path,
    reference: bool,
) -> Result<(), String> {
    let dirs = kind.persists().then(|| {
        (
            live::scratch_dir(out_dir, "replay-plain"),
            live::scratch_dir(out_dir, "replay-traced"),
        )
    });
    // The untraced twin first: same ops, no stopwatch, bare storage.
    let plain = replay::replay(
        kind,
        replay::build_input(kind, seed, shape, sat_ops),
        dirs.as_ref().map(|d| d.0.as_path()),
        None,
    );
    let mut log = SpanLog::new();
    let traced = replay::replay(
        kind,
        replay::build_input(kind, seed, shape, sat_ops),
        dirs.as_ref().map(|d| d.1.as_path()),
        Some(&mut log),
    );
    check_replay(layers, kind, &plain, &traced, shape);

    let requests = traced.requests.max(1) as f64;
    let totals = span::totals(log.spans());
    let per_req = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64) / requests;
    let n = traced.requests as usize;
    let what = format!(
        "{} requests replayed single-threaded over loopback",
        traced.requests
    );
    layers.put(
        "wire.encode_req_ns",
        per_call(&totals, "wire.encode_req"),
        n,
        &what,
        reference,
    );
    layers.put(
        "wire.decode_req_ns",
        per_call(&totals, "wire.decode_req"),
        n,
        &what,
        reference,
    );
    layers.put(
        "wire.decode_resp_ns",
        per_call(&totals, "wire.decode_resp"),
        totals
            .get("wire.decode_resp")
            .map_or(0, |t| t.calls as usize),
        "per response or push decoded",
        reference,
    );
    layers.put(
        "wire.bytes_per_req",
        traced.req_bytes as f64 / requests,
        n,
        &what,
        reference,
    );
    layers.put(
        "wire.bytes_per_resp",
        traced.resp_bytes as f64 / requests,
        n,
        "response and push bytes per request",
        reference,
    );
    layers.put(
        "conn.reassemble_ns",
        per_req("conn.reassemble"),
        traced.pumps as usize,
        "Connection::pump_reads, per request (the loopback queue's per-byte pops included)",
        reference,
    );
    layers.put(
        "conn.flush_ns",
        per_req("conn.flush"),
        n,
        "Connection::queue + flush, per request",
        reference,
    );
    layers.put(
        "conn.frames_per_pump",
        requests / traced.pumps.max(1) as f64,
        traced.pumps as usize,
        "1 at the light rate, a 500 us quantum's worth at mid, 256 saturated",
        reference,
    );
    layers.put(
        "engine.advance_ns",
        per_req("engine.advance"),
        n,
        "explicit advance_to before each handle",
        reference,
    );
    layers.put(
        "engine.handle_self_ns",
        per_req("engine.handle"),
        n,
        "ServeEngine::handle minus the storage calls under it",
        reference,
    );
    layers.put(
        "engine.pushes_per_req",
        traced.pushes as f64 / requests,
        n,
        "assignment pushes per request",
        reference,
    );
    layers.put(
        "engine.ledger_depth_max",
        traced.ledger_depth_max as f64,
        1,
        "most unacked pushes held across all sessions",
        reference,
    );
    layers.put(
        "replay.driver_ns",
        per_req("replay.driver"),
        n,
        "the replay's own client side: loopback send and receive, building replies",
        reference,
    );
    let stack_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    let stack = stack_ns as f64 / requests;
    let wall = traced.wall_ns as f64 / requests;
    layers.put(
        "stack.ns_per_req",
        stack,
        n,
        "sum of every span's self time / requests",
        reference,
    );
    layers.put(
        "stack.wall_ns_per_req",
        wall,
        n,
        "traced replay wall / requests",
        reference,
    );
    if !reference && ((stack - wall) / wall).abs() > 0.05 {
        layers.problems.push(format!(
            "replay: the layer rows sum to {stack:.0} ns/request but the replay took {wall:.0}"
        ));
    }
    layers.put(
        "trace.overhead_frac",
        traced.wall_ns as f64 / plain.wall_ns.max(1) as f64,
        n,
        "traced replay wall / untraced replay wall",
        reference,
    );

    if let Some((plain_dir, traced_dir)) = dirs {
        let (records, bytes) = traced.journal;
        layers.put(
            "persist.append_ns",
            per_call(&totals, "persist.append"),
            records as usize,
            "DirStorage::append per journal record (file opened per record, no fsync)",
            reference,
        );
        layers.put(
            "persist.records_per_req",
            records as f64 / requests,
            n,
            &what,
            reference,
        );
        layers.put(
            "persist.bytes_per_req",
            bytes as f64 / requests,
            n,
            &what,
            reference,
        );
        // The directory is now what a kill -9 leaves: a journal tail and
        // no closing snapshot. Recover a fresh server from it.
        let started = Instant::now();
        let mut recovered = trace_server(replay::SHARDS);
        let report = DirStorage::open(&traced_dir)
            .map_err(|e| e.to_string())
            .and_then(|disk| {
                recovered
                    .recover_from_storage(Box::new(disk), PersistConfig::default(), SimTime::ZERO)
                    .map_err(|e| e.to_string())
            });
        let took = started.elapsed().as_secs_f64();
        match report {
            Ok(r) => {
                layers.put(
                    "persist.replay_krec_s",
                    r.ops_replayed as f64 / took.max(1e-9) / 1e3,
                    r.ops_replayed as usize,
                    "journal records replayed per second by recover_from_storage on the crash image",
                    reference,
                );
                let got = (recovered.device_count(), recovered.task_count());
                if got != traced.devices_tasks || r.ops_replayed != records {
                    layers.problems.push(format!(
                        "replay: recovery replayed {} of {records} records and holds {got:?}, \
                         the crashed server held {:?}",
                        r.ops_replayed, traced.devices_tasks
                    ));
                }
            }
            Err(e) => layers
                .problems
                .push(format!("replay: recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(plain_dir);
        let _ = std::fs::remove_dir_all(traced_dir);
    }
    layers.attempted += traced.requests;
    layers.failed += traced.wrong;
    layers.keep_log(log, reference);
    Ok(())
}

fn check_replay(
    layers: &mut Layers,
    kind: LiveKind,
    plain: &ReplayOutcome,
    traced: &ReplayOutcome,
    shape: &LiveShape,
) {
    for (label, outcome) in [("untraced", plain), ("traced", traced)] {
        for p in &outcome.problems {
            layers.problems.push(format!("{label} replay: {p}"));
        }
        if outcome.wrong > 0 {
            layers
                .problems
                .push(format!("{label} replay: {} wrong responses", outcome.wrong));
        }
        if outcome.devices_tasks.0 != shape.devices {
            layers.problems.push(format!(
                "{label} replay: {} devices at the end, {} enrolled",
                outcome.devices_tasks.0, shape.devices
            ));
        }
    }
    if plain.digest != traced.digest {
        layers
            .problems
            .push("tracing changed the replay's durable digest".to_owned());
    }
    if traced.digest != replay::spec_digest(traced) {
        layers.problems.push(
            "the replay's durable digest differs from serve::trace::run_sim over the same ops"
                .to_owned(),
        );
    }
    if kind == LiveKind::TaskPush && traced.pushes == 0 {
        layers
            .problems
            .push("the task replay pushed nothing".to_owned());
    }
}

// ---------------------------------------------------------------------
// Pass: tcp
// ---------------------------------------------------------------------

fn tcp_pass(
    layers: &mut Layers,
    kind: LiveKind,
    seed: u64,
    shape: &LiveShape,
    out_dir: &Path,
    reference: bool,
) -> Result<(), String> {
    let mut seen = TcpObservation::default();
    let run =
        live::run(kind, seed, shape, out_dir, Some(&mut seen)).map_err(|e| format!("i/o: {e}"))?;
    let light: Vec<f64> = run.light_ms.concat();
    let p50 = stats::median(&light);
    let stack_ms = layers
        .rows
        .get("stack.ns_per_req")
        .map_or(0.0, |m| m.value / 1e6);
    layers.put(
        "tcp.wait_ms",
        p50 - stack_ms,
        light.len(),
        &format!(
            "light-rate median latency ({p50:.4} ms) minus the stack's work per request: \
             time spent in hand-offs and sleeps"
        ),
        reference,
    );
    let wall_ns = (seen.sat_wall_s * 1e9).max(1.0);
    layers.put(
        "tcp.engine_cpu_frac",
        seen.sat.engine_cpu_ns as f64 / wall_ns,
        run.sat_per_s.len(),
        "engine thread CPU / wall while saturated",
        reference,
    );
    layers.put(
        "tcp.worker_cpu_frac",
        seen.sat.worker_cpu_ns as f64 / wall_ns,
        run.sat_per_s.len(),
        "busiest socket worker's CPU / wall while saturated",
        reference,
    );
    layers.put(
        "tcp.cpu_us_per_req",
        seen.sat.total_cpu_ns as f64 / 1e3 / seen.sat_requests.max(1) as f64,
        seen.sat_requests as usize,
        "all server threads' CPU per request while saturated",
        reference,
    );
    layers.put(
        "tcp.idle_wakeups_s",
        seen.idle_wakeups_s,
        1,
        "voluntary context switches per second of the server threads, nothing in flight",
        reference,
    );
    let pacer = run.pacer.unwrap_or_default();
    layers.put(
        "loadgen.late_p99_ms",
        pacer.late_p99_ms,
        1,
        "worst open-loop phase",
        reference,
    );
    layers.put(
        "loadgen.achieved_frac",
        pacer.achieved_frac,
        1,
        "worst open-loop phase",
        reference,
    );
    layers.put(
        "loadgen.backlog_end",
        pacer.backlog_end as f64,
        1,
        "requests outstanding when the last was due, worst open-loop phase",
        reference,
    );
    if !reference {
        layers.attempted += run.attempted;
        layers.failed += run.failed;
        layers.problems.extend(run.problems);
        layers.void_phases.extend(run.void_phases);
    } else if !run.problems.is_empty() {
        layers
            .problems
            .extend(run.problems.into_iter().map(|p| format!("ref tcp: {p}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Pass: core
// ---------------------------------------------------------------------

fn core_pass(layers: &mut Layers, seed: u64, shape: &CoreShape, reference: bool) {
    let mut log = SpanLog::new();
    let run = core_million::run(seed, shape, Some(&mut log));
    let totals = span::totals(log.spans());
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls as usize);
    let pop = format!("{} devices", shape.devices);
    layers.put(
        "store.register_ns",
        per_call(&totals, "store.register"),
        calls("store.register"),
        &format!("SenseAidServer::register_device, {pop}"),
        reference,
    );
    layers.put(
        "store.observe_ns",
        per_call(&totals, "store.observe"),
        calls("store.observe"),
        &format!("SenseAidServer::observe_device (first observation homes the device), {pop}"),
        reference,
    );
    layers.put(
        "store.update_state_ns",
        per_call(&totals, "store.update_state"),
        calls("store.update_state"),
        "SenseAidServer::update_device_state during the rounds",
        reference,
    );
    layers.put(
        "core.deliver_ns",
        per_call(&totals, "core.deliver"),
        calls("core.deliver"),
        "SenseAidServer::submit_sensed_data",
        reference,
    );
    let polls: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "scheduler.poll")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let poll = stats::timing(&polls, 0.99);
    layers.put(
        "scheduler.poll_ms",
        poll.p50,
        poll.n,
        "median SenseAidServer::poll",
        reference,
    );
    layers.put(
        "scheduler.poll_tail_ms",
        poll.tail,
        poll.n,
        &format!("p{:.1} SenseAidServer::poll", poll.tail_percentile),
        reference,
    );
    layers.put(
        "scheduler.assignments_per_round",
        run.outcome.assignments as f64 / polls.len().max(1) as f64,
        polls.len(),
        "devices tasked per round",
        reference,
    );
    layers.put(
        "store.bytes_per_device",
        run.bytes_per_device,
        shape.devices,
        "VmRSS growth over the load / devices",
        reference,
    );
    layers.put(
        "persist.snapshot_ms",
        run.snapshot_ms,
        1,
        &format!(
            "full snapshot to MemStorage, {pop}, {} bytes",
            run.snapshot_bytes
        ),
        reference,
    );
    layers.put(
        "persist.recover_ms",
        run.recover_ms,
        1,
        &format!("recover_from_storage on that snapshot, {pop}"),
        reference,
    );

    // The layers poll uses inside itself, called directly. The standalone
    // store is capped at 100 k devices: gather cost follows density, which
    // is the same, not population.
    let probe_devices = shape.devices.min(100_000);
    let mut probe_log = SpanLog::new();
    let probes = core_million::probe_layers(seed, probe_devices, &mut probe_log);
    let note = format!(
        "{} probes of a 500 m circle over {probe_devices} devices at the workload's density",
        probes.probes
    );
    layers.put(
        "store.gather_ns",
        probes.gather_ns,
        probes.probes,
        &format!("SoaDeviceStore::candidates_into, {note}"),
        reference,
    );
    layers.put(
        "store.candidates_per_probe",
        probes.candidates_per_probe,
        probes.probes,
        &note,
        reference,
    );
    layers.put(
        "selector.select_ns",
        probes.select_ns,
        probes.probes,
        "DeviceSelector::select, top 3 of the gathered rows",
        reference,
    );
    layers.put(
        "selector.rows_per_select",
        probes.candidates_per_probe,
        probes.probes,
        &note,
        reference,
    );
    layers.put(
        "grid.insert_ns",
        probes.grid_insert_ns,
        probe_devices,
        "GridIndex::insert per key",
        reference,
    );
    layers.put(
        "grid.circle_ns",
        probes.grid_circle_ns,
        probes.probes,
        "GridIndex::for_each_in_circle per query",
        reference,
    );
    if !reference {
        layers.attempted += run.outcome.ops + 2 * shape.devices as u64;
    }
    layers
        .problems
        .extend(run.problems.into_iter().map(|p| format!("core: {p}")));
    layers.spans += probe_log.spans().len();
    layers.keep_log(log, reference);
}

// ---------------------------------------------------------------------
// Pass: runner
// ---------------------------------------------------------------------

fn runner_pass(layers: &mut Layers, seed: u64, shape: &StudyShape, reference: bool) {
    let mut log = SpanLog::new();
    let run = paper_study::run_traced(seed, shape, &mut log);
    let what = format!(
        "median run_scenario wall, {} devices per group",
        shape.group_size
    );
    for (i, name) in [
        "runner.periodic_ms",
        "runner.pcs_ms",
        "runner.sa_basic_ms",
        "runner.sa_complete_ms",
    ]
    .into_iter()
    .enumerate()
    {
        layers.put(
            name,
            stats::median(&run.per_framework_ms[i]),
            run.per_framework_ms[i].len(),
            &what,
            reference,
        );
    }
    layers.put(
        "runner.device_ticks_s",
        run.device_ticks_per_s,
        run.light_ms.len(),
        "device-seconds simulated per wall second",
        reference,
    );
    if !reference {
        layers.attempted += run.runs;
    }
    layers
        .problems
        .extend(run.problems.into_iter().map(|p| format!("runner: {p}")));
    layers.keep_log(log, reference);
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// `--smoke`'s share of full size, which is also the reference inputs'.
pub const REFERENCE_SCALE: f64 = 0.05;
/// `--seconds` the reference inputs are shaped for.
const REFERENCE_SECONDS: f64 = 15.0 * REFERENCE_SCALE;

/// One server instance's worth of the live shape, for the tcp pass.
fn tcp_shape(kind: LiveKind, seconds: f64, scale: f64) -> LiveShape {
    let full = LiveShape::new(kind, seconds, scale);
    LiveShape {
        instances: 1,
        restarts: 1,
        ..full
    }
}

/// Ops of the saturated stretch of a replay: one bout's worth.
fn replay_sat_ops(kind: LiveKind, scale: f64) -> usize {
    let full = match kind {
        LiveKind::TaskPush => 4_000.0,
        _ => 100_000.0,
    };
    ((full * scale) as usize).max(256)
}

/// Runs the traced passes for `workload` and reports every per-layer
/// metric.
///
/// # Errors
///
/// I/O failures talking to the live server or writing the span file.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let live_of = |w: &str| match w {
        "live_mix" => Some(LiveKind::Mix),
        "live_mix_wal" => Some(LiveKind::MixWal),
        "live_task_push" => Some(LiveKind::TaskPush),
        _ => None,
    };

    // --- the passes this workload owns, on its own inputs ---
    match (workload, live_of(workload)) {
        (_, Some(kind)) => {
            let shape = LiveShape::new(kind, seconds, scale);
            replay_pass(
                &mut layers,
                kind,
                seed,
                &shape,
                replay_sat_ops(kind, scale),
                out_dir,
                false,
            )?;
            tcp_pass(
                &mut layers,
                kind,
                seed,
                &tcp_shape(kind, seconds, scale),
                out_dir,
                false,
            )?;
        }
        ("core_million", _) => {
            core_pass(&mut layers, seed, &CoreShape::new(seconds, scale), false);
        }
        ("paper_study", _) => {
            runner_pass(&mut layers, seed, &StudyShape::new(seconds, scale), false);
        }
        (other, _) => return Err(format!("unknown workload {other}")),
    }

    // --- every other layer, on the reference inputs ---
    if live_of(workload).is_none_or(|k| !k.persists()) {
        // Persist rows (and, for the non-live workloads, the whole stack).
        let shape = LiveShape::new(LiveKind::MixWal, REFERENCE_SECONDS, REFERENCE_SCALE);
        let ops = replay_sat_ops(LiveKind::MixWal, REFERENCE_SCALE);
        replay_pass(
            &mut layers,
            LiveKind::MixWal,
            seed,
            &shape,
            ops,
            out_dir,
            true,
        )?;
    }
    if live_of(workload).is_none() {
        let shape = tcp_shape(LiveKind::Mix, REFERENCE_SECONDS * 3.0, REFERENCE_SCALE);
        tcp_pass(&mut layers, LiveKind::Mix, seed, &shape, out_dir, true)?;
    }
    if workload != "core_million" {
        // The live workloads' own population size is the interesting one:
        // store.register_ns at 10 k devices is what their set-up pays.
        let scale = if live_of(workload).is_some() {
            0.01 * scale
        } else {
            REFERENCE_SCALE
        };
        core_pass(
            &mut layers,
            seed,
            &CoreShape::new(REFERENCE_SECONDS, scale),
            true,
        );
    }
    if workload != "paper_study" {
        runner_pass(
            &mut layers,
            seed,
            &StudyShape::new(REFERENCE_SECONDS, REFERENCE_SCALE),
            true,
        );
    }

    // --- spans out, rows in order ---
    let spans = layers.spans;
    layers.put(
        "trace.spans",
        spans as f64,
        spans,
        "spans recorded by all passes",
        false,
    );
    if let Some(log) = &layers.log {
        let file = out_dir.join(format!("trace-{workload}.jsonl"));
        log.write_jsonl(&file, JSONL_CAP)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    let mut outcome = Outcome {
        attempted: layers.attempted,
        failed: layers.failed,
        problems: layers.problems,
        void_phases: layers.void_phases,
        ..Outcome::default()
    };
    for (name, _) in PER_LAYER {
        match layers.rows.remove(name) {
            Some(metric) => outcome.metrics.push(metric),
            None => outcome
                .problems
                .push(format!("no pass produced the per-layer metric {name}")),
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit) in PER_LAYER {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn an_owned_row_is_not_overwritten_by_a_reference_pass() {
        let mut layers = Layers::default();
        layers.put("wire.encode_req_ns", 100.0, 10, "own", false);
        layers.put("wire.encode_req_ns", 999.0, 1, "late", true);
        layers.put("wire.decode_req_ns", 50.0, 1, "only ref", true);
        assert_eq!(layers.rows["wire.encode_req_ns"].value, 100.0);
        assert!(layers.rows["wire.decode_req_ns"].note.starts_with("ref "));
    }
}
