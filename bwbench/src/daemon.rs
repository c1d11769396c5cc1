//! `daemon`: an in-process `bw-server` (two workers, a fresh cache
//! directory, TCP on `127.0.0.1:0`) driven by one client connection in
//! a closed loop: a miss phase of new 12-cell grids, then a hit phase
//! replaying those grids in a seeded order.
//!
//! The cells are tiny, so misses are dominated by the per-cell fixed
//! costs (program build, machine construction, cache store, journal
//! fsync) and hits by cache loads, framing and the transport.

use std::path::Path;
use std::time::Instant;

use bw_core::workload::all_benchmarks;
use bw_core::zoo::NamedPredictor;
use bw_core::{simulate, RunResult, SimConfig};
use bw_server::{resolve_cell, CellReply, CellSpec, CellStatus, Client, Server, ServerConfig};
use serde::{Deserialize, Serialize, Value};

use crate::probe::Sample;
use crate::spans::{timed, Tracer};
use crate::{procfs, Checks, Pass, Rng, Workload};

const WARMUP_INSTS: u64 = 20_000;
const MEASURE_INSTS: u64 = 10_000;
/// The daemon's simulation workers (the benchmark's load limit).
const WORKERS: usize = 2;
const MISS_REQUESTS: usize = 40;
/// Hit requests per pass: every grid of the miss phase twice.
const HIT_REQUESTS: usize = 2 * MISS_REQUESTS;
const GRID_MODELS: usize = 3;
const GRID_PREDICTORS: usize = 4;
/// Cells of the last pass re-simulated locally, and probed.
const SAMPLED_CELLS: usize = 4;
/// Set-up ends with this many hits on one warm-up grid (after its
/// miss), drawn from a seed stream no pass uses: the timed phases then
/// measure the steady state a long-lived daemon serves in.
const WARMUP_HITS: usize = 2;

pub struct Daemon {
    seed: u64,
    // Dropped in declaration order: the client hangs up before the
    // server stops.
    client: Client,
    server: Server,
    next_req: u64,
    miss_cells: u64,
    /// The last pass's grids with their miss-phase replies.
    grids: Vec<(Vec<CellSpec>, Vec<CellReply>)>,
}

/// The miss-phase grids of seed stream `stream` (pass `index` uses
/// stream `index + 1`, the set-up warm-up stream 0): each is `GRID_MODELS` models ×
/// `GRID_PREDICTORS` predictors under one fresh seed, so every cell is
/// new to the daemon. Models and predictors are dealt round-robin from
/// seeded permutations, so every pass covers all of them evenly.
fn grids(seed: u64, stream: u64) -> Vec<Vec<CellSpec>> {
    let mut rng = Rng::new(seed, stream);
    let mut models: Vec<_> = all_benchmarks().iter().collect();
    let mut predictors = NamedPredictor::FIGURE_ORDER;
    rng.shuffle(&mut models);
    rng.shuffle(&mut predictors);
    (0..MISS_REQUESTS)
        .map(|r| {
            let cfg = SimConfig::builder()
                .warmup_insts(WARMUP_INSTS)
                .measure_insts(MEASURE_INSTS)
                .seed(rng.next_u64())
                .build()
                .expect("valid daemon budget");
            let mut cells = Vec::with_capacity(GRID_MODELS * GRID_PREDICTORS);
            for m in 0..GRID_MODELS {
                let model = models[(r * GRID_MODELS + m) % models.len()];
                for p in 0..GRID_PREDICTORS {
                    let predictor = predictors[(r * GRID_PREDICTORS + p) % predictors.len()];
                    cells.push(CellSpec::for_run(model.name, predictor, &cfg));
                }
            }
            cells
        })
        .collect()
}

fn statuses(replies: &[CellReply]) -> Vec<(u64, &CellStatus)> {
    replies.iter().map(|r| (r.cell, &r.status)).collect()
}

impl Daemon {
    /// One closed-loop request; returns the replies (empty on a
    /// transport failure) and the latency in ms.
    fn request(
        &mut self,
        t: &mut Tracer,
        cells: &[CellSpec],
        checks: &mut Checks,
    ) -> (Vec<CellReply>, f64) {
        self.next_req += 1;
        let req = self.next_req;
        let client = &mut self.client;
        let (out, s) = timed(t, "server.Client::run_cells", req, || {
            client.run_cells(req, cells)
        });
        let replies = out.unwrap_or_else(|e| {
            checks.check("daemon.transport", false, || e.to_string());
            Vec::new()
        });
        (replies, s * 1e3)
    }

    /// `SAMPLED_CELLS` seeded picks from the last pass's miss replies.
    fn sampled(&self) -> Vec<(&CellSpec, &CellReply)> {
        let mut rng = Rng::new(self.seed, 0x5a);
        (0..SAMPLED_CELLS)
            .filter_map(|_| {
                let (cells, replies) = self.grids.get(rng.below(self.grids.len().max(1)))?;
                let reply = replies.get(rng.below(replies.len().max(1)))?;
                Some((cells.get(usize::try_from(reply.cell).ok()?)?, reply))
            })
            .collect()
    }
}

fn ok_cells(replies: &[CellReply]) -> u64 {
    replies
        .iter()
        .filter(|r| matches!(r.status, CellStatus::Ok(_)))
        .count() as u64
}

impl Workload for Daemon {
    const NAME: &'static str = "daemon";
    const SETUP_REPS: usize = 5;
    const PASSES: u64 = 3;

    fn setup(seed: u64, dir: &Path) -> Self {
        let server = Server::launch(
            "127.0.0.1:0",
            ServerConfig {
                cache_dir: Some(dir.to_path_buf()),
                workers: WORKERS,
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let mut client = Client::connect(server.addr()).expect("connect to the daemon");
        let warmup = grids(seed, 0).swap_remove(0);
        for req in 0..=WARMUP_HITS as u64 {
            let replies = client
                .run_cells(u64::MAX - req, &warmup)
                .expect("warm-up request");
            assert_eq!(
                ok_cells(&replies),
                warmup.len() as u64,
                "warm-up cells must succeed"
            );
        }
        Daemon {
            seed,
            client,
            server,
            next_req: 0,
            miss_cells: warmup.len() as u64,
            grids: Vec::new(),
        }
    }

    fn pass(&mut self, index: u64, t: &mut Tracer, checks: &mut Checks) -> Pass {
        let mut p = Pass::default();
        let cpu = procfs::cpu_ns();
        let span = t.open("pass.miss", index);
        let start = Instant::now();
        let mut done = Vec::with_capacity(MISS_REQUESTS);
        for cells in grids(self.seed, index + 1) {
            let (replies, ms) = self.request(t, &cells, checks);
            p.miss_ms.push(ms);
            p.attempted += cells.len() as u64;
            p.failed += cells.len() as u64 - ok_cells(&replies);
            done.push((cells, replies));
        }
        p.cold_s = start.elapsed().as_secs_f64();
        t.close(span);
        p.cpu_ns = procfs::cpu_ns() - cpu;
        p.busy_s = p.cold_s;
        p.executed = p.attempted;
        p.insts = p.executed * (WARMUP_INSTS + MEASURE_INSTS);
        self.miss_cells += p.executed;
        let executed = self.server.executed();
        checks.check(
            "daemon.executes_every_miss_once",
            executed == self.miss_cells,
            || {
                format!(
                    "daemon executed {executed} cells for {} misses",
                    self.miss_cells
                )
            },
        );

        let mut order: Vec<usize> = (0..HIT_REQUESTS).map(|i| i % MISS_REQUESTS).collect();
        Rng::new(self.seed, 0x417 + index).shuffle(&mut order);
        let span = t.open("pass.hit", index);
        let start = Instant::now();
        let mut hit_ms = Vec::with_capacity(HIT_REQUESTS);
        for g in order {
            let (replies, ms) = self.request(t, &done[g].0, checks);
            hit_ms.push(ms);
            let cells = done[g].0.len() as u64;
            p.attempted += cells;
            p.hits += cells;
            p.failed += cells - ok_cells(&replies);
            checks.check(
                "daemon.hit_equals_miss",
                statuses(&replies) == statuses(&done[g].1),
                || format!("pass {index}: grid {g} replied differently from the cache"),
            );
        }
        p.warm_s.push(start.elapsed().as_secs_f64());
        p.hit_ms.push(hit_ms);
        t.close(span);
        let executed = self.server.executed();
        checks.check(
            "daemon.hits_execute_nothing",
            executed == self.miss_cells,
            || {
                format!(
                    "the hit phase executed {} cells",
                    executed - self.miss_cells
                )
            },
        );
        self.grids = done;
        p
    }

    /// Re-simulates a seeded sample of the last pass's cells locally:
    /// the daemon must have returned exactly what `simulate` does.
    fn final_checks(&mut self, checks: &mut Checks) {
        for (spec, reply) in self.sampled() {
            let cell = resolve_cell(spec).expect("grids hold valid cells");
            let local = simulate(cell.model, cell.predictor.config(), &cell.cfg).to_value();
            let same = matches!(&reply.status, CellStatus::Ok(v) if **v == local);
            checks.check("daemon.equals_local_simulate", same, || {
                format!(
                    "{}: the daemon's result differs from a local run",
                    cell.label
                )
            });
        }
    }

    fn golden_record(&self) -> Option<Value> {
        None
    }

    fn samples(&self) -> Vec<Sample> {
        self.sampled()
            .into_iter()
            .filter_map(|(spec, reply)| {
                let CellStatus::Ok(v) = &reply.status else {
                    return None;
                };
                let cell = resolve_cell(spec).ok()?;
                Some(Sample {
                    model: cell.model,
                    predictor: cell.predictor,
                    cfg: cell.cfg,
                    expected: RunResult::from_value(v).ok()?.stats,
                })
            })
            .collect()
    }
}
