//! Remote sweep mode: render figures from a shared `bw-server` daemon.
//!
//! With `--server ADDR` a sweep binary submits the same fourteen
//! predictor × benchmark cells a local supervised sweep would plan —
//! built with [`CellSpec::for_run`] in the exact `FIGURE_ORDER` ×
//! suite order of
//! [`sweep_rows_supervised`](bw_core::experiments::sweep_rows_supervised)
//! — and renders from the per-cell results the daemon streams back.
//! Because the daemon keys work by [`RunKey`](bw_core::RunKey) digest
//! over a shared cache, any number of figure binaries pointed at the
//! same daemon execute each cell at most once between them.
//!
//! Degradation mirrors the local supervised path: refused or failed
//! cells are reported on stderr, every healthy row still renders, and
//! the caller exits nonzero.

use bw_core::experiments::SweepRow;
use bw_core::zoo::NamedPredictor;
use bw_core::{RunResult, SimConfig};
use bw_server::{CellSpec, CellStatus, Client, ClientError, RetryPolicy};
use bw_workload::BenchmarkModel;
use serde::Deserialize;

/// One cell the daemon did not complete: its figure label, a short
/// class (`refused:quota`, `failed:timed-out`, ...), and the daemon's
/// detail line.
#[derive(Clone, Debug)]
pub struct RemoteFailure {
    /// `predictor / benchmark`, as the figure binaries label cells.
    pub label: String,
    /// Failure class, `refused:<reason>` or `failed:<outcome>`.
    pub class: String,
    /// The daemon's human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for RemoteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.label, self.class, self.detail)
    }
}

/// What a remote sweep produced: the healthy rows plus a record of
/// every cell that came back refused, failed, or undecodable.
pub struct RemoteSweep {
    /// Completed cells (a strict subset of the plan when degraded).
    pub rows: Vec<SweepRow>,
    /// Cells the daemon refused or failed.
    pub failures: Vec<RemoteFailure>,
    /// Total cells submitted.
    pub planned: usize,
    /// Submit attempts made (1 = no backpressure retries needed).
    pub attempts: u32,
    /// Cell resubmissions across all backoff retries.
    pub retried: usize,
}

impl RemoteSweep {
    /// `true` when any planned cell did not come back healthy.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// One-line outcome summary in the supervised-sweep style, with
    /// the attempt count whenever backpressure forced retries.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "remote sweep: {} of {} cells completed, {} refused/failed",
            self.rows.len(),
            self.planned,
            self.failures.len()
        );
        if self.attempts > 1 {
            use std::fmt::Write;
            let _ = write!(
                line,
                " after {} attempts ({} cell resubmissions)",
                self.attempts, self.retried
            );
        }
        line
    }
}

/// Runs the figure sweep over `suite` on the daemon at `addr`,
/// streaming per-cell progress through `progress`.
///
/// # Errors
///
/// [`ClientError`] when the daemon is unreachable, the handshake
/// fails, or the connection breaks mid-stream. Per-cell refusals and
/// failures are not errors — they land in
/// [`RemoteSweep::failures`].
pub fn remote_sweep_rows(
    addr: &str,
    suite: &[&'static BenchmarkModel],
    cfg: &SimConfig,
    mut progress: impl FnMut(&str) + Send,
) -> Result<RemoteSweep, ClientError> {
    // The exact plan order of `sweep_rows_supervised`, so the daemon
    // and a local run agree cell-for-cell on keys and labels.
    let mut cells = Vec::with_capacity(NamedPredictor::FIGURE_ORDER.len() * suite.len());
    let mut specs = Vec::with_capacity(cells.capacity());
    for p in NamedPredictor::FIGURE_ORDER {
        for m in suite {
            cells.push((p, format!("{} / {}", p.label(), m.name)));
            specs.push(CellSpec::for_run(m.name, p, cfg));
        }
    }

    let mut client = Client::connect(addr)?;
    const REQ: u64 = 1;
    let mut seen = 0usize;
    // Backpressure retries resubmit only the retryably-refused cells
    // (quota / queue-full), backing off with the deterministic-jitter
    // schedule so parallel figure binaries desynchronize instead of
    // stampeding the daemon in step.
    let (replies, report) = client.run_cells_with_retry(
        REQ,
        &specs,
        false,
        &RetryPolicy::default(),
        |reply, attempt| {
            let Some((_, label)) = cells.get(reply.cell as usize) else {
                return;
            };
            if attempt == 1 {
                seen += 1;
                progress(&format!("{label} ({seen}/{} remote)", cells.len()));
            } else {
                progress(&format!("{label} (retry {})", attempt - 1));
            }
        },
    )?;
    client.ack(REQ, &replies.iter().map(|r| r.cell).collect::<Vec<_>>())?;
    client.bye();

    let mut statuses: Vec<Option<CellStatus>> = vec![None; cells.len()];
    for reply in replies {
        if let Some(slot @ None) = statuses.get_mut(reply.cell as usize) {
            *slot = Some(reply.status);
        }
    }

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for ((predictor, label), status) in cells.into_iter().zip(statuses) {
        match status {
            Some(CellStatus::Ok(value)) => match RunResult::from_value(&value) {
                Ok(run) => rows.push(SweepRow { predictor, run }),
                Err(e) => failures.push(RemoteFailure {
                    label,
                    class: "failed:undecodable".to_string(),
                    detail: e.0,
                }),
            },
            Some(CellStatus::Refused { reason, detail }) => failures.push(RemoteFailure {
                label,
                class: format!("refused:{}", reason.as_str()),
                detail,
            }),
            Some(CellStatus::Failed { outcome, detail }) => failures.push(RemoteFailure {
                label,
                class: format!("failed:{outcome}"),
                detail,
            }),
            None => failures.push(RemoteFailure {
                label,
                class: "failed:missing".to_string(),
                detail: "the daemon finished the request without this cell".to_string(),
            }),
        }
    }
    Ok(RemoteSweep {
        rows,
        failures,
        planned: specs.len(),
        attempts: report.attempts,
        retried: report.retried,
    })
}
