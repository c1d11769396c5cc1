//! Recording: capture a live [`Thread`]'s resolved event streams.

use bw_types::CtiKind;
use bw_workload::{BenchmarkModel, StaticProgram, Thread};

use crate::codec::{BitRunEncoder, DeltaEncoder};
use crate::format::{Trace, TraceMeta};

/// Extra instructions a recording adds beyond the budget the replayed
/// run will commit, covering the machine's in-flight window: fetch
/// runs ahead of commit by at most the fetch buffer plus pipeline
/// occupancy (well under a thousand instructions), so a few thousand
/// spare oracle steps guarantee replay never exhausts the trace.
pub const REPLAY_SLACK_INSTS: u64 = 4096;

/// Records `insts` architectural instructions of a workload into a
/// [`Trace`].
///
/// The oracle stream depends only on the program and the thread's
/// data-model parameters — not on any machine configuration — so one
/// recording replays under every predictor/power configuration. Three
/// event streams are captured (conditional outcome bits, indirect-jump
/// targets, data addresses); replay runs the thread's own control
/// algorithm (the shared [`Stepper`](bw_workload::Stepper)), whose call
/// stack re-derives every return target.
#[must_use]
pub fn record(
    name: &str,
    program: &StaticProgram,
    seed: u64,
    working_set: u64,
    random_frac: f64,
    insts: u64,
) -> Trace {
    let mut thread = Thread::with_data_model(program, seed, working_set, random_frac);
    let entry = thread.pc();
    let mut cond = BitRunEncoder::default();
    let mut indirect = DeltaEncoder::default();
    let mut data = DeltaEncoder::default();
    for _ in 0..insts {
        let step = thread.step();
        if let Some(addr) = step.data_addr {
            data.push(addr.0);
        }
        if let Some(cti) = step.inst.cti {
            let resolved = step.control.expect("CTIs resolve");
            match cti.kind {
                CtiKind::CondBranch => cond.push(resolved.outcome.as_bit() as u8),
                CtiKind::IndirectJump => indirect.push(resolved.next_pc.0),
                // Jumps and calls are static; returns replay from the
                // stepper's call stack.
                CtiKind::Jump | CtiKind::Call | CtiKind::Return => {}
            }
        }
    }
    let meta = TraceMeta {
        name: name.to_string(),
        seed,
        working_set,
        random_frac,
        insts,
        returns_in_stream: false,
        entry,
    };
    Trace::from_parts(
        meta,
        program.clone(),
        cond.finish(),
        indirect.finish(),
        data.finish(),
    )
}

/// Records a built-in benchmark model with its own data-model
/// parameters (the same ones `model.thread(..)` uses), so replay is
/// byte-identical to a generated run of the model.
#[must_use]
pub fn record_model(
    model: &BenchmarkModel,
    program: &StaticProgram,
    seed: u64,
    insts: u64,
) -> Trace {
    record(
        model.name,
        program,
        seed,
        model.working_set,
        model.data_random_frac,
        insts,
    )
}
