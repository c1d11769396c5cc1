//! The decoded ("bitcode") form of a trace: a one-time decode of a
//! `.bwt` stream into flat, replay-ready arrays, plus the zero-copy
//! slice-backed reader every replay runs through.
//!
//! The `.bwt` streams are compact but cost per record to read: an
//! instruction's PC decodes through the program image (a block lookup
//! plus hashing), a conditional outcome pulls an RLE run cursor, an
//! address a LEB128 varint delta. [`DecodedTrace`] pays those costs
//! exactly once, up front:
//!
//! * the program's two code regions are decoded into flat
//!   [`DecodedInst`] tables indexed by PC slot (decode becomes one
//!   bounds check and one array read);
//! * the conditional-outcome stream is unpacked into a bit array, and
//!   the indirect-target and data-address streams into plain `u64`
//!   arrays (each pull becomes one indexed read).
//!
//! [`DecodedReader`] then replays by borrowing those arrays: it runs
//! the workload's own [`Stepper`] — the control algorithm the
//! recording [`Thread`](bw_workload::Thread) runs — and answers its
//! choices with indexed reads, so it owns nothing but cursor state,
//! constructing one is free and many readers can share one decode.
//! The decoded form carries no digest of its own: it is a pure
//! function of the trace, identified by the same [`Trace::digest`].

use bw_types::{Addr, Outcome};
use bw_workload::{
    Block, Choices, DecodedInst, ExecStep, InstSource, StaticProgram, Stepper, CODE_BASE, FUNC_BASE,
};

use crate::format::Trace;

/// A trace decoded into flat, replay-ready arrays (the "bitcode"
/// form).
///
/// Build one with [`DecodedTrace::new`], then replay it any number of
/// times through [`DecodedTrace::reader`]. The decode touches every
/// stream record once; replay afterwards never decodes again.
pub struct DecodedTrace<'t> {
    trace: &'t Trace,
    /// Flat decode of `[CODE_BASE, main_end)`, one entry per
    /// instruction slot.
    main_insts: Vec<DecodedInst>,
    /// Flat decode of `[FUNC_BASE, func_end)`.
    func_insts: Vec<DecodedInst>,
    main_end: Addr,
    func_end: Addr,
    /// Conditional outcomes in stream order, bit-packed
    /// (little-endian within each word).
    cond_bits: Vec<u64>,
    /// Indirect-jump (and imported-return) targets, in stream order.
    indirect: Vec<u64>,
    /// Data addresses, in stream order.
    data: Vec<u64>,
}

impl<'t> DecodedTrace<'t> {
    /// Decodes a trace's program image and event streams into flat
    /// arrays.
    ///
    /// This is the one-time cost the replay hot path no longer pays;
    /// `bw-bench trace info` reports its size and duration so
    /// corpus-scale users can budget memory.
    #[must_use]
    pub fn new(trace: &'t Trace) -> Self {
        let program = trace.program();
        let main_end = program.main_blocks().last().map_or(CODE_BASE, Block::end);
        let func_end = program.func_blocks().last().map_or(FUNC_BASE, Block::end);
        let decode_region = |base: Addr, end: Addr| -> Vec<DecodedInst> {
            let slots = (end.0.saturating_sub(base.0) / 4) as usize;
            (0..slots)
                .map(|i| program.decode(Addr(base.0 + (i as u64) * 4)))
                .collect()
        };

        let cond_count = trace.cond_count() as usize;
        let mut cond_bits = vec![0u64; cond_count.div_ceil(64)];
        let mut cond = trace.cond_cursor();
        for (i, word) in (0..cond_count).map(|i| (i, i >> 6)) {
            cond_bits[word] |= u64::from(cond.next()) << (i & 63);
        }

        let mut ind_cur = trace.ind_cursor();
        let indirect = (0..trace.indirect_count())
            .map(|_| ind_cur.next())
            .collect();
        let mut data_cur = trace.data_cursor();
        let data = (0..trace.data_count()).map(|_| data_cur.next()).collect();

        DecodedTrace {
            trace,
            main_insts: decode_region(CODE_BASE, main_end),
            func_insts: decode_region(FUNC_BASE, func_end),
            main_end,
            func_end,
            cond_bits,
            indirect,
            data,
        }
    }

    /// The trace this decode came from.
    #[must_use]
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// The source trace's content digest — the decoded form carries no
    /// digest of its own, because it is a pure function of the trace.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.trace.digest()
    }

    /// Bytes the decoded arrays occupy in memory (the number
    /// corpus-scale users budget against; the encoded `.bwt` streams
    /// are typically one to two orders of magnitude smaller).
    #[must_use]
    pub fn decoded_bytes(&self) -> usize {
        std::mem::size_of_val(self.main_insts.as_slice())
            + std::mem::size_of_val(self.func_insts.as_slice())
            + std::mem::size_of_val(self.cond_bits.as_slice())
            + std::mem::size_of_val(self.indirect.as_slice())
            + std::mem::size_of_val(self.data.as_slice())
    }

    /// A zero-copy reader replaying this decode from the trace's
    /// recorded entry point, through the whole recording.
    #[must_use]
    pub fn reader(&self) -> DecodedReader<'_> {
        DecodedReader {
            arch: Stepper::new(self.trace.meta().entry),
            reads: Reads {
                dec: self,
                cond_pos: 0,
                ind_pos: 0,
                data_pos: 0,
            },
            limit: self.trace.meta().insts,
            injected: false,
        }
    }
}

/// Streams a [`DecodedTrace`] as architectural execution.
///
/// The control algorithm is the workload's shared [`Stepper`], so the
/// step stream is the recording thread's: conditional outcomes,
/// indirect targets and data addresses come from the decoded streams,
/// direct jumps and calls from the program image, and return targets
/// from the stepper's call stack (or, for imported traces, from the
/// indirect stream). Every choice is an indexed read of the borrowed
/// flat arrays, and the reader owns only its cursor state (zero-copy
/// over the decode), so constructing or cloning one is free.
#[derive(Clone)]
pub struct DecodedReader<'d> {
    arch: Stepper,
    reads: Reads<'d>,
    /// Instructions the stream will actually deliver: the recording's
    /// length, or less when an armed `trunc` fault (`fault-inject`
    /// feature) simulates a truncated file for the run this reader was
    /// forked for ([`InstSource::fork`]).
    limit: u64,
    /// `true` when `limit` came from fault injection, so the
    /// exhaustion panic carries the injection marker.
    injected: bool,
}

/// A reader's choices: cursors into the decode's flat arrays.
#[derive(Clone)]
struct Reads<'d> {
    dec: &'d DecodedTrace<'d>,
    cond_pos: usize,
    ind_pos: usize,
    data_pos: usize,
}

impl DecodedReader<'_> {
    /// Instructions left before the recording runs out.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.arch.insts())
    }

    /// The diagnostic of a stream that ran dry after `after`
    /// instructions.
    #[cold]
    fn exhausted(&self, after: u64) -> ! {
        panic!(
            "trace '{}' exhausted after {after} instructions; record a longer trace{}",
            self.reads.dec.trace.meta().name,
            if self.injected {
                // Keep in sync with bw_fault::TRACE_MARKER.
                " (bw-fault: injected trace truncation)"
            } else {
                ""
            },
        )
    }
}

impl Reads<'_> {
    #[inline]
    fn next_indirect(&mut self) -> Addr {
        let t = self.dec.indirect[self.ind_pos];
        self.ind_pos += 1;
        Addr(t)
    }
}

impl Choices for Reads<'_> {
    #[inline]
    fn decode(&self, pc: Addr) -> DecodedInst {
        let dec = self.dec;
        if pc >= CODE_BASE && pc < dec.main_end {
            dec.main_insts[((pc.0 - CODE_BASE.0) >> 2) as usize]
        } else if pc >= FUNC_BASE && pc < dec.func_end {
            dec.func_insts[((pc.0 - FUNC_BASE.0) >> 2) as usize]
        } else {
            // Correct-path replay never leaves the code regions; keep
            // the per-PC decode as a fallback for exact parity with the
            // recording thread all the same.
            dec.trace.program().decode(pc)
        }
    }

    #[inline]
    fn data_addr(&mut self) -> Addr {
        let a = self.dec.data[self.data_pos];
        self.data_pos += 1;
        Addr(a)
    }

    #[inline]
    fn cond_outcome(&mut self, _site: Option<u32>, _ghist: u64) -> Outcome {
        let i = self.cond_pos;
        self.cond_pos += 1;
        Outcome::from_bool((self.dec.cond_bits[i >> 6] >> (i & 63)) & 1 != 0)
    }

    #[inline]
    fn indirect_target(&mut self, _pc: Addr) -> Addr {
        self.next_indirect()
    }

    #[inline]
    fn recorded_return(&mut self) -> Option<Addr> {
        if self.dec.trace.meta().returns_in_stream {
            Some(self.next_indirect())
        } else {
            None
        }
    }
}

impl InstSource for DecodedReader<'_> {
    fn program(&self) -> &StaticProgram {
        self.reads.dec.trace.program()
    }

    fn pc(&self) -> Addr {
        self.arch.pc()
    }

    fn insts(&self) -> u64 {
        self.arch.insts()
    }

    fn global_history(&self) -> u64 {
        self.arch.global_history()
    }

    fn step(&mut self) -> ExecStep {
        if self.arch.insts() >= self.limit {
            self.exhausted(self.limit);
        }
        self.arch.step(&mut self.reads)
    }

    /// A copy continuing from this reader's position, delivering the
    /// rest of the recording. Under an armed `trunc` fault
    /// (`fault-inject` feature) that matches the trace's name or the
    /// forking run's injection scope, the copy's stream instead ends
    /// after the fault's instruction count; a count this reader has
    /// already passed fails the fork at once, with the diagnostic a
    /// step past the end raises.
    fn fork(&self) -> Self {
        let mut fork = self.clone();
        fork.limit = self.reads.dec.trace.meta().insts;
        fork.injected = false;
        #[cfg(feature = "fault-inject")]
        if let Some(n) = bw_fault::injected_trace_truncation(&self.reads.dec.trace.meta().name) {
            fork.limit = n.min(fork.limit);
            fork.injected = true;
        }
        if fork.arch.insts() > fork.limit {
            fork.exhausted(fork.limit);
        }
        fork
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_model;
    use bw_workload::{all_benchmarks, benchmark};

    fn quick_trace(name: &str, insts: u64) -> Trace {
        let model = benchmark(name).expect("built-in model");
        let program = model.build_program(7);
        record_model(model, &program, 7, insts)
    }

    #[test]
    fn decoded_replay_matches_the_live_thread() {
        for model in all_benchmarks() {
            let program = model.build_program(11);
            let trace = record_model(model, &program, 11, 20_000);
            let dec = DecodedTrace::new(&trace);
            let mut replay = dec.reader();
            let mut live = model.thread(&program, 11);
            for i in 0..20_000 {
                assert_eq!(replay.step(), live.step(), "{} step {i}", model.name);
                assert_eq!(
                    replay.global_history(),
                    live.global_history(),
                    "{} history after step {i}",
                    model.name
                );
            }
            assert_eq!(replay.remaining(), 0);
        }
    }

    #[test]
    fn digest_passes_through_and_size_is_reported() {
        let trace = quick_trace("gzip", 5_000);
        let dec = DecodedTrace::new(&trace);
        assert_eq!(dec.digest(), trace.digest());
        assert!(
            dec.decoded_bytes() > 0,
            "flat arrays must report their footprint"
        );
        // The instruction tables alone dominate: every program slot
        // decodes to one entry.
        let slots = dec.main_insts.len() + dec.func_insts.len();
        assert!(dec.decoded_bytes() >= slots * std::mem::size_of::<DecodedInst>());
    }

    #[test]
    fn many_readers_share_one_decode() {
        let trace = quick_trace("gzip", 2_000);
        let dec = DecodedTrace::new(&trace);
        let mut a = dec.reader();
        let mut b = dec.reader();
        for _ in 0..2_000 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    #[should_panic(expected = "exhausted after 100 instructions")]
    fn stepping_past_the_end_panics() {
        let trace = quick_trace("gzip", 100);
        let dec = DecodedTrace::new(&trace);
        let mut r = dec.reader();
        for _ in 0..=100 {
            r.step();
        }
    }
}
