//! Interprocedural abstract interpretation over the CFG.
//!
//! This replaces the v1 single-register forward pass with a worklist
//! fixpoint that tracks an abstract value for **all eight GPRs** plus a
//! bounded window of `rsp`-relative stack slots, propagated *across call
//! edges*: a call site seeds its resolved callee's entry state with the
//! caller's registers, and the caller continues with the callee's
//! [`crate::summaries::FnSummary`] applied. That is what lets a syscall
//! number materialised in a caller (`mov $39, %edi; call shim`) reach
//! the `syscall` inside a libc-style identity shim as a *constant with a
//! named defining instruction* — the fact the upgrade pass
//! ([`crate::verifier`]) needs to turn an `Unknown` verdict into a
//! patchable region.
//!
//! ## Lattice
//!
//! [`AbsValue`] is a flat constant domain widened through intervals:
//! `Unreached ⊑ Const ⊑ Interval ⊑ Top`. Joining two *equal* constants
//! keeps the value but drops the defining site unless it is also equal —
//! a value that is constant along all paths but defined in two places is
//! still constant (good for diagnostics) yet yields no single region to
//! patch. Every copy or reload **re-defines**: the def site moves to the
//! copy, so the patchable region starts at the *latest* instruction that
//! materialises the value before the syscall.
//!
//! All values in this ISA originate from immediates (there is no
//! arithmetic on registers), so interval endpoints are drawn from the
//! finite set of program constants and the fixpoint terminates; a
//! per-block visit cap widens to `Top` as defence in depth.

use std::collections::BTreeMap;

use xc_isa::inst::{Inst, Reg};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::disasm::Disassembly;
use crate::profile::{NoProbe, Probe};
use crate::summaries::{reg_bit, RaxEffect, Summaries};

/// Abstract value of one register or stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsValue {
    /// No path reaches this point (bottom).
    Unreached,
    /// The value is `v` on every path. `def` names the single
    /// instruction (address, length) that materialises it when that
    /// instruction is unique — only then can a detour region be built.
    Const {
        /// The constant.
        v: i64,
        /// Unique defining instruction, if any.
        def: Option<(u64, u8)>,
    },
    /// The value lies within `[lo, hi]` (join of unequal constants).
    Interval {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// No claim (top).
    Top,
}

impl AbsValue {
    /// Least upper bound.
    pub fn join(self, other: AbsValue) -> AbsValue {
        use AbsValue::*;
        match (self, other) {
            (Unreached, x) | (x, Unreached) => x,
            (Top, _) | (_, Top) => Top,
            (Const { v: a, def: da }, Const { v: b, def: db }) => {
                if a == b {
                    Const {
                        v: a,
                        def: if da == db { da } else { None },
                    }
                } else {
                    Interval {
                        lo: a.min(b),
                        hi: a.max(b),
                    }
                }
            }
            (Const { v, .. }, Interval { lo, hi }) | (Interval { lo, hi }, Const { v, .. }) => {
                Interval {
                    lo: lo.min(v),
                    hi: hi.max(v),
                }
            }
            (Interval { lo: a, hi: b }, Interval { lo: c, hi: d }) => Interval {
                lo: a.min(c),
                hi: b.max(d),
            },
        }
    }

    /// The value after being copied by the instruction at `at` (length
    /// `len`): constants are re-defined to the copy site, everything
    /// else is unchanged.
    fn redef(self, at: u64, len: u8) -> AbsValue {
        match self {
            AbsValue::Const { v, .. } => AbsValue::Const {
                v,
                def: Some((at, len)),
            },
            other => other,
        }
    }

    /// The constant value, if this is a `Const`.
    pub fn as_const(self) -> Option<i64> {
        match self {
            AbsValue::Const { v, .. } => Some(v),
            _ => None,
        }
    }
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// One value per GPR, indexed by [`Reg::code`].
    pub regs: [AbsValue; 8],
    /// Tracked `rsp`-relative slots, keyed by byte displacement. An
    /// absent key means `Top` (untracked), **not** unreached.
    pub slots: BTreeMap<u8, AbsValue>,
}

impl AbsState {
    /// The no-information state (function entry from outside).
    pub fn top() -> AbsState {
        AbsState {
            regs: [AbsValue::Top; 8],
            slots: BTreeMap::new(),
        }
    }

    /// Value of `reg`.
    pub fn reg(&self, reg: Reg) -> AbsValue {
        self.regs[reg.code() as usize]
    }

    /// Writes `reg`.
    fn set_reg(&mut self, reg: Reg, v: AbsValue) {
        self.regs[reg.code() as usize] = v;
    }

    /// Drops every tracked slot.
    fn clear_slots(&mut self) {
        self.slots.clear();
    }

    /// Pointwise join. Slots join by key intersection (absent = `Top`).
    fn join(&self, other: &AbsState) -> AbsState {
        let mut regs = [AbsValue::Top; 8];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = self.regs[i].join(other.regs[i]);
        }
        let mut slots = BTreeMap::new();
        for (&k, &v) in &self.slots {
            if let Some(&w) = other.slots.get(&k) {
                let j = v.join(w);
                if j != AbsValue::Top {
                    slots.insert(k, j);
                }
            }
        }
        AbsState { regs, slots }
    }

    /// State a resolved callee starts in when entered from here: the
    /// caller's registers travel through the call, the caller's frame
    /// does not (`rsp` moved).
    fn call_seed(&self) -> AbsState {
        AbsState {
            regs: self.regs,
            slots: BTreeMap::new(),
        }
    }
}

/// Result of the interprocedural pass: the abstract pre-state of every
/// reachable instruction.
#[derive(Debug, Clone, Default)]
pub struct AbsInt {
    state_in: BTreeMap<u64, AbsState>,
}

/// A block is re-queued at most this many times before its in-state is
/// widened straight to `Top` (defence in depth; see module docs).
const BLOCK_VISIT_CAP: u32 = 64;

/// Bitset worklist over dense block ids. `pop_first` returns the lowest
/// set id, so with ids assigned in ascending block-address order the
/// scheduling is identical to the old `BTreeSet<u64>` pop-minimum — one
/// cache line per 64 blocks instead of a node allocation per entry.
struct Worklist {
    words: Vec<u64>,
    /// Lowest word index that may contain a set bit (monotone scan
    /// cursor, rewound on insert).
    hint: usize,
}

impl Worklist {
    fn new(blocks: usize) -> Worklist {
        Worklist {
            words: vec![0; blocks.div_ceil(64)],
            hint: 0,
        }
    }

    #[inline]
    fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1u64 << (id % 64);
        self.hint = self.hint.min(id / 64);
    }

    #[inline]
    fn pop_first(&mut self) -> Option<usize> {
        while self.hint < self.words.len() {
            let word = &mut self.words[self.hint];
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.hint * 64 + bit);
            }
            self.hint += 1;
        }
        None
    }
}

impl AbsInt {
    /// The pre-state of the instruction at `at`, if reached.
    pub fn state_at(&self, at: u64) -> Option<&AbsState> {
        self.state_in.get(&at)
    }

    /// The abstract `%rax` value just before the instruction at `at`
    /// ([`AbsValue::Unreached`] if the point was never reached).
    pub fn rax_at(&self, at: u64) -> AbsValue {
        self.state_at(at)
            .map_or(AbsValue::Unreached, |s| s.reg(Reg::Rax))
    }

    /// Runs the fixpoint. `stack_window_slots` bounds the tracked frame
    /// window to displacements below `8 * stack_window_slots` bytes.
    pub fn analyze(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
        stack_window_slots: u8,
    ) -> AbsInt {
        Self::analyze_with(disasm, cfg, cg, summaries, stack_window_slots, &mut NoProbe)
    }

    /// Runs the fixpoint with a timing/counting probe attached,
    /// returning the analysis plus its profile. [`AbsInt::analyze`]
    /// monomorphizes the same driver against a no-op probe, so the
    /// production path pays nothing for the instrumentation seam.
    pub fn analyze_profiled(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
        stack_window_slots: u8,
    ) -> (AbsInt, crate::profile::AbsIntProfile) {
        let mut probe = crate::profile::AbsIntProfile::new();
        let out = Self::analyze_with(disasm, cfg, cg, summaries, stack_window_slots, &mut probe);
        (out, probe)
    }

    /// The worklist driver behind both entry points. Blocks carry dense
    /// ids (rank in ascending start-address order, binary search for the
    /// lookup), so popping the lowest id is the pop-minimum-address
    /// schedule.
    fn analyze_with<P: Probe>(
        disasm: &Disassembly,
        cfg: &Cfg,
        cg: &CallGraph,
        summaries: &Summaries,
        stack_window_slots: u8,
        probe: &mut P,
    ) -> AbsInt {
        let window = u16::from(stack_window_slots) * 8;
        let starts: Vec<u64> = cfg.blocks.keys().copied().collect();
        let id_of = |addr: u64| starts.binary_search(&addr).ok();
        let mut block_in: Vec<Option<AbsState>> = vec![None; starts.len()];
        let mut visits: Vec<u32> = vec![0; starts.len()];
        let mut work = Worklist::new(starts.len());
        for &e in &disasm.entries {
            if let Some(id) = id_of(e) {
                block_in[id].get_or_insert_with(AbsState::top);
                work.insert(id);
            }
        }

        // Out-state of the popped block, refreshed per pop with
        // `clone_from` so its allocations are reused.
        let mut scratch = AbsState::top();

        while let Some(id) = work.pop_first() {
            probe.block_popped();
            visits[id] += 1;
            if visits[id] > BLOCK_VISIT_CAP {
                block_in[id] = Some(AbsState::top());
            }
            scratch.clone_from(block_in[id].as_ref().expect("queued block has a state"));
            let block = &cfg.blocks[&starts[id]];
            for &at in &block.insts {
                if let Some(tid) = resolved_call_target(cg, at).and_then(id_of) {
                    let changed = merge_into(&mut block_in[tid], &scratch.call_seed());
                    probe.state_merged(changed);
                    if changed {
                        work.insert(tid);
                    }
                }
                transfer(
                    &mut scratch,
                    disasm.insts[&at].inst,
                    at,
                    window,
                    cg,
                    summaries,
                );
            }
            for &succ in &block.succs {
                if let Some(sid) = id_of(succ) {
                    let changed = merge_into(&mut block_in[sid], &scratch);
                    probe.state_merged(changed);
                    if changed {
                        work.insert(sid);
                    }
                }
            }
        }
        probe.fixpoint_done();

        // Converged: materialise per-instruction pre-states in order.
        let mut state_in = BTreeMap::new();
        for (block, state) in cfg.blocks.values().zip(block_in) {
            let Some(mut state) = state else {
                continue;
            };
            for &at in &block.insts {
                state_in.insert(at, state.clone());
                transfer(
                    &mut state,
                    disasm.insts[&at].inst,
                    at,
                    window,
                    cg,
                    summaries,
                );
            }
        }
        probe.materialize_done();
        AbsInt { state_in }
    }
}

/// Joins `state` into a block's in-state, returning whether the in-state
/// moved (the block must then be re-queued).
fn merge_into(slot: &mut Option<AbsState>, state: &AbsState) -> bool {
    match slot {
        Some(old) => {
            let joined = old.join(state);
            let changed = joined != *old;
            *old = joined;
            changed
        }
        None => {
            *slot = Some(state.clone());
            true
        }
    }
}

/// Resolved in-image destination of a call instruction at `at`, if any.
fn resolved_call_target(cg: &CallGraph, at: u64) -> Option<u64> {
    cg.site_targets.get(&at).copied()
}

/// One-instruction transfer function (mutates `state` in place).
fn transfer(
    state: &mut AbsState,
    inst: Inst,
    at: u64,
    window: u16,
    cg: &CallGraph,
    summaries: &Summaries,
) {
    match inst {
        Inst::MovImm32 { reg, imm } => state.set_reg(
            reg,
            AbsValue::Const {
                v: i64::from(imm),
                def: Some((at, 5)),
            },
        ),
        Inst::MovImm32SxR64 { reg, imm } => state.set_reg(
            reg,
            AbsValue::Const {
                v: i64::from(imm),
                def: Some((at, 7)),
            },
        ),
        Inst::XorEaxEax => state.set_reg(
            Reg::Rax,
            AbsValue::Const {
                v: 0,
                def: Some((at, 2)),
            },
        ),
        Inst::MovRegReg64 { dst, src } => {
            let v = state.reg(src).redef(at, 3);
            state.set_reg(dst, v)
        }
        Inst::LoadRspDisp8R64 { reg, disp } => {
            let v = state
                .slots
                .get(&disp)
                .copied()
                .unwrap_or(AbsValue::Top)
                .redef(at, 5);
            state.set_reg(reg, v)
        }
        Inst::LoadRspDisp8R32 { reg, disp } => {
            // 32-bit load zero-extends; only constants already in u32
            // range survive the truncation claim.
            let v = match state.slots.get(&disp) {
                Some(AbsValue::Const { v, .. }) if (0..=i64::from(u32::MAX)).contains(v) => {
                    AbsValue::Const {
                        v: *v,
                        def: Some((at, 4)),
                    }
                }
                _ => AbsValue::Top,
            };
            state.set_reg(reg, v)
        }
        Inst::StoreRspDisp8R64 { reg, disp } => {
            // An 8-byte store invalidates any tracked slot it overlaps,
            // then records the stored value at `disp` when it is inside
            // the tracked window and informative.
            let lo = disp.saturating_sub(7);
            let hi = disp.saturating_add(7);
            let new = if u16::from(disp) < window {
                Some(state.reg(reg)).filter(|&v| v != AbsValue::Top)
            } else {
                None
            };
            state
                .slots
                .retain(|&k, _| k == disp || !(lo..=hi).contains(&k));
            match new {
                Some(v) => state.slots.insert(disp, v),
                None => state.slots.remove(&disp),
            };
        }
        Inst::Syscall => {
            state.set_reg(Reg::Rax, AbsValue::Top);
            state.set_reg(Reg::Rcx, AbsValue::Top);
            state.clear_slots();
        }
        Inst::CallRel32 { .. } | Inst::CallAbsIndirect { .. } => {
            match resolved_call_target(cg, at) {
                Some(target) => {
                    let s = summaries.summary(target);
                    let pre_rax = state.reg(Reg::Rax);
                    for code in 0..8u8 {
                        if s.clobbers & (1 << code) != 0 {
                            state.regs[code as usize] = AbsValue::Top;
                        }
                    }
                    let rax = match s.rax {
                        RaxEffect::Preserved => pre_rax,
                        // A summary constant has no caller-side defining
                        // instruction, so it never yields a region.
                        RaxEffect::Const(v) => AbsValue::Const { v, def: None },
                        RaxEffect::ArgReg(_) | RaxEffect::Unknown => {
                            if s.clobbers & reg_bit(Reg::Rax) != 0 {
                                AbsValue::Top
                            } else {
                                pre_rax
                            }
                        }
                    };
                    state.set_reg(Reg::Rax, rax);
                }
                None => state.regs = [AbsValue::Top; 8],
            }
            state.clear_slots();
        }
        Inst::PushRbp | Inst::AddRspImm8 { .. } | Inst::SubRspImm8 { .. } => {
            state.set_reg(Reg::Rsp, AbsValue::Top);
            state.clear_slots();
        }
        Inst::PopRbp | Inst::Leave => {
            state.set_reg(Reg::Rsp, AbsValue::Top);
            state.set_reg(Reg::Rbp, AbsValue::Top);
            state.clear_slots();
        }
        Inst::Nop
        | Inst::Ret
        | Inst::Int3
        | Inst::Ud2
        | Inst::TestEaxEax
        | Inst::JmpRel8 { .. }
        | Inst::JmpRel32 { .. }
        | Inst::JccRel8 { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble_image;
    use crate::verifier::VerifierConfig;
    use xc_isa::asm::Assembler;

    fn run(a: Assembler) -> (Disassembly, AbsInt) {
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        let cfg = Cfg::build(&d);
        let cg = CallGraph::build(&d, &cfg);
        let config = VerifierConfig::default();
        let summaries = Summaries::build(&d, &cfg, &cg, config.max_summary_depth);
        let a = AbsInt::analyze(&d, &cfg, &cg, &summaries, config.stack_window_slots);
        (d, a)
    }

    fn syscall_addrs(d: &Disassembly) -> Vec<u64> {
        d.insts
            .iter()
            .filter(|(_, dec)| dec.inst == Inst::Syscall)
            .map(|(&at, _)| at)
            .collect()
    }

    #[test]
    fn constant_flows_through_identity_shim() {
        let mut a = Assembler::new(0x1000);
        a.label("wrapper").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 39,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        let copy_at = a.here();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_addrs(&d);
        assert_eq!(syscalls.len(), 1);
        assert_eq!(
            ai.rax_at(syscalls[0]),
            AbsValue::Const {
                v: 39,
                def: Some((copy_at, 3)),
            }
        );
    }

    #[test]
    fn two_callers_with_different_numbers_join_to_interval() {
        let mut a = Assembler::new(0x1000);
        a.label("caller_a").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 0,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("caller_b").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 60,
        });
        a.call_to("shim");
        a.inst(Inst::Ret);
        a.label("shim").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_addrs(&d);
        assert_eq!(ai.rax_at(syscalls[0]), AbsValue::Interval { lo: 0, hi: 60 });
    }

    #[test]
    fn self_recursive_call_seed_joins_into_its_own_block() {
        // `f` calls itself from its entry block, so the recursive call's
        // seed (rdi = 39) joins into the block being transferred, on top
        // of the outer caller's rdi = 60.
        let mut a = Assembler::new(0x1000);
        a.label("main").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 60,
        });
        a.call_to("f");
        a.inst(Inst::Ret);
        a.label("f").unwrap();
        a.inst(Inst::MovRegReg64 {
            dst: Reg::Rax,
            src: Reg::Rdi,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 39,
        });
        a.call_to("f");
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_addrs(&d);
        assert_eq!(syscalls.len(), 1);
        assert_eq!(
            ai.rax_at(syscalls[0]),
            AbsValue::Interval { lo: 39, hi: 60 }
        );
    }

    #[test]
    fn spill_and_reload_keeps_the_constant_and_redefs_to_the_load() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 7,
        });
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rdi,
            disp: 0x10,
        });
        let load_at = a.here();
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 0x10,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_addrs(&d);
        assert_eq!(
            ai.rax_at(syscalls[0]),
            AbsValue::Const {
                v: 7,
                def: Some((load_at, 5)),
            }
        );
    }

    #[test]
    fn overlapping_store_invalidates_tracked_slot() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rdi,
            imm: 7,
        });
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rdi,
            disp: 0x10,
        });
        // Unknown value clobbers [0x14, 0x1c) which overlaps slot 0x10.
        a.inst(Inst::StoreRspDisp8R64 {
            reg: Reg::Rsi,
            disp: 0x14,
        });
        a.inst(Inst::LoadRspDisp8R64 {
            reg: Reg::Rax,
            disp: 0x10,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (d, ai) = run(a);
        let syscalls = syscall_addrs(&d);
        assert_eq!(ai.rax_at(syscalls[0]), AbsValue::Top);
    }

    #[test]
    fn call_applies_callee_clobbers_but_preserves_the_rest() {
        let mut a = Assembler::new(0x1000);
        a.label("caller").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rbx,
            imm: 11,
        });
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.call_to("noisy");
        let after_call = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        a.label("noisy").unwrap();
        a.inst(Inst::Syscall); // clobbers rax + rcx
        a.inst(Inst::Ret);
        let (_, ai) = run(a);
        let state = ai.state_at(after_call).unwrap();
        // rax was clobbered by the callee's syscall; rbx survived.
        assert_eq!(state.reg(Reg::Rax), AbsValue::Top);
        assert_eq!(state.reg(Reg::Rbx).as_const(), Some(11));
    }

    #[test]
    fn entry_state_is_top() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        let first = a.here();
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let (_, ai) = run(a);
        assert_eq!(ai.rax_at(first), AbsValue::Top);
    }
}
