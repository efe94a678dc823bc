//! Hybrid linear-sweep + recursive-descent disassembly of a
//! [`BinaryImage`] text section.
//!
//! The linear sweep (the same resynchronizing walk the offline ABOM
//! scanner uses) yields the *authoritative* instruction map: every byte is
//! either inside exactly one sweep instruction or recorded as
//! undecodable. The recursive descent then replays control flow from the
//! image's entry points and cross-checks every direct branch destination
//! against the sweep boundaries — a destination strictly inside a sweep
//! instruction is an **overlapping decode**, the case the verifier must
//! refuse to reason about (the same bytes have two valid readings; see
//! `xc_isa::decode` tests for a constructed example).
//!
//! The sweep emits instructions in strictly increasing address order, so
//! its map is a flat table ([`InstMap`]): two parallel vectors, queried by
//! binary search, walked by slice iteration (DESIGN.md §4l).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::ops::{Bound, Index, RangeBounds};

use xc_isa::decode::{decode, DecodeError, Decoded};
use xc_isa::image::BinaryImage;

/// The linear sweep's instructions in address order: parallel address
/// and decode tables with the read API of a `BTreeMap<u64, Decoded>`.
/// Only [`disassemble_image`] fills it, so addresses are strictly
/// increasing by construction.
#[derive(Debug, Clone, Default)]
pub struct InstMap {
    addrs: Vec<u64>,
    decoded: Vec<Decoded>,
}

/// Address-ordered `(address, instruction)` iterator over an [`InstMap`].
pub type Iter<'a> = std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, Decoded>>;

impl InstMap {
    fn push(&mut self, at: u64, d: Decoded) {
        debug_assert!(
            self.addrs.last().is_none_or(|&last| last < at),
            "sweep addresses must strictly increase"
        );
        self.addrs.push(at);
        self.decoded.push(d);
    }

    /// The instruction starting at `at`.
    pub fn get(&self, at: &u64) -> Option<&Decoded> {
        let i = self.addrs.binary_search(at).ok()?;
        Some(&self.decoded[i])
    }

    /// Like [`InstMap::get`], answered from a forward position: `cursor`
    /// (start it at 0) only moves forward, so a run of queries at
    /// non-decreasing addresses costs one pass over the table in total.
    pub fn get_from(&self, cursor: &mut usize, at: u64) -> Option<&Decoded> {
        debug_assert!(
            *cursor == 0 || self.addrs[*cursor - 1] < at,
            "get_from queries must not go backwards"
        );
        while self.addrs.get(*cursor).is_some_and(|&a| a < at) {
            *cursor += 1;
        }
        (self.addrs.get(*cursor) == Some(&at)).then(|| &self.decoded[*cursor])
    }

    /// Whether an instruction starts at `at`.
    pub fn contains_key(&self, at: &u64) -> bool {
        self.addrs.binary_search(at).is_ok()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the sweep found no instruction.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Every instruction, in address order.
    pub fn iter(&self) -> Iter<'_> {
        self.addrs.iter().zip(&self.decoded)
    }

    /// The instructions whose addresses lie in `bounds`, in address order
    /// (empty, not a panic, for an inverted range).
    pub fn range<R: RangeBounds<u64>>(&self, bounds: R) -> Iter<'_> {
        let lo = match bounds.start_bound() {
            Bound::Included(&s) => self.addrs.partition_point(|&a| a < s),
            Bound::Excluded(&s) => self.addrs.partition_point(|&a| a <= s),
            Bound::Unbounded => 0,
        };
        let hi = match bounds.end_bound() {
            Bound::Included(&e) => self.addrs.partition_point(|&a| a <= e),
            Bound::Excluded(&e) => self.addrs.partition_point(|&a| a < e),
            Bound::Unbounded => self.addrs.len(),
        }
        .max(lo);
        self.addrs[lo..hi].iter().zip(&self.decoded[lo..hi])
    }
}

impl Index<&u64> for InstMap {
    type Output = Decoded;

    fn index(&self, at: &u64) -> &Decoded {
        self.get(at).expect("no sweep instruction at this address")
    }
}

impl<'a> IntoIterator for &'a InstMap {
    type Item = (&'a u64, &'a Decoded);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The disassembled view of one image.
#[derive(Debug, Clone)]
pub struct Disassembly {
    base: u64,
    end: u64,
    /// Linear-sweep instructions in address order: a flat table filled
    /// once by the sweep and queried by binary search.
    pub insts: InstMap,
    /// Bytes the sweep could not decode (padding bytes it resynced over,
    /// or a truncated tail).
    pub undecodable: BTreeSet<u64>,
    /// External entry points: the image base plus every symbol that is
    /// *not* the destination of an intra-image direct branch. A symbol
    /// that is branched to is a local label (e.g. the `skip` label inside
    /// a libpthread-style cancellable wrapper), not a place outside
    /// callers can enter — treating it as an entry would force the
    /// dataflow to assume arbitrary register state there.
    pub entries: BTreeSet<u64>,
    /// Instruction addresses proven reachable from the entry points by
    /// following fall-throughs and direct branches.
    pub reachable: BTreeSet<u64>,
    /// Direct-branch destinations that land strictly inside a sweep
    /// instruction: destination → address of the enclosing instruction.
    pub overlapping_targets: BTreeMap<u64, u64>,
}

impl Disassembly {
    /// First mapped address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last mapped address.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The sweep instruction whose span contains `addr`, if any.
    pub fn enclosing(&self, addr: u64) -> Option<(u64, Decoded)> {
        let (&start, d) = self.insts.range(..=addr).next_back()?;
        (start + d.len as u64 > addr).then_some((start, *d))
    }

    /// Whether `addr` is an instruction boundary in the sweep view.
    pub fn is_boundary(&self, addr: u64) -> bool {
        self.insts.contains_key(&addr)
    }

    /// Whether every byte of `[start, end)` belongs to a contiguous run
    /// of sweep instructions beginning exactly at `start`. Returns the
    /// first offending address otherwise.
    pub fn contiguous_code(&self, start: u64, end: u64) -> Result<(), u64> {
        let mut at = start;
        while at < end {
            match self.insts.get(&at) {
                Some(d) => at += d.len as u64,
                None => return Err(at),
            }
        }
        Ok(())
    }
}

/// Disassembles `image` (linear sweep + recursive descent from the base
/// address and every symbol).
pub fn disassemble_image(image: &BinaryImage) -> Disassembly {
    let base = image.base();
    let end = image.end();
    let mut insts = InstMap::default();
    let mut undecodable = BTreeSet::new();

    // Pass 1: resynchronizing linear sweep.
    let mut addr = base;
    while addr < end {
        let window = match image.read_upto(addr, 16) {
            Ok(w) => w,
            Err(_) => break,
        };
        match decode(window) {
            Ok(d) => {
                insts.push(addr, d);
                addr += d.len as u64;
            }
            Err(DecodeError::Truncated) => {
                // The image ends mid-instruction; everything left is data.
                for a in addr..end {
                    undecodable.insert(a);
                }
                break;
            }
            Err(_) => {
                undecodable.insert(addr);
                addr += 1;
            }
        }
    }

    // Classify symbols: one that is also a direct branch destination is a
    // local label, not an external entry.
    let mut direct_targets = BTreeSet::new();
    for (&at, d) in &insts {
        if let Some(t) = d.inst.branch_target(at) {
            direct_targets.insert(t);
        }
    }
    let mut entries: BTreeSet<u64> = BTreeSet::new();
    entries.insert(base);
    entries.extend(
        image
            .symbols()
            .map(|(_, a)| a)
            .filter(|a| !direct_targets.contains(a)),
    );
    entries.retain(|a| (base..end).contains(a));

    // Pass 2: recursive descent. Roots are the entries plus every symbol
    // (local labels too — reachability should not depend on the
    // classification above).
    let mut roots: BTreeSet<u64> = entries.clone();
    roots.extend(image.symbols().map(|(_, a)| a));

    let mut disasm = Disassembly {
        base,
        end,
        insts,
        undecodable,
        entries,
        reachable: BTreeSet::new(),
        overlapping_targets: BTreeMap::new(),
    };

    let mut worklist: Vec<u64> = roots.into_iter().collect();
    while let Some(at) = worklist.pop() {
        if !(base..end).contains(&at) || disasm.reachable.contains(&at) {
            continue;
        }
        let Some(d) = disasm.insts.get(&at).copied() else {
            // Not a sweep boundary: either the middle of an instruction
            // (overlapping decode) or an undecodable byte. Record and do
            // not descend further — no single reading of these bytes is
            // trustworthy.
            if let Some((start, _)) = disasm.enclosing(at) {
                if start != at {
                    disasm.overlapping_targets.insert(at, start);
                }
            }
            continue;
        };
        disasm.reachable.insert(at);
        if let Some(target) = d.inst.branch_target(at) {
            worklist.push(target);
        }
        if d.inst.falls_through() {
            worklist.push(at + d.len as u64);
        }
    }

    disasm
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound::{Excluded, Included, Unbounded};
    use xc_isa::asm::Assembler;
    use xc_isa::inst::{Cond, Inst, Reg};

    /// The resynchronizing linear sweep into an address-keyed
    /// `BTreeMap`: the reference every [`InstMap`] query must match.
    fn reference_sweep(image: &BinaryImage) -> BTreeMap<u64, Decoded> {
        let mut map = BTreeMap::new();
        let mut addr = image.base();
        while addr < image.end() {
            match decode(image.read_upto(addr, 16).unwrap()) {
                Ok(d) => {
                    map.insert(addr, d);
                    addr += d.len as u64;
                }
                Err(DecodeError::Truncated) => break,
                Err(_) => addr += 1,
            }
        }
        map
    }

    /// Checks every [`InstMap`] query, [`Disassembly::enclosing`] and
    /// [`Disassembly::contiguous_code`] over `image` against the
    /// `BTreeMap` reference.
    fn assert_matches_reference(image: &BinaryImage) {
        let d = disassemble_image(image);
        let r = reference_sweep(image);
        assert!(d.insts.iter().eq(r.iter()), "iteration order");
        assert!((&d.insts).into_iter().eq(&r));
        assert!(d.insts.range(..).eq(r.range(..)));
        assert_eq!(d.insts.len(), r.len());
        assert_eq!(d.insts.is_empty(), r.is_empty());

        let enclosing = |a: u64| {
            let (&s, i) = r.range(..=a).next_back()?;
            (s + i.len as u64 > a).then_some((s, *i))
        };
        let contiguous = |mut at: u64, end: u64| {
            while at < end {
                at += r.get(&at).ok_or(at)?.len as u64;
            }
            Ok(())
        };
        let (lo, hi) = (image.base().saturating_sub(2), image.end() + 2);
        for a in lo..hi {
            assert_eq!(d.insts.get(&a), r.get(&a), "get({a:#x})");
            assert_eq!(d.insts.contains_key(&a), r.contains_key(&a));
            if let Some(i) = r.get(&a) {
                assert_eq!(&d.insts[&a], i);
            }
            assert_eq!(d.enclosing(a), enclosing(a), "enclosing({a:#x})");
            for b in [a, a + 1, a + 5, a + 17] {
                assert!(d.insts.range(a..b).eq(r.range(a..b)));
                assert!(d.insts.range(a..=b).eq(r.range(a..=b)));
                assert!(d
                    .insts
                    .range((Excluded(a), Included(b)))
                    .eq(r.range((Excluded(a), Included(b)))));
                if b > a {
                    // `BTreeMap::range` panics on `(Excluded(a), Excluded(a))`.
                    assert!(d
                        .insts
                        .range((Excluded(a), Excluded(b)))
                        .eq(r.range((Excluded(a), Excluded(b)))));
                    assert_eq!(d.insts.range(b..a).count(), 0, "inverted range");
                }
                assert_eq!(d.contiguous_code(a, b), contiguous(a, b));
            }
            if a % 61 == 0 || a == lo || a + 1 == hi {
                assert!(d.insts.range(a..).eq(r.range(a..)));
                assert!(d.insts.range(..a).eq(r.range(..a)));
                assert!(d.insts.range(..=a).eq(r.range(..=a)));
                assert!(d
                    .insts
                    .range((Excluded(a), Unbounded))
                    .eq(r.range((Excluded(a), Unbounded))));
            }
        }
    }

    /// A byte string built from `(kind, byte, n)` pieces: an encoded
    /// instruction chosen by `byte`, a `0x60` (#UD) byte, an `int3` run of
    /// `n` bytes, or the raw `byte`. A `truncated_tail` ends it with the
    /// first bytes of a `mov r32, imm32`.
    fn sample_bytes(pieces: &[(u8, u8, u8)], truncated_tail: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for &(kind, byte, n) in pieces {
            match kind % 4 {
                0 => {
                    let inst = match byte % 8 {
                        0 => Inst::Nop,
                        1 => Inst::Ret,
                        2 => Inst::Syscall,
                        3 => Inst::MovImm32 {
                            reg: Reg::from_code(byte % 8),
                            imm: u32::from(byte),
                        },
                        4 => Inst::CallAbsIndirect {
                            target: 0xffff_ffff_ff60_0000 + u64::from(byte),
                        },
                        5 => Inst::JmpRel8 { rel: byte as i8 },
                        6 => Inst::JmpRel32 {
                            rel: i32::from(byte) - 128,
                        },
                        _ => Inst::JccRel8 {
                            cond: Cond::Ne,
                            rel: byte as i8,
                        },
                    };
                    inst.encode_into(&mut out);
                }
                1 => out.push(0x60),
                2 => out.resize(out.len() + usize::from(n), 0xcc),
                _ => out.push(byte),
            }
        }
        if truncated_tail {
            out.extend_from_slice(&[0xb8, 0x01, 0x02]);
        }
        out
    }

    #[test]
    fn inst_map_matches_btreemap_on_seeded_byte_strings() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let len = next() % 48;
            let pieces: Vec<(u8, u8, u8)> = (0..len)
                .map(|_| {
                    let x = next();
                    (x as u8, (x >> 8) as u8, (x >> 16) as u8 % 48 + 1)
                })
                .collect();
            let bytes = sample_bytes(&pieces, next() % 3 == 0);
            assert_matches_reference(&BinaryImage::new(0x1000, bytes));
        }
        assert_matches_reference(&BinaryImage::new(0x1000, Vec::new()));
    }

    #[test]
    fn inst_map_matches_btreemap_on_a_page_of_int3_fill() {
        // The offline patcher's shape: short text, int3 fill to the page
        // boundary, then a trampoline.
        let mut a = Assembler::new(0x40_0000);
        a.label("w").unwrap();
        a.jmp_to("tramp");
        a.inst(Inst::Int3);
        a.label("back").unwrap();
        a.inst(Inst::Ret);
        a.align(4096);
        a.label("tramp").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: 0xffff_ffff_ff60_0008,
        });
        a.jmp_to("back");
        assert_matches_reference(&a.finish().unwrap());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every query on the flat table agrees with the `BTreeMap`
            /// the sweep would have filled, on arbitrary byte strings.
            #[test]
            fn inst_map_agrees_with_btreemap(
                pieces in proptest::collection::vec((0u8..4, any::<u8>(), 1u8..48), 0..64),
                truncated_tail in any::<bool>(),
            ) {
                let bytes = sample_bytes(&pieces, truncated_tail);
                assert_matches_reference(&BinaryImage::new(0x1000, bytes));
            }
        }
    }

    #[test]
    fn sweep_covers_simple_wrapper() {
        let mut a = Assembler::new(0x40_0000);
        a.label("w").unwrap();
        a.inst(Inst::MovImm32 {
            reg: Reg::Rax,
            imm: 1,
        });
        a.inst(Inst::Syscall);
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 3);
        assert!(d.undecodable.is_empty());
        assert_eq!(d.reachable.len(), 3);
        assert!(d.contiguous_code(0x40_0000, 0x40_0000 + 8).is_ok());
    }

    #[test]
    fn padding_resyncs_and_interrupts_contiguity() {
        // A 0x60 byte (#UD in long mode) between two instructions.
        let mut bytes = Inst::Ret.encode();
        bytes.push(0x60);
        bytes.extend_from_slice(&Inst::Ret.encode());
        let image = BinaryImage::new(0x1000, bytes);
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 2);
        assert!(d.undecodable.contains(&0x1001));
        assert_eq!(d.contiguous_code(0x1000, 0x1003), Err(0x1001));
    }

    #[test]
    fn truncated_tail_is_undecodable() {
        let mut bytes = Inst::Nop.encode();
        bytes.extend_from_slice(&[0xb8, 0x01]); // truncated mov
        let image = BinaryImage::new(0x1000, bytes);
        let d = disassemble_image(&image);
        assert_eq!(d.insts.len(), 1);
        assert_eq!(d.undecodable, BTreeSet::from([0x1001, 0x1002]));
    }

    #[test]
    fn descent_flags_mid_instruction_branch_target() {
        // `evil` jumps into the immediate of `entry`'s mov: the destination
        // 0x1001 is not a sweep boundary, so it is an overlapping decode.
        let mut bytes = Vec::new();
        // entry @ 0x1000: mov eax, imm whose bytes hide a syscall at +1.
        Inst::MovImm32 {
            reg: Reg::Rax,
            imm: u32::from_le_bytes([0x0f, 0x05, 0x90, 0x90]),
        }
        .encode_into(&mut bytes);
        Inst::Ret.encode_into(&mut bytes); // @ 0x1005
                                           // evil @ 0x1006: jmp rel32 → 0x1001 (rel = 0x1001 - 0x100b).
        Inst::JmpRel32 { rel: -0x0a }.encode_into(&mut bytes);
        let mut image = BinaryImage::new(0x1000, bytes);
        image.add_symbol("entry", 0x1000);
        image.add_symbol("evil", 0x1006);

        let d = disassemble_image(&image);
        assert_eq!(d.overlapping_targets.get(&0x1001), Some(&0x1000));
    }

    #[test]
    fn unreachable_code_is_swept_but_not_reachable() {
        let mut a = Assembler::new(0x1000);
        a.label("f").unwrap();
        a.inst(Inst::Ret);
        // No symbol, never branched to: dead code after the ret.
        a.inst(Inst::Nop);
        let image = a.finish().unwrap();
        let d = disassemble_image(&image);
        assert!(d.is_boundary(0x1001));
        assert!(d.reachable.contains(&0x1000));
        assert!(!d.reachable.contains(&0x1001));
    }
}
