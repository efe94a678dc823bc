//! Post-patch re-verification.
//!
//! After the offline patcher (or an online ABOM run) rewrites an image,
//! this pass checks that the result has exactly the documented shape:
//!
//! * every patched text site decodes to the 7-byte `call *entry` or the
//!   9-byte `call *entry; jmp -9` replacement of §4.4,
//! * every non-`int3` run in the appended trampoline area decodes and is
//!   a trampoline that is targeted by **exactly one** detour `jmp` from
//!   the text, contains **exactly one** vsyscall call, and ends with a
//!   `jmp rel32` back into the text,
//! * nothing branches into the middle of a trampoline.

use std::collections::BTreeMap;

use xc_isa::image::BinaryImage;
use xc_isa::inst::Inst;

use crate::disasm::disassemble_image;

/// Base of the vsyscall page (mirrors `xc_abom::table::VSYSCALL_BASE`;
/// this crate sits below `xc-abom` in the dependency order).
pub const VSYSCALL_BASE: u64 = 0xffff_ffff_ff60_0000;

/// Whether `addr` points into the vsyscall page.
fn is_vsyscall(addr: u64) -> bool {
    (VSYSCALL_BASE..VSYSCALL_BASE + 0x1000).contains(&addr)
}

/// A shape violation found by [`reverify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A non-`int3` run in the trampoline area that no detour jump
    /// targets.
    TrampolineUntargeted {
        /// Start of the run.
        at: u64,
    },
    /// More than one detour jump targets the same trampoline.
    TrampolineMultiplyTargeted {
        /// Start of the trampoline.
        at: u64,
    },
    /// A branch lands strictly inside a trampoline.
    TrampolineInteriorTargeted {
        /// The interior destination.
        target: u64,
    },
    /// A trampoline without exactly one vsyscall call.
    TrampolineMissingCall {
        /// Start of the trampoline.
        at: u64,
    },
    /// A trampoline that does not end with `jmp rel32` back into the
    /// text.
    TrampolineMissingReturn {
        /// Start of the trampoline.
        at: u64,
    },
    /// A detour jump in the text whose destination is not a trampoline
    /// start.
    DetourIntoNonTrampoline {
        /// Address of the jump.
        at: u64,
    },
    /// A byte in the trampoline area that decodes to no instruction.
    UndecodableInArea {
        /// Address of the byte.
        at: u64,
    },
}

/// The post-patch shape report.
#[derive(Debug, Clone, Default)]
pub struct ReverifyReport {
    /// Addresses of 7-byte `call *entry` replacements in the text.
    pub seven_byte: Vec<u64>,
    /// Addresses of completed 9-byte (`call` + `jmp -9`) replacements.
    pub nine_byte: Vec<u64>,
    /// Detour pairs: `(jump address in text, trampoline start)`.
    pub detours: Vec<(u64, u64)>,
    /// Everything that deviates from the documented shape.
    pub violations: Vec<Violation>,
}

impl ReverifyReport {
    /// Whether the patched image has exactly the documented shape.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Re-verifies a patched image whose original text occupied the first
/// `text_len` bytes; everything after that is trampoline area (possibly
/// empty, for images with only adjacent in-place patches).
pub fn reverify(image: &BinaryImage, text_len: usize) -> ReverifyReport {
    let base = image.base();
    let text_end = base + text_len as u64;
    let area_end = image.end();
    let disasm = disassemble_image(image);
    let mut report = ReverifyReport::default();

    // Classify vsyscall call sites in the text.
    for (&at, d) in disasm.insts.range(base..text_end) {
        if let Inst::CallAbsIndirect { target } = d.inst {
            if !is_vsyscall(target) {
                continue;
            }
            let next = at + d.len as u64;
            let nine = matches!(
                disasm.insts.get(&next).map(|n| n.inst),
                Some(Inst::JmpRel8 { rel: -9 })
            );
            if nine {
                report.nine_byte.push(at);
            } else {
                report.seven_byte.push(at);
            }
        }
    }

    // Detour jumps: text JmpRel32 landing in the trampoline area.
    let mut targeted: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (&at, d) in disasm.insts.range(base..text_end) {
        if d.inst.branch_kind() == xc_isa::inst::BranchKind::DirectJump {
            if let Some(t) = d.inst.branch_target(at) {
                if (text_end..area_end).contains(&t) {
                    targeted.entry(t).or_default().push(at);
                }
            }
        }
    }

    // Walk the trampoline area: alternating int3 fill and trampolines.
    // `at` never decreases, so one forward cursor answers every lookup.
    let mut tramp_spans: Vec<(u64, u64)> = Vec::new();
    let mut cursor = 0;
    let mut at = text_end;
    while at < area_end {
        let Some(d) = disasm.insts.get_from(&mut cursor, at) else {
            // Undecodable byte inside the area: neither fill nor part of
            // a trampoline. Report it and resync.
            report.violations.push(Violation::UndecodableInArea { at });
            at += 1;
            continue;
        };
        if d.inst == Inst::Int3 {
            at += 1;
            continue;
        }
        // A trampoline starts here.
        let start = at;
        match targeted.get(&start).map(Vec::len).unwrap_or(0) {
            0 => report
                .violations
                .push(Violation::TrampolineUntargeted { at: start }),
            1 => {}
            _ => report
                .violations
                .push(Violation::TrampolineMultiplyTargeted { at: start }),
        }
        let mut calls = 0usize;
        let mut returned = false;
        while at < area_end {
            let Some(d) = disasm.insts.get_from(&mut cursor, at) else {
                break;
            };
            match d.inst {
                Inst::CallAbsIndirect { target } if is_vsyscall(target) => calls += 1,
                Inst::JmpRel32 { .. } => {
                    let t = d.inst.branch_target(at).expect("jmp has target");
                    if (base..text_end).contains(&t) {
                        returned = true;
                    }
                    at += d.len as u64;
                    break;
                }
                Inst::Int3 => break,
                _ => {}
            }
            at += d.len as u64;
        }
        if calls != 1 {
            report
                .violations
                .push(Violation::TrampolineMissingCall { at: start });
        }
        if !returned {
            report
                .violations
                .push(Violation::TrampolineMissingReturn { at: start });
        }
        tramp_spans.push((start, at));
        if let Some(srcs) = targeted.get(&start) {
            for &src in srcs {
                report.detours.push((src, start));
            }
        }
    }

    // Detour jumps must land exactly on trampoline starts.
    for (&t, srcs) in &targeted {
        if !tramp_spans.iter().any(|&(s, _)| s == t) {
            for &src in srcs {
                report
                    .violations
                    .push(Violation::DetourIntoNonTrampoline { at: src });
            }
        }
    }

    // Nothing may branch strictly into a trampoline.
    for (&at, d) in &disasm.insts {
        if let Some(t) = d.inst.branch_target(at) {
            for &(s, e) in &tramp_spans {
                if t > s && t < e && !(s..e).contains(&at) {
                    report
                        .violations
                        .push(Violation::TrampolineInteriorTargeted { target: t });
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_isa::asm::Assembler;
    use xc_isa::inst::Inst;

    /// Hand-builds the shape the offline patcher produces: a detoured
    /// region (jmp + int3 fill), a second adjacently-patched site, and one
    /// trampoline after the text.
    fn patched_image() -> (BinaryImage, usize) {
        let mut a = Assembler::new(0x1000);
        // Detoured wrapper: jmp tramp; int3 fill to region end; ret.
        a.label("w").unwrap();
        a.jmp_to("tramp"); // 5 bytes
        a.inst(Inst::Int3);
        a.inst(Inst::Int3);
        a.inst(Inst::Int3);
        a.inst(Inst::Int3); // region was 9 bytes: mov5 + nop2... fill 4
        a.label("back").unwrap();
        a.inst(Inst::Ret);
        // Adjacent 7-byte replacement.
        a.label("adj").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.inst(Inst::Ret);
        let text_len = {
            // Pad text to a known size before the trampoline area.
            a.align(32);
            (a.here() - 0x1000) as usize
        };
        // Trampoline area.
        a.label("tramp").unwrap();
        a.inst(Inst::Nop); // displaced interior
        a.inst(Inst::Nop);
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 0x10,
        });
        a.jmp_to("back");
        (a.finish().unwrap(), text_len)
    }

    #[test]
    fn documented_shape_passes() {
        let (image, text_len) = patched_image();
        let r = reverify(&image, text_len);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.seven_byte.len(), 1);
        assert_eq!(r.detours.len(), 1);
    }

    #[test]
    fn untargeted_trampoline_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        // A trampoline nothing jumps to.
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.inst(Inst::JmpRel32 { rel: -(16 + 7 + 5) }); // back into text
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineUntargeted { .. })));
    }

    #[test]
    fn missing_call_and_return_are_flagged() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::Nop); // no vsyscall call, no jmp back
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineMissingCall { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineMissingReturn { .. })));
    }

    #[test]
    fn nine_byte_site_is_classified() {
        let mut a = Assembler::new(0x1000);
        a.label("w").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 0x10,
        });
        a.inst(Inst::JmpRel8 { rel: -9 });
        a.inst(Inst::Ret);
        let len = (a.here() - 0x1000) as usize;
        let image = a.finish().unwrap();
        let r = reverify(&image, len);
        assert_eq!(r.nine_byte, vec![0x1000]);
        assert!(r.seven_byte.is_empty());
    }

    #[test]
    fn undecodable_byte_in_area_is_flagged() {
        // Text `ret` padded to 16 bytes, then an area of int3 fill with
        // one #UD byte (0x60) in it: fill around it, no trampoline.
        let mut bytes = Inst::Ret.encode();
        bytes.resize(16, 0xcc);
        bytes.extend_from_slice(&[0xcc, 0xcc, 0x60, 0xcc, 0xcc]);
        let image = BinaryImage::new(0x1000, bytes);
        let r = reverify(&image, 16);
        assert_eq!(
            r.violations,
            vec![Violation::UndecodableInArea { at: 0x1012 }]
        );
        assert!(!r.ok());
    }

    #[test]
    fn back_to_back_trampolines_pass() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("t1");
        a.label("b1").unwrap();
        a.jmp_to("t2");
        a.label("b2").unwrap();
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        // Two trampolines with no int3 between them.
        for (tramp, back) in [("t1", "b1"), ("t2", "b2")] {
            a.label(tramp).unwrap();
            a.inst(Inst::CallAbsIndirect {
                target: VSYSCALL_BASE + 8,
            });
            a.jmp_to(back);
        }
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.detours, vec![(0x1000, 0x1010), (0x1005, 0x1010 + 12)]);
    }

    #[test]
    fn trampoline_running_off_the_image_end_has_no_return() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert_eq!(
            r.violations,
            vec![Violation::TrampolineMissingReturn { at: 0x1010 }]
        );
        assert_eq!(r.detours, vec![(0x1000, 0x1010)]);
    }

    #[test]
    fn text_only_image_has_an_empty_area() {
        let mut a = Assembler::new(0x1000);
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.inst(Inst::Ret);
        let image = a.finish().unwrap();
        let r = reverify(&image, image.len());
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.seven_byte, vec![0x1000]);
        assert!(r.detours.is_empty());
    }

    #[test]
    fn branch_into_trampoline_interior_is_flagged() {
        let mut a = Assembler::new(0x1000);
        a.jmp_to("tramp");
        a.label("evil").unwrap();
        a.jmp_to("mid");
        a.inst(Inst::Ret);
        a.align(16);
        let text_len = (a.here() - 0x1000) as usize;
        a.label("tramp").unwrap();
        a.inst(Inst::Nop);
        a.label("mid").unwrap();
        a.inst(Inst::CallAbsIndirect {
            target: VSYSCALL_BASE + 8,
        });
        a.jmp_to("evil");
        let image = a.finish().unwrap();
        let r = reverify(&image, text_len);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TrampolineInteriorTargeted { .. })));
    }
}
