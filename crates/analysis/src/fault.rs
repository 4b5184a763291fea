//! The process-global fault-injection registry: the one mechanism that
//! arms every injectable failure in the workspace.
//!
//! The driver's recovery ladder, the fuzzer's shrinker and the compile
//! service's durable store are only trustworthy if each is exercised by
//! a *real* fault in the *real* code path, not by a mock. Each failure is
//! one [`Fault`], spelled the same by `fcc build`, `fcc fuzz` and
//! `fcc serve` (`--inject FAULT`) and by the tests. The code it breaks
//! asks a hook here whether it is armed:
//!
//! | fault | hook | fired by |
//! |---|---|---|
//! | `panic:PASS` | [`maybe_panic`] | the pass manager and `PhaseTimer::start`, on entry to PASS |
//! | `solver-spin` | [`solver_spin`] | the `fcc-dataflow` solver, which busy-loops until fuel stops it |
//! | `verifier-violation:PASS` | [`maybe_corrupt`] | the pass manager, right after PASS runs |
//! | `phi-ordering-bug` | [`phi_restore_disabled`] | `fcc-opt`'s `restore_phis_first` |
//! | `torn-write`, `short-write`, `enospc`, `bit-flip` | [`disk`] | `fcc-serve`'s file primitives |
//!
//! The registry lives here, in the lowest crate the hooks share, because
//! the dataflow solver must see it and `fcc-dataflow` cannot depend on
//! `fcc-opt` or `fcc-serve`, which depend on it.
//!
//! Faults are process-global: the driver's worker pool and the daemon's
//! connections span threads. With nothing armed each hook is a single
//! relaxed atomic load. Tests in one binary run on parallel threads, so
//! each test that arms a fault, or must not run while one is armed,
//! holds a [`Guard`].

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fcc_ir::{Function, InstKind};

/// One injectable failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Panic on entry to the named pass or phase.
    Panic(String),
    /// The dataflow solver busy-loops on entry. Only a fuel budget stops
    /// it; that is the point.
    SolverSpin,
    /// Right after the named pass runs, plant a use of a never-defined
    /// value, which the lint suite and the SSA verifier must then report
    /// against that pass.
    VerifierViolation(String),
    /// Re-open a miscompile this codebase once had: after constant or
    /// range folding rewrites φs, `restore_phis_first` leaves non-φ
    /// instructions above sibling φs, which later φ scans (destruction,
    /// verification) silently truncate. The fuzzer's differential oracle
    /// must catch it and its shrinker must reduce it.
    PhiOrderingBug,
    /// A cache write's rename lands but only half its payload does (a
    /// crash that reorders data blocks and rename).
    TornWrite,
    /// A cache write dies before its rename: a temp file is abandoned and
    /// the final path is never touched.
    ShortWrite,
    /// Every cache write fails with `ENOSPC` before touching the disk.
    Enospc,
    /// Cache reads succeed but one payload bit comes back flipped.
    BitFlip,
}

impl Fault {
    /// The disk faults, in the order the durability matrix sweeps them.
    pub const DISK: [Fault; 4] = [
        Fault::TornWrite,
        Fault::ShortWrite,
        Fault::Enospc,
        Fault::BitFlip,
    ];

    /// One of each fault, those that name a pass naming `pass`.
    pub fn every(pass: &str) -> [Fault; 8] {
        [
            Fault::Panic(pass.to_string()),
            Fault::SolverSpin,
            Fault::VerifierViolation(pass.to_string()),
            Fault::PhiOrderingBug,
            Fault::TornWrite,
            Fault::ShortWrite,
            Fault::Enospc,
            Fault::BitFlip,
        ]
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Panic(pass) => write!(f, "panic:{pass}"),
            Fault::SolverSpin => f.write_str("solver-spin"),
            Fault::VerifierViolation(pass) => write!(f, "verifier-violation:{pass}"),
            Fault::PhiOrderingBug => f.write_str("phi-ordering-bug"),
            Fault::TornWrite => f.write_str("torn-write"),
            Fault::ShortWrite => f.write_str("short-write"),
            Fault::Enospc => f.write_str("enospc"),
            Fault::BitFlip => f.write_str("bit-flip"),
        }
    }
}

impl FromStr for Fault {
    type Err = String;

    /// The spelling [`Display`](fmt::Display) prints; a pass name must
    /// not be empty.
    fn from_str(s: &str) -> Result<Self, String> {
        let pass = s.split_once(':').map_or("", |(_, pass)| pass);
        let found = Fault::every(pass).into_iter().find(|f| f.to_string() == s);
        found.filter(|_| !s.ends_with(':')).ok_or_else(|| {
            let expected: Vec<String> = Fault::every("PASS").iter().map(Fault::to_string).collect();
            format!("unknown fault {s:?} (expected {})", expected.join(", "))
        })
    }
}

/// Whether anything is armed: the one load every hook makes first. It
/// may be relaxed because a hook that sees it set reads the set itself
/// under the lock, and a fault is armed before the work meant to see it
/// starts.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The armed faults.
static FAULTS: Mutex<Vec<Fault>> = Mutex::new(Vec::new());

fn faults() -> MutexGuard<'static, Vec<Fault>> {
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm `fault` process-wide until [`clear`]. Arming it twice is arming
/// it once.
pub fn inject(fault: Fault) {
    let mut armed = faults();
    if !armed.contains(&fault) {
        armed.push(fault);
    }
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm every fault.
pub fn clear() {
    let mut armed = faults();
    armed.clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether an armed fault satisfies `hit`.
fn any(hit: impl Fn(&Fault) -> bool) -> bool {
    ARMED.load(Ordering::Relaxed) && faults().iter().any(hit)
}

/// Hook: panic if a [`Fault::Panic`] names `label`.
pub fn maybe_panic(label: &str) {
    if any(|f| matches!(f, Fault::Panic(pass) if pass == label)) {
        panic!("injected panic in pass '{label}'");
    }
}

/// Hook: should the dataflow solver spin?
pub fn solver_spin() -> bool {
    any(|f| *f == Fault::SolverSpin)
}

/// Hook: should `restore_phis_first` do nothing?
pub fn phi_restore_disabled() -> bool {
    any(|f| *f == Fault::PhiOrderingBug)
}

/// Hook: the armed disk fault, the first of [`Fault::DISK`] if several
/// are.
pub fn disk() -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let armed = faults();
    Fault::DISK.into_iter().find(|f| armed.contains(f))
}

/// Hook: if a [`Fault::VerifierViolation`] names `pass`, corrupt `func`
/// so that any later verification must fail. Returns whether it did (the
/// pass manager then treats the pass as having changed the function, so
/// `--verify-each` lints at once and blames `pass`).
///
/// The corruption is a use of a value that is never defined, invalid at
/// every pipeline stage. It is planted in a terminator operand (a return
/// value or branch condition), so dead-code elimination cannot quietly
/// delete it before a verifier looks.
pub fn maybe_corrupt(pass: &str, func: &mut Function) -> bool {
    if !any(|f| matches!(f, Fault::VerifierViolation(p) if p == pass)) {
        return false;
    }
    let undef = func.new_value();
    let blocks: Vec<_> = func.blocks().collect();
    for &b in blocks.iter().rev() {
        let Some(term) = func.terminator(b) else {
            continue;
        };
        let mut has_use = false;
        func.inst(term).kind.for_each_use(|_| has_use = true);
        if has_use {
            let mut first = true;
            func.inst_mut(term).kind.for_each_use_mut(|v| {
                if std::mem::take(&mut first) {
                    *v = undef;
                }
            });
            return true;
        }
    }
    // Degenerate function whose terminators use no values: plant a copy
    // from the undefined value instead (visible to the SSA verifier and
    // the definite-init lint, though DCE could remove it).
    let dst = func.new_value();
    let entry = func.entry();
    func.insert_before_terminator(entry, InstKind::Copy { src: undef }, Some(dst));
    true
}

/// The lock every [`Guard`] holds.
static TESTS: Mutex<()> = Mutex::new(());

/// A test's hold on the registry. Taking one waits for every other
/// holder in the process; it starts with nothing armed and disarms
/// everything when it drops, even when the test panics.
#[must_use = "the registry is held only while the guard lives"]
pub struct Guard {
    _held: MutexGuard<'static, ()>,
}

impl Guard {
    /// Hold the registry with nothing armed.
    pub fn lock() -> Guard {
        let held = TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        Guard { _held: held }
    }

    /// Hold the registry with `fault` armed.
    pub fn arm(fault: Fault) -> Guard {
        let guard = Guard::lock();
        inject(fault);
        guard
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spelling_round_trips() {
        for fault in Fault::every("coalesce-new") {
            let spelled = fault.to_string();
            assert_eq!(spelled.parse::<Fault>(), Ok(fault), "{spelled}");
        }
        for bad in [
            "bogus",
            "panic",
            "panic:",
            "verifier-violation:",
            "solver-spin:x",
        ] {
            let err = bad.parse::<Fault>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            for spelled in Fault::every("PASS") {
                assert!(err.contains(&spelled.to_string()), "{err} lists {spelled}");
            }
        }
    }

    #[test]
    fn hooks_fire_only_for_their_fault_and_clear_disarms_every_kind() {
        let _held = Guard::lock();
        let source = "function @f(1) {\nb0:\n    v0 = param 0\n    return v0\n}";
        let mut f = fcc_ir::parse::parse_function(source).unwrap();
        let quiet = |f: &mut Function| {
            maybe_panic("coalesce-new");
            assert!(!solver_spin() && !phi_restore_disabled());
            assert_eq!(disk(), None);
            assert!(!maybe_corrupt("range-fold", f));
        };
        quiet(&mut f);

        inject(Fault::Panic("coalesce-new".into()));
        maybe_panic("build-ssa"); // another pass: no panic
        let payload = std::panic::catch_unwind(|| maybe_panic("coalesce-new"))
            .expect_err("the armed pass panics");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected panic in pass 'coalesce-new'"));

        inject(Fault::SolverSpin);
        inject(Fault::SolverSpin); // arming twice is arming once
        assert!(solver_spin());
        inject(Fault::VerifierViolation("range-fold".into()));
        assert!(!maybe_corrupt("const-fold", &mut f));
        let clean = f.to_string();
        assert!(maybe_corrupt("range-fold", &mut f));
        assert_ne!(
            f.to_string(),
            clean,
            "the return now uses an undefined value"
        );
        inject(Fault::PhiOrderingBug);
        assert!(phi_restore_disabled());
        inject(Fault::BitFlip);
        inject(Fault::Enospc);
        assert_eq!(disk(), Some(Fault::Enospc), "the first of DISK wins");

        clear();
        quiet(&mut fcc_ir::parse::parse_function(source).unwrap());
    }
}
