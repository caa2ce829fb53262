//! The `cofence` directional-fence algebra (paper §III-B).
//!
//! `cofence(DOWNWARD=…, UPWARD=…)` demands *local data completion* of
//! implicitly synchronized asynchronous operations, except for the classes
//! its arguments permit to cross:
//!
//! * the **downward** argument names which class of operations initiated
//!   *before* the fence may defer their local data completion until
//!   *after* it;
//! * the **upward** argument names which class of operations occurring
//!   *after* the fence may be initiated *before* it completes.
//!
//! Operations are classified by what they do to **local** memory on the
//! initiating image: a `copy_async` whose source is local *reads* local
//! data (local data completion = the source may be overwritten); one whose
//! destination is local *writes* local data (completion = the destination
//! may be consumed). An operation that does both may only cross a fence
//! that permits both classes — the paper's "may not have any practical
//! effect" caveat made precise.

/// Which class of implicitly synchronized operations a fence argument
/// allows to cross in its direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pass {
    /// Nothing crosses (the default when the argument is omitted).
    #[default]
    None,
    /// Operations that only *read* local data may cross (`READ`).
    Reads,
    /// Operations that only *write* local data may cross (`WRITE`).
    Writes,
    /// Any operation may cross (`ANY`).
    Any,
}

impl Pass {
    /// Every pass value, in strictness order (most permissive first).
    /// Shared by the model checker's matrix enumeration and the static
    /// analyzer's fence-weakening search so both walk the same lattice.
    pub const ALL: [Pass; 4] = [Pass::Any, Pass::Reads, Pass::Writes, Pass::None];

    /// The surface spelling of this pass argument (`NONE`/`READ`/
    /// `WRITE`/`ANY`), as the paper writes it and as plan files spell it
    /// (case-insensitively).
    pub fn label(self) -> &'static str {
        match self {
            Pass::None => "NONE",
            Pass::Reads => "READ",
            Pass::Writes => "WRITE",
            Pass::Any => "ANY",
        }
    }

    /// Parses [`Pass::label`] (case-insensitive). The inverse lives here
    /// rather than in each frontend so the lint parser, the plan
    /// renderer, and the CLI all agree on the spelling.
    pub fn parse(s: &str) -> Result<Pass, String> {
        match s.to_ascii_uppercase().as_str() {
            "NONE" => Ok(Pass::None),
            "READ" | "READS" => Ok(Pass::Reads),
            "WRITE" | "WRITES" => Ok(Pass::Writes),
            "ANY" => Ok(Pass::Any),
            other => Err(format!("unknown cofence pass {other:?} (want NONE|READ|WRITE|ANY)")),
        }
    }

    /// How much this argument blocks: 0 (`ANY`, nothing) to 2 (`NONE`,
    /// everything). `READ` and `WRITE` are incomparable and share rank 1.
    pub fn strictness(self) -> u8 {
        match self {
            Pass::Any => 0,
            Pass::Reads | Pass::Writes => 1,
            Pass::None => 2,
        }
    }

    /// Does this permission admit an operation with the given local
    /// access pattern?
    #[inline]
    pub fn admits(self, access: LocalAccess) -> bool {
        match self {
            Pass::None => false,
            Pass::Any => true,
            Pass::Reads => access.reads && !access.writes,
            Pass::Writes => access.writes && !access.reads,
        }
    }
}

/// How an asynchronous operation touches the initiating image's local
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalAccess {
    /// The operation reads a local buffer (e.g. `copy_async` with a local
    /// source; argument marshalling of a `spawn`).
    pub reads: bool,
    /// The operation writes a local buffer (e.g. `copy_async` with a local
    /// destination; arrival of broadcast data on a participant).
    pub writes: bool,
}

impl LocalAccess {
    /// Local-read-only operation.
    pub const READ: LocalAccess = LocalAccess { reads: true, writes: false };
    /// Local-write-only operation.
    pub const WRITE: LocalAccess = LocalAccess { reads: false, writes: true };
    /// Operation that both reads and writes local memory.
    pub const READ_WRITE: LocalAccess = LocalAccess { reads: true, writes: true };
    /// Operation touching no local memory (e.g. a purely remote-to-remote
    /// third-party copy).
    pub const NONE: LocalAccess = LocalAccess { reads: false, writes: false };
}

/// A fully specified `cofence` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CofenceSpec {
    /// Class of earlier operations allowed to complete after the fence.
    pub downward: Pass,
    /// Class of later operations allowed to initiate before the fence.
    pub upward: Pass,
}

impl CofenceSpec {
    /// `cofence()` — the full fence: nothing crosses in either direction.
    pub const FULL: CofenceSpec = CofenceSpec { downward: Pass::None, upward: Pass::None };

    /// `cofence(DOWNWARD=d, UPWARD=u)`.
    pub fn new(downward: Pass, upward: Pass) -> Self {
        CofenceSpec { downward, upward }
    }

    /// Must a pending *earlier* implicit operation with the given local
    /// access reach local data completion before this fence completes?
    /// (`true` = the fence waits for it.)
    #[inline]
    pub fn blocks_down(&self, access: LocalAccess) -> bool {
        !self.downward.admits(access)
    }

    /// May a *later* implicit operation with the given local access be
    /// initiated before this fence completes?
    #[inline]
    pub fn admits_up(&self, access: LocalAccess) -> bool {
        self.upward.admits(access)
    }

    /// Renders the statement as the paper spells it: `cofence()` for the
    /// full fence, `cofence(DOWNWARD=…, UPWARD=…)` otherwise.
    pub fn render(&self) -> String {
        if *self == CofenceSpec::FULL {
            "cofence()".to_string()
        } else {
            format!("cofence(DOWNWARD={}, UPWARD={})", self.downward.label(), self.upward.label())
        }
    }

    /// Is `self` at least as permissive as `other` in both directions?
    /// (Used by monotonicity property tests: anything that crosses a
    /// stricter fence crosses a looser one.)
    pub fn at_least_as_permissive(&self, other: &CofenceSpec) -> bool {
        fn leq(a: Pass, b: Pass) -> bool {
            // Permissiveness is a partial order: None < {Reads, Writes} < Any.
            match (a, b) {
                (x, y) if x == y => true,
                (Pass::None, _) => true,
                (_, Pass::Any) => true,
                _ => false,
            }
        }
        leq(other.downward, self.downward) && leq(other.upward, self.upward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fence_blocks_everything() {
        for access in [LocalAccess::READ, LocalAccess::WRITE, LocalAccess::READ_WRITE] {
            assert!(CofenceSpec::FULL.blocks_down(access));
            assert!(!CofenceSpec::FULL.admits_up(access));
        }
    }

    /// Paper Fig. 8: `cofence(DOWNWARD=WRITE)` lets the local-write copy
    /// (line 5, remote→local) complete below, while forcing local data
    /// completion of the local-read copy (line 6, local→remote).
    #[test]
    fn fig8_downward_write() {
        let f = CofenceSpec::new(Pass::Writes, Pass::None);
        assert!(!f.blocks_down(LocalAccess::WRITE)); // line 5 passes
        assert!(f.blocks_down(LocalAccess::READ)); // line 6 held
    }

    /// Paper Fig. 9: on the broadcast root, `cofence(WRITE, WRITE)` lets
    /// unrelated local-write operations move across while guaranteeing the
    /// broadcast's local read of `buf` is data-complete.
    #[test]
    fn fig9_root_write_write() {
        let f = CofenceSpec::new(Pass::Writes, Pass::Writes);
        assert!(f.blocks_down(LocalAccess::READ)); // broadcast source read
        assert!(!f.blocks_down(LocalAccess::WRITE));
        assert!(f.admits_up(LocalAccess::WRITE));
        assert!(!f.admits_up(LocalAccess::READ));
    }

    /// An operation that both reads and writes local data crosses only a
    /// fence permitting both (`ANY`).
    #[test]
    fn read_write_ops_need_any() {
        assert!(CofenceSpec::new(Pass::Reads, Pass::None).blocks_down(LocalAccess::READ_WRITE));
        assert!(CofenceSpec::new(Pass::Writes, Pass::None).blocks_down(LocalAccess::READ_WRITE));
        assert!(!CofenceSpec::new(Pass::Any, Pass::None).blocks_down(LocalAccess::READ_WRITE));
    }

    #[test]
    fn no_local_access_never_held() {
        // A remote-to-remote third-party copy has no local-data-completion
        // obligation, but the conservative default still holds it back
        // only under Pass::None? No: nothing to wait for locally, yet the
        // algebra is about classes — NONE matches neither Reads nor
        // Writes, so only Any admits it. Runtimes special-case it by
        // never registering such ops as pending.
        assert!(CofenceSpec::FULL.blocks_down(LocalAccess::NONE));
        assert!(!CofenceSpec::new(Pass::Any, Pass::None).blocks_down(LocalAccess::NONE));
    }

    #[test]
    fn labels_round_trip_and_render_matches_the_paper() {
        for p in Pass::ALL {
            assert_eq!(Pass::parse(p.label()).unwrap(), p);
            assert_eq!(Pass::parse(&p.label().to_lowercase()).unwrap(), p);
        }
        assert!(Pass::parse("sideways").is_err());
        assert_eq!(CofenceSpec::FULL.render(), "cofence()");
        assert_eq!(
            CofenceSpec::new(Pass::Writes, Pass::Any).render(),
            "cofence(DOWNWARD=WRITE, UPWARD=ANY)"
        );
        assert_eq!(Pass::Any.strictness(), 0);
        assert_eq!(Pass::None.strictness(), 2);
    }

    #[test]
    fn permissiveness_order() {
        let full = CofenceSpec::FULL;
        let w = CofenceSpec::new(Pass::Writes, Pass::None);
        let any = CofenceSpec::new(Pass::Any, Pass::Any);
        assert!(w.at_least_as_permissive(&full));
        assert!(any.at_least_as_permissive(&w));
        assert!(any.at_least_as_permissive(&full));
        assert!(!full.at_least_as_permissive(&w));
        let r = CofenceSpec::new(Pass::Reads, Pass::None);
        assert!(!r.at_least_as_permissive(&w));
        assert!(!w.at_least_as_permissive(&r));
    }
}
