//! Identifier newtypes shared across the runtime and the simulator.
//!
//! Coarray Fortran 2.0 names participants *process images*. An image has a
//! fixed *global* rank for its whole lifetime, plus a *relative* rank inside
//! every team it belongs to. Keeping the two in distinct newtypes prevents
//! the classic PGAS bug of indexing a team-relative structure with a global
//! rank (or vice versa).

use std::fmt;

/// Global rank of a process image within `team_world` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub usize);

impl ImageId {
    /// The global rank as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img{}", self.0)
    }
}

/// Rank of an image relative to some team (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TeamRank(pub usize);

impl TeamRank {
    /// The team-relative rank as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TeamRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Identifier of a team. `TeamId::WORLD` is `team_world`; teams created by
/// `team_split` get fresh ids from a runtime-global counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TeamId(pub u64);

impl TeamId {
    /// The id of `team_world`, to which every image initially belongs.
    pub const WORLD: TeamId = TeamId(0);
}

impl fmt::Display for TeamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TeamId::WORLD {
            write!(f, "team_world")
        } else {
            write!(f, "team{}", self.0)
        }
    }
}

/// Identifier of one dynamic `finish` block instance.
///
/// `finish` is collective over a team and every member must enter matching
/// blocks in the same order, so `(team, seq)` — where `seq` counts finish
/// blocks entered on that team — names the same dynamic block on every
/// member. Nested finish blocks on the same team get increasing `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FinishId {
    /// Team the finish block synchronizes.
    pub team: TeamId,
    /// Ordinal of this finish block on `team` (0-based, per team).
    pub seq: u64,
}

impl fmt::Display for FinishId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "finish({}, #{})", self.team, self.seq)
    }
}

/// Identifier of an event variable.
///
/// Events declared as coarrays are remotely addressable: the pair
/// (owning image, slot) names one event cell. Purely local events use the
/// owning image's own id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    /// Image whose memory holds the event cell.
    pub owner: ImageId,
    /// Slot within the owner's event table.
    pub slot: u64,
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event({}, {})", self.owner, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ImageId(3).to_string(), "img3");
        assert_eq!(TeamId::WORLD.to_string(), "team_world");
        assert_eq!(TeamId(7).to_string(), "team7");
        let f = FinishId { team: TeamId(2), seq: 5 };
        assert_eq!(f.to_string(), "finish(team2, #5)");
        let e = EventId { owner: ImageId(1), slot: 9 };
        assert_eq!(e.to_string(), "event(img1, 9)");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(ImageId(1) < ImageId(2));
        assert!(TeamRank(0) < TeamRank(1));
        let a = FinishId { team: TeamId(1), seq: 1 };
        let b = FinishId { team: TeamId(1), seq: 2 };
        assert!(a < b);
    }
}
