//! Resource kinds, node capability vectors, and operating-system matching.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Number of continuous resource dimensions.
///
/// The paper's experiments constrain jobs over **three** resource types
/// ("lightly-constrained jobs have an average of 1.2 constraints (out of
/// the 3)"), so three continuous dimensions is the faithful configuration.
pub const NUM_RESOURCE_DIMS: usize = 3;

/// A continuous resource dimension a node advertises and a job may constrain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU speed, in GHz-equivalents.
    CpuSpeed,
    /// Main memory, in GiB.
    Memory,
    /// Scratch disk, in GiB.
    Disk,
}

impl ResourceKind {
    /// All kinds, in dimension-index order.
    pub const ALL: [ResourceKind; NUM_RESOURCE_DIMS] = [
        ResourceKind::CpuSpeed,
        ResourceKind::Memory,
        ResourceKind::Disk,
    ];

    /// Stable dimension index in `0..NUM_RESOURCE_DIMS`.
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::CpuSpeed => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Disk => 2,
        }
    }

    /// The kind at dimension index `i`.
    ///
    /// # Panics
    /// If `i >= NUM_RESOURCE_DIMS`.
    pub fn from_index(i: usize) -> ResourceKind {
        Self::ALL[i]
    }

    /// Human-readable unit.
    pub const fn unit(self) -> &'static str {
        match self {
            ResourceKind::CpuSpeed => "GHz",
            ResourceKind::Memory => "GiB",
            ResourceKind::Disk => "GiB",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceKind::CpuSpeed => "cpu",
            ResourceKind::Memory => "mem",
            ResourceKind::Disk => "disk",
        };
        f.write_str(name)
    }
}

/// Operating system a node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsType {
    /// Linux.
    Linux,
    /// Windows.
    Windows,
    /// macOS.
    MacOs,
    /// Solaris (common on 2007-era department machines).
    Solaris,
}

impl OsType {
    /// All OS types.
    pub const ALL: [OsType; 4] = [
        OsType::Linux,
        OsType::Windows,
        OsType::MacOs,
        OsType::Solaris,
    ];

    /// This OS's bit in an [`OsRequirement::bits`] mask.
    pub const fn bit(self) -> u8 {
        match self {
            OsType::Linux => 1 << 0,
            OsType::Windows => 1 << 1,
            OsType::MacOs => 1 << 2,
            OsType::Solaris => 1 << 3,
        }
    }
}

/// The set of operating systems a job can run on ("supported operating
/// system type(s)" in the job profile, Section 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OsRequirement(u8);

impl OsRequirement {
    /// Accepts any operating system (the common case for portable jobs).
    pub const ANY: OsRequirement = OsRequirement(0b1111);

    /// Requires exactly one OS.
    pub fn only(os: OsType) -> OsRequirement {
        OsRequirement(os.bit())
    }

    /// Requires one of the given OSes. An empty list is rejected — a job
    /// that can run nowhere is a submission error, not a requirement.
    pub fn any_of(oses: &[OsType]) -> OsRequirement {
        assert!(!oses.is_empty(), "OsRequirement::any_of: empty OS set");
        OsRequirement(oses.iter().fold(0, |acc, os| acc | os.bit()))
    }

    /// Does a node running `os` satisfy this requirement?
    pub fn accepts(self, os: OsType) -> bool {
        self.0 & os.bit() != 0
    }

    /// The accepted set as a mask of [`OsType::bit`]s, for testing many
    /// nodes' OS bytes against it with one AND each.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// True iff every OS is acceptable (i.e. effectively unconstrained).
    pub fn is_any(self) -> bool {
        self == Self::ANY
    }
}

impl Default for OsRequirement {
    fn default() -> Self {
        Self::ANY
    }
}

/// A node's capability vector over the continuous dimensions, plus its OS.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Capabilities {
    values: [f64; NUM_RESOURCE_DIMS],
    /// Operating system this node runs.
    pub os: OsType,
}

impl Capabilities {
    /// Build a capability vector. All values must be finite and non-negative.
    pub fn new(cpu_ghz: f64, mem_gib: f64, disk_gib: f64, os: OsType) -> Self {
        let values = [cpu_ghz, mem_gib, disk_gib];
        for (kind, v) in ResourceKind::ALL.iter().zip(values) {
            assert!(v.is_finite() && v >= 0.0, "invalid capability {kind}: {v}");
        }
        Capabilities { values, os }
    }

    /// Build from a raw dimension array (dimension-index order).
    pub fn from_values(values: [f64; NUM_RESOURCE_DIMS], os: OsType) -> Self {
        Self::new(values[0], values[1], values[2], os)
    }

    /// The raw dimension array.
    pub fn values(&self) -> [f64; NUM_RESOURCE_DIMS] {
        self.values
    }

    /// Capability in one dimension.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.values[kind.index()]
    }

    /// `self` is at least as capable as `other` in **every** continuous
    /// dimension. (OS is a categorical attribute, not part of dominance —
    /// the CAN matchmaker filters on it separately.)
    pub fn dominates_or_equals(&self, other: &Capabilities) -> bool {
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(a, b)| a >= b)
    }

    /// `self` dominates `other`: at least as capable everywhere and strictly
    /// more capable in at least one dimension. This is the candidate
    /// criterion in the paper's CAN matchmaking: each candidate must be "at
    /// least as capable as the original owner in all dimensions, but more
    /// capable in at least one dimension".
    pub fn strictly_dominates(&self, other: &Capabilities) -> bool {
        self.dominates_or_equals(other)
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .any(|(a, b)| a > b)
    }
}

impl Index<ResourceKind> for Capabilities {
    type Output = f64;
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.values[kind.index()]
    }
}

impl IndexMut<ResourceKind> for Capabilities {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.values[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(c: f64, m: f64, d: f64) -> Capabilities {
        Capabilities::new(c, m, d, OsType::Linux)
    }

    #[test]
    fn kind_index_round_trips() {
        for kind in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_index(kind.index()), kind);
        }
    }

    #[test]
    fn os_requirement_semantics() {
        let linux_only = OsRequirement::only(OsType::Linux);
        assert!(linux_only.accepts(OsType::Linux));
        assert!(!linux_only.accepts(OsType::Windows));
        assert!(!linux_only.is_any());

        let unix = OsRequirement::any_of(&[OsType::Linux, OsType::MacOs, OsType::Solaris]);
        assert!(unix.accepts(OsType::Solaris));
        assert!(!unix.accepts(OsType::Windows));

        assert!(OsRequirement::ANY.is_any());
        for os in OsType::ALL {
            assert!(OsRequirement::ANY.accepts(os));
            // The exposed mask answers as `accepts` does.
            assert_eq!(unix.bits() & os.bit() != 0, unix.accepts(os));
        }
    }

    #[test]
    #[should_panic(expected = "empty OS set")]
    fn empty_os_set_rejected() {
        let _ = OsRequirement::any_of(&[]);
    }

    #[test]
    fn dominance() {
        let a = caps(2.0, 4.0, 100.0);
        let b = caps(1.0, 4.0, 100.0);
        assert!(a.dominates_or_equals(&b));
        assert!(a.strictly_dominates(&b));
        assert!(!b.strictly_dominates(&a));
        assert!(a.dominates_or_equals(&a));
        assert!(!a.strictly_dominates(&a), "dominance is strict");

        let incomparable = caps(3.0, 1.0, 100.0);
        assert!(!a.dominates_or_equals(&incomparable));
        assert!(!incomparable.dominates_or_equals(&a));
    }

    #[test]
    fn indexing() {
        let mut a = caps(2.0, 4.0, 100.0);
        assert_eq!(a[ResourceKind::Memory], 4.0);
        a[ResourceKind::Memory] = 8.0;
        assert_eq!(a.get(ResourceKind::Memory), 8.0);
        assert_eq!(a.values(), [2.0, 8.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "invalid capability")]
    fn negative_capability_rejected() {
        let _ = caps(-1.0, 4.0, 100.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = Capabilities::new(2.4, 8.0, 250.0, OsType::MacOs);
        let json = serde_json::to_string(&a).unwrap();
        let back: Capabilities = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
