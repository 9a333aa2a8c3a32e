//! Package and base-image architectures.
//!
//! The paper's package-similarity metric treats architecture `all` as
//! "portable and available on base images with any architecture"; the
//! compatibility logic here encodes exactly that rule.

/// A hardware architecture tag as used by Debian-style packaging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    Amd64,
    Arm64,
    I386,
    /// Architecture-independent package, installable anywhere.
    All,
}

impl Arch {
    pub fn as_str(self) -> &'static str {
        match self {
            Arch::Amd64 => "amd64",
            Arch::Arm64 => "arm64",
            Arch::I386 => "i386",
            Arch::All => "all",
        }
    }

    pub fn parse(s: &str) -> Option<Arch> {
        Some(match s {
            "amd64" | "x86_64" => Arch::Amd64,
            "arm64" | "aarch64" => Arch::Arm64,
            "i386" | "x86" => Arch::I386,
            "all" => Arch::All,
            _ => return None,
        })
    }

    /// Can a package of architecture `self` be installed on a base image
    /// of architecture `host`?
    pub(crate) fn installable_on(self, host: Arch) -> bool {
        self == Arch::All || self == host
    }

    /// Similarity contribution between two package architectures for the
    /// paper's `simP` metric: equal → 1.0, either side `all` → 1.0
    /// (portable), otherwise 0.0.
    pub fn similarity(self, other: Arch) -> f64 {
        if self == other || self == Arch::All || other == Arch::All {
            1.0
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_aliases() {
        assert_eq!(Arch::parse("x86_64"), Some(Arch::Amd64));
        assert_eq!(Arch::parse("aarch64"), Some(Arch::Arm64));
        assert_eq!(Arch::parse("all"), Some(Arch::All));
        assert_eq!(Arch::parse("sparc"), None);
    }

    #[test]
    fn all_installs_anywhere() {
        for host in [Arch::Amd64, Arch::Arm64, Arch::I386] {
            assert!(Arch::All.installable_on(host));
        }
        assert!(Arch::Amd64.installable_on(Arch::Amd64));
        assert!(!Arch::Amd64.installable_on(Arch::Arm64));
    }

    #[test]
    fn similarity_rules() {
        assert_eq!(Arch::Amd64.similarity(Arch::Amd64), 1.0);
        assert_eq!(Arch::Amd64.similarity(Arch::All), 1.0);
        assert_eq!(Arch::All.similarity(Arch::I386), 1.0);
        assert_eq!(Arch::Amd64.similarity(Arch::Arm64), 0.0);
    }

    #[test]
    fn display_roundtrip() {
        for a in [Arch::Amd64, Arch::Arm64, Arch::I386, Arch::All] {
            assert_eq!(Arch::parse(a.as_str()), Some(a));
        }
    }
}
