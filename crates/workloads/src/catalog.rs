//! The synthetic Ubuntu-16.04-like package catalog.
//!
//! Three populations:
//! 1. A **named essential core** (libc6, dpkg, perl-base — with the
//!    Figure 1 dependency cycle — bash, coreutils, apt, systemd, …).
//! 2. **Generated base filler** — ~400 library/util packages that bring
//!    the base install to ≈1.85 GB nominal across ≈70 k files (matching
//!    the paper's 75 k-file, 1.9 GB Mini image).
//! 3. **Application stacks** — the AWS-style stacks of Table II, with
//!    installed sizes chosen so the publish-time column emerges from the
//!    cost model (see crate docs).
//!
//! All sizes in the builder helpers are **nominal MB**; they are scaled to
//! materialized bytes (÷1024) internally.

use xpl_pkg::catalog::PackageSpec;
use xpl_pkg::meta::{Dependency, FileManifest, PkgFile, Section};
use xpl_pkg::{Arch, Catalog, Version};
use xpl_util::{IStr, SplitMix64};

/// Nominal MB → materialized bytes (1 MB nominal = 1 KiB real).
pub(crate) fn mb(nominal_mb: u64) -> u64 {
    nominal_mb * 1024
}

/// Deterministically distribute `total` bytes over `n` files for a
/// package, with stable paths and version-dependent content for ~70 % of
/// files (a rebuilt version changes most, but not all, of its payload —
/// that partial stability is what block/file dedup exploits across
/// successive builds).
pub(crate) fn gen_manifest(name: &str, version: &str, total: u64, n: usize) -> FileManifest {
    if n == 0 || total == 0 {
        return FileManifest::default();
    }
    let mut rng = SplitMix64::new(0x4D414E49).derive(name).derive(version);
    // Weights: 10 % of files are "big" (binaries/archives), the rest small.
    let weights: Vec<u64> = (0..n)
        .map(|_| {
            if rng.chance(0.10) {
                rng.next_range(30, 600)
            } else {
                rng.next_range(1, 14)
            }
        })
        .collect();
    let wsum: u64 = weights.iter().sum();
    let mut files = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let size = if i + 1 == n {
            total - assigned
        } else {
            ((total as u128 * w as u128) / wsum as u128) as u64
        }
        .max(1);
        assigned = (assigned + size).min(total);
        let dir = match i % 5 {
            0 => "lib",
            1 => "share",
            2 => "share/doc",
            3 => "etc",
            _ => "libexec",
        };
        let path = if i == 0 {
            format!("/usr/bin/{name}")
        } else {
            format!("/usr/{dir}/{name}/f{i}")
        };
        // 70 % of files change content on version bumps; 30 % are stable
        // (docs, data files) — keyed without the version.
        let seed_rng = if i % 10 < 7 {
            SplitMix64::new(0xC0)
                .derive(name)
                .derive(version)
                .derive(&path)
        } else {
            SplitMix64::new(0xC0).derive(name).derive(&path)
        };
        files.push(PkgFile {
            path: IStr::new(&path),
            size: size.min(u32::MAX as u64) as u32,
            seed: seed_rng.clone().next_u64(),
        });
    }
    FileManifest { files }
}

/// Register one package. `inst_mb` is nominal; `deb` defaults to
/// installed/3.2 (the packed-vs-installed ratio the paper leans on).
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_pkg(
    c: &mut Catalog,
    name: &str,
    version: &str,
    inst_mb: u64,
    files: usize,
    deps: &[&str],
    section: Section,
    essential: bool,
) -> xpl_pkg::PackageId {
    let installed = mb(inst_mb).max(files as u64);
    let spec = PackageSpec {
        name: name.to_string(),
        version: Version::parse(version),
        arch: if section == Section::Misc && name.contains("fonts") {
            Arch::All
        } else {
            Arch::Amd64
        },
        section,
        essential,
        deb_size: (installed as f64 / 3.2) as u64 + 1,
        installed_size: installed,
        depends: deps.iter().map(|d| Dependency::any(d)).collect(),
        manifest: gen_manifest(name, version, installed, files),
    };
    c.add(spec)
}

/// Build the full standard catalog. `ide_builds` adds that many bumped
/// versions of the IDE rebuild set (Figure 3c workload).
pub(crate) fn standard_catalog(ide_builds: u32) -> Catalog {
    let mut c = Catalog::new();

    // ---- Named essential core (with the Figure 1 cycle). -------------
    add_pkg(
        &mut c,
        "libc6",
        "2.23-0ubuntu11",
        11,
        120,
        &["perl-base"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "perl-base",
        "5.22.1-9ubuntu0.6",
        6,
        90,
        &["dpkg"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "dpkg",
        "1.18.4ubuntu1.6",
        7,
        130,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "bash",
        "4.3-14ubuntu1.4",
        5,
        60,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "coreutils",
        "8.25-2ubuntu3",
        14,
        110,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "apt",
        "1.2.32",
        4,
        85,
        &["libc6", "dpkg"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "systemd",
        "229-4ubuntu21",
        16,
        240,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "util-linux",
        "2.27.1",
        9,
        140,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "libssl1.0.0",
        "1.0.2g-1ubuntu4",
        3,
        12,
        &["libc6"],
        Section::Libs,
        false,
    );
    add_pkg(
        &mut c,
        "python2.7",
        "2.7.12-1ubuntu0",
        28,
        900,
        &["libc6"],
        Section::Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "openssh-server",
        "7.2p2",
        5,
        70,
        &["libc6", "libssl1.0.0"],
        Section::Servers,
        false,
    );
    add_pkg(
        &mut c,
        "cloud-init",
        "18.4",
        4,
        180,
        &["python2.7"],
        Section::Utils,
        false,
    );

    // ---- Generated base filler: ~400 packages, ≈1.65 GB, ≈64 k files. -
    let mut rng = SplitMix64::new(0xBA5E);
    for i in 0..400 {
        let name = match i % 4 {
            0 => format!("libbase{i}"),
            1 => format!("util-{i}"),
            2 => format!("locale-pack-{i}"),
            _ => format!("sys-mod-{i}"),
        };
        let inst = rng.next_range(2, 6); // 2–6 MB nominal each, avg 4.0
        let files = rng.next_range(95, 245) as usize;
        let dep: &[&str] = if i % 3 == 0 {
            &["libc6"]
        } else {
            &["libc6", "bash"]
        };
        add_pkg(
            &mut c,
            &name,
            "1.0-1",
            inst,
            files,
            dep,
            Section::Libs,
            false,
        );
    }
    // Meta-package that pulls the whole base in.
    {
        let mut deps: Vec<Dependency> = vec![
            "libc6",
            "bash",
            "coreutils",
            "apt",
            "systemd",
            "util-linux",
            "python2.7",
            "openssh-server",
            "cloud-init",
            "libssl1.0.0",
        ]
        .into_iter()
        .map(Dependency::any)
        .collect();
        for i in 0..400u32 {
            let name = match i % 4 {
                0 => format!("libbase{i}"),
                1 => format!("util-{i}"),
                2 => format!("locale-pack-{i}"),
                _ => format!("sys-mod-{i}"),
            };
            deps.push(Dependency::any(&name));
        }
        c.add(PackageSpec {
            name: "ubuntu-minimal".into(),
            version: Version::parse("1.361.4"),
            arch: Arch::Amd64,
            section: Section::Base,
            essential: true,
            deb_size: 2,
            installed_size: 6,
            depends: deps,
            manifest: FileManifest::default(),
        });
    }

    // ---- Application stacks (Table II). Sizes fit the cost model. ----
    use Section::*;
    add_pkg(
        &mut c,
        "libjemalloc1",
        "3.6.0",
        2,
        10,
        &["libc6"],
        Libs,
        false,
    );
    add_pkg(
        &mut c,
        "redis-server",
        "3.0.6-1ubuntu0.4",
        6,
        40,
        &["libc6", "libjemalloc1"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "redis-tools",
        "3.0.6-1ubuntu0.4",
        2,
        12,
        &["libc6"],
        Databases,
        false,
    );

    add_pkg(
        &mut c,
        "postgresql-common",
        "173ubuntu0.3",
        12,
        300,
        &["perl-base"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "libpq5",
        "9.5.25",
        4,
        30,
        &["libc6", "libssl1.0.0"],
        Libs,
        false,
    );
    add_pkg(
        &mut c,
        "postgresql-9.5",
        "9.5.25-0ubuntu0",
        58,
        900,
        &["libc6", "libpq5", "postgresql-common"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "postgresql-client-9.5",
        "9.5.25-0ubuntu0",
        8,
        180,
        &["libpq5"],
        Databases,
        false,
    );

    add_pkg(
        &mut c,
        "python-django",
        "1.8.7-1ubuntu5.15",
        14,
        1500,
        &["python2.7"],
        Web,
        false,
    );
    add_pkg(
        &mut c,
        "python-pip",
        "8.1.1-2ubuntu0.6",
        6,
        300,
        &["python2.7"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "python-setuptools",
        "20.7.0-1",
        8,
        400,
        &["python2.7"],
        Devel,
        false,
    );

    add_pkg(
        &mut c,
        "erlang-base",
        "18.3-dfsg-1ubuntu3.1",
        32,
        800,
        &["libc6"],
        Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "rabbitmq-server",
        "3.5.7-1ubuntu0.16",
        13,
        350,
        &["erlang-base"],
        Servers,
        false,
    );

    add_pkg(
        &mut c,
        "apache2",
        "2.4.18-2ubuntu3.17",
        12,
        280,
        &["libc6", "libssl1.0.0"],
        Web,
        false,
    );
    add_pkg(
        &mut c,
        "mysql-server-5.7",
        "5.7.33-0ubuntu0.16",
        55,
        600,
        &["libc6"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "mysql-client-5.7",
        "5.7.33-0ubuntu0.16",
        9,
        120,
        &["libc6"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "php7.0",
        "7.0.33-0ubuntu0.16",
        10,
        420,
        &["libc6"],
        Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "libapache2-mod-php7.0",
        "7.0.33",
        2,
        40,
        &["apache2", "php7.0"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "libmozjs185",
        "1.8.5-2",
        18,
        90,
        &["libc6"],
        Libs,
        false,
    );
    add_pkg(
        &mut c,
        "couchdb",
        "1.6.0-0ubuntu7",
        55,
        700,
        &["erlang-base", "libmozjs185"],
        Databases,
        false,
    );

    add_pkg(
        &mut c,
        "openjdk-8-jre-headless",
        "8u141-b15",
        39,
        650,
        &["libc6"],
        Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "cassandra",
        "3.7",
        50,
        420,
        &["openjdk-8-jre-headless"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "tomcat8",
        "8.0.32-1ubuntu1.13",
        134,
        800,
        &["openjdk-8-jre-headless"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "pgadmin3",
        "1.22.0-1",
        121,
        900,
        &["libpq5"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "php-pgsql",
        "7.0.33",
        3,
        25,
        &["php7.0", "libpq5"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "nginx",
        "1.10.3-0ubuntu0.16",
        34,
        90,
        &["libc6", "libssl1.0.0"],
        Web,
        false,
    );
    add_pkg(&mut c, "php-fpm", "7.0.33", 8, 120, &["php7.0"], Web, false);
    add_pkg(
        &mut c,
        "php-mysql",
        "7.0.33",
        2,
        30,
        &["php7.0"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "mongodb-org-server",
        "3.6.23",
        120,
        160,
        &["libc6"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "mongodb-org-mongos",
        "3.6.23",
        35,
        40,
        &["libc6"],
        Databases,
        false,
    );
    add_pkg(
        &mut c,
        "mongodb-org-tools",
        "3.6.23",
        53,
        60,
        &["libc6"],
        Databases,
        false,
    );

    add_pkg(
        &mut c,
        "owncloud-files",
        "10.0.3",
        150,
        11_500,
        &["php7.0", "apache2"],
        Web,
        false,
    );
    add_pkg(
        &mut c,
        "php-owncloud-mods",
        "10.0.3",
        34,
        3_000,
        &["php7.0"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "xorg",
        "7.7+13ubuntu3",
        45,
        2_200,
        &["libc6"],
        Desktop,
        false,
    );
    add_pkg(&mut c, "fonts-core", "2016.02", 8, 300, &[], Desktop, false);
    let mut drng = SplitMix64::new(0xDE57);
    for i in 0..120 {
        let inst = drng.next_range(1, 5); // avg ≈ 2.8 MB
        let files = drng.next_range(40, 140) as usize;
        add_pkg(
            &mut c,
            &format!("desktop-pkg-{i}"),
            "1.2",
            inst,
            files,
            &["xorg"],
            Desktop,
            false,
        );
    }
    add_pkg(
        &mut c,
        "vsftpd",
        "3.0.3-3ubuntu2",
        3,
        40,
        &["libc6"],
        Servers,
        false,
    );
    add_pkg(
        &mut c,
        "nfs-common",
        "1.2.8",
        4,
        80,
        &["libc6"],
        Servers,
        false,
    );
    add_pkg(
        &mut c,
        "postfix",
        "3.1.0-3",
        6,
        200,
        &["libc6"],
        Servers,
        false,
    );
    add_pkg(
        &mut c,
        "dovecot-core",
        "2.2.22",
        8,
        250,
        &["libc6", "libssl1.0.0"],
        Servers,
        false,
    );

    add_pkg(
        &mut c,
        "eclipse-platform",
        "3.18.1-1",
        173,
        3_000,
        &["openjdk-8-jre-headless"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "build-essential",
        "12.1ubuntu2",
        70,
        1_300,
        &["libc6"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "python3-dev",
        "3.5.1-3",
        30,
        800,
        &["libc6"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "gdb",
        "7.11.1-0ubuntu1",
        12,
        150,
        &["libc6"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "maven",
        "3.3.9-3",
        24,
        400,
        &["openjdk-8-jre-headless"],
        Devel,
        false,
    );
    for i in 0..7 {
        add_pkg(
            &mut c,
            &format!("ide-tool-{i}"),
            "1.0",
            1,
            30,
            &["libc6"],
            Devel,
            false,
        );
    }

    add_pkg(
        &mut c,
        "jenkins",
        "2.346.1",
        140,
        900,
        &["openjdk-8-jre-headless"],
        Devel,
        false,
    );
    add_pkg(
        &mut c,
        "apache-solr",
        "5.5.5",
        160,
        1_200,
        &["openjdk-8-jre-headless"],
        Servers,
        false,
    );

    add_pkg(
        &mut c,
        "ruby2.3",
        "2.3.1-2ubuntu0.16",
        28,
        1_100,
        &["libc6"],
        Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "rails-bundle",
        "4.2.6-1",
        90,
        8_000,
        &["ruby2.3"],
        Web,
        false,
    );
    add_pkg(
        &mut c,
        "redmine",
        "3.2.1-2",
        144,
        10_300,
        &["rails-bundle"],
        Web,
        false,
    );

    add_pkg(
        &mut c,
        "elasticsearch",
        "5.6.16",
        170,
        700,
        &["openjdk-8-jre-headless"],
        Servers,
        false,
    );
    add_pkg(
        &mut c,
        "logstash",
        "5.6.16",
        140,
        600,
        &["openjdk-8-jre-headless"],
        Servers,
        false,
    );
    add_pkg(
        &mut c,
        "kibana",
        "5.6.16",
        85,
        26_500,
        &["libc6"],
        Servers,
        false,
    );

    // ---- Successive-build versions (Figure 3c). -----------------------
    // Each build rebuilds the same three packages with bumped versions:
    // ~66 MB nominal of fresh installed content per build.
    for b in 1..=ide_builds {
        add_pkg(
            &mut c,
            "maven",
            &format!("3.3.{}-3", 9 + b),
            24,
            400,
            &["openjdk-8-jre-headless"],
            Devel,
            false,
        );
        add_pkg(
            &mut c,
            "gdb",
            &format!("7.{}.1-0ubuntu1", 11 + b),
            12,
            150,
            &["libc6"],
            Devel,
            false,
        );
        add_pkg(
            &mut c,
            "python3-dev",
            &format!("3.5.{}-3", 1 + b),
            30,
            800,
            &["libc6"],
            Devel,
            false,
        );
    }

    c
}

/// The extra unpackaged system files of the base install (boot, initrd,
/// ld cache, locale archives): `(path, nominal KB)` pairs expanded to the
/// builder's `(String, u32)` input.
pub(crate) fn base_system_files() -> Vec<(String, u32)> {
    let mut rng = SplitMix64::new(0x5157EB);
    let mut out = Vec::with_capacity(4200);
    out.push(("/boot/vmlinuz-4.4.0-142-generic".to_string(), mb(7) as u32));
    out.push((
        "/boot/initrd.img-4.4.0-142-generic".to_string(),
        mb(38) as u32,
    ));
    out.push(("/etc/ld.so.cache".to_string(), mb(1) as u32));
    out.push(("/usr/lib/locale/locale-archive".to_string(), mb(10) as u32));
    for i in 0..4200 {
        // ≈65 MB nominal of small config/cache plumbing over many files.
        let size = rng.next_range(1, 30) as u32; // 1–30 KB nominal
        let dir = match i % 4 {
            0 => "etc",
            1 => "var/lib/systemd",
            2 => "usr/share/mime",
            _ => "var/lib/dpkg/info",
        };
        out.push((format!("/{dir}/sysfile-{i}"), size));
    }
    out
}

/// Tiny catalog + names for fast tests and doctests.
pub(crate) fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    add_pkg(
        &mut c,
        "libc6",
        "2.23",
        2,
        15,
        &["perl-base"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "perl-base",
        "5.22",
        1,
        8,
        &["dpkg"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "dpkg",
        "1.18",
        1,
        9,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(&mut c, "bash", "4.3", 1, 6, &["libc6"], Section::Base, true);
    add_pkg(
        &mut c,
        "coreutils",
        "8.25",
        2,
        12,
        &["libc6"],
        Section::Base,
        true,
    );
    add_pkg(
        &mut c,
        "libssl1.0.0",
        "1.0.2",
        1,
        4,
        &["libc6"],
        Section::Libs,
        false,
    );
    add_pkg(
        &mut c,
        "redis-server",
        "3.0.6",
        3,
        10,
        &["libc6"],
        Section::Databases,
        false,
    );
    add_pkg(
        &mut c,
        "nginx",
        "1.10.3",
        2,
        8,
        &["libc6", "libssl1.0.0"],
        Section::Web,
        false,
    );
    add_pkg(
        &mut c,
        "mysql-server-5.7",
        "5.7.33",
        4,
        14,
        &["libc6"],
        Section::Databases,
        false,
    );
    add_pkg(
        &mut c,
        "php7.0",
        "7.0.33",
        2,
        11,
        &["libc6"],
        Section::Interpreters,
        false,
    );
    add_pkg(
        &mut c,
        "apache2",
        "2.4.18",
        2,
        9,
        &["libc6", "libssl1.0.0"],
        Section::Web,
        false,
    );
    c.add(PackageSpec {
        name: "ubuntu-minimal".into(),
        version: Version::parse("1.0"),
        arch: Arch::Amd64,
        section: Section::Base,
        essential: true,
        deb_size: 1,
        installed_size: 2,
        depends: ["libc6", "bash", "coreutils"]
            .iter()
            .map(|d| Dependency::any(d))
            .collect(),
        manifest: FileManifest::default(),
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_builds() {
        let c = standard_catalog(0);
        assert!(c.len() > 550, "catalog has {} packages", c.len());
        assert!(c.newest("libc6").is_some());
        assert!(c.newest("elasticsearch").is_some());
    }

    #[test]
    fn base_closure_is_about_right() {
        // The base install should come out at ≈1.8 GB nominal (Mini's
        // mounted size minus junk/data/status headroom).
        let c = standard_catalog(0);
        let root = c.newest("ubuntu-minimal").unwrap();
        let closure = c.install_closure(&[root], Arch::Amd64).unwrap();
        assert!(closure.len() > 400, "base has {} packages", closure.len());
        let total: u64 = closure.iter().map(|&id| c.get(id).installed_size).sum();
        let nominal_gb = (total * 1024) as f64 / (1u64 << 30) as f64;
        assert!(
            (1.55..2.05).contains(&nominal_gb),
            "base install {nominal_gb:.2} GB nominal"
        );
        let files: usize = closure
            .iter()
            .map(|&id| c.get(id).manifest.file_count())
            .sum();
        assert!((55_000..90_000).contains(&files), "base has {files} files");
    }

    #[test]
    fn figure1_cycle_present() {
        let c = standard_catalog(0);
        let libc = c.newest("libc6").unwrap();
        let closure = c.install_closure(&[libc], Arch::Amd64).unwrap();
        let names: Vec<&str> = closure.iter().map(|&id| c.get(id).name.as_str()).collect();
        assert!(names.contains(&"perl-base") && names.contains(&"dpkg"));
    }

    #[test]
    fn ide_build_versions_added() {
        let c = standard_catalog(3);
        let mavens = c.versions_of(IStr::new("maven"));
        assert_eq!(mavens.len(), 4); // base + 3 builds
                                     // Versions strictly ascending.
        for w in mavens.windows(2) {
            assert!(c.get(w[0]).version < c.get(w[1]).version);
        }
    }

    #[test]
    fn manifests_deterministic_and_sized() {
        let m1 = gen_manifest("pkg", "1.0", 10_000, 50);
        let m2 = gen_manifest("pkg", "1.0", 10_000, 50);
        assert_eq!(m1, m2);
        assert_eq!(m1.file_count(), 50);
        let total = m1.total_bytes();
        assert!((9_000..=11_000).contains(&total), "total {total}");
    }

    #[test]
    fn version_bump_changes_most_not_all_content() {
        let a = gen_manifest("maven", "3.3.9", 50_000, 100);
        let b = gen_manifest("maven", "3.3.10", 50_000, 100);
        let changed = a
            .files
            .iter()
            .zip(b.files.iter())
            .filter(|(x, y)| x.seed != y.seed)
            .count();
        assert!((55..=85).contains(&changed), "{changed}/100 files changed");
    }

    #[test]
    fn small_catalog_resolves() {
        let c = small_catalog();
        let redis = c.newest("redis-server").unwrap();
        let closure = c.install_closure(&[redis], Arch::Amd64).unwrap();
        assert!(closure.len() >= 2);
    }
}
