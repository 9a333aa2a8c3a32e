//! The Table II image recipes (in upload order) and the 40-build IDE
//! sequence.
//!
//! Each recipe lists primary packages plus per-image junk (unique caches/
//! logs) and user data. Junk volumes are the slack variable fitted so
//! mounted sizes track Table II; stack installed sizes were already fitted
//! to the publish-time column (see `catalog.rs`).

use xpl_guestfs::ImageRecipe;

/// Paper reference values for one Table II row.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    pub name: &'static str,
    pub mounted_gb: f64,
    pub files: u64,
    pub sim_g: f64,
    pub publish_s: f64,
    pub retrieval_s: f64,
}

/// Table II as printed in the paper (targets for EXPERIMENTS.md).
pub const TABLE2_PAPER: [Table2Row; 19] = [
    Table2Row {
        name: "Mini",
        mounted_gb: 1.913,
        files: 75_749,
        sim_g: 0.0,
        publish_s: 39.52,
        retrieval_s: 24.64,
    },
    Table2Row {
        name: "Redis",
        mounted_gb: 1.914,
        files: 75_796,
        sim_g: 0.97,
        publish_s: 10.28,
        retrieval_s: 22.05,
    },
    Table2Row {
        name: "PostgreSql",
        mounted_gb: 1.963,
        files: 77_497,
        sim_g: 0.59,
        publish_s: 39.699,
        retrieval_s: 33.91,
    },
    Table2Row {
        name: "Django",
        mounted_gb: 1.969,
        files: 79_751,
        sim_g: 0.71,
        publish_s: 18.916,
        retrieval_s: 27.30,
    },
    Table2Row {
        name: "RabbitMQ",
        mounted_gb: 1.956,
        files: 77_596,
        sim_g: 0.56,
        publish_s: 25.620,
        retrieval_s: 33.87,
    },
    Table2Row {
        name: "Base",
        mounted_gb: 1.986,
        files: 78_471,
        sim_g: 0.89,
        publish_s: 42.236,
        retrieval_s: 47.17,
    },
    Table2Row {
        name: "CouchDB",
        mounted_gb: 1.965,
        files: 77_725,
        sim_g: 0.70,
        publish_s: 37.99,
        retrieval_s: 42.58,
    },
    Table2Row {
        name: "Cassandra",
        mounted_gb: 2.531,
        files: 79_740,
        sim_g: 0.71,
        publish_s: 42.58,
        retrieval_s: 35.66,
    },
    Table2Row {
        name: "Tomcat",
        mounted_gb: 2.049,
        files: 76_356,
        sim_g: 0.37,
        publish_s: 60.65,
        retrieval_s: 36.37,
    },
    Table2Row {
        name: "Lapp",
        mounted_gb: 2.107,
        files: 77_816,
        sim_g: 0.53,
        publish_s: 56.71,
        retrieval_s: 61.79,
    },
    Table2Row {
        name: "Lemp",
        mounted_gb: 2.112,
        files: 77_360,
        sim_g: 0.97,
        publish_s: 25.093,
        retrieval_s: 57.11,
    },
    Table2Row {
        name: "MongoDb",
        mounted_gb: 2.110,
        files: 75_820,
        sim_g: 0.15,
        publish_s: 90.465,
        retrieval_s: 29.33,
    },
    Table2Row {
        name: "Own Cloud",
        mounted_gb: 2.378,
        files: 90_667,
        sim_g: 0.76,
        publish_s: 80.942,
        retrieval_s: 100.43,
    },
    Table2Row {
        name: "Desktop",
        mounted_gb: 2.233,
        files: 90_338,
        sim_g: 0.50,
        publish_s: 201.721,
        retrieval_s: 102.34,
    },
    Table2Row {
        name: "Apache Solr",
        mounted_gb: 2.338,
        files: 79_161,
        sim_g: 0.84,
        publish_s: 71.555,
        retrieval_s: 92.57,
    },
    Table2Row {
        name: "IDE",
        mounted_gb: 2.727,
        files: 81_200,
        sim_g: 0.52,
        publish_s: 135.333,
        retrieval_s: 63.62,
    },
    Table2Row {
        name: "Jenkins",
        mounted_gb: 2.515,
        files: 79_695,
        sim_g: 0.87,
        publish_s: 63.504,
        retrieval_s: 81.24,
    },
    Table2Row {
        name: "Redmine",
        mounted_gb: 2.363,
        files: 95_309,
        sim_g: 0.79,
        publish_s: 112.908,
        retrieval_s: 97.08,
    },
    Table2Row {
        name: "Elastic Stack",
        mounted_gb: 2.671,
        files: 103_719,
        sim_g: 0.64,
        publish_s: 166.001,
        retrieval_s: 99.91,
    },
];

const MB: u64 = 1024; // nominal MB in materialized bytes

fn seed_of(name: &str) -> u64 {
    name.bytes().fold(0xA11CEu64, |h, b| {
        h.wrapping_mul(131).wrapping_add(b as u64)
    })
}

fn recipe(
    name: &str,
    primary: &[&str],
    junk_mb: u64,
    junk_files: u32,
    data_mb: u64,
) -> ImageRecipe {
    let s = seed_of(name);
    ImageRecipe::new(name, primary)
        .with_junk(junk_mb * MB, junk_files, s ^ 0x77)
        .with_user_data(data_mb * MB, s ^ 0xDA)
}

/// The 19 Table II recipes, in the paper's upload order.
pub(crate) fn table2_recipes() -> Vec<ImageRecipe> {
    let desktop_primaries: Vec<String> = {
        let mut p = vec![
            "xorg".to_string(),
            "fonts-core".to_string(),
            "apache2".to_string(),
            "mysql-server-5.7".to_string(),
            "php7.0".to_string(),
            "libapache2-mod-php7.0".to_string(),
            "vsftpd".to_string(),
            "nfs-common".to_string(),
            "postfix".to_string(),
            "dovecot-core".to_string(),
        ];
        for i in 0..120 {
            p.push(format!("desktop-pkg-{i}"));
        }
        p
    };
    let ide_primaries: Vec<String> = {
        let mut p = vec![
            "eclipse-platform".to_string(),
            "build-essential".to_string(),
            "python3-dev".to_string(),
            "gdb".to_string(),
            "maven".to_string(),
        ];
        for i in 0..7 {
            p.push(format!("ide-tool-{i}"));
        }
        p
    };
    fn as_refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    vec![
        recipe("Mini", &[], 55, 450, 5),
        recipe("Redis", &["redis-server", "redis-tools"], 60, 500, 5),
        recipe(
            "PostgreSql",
            &["postgresql-9.5", "postgresql-client-9.5"],
            60,
            500,
            5,
        ),
        recipe(
            "Django",
            &["python-django", "python-pip", "python-setuptools"],
            28,
            420,
            5,
        ),
        recipe("RabbitMQ", &["rabbitmq-server"], 60, 500, 5),
        recipe(
            "Base",
            &[
                "apache2",
                "mysql-server-5.7",
                "mysql-client-5.7",
                "php7.0",
                "libapache2-mod-php7.0",
            ],
            60,
            500,
            5,
        ),
        recipe("CouchDB", &["couchdb"], 60, 500, 5),
        recipe("Cassandra", &["cassandra"], 520, 3_000, 10),
        recipe("Tomcat", &["tomcat8"], 60, 500, 5),
        recipe(
            "Lapp",
            &[
                "apache2",
                "postgresql-9.5",
                "php7.0",
                "php-pgsql",
                "pgadmin3",
            ],
            60,
            500,
            5,
        ),
        recipe(
            "Lemp",
            &["nginx", "php-fpm", "php-mysql", "mysql-server-5.7"],
            85,
            620,
            5,
        ),
        recipe(
            "MongoDb",
            &[
                "mongodb-org-server",
                "mongodb-org-mongos",
                "mongodb-org-tools",
            ],
            60,
            500,
            5,
        ),
        recipe(
            "Own Cloud",
            &["owncloud-files", "php-owncloud-mods"],
            250,
            1_500,
            10,
        ),
        recipe("Desktop", &as_refs(&desktop_primaries), 60, 500, 5),
        recipe("Apache Solr", &["apache-solr"], 220, 1_300, 5),
        recipe("IDE", &as_refs(&ide_primaries), 490, 2_800, 8),
        recipe("Jenkins", &["jenkins"], 420, 2_400, 5),
        recipe("Redmine", &["redmine"], 185, 1_100, 5),
        recipe(
            "Elastic Stack",
            &["elasticsearch", "logstash", "kibana"],
            360,
            2_000,
            5,
        ),
    ]
}

/// The k-th successive IDE build (k = 0 is the Table II IDE image).
///
/// Every build rebuilds `maven`, `gdb` and `python3-dev` at bumped
/// versions (~66 MB nominal of fresh installed content, ~70 % changed
/// files) and refreshes ~45 MB of build-time junk; the remaining junk is
/// stable across builds and dedups at file level.
pub(crate) fn ide_build_recipe(k: u32) -> ImageRecipe {
    let mut p = vec![
        "eclipse-platform".to_string(),
        "build-essential".to_string(),
        "python3-dev".to_string(),
        "gdb".to_string(),
        "maven".to_string(),
    ];
    for i in 0..7 {
        p.push(format!("ide-tool-{i}"));
    }
    let refs: Vec<&str> = p.iter().map(String::as_str).collect();
    let mut r = ImageRecipe::new(&format!("IDE-build-{k:02}"), &refs)
        // Stable junk: identical across builds.
        .with_junk(445 * MB, 2_500, 0x1DEA)
        // Fresh junk: unique to this build.
        .with_junk(45 * MB, 320, 0x1DEA ^ (0x9E37 + k as u64))
        .with_user_data(8 * MB, 0xDA7A);
    if k > 0 {
        use xpl_pkg::Version;
        r = r
            .with_pin("maven", Version::parse(&format!("3.3.{}-3", 9 + k)))
            .with_pin("gdb", Version::parse(&format!("7.{}.1-0ubuntu1", 11 + k)))
            .with_pin("python3-dev", Version::parse(&format!("3.5.{}-3", 1 + k)));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_recipes_in_paper_order() {
        let r = table2_recipes();
        assert_eq!(r.len(), 19);
        for (recipe, row) in r.iter().zip(TABLE2_PAPER.iter()) {
            assert_eq!(recipe.name, row.name);
        }
    }

    #[test]
    fn desktop_has_many_primaries() {
        let r = table2_recipes();
        let desktop = r.iter().find(|r| r.name == "Desktop").unwrap();
        assert!(desktop.primary.len() > 120, "{}", desktop.primary.len());
    }

    #[test]
    fn ide_builds_pin_increasing_versions() {
        let r1 = ide_build_recipe(1);
        let r2 = ide_build_recipe(2);
        assert_eq!(r1.pinned.len(), 3);
        let v1 = &r1.pinned.iter().find(|(n, _)| n == "maven").unwrap().1;
        let v2 = &r2.pinned.iter().find(|(n, _)| n == "maven").unwrap().1;
        assert!(v2 > v1);
        // Build 0 uses catalog-newest (no pins).
        assert!(ide_build_recipe(0).pinned.is_empty());
    }

    #[test]
    fn ide_builds_share_stable_junk() {
        let a = ide_build_recipe(3);
        let b = ide_build_recipe(4);
        assert_eq!(a.junk[0].seed, b.junk[0].seed, "stable junk shared");
        assert_ne!(a.junk[1].seed, b.junk[1].seed, "fresh junk unique");
    }

    #[test]
    fn paper_reference_is_consistent() {
        // Sanity on transcription: sizes grow roughly with position and
        // every row has positive time entries.
        for row in &TABLE2_PAPER {
            assert!(row.mounted_gb > 1.8 && row.mounted_gb < 3.0);
            assert!(row.publish_s > 0.0 && row.retrieval_s > 0.0);
            assert!(row.files > 70_000);
        }
    }
}
