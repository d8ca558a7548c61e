//! Output checks. Every check returns the list of problems it found;
//! an empty list means the output is correct.

use std::collections::BTreeMap;
use std::path::Path;

use rsls_campaign::{Journal, JournalEvent};
use rsls_core::sha256_hex;

/// Digests committed with the benchmark (`perfbench/digests.txt`): the
/// sha256 of each experiment's rendered tables and of its
/// `/experiments/<id>` body. Lines are `<kind> <id> <sha256>`.
#[derive(Debug, Default)]
pub struct Digests {
    entries: BTreeMap<(String, String), String>,
}

impl Digests {
    /// Parses the digest file text.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                [kind, id, sha] if sha.len() == 64 => {
                    entries.insert((kind.to_string(), id.to_string()), sha.to_string());
                }
                _ => return Err(format!("digests line {}: '{line}'", n + 1)),
            }
        }
        Ok(Digests { entries })
    }

    /// Checks `bytes` against the committed digest of `(kind, id)`.
    pub fn check(&self, kind: &str, id: &str, bytes: &[u8]) -> Result<(), String> {
        let got = sha256_hex(bytes);
        match self.entries.get(&(kind.to_string(), id.to_string())) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("{kind} {id}: sha256 {got}, committed {want}")),
            None => Err(format!("{kind} {id}: no committed digest (observed {got})")),
        }
    }
}

/// Every object in `<cache>/objects` must be named by the sha256 of its
/// bytes. Returns the object count and the problems found.
pub fn store_objects(cache_dir: &Path) -> (usize, Vec<String>) {
    let dir = cache_dir.join("objects");
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => return (0, vec![format!("{}: {e}", dir.display())]),
    };
    let mut count = 0;
    let mut problems = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        count += 1;
        let Some(stem) = name.strip_suffix(".json") else {
            problems.push(format!("object {name}: not <sha256>.json"));
            continue;
        };
        match std::fs::read(&path) {
            Ok(bytes) => {
                let sha = sha256_hex(&bytes);
                if sha != stem {
                    problems.push(format!("object {name}: bytes hash to {sha}"));
                }
            }
            Err(e) => problems.push(format!("object {name}: {e}")),
        }
    }
    (count, problems)
}

/// The rendered tables `rsls-run` printed for each experiment: the lines
/// between `>>> <id> — …` and `<<< <id> done …`.
pub fn rendered_tables(stdout: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(">>> ") {
            let id = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
            current = Some((id, String::new()));
        } else if line.starts_with("<<< ") {
            if let Some((id, text)) = current.take() {
                out.insert(id, text);
            }
        } else if let Some((_, text)) = current.as_mut() {
            text.push_str(line);
            text.push('\n');
        }
    }
    out
}

/// Experiments with a failed or degraded unit in the journal, each with
/// the offending events.
pub fn journal_failures(journal: &Path) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let events = match Journal::read_events(journal) {
        Ok(events) => events,
        Err(e) => {
            out.entry("<journal>".into())
                .or_default()
                .push(e.to_string());
            return out;
        }
    };
    for event in events {
        let (unit, what) = match event {
            JournalEvent::Failed { unit, error, .. } => (unit, format!("failed: {error}")),
            JournalEvent::Degraded { unit, reason, .. } => (unit, format!("degraded: {reason}")),
            _ => continue,
        };
        let experiment = unit.split('/').next().unwrap_or_default().to_string();
        out.entry(experiment)
            .or_default()
            .push(format!("{unit} {what}"));
    }
    out
}

/// A response that carries an `ETag` must carry the sha256 of its body.
pub fn etag_matches_body(etag: Option<&str>, body: &[u8]) -> Result<(), String> {
    match etag {
        Some(tag) if tag == sha256_hex(body) => Ok(()),
        Some(tag) => Err(format!("ETag {tag} is not the sha256 of the body")),
        None => Err("missing ETag".to_string()),
    }
}

/// The `/query` body the server returned must be byte-identical to the
/// benchmark's own evaluation of `sql` on the same store state.
pub fn query_body(
    expected: &BTreeMap<String, String>,
    sql: &str,
    body: &[u8],
) -> Result<(), String> {
    match expected.get(sql) {
        Some(want) if want.as_bytes() == body => Ok(()),
        Some(want) => Err(format!(
            "/query '{sql}': body ({} bytes) differs from the warehouse evaluation ({} bytes)",
            body.len(),
            want.len()
        )),
        None => Err(format!("/query '{sql}': no expected body computed")),
    }
}

/// Evaluates each query with the lab library over a store, giving the
/// bytes `/query` must return for it.
pub fn expected_query_bodies(
    cache_dir: &Path,
    journal: &Path,
    sqls: &[String],
) -> Result<BTreeMap<String, String>, String> {
    let warehouse = rsls_lab::Warehouse::load(cache_dir, Some(journal))
        .map_err(|e| format!("loading warehouse: {e}"))?;
    let mut out = BTreeMap::new();
    for sql in sqls {
        let result = warehouse.query(sql).map_err(|e| format!("{sql}: {e}"))?;
        out.insert(sql.clone(), result.to_canonical_json());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use rsls_campaign::ResultCache;
    use rsls_core::{run, RunConfig, Scheme};
    use rsls_sparse::generators::stencil_2d;

    /// A fresh scratch directory under the checkout's `.bench_work/`.
    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work/tests")
            .join(format!("{name}-{}", std::process::id()));
        crate::procs::fresh_dir(&dir).expect("scratch dir");
        dir
    }

    /// A one-unit store holding a real fault-free run report.
    fn one_unit_store(name: &str) -> (PathBuf, String) {
        let dir = scratch(name);
        let cache = ResultCache::open(dir.join("cache")).expect("open store");
        let a = stencil_2d(8, 8);
        let b = vec![1.0; a.nrows()];
        let report = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 4));
        let object = cache
            .store(&"ab".repeat(32), &report)
            .expect("store report");
        (dir, object)
    }

    #[test]
    fn sha256_matches_the_standard_test_vector() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn store_check_fires_on_a_corrupted_object() {
        let (dir, object) = one_unit_store("corrupt");
        let cache = dir.join("cache");
        assert_eq!(store_objects(&cache), (1, Vec::new()));
        let path = cache.join("objects").join(format!("{object}.json"));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let (count, problems) = store_objects(&cache);
        assert_eq!(count, 1);
        assert_eq!(problems.len(), 1, "{problems:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn query_check_fires_on_a_tampered_body() {
        let (dir, _) = one_unit_store("query");
        let sql = "select count(*) from runs".to_string();
        let expected = expected_query_bodies(
            &dir.join("cache"),
            &dir.join("campaign.journal"),
            std::slice::from_ref(&sql),
        )
        .unwrap();
        let body = expected[&sql].clone().into_bytes();
        assert!(query_body(&expected, &sql, &body).is_ok());
        let mut tampered = body.clone();
        tampered[body.len() / 2] ^= 0x01;
        assert!(query_body(&expected, &sql, &tampered).is_err());
        assert!(query_body(&expected, "select 1", &body).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn etag_and_digest_checks_fire_on_tampering() {
        let body = b"{\"rows\":[]}";
        let tag = sha256_hex(body);
        assert!(etag_matches_body(Some(&tag), body).is_ok());
        assert!(etag_matches_body(Some(&tag), b"{\"rows\":[1]}").is_err());
        assert!(etag_matches_body(None, body).is_err());

        let digests = Digests::parse(&format!("# comment\ntables fig4 {tag}\n")).unwrap();
        assert!(digests.check("tables", "fig4", body).is_ok());
        assert!(digests.check("tables", "fig4", b"tampered").is_err());
        assert!(digests.check("tables", "fig6", body).is_err());
        assert!(Digests::parse("tables fig4 short").is_err());
    }

    #[test]
    fn rendered_tables_are_cut_per_experiment() {
        let out = "scale: Quick\n>>> fig4 — title\n== T ==\n a  b\n\n<<< fig4 done in 1.7s\n\
                   >>> fig6 — other\nrow\n<<< fig6 done in 0.1s\nsummary\n";
        let tables = rendered_tables(out);
        assert_eq!(tables["fig4"], "== T ==\n a  b\n\n");
        assert_eq!(tables["fig6"], "row\n");
        assert_eq!(tables.len(), 2);
    }

    #[test]
    fn journal_check_fires_on_failed_and_degraded_units() {
        let dir = scratch("journal");
        let path = dir.join("campaign.journal");
        let journal = Journal::create(&path).unwrap();
        for event in [
            JournalEvent::Done {
                hash: "a".into(),
                unit: "fig4/run/FF".into(),
                wall_s: 0.1,
            },
            JournalEvent::Failed {
                hash: "b".into(),
                unit: "fig6/x/LI".into(),
                error: "boom".into(),
            },
            JournalEvent::Degraded {
                hash: "c".into(),
                unit: "table4/y/RD".into(),
                reason: "open".into(),
            },
        ] {
            journal.record(&event).unwrap();
        }
        let failures = journal_failures(&path);
        assert_eq!(failures.keys().collect::<Vec<_>>(), ["fig6", "table4"]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
