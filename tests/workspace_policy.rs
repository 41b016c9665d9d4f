//! The workspace rules no compiler lint expresses.
//!
//! * **Layering** — which `peerstripe-*` crate may depend on which.  The crate
//!   DAG is an architectural decision; checking each member manifest's
//!   `[dependencies]` against [`LAYERS`] makes "core grew a dependency on
//!   repair" fail tier-1 instead of surfacing three refactors later.
//!   Dev-dependencies are exempt: they never ship in the library graph.
//!   Cycles need no check here: cargo refuses a cyclic dependency graph.
//! * **Waiver inventory** — every site that breaks a `[workspace.lints]` rule
//!   carries `#[expect(<lint>, reason = "…")]`.  The count of those lines in
//!   library code (`crates/*/src`, `src/`) may shrink, never grow: a change
//!   that removes waivers lowers [`WAIVER_CEILING`] with them.
//! * **One client dial** — in the non-test part of `crates/net/src`, only the
//!   files in [`DIAL_SITES`] open a `TcpStream`: the TCP transport that the
//!   gateway, the one client of the daemons, dials through, and the server's
//!   accept-loop wake-ups.  A second client would be a second path to the
//!   daemons, around the transport seam.
//! * **No public fn without a caller** — a `pub`, `pub(crate)` or `pub const`
//!   `fn` under `crates/*/src` must be used somewhere in the non-test part
//!   of the program (`crates/*/src`, `src/`, `examples/`, `bench/src`) in a
//!   call shape — `name(`, `.name(`, `Type::name` — or a `use` item; a field,
//!   a local or a comment of the same name is no caller.  A bare `name(`
//!   calls only a free fn (one declared at the start of a line): a method
//!   needs `.name(`, `Self::name` or `Type::name`, so a called closure or
//!   local of a method's name hides nothing.  Tests do not count
//!   as callers: a function only a test calls is surface nobody uses.  The
//!   few kept on purpose are listed in [`KEPT`], each with its reason.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Committed ceiling on `#[expect(` / `#![expect(` lines in library code.
const WAIVER_CEILING: usize = 4;

/// The files under `crates/net/src` whose non-test part may call
/// `TcpStream::connect`: the TCP transport's dial and the server's wake-ups.
const DIAL_SITES: &[&str] = &["server.rs", "transport.rs"];

/// The allowed internal dependency edges: crate → the `peerstripe-*` crates
/// it may depend on, named without the prefix (`peerstripe` is the facade).
/// `sim` is the foundation (nothing internal below it); `core` may use
/// placement's traits but never the maintenance engine; `experiments` is the
/// top of the stack.
#[rustfmt::skip]
const LAYERS: &[(&str, &[&str])] = &[
    ("sim", &[]),
    // Telemetry sits below every sim crate: anything sim-facing may use it.
    ("telemetry", &[]),
    ("trace", &["sim"]),
    ("overlay", &["sim"]),
    ("erasure", &["sim"]),
    ("multicast", &["sim", "overlay"]),
    ("placement", &["sim", "overlay", "trace"]),
    ("core", &["sim", "overlay", "erasure", "trace", "placement"]),
    ("repair", &["sim", "overlay", "trace", "placement", "core", "telemetry"]),
    ("baselines", &["sim", "trace", "core"]),
    ("gridsim", &["sim", "trace", "core", "baselines"]),
    // The networked deployment path reuses the cluster-facing traits
    // (core/placement) and telemetry's export records; it must never reach
    // into the repair engine or the experiment drivers.
    ("net", &["sim", "overlay", "placement", "core", "telemetry"]),
    ("experiments", &["sim", "trace", "overlay", "erasure", "multicast", "placement", "core",
                      "repair", "baselines", "gridsim", "telemetry", "net"]),
    // The facade re-exports everything below it by design.
    ("peerstripe", &["sim", "trace", "overlay", "erasure", "multicast", "placement", "core",
                     "repair", "baselines", "gridsim", "experiments", "telemetry", "net"]),
];

/// The public fns nothing in the program calls that stay on purpose, and why.
#[rustfmt::skip]
const KEPT: &[(&str, &str)] = &[
    ("reconstruct_cat", "ROADMAP item 7: rebuilding a lost CAT"),
    ("stored_size", "ROADMAP item 11"),
    ("store_object", "test oracle: StorageCluster"),
    ("remove_from", "test oracle: StorageCluster"),
    ("release_at", "test oracle: undoes `reserve` in tests/properties.rs"),
    ("collocated_since", "test oracle: DamageLedger"),
    ("next_clockwise", "test oracle: the heir IdRing::remove_with_takeover names"),
    ("rs_default", "test fixture: the RS geometry some twenty tests build"),
    ("group_of", "test oracle: XorCode"),
    ("run_experiment", "the smoke tests' entry point into the CLI"),
    ("domain_spread_beats_oblivious", "the placement sweep's acceptance check"),
    ("outage_aware_beats_per_node", "the placement sweep's acceptance check"),
    ("lazy_beats_eager_somewhere", "the repair sweep's acceptance check"),
    ("locality_aware", "test oracle: MulticastTree"),
    ("group_outage_active", "test oracle: MaintenanceEngine"),
    ("series_named", "test oracle: Figure"),
    ("expected_mean", "test oracle: CapacityModel"),
    ("ring_of", "test wire: ROADMAP item 5"),
    ("stop", "test wire: ROADMAP item 5"),
    ("ping", "test oracle: a daemon answers"),
    ("leaves", "test oracle: MulticastTree"),
    ("height", "test oracle: MulticastTree"),
    ("proximity", "test oracle: OverlaySim"),
    ("predecessor", "test oracle: IdRing"),
    ("accounting_is_consistent", "test oracle: MaintenanceEngine"),
    ("chance", "test fixture: random choices in property tests"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A manifest's package name and the `peerstripe-*` crates its
/// `[dependencies]` name, without the prefix, read line by line (no TOML parser: the workspace's
/// manifests use `name = "…"`, `dep.workspace = true` and `dep = { … }`).
fn internal_deps(manifest: &str) -> (String, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.to_string());
            }
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
        match section {
            "package" if key == "name" => {
                name = line.split('"').nth(1).unwrap_or_default().to_string();
            }
            "dependencies" if key.starts_with("peerstripe") => deps.push(key.to_string()),
            _ => {}
        }
    }
    let short = |name: &str| name.strip_prefix("peerstripe-").unwrap_or(name).to_string();
    (short(&name), deps.iter().map(|d| short(d)).collect())
}

/// Every edge of `manifests` (`(path, text)` pairs) that [`LAYERS`] does not
/// permit, and every crate it does not list.
fn layering_violations(manifests: &[(String, String)]) -> Vec<String> {
    let policy: BTreeMap<&str, &[&str]> = LAYERS.iter().copied().collect();
    let mut violations = Vec::new();
    for (path, text) in manifests {
        let (name, deps) = internal_deps(text);
        let Some(allowed) = policy.get(name.as_str()) else {
            violations.push(format!("{path}: crate `{name}` is not in LAYERS"));
            continue;
        };
        for dep in deps.iter().filter(|d| !allowed.contains(&d.as_str())) {
            violations.push(format!("{path}: `{name}` must not depend on `{dep}`"));
        }
    }
    violations
}

/// The root manifest and every `crates/*/Cargo.toml`, as `(path, text)`.
fn member_manifests() -> io::Result<Vec<(String, String)>> {
    let mut paths = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates"))? {
        paths.push(entry?.path().join("Cargo.toml"));
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| Ok((p.display().to_string(), std::fs::read_to_string(&p)?)))
        .collect()
}

/// Lines of `source` that open a lint waiver.
fn waivers(source: &str) -> usize {
    source
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("#[expect(") || l.starts_with("#![expect("))
        .count()
}

fn check_inventory(count: usize, ceiling: usize) -> Result<(), String> {
    if count > ceiling {
        return Err(format!(
            "{count} #[expect] waivers in library code, over the committed ceiling of \
             {ceiling}: fix the new site instead of waiving it"
        ));
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Waiver lines under `src/` and every `crates/*/src`.
fn library_waivers() -> io::Result<usize> {
    let mut dirs = crate_srcs()?;
    dirs.push(root().join("src"));
    let files = sources(&dirs, root())?;
    Ok(files.iter().map(|(_, text)| waivers(text)).sum())
}

/// Every file of `files` (`(path under crates/net/src, text)` pairs) outside
/// [`DIAL_SITES`] whose non-test part, up to its first `#[cfg(test)]`, dials.
fn dial_violations(files: &[(String, String)]) -> Vec<String> {
    files
        .iter()
        .filter(|(path, _)| !DIAL_SITES.contains(&path.as_str()))
        .filter(|(_, text)| {
            let body = text.split("#[cfg(test)]").next().unwrap_or_default();
            body.contains("TcpStream::connect")
        })
        .map(|(path, _)| format!("{path}: a client dial outside the gateway"))
        .collect()
}

/// Every `.rs` under `crates/net/src`, as `(path relative to it, text)`.
fn net_sources() -> io::Result<Vec<(String, String)>> {
    let dir = root().join("crates/net/src");
    sources(std::slice::from_ref(&dir), &dir)
}

/// The non-test part of a source file: everything before its first
/// `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or_default()
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The name of the `pub`, `pub(<scope>)` or `pub const` fn `line` declares.
fn declared_pub_fn(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub")?;
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => {
            let (scope, rest) = scoped.split_once(')')?;
            let lowercase = !scope.is_empty() && scope.chars().all(|c| c.is_ascii_lowercase());
            lowercase.then_some(rest)?
        }
        None => rest,
    };
    let rest = rest.strip_prefix(' ')?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let name = rest.strip_prefix("fn ")?.split(|c| !is_word(c)).next()?;
    (!name.is_empty()).then_some(name)
}

/// `text` with its comments and the insides of its string and character
/// literals blanked out (newlines kept), so a word in either reads as no use.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        // Where the comment or literal starting at `i` ends, if one does.
        let skip_to = match (c, next) {
            ('/', Some('/')) => chars[i..].iter().position(|&c| c == '\n').map(|n| i + n),
            ('/', Some('*')) => (i + 3..chars.len())
                .find(|&k| chars[k - 1] == '*' && chars[k] == '/')
                .map(|k| k + 1),
            ('"', _) => {
                let mut k = i + 1;
                while let Some(&c) = chars.get(k) {
                    match c {
                        '\\' => k += 1,
                        '"' => break,
                        _ => {}
                    }
                    k += 1;
                }
                Some(k + 1)
            }
            ('\'', Some('\\')) => (i + 3..chars.len())
                .find(|&k| chars[k] == '\'')
                .map(|k| k + 1),
            ('\'', Some(_)) if chars.get(i + 2) == Some(&'\'') => Some(i + 3),
            _ => None,
        };
        match skip_to {
            Some(end) => {
                let end = end.min(chars.len());
                out.extend(chars[i..end].iter().filter(|&&c| c == '\n'));
                out.push(' ');
                i = end;
            }
            None => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// The words `code` (comments and literals blanked) uses as a fn, as
/// `(bare, qualified)`: `bare` called as `name(` or `name::<T>(` (but not
/// `fn name(`), which only a free fn can be; `qualified` called as
/// `.name(`, named by a path (`Type::name`, `Self::name(`) or in a `use`
/// item, which a method can be too.  A struct field, a local or a word in
/// prose never counts.
fn used_names(code: &str) -> (BTreeSet<&str>, BTreeSet<&str>) {
    let mut tokens = Vec::new();
    let mut rest = code;
    while let Some(start) = rest.find(is_word) {
        let (gap, word) = rest.split_at(start);
        let end = word.find(|c| !is_word(c)).unwrap_or(word.len());
        let (word, tail) = word.split_at(end);
        tokens.push((gap, word));
        rest = tail;
    }
    let (mut bare, mut qualified) = (BTreeSet::new(), BTreeSet::new());
    let mut in_use = false;
    let mut prev = "";
    for (k, &(gap, word)) in tokens.iter().enumerate() {
        in_use &= !gap.contains(';');
        let after = tokens.get(k + 1).map_or(rest, |&(gap, _)| gap).trim_start();
        let called = prev != "fn" && (after.starts_with('(') || after.starts_with("::<"));
        let gap = gap.trim_end();
        if in_use || gap.ends_with("::") || (called && gap.ends_with('.')) {
            qualified.insert(word);
        } else if called {
            bare.insert(word);
        }
        in_use |= word == "use";
        prev = word;
    }
    (bare, qualified)
}

/// Every public fn declared in `declaring` (`(path, text)` pairs) that the
/// non-test parts of `declaring` and `callers` never use in a call shape
/// (see [`used_names`]; a bare call counts for a free fn only), as
/// `(path:line, name)`.  A name shared by several fns of a kind reads as
/// used if any one is.
fn uncalled_pub_fns<'a>(
    declaring: &'a [(String, String)],
    callers: &[(String, String)],
) -> Vec<(String, &'a str)> {
    let code: Vec<String> = declaring
        .iter()
        .chain(callers)
        .map(|(_, text)| code_only(non_test(text)))
        .collect();
    let (mut bare, mut qualified) = (BTreeSet::new(), BTreeSet::new());
    for (b, q) in code.iter().map(|c| used_names(c)) {
        bare.extend(b);
        qualified.extend(q);
    }
    let mut uncalled = Vec::new();
    for (path, text) in declaring {
        for (n, line) in non_test(text).lines().enumerate() {
            let Some(name) = declared_pub_fn(line) else {
                continue;
            };
            let free = line.starts_with("pub");
            let called = qualified.contains(name) || (free && bare.contains(name));
            if !called {
                uncalled.push((format!("{path}:{}", n + 1), name));
            }
        }
    }
    uncalled
}

/// Every `crates/*/src`.
fn crate_srcs() -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in std::fs::read_dir(root().join("crates"))? {
        dirs.push(entry?.path().join("src"));
    }
    Ok(dirs)
}

/// `(path relative to base, text)` of every `.rs` under `dirs`, sorted.
fn sources(dirs: &[PathBuf], base: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs(dir, &mut files)?;
    }
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(base).unwrap_or(&p).display().to_string();
            Ok((rel, std::fs::read_to_string(&p)?))
        })
        .collect()
}

#[test]
fn the_workspace_follows_its_layering() {
    let manifests = member_manifests().unwrap();
    assert_eq!(manifests.len(), LAYERS.len(), "one manifest per LAYERS row");
    assert_eq!(layering_violations(&manifests), Vec::<String>::new());
}

#[test]
fn a_forbidden_edge_fails_the_layering_check() {
    let net = "[package]\nname = \"peerstripe-net\"\n\n[dependencies]\n\
               peerstripe-core.workspace = true\npeerstripe-repair = { path = \"../repair\" }\n\
               \n[dev-dependencies]\npeerstripe-experiments.workspace = true\n";
    let manifests = [("net/Cargo.toml".to_string(), net.to_string())];
    assert_eq!(
        layering_violations(&manifests),
        ["net/Cargo.toml: `net` must not depend on `repair`"]
    );
    let unknown = [(
        "x/Cargo.toml".into(),
        "[package]\nname = \"peerstripe-x\"\n".into(),
    )];
    assert_eq!(layering_violations(&unknown).len(), 1);
}

#[test]
fn the_waiver_inventory_stays_under_its_ceiling() {
    let count = library_waivers().unwrap();
    assert!(count > 0, "the inventory scan found no waivers at all");
    check_inventory(count, WAIVER_CEILING).unwrap();
}

#[test]
fn one_waiver_over_the_ceiling_fails() {
    let waiver = "    #[expect(clippy::unwrap_used, reason = \"r\")]\n    let x = y.unwrap();\n";
    let source = waiver.repeat(WAIVER_CEILING + 1) + "//! #[expect( in a doc comment\n";
    assert_eq!(waivers(&source), WAIVER_CEILING + 1);
    assert!(check_inventory(waivers(&source), WAIVER_CEILING).is_err());
}

#[test]
fn only_the_gateway_dials_a_daemon() {
    let files = net_sources().unwrap();
    assert!(files.iter().any(|(p, _)| p == "gateway.rs"), "{files:?}");
    assert_eq!(dial_violations(&files), Vec::<String>::new());
}

#[test]
fn a_second_client_dial_fails_the_check() {
    let client = "fn scrape() { TcpStream::connect_timeout(&addr, t); }\n";
    let test_only = "#[cfg(test)]\nmod tests {\n    fn f() { TcpStream::connect(addr); }\n}\n";
    let files = [
        ("transport.rs".to_string(), client.to_string()),
        ("monitor.rs".to_string(), client.to_string()),
        ("node.rs".to_string(), test_only.to_string()),
    ];
    assert_eq!(
        dial_violations(&files),
        ["monitor.rs: a client dial outside the gateway"]
    );
}

#[test]
fn every_public_fn_has_a_caller() {
    let declaring = sources(&crate_srcs().unwrap(), root()).unwrap();
    let callers = ["src", "examples", "bench/src"].map(|d| root().join(d));
    let callers = sources(&callers, root()).unwrap();
    assert!(
        declaring.len() > 50 && callers.len() > 5,
        "the scan found too few sources"
    );

    let uncalled = uncalled_pub_fns(&declaring, &callers);
    let kept = |name: &str| KEPT.iter().any(|(k, _)| *k == name);
    let new: Vec<&String> = uncalled
        .iter()
        .filter(|(_, name)| !kept(name))
        .map(|(at, _)| at)
        .collect();
    assert_eq!(
        new,
        Vec::<&String>::new(),
        "public fns nothing calls: delete them, or add them to KEPT with a reason"
    );
    let stale: Vec<&str> = KEPT
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !uncalled.iter().any(|(_, n)| n == name))
        .collect();
    assert_eq!(
        stale,
        Vec::<&str>::new(),
        "KEPT names a fn that has a caller now, or is gone"
    );
}

#[test]
fn an_uncalled_pub_fn_fails_the_check() {
    let lib = "pub fn used() {}\n\
               pub(crate) fn unused() {}\n\
               pub const fn by_pointer() -> u8 { 0 }\n\
               #[cfg(test)]\nmod tests {\n    fn t() { super::unused(); }\n}\n";
    let declaring = [("crates/x/src/lib.rs".to_string(), lib.to_string())];
    let caller = |body: &str| {
        [(
            "examples/e.rs".to_string(),
            format!("fn main() {{ {body} }}\n"),
        )]
    };
    let uncalled = uncalled_pub_fns(
        &declaring,
        &caller("used(); let f: fn() -> u8 = x::by_pointer;"),
    );
    assert_eq!(uncalled, [("crates/x/src/lib.rs:2".to_string(), "unused")]);
    let all = caller("used(); unused(); let f: fn() -> u8 = x::by_pointer;");
    assert_eq!(uncalled_pub_fns(&declaring, &all), Vec::new());
}

/// A method only a test calls is flagged even though its name is a common
/// word: a field, a local, a called closure parameter, a doc comment, a
/// string and a macro say `stop`, but only a method's call shape or a `use`
/// counts.
#[test]
fn a_test_only_stop_is_flagged() {
    let lib = "/// Stops the spinners: `self.stop()`.\n\
               pub struct Awake { stop: bool }\n\
               impl Awake {\n    pub fn stop(&mut self) { self.stop = true; }\n}\n\
               pub fn run(stop: bool) -> bool { let s = \"stop(\"; println!(\"{s}\"); !stop }\n\
               /* a.stop() */\n\
               #[cfg(test)]\nmod tests {\n    fn t(a: &mut super::Awake) { a.stop(); }\n}\n";
    let declaring = [("crates/x/src/lib.rs".to_string(), lib.to_string())];
    let caller = |body: &str| [("bench/src/b.rs".to_string(), body.to_string())];
    let flagged = |body: &str| {
        let uncalled = uncalled_pub_fns(&declaring, &caller(body));
        uncalled
            .into_iter()
            .map(|(_, name)| name)
            .collect::<Vec<_>>()
    };
    let run = "fn main() { x::run(true); }\n";
    assert_eq!(flagged(run), ["stop"]);
    let stop = "fn main() { let stop = x::run(false); }\n";
    assert_eq!(flagged(&(run.to_string() + stop)), ["stop"]);
    // A called closure parameter is no call of the method it is named like.
    let closure = "fn cycle(stop: impl FnOnce()) { stop(); }\n";
    assert_eq!(flagged(&(run.to_string() + closure)), ["stop"]);
    for call in [
        "a.stop();",
        "x::Awake::stop(a);",
        "use x::{run, Awake::stop};",
    ] {
        let body = format!("{run}fn f(a: &mut x::Awake) {{ {call} }}\n");
        assert_eq!(flagged(&body), Vec::<&str>::new(), "{call}");
    }
}
