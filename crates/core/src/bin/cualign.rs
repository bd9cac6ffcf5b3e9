//! `cualign` — command-line network alignment.
//!
//! ```text
//! cualign align --graph-a A.txt --graph-b B.txt [--density 0.025 | --k 10]
//!               [--ann-bands B --ann-bits R --ann-probes P]
//!               [--bp-iters 25] [--dim 128] [--multilevel L]
//!               [--subspace-anchors N] [--subspace-iters R]
//!               [--sinkhorn-epsilon E]
//!               [--method cualign|cone|isorank]
//!               [--output mapping.tsv] [--telemetry off|summary|json:PATH]
//! cualign stats --graph G.txt
//! cualign generate --model er|ba|ws|dd|powerlaw --vertices N --edges M
//!                  [--seed S] --output G.txt
//! ```
//!
//! Graphs are whitespace-separated edge lists (`# comments` allowed); the
//! mapping output is one `u <TAB> v` pair per line. Each command rejects
//! a flag it does not take, and `align` rejects `--k` with `--density`
//! and a flag its `--method` would ignore: `cone` runs no BP (no
//! `--bp-iters`, `--multilevel`), `isorank` none of the pipeline (no
//! sparsifier, embedding, subspace or BP flag).
//!
//! `--telemetry summary` prints the span-tree/counter digest to stderr
//! after the run; `--telemetry json:PATH` appends one JSON snapshot line
//! to `PATH`. The `CUALIGN_TELEMETRY` environment variable supplies the
//! same modes when the flag is absent.

use cualign::baselines::isorank::IsoRankConfig;
use cualign::{cone_align, isorank_align, AlignError, Aligner, AlignerConfig, AnnConfig};
use cualign_graph::{io, stats, CsrGraph};
use cualign_rt::Rng;
use cualign_telemetry::TelemetryMode;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

/// The flags each command takes (`telemetry` is read by `main` for all).
const ALIGN_FLAGS: &[&str] = &[
    "graph-a",
    "graph-b",
    "density",
    "k",
    "ann-bands",
    "ann-bits",
    "ann-probes",
    "bp-iters",
    "dim",
    "multilevel",
    "subspace-anchors",
    "subspace-iters",
    "sinkhorn-epsilon",
    "method",
    "output",
    "telemetry",
];
/// The `align` flags of the BP back half, which `--method cone` ignores.
const BP_FLAGS: &[&str] = &["bp-iters", "multilevel"];
/// The `align` flags every method reads; `--method isorank` reads no
/// other.
const COMMON_ALIGN_FLAGS: &[&str] = &["graph-a", "graph-b", "method", "output", "telemetry"];
const STATS_FLAGS: &[&str] = &["graph", "telemetry"];
const GENERATE_FLAGS: &[&str] = &["model", "vertices", "edges", "seed", "output", "telemetry"];

/// Rejects a flag that `cmd` does not take, so a misspelled flag is an
/// error instead of a silently different run.
fn check_flags(cmd: &str, flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !known.contains(k))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(k) => Err(format!("unknown flag --{k} for '{cmd}'")),
        None => Ok(()),
    }
}

/// Rejects an `align` flag that `method` would ignore, so it cannot look
/// as if it changed the run. Unknown methods pass; `cmd_align` rejects
/// them.
fn check_method_flags(method: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let reads = |flag: &str| match method {
        "cone" => !BP_FLAGS.contains(&flag),
        "isorank" => COMMON_ALIGN_FLAGS.contains(&flag),
        _ => true,
    };
    match flags.keys().map(String::as_str).filter(|k| !reads(k)).min() {
        Some(k) => Err(format!("--method {method} does not use --{k}")),
        None => Ok(()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cualign align --graph-a A.txt --graph-b B.txt [--density D | --k K] \\\n                [--ann-bands B --ann-bits R --ann-probes P] \\\n                [--bp-iters N] [--dim D] [--multilevel L] \\\n                [--subspace-anchors N] [--subspace-iters R] [--sinkhorn-epsilon E] \\\n                [--method cualign|cone|isorank] [--output OUT.tsv] \\\n                [--telemetry off|summary|json:PATH]\n  cualign stats --graph G.txt\n  cualign generate --model er|ba|ws|dd|powerlaw --vertices N --edges M [--seed S] --output G.txt"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mode = match flags.get("telemetry") {
        Some(v) => TelemetryMode::parse(v),
        None => match std::env::var("CUALIGN_TELEMETRY") {
            Ok(v) if !v.is_empty() => TelemetryMode::parse(&v),
            _ => Ok(TelemetryMode::Off),
        },
    };
    let sink = match mode {
        Ok(m) => m.activate(),
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "align" => cmd_align(&flags),
        "stats" => cmd_stats(&flags),
        "generate" => cmd_generate(&flags),
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = sink.emit(cualign_telemetry::global()) {
        eprintln!("warning: failed to emit telemetry: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn require<'m>(flags: &'m HashMap<String, String>, key: &str) -> Result<&'m str, String> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn load(path: &str) -> Result<CsrGraph, String> {
    io::load_edge_list(path)
        .map_err(|e| AlignError::Io {
            path: path.to_string(),
            reason: e.to_string(),
        })
        .map_err(|e| e.to_string())
}

/// Builds the aligner configuration from CLI flags through the validating
/// builder, so an out-of-range `--density 3.0` fails with a clean
/// `invalid config:` diagnostic instead of an assert deep in a stage.
fn config_from_flags(flags: &HashMap<String, String>) -> Result<AlignerConfig, String> {
    if flags.contains_key("k") && flags.contains_key("density") {
        return Err("--k conflicts with --density (pick one sparsifier)".to_string());
    }
    let mut builder = AlignerConfig::builder();
    let ann_knob = |name: &str| -> Result<Option<usize>, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|e| format!("--{name}: {e}")))
            .transpose()
    };
    let (ann_bands, ann_bits, ann_probes) = (
        ann_knob("ann-bands")?,
        ann_knob("ann-bits")?,
        ann_knob("ann-probes")?,
    );
    if ann_bands.is_some() || ann_bits.is_some() || ann_probes.is_some() {
        // Approximate sparsification: any --ann-* flag switches the rule;
        // --k supplies the neighbor count, unset knobs take the defaults.
        if flags.contains_key("density") {
            return Err("--density conflicts with --ann-* (pick one sparsifier)".to_string());
        }
        let defaults = AnnConfig::default();
        let k = match flags.get("k") {
            Some(k) => k.parse().map_err(|e| format!("--k: {e}"))?,
            None => defaults.k,
        };
        builder = builder.ann(
            k,
            ann_bands.unwrap_or(defaults.bands),
            ann_bits.unwrap_or(defaults.bits),
            ann_probes.unwrap_or(defaults.probes),
        );
    } else if let Some(k) = flags.get("k") {
        builder = builder.k(k.parse().map_err(|e| format!("--k: {e}"))?);
    } else if let Some(d) = flags.get("density") {
        builder = builder.density(d.parse().map_err(|e| format!("--density: {e}"))?);
    }
    if let Some(n) = flags.get("bp-iters") {
        builder = builder.bp_iters(n.parse().map_err(|e| format!("--bp-iters: {e}"))?);
    }
    if let Some(dim) = flags.get("dim") {
        builder = builder.embedding_dim(dim.parse().map_err(|e| format!("--dim: {e}"))?);
    }
    if let Some(levels) = flags.get("multilevel") {
        builder = builder.multilevel(levels.parse().map_err(|e| format!("--multilevel: {e}"))?);
    }
    if let Some(a) = flags.get("subspace-anchors") {
        builder =
            builder.subspace_anchors(a.parse().map_err(|e| format!("--subspace-anchors: {e}"))?);
    }
    if let Some(n) = flags.get("subspace-iters") {
        builder =
            builder.subspace_iterations(n.parse().map_err(|e| format!("--subspace-iters: {e}"))?);
    }
    if let Some(eps) = flags.get("sinkhorn-epsilon") {
        builder = builder.sinkhorn_epsilon(
            eps.parse()
                .map_err(|e| format!("--sinkhorn-epsilon: {e}"))?,
        );
    }
    builder.build().map_err(|e| e.to_string())
}

fn cmd_align(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags("align", flags, ALIGN_FLAGS)?;
    let method = flags.get("method").map(|s| s.as_str()).unwrap_or("cualign");
    check_method_flags(method, flags)?;
    let a = load(require(flags, "graph-a")?)?;
    let b = load(require(flags, "graph-b")?)?;
    let cfg = config_from_flags(flags)?;

    let (mapping, label) = match method {
        "cualign" => {
            let r = Aligner::new(cfg).align(&a, &b).map_err(|e| e.to_string())?;
            eprintln!(
                "cuAlign: NCV-GS3 = {:.4}, conserved = {}/{} edges, best BP iteration = {}",
                r.scores.ncv_gs3,
                r.scores.conserved_edges,
                a.num_edges(),
                r.bp.best_iteration
            );
            (r.mapping, "cualign")
        }
        "cone" => {
            let r = cone_align(&a, &b, &cfg).map_err(|e| e.to_string())?;
            eprintln!(
                "cone-align: NCV-GS3 = {:.4}, conserved = {}/{} edges",
                r.scores.ncv_gs3,
                r.scores.conserved_edges,
                a.num_edges()
            );
            (r.mapping, "cone")
        }
        "isorank" => {
            let r = isorank_align(&a, &b, &IsoRankConfig::default()).map_err(|e| e.to_string())?;
            eprintln!(
                "IsoRank: NCV-GS3 = {:.4}, conserved = {}/{} edges",
                r.scores.ncv_gs3,
                r.scores.conserved_edges,
                a.num_edges()
            );
            (r.mapping, "isorank")
        }
        other => return Err(format!("unknown --method '{other}'")),
    };

    let mut out: Box<dyn Write> = match flags.get("output") {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout()),
    };
    writeln!(out, "# method: {label}").map_err(|e| e.to_string())?;
    for (u, v) in mapping
        .iter()
        .enumerate()
        .filter_map(|(u, m)| m.map(|v| (u, v)))
    {
        writeln!(out, "{u}\t{v}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags("stats", flags, STATS_FLAGS)?;
    let g = load(require(flags, "graph")?)?;
    let ds = stats::degree_stats(&g);
    println!("vertices:   {}", g.num_vertices());
    println!("edges:      {}", g.num_edges());
    println!(
        "degree:     min {} / mean {:.2} / max {} (σ {:.2})",
        ds.min, ds.mean, ds.max, ds.std_dev
    );
    println!("clustering: {:.4}", stats::global_clustering(&g));
    println!("components: {}", stats::connected_components(&g));
    Ok(())
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    check_flags("generate", flags, GENERATE_FLAGS)?;
    let (g, note) = generate(flags)?;
    let path = require(flags, "output")?;
    io::save_edge_list(&g, path).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "wrote {} ({} vertices, {} edges)",
        path,
        g.num_vertices(),
        g.num_edges()
    );
    if let Some(note) = note {
        eprintln!("{note}");
    }
    Ok(())
}

/// Builds the graph `generate` writes, with a `note:` line when the
/// written edge count differs from an explicit `--edges`. The BA and WS
/// models round their per-vertex degree `k` down from `--edges`; `k`
/// stays as is so that earlier generated inputs remain reproducible.
fn generate(flags: &HashMap<String, String>) -> Result<(CsrGraph, Option<String>), String> {
    use cualign_graph::generators::*;
    let model = require(flags, "model")?;
    let n: usize = require(flags, "vertices")?
        .parse()
        .map_err(|e| format!("--vertices: {e}"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    let mut rng = Rng::new(seed);
    let m: usize = flags
        .get("edges")
        .map(|s| s.parse().map_err(|e| format!("--edges: {e}")))
        .transpose()?
        .unwrap_or(3 * n);
    // Each model's preconditions, checked here so a degenerate size is
    // an error message rather than a generator panic.
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    let need = |ok: bool, why: String| {
        if ok {
            Ok(())
        } else {
            Err(format!("--model {model}: {why}"))
        }
    };
    let fits = || {
        need(
            m <= max_m,
            format!("--edges {m} exceeds the {max_m} vertex pairs of {n} vertices"),
        )
    };
    // The per-vertex degree the model derives from `--edges`, if any.
    let mut k_used = None;
    let g = match model {
        "er" => {
            fits()?;
            erdos_renyi_gnm(n, m, &mut rng)
        }
        "ba" => {
            need(n > 0, "needs --vertices ≥ 1".into())?;
            let k = (m / n).max(1);
            need(
                n > k,
                format!("attaches {k} edges per vertex, so needs more than {k} vertices"),
            )?;
            k_used = Some(format!("attaches k = {k} edges per vertex"));
            barabasi_albert(n, k, &mut rng)
        }
        "ws" => {
            need(n > 0, "needs --vertices ≥ 1".into())?;
            let k = ((2 * m / n).max(2) / 2) * 2;
            need(
                n > k,
                format!("has lattice degree {k}, so needs more than {k} vertices"),
            )?;
            k_used = Some(format!("has lattice degree k = {k}"));
            watts_strogatz(n, k, 0.1, &mut rng)
        }
        "dd" => {
            need(n >= 2, "needs --vertices ≥ 2".into())?;
            fits()?;
            with_edge_budget(&duplication_divergence(n, 0.4, 0.28, &mut rng), m, &mut rng)
        }
        "powerlaw" => {
            need(n >= 2, "needs --vertices ≥ 2".into())?;
            powerlaw_configuration(n, m, 2.5, &mut rng)
        }
        other => return Err(format!("unknown --model '{other}'")),
    };
    let note = (flags.contains_key("edges") && g.num_edges() != m).then(|| {
        let why = k_used.map_or(String::new(), |k| format!(" (--model {model} {k})"));
        format!(
            "note: --edges {m} requested, {} edges written{why}",
            g.num_edges()
        )
    });
    Ok((g, note))
}

#[cfg(test)]
mod tests {
    use super::{cmd_align, cmd_generate, cmd_stats, config_from_flags, generate, parse_flags};
    use cualign::SparsityChoice;
    use std::collections::HashMap;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn degenerate_generate_sizes_are_clean_errors() {
        let out = std::env::temp_dir().join("cualign-degenerate-generate.txt");
        let out = out.to_str().unwrap();
        for (model, vertices, edges) in [
            ("ba", "0", None),
            ("ws", "0", None),
            ("ba", "2", Some("10")),
            ("er", "5", Some("100")),
            ("powerlaw", "0", None),
            ("dd", "0", None),
            ("dd", "1", None),
        ] {
            let mut args = v(&["--model", model, "--vertices", vertices, "--output", out]);
            if let Some(m) = edges {
                args.extend(v(&["--edges", m]));
            }
            let err = cmd_generate(&parse_flags(&args).unwrap()).unwrap_err();
            assert!(
                err.starts_with(&format!("--model {model}: ")),
                "{model} n={vertices}: {err}"
            );
        }
        assert!(
            !std::path::Path::new(out).exists(),
            "an invalid size wrote a graph"
        );
    }

    #[test]
    fn generate_notes_an_edge_shortfall() {
        let run = |model: &str, edges: Option<&str>| {
            let mut args = v(&["--model", model, "--vertices", "400"]);
            if let Some(m) = edges {
                args.extend(v(&["--edges", m]));
            }
            let (g, note) = generate(&parse_flags(&args).unwrap()).unwrap();
            (g.num_edges(), note)
        };
        // BA attaches ⌊1590 / 400⌋ = 3 edges per vertex.
        let (m, note) = run("ba", Some("1590"));
        assert_eq!(m, 1194);
        assert_eq!(
            note.as_deref(),
            Some("note: --edges 1590 requested, 1194 edges written (--model ba attaches k = 3 edges per vertex)")
        );
        let (m, note) = run("ws", Some("1590"));
        assert_eq!(m, 1200);
        let note = note.expect("WS rounds its lattice degree");
        assert!(
            note.contains("lattice degree k = 6") && note.contains("1200 edges"),
            "{note}"
        );
        // Exact edge counts, and the implicit default, say nothing.
        assert_eq!(run("er", Some("1590")), (1590, None));
        assert_eq!(run("ba", None).1, None);
    }

    #[test]
    fn empty_graph_is_a_clean_error_for_every_method() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let empty = dir.join(format!("cualign-empty-{tag}.txt"));
        let edge = dir.join(format!("cualign-edge-{tag}.txt"));
        std::fs::write(&empty, "").unwrap();
        std::fs::write(&edge, "0 1\n").unwrap();
        for method in ["cualign", "cone", "isorank"] {
            let args = v(&[
                "--graph-a",
                empty.to_str().unwrap(),
                "--graph-b",
                edge.to_str().unwrap(),
                "--method",
                method,
            ]);
            let err = cmd_align(&parse_flags(&args).unwrap()).unwrap_err();
            assert_eq!(err, "input graph A has no vertices", "--method {method}");
        }
        std::fs::remove_file(empty).unwrap();
        std::fs::remove_file(edge).unwrap();
    }

    #[test]
    fn flags_route_through_validating_builder() {
        let f = parse_flags(&v(&["--density", "0.05", "--bp-iters", "12"])).unwrap();
        let cfg = config_from_flags(&f).unwrap();
        assert_eq!(cfg.sparsity, SparsityChoice::Density(0.05));
        assert_eq!(cfg.bp.max_iters, 12);
    }

    #[test]
    fn out_of_range_density_is_a_clean_error() {
        let f = parse_flags(&v(&["--density", "3.0"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert!(err.contains("sparsity.density"), "{err}");
        let f = parse_flags(&v(&["--dim", "0"])).unwrap();
        assert!(config_from_flags(&f).is_err());
        let f = parse_flags(&v(&["--bp-iters", "0"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert!(err.contains("bp.max_iters"), "{err}");
    }

    #[test]
    fn subspace_flags_route_through_builder() {
        let f = parse_flags(&v(&[
            "--subspace-anchors",
            "512",
            "--subspace-iters",
            "5",
            "--sinkhorn-epsilon",
            "0.08",
        ]))
        .unwrap();
        let cfg = config_from_flags(&f).unwrap();
        assert_eq!(cfg.subspace.anchors, 512);
        assert_eq!(cfg.subspace.iterations, 5);
        assert_eq!(cfg.subspace.sinkhorn.epsilon, 0.08);
    }

    #[test]
    fn bad_subspace_flags_are_clean_errors() {
        let f = parse_flags(&v(&["--sinkhorn-epsilon", "0"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert!(err.contains("subspace.sinkhorn.epsilon"), "{err}");
        let f = parse_flags(&v(&["--subspace-iters", "0"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert!(err.contains("subspace.iterations"), "{err}");
    }

    #[test]
    fn multilevel_flag_routes_through_builder() {
        let f = parse_flags(&v(&["--multilevel", "3"])).unwrap();
        let cfg = config_from_flags(&f).unwrap();
        assert_eq!(cfg.multilevel.unwrap().levels, 3);
        let f = parse_flags(&v(&["--multilevel", "0"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert!(err.contains("multilevel.levels"), "{err}");
    }

    #[test]
    fn ann_flags_switch_the_sparsifier() {
        let f = parse_flags(&v(&["--ann-bands", "16", "--ann-bits", "10", "--k", "6"])).unwrap();
        let cfg = config_from_flags(&f).unwrap();
        assert!(matches!(
            cfg.sparsity,
            SparsityChoice::Ann {
                k: 6,
                bands: 16,
                bits: 10,
                probes: 2
            }
        ));
        // Partial knobs fill in defaults; any ann flag alone suffices.
        let f = parse_flags(&v(&["--ann-probes", "3"])).unwrap();
        let cfg = config_from_flags(&f).unwrap();
        assert!(matches!(
            cfg.sparsity,
            SparsityChoice::Ann { probes: 3, .. }
        ));
        // Conflicting with density is a clean error; bad values surface
        // the builder's validation.
        let f = parse_flags(&v(&["--ann-bits", "8", "--density", "0.05"])).unwrap();
        assert!(config_from_flags(&f).unwrap_err().contains("--density"));
        let f = parse_flags(&v(&["--ann-bits", "40"])).unwrap();
        assert!(config_from_flags(&f)
            .unwrap_err()
            .contains("sparsity.ann.bits"));
    }

    #[test]
    fn each_command_rejects_flags_it_does_not_take() {
        type Cmd = fn(&HashMap<String, String>) -> Result<(), String>;
        let err = |cmd: Cmd, args: &[&str]| cmd(&parse_flags(&v(args)).unwrap()).unwrap_err();
        assert_eq!(
            err(cmd_align, &["--graph-a", "a.txt", "--bp-iter", "3"]),
            "unknown flag --bp-iter for 'align'"
        );
        assert_eq!(
            err(cmd_align, &["--dimm", "8", "--density", "0.05"]),
            "unknown flag --dimm for 'align'"
        );
        // A flag of another command is unknown too.
        assert_eq!(
            err(cmd_stats, &["--graph", "g.txt", "--k", "4"]),
            "unknown flag --k for 'stats'"
        );
        assert_eq!(
            err(cmd_generate, &["--model", "er", "--vertex", "10"]),
            "unknown flag --vertex for 'generate'"
        );
    }

    #[test]
    fn each_method_rejects_flags_it_ignores() {
        let err = |extra: &[&str]| {
            let mut args = v(&["--graph-a", "missing-a.txt", "--graph-b", "missing-b.txt"]);
            args.extend(v(extra));
            cmd_align(&parse_flags(&args).unwrap()).unwrap_err()
        };
        let isorank = ["--method", "isorank", "--density", "0.9", "--bp-iters", "1"];
        assert_eq!(err(&isorank), "--method isorank does not use --bp-iters");
        assert_eq!(
            err(&["--method", "isorank", "--k", "6"]),
            "--method isorank does not use --k"
        );
        assert_eq!(
            err(&["--method", "isorank", "--sinkhorn-epsilon", "0.1"]),
            "--method isorank does not use --sinkhorn-epsilon"
        );
        assert_eq!(
            err(&["--method", "cone", "--multilevel", "3", "--bp-iters", "1"]),
            "--method cone does not use --bp-iters"
        );
        assert_eq!(
            err(&["--method", "cone", "--multilevel", "2"]),
            "--method cone does not use --multilevel"
        );
        // A flag the method reads passes: the run gets as far as
        // loading the graphs.
        for extra in [
            &["--method", "cone", "--density", "0.5", "--dim", "4"][..],
            &["--method", "isorank", "--output", "map.tsv"],
            &["--bp-iters", "3", "--multilevel", "2"],
        ] {
            let e = err(extra);
            assert!(e.starts_with("missing-a.txt: "), "{extra:?}: {e}");
        }
    }

    #[test]
    fn k_conflicts_with_density() {
        let f = parse_flags(&v(&["--k", "6", "--density", "0.5"])).unwrap();
        let err = config_from_flags(&f).unwrap_err();
        assert_eq!(err, "--k conflicts with --density (pick one sparsifier)");
        // With an --ann-* flag, --k is the ANN neighbor count and
        // --density still conflicts.
        let f = parse_flags(&v(&["--ann-bits", "8", "--k", "6", "--density", "0.5"])).unwrap();
        assert!(config_from_flags(&f).is_err());
    }

    #[test]
    fn parses_flag_pairs() {
        let f = parse_flags(&v(&["--graph-a", "a.txt", "--k", "10"])).unwrap();
        assert_eq!(f.get("graph-a").unwrap(), "a.txt");
        assert_eq!(f.get("k").unwrap(), "10");
    }

    #[test]
    fn rejects_positional_garbage() {
        assert!(parse_flags(&v(&["oops"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse_flags(&v(&["--k"])).is_err());
    }

    #[test]
    fn empty_is_fine() {
        assert!(parse_flags(&[]).unwrap().is_empty());
    }
}
