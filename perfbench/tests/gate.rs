//! Self-test of the benchmark's contract: a tiny run of every workload
//! prints every metric `BENCHMARK.json` names, with its unit, and a wrong
//! pinned hash makes the command fail.

use mas_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const WORKLOADS: [&str; 3] = ["relax-small", "relax-large", "serve-mix"];

fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{e} in {text}"))
}

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("no key {key} in {j:?}"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    get(j, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    get(&parse(&text), section)
        .as_arr()
        .unwrap_or_else(|| panic!("{section} is not a list"))
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

/// The `mas_serve` binary, built once next to this test's benchmark.
fn mas_serve() -> &'static Path {
    static EXE: OnceLock<PathBuf> = OnceLock::new();
    EXE.get_or_init(|| {
        let target = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))
            .parent()
            .and_then(Path::parent)
            .unwrap()
            .to_path_buf();
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "mas_serve",
                "--manifest-path",
            ])
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .unwrap();
        assert!(status.success(), "building mas_serve failed");
        target.join("release").join("mas_serve")
    })
}

fn bench(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string(), "--mas-serve"])
        .arg(mas_serve())
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap()
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    parse(line)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let out = bench(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} --trace {trace}: {}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = last_line(&out);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("the result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&result, "correct"), &Json::Bool(true));
            assert_eq!(get(&result, "failed").as_u64(), Some(0));
            assert!(get(&result, "attempted").as_u64() >= Some(1));
            let metrics = get(&result, "metrics").as_obj().expect("metrics object");
            let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            got.sort_unstable();
            let mut names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            assert_eq!(got, names, "{w} --trace {trace}");
            for (name, unit) in &want {
                let m = get(get(&result, "metrics"), name);
                assert_eq!(str_of(m, "unit"), unit, "{w}: {name}");
                assert!(
                    get(m, "value").as_f64().is_some_and(f64::is_finite),
                    "{w}: {name}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_pinned_hash_fails_the_command() {
    for w in WORKLOADS {
        let out = bench(w, 0, &["--pin", "0123456789abcdef"]);
        assert!(!out.status.success(), "{w} accepted a wrong pin");
        assert_eq!(get(&last_line(&out), "correct"), &Json::Bool(false), "{w}");
    }
}
