//! Building and driving the `srs` binary: every end-to-end number is
//! measured through it (or through HTTP to `srs serve`), never through
//! the library.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Builds `srs` from the checkout at `root` and returns its path. The
/// target directory honours `CARGO_TARGET_DIR` like cargo itself does.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!("{} does not hold the srs workspace (Cargo.toml, crates/cli)", root.display()));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline", "-p", "srs-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p srs-cli failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("srs");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not produced by the build", bin.display()))
    }
}

/// Runs `srs <args>` in `dir` to completion; returns stdout and wall
/// seconds. A non-zero exit is an error carrying the program's stderr.
pub fn run(srs: &Path, dir: &Path, args: &[&str]) -> Result<(String, f64), String> {
    let start = Instant::now();
    let out = Command::new(srs)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn srs: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "srs {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), wall))
}

/// Parses a `--hits-out` file: `vertex<TAB>hit:score...` per line, into
/// `(vertex, rest-of-line)` so answers compare byte for byte.
pub fn parse_hits_file(text: &str) -> Vec<(u32, String)> {
    text.lines()
        .filter_map(|line| {
            let (v, rest) = line.split_once('\t').unwrap_or((line, ""));
            Some((v.parse().ok()?, rest.to_string()))
        })
        .collect()
}

/// Vertex ids of a hits line's rest (`v:score<TAB>v:score...`).
pub fn hit_vertices(rest: &str) -> Vec<u32> {
    rest.split('\t').filter_map(|h| h.split_once(':')?.0.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_file_round_trip() {
        let parsed = parse_hits_file("7\t3:0.5\t9:0.125\n8\n");
        assert_eq!(parsed, vec![(7, "3:0.5\t9:0.125".to_string()), (8, String::new())]);
        assert_eq!(hit_vertices(&parsed[0].1), vec![3, 9]);
        assert!(hit_vertices(&parsed[1].1).is_empty());
    }
}
