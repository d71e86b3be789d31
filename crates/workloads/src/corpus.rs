//! The banked regression corpus: kernels minted by `penny-fuzz`,
//! committed under `corpus/`, and re-verified by the replay gate.
//!
//! Each corpus file is a complete, self-describing workload. Metadata
//! rides in `#`-prefixed lines (which the `penny-ir` parser strips as
//! comments, so the *whole file* is also valid kernel assembly),
//! followed by the kernel text. The first line is a digest
//! ([`penny_sim::persist::digest`], 16 lowercase hex digits) of every
//! byte after it, so a damaged file is a [`CorpusError`], never a
//! different workload:
//!
//! ```text
//! # digest: 3f09a1c2d4e5b687
//! # abbr: fzs-00c0ffee42
//! # name: fuzz sparse sparse;ops=0,6;nnz=4;topo=0x1234
//! # family: sparse
//! # spec: sparse;ops=0,6;nnz=4;topo=0x1234
//! # dims: 2x32
//! # params: 0x1000 0x2000 0x3000 0x4000 0x5000
//! # mem: 0x1000 0 3 5 ...
//! # golden: 0x1000=3 0x1004=5 ...
//! .kernel csrgen .params RP CI XV Y H
//! ...
//! ```
//!
//! The loader and renderer live side by side so the format cannot
//! drift: [`CorpusEntry::render`] and [`CorpusEntry::parse`] are exact
//! inverses for well-formed entries.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use penny_core::LaunchDims;
use penny_sim::gen::MemImage;
use penny_sim::persist::digest;

use crate::{Setup, Source, Suite, Verify, Workload};

/// The first line of every corpus file, before the body's digest.
const DIGEST_PREFIX: &str = "# digest: ";

/// Why a corpus file did not load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The file does not open with a `# digest:` line.
    MissingDigest,
    /// The bytes after the `# digest:` line do not match it: the file
    /// was damaged.
    Corrupt,
    /// A metadata line is malformed, or a required one is missing.
    Malformed(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::MissingDigest => write!(f, "missing `# digest:` first line"),
            CorpusError::Corrupt => write!(f, "file does not match its `# digest:` line"),
            CorpusError::Malformed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CorpusError {}

/// A parsed (or to-be-rendered) corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Workload abbreviation (the generated kernel name, e.g.
    /// `fzs-00c0ffee42`).
    pub abbr: String,
    /// Human-readable name.
    pub name: String,
    /// Generator family tag (`dense` / `sparse`).
    pub family: String,
    /// The generator spec line, if the kernel was minted by
    /// `penny-fuzz` (re-parseable by `penny_sim::gen::KernelSpec`).
    pub spec: Option<String>,
    /// Launch geometry.
    pub dims: LaunchDims,
    /// Input image and parameter words.
    pub image: MemImage,
    /// Golden output: sorted nonzero user-space words after a
    /// fault-free run (see [`crate::user_words`]).
    pub golden: Vec<(u32, u32)>,
    /// Kernel assembly text.
    pub asm: String,
}

impl CorpusEntry {
    /// Renders the committed file form: the digest line, then the body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# abbr: {}\n", self.abbr));
        out.push_str(&format!("# name: {}\n", self.name));
        out.push_str(&format!("# family: {}\n", self.family));
        if let Some(spec) = &self.spec {
            out.push_str(&format!("# spec: {spec}\n"));
        }
        out.push_str(&format!("# dims: {}x{}\n", self.dims.grid.0, self.dims.block.0));
        let params: Vec<String> =
            self.image.params.iter().map(|p| format!("{p:#x}")).collect();
        out.push_str(&format!("# params: {}\n", params.join(" ")));
        for (base, words) in &self.image.writes {
            let ws: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            out.push_str(&format!("# mem: {base:#x} {}\n", ws.join(" ")));
        }
        let gs: Vec<String> =
            self.golden.iter().map(|(a, v)| format!("{a:#x}={v}")).collect();
        out.push_str(&format!("# golden: {}\n", gs.join(" ")));
        out.push('\n');
        out.push_str(self.asm.trim_start());
        if !out.ends_with('\n') {
            out.push('\n');
        }
        format!("{DIGEST_PREFIX}{:016x}\n{out}", digest(out.as_bytes()))
    }

    /// Parses a corpus file, checking its digest before anything else.
    ///
    /// # Errors
    ///
    /// [`CorpusError::MissingDigest`] or [`CorpusError::Corrupt`] for a
    /// file whose digest line is absent or does not match, else
    /// [`CorpusError::Malformed`] naming the first malformed or missing
    /// metadata line.
    pub fn parse(text: &str) -> Result<CorpusEntry, CorpusError> {
        let (sum, body) = text
            .strip_prefix(DIGEST_PREFIX)
            .and_then(|rest| rest.split_once('\n'))
            .ok_or(CorpusError::MissingDigest)?;
        if sum != format!("{:016x}", digest(body.as_bytes())) {
            return Err(CorpusError::Corrupt);
        }
        Self::parse_body(body).map_err(CorpusError::Malformed)
    }

    fn parse_body(text: &str) -> Result<CorpusEntry, String> {
        let mut abbr = None;
        let mut name = None;
        let mut family = None;
        let mut spec = None;
        let mut dims = None;
        let mut params: Option<Vec<u32>> = None;
        let mut writes: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut golden: Vec<(u32, u32)> = Vec::new();
        let mut asm = String::new();
        for line in text.lines() {
            let meta = line.trim().strip_prefix('#').and_then(|m| m.split_once(':'));
            let Some((key, val)) = meta else {
                // Not a metadata line: part of the kernel text.
                asm.push_str(line);
                asm.push('\n');
                continue;
            };
            let is_meta = matches!(
                key.trim(),
                "abbr" | "name" | "family" | "spec" | "dims" | "params" | "mem" | "golden"
            );
            if !is_meta {
                // Ordinary comment that happens to contain a colon.
                asm.push_str(line);
                asm.push('\n');
                continue;
            }
            let val = val.trim();
            match key.trim() {
                "abbr" => abbr = Some(val.to_string()),
                "name" => name = Some(val.to_string()),
                "family" => family = Some(val.to_string()),
                "spec" => spec = Some(val.to_string()),
                "dims" => {
                    let (g, b) = val.split_once('x').ok_or("dims must be GxB")?;
                    dims = Some(LaunchDims::linear(
                        g.trim().parse().map_err(|e| format!("dims grid: {e}"))?,
                        b.trim().parse().map_err(|e| format!("dims block: {e}"))?,
                    ));
                }
                "params" => {
                    params = Some(
                        val.split_whitespace().map(parse_word).collect::<Result<_, _>>()?,
                    );
                }
                "mem" => {
                    let mut it = val.split_whitespace();
                    let base = parse_word(it.next().ok_or("mem: missing base")?)?;
                    let words: Vec<u32> = it.map(parse_word).collect::<Result<_, _>>()?;
                    writes.push((base, words));
                }
                "golden" => {
                    for pair in val.split_whitespace() {
                        let (a, v) = pair.split_once('=').ok_or("golden: want a=v")?;
                        golden.push((parse_word(a)?, parse_word(v)?));
                    }
                }
                _ => {} // ordinary comment
            }
        }
        golden.sort_unstable();
        Ok(CorpusEntry {
            abbr: abbr.ok_or("missing `# abbr:` line")?,
            name: name.ok_or("missing `# name:` line")?,
            family: family.unwrap_or_else(|| "unknown".into()),
            spec,
            dims: dims.ok_or("missing `# dims:` line")?,
            image: MemImage { writes, params: params.ok_or("missing `# params:` line")? },
            golden,
            asm,
        })
    }

    /// Converts the entry into a registry [`Workload`].
    ///
    /// Corpus names are leaked to `&'static str` — entries live for
    /// the process (the default-directory corpus is loaded once and
    /// cached).
    pub fn into_workload(self) -> Workload {
        Workload {
            name: Box::leak(self.name.into_boxed_str()),
            abbr: Box::leak(self.abbr.into_boxed_str()),
            suite: Suite::Corpus,
            dims: self.dims,
            source: Source::Text(Arc::from(self.asm.as_str())),
            setup: Setup::Image(Arc::new(self.image)),
            verify: Verify::Golden(Arc::new(self.golden)),
        }
    }
}

/// Parses decimal or `0x`-prefixed hex.
fn parse_word(s: &str) -> Result<u32, String> {
    if let Some(h) = s.strip_prefix("0x") {
        u32::from_str_radix(h, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad word `{s}`: {e}"))
    }
}

/// The repository's default corpus directory (`corpus/` at the
/// workspace root).
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Loads every `*.pir` corpus entry under `dir`, sorted by file name
/// for a stable registry order.
///
/// # Errors
///
/// Reports the first unreadable or malformed file. A missing directory
/// is an empty corpus, not an error.
pub fn load_dir(dir: &Path) -> Result<Vec<Workload>, String> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pir"))
            .collect(),
        Err(_) => return Ok(Vec::new()),
    };
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let entry =
            CorpusEntry::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(entry.into_workload());
    }
    Ok(out)
}

/// The default-directory corpus, loaded once per process.
///
/// # Panics
///
/// Panics on a malformed committed corpus file — that is a repository
/// bug the replay gate exists to catch.
pub fn corpus() -> &'static [Workload] {
    static CORPUS: OnceLock<Vec<Workload>> = OnceLock::new();
    CORPUS.get_or_init(|| load_dir(&default_dir()).expect("committed corpus must parse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusEntry {
        CorpusEntry {
            abbr: "fzs-0011223344".into(),
            name: "fuzz sparse sample".into(),
            family: "sparse".into(),
            spec: Some("sparse;ops=0,6;nnz=4;topo=0x1234".into()),
            dims: LaunchDims::linear(2, 32),
            image: MemImage {
                writes: vec![(0x1000, vec![0, 1, 3]), (0x2000, vec![7])],
                params: vec![0x1000, 0x2000],
            },
            golden: vec![(0x1000, 9), (0x1004, 2)],
            asm: ".kernel k .params A B\nentry:\n    ret\n".into(),
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let e = sample();
        let text = e.render();
        let back = CorpusEntry::parse(&text).expect("parse");
        assert_eq!(back.abbr, e.abbr);
        assert_eq!(back.name, e.name);
        assert_eq!(back.family, e.family);
        assert_eq!(back.spec, e.spec);
        assert_eq!(back.dims, e.dims);
        assert_eq!(back.image, e.image);
        assert_eq!(back.golden, e.golden);
        // The rendered file is itself valid kernel assembly.
        penny_ir::parse_kernel(&text).expect("metadata lines must parse as comments");
    }

    #[test]
    fn missing_metadata_is_reported() {
        let body = ".kernel k .params A\nentry:\n ret\n";
        assert_eq!(CorpusEntry::parse(body), Err(CorpusError::MissingDigest));
        let text = format!("{DIGEST_PREFIX}{:016x}\n{body}", digest(body.as_bytes()));
        let err = CorpusEntry::parse(&text).expect_err("must fail");
        assert!(err.to_string().contains("abbr"), "unexpected error: {err}");
    }

    #[test]
    fn a_damaged_file_fails_its_digest() {
        let text = sample().render();
        let damaged = text.replace("0x1234", "0x1235");
        assert_eq!(CorpusEntry::parse(&damaged), Err(CorpusError::Corrupt));
        let stripped = text.split_once('\n').expect("digest line").1;
        assert_eq!(CorpusEntry::parse(stripped), Err(CorpusError::MissingDigest));
    }

    #[test]
    fn default_corpus_loads() {
        for w in corpus() {
            assert_eq!(w.suite, Suite::Corpus);
            let k = w.kernel().unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
            penny_ir::validate(&k).unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
        }
    }
}
