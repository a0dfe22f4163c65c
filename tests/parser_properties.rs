//! Property tests of the surface-syntax front end: `parse_source` and
//! `parse_program` over arbitrary bytes and over byte-mutated corpus files
//! must never panic. Each input ends in exactly one of two ways — a parsed
//! program or a typed `ParseError` — and every error renders as a caret
//! diagnostic against the text it came from.
//!
//! Deterministic in CI like `tests/properties.rs`: the vendored proptest
//! runner has a fixed seed; `PROPTEST_CASES` / `PROPTEST_RNG_SEED` override
//! case count and stream.

use gdlog_parser::{parse_program, parse_source};
use proptest::prelude::*;
use std::path::Path;

/// Feed `bytes` (lossily decoded, as a file reader would) through both entry
/// points and render whatever error comes back.
fn front_end(bytes: &[u8]) -> Result<(), TestCaseError> {
    let source = String::from_utf8_lossy(bytes);
    if let Err(e) = parse_source(&source) {
        prop_assert!(!e.render("<input>", &source).is_empty());
    }
    if let Err(e) = parse_program(&source) {
        prop_assert!(!e.render("<input>", &source).is_empty());
    }
    Ok(())
}

/// Every `.gdl` file of the scenario corpus, including the `bad/` ones.
fn corpus() -> Vec<Vec<u8>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files = Vec::new();
    for dir in [root.clone(), root.join("bad")] {
        for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "gdl") {
                files.push(std::fs::read(&path).expect("readable corpus file"));
            }
        }
    }
    files.sort();
    assert!(files.len() >= 10, "corpus too small: {}", files.len());
    files
}

/// Apply `edits` to `file`: each `(at, op, byte)` replaces, inserts or
/// deletes one byte at `at` (taken modulo the current length).
fn mutate(file: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = file.to_vec();
    for &(at, op, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.push(byte),
        }
    }
    bytes
}

/// The bytes the grammar is made of, for edits to corpus files.
const ALPHABET: &[u8] = b"AaXx_019 \n\t().,<>[]-!#\"%:/~=";

/// Whole tokens of the grammar, so near-miss programs get past the lexer and
/// reach every state of the parser, including end of input mid-statement.
const TOKENS: &[&str] = &[
    "P",
    "Coin",
    "x",
    "y",
    "_",
    "0",
    "1",
    "-1",
    "0.5",
    "\"s\"",
    "#a",
    "(",
    ")",
    ",",
    ".",
    "->",
    "not",
    "!",
    "false",
    "Flip",
    "Geometric",
    "<",
    ">",
    "[",
    "]",
    " ",
    "\n",
    "% c\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: any byte soup parses or yields a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        front_end(&bytes)?;
    }

    /// Near-miss programs: random sequences of the grammar's own tokens.
    #[test]
    fn almost_valid_programs_never_panic(
        tokens in proptest::collection::vec(proptest::sample::select(TOKENS.to_vec()), 0..64),
    ) {
        front_end(tokens.concat().as_bytes())?;
    }

    /// Corpus files with a few bytes replaced, inserted or deleted: mostly
    /// valid programs, broken at arbitrary points of their structure. Edit
    /// bytes come from the grammar's alphabet half of the time, and from any
    /// byte value (including UTF-8 fragments) otherwise.
    #[test]
    fn mutated_corpus_files_never_panic(
        file in any::<usize>(),
        edits in proptest::collection::vec(
            (any::<usize>(), any::<u8>(), any::<u8>(), any::<bool>()),
            1..8,
        ),
    ) {
        let corpus = corpus();
        let edits: Vec<(usize, u8, u8)> = edits
            .into_iter()
            .map(|(at, op, byte, grammar)| {
                let byte = if grammar { ALPHABET[byte as usize % ALPHABET.len()] } else { byte };
                (at, op, byte)
            })
            .collect();
        front_end(&mutate(&corpus[file % corpus.len()], &edits))?;
    }
}

/// Every corpus file parses as it stands (the mutation baseline), and so does
/// every prefix of it cut at a byte boundary — the truncations a partial read
/// or an editor buffer produces — with and without a final newline, which
/// moves an end-of-input error past the last line.
#[test]
fn corpus_files_and_their_prefixes_never_panic() {
    for file in corpus() {
        for end in 0..=file.len() {
            front_end(&file[..end]).unwrap();
            front_end(&[&file[..end], b"\n"].concat()).unwrap();
        }
    }
}
