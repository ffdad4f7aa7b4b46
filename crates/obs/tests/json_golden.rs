//! The JSON reader against a golden corpus recorded from an earlier,
//! independently written reader: every input maps to the exact `Value`
//! (its `Debug` form, so `-0`, `inf` and key order all show) or the
//! exact error text, byte offsets included. The tree parser and the
//! ingest decoder share one tokenizer, so comparing them with each
//! other cannot catch a lexing bug they share; this table can.
//!
//! `json_golden.txt` holds one line per case, `{input:?} => {outcome:?}`,
//! in the order [`corpus`] lists the inputs. On a mismatch the test
//! prints the line it expected and the line it got.

use uarch_obs::json::{parse, Reader, MAX_DEPTH};

/// One `inst_to_json`-shaped ingest body holding one instruction, with
/// every field the wire writes.
const ONE_INST_BODY: &str = r#"{"session":"s","window":4,"insts":[{"pc":16384,"op":"ld","dst":"r1","srcs":["r2","f3"],"mem":4096,"taken":false,"next_pc":16388}],"done":true}"#;

/// The tokens of a document that holds every kind of value, for the
/// whitespace cases.
const TOKENS: [&str; 25] = [
    "{", "\"a\"", ":", "[", "1", ",", "true", ",", "null", ",", "\"s\\n\"", ",", "{", "\"b\"", ":",
    "-2.5e3", "}", ",", "[", "]", "]", ",", "\"c\"", ":", "false}",
];

fn corpus() -> Vec<String> {
    let mut cases: Vec<String> = [
        // Number grammar.
        "0",
        "-0",
        "01",
        "00",
        "-01",
        "1.",
        "-.5",
        ".5",
        "+1",
        "1.e3",
        "-",
        "1e",
        "1e+",
        "1e-",
        "--1",
        "1.5.3",
        "0x10",
        "1x",
        "1e3",
        "1E+2",
        "1e-2",
        "-1.5e-3",
        "123.456e-7",
        "0.5",
        "4194304.0",
        "4194304",
        "1e999",
        "-1e999",
        "1e-400",
        "2.5e-324",
        "123456789012345",
        "-123456789012345",
        "999999999999999",
        "1234567890123456",
        "9007199254740993",
        "-9007199254740993",
        "12345678901234567",
        "123456789012345678",
        "9999999999999999999",
        "9223372036854775807",
        "-9223372036854775808",
        "9007199254740995",
        "18014398509481985",
        "18446744073709551615",
        "18446744073709551616",
        "12345678901234567890",
        "99999999999999999999",
        "1234567890123456789012345",
        "[1, 01]",
        "[1,2.5,-3]",
        "[-]",
        "[1e]",
        "{\"a\":1.}",
        "[0,-0,0.0,-0.0]",
        "1 ",
        "\n1\n",
        // Literals.
        "true",
        "false",
        "null",
        "tru",
        "fals",
        "nul",
        "t",
        "True",
        "nulll",
        "truex",
        "[true,fals]",
        "[nul]",
        "{\"a\":nul}",
        // Strings and every escape.
        "\"\"",
        "\"plain\"",
        "\"h\u{e9}llo \u{1F600}\"",
        "\"\\\"\"",
        "\"\\\\\"",
        "\"\\/\"",
        "\"\\b\"",
        "\"\\f\"",
        "\"\\n\"",
        "\"\\r\"",
        "\"\\t\"",
        "\"\\u0041\"",
        "\"\\u00e9\"",
        "\"\\u00E9\"",
        "\"\\u0000\"",
        "\"\\uffff\"",
        "\"\\uD83D\\uDE00\"",
        "\"\\ud83d\\ude00\"",
        "\"a\\\"b\\\\c\\/d\\be\\ff\\ng\\rh\\ti\\u0041j\\ud83d\\ude00k\"",
        "\"\\n\\n\"",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\u12G4\"",
        "\"\\uD83D\"",
        "\"\\uD83Dx\"",
        "\"\\uD83D\\u0041\"",
        "\"\\uD83D\\n\"",
        "\"\\uDE00\"",
        "\"\\uD83D\\uD83D\"",
        "\"\\",
        "\"\\u",
        "\"\\u00",
        "\"abc\\",
        "\"abc",
        "\"",
        "\"a\"b\"",
        // Keys written with escapes.
        "{\"p\\u0063\":1}",
        "{\"\\u0070c\":1,\"pc\":2}",
        "{\"a\\nb\":null}",
        // Raw control bytes, in strings and between tokens.
        "\"a\u{1}b\"",
        "\"\u{0}\"",
        "\"\u{1f}\"",
        "\"\t\"",
        "\"\n\"",
        "\"\r\"",
        "\"\u{7f}\"",
        "\u{1}",
        "[\u{1}]",
        "1\u{1}",
        "\u{b}1",
        "\u{c}1",
        "[1,\u{0}2]",
        "{\"a\u{1}\":1}",
        // Structure.
        "",
        " ",
        "{",
        "}",
        "[",
        "]",
        "{}",
        "[]",
        "{,}",
        "[,]",
        "[1,]",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\" 1}",
        "{1:2}",
        "{a:1}",
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\":1 \"b\":2}",
        "{} {}",
        "{}}",
        "[]]",
        "{\"a\"::1}",
        "{\"a\":1,\"a\":2}",
        "{\"b\":1,\"a\":{\"c\":[]}}",
        "[[[]],[{}]]",
        "{\"a\":[1,{\"b\":null}],\"c\":\"x\\ty\",\"d\":-2.5e3}",
    ]
    .map(String::from)
    .into();
    // Whitespace: each kind, and a run of all four, between every pair
    // of tokens and around the document; then two bytes that are not
    // JSON whitespace.
    for ws in [" ", "\t", "\n", "\r", "\r\n \t", "\u{a0}", "\u{b}"] {
        cases.push(format!("{ws}{}{ws}", TOKENS.join(ws)));
    }
    // Truncation at every byte, and the whole body.
    for end in 0..=ONE_INST_BODY.len() {
        cases.push(ONE_INST_BODY[..end].to_string());
    }
    // Nesting at the bound and one level past it.
    for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
        cases.push("[".repeat(depth) + &"]".repeat(depth));
        cases.push("{\"k\":".repeat(depth - 1) + "[1]" + &"}".repeat(depth - 1));
        cases.push("[".repeat(depth));
    }
    cases
}

#[test]
fn reader_matches_the_golden_corpus() {
    let golden: Vec<&str> = include_str!("json_golden.txt").lines().collect();
    let cases = corpus();
    assert_eq!(golden.len(), cases.len(), "one golden line per case");
    for (input, want) in cases.iter().zip(golden) {
        let parsed = parse(input);
        let got = format!("{input:?} => {parsed:?}");
        assert_eq!(got, want, "tree parse");
        let mut r = Reader::new(input);
        let skipped = r.skip().and_then(|()| r.finish());
        assert_eq!(skipped, parsed.map(drop), "skip of {input:?}");
    }
}
