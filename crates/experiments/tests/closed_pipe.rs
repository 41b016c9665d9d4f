//! `repro` run with a reader that has already gone away (`repro … | head`
//! once `head` has what it wanted): every command ends quietly, with
//! status 0 and nothing on stderr.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn every_command_stops_quietly_when_its_reader_is_gone() {
    let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/trace_repair_mini_seed42.jsonl");
    let trace = trace.to_str().unwrap();
    for args in [
        &["trace-summary", trace, "--format", "json"][..],
        &["trace-summary", trace][..],
        &["--help"][..],
        &["table4", "--scale", "small"][..],
    ] {
        // The read end is closed before `repro` starts, so its first write
        // to stdout fails.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr, "", "repro {args:?}");
        assert_eq!(output.status.code(), Some(0), "repro {args:?}");
    }
}
