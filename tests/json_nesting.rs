//! Nesting bombs against every decoder built on `eecs::core::jsonio`:
//! 10,000 unclosed `[` (a 10 KB input) must come back as an `Err` from
//! the parser, the checkpoint decoder and a journal whose header line
//! is the bomb — on a thread with the 2 MiB stack a pool worker gets,
//! where an unbounded recursive descent overflows and aborts.

use eecs::core::checkpoint::SimulationCheckpoint;
use eecs::core::journal::Journal;
use eecs::core::jsonio::{self, Json};
use std::path::PathBuf;

const WORKER_STACK: usize = 2 * 1024 * 1024;

fn on_small_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(test)
        .expect("spawn")
        .join()
        .expect("decoder panicked");
}

#[test]
fn nesting_bomb_is_an_error_for_every_decoder() {
    on_small_stack(|| {
        let bomb = "[".repeat(10_000);
        let err = jsonio::parse(&bomb).expect_err("parse");
        assert!(err.contains("nesting deeper"), "{err}");
        let err = SimulationCheckpoint::from_json(&bomb).expect_err("checkpoint");
        assert!(err.contains("nesting deeper"), "{err}");

        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("nesting_bomb_journal.jsonl");
        std::fs::write(&path, bomb + "\n").expect("write journal");
        let identity = Json::Obj(vec![("run".into(), Json::Str("bomb".into()))]);
        let err = Journal::open(&path, &identity, |_| Ok(())).expect_err("journal");
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    });
}
