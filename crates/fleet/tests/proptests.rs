//! Property tests for the replication stream: under arbitrary chunking
//! a clean stream replays identically; dropped, reordered, or bit-flipped
//! frames are always classified (gap vs corruption, with a byte offset)
//! and never applied; and a follower fed a clean stream converges to a
//! byte-identical journal and an equal state fingerprint.

use std::path::Path;
use std::sync::Arc;

use ada_fleet::{ReplStream, ReplicaEngine, StreamFault};
use ada_kdb::journal::{crc32, Op};
use ada_kdb::{Document, MemStorage, SharedKdb, StoreOptions, Value};
use ada_obs::ReplMetrics;
use proptest::prelude::*;

/// Encodes one journal frame exactly as the primary ships it.
fn frame(seq: u64, op: &Op) -> Vec<u8> {
    let mut payload = String::new();
    op.encode_into(&mut payload);
    let body = payload.as_bytes();
    let mut out = format!("R{}:{}:{:08x}:", body.len(), seq, crc32(body)).into_bytes();
    out.extend_from_slice(body);
    out
}

fn stream_bytes(ops: &[Op]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut starts = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        starts.push(bytes.len());
        bytes.extend_from_slice(&frame(i as u64, op));
    }
    (bytes, starts)
}

/// Drains every op the stream can currently yield.
fn drain(stream: &mut ReplStream) -> Result<Vec<Op>, StreamFault> {
    let mut out = Vec::new();
    loop {
        match stream.next_op() {
            Ok(Some(op)) => out.push(op),
            Ok(None) => return Ok(out),
            Err(fault) => return Err(fault),
        }
    }
}

fn doc_strategy() -> impl Strategy<Value = Document> {
    (-50i64..5000, "[a-z0-9 ]{0,12}", any::<bool>()).prop_map(|(n, s, b)| {
        Document::new()
            .with("n", n)
            .with("s", Value::Str(s))
            .with("flag", b)
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let name = "[a-z]{1,8}";
    prop_oneof![
        name.prop_map(|name| Op::CreateCollection { name }),
        ("[a-z]{1,8}", "[a-z.]{1,8}").prop_map(|(name, path)| Op::CreateIndex { name, path }),
        ("[a-z]{1,8}", any::<u16>(), doc_strategy()).prop_map(|(name, id, doc)| Op::Insert {
            name,
            id: u64::from(id),
            doc,
        }),
        ("[a-z]{1,8}", any::<u16>(), doc_strategy()).prop_map(|(name, id, doc)| Op::Update {
            name,
            id: u64::from(id),
            doc,
        }),
        ("[a-z]{1,8}", any::<u16>()).prop_map(|(name, id)| Op::Delete {
            name,
            id: u64::from(id),
        }),
    ]
}

proptest! {
    // However the transport chunks a clean stream — including torn
    // mid-frame at every boundary — the decoded op sequence is the
    // shipped one, in order, with no fault.
    #[test]
    fn clean_stream_decodes_identically_under_any_chunking(
        ops in prop::collection::vec(op_strategy(), 1..24),
        chunks in prop::collection::vec(1usize..23, 1..64),
    ) {
        let (bytes, _) = stream_bytes(&ops);
        let mut stream = ReplStream::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cuts = chunks.into_iter();
        while pos < bytes.len() {
            let len = cuts.next().unwrap_or(usize::MAX).min(bytes.len() - pos);
            stream.push(&bytes[pos..pos + len]);
            pos += len;
            got.extend(drain(&mut stream).expect("clean stream must not fault"));
        }
        prop_assert_eq!(got, ops);
        prop_assert_eq!(stream.buffered(), 0);
        prop_assert!(stream.fault().is_none());
    }

    // A dropped frame is a gap, classified with the exact sequence
    // numbers and the byte offset where the stream diverged; everything
    // before it applies, nothing after it ever does.
    #[test]
    fn dropped_frame_is_a_sticky_classified_gap(
        ops in prop::collection::vec(op_strategy(), 2..24),
        drop_idx in any::<usize>(),
    ) {
        // Drop any frame but the last (dropping the last is just a
        // shorter clean stream — nothing to detect until more arrives).
        let k = drop_idx % (ops.len() - 1);
        let mut bytes = Vec::new();
        let mut offset = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i == k {
                offset = bytes.len() as u64;
                continue;
            }
            bytes.extend_from_slice(&frame(i as u64, op));
        }
        let mut stream = ReplStream::new();
        stream.push(&bytes);
        let fault = drain(&mut stream).expect_err("the gap must surface");
        prop_assert_eq!(&fault, &StreamFault::Gap {
            stored: k as u64 + 1,
            expected: k as u64,
            offset,
        });
        // Sticky: the fault repeats, and later pushes change nothing.
        prop_assert_eq!(stream.next_op().unwrap_err(), fault.clone());
        stream.push(&frame(k as u64, &ops[k]));
        prop_assert_eq!(stream.next_op().unwrap_err(), fault);
    }

    // Two adjacent frames swapped in flight: the early out-of-order
    // frame reads as a gap at the swap point. Never applied.
    #[test]
    fn reordered_frames_are_a_classified_gap(
        ops in prop::collection::vec(op_strategy(), 2..24),
        swap_idx in any::<usize>(),
    ) {
        let k = swap_idx % (ops.len() - 1);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.swap(k, k + 1);
        let mut bytes = Vec::new();
        let mut offset = 0u64;
        for (pos, &i) in order.iter().enumerate() {
            if pos == k {
                offset = bytes.len() as u64;
            }
            bytes.extend_from_slice(&frame(i as u64, &ops[i]));
        }
        let mut stream = ReplStream::new();
        stream.push(&bytes);
        let got = drain(&mut stream);
        prop_assert_eq!(got, Err(StreamFault::Gap {
            stored: k as u64 + 1,
            expected: k as u64,
            offset,
        }));
    }

    // A single flipped bit anywhere in the shipped bytes can stall the
    // stream or fault it (gap or corruption, with an offset) — but the
    // ops that do apply are always an exact prefix of what was shipped,
    // and never the full sequence.
    #[test]
    fn single_bit_flip_never_applies_a_wrong_op(
        ops in prop::collection::vec(op_strategy(), 1..16),
        byte_idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (mut bytes, _) = stream_bytes(&ops);
        let target = byte_idx % bytes.len();
        bytes[target] ^= 1 << bit;
        let mut stream = ReplStream::new();
        stream.push(&bytes);
        let mut got = Vec::new();
        let fault = loop {
            match stream.next_op() {
                Ok(Some(op)) => got.push(op),
                Ok(None) => break None,
                Err(fault) => break Some(fault),
            }
        };
        // Whatever applied is a verified prefix — a *wrong* op never
        // sneaks through.
        prop_assert_eq!(&got[..], &ops[..got.len()]);
        if let Some(fault) = fault {
            // Classified, offset-bearing, and sticky.
            prop_assert!(got.len() < ops.len());
            match &fault {
                StreamFault::Gap { offset, .. } | StreamFault::Corrupt { offset, .. } => {
                    prop_assert!(*offset <= bytes.len() as u64);
                }
            }
            prop_assert_eq!(stream.next_op().unwrap_err(), fault);
        } else {
            // No fault: the flip stalled the stream (an inflated length
            // field, correctly waiting for bytes that never come), got
            // the frame skipped as a verified duplicate (a lowered
            // final-frame seq digit), or was semantically neutral (a
            // CRC hex letter's case bit — the checksum text parses
            // case-insensitively, so the identical op decodes).
            prop_assert!(stream.buffered() > 0 || got.len() < ops.len() || got == ops);
        }
    }
}

/// One random-but-valid mutation script: inserts, updates and deletes
/// over one collection, as `(kind, payload-seed)` pairs.
fn script_strategy() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..6, -100i64..10_000), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A follower fed the primary's clean frame stream (in arbitrary
    // chunks) converges to the same state fingerprint and a
    // byte-identical journal.
    #[test]
    fn clean_replay_is_byte_identical(script in script_strategy(), chunk in 1usize..97) {
        let primary = SharedKdb::open_with(
            Path::new("prop_primary.journal"),
            StoreOptions::with_storage(Arc::new(MemStorage::new())),
        ).unwrap();
        primary.create_collection("records").unwrap();
        let mut ops = vec![Op::CreateCollection { name: "records".into() }];
        let mut live: Vec<u64> = Vec::new();
        for (kind, seed) in script {
            let doc = Document::new().with("v", seed).with("tag", Value::Str(format!("t{}", seed.rem_euclid(7))));
            match kind {
                0..=2 => {
                    let id = primary.insert("records", doc.clone()).unwrap();
                    live.push(id);
                    // The store stamps `_id` into the doc it journals.
                    ops.push(Op::Insert {
                        name: "records".into(),
                        id,
                        doc: doc.with("_id", id as i64),
                    });
                }
                3 | 4 if !live.is_empty() => {
                    let id = live[seed.unsigned_abs() as usize % live.len()];
                    primary.update("records", id, doc.clone()).unwrap();
                    ops.push(Op::Update { name: "records".into(), id, doc });
                }
                5 if !live.is_empty() => {
                    let id = live.remove(seed.unsigned_abs() as usize % live.len());
                    primary.delete("records", id).unwrap();
                    ops.push(Op::Delete { name: "records".into(), id });
                }
                _ => {}
            }
        }
        primary.sync().unwrap();

        let replica = SharedKdb::open_with(
            Path::new("prop_replica.journal"),
            StoreOptions::with_storage(Arc::new(MemStorage::new())),
        ).unwrap();
        let mut engine = ReplicaEngine::new(replica, Arc::new(ReplMetrics::new()));
        let (bytes, _) = stream_bytes(&ops);
        for piece in bytes.chunks(chunk) {
            engine.feed(piece).expect("clean stream applies");
        }
        prop_assert_eq!(engine.applied_ops(), ops.len() as u64);
        prop_assert_eq!(engine.fingerprint(), primary.read().fingerprint());
        prop_assert_eq!(
            engine.kdb().journal_image().unwrap(),
            primary.journal_image().unwrap()
        );
        engine.sync().unwrap();
        prop_assert_eq!(engine.acked_ops(), ops.len() as u64);
    }
}
