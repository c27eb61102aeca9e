//! Host timings of the data-structure layers, replayed on the workload's
//! own generated keys and values through the public `memtable`, `sstable`,
//! `msg` and `resp` functions.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use papyrus_nvm::NvmStore;
use papyrus_serve::resp::{encode_command, Decoder};
use papyrus_simtime::DeviceModel;
use papyruskv::memtable::{Entry, MemTable};
use papyruskv::msg::{decode_migrate, encode_migrate, KvRecord};
use papyruskv::sstable;

use crate::gen;
use crate::stats::median;

/// Host nanoseconds per item for each structure.
pub struct Replay {
    pub memtable_insert_ns: f64,
    pub memtable_get_ns: f64,
    pub sstable_build_ns: f64,
    pub sstable_get_ns: f64,
    pub msg_codec_ns: f64,
    pub resp_decode_ns: f64,
}

const REPEATS: usize = 5;

fn per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let h = Instant::now();
            f();
            h.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&times)
}

/// Replay the first `n` keys of the workload and their first values
/// (lengths drawn around `vallen` as the workload draws them).
pub fn replay(seed: u64, n: u64, vallen: usize) -> Replay {
    let keys: Vec<Vec<u8>> = (0..n).map(|id| gen::key(seed, id)).collect();
    let value = |id| gen::value(seed, id, 0, gen::value_len(seed, id, 0, vallen));
    let vals: Vec<Bytes> = (0..n).map(|id| Bytes::copy_from_slice(&value(id))).collect();
    let n = n as usize;

    let build = || {
        let mut mt = MemTable::new();
        for (k, v) in keys.iter().zip(&vals) {
            mt.insert(k, Entry::value(v.clone()));
        }
        mt
    };
    let memtable_insert_ns = per_item(n, || {
        black_box(build());
    });
    let mt = build();
    let memtable_get_ns = per_item(n, || {
        for k in &keys {
            black_box(mt.get(k));
        }
    });

    let entries = build().into_sorted_entries();
    let store = NvmStore::in_memory(DeviceModel::dram());
    let sstable_build_ns = per_item(n, || {
        black_box(sstable::build_at(&store, "replay/sst", 1, &entries, 0));
    });
    let (reader, _) = sstable::build_at(&store, "replay/sst", 1, &entries, 0);
    let sstable_get_ns = per_item(n, || {
        for k in &keys {
            black_box(reader.get_at(k, true, 0));
        }
    });

    let records: Vec<KvRecord> = keys
        .iter()
        .zip(&vals)
        .map(|(k, v)| KvRecord { key: k.clone(), value: v.clone(), tombstone: false })
        .collect();
    let msg_codec_ns = per_item(n, || {
        let decoded = decode_migrate(encode_migrate(0, 0, &records)).expect("decode migrate");
        black_box(decoded);
    });

    let mut wire = Vec::new();
    for (k, v) in keys.iter().zip(&vals) {
        encode_command(&[&b"SET"[..], k, v], &mut wire);
    }
    let resp_decode_ns = per_item(n, || {
        let mut dec = Decoder::new();
        dec.feed(&wire);
        let mut frames = 0usize;
        while let Ok(Some(f)) = dec.next_frame() {
            black_box(f);
            frames += 1;
        }
        assert_eq!(frames, n, "every encoded command decodes");
    });

    Replay {
        memtable_insert_ns,
        memtable_get_ns,
        sstable_build_ns,
        sstable_get_ns,
        msg_codec_ns,
        resp_decode_ns,
    }
}
