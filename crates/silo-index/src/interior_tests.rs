// Interior splits under readers: routing through interior nodes that are
// taking separators and splitting stays correct. Included into
// `crate::tests` (lib.rs), which holds the imports.

/// Readers racing interior separator inserts and splits: short (inline,
/// single-slice) keys inserted in an adversarial order drive constant
/// interior-node mutation while readers validate every observed value. A
/// reader that routes on a separator array half-way through a shift must
/// retry on the node's version, never return a wrong (yet present-looking)
/// entry.
#[test]
fn concurrent_readers_during_interior_splits_see_consistent_routing() {
    let t = Arc::new(Tree::new());
    let stop = Arc::new(AtomicBool::new(false));
    let n = 6000u64;
    // 8-byte keys, bit-reversed insertion order: neighbouring inserts land
    // in distant leaves, maximizing distinct interior-insert sites.
    let enc = |i: u64| (i.reverse_bits() >> 48) ^ (i << 16);

    let mut readers = Vec::new();
    for r in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut hits = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in (r..n).step_by(61) {
                    if let Some(v) = t.get(&enc(i).to_be_bytes()) {
                        assert_eq!(v, i, "reader observed a misrouted entry");
                        hits += 1;
                    }
                }
            }
            hits
        }));
    }
    for i in 0..n {
        t.insert_if_absent(&enc(i).to_be_bytes(), i);
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    audit_interior(&t);
    assert!(
        t.stats().inners > 1,
        "workload must have split interior nodes"
    );
    for i in 0..n {
        assert_eq!(t.get(&enc(i).to_be_bytes()), Some(i));
    }
}
