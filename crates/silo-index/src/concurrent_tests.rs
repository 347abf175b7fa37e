// Concurrent writers and readers on leaves: racing inserts, layer
// conversions, updates and splits of shared leaves; readers see only values
// that were written. `SILO_TEST_THREADS` raises the thread counts. Included
// into `crate::tests` (lib.rs), which holds the imports.

#[test]
fn concurrent_disjoint_inserts() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let per_thread = 3000u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let k = key(tid * per_thread + i);
                assert!(matches!(
                    t.insert_if_absent(&k, tid * per_thread + i),
                    InsertOutcome::Inserted { .. }
                ));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    audit_interior(&t);
    assert_eq!(t.len(), (threads * per_thread) as usize);
    for i in 0..threads * per_thread {
        assert_eq!(t.get(&key(i)), Some(i));
    }
    let r = t.scan(b"", None, None);
    assert_eq!(r.entries.len(), (threads * per_thread) as usize);
}

#[test]
fn concurrent_inserts_of_same_keys_keep_first_value() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let keys = 2000u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            let mut wins = 0u64;
            for i in 0..keys {
                if matches!(
                    t.insert_if_absent(&key(i), tid),
                    InsertOutcome::Inserted { .. }
                ) {
                    wins += 1;
                }
            }
            wins
        }));
    }
    let total_wins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total_wins, keys, "each key must be inserted exactly once");
    audit_interior(&t);
    assert_eq!(t.len(), keys as usize);
    for i in 0..keys {
        let v = t.get(&key(i)).unwrap();
        assert!(v < threads, "value must come from one of the writers");
    }
}

/// Concurrent inserts of colliding long keys: every thread races to convert
/// the same suffix buckets into layers.
#[test]
fn concurrent_layer_conversions() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let buckets = 64u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for b in 0..buckets {
                // All threads' keys for bucket `b` share 16 bytes.
                let k = format!("bk{:06}shared__t{}", b, tid).into_bytes();
                t.insert_if_absent(&k, tid * buckets + b);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    audit_interior(&t);
    assert_eq!(t.len(), (threads * buckets) as usize);
    for tid in 0..threads {
        for b in 0..buckets {
            let k = format!("bk{:06}shared__t{}", b, tid).into_bytes();
            assert_eq!(t.get(&k), Some(tid * buckets + b));
        }
    }
    let r = t.scan(b"", None, None);
    assert_eq!(r.entries.len(), (threads * buckets) as usize);
    assert!(t.stats().layer_creations >= buckets);
}

#[test]
fn concurrent_readers_during_inserts_see_only_valid_values() {
    let t = Arc::new(Tree::new());
    let stop = Arc::new(AtomicBool::new(false));
    let n = 5000u64;

    let mut readers = Vec::new();
    for _ in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in (0..n).step_by(97) {
                    // Values are always key index + 1000.
                    if let Some(v) = t.get(&key(i)) {
                        assert_eq!(v, i + 1000);
                        observed += 1;
                    }
                }
            }
            observed
        }));
    }
    let scanner = {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(AO::Relaxed) {
                let r = t.scan(&key(100), Some(&key(4000)), Some(200));
                let mut prev: Option<Vec<u8>> = None;
                for (k, v) in &r.entries {
                    if let Some(p) = &prev {
                        assert!(k > p, "scan results must be sorted");
                    }
                    let idx: u64 = String::from_utf8_lossy(&k[3..]).parse().unwrap();
                    assert_eq!(*v, idx + 1000);
                    prev = Some(k.clone());
                }
            }
        })
    };

    for i in 0..n {
        t.insert_if_absent(&key(i), i + 1000);
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    scanner.join().unwrap();
    audit_interior(&t);
    for i in 0..n {
        assert_eq!(t.get(&key(i)), Some(i + 1000));
    }
}

#[test]
fn concurrent_updates_and_reads() {
    let t = Arc::new(Tree::new());
    for i in 0..200u64 {
        t.insert_if_absent(&key(i), 1);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in 0..200u64 {
                    t.update_value(&key(i), (w + 1) * 1000 + round);
                }
                round += 1;
            }
        }));
    }
    for _ in 0..50 {
        for i in 0..200u64 {
            let v = t.get(&key(i)).unwrap();
            assert!(v == 1 || v >= 1000, "unexpected value {v}");
        }
    }
    stop.store(true, AO::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

/// Writers inserting interleaved keys (`key(i * writers + tid)`) contend on
/// every leaf and on its parent, so their splits race: upgrading a full
/// leaf's ancestors fails and the insert starts over. Readers running
/// alongside may only see values that were inserted.
#[test]
fn concurrent_interleaved_inserts_split_shared_leaves() {
    let t = Arc::new(Tree::new());
    let writers = test_threads(4);
    let per_writer = 50_000u64;
    let n = writers * per_writer;
    // Every key's value is its index plus this.
    let base = 1_000_000u64;
    let stop = Arc::new(AtomicBool::new(false));
    // Everyone starts at once, so the writers' splits overlap.
    let start = Arc::new(std::sync::Barrier::new(writers as usize + 2));
    fn index_of(k: &[u8]) -> u64 {
        String::from_utf8_lossy(&k[3..]).parse().unwrap()
    }

    let mut readers = Vec::new();
    for r in 0..2u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        readers.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(AO::Relaxed) {
                for i in (r..n).step_by(53) {
                    let (v, leaf, version) = t.get_tracked(&key(i));
                    if let Some(v) = v {
                        assert_eq!(v, i + base, "reader saw a value never inserted");
                    }
                    assert_eq!(version & NODE_LOCK_BIT, 0);
                    assert!(t.node_version(leaf) >= version, "versions only grow");
                }
                let r = t.scan(&key(r * n / 2), None, Some(200));
                for pair in r.entries.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "scan results must be sorted");
                }
                for (k, v) in &r.entries {
                    assert_eq!(*v, index_of(k) + base, "scan saw a value never inserted");
                }
            }
        }));
    }
    let mut handles = Vec::new();
    for tid in 0..writers {
        let t = Arc::clone(&t);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            for i in 0..per_writer {
                let k = i * writers + tid;
                assert!(
                    matches!(
                        t.insert_if_absent(&key(k), k + base),
                        InsertOutcome::Inserted { .. }
                    ),
                    "key {k} has one writer and was absent"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    audit_interior(&t);

    for i in 0..n {
        assert_eq!(t.get(&key(i)), Some(i + base));
        assert!(matches!(
            t.insert_if_absent(&key(i), 0),
            InsertOutcome::Exists { value } if value == i + base
        ));
    }
    let all = t.scan(b"", None, None);
    assert_eq!(all.entries.len() as u64, n);
    for (i, (k, v)) in all.entries.iter().enumerate() {
        assert_eq!(k, &key(i as u64), "full scan is sorted and complete");
        assert_eq!(*v, i as u64 + base);
    }
    let stats = t.stats();
    assert_eq!(stats.entries, n);
    assert!(stats.splits > 0);
}
