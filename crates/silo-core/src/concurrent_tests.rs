// Serializability invariants under concurrent workers: no money is made or
// lost, no increment is lost, a contested insert commits once. Included into
// `crate::tests` (lib.rs), which holds the imports.

#[test]
fn concurrent_bank_transfers_preserve_total_balance() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("accounts").unwrap();
    let accounts = 16u32;
    let initial = 1000u64;
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for a in 0..accounts {
            txn.write(
                t,
                format!("acct{:02}", a).as_bytes(),
                &initial.to_be_bytes(),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }

    let threads = 4;
    let transfers_per_thread = 500;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = 0u64;
            let mut state = 0x243F6A8885A308D3u64 ^ (tid as u64);
            for _ in 0..transfers_per_thread {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let from = (state >> 33) as u32 % accounts;
                let to = (state >> 13) as u32 % accounts;
                if from == to {
                    continue;
                }
                let mut txn = w.begin();
                let run = (|| -> Result<(), Abort> {
                    let fk = format!("acct{:02}", from);
                    let tk = format!("acct{:02}", to);
                    let fv = txn.read(t, fk.as_bytes())?.expect("account exists");
                    let tv = txn.read(t, tk.as_bytes())?.expect("account exists");
                    let fb = u64::from_be_bytes(fv.try_into().unwrap());
                    let tb = u64::from_be_bytes(tv.try_into().unwrap());
                    if fb == 0 {
                        return Ok(());
                    }
                    txn.write(t, fk.as_bytes(), &(fb - 1).to_be_bytes())?;
                    txn.write(t, tk.as_bytes(), &(tb + 1).to_be_bytes())?;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        if txn.commit().is_ok() {
                            committed += 1;
                        }
                    }
                    Err(_) => txn.abort(),
                }
            }
            committed
        }));
    }
    let total_committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_committed > 0);

    let mut w = db.register_worker();
    let mut txn = w.begin();
    let mut sum = 0u64;
    for a in 0..accounts {
        let v = txn
            .read(t, format!("acct{:02}", a).as_bytes())
            .unwrap()
            .unwrap();
        sum += u64::from_be_bytes(v.try_into().unwrap());
    }
    txn.commit().unwrap();
    assert_eq!(
        sum,
        accounts as u64 * initial,
        "serializability violated: money created or destroyed"
    );
    db.stop_epoch_advancer();
}

#[test]
fn concurrent_counter_increments_are_not_lost() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("counters").unwrap();
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, b"c", &0u64.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let threads = 4;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = 0u64;
            for _ in 0..300 {
                let mut txn = w.begin();
                let v = txn.read(t, b"c").unwrap().unwrap();
                let n = u64::from_be_bytes(v.try_into().unwrap());
                txn.write(t, b"c", &(n + 1).to_be_bytes()).unwrap();
                if txn.commit().is_ok() {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let v = txn.read(t, b"c").unwrap().unwrap();
    txn.commit().unwrap();
    assert_eq!(u64::from_be_bytes(v.try_into().unwrap()), total);
    db.stop_epoch_advancer();
}

#[test]
fn concurrent_inserts_of_same_key_commit_exactly_once() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("t").unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for tid in 0..4usize {
        let db = Arc::clone(&db);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            barrier.wait();
            let mut wins = 0;
            for k in 0..100u32 {
                let mut txn = w.begin();
                let key = format!("contended{}", k);
                match txn.insert(t, key.as_bytes(), format!("winner{}", tid).as_bytes()) {
                    Ok(()) => {
                        if txn.commit().is_ok() {
                            wins += 1;
                        }
                    }
                    Err(_) => txn.abort(),
                }
            }
            wins
        }));
    }
    let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        total_wins, 100,
        "each key committed by exactly one inserter"
    );
    db.stop_epoch_advancer();
}
