// The worker's reusable transaction context leaks no state between
// transactions. Included into `crate::tests` (lib.rs).

mod context_reuse {
    //! Property test for the reusable `TxnContext`: no transaction state
    //! (reads, writes, node-set, placeholders, arena contents) may leak from
    //! one transaction into the next on the same worker, across any
    //! interleaving of commits, aborts, drops and poisoned transactions.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One operation inside a transaction. Keys are drawn from a small space
    /// so transactions collide with earlier state often.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(u8),
        Write(u8, u8),
        Insert(u8, u8),
        Delete(u8),
        Scan,
        Exists(u8),
    }

    /// How the transaction ends.
    #[derive(Debug, Clone, Copy)]
    enum End {
        Commit,
        Abort,
        Drop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::Read),
            (0u8..16, any::<u8>()).prop_map(|(k, v)| Op::Write(k, v)),
            (0u8..16, any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..16).prop_map(Op::Delete),
            (0u8..16).prop_map(|_| Op::Scan),
            (0u8..16).prop_map(Op::Exists),
        ]
    }

    fn arb_end() -> impl Strategy<Value = End> {
        prop_oneof![
            (0u8..1).prop_map(|_| End::Commit),
            (0u8..1).prop_map(|_| End::Abort),
            (0u8..1).prop_map(|_| End::Drop),
        ]
    }

    fn key(k: u8) -> [u8; 3] {
        [b'k', k / 10 + b'0', k % 10 + b'0']
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn no_state_leaks_between_transactions(
            txns in vec((vec(arb_op(), 0..12), arb_end()), 1..24),
        ) {
            let db = test_db();
            let t = db.create_table("t").unwrap();
            let mut w = db.register_worker();
            // The reference model of committed state.
            let mut model: HashMap<u8, u8> = HashMap::new();

            for (ops, end) in txns {
                // A fresh transaction must start with *empty* sets no matter
                // how its predecessor ended.
                let mut txn = w.begin();
                prop_assert_eq!(txn.read_set_len(), 0, "read-set leaked");
                prop_assert_eq!(txn.write_set_len(), 0, "write-set leaked");
                prop_assert_eq!(txn.node_set_len(), 0, "node-set leaked");
                prop_assert_eq!(txn.placeholder_len(), 0, "placeholders leaked");

                // Shadow model of this transaction's own effects, applied to
                // the committed model only on a successful commit.
                let mut pending = model.clone();
                let mut poisoned = false;
                for op in ops {
                    if poisoned {
                        break;
                    }
                    match op {
                        Op::Read(k) => {
                            let got = match txn.read(t, &key(k)) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            prop_assert_eq!(
                                got, pending.get(&k).map(|v| vec![*v]),
                                "read of k{} disagrees with the model", k
                            );
                        }
                        Op::Exists(k) => {
                            let got = match txn.exists(t, &key(k)) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            prop_assert_eq!(got, pending.contains_key(&k));
                        }
                        Op::Write(k, v) => {
                            match txn.write(t, &key(k), &[v]) {
                                Ok(()) => { pending.insert(k, v); }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Insert(k, v) => {
                            // Inserting a present key poisons the txn — that
                            // is the interleaved "poisoned" case of the
                            // property.
                            match txn.insert(t, &key(k), &[v]) {
                                Ok(()) => { pending.insert(k, v); }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Delete(k) => {
                            match txn.delete(t, &key(k)) {
                                Ok(existed) => {
                                    prop_assert_eq!(existed, pending.remove(&k).is_some());
                                }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Scan => {
                            let got = match txn.scan(t, b"k", None, None) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            // The scan overlays this txn's own updates of
                            // committed keys but not its fresh inserts, so
                            // compare against the committed key space.
                            for (k_bytes, v_bytes) in got {
                                let k = (k_bytes[1] - b'0') * 10 + (k_bytes[2] - b'0');
                                prop_assert!(
                                    pending.contains_key(&k) || model.contains_key(&k),
                                    "scan surfaced k{} which neither model holds", k
                                );
                                prop_assert_eq!(v_bytes.len(), 1);
                            }
                        }
                    }
                }

                match end {
                    End::Commit => {
                        if txn.commit().is_ok() && !poisoned {
                            model = pending;
                        }
                    }
                    End::Abort => txn.abort(),
                    End::Drop => drop(txn),
                }

                // Whatever happened, the committed state must now match the
                // model exactly: nothing from an aborted/poisoned/dropped
                // transaction may be visible, everything committed must be.
                let mut check = w.begin();
                for k in 0u8..16 {
                    let got = check.read(t, &key(k)).unwrap();
                    prop_assert_eq!(
                        got, model.get(&k).map(|v| vec![*v]),
                        "post-txn state of k{} diverged from the model", k
                    );
                }
                check.commit().unwrap();

                // Interleave epoch advancement + GC so placeholder cleanup
                // and record recycling run mid-sequence too.
                advance_epochs(&db, &[&w], 1);
                w.collect_garbage();
            }
        }
    }
}
