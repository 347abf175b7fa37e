// What commits hand to observers: the commit hook's write list, and the
// history recorder's sessions, checked serializable. Included into
// `crate::tests` (lib.rs), which holds the imports.

#[test]
fn commit_hook_receives_writes() {
    use std::sync::Mutex;
    #[derive(Default)]
    struct Capture {
        log: Mutex<Vec<(usize, Tid, Vec<(TableId, Vec<u8>, Option<Vec<u8>>)>)>>,
    }
    impl CommitHook for Capture {
        fn on_commit(&self, worker: usize, tid: Tid, writes: CommitWrites<'_>) {
            let owned = writes
                .iter()
                .map(|w| (w.table, w.key.to_vec(), w.value.map(|v| v.to_vec())))
                .collect();
            self.log.lock().unwrap().push((worker, tid, owned));
        }
    }

    let db = test_db();
    let t = db.create_table("t").unwrap();
    let capture = Arc::new(Capture::default());
    db.set_commit_hook(capture.clone() as Arc<dyn CommitHook>)
        .ok()
        .unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"a", b"1").unwrap();
    txn.write(t, b"b", b"2").unwrap();
    let tid = txn.commit().unwrap();

    let mut txn = w.begin();
    txn.delete(t, b"a").unwrap();
    txn.commit().unwrap();

    let log = capture.log.lock().unwrap();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].1, tid);
    assert_eq!(log[0].2.len(), 2);
    assert!(log[1].2[0].2.is_none(), "delete logged with value = None");
}

mod history_recording {
    //! End-to-end tests of the history recorder and checker: the engine's
    //! own executions, recorded black-box and verified serializable.

    use super::*;
    use silo_check::{check_serializability, HistoryRecorder};

    #[test]
    fn recorded_history_roundtrips_through_engine() {
        let db = test_db();
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        {
            let mut w = db.register_worker();
            let mut txn = w.begin();
            txn.write(t, b"a", b"1").unwrap();
            txn.insert(t, b"b", b"2").unwrap();
            txn.commit().unwrap();

            let mut txn = w.begin();
            assert!(txn.read(t, b"a").unwrap().is_some());
            assert!(txn.read(t, b"missing").unwrap().is_none());
            txn.delete(t, b"b").unwrap();
            txn.commit().unwrap();

            let mut txn = w.begin();
            let v = txn.read(t, b"a").unwrap().unwrap();
            txn.write(t, b"a", &[v[0] + 1]).unwrap();
            txn.abort();
        }
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.len(), 3);
        let t0 = s.txn(0);
        let t1 = s.txn(1);
        let t2 = s.txn(2);
        // Txn 0: two fresh writes, both absence checks observed version 0.
        assert!(t0.reads().all(|r| r.observed == 0));
        assert_eq!(t0.writes().count(), 2);
        // Txn 1 read the versions txn 0 installed, and a missing key as 0.
        let tid0 = t0.tid().unwrap().raw();
        let observed: Vec<u64> = t1.reads().map(|r| r.observed).collect();
        assert!(observed.contains(&tid0));
        assert!(observed.contains(&0));
        assert!(t1.writes().any(|w| w.delete));
        // Txn 2 aborted; its attempted write is recorded, but it has no TID.
        assert!(t2.tid().is_none());
        assert_eq!(t2.writes().count(), 1);

        let report = check_serializability(&sessions).expect("serializable");
        assert_eq!(report.committed, 2);
        assert_eq!(report.aborted, 1);
        assert_eq!(report.external_versions, 0);
    }

    #[test]
    fn recorded_concurrent_history_is_serializable() {
        // GC stays off: after a deleted key is unhooked from the index, a
        // reader records "initial version" for what is really a later state,
        // which the checker would (rightly, per the recording) flag.
        let db = Database::open(SiloConfig {
            spawn_epoch_advancer: true,
            ..SiloConfig::for_testing().without_gc()
        });
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        {
            let mut w = db.register_worker();
            let mut txn = w.begin();
            for k in 0..4u32 {
                txn.write(t, &k.to_be_bytes(), &0u64.to_be_bytes()).unwrap();
            }
            txn.commit().unwrap();
        }
        let mut handles = Vec::new();
        for seed in 0..3u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut w = db.register_worker();
                let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) + 1;
                for i in 0..200u64 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = ((state >> 33) as u32 % 4).to_be_bytes();
                    let mut txn = w.begin();
                    let result = (|| -> Result<(), Abort> {
                        let v = txn.read(t, &k)?.unwrap_or_default();
                        let n = u64::from_be_bytes(v.try_into().unwrap_or([0; 8]));
                        txn.write(t, &k, &(n + i).to_be_bytes())?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            let _ = txn.commit();
                        }
                        Err(_) => txn.abort(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.stop_epoch_advancer();
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 4, "setup worker plus three threads");
        let report = check_serializability(&sessions).expect("serializable");
        assert!(report.committed > 0);
        assert_eq!(report.external_versions, 0);
    }

    /// An installed-but-disabled recorder adds **zero shared-memory writes**
    /// to the transaction path — and even an enabled one only writes
    /// worker-local buffers during transactions (the shared recorder is
    /// touched at flush). Reuses the `shared_write_audit` hook that pins the
    /// paper's §3 rule for read-only transactions.
    #[test]
    fn recorder_adds_no_shared_writes_to_transactions() {
        use silo_epoch::shared_write_audit;

        let db = test_db();
        let recorder = HistoryRecorder::new_disabled();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();

        // Warm: data in place, one read-only txn to prime caches.
        let mut txn = w.begin();
        for i in 0..64u64 {
            txn.write(t, &i.to_be_bytes(), b"v").unwrap();
        }
        txn.commit().unwrap();
        let mut txn = w.begin();
        assert!(txn.read(t, &1u64.to_be_bytes()).unwrap().is_some());
        txn.commit().unwrap();

        let _ = shared_write_audit::take();
        let mut txn = w.begin();
        for i in (0..64u64).step_by(7) {
            assert!(txn.read(t, &i.to_be_bytes()).unwrap().is_some());
        }
        assert!(txn.read(t, b"absent").unwrap().is_none());
        txn.commit().unwrap();
        assert_eq!(
            shared_write_audit::take(),
            0,
            "a disabled recorder must not add shared-memory writes"
        );

        // Enabled: recording goes to worker-local buffers only, so a
        // read-only transaction still performs no shared writes.
        recorder.set_enabled(true);
        let mut txn = w.begin();
        assert!(txn.read(t, &2u64.to_be_bytes()).unwrap().is_some());
        txn.commit().unwrap();
        assert_eq!(
            shared_write_audit::take(),
            0,
            "recording buffers are worker-local"
        );

        recorder.set_enabled(false);
        drop(w);
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1, "only the enabled transaction recorded");
        assert_eq!(sessions[0].len(), 1);
    }

    /// Workers registered before any recorder is installed never record.
    #[test]
    fn recorder_only_binds_workers_registered_after_install() {
        let db = test_db();
        let t = db.create_table("t").unwrap();
        let mut early = db.register_worker();
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let mut late = db.register_worker();

        let mut txn = early.begin();
        txn.write(t, b"e", b"1").unwrap();
        txn.commit().unwrap();
        let mut txn = late.begin();
        txn.write(t, b"l", b"1").unwrap();
        txn.commit().unwrap();
        drop(early);
        drop(late);

        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1);
        // The recorder labels sessions itself: `late` is its first.
        assert_eq!(sessions[0].session(), 0);
    }

    /// Worker ids are reused; session labels are not.
    #[test]
    fn workers_that_share_a_slot_record_as_two_sessions() {
        let db = test_db();
        let t = db.create_table("t").unwrap();
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let mut ids = Vec::new();
        for value in [b"1", b"2"] {
            let mut w = db.register_worker();
            ids.push(w.id());
            let mut txn = w.begin();
            txn.write(t, b"k", value).unwrap();
            txn.commit().unwrap();
        }
        assert_eq!(ids[0], ids[1]);
        let labels: Vec<usize> = recorder
            .take_sessions()
            .iter()
            .map(|s| s.session())
            .collect();
        assert_eq!(labels, [0, 1]);
    }
}
