//! Allocator-detector interaction tests: the §2.3.2 guarantees under real
//! concurrent load, and the object lifecycle (free-time metadata refresh,
//! quarantine, reuse).

use predator::{Callsite, DetectorConfig, Session};

fn session() -> Session {
    Session::new(DetectorConfig::sensitive(), 16 << 20)
}

#[test]
fn allocator_isolation_prevents_cross_object_false_sharing() {
    // Many threads allocate and hammer their own small objects with REAL
    // concurrency. The per-thread-heap allocator must prevent any
    // cross-thread line sharing, so the detector must stay silent.
    let s = session().into_shared();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let tid = s.register_thread();
                let objs: Vec<u64> = (0..32)
                    .map(|i| {
                        s.malloc(tid, 8 + (i % 5) * 8, Callsite::here())
                            .unwrap()
                            .start
                    })
                    .collect();
                for round in 0..500u64 {
                    for &o in &objs {
                        s.write::<u64>(tid, o, round);
                    }
                }
            });
        }
    });
    let report = s.report();
    assert!(
        !report.has_false_sharing(),
        "allocator isolation must prevent cross-object sharing:\n{report}"
    );
}

#[test]
fn memory_reuse_does_not_fake_false_sharing() {
    // §2.3.2: metadata refreshes at free so a recycled address cannot
    // conflate two objects' access histories. Thread 0 writes word 0 of an
    // object, frees it; the recycled block is then written at word 1 — if
    // stale metadata survived, the two "owners" would look like false
    // sharing. (Same thread, since recycling is per-thread — the cross-
    // thread case is impossible by construction, which this also checks.)
    let s = session();
    let t0 = s.register_thread();
    let t1 = s.register_thread();

    let a = s.malloc(t0, 64, Callsite::here()).unwrap();
    for i in 0..500u64 {
        s.write::<u64>(t0, a.start, i);
    }
    s.free(t0, a.start).unwrap();

    // Recycle: same thread gets the same block back…
    let b = s.malloc(t0, 64, Callsite::here()).unwrap();
    assert_eq!(b.start, a.start, "block recycled");
    // …and a fresh object elsewhere belongs to t1.
    let c = s.malloc(t1, 64, Callsite::here()).unwrap();
    assert_ne!(c.start / 64, b.start / 64);

    for i in 0..500u64 {
        s.write::<u64>(t0, b.start + 8, i);
        s.write::<u64>(t1, c.start, i);
    }
    let report = s.report();
    assert!(
        !report.has_false_sharing(),
        "reuse faked a report:\n{report}"
    );
    // The recycled line's metadata restarted: word 0's stale counts are gone.
    let idx = ((b.start - s.space().base()) / 64) as usize;
    let snap = s.runtime().line_snapshot(idx).unwrap();
    assert_eq!(
        snap.words.words()[0].total(),
        0,
        "stale word counts must be cleared"
    );
}

#[test]
fn quarantined_objects_keep_their_evidence() {
    let s = session();
    let t0 = s.register_thread();
    let t1 = s.register_thread();
    let obj = s.malloc(t0, 64, Callsite::here()).unwrap();
    for i in 0..500u64 {
        s.write::<u64>(t0, obj.start, i);
        s.write::<u64>(t1, obj.start + 8, i);
    }
    s.free(t0, obj.start).unwrap();
    // Quarantined: the address is never handed out again…
    assert!(s.heap().is_quarantined(obj.start));
    for _ in 0..10 {
        let next = s.malloc(t0, 64, Callsite::here()).unwrap();
        assert_ne!(next.start, obj.start);
    }
    // …and the finding survives in the final report.
    let report = s.report();
    assert!(report.has_false_sharing(), "{report}");
}

#[test]
fn attribution_survives_dense_heaps() {
    // Hundreds of live objects; findings must attribute to exactly the
    // right one.
    let s = session();
    let t0 = s.register_thread();
    let t1 = s.register_thread();
    let decoys: Vec<u64> = (0..200)
        .map(|_| s.malloc(t0, 32, Callsite::here()).unwrap().start)
        .collect();
    let victim = s
        .malloc(
            t0,
            64,
            Callsite::from_frames(vec![predator::Frame::new("victim.rs", 1)]),
        )
        .unwrap();
    let more: Vec<u64> = (0..200)
        .map(|_| s.malloc(t0, 32, Callsite::here()).unwrap().start)
        .collect();
    for i in 0..500u64 {
        s.write::<u64>(t0, victim.start, i);
        s.write::<u64>(t1, victim.start + 8, i);
    }
    std::hint::black_box((&decoys, &more));
    let report = s.report();
    let f = report.false_sharing().next().expect("finding");
    assert_eq!(f.object.start, victim.start);
    assert!(f.to_string().contains("victim.rs:1"));
}

#[test]
fn concurrent_detection_with_real_threads_is_sound() {
    // Under genuine parallelism the detector must (a) never report sharing
    // that is not there, and (b) keep counters consistent. Each thread gets
    // its own object; one *pair* of threads deliberately shares a line via
    // an object allocated by the main thread.
    let s = session().into_shared();
    let main = s.register_thread();
    let shared = s.malloc(main, 64, Callsite::here()).unwrap();
    std::thread::scope(|scope| {
        for k in 0..4usize {
            let shared = shared.start;
            let s = &s;
            scope.spawn(move || {
                let tid = s.register_thread();
                let own = s.malloc(tid, 64, Callsite::here()).unwrap();
                for i in 0..20_000u64 {
                    s.write::<u64>(tid, own.start, i);
                    if k < 2 {
                        // Threads 0 and 1 also fight over the shared line.
                        s.write::<u64>(tid, shared + (k as u64) * 8, i);
                    }
                }
            });
        }
    });
    let report = s.report();
    // Exactly one falsely-shared object: the deliberately shared one.
    let fs: Vec<_> = report.false_sharing().collect();
    assert!(!fs.is_empty(), "the shared object must be found:\n{report}");
    for f in &fs {
        assert_eq!(
            f.object.start, shared.start,
            "only the shared object may be flagged"
        );
    }
}
