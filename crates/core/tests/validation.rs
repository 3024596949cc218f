//! One validation, every front door.
//!
//! A search request that can never be answered as asked — `k = 0`,
//! `nprobe = 0`, a NaN or infinite query component or target recall, the wrong
//! dimensionality, an IVF search of a flat deployment — is refused with the
//! same typed error by every way into the scan core, before any device work:
//! single and batched searches, leaf queries, the dry-run validators, the
//! request pipeline over either backend (at submission) and the cluster front
//! doors. A NaN or infinite embedding is refused the same way by every way a
//! vector enters the system: the corpus builders, inserts and upserts.

use reis_ann::AnnError;
use reis_cluster::ClusterSystem;
use reis_core::{
    Backend, DurableStore, FaultVfs, MemVfs, Pipeline, PipelineConfig, PipelineRequest, ReisConfig,
    ReisError, ReisSystem, VectorDatabase,
};

const DIM: usize = 64;
const ENTRIES: usize = 96;

fn vector_for(id: usize) -> Vec<f32> {
    (0..DIM)
        .map(|d| (((id * 19 + d * 7) % 31) as f32 - 15.0) / 6.0)
        .collect()
}

fn corpus() -> (Vec<Vec<f32>>, Vec<Vec<u8>>) {
    (
        (0..ENTRIES).map(vector_for).collect(),
        (0..ENTRIES)
            .map(|i| format!("doc {i}").into_bytes())
            .collect(),
    )
}

/// A device and a 3-leaf cluster, both holding the corpus as `nlist`
/// clusters (`None` = flat).
struct Fixture {
    system: ReisSystem,
    db: u32,
    cluster: ClusterSystem,
}

impl Fixture {
    fn new(nlist: Option<usize>) -> Self {
        let (vectors, documents) = corpus();
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let mut cluster = ClusterSystem::new(ReisConfig::tiny(), 3).expect("cluster");
        let db = match nlist {
            Some(nlist) => {
                cluster
                    .deploy_ivf(&vectors, &documents, nlist)
                    .expect("cluster deploy");
                system.deploy(&VectorDatabase::ivf(&vectors, documents, nlist).expect("database"))
            }
            None => {
                cluster
                    .deploy_flat(&vectors, &documents)
                    .expect("cluster deploy");
                system.deploy(&VectorDatabase::flat(&vectors, documents).expect("database"))
            }
        }
        .expect("deploy");
        Fixture {
            system,
            db,
            cluster,
        }
    }

    /// Flash senses so far, on the device and on every leaf.
    fn page_reads(&self) -> u64 {
        let leaves: u64 = (0..self.cluster.num_leaves())
            .map(|leaf| {
                self.cluster
                    .leaf(leaf)
                    .controller()
                    .device()
                    .stats()
                    .page_reads
            })
            .sum();
        self.system.controller().device().stats().page_reads + leaves
    }
}

/// One way to put a request `(query, k, nprobe)` to the system; batch
/// doors put it between two well-formed queries.
type Door = fn(&mut Fixture, &[f32], usize, Option<usize>) -> Result<(), ReisError>;

fn batch_around(query: &[f32]) -> Vec<Vec<f32>> {
    vec![vector_for(3), query.to_vec(), vector_for(40)]
}

fn request(query: &[f32], k: usize, nprobe: Option<usize>) -> PipelineRequest {
    match nprobe {
        Some(nprobe) => PipelineRequest::IvfSearch {
            query: query.to_vec(),
            k,
            nprobe,
        },
        None => PipelineRequest::Search {
            query: query.to_vec(),
            k,
        },
    }
}

/// Submit one request to a fresh pipeline over either backend.
fn submit_once<B: Backend>(
    mut pipeline: Pipeline<B>,
    request: PipelineRequest,
) -> Result<(), ReisError> {
    let submitted = pipeline.submit(10, request).map(drop);
    assert_eq!(pipeline.shed(), 0, "a refused request is not a shed one");
    submitted
}

/// Every front door. `ivf_search` takes a target recall instead of a probe
/// count, so it cannot express `nprobe = 0`; the rows that need it skip it
/// (`takes_nprobe`).
fn doors() -> Vec<(&'static str, bool, Door)> {
    vec![
        ("search / ivf_search_with_nprobe", true, |f, q, k, np| {
            match np {
                Some(np) => f.system.ivf_search_with_nprobe(f.db, q, k, np),
                None => f.system.search(f.db, q, k),
            }
            .map(drop)
        }),
        ("ivf_search", false, |f, q, k, np| match np {
            Some(_) => f.system.ivf_search(f.db, q, k, 0.94).map(drop),
            None => f.system.search(f.db, q, k).map(drop),
        }),
        (
            "search_batch / ivf_search_batch_with_nprobe",
            true,
            |f, q, k, np| {
                let queries = batch_around(q);
                match np {
                    Some(np) => f
                        .system
                        .ivf_search_batch_with_nprobe(f.db, &queries, k, np, 4),
                    None => f.system.search_batch(f.db, &queries, k, 4),
                }
                .map(drop)
            },
        ),
        ("leaf_query", true, |f, q, k, np| {
            f.system.leaf_query(f.db, q, k, np, 4).map(drop)
        }),
        ("validate_search", true, |f, q, k, np| {
            f.system.validate_search(f.db, q, k, np)
        }),
        ("Pipeline::submit over a device", true, |f, q, k, np| {
            let pipeline = f.system.pipeline(f.db, PipelineConfig::default());
            submit_once(pipeline, request(q, k, np))
        }),
        ("ClusterSystem::search*", true, |f, q, k, np| {
            match np {
                Some(np) => f.cluster.ivf_search_with_nprobe(q, k, np),
                None => f.cluster.search(q, k),
            }
            .map(drop)
        }),
        ("ClusterSystem::search_batch", true, |f, q, k, np| {
            f.cluster.search_batch(&batch_around(q), k, np).map(drop)
        }),
        ("ClusterSystem::validate_search", true, |f, q, k, np| {
            f.cluster.validate_search(q, k, np)
        }),
        ("Pipeline::submit over a cluster", true, |f, q, k, np| {
            let pipeline = f.cluster.pipeline(PipelineConfig::default());
            submit_once(pipeline, request(q, k, np))
        }),
    ]
}

/// One malformed request and the error every door must answer it with.
struct Row {
    what: &'static str,
    query: Vec<f32>,
    k: usize,
    /// The probe selections to try it under (`None` = brute force).
    probes: Vec<Option<usize>>,
    expected: fn(&ReisError) -> bool,
}

#[test]
fn every_front_door_refuses_malformed_requests_before_any_device_work() {
    let good = vector_for(7);
    let with = |at: usize, value: f32| {
        let mut query = good.clone();
        query[at] = value;
        query
    };
    let invalid: fn(&ReisError) -> bool = |e| matches!(e, ReisError::InvalidQuery(_));
    let both = vec![None, Some(2)];
    let row = |what, query: Vec<f32>, k, probes: &[Option<usize>], expected| Row {
        what,
        query,
        k,
        probes: probes.to_vec(),
        expected,
    };
    let rows = vec![
        row("k = 0", good.clone(), 0, &both, invalid),
        row("NaN component", with(5, f32::NAN), 3, &both, invalid),
        row("+inf component", with(0, f32::INFINITY), 3, &both, invalid),
        row(
            "-inf component",
            with(DIM - 1, f32::NEG_INFINITY),
            3,
            &both,
            invalid,
        ),
        row("nprobe = 0", good.clone(), 3, &[Some(0)], invalid),
        row(
            "wrong dimensionality",
            good[..DIM - 1].to_vec(),
            3,
            &both,
            |e| {
                matches!(
                    e,
                    ReisError::QueryDimensionMismatch {
                        expected: DIM,
                        actual
                    } if *actual == DIM - 1
                )
            },
        ),
    ];

    let mut ivf = Fixture::new(Some(6));
    let senses_before = ivf.page_reads();
    for Row {
        what,
        query,
        k,
        probes,
        expected,
    } in &rows
    {
        for &nprobe in probes {
            for (door, takes_nprobe, call) in doors() {
                if nprobe == Some(0) && !takes_nprobe {
                    continue;
                }
                let error = call(&mut ivf, query, *k, nprobe)
                    .expect_err(&format!("{door} accepted {what} (nprobe {nprobe:?})"));
                assert!(
                    expected(&error),
                    "{door}, {what}, nprobe {nprobe:?}: unexpected {error:?}"
                );
            }
        }
    }
    // The one door that takes a target recall refuses a non-finite one the
    // same way (NaN would otherwise clamp to the smallest probe count).
    for recall in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let error = ivf
            .system
            .ivf_search(ivf.db, &good, 3, recall)
            .expect_err(&format!("ivf_search accepted target recall {recall}"));
        assert!(invalid(&error), "target recall {recall}: {error:?}");
    }
    assert_eq!(
        ivf.page_reads(),
        senses_before,
        "a refused request must not reach the flash array"
    );
    // The same doors answer the well-formed request.
    for (door, _, call) in doors() {
        for nprobe in [None, Some(2)] {
            call(&mut ivf, &good, 3, nprobe)
                .unwrap_or_else(|e| panic!("{door} refused a valid request: {e:?}"));
        }
    }

    // An IVF search of a flat deployment is refused by every door too.
    let mut flat = Fixture::new(None);
    let senses_before = flat.page_reads();
    for (door, _, call) in doors() {
        let error = call(&mut flat, &good, 3, Some(2))
            .expect_err(&format!("{door} ran an IVF search on a flat deployment"));
        assert!(
            matches!(error, ReisError::UnsupportedSearch(_)),
            "{door}: unexpected {error:?}"
        );
    }
    assert_eq!(flat.page_reads(), senses_before);
}

#[test]
fn every_way_in_refuses_a_non_finite_vector_before_writing_anything() {
    let (vectors, documents) = corpus();
    let (fault, handle) = FaultVfs::new(MemVfs::new());
    let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), DurableStore::new(Box::new(fault)))
        .expect("open a fresh store");
    let database = VectorDatabase::flat(&vectors, documents.clone()).expect("database");
    let db = system.deploy(&database).expect("deploy");
    let written = handle.bytes_written();
    let non_finite = |row, component| ReisError::Ann(AnnError::NonFinite { row, component });
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        // The first of two poisoned embeddings is the one named.
        let mut poisoned = vectors.clone();
        poisoned[40][9] = bad;
        poisoned[70][2] = bad;
        assert_eq!(
            VectorDatabase::flat(&poisoned, documents.clone()),
            Err(non_finite(40, 9)),
            "flat, {bad}"
        );
        assert_eq!(
            VectorDatabase::ivf(&poisoned, documents.clone(), 6),
            Err(non_finite(40, 9)),
            "ivf, {bad}"
        );

        let mut vector = vector_for(5);
        vector[DIM - 1] = bad;
        assert_eq!(
            system.insert(db, &vector, b"poisoned".to_vec()),
            Err(non_finite(0, DIM - 1)),
            "insert, {bad}"
        );
        assert_eq!(
            system.insert_batch(
                db,
                &[vector_for(1), vector.clone()],
                vec![b"fine".to_vec(), b"poisoned".to_vec()],
            ),
            Err(non_finite(1, DIM - 1)),
            "insert_batch, {bad}"
        );
        assert_eq!(
            system.upsert(db, 5, &vector, b"poisoned"),
            Err(non_finite(0, DIM - 1)),
            "upsert, {bad}"
        );
    }
    assert_eq!(
        handle.bytes_written(),
        written,
        "a refused vector must not reach the WAL"
    );
    assert_eq!(
        system.database(db).expect("deployed").live_entries(),
        ENTRIES
    );
}
