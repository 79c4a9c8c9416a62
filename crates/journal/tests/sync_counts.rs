//! The sync counters against each write path. One test in its own binary:
//! the counters are process-wide, so nothing else may sync meanwhile.

use e2c_journal::{sync_counts, write_atomic, write_view, SyncCounts, Wal};
use std::path::PathBuf;

/// The syncs `f` makes.
fn syncs_of(f: impl FnOnce()) -> SyncCounts {
    let before = sync_counts();
    f();
    let after = sync_counts();
    SyncCounts {
        files: after.files - before.files,
        dirs: after.dirs - before.dirs,
    }
}

#[test]
fn each_write_path_makes_its_syncs_and_a_view_makes_none() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("e2c-journal-syncs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let counts = |files, dirs| SyncCounts { files, dirs };

    // A log in an existing directory syncs that directory once; each
    // append syncs the file once.
    let wal_path = root.join("run.wal");
    let mut wal = None;
    assert_eq!(
        syncs_of(|| wal = Some(Wal::create(&wal_path).unwrap())),
        counts(0, 1)
    );
    let mut wal = wal.unwrap();
    assert_eq!(
        syncs_of(|| {
            for _ in 0..3 {
                wal.append(b"record").unwrap();
            }
        }),
        counts(3, 0)
    );
    // A log whose directory it creates also syncs that directory's parent.
    assert_eq!(
        syncs_of(|| drop(Wal::create(&root.join("new").join("run.wal")).unwrap())),
        counts(0, 2)
    );
    // A snapshot syncs its file and its directory.
    assert_eq!(
        syncs_of(|| write_atomic(&root.join("summary.txt"), b"s").unwrap()),
        counts(1, 1)
    );
    // A view syncs nothing.
    assert_eq!(
        syncs_of(|| {
            for i in 0..5 {
                write_view(&root.join(format!("view_{i}.txt")), b"v").unwrap();
            }
        }),
        counts(0, 0)
    );
    std::fs::remove_dir_all(&root).unwrap();
}
