//! Observers never see half an operation: while one thread publishes,
//! upgrades and deletes, `check_integrity()` holds at every instant,
//! `repo_bytes()` only ever reads a value the repository has *between*
//! two operations, and images that stay published retrieve intact.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use xpl_core::ExpelliarmusRepo;
use xpl_guestfs::{ImageBuilder, ImageRecipe, Vmi};
use xpl_store::{semantic_fingerprint, ImageStore, RetrieveRequest};
use xpl_workloads::World;

const ROUNDS: usize = 12;
/// Observers keep going until the mutator is done *and* they have looked
/// this many times, so a fast mutator cannot leave them with nothing seen.
const MIN_LOOKS: usize = 50;
/// No worker reporting for this long is a deadlock.
const WATCHDOG: Duration = Duration::from_secs(120);

enum Op {
    Publish(Box<Vmi>),
    Delete(&'static str),
}

fn apply(repo: &ExpelliarmusRepo, w: &World, op: &Op) -> Result<(), String> {
    match op {
        Op::Publish(vmi) => repo.publish(&w.catalog, vmi).map(|_| ()),
        Op::Delete(name) => repo.delete(name).map(|_| ()),
    }
    .map_err(|e| e.to_string())
}

/// `lamp` and `mini` stay published throughout (and `lamp` is re-published
/// in place every round); `redis` and `nginx` go publish → upgrade →
/// delete, sharing packages with each other across generations.
fn script(w: &World) -> (Vec<Op>, Vec<Op>) {
    let publish = |vmi: Vmi| Op::Publish(Box::new(vmi));
    let upgraded = |name: &str, primary: &[&str], seed: u64| {
        let recipe = ImageRecipe::new(name, primary).with_user_data(768, seed);
        ImageBuilder::new(&w.catalog, &w.template)
            .build(&recipe)
            .unwrap()
    };
    let setup = vec![
        publish(w.build_image("mini")),
        publish(w.build_image("lamp")),
    ];
    let mut ops = Vec::new();
    for _ in 0..ROUNDS {
        ops.push(publish(w.build_image("redis")));
        ops.push(publish(w.build_image("nginx")));
        ops.push(publish(w.build_image("lamp")));
        ops.push(publish(upgraded("redis", &["redis-server", "nginx"], 11)));
        ops.push(publish(upgraded("nginx", &["nginx", "redis-server"], 12)));
        ops.push(Op::Delete("redis"));
        ops.push(Op::Delete("nginx"));
    }
    (setup, ops)
}

/// Sets the flag when dropped, so a panicking mutator still releases the
/// observers.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn observers_see_only_whole_operations() {
    let w = Arc::new(World::small());
    let (setup, ops) = script(&w);

    // Sequential twin: every footprint the repository has between ops.
    let twin = ExpelliarmusRepo::new(w.env());
    let mut between: HashSet<u64> = HashSet::new();
    for op in setup.iter().chain(&ops) {
        apply(&twin, &w, op).unwrap();
        between.insert(twin.repo_bytes());
    }
    let final_bytes = twin.repo_bytes();

    let repo = Arc::new(ExpelliarmusRepo::new(w.env()));
    for op in &setup {
        apply(&repo, &w, op).unwrap();
    }

    // Workers start together and report over a channel, so the main
    // thread can time out on them instead of joining a stuck one.
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let (tx, rx) = mpsc::channel();
    let spawn = |name: &'static str, work: Box<dyn FnOnce() -> Result<(), String> + Send>| {
        let (tx, start) = (tx.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            let _ = tx.send((name, work()));
        })
    };

    let mutator = spawn("mutator", {
        let (repo, w, done) = (Arc::clone(&repo), Arc::clone(&w), Arc::clone(&done));
        Box::new(move || {
            let _done = SetOnDrop(done);
            ops.iter().try_for_each(|op| apply(&repo, &w, op))
        })
    });

    let auditor = spawn("auditor", {
        let (repo, done) = (Arc::clone(&repo), Arc::clone(&done));
        Box::new(move || {
            let mut looks = 0usize;
            while !done.load(Ordering::SeqCst) || looks < MIN_LOOKS {
                repo.check_integrity()
                    .map_err(|e| format!("look {looks}: {e}"))?;
                let bytes = repo.repo_bytes();
                if !between.contains(&bytes) {
                    return Err(format!("look {looks}: repo_bytes {bytes} is mid-operation"));
                }
                looks += 1;
            }
            Ok(())
        })
    });

    let retriever = spawn("retriever", {
        let (repo, w, done) = (Arc::clone(&repo), Arc::clone(&w), Arc::clone(&done));
        Box::new(move || {
            let sources = [w.build_image("lamp"), w.build_image("mini")];
            let mut looks = 0usize;
            while !done.load(Ordering::SeqCst) || looks < MIN_LOOKS {
                let source = &sources[looks % sources.len()];
                let request = RetrieveRequest::for_image(source, &w.catalog);
                let (got, _) = repo
                    .retrieve(&w.catalog, &request)
                    .map_err(|e| format!("retrieve {}: {e}", source.name))?;
                if semantic_fingerprint(&w.catalog, &got)
                    != semantic_fingerprint(&w.catalog, source)
                {
                    return Err(format!("{} came back different", source.name));
                }
                let (head, _) = repo
                    .retrieve_range(&w.catalog, &request, 0, 4096)
                    .map_err(|e| format!("range of {}: {e}", source.name))?;
                if head != got.disk.read_at(0, 4096).unwrap() {
                    return Err(format!("{}: range differs from the disk", source.name));
                }
                looks += 1;
            }
            Ok(())
        })
    });
    drop(tx);

    for _ in 0..3 {
        match rx.recv_timeout(WATCHDOG) {
            Ok((_, Ok(()))) => {}
            Ok((name, Err(why))) => panic!("{name}: {why}"),
            Err(RecvTimeoutError::Timeout) => panic!("deadlock: a worker is stuck"),
            Err(RecvTimeoutError::Disconnected) => panic!("a worker panicked"),
        }
    }
    for worker in [mutator, auditor, retriever] {
        worker.join().unwrap();
    }
    repo.check_integrity_deep().unwrap();
    assert_eq!(repo.repo_bytes(), final_bytes);
}
