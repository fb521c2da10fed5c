//! Allocation callsite capture and interning.
//!
//! "In order to precisely report the origins of heap objects with false
//! sharing problems, PREDATOR maintains detailed information so it can
//! report source code level information for each heap object. To obtain
//! callsite information, PREDATOR intercepts all memory allocations … and
//! relies on the `backtrace()` function" (§2.3.2).
//!
//! Our workloads are Rust functions, so instead of unwinding we capture
//! `file:line` frames explicitly: leaf frames via
//! [`std::panic::Location::caller`] (the [`Callsite::here`] constructor is
//! `#[track_caller]`), outer frames pushed by the workload where the paper's
//! reports show multi-frame stacks (e.g. Figure 5's
//! `./stddefines.h:53` / `./linear_regression-pthread.c:133`).
//!
//! Callsites are interned into dense [`CallsiteId`]s so per-object metadata
//! stays a single `u32`.

use std::collections::HashMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// One stack frame: source file and line.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// Source file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
}

impl Frame {
    /// Creates a frame.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        Frame {
            file: file.into(),
            line,
        }
    }
}

impl std::fmt::Display for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// An allocation call stack, innermost frame first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Callsite {
    /// Frames, innermost (the allocation call itself) first.
    pub frames: Vec<Frame>,
}

impl Callsite {
    /// Captures the caller's location as a single-frame callsite.
    #[track_caller]
    pub fn here() -> Self {
        let loc = std::panic::Location::caller();
        Callsite {
            frames: vec![Frame::new(loc.file(), loc.line())],
        }
    }

    /// Builds a callsite from explicit frames (innermost first).
    pub fn from_frames(frames: Vec<Frame>) -> Self {
        Callsite { frames }
    }

    /// An anonymous callsite for internal allocations.
    pub fn unknown() -> Self {
        Callsite {
            frames: vec![Frame::new("<unknown>", 0)],
        }
    }
}

impl std::fmt::Display for Callsite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for frame in &self.frames {
            writeln!(f, "{frame}")?;
        }
        Ok(())
    }
}

/// Dense identifier for an interned [`Callsite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CallsiteId(pub u32);

/// Thread-safe callsite interner.
///
/// Interning the same stack twice yields the same id; lookup by id is O(1).
#[derive(Debug, Default)]
pub struct CallsiteTable {
    inner: Mutex<TableInner>,
}

#[derive(Debug, Default)]
struct TableInner {
    by_site: HashMap<Callsite, CallsiteId>,
    sites: Vec<Callsite>,
}

impl CallsiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `site`, returning its dense id.
    pub fn intern(&self, site: Callsite) -> CallsiteId {
        let mut inner = self.inner.lock().unwrap();
        if let Some(&id) = inner.by_site.get(&site) {
            return id;
        }
        let id = CallsiteId(inner.sites.len() as u32);
        inner.sites.push(site.clone());
        inner.by_site.insert(site, id);
        id
    }

    /// Returns the callsite for `id`, if it exists.
    pub fn resolve(&self, id: CallsiteId) -> Option<Callsite> {
        self.inner.lock().unwrap().sites.get(id.0 as usize).cloned()
    }

    /// Number of distinct interned callsites.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().sites.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn here_captures_this_file() {
        let site = Callsite::here();
        assert_eq!(site.frames.len(), 1);
        assert!(site.frames[0].file.ends_with("callsite.rs"));
        assert!(site.frames[0].line > 0);
    }

    #[test]
    fn display_matches_figure5_shape() {
        let site = Callsite::from_frames(vec![
            Frame::new("./stddefines.h", 53),
            Frame::new("./linear_regression-pthread.c", 133),
        ]);
        assert_eq!(
            site.to_string(),
            "./stddefines.h:53\n./linear_regression-pthread.c:133\n"
        );
    }

    #[test]
    fn interning_is_idempotent() {
        let t = CallsiteTable::new();
        let a = t.intern(Callsite::from_frames(vec![Frame::new("a.rs", 1)]));
        let b = t.intern(Callsite::from_frames(vec![Frame::new("b.rs", 2)]));
        let a2 = t.intern(Callsite::from_frames(vec![Frame::new("a.rs", 1)]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let t = CallsiteTable::new();
        let site = Callsite::from_frames(vec![Frame::new("x.rs", 7)]);
        let id = t.intern(site.clone());
        assert_eq!(t.resolve(id), Some(site));
        assert_eq!(t.resolve(CallsiteId(99)), None);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = std::sync::Arc::new(CallsiteTable::new());
        let ids: Vec<CallsiteId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let t = t.clone();
                    s.spawn(move || t.intern(Callsite::from_frames(vec![Frame::new("same.rs", 1)])))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.iter().all(|&i| i == ids[0]));
        assert_eq!(t.len(), 1);
    }
}
