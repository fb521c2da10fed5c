//! Sharded offline analysis: one streaming loop in which the thread that
//! decodes the trace is itself a shard worker, an independent detector per
//! shard, one merged report.
//!
//! With one shard the trace is decoded once, straight into one detector.
//! With more, a planning pass first tallies events per cache line, cuts the
//! touched lines into clusters and assigns those to shards; the replay then
//! feeds shard 0 — the reader's *home*, the heaviest — inline and batches
//! only the other shards' events to threads, one per shard given work.
//!
//! ## Why line sharding is sound
//!
//! Every piece of detector state — per-line access histories, word
//! histograms, invalidation counts, prediction units — is keyed by cache
//! line, and an access to line `L` can only read or write state for lines
//! within `r = (1 << max_scale_log2) − 1` of `L` (neighbour promotion,
//! the virtual-line analysis window, and unit attachment all reach at most
//! `r`). Two accesses whose lines are more than `2r` apart therefore share
//! no state at all. We cluster the touched lines so that consecutive lines
//! stay together when their gap is ≤ `max(2r, 1)` (the `max(…, 1)` keeps
//! the two lines of a straddling access in one cluster), assign whole
//! clusters to shards, and route each event to exactly one shard. Within a
//! shard, events arrive in the original stream order (inline at home, over
//! a FIFO channel elsewhere); since clusters on different shards are
//! non-interacting, each shard's detector state is *identical* to the state
//! the sequential detector would hold for those lines.
//! [`predator_core::build_report_merged`] then re-sorts the per-shard
//! snapshots into global line order, reproducing the sequential report
//! byte for byte.
//!
//! Sampling is the one global the argument must cover: the skip counter is
//! kept **per tracked line**, not per detector, so it too shards cleanly.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::sync::mpsc::sync_channel;

use predator_core::{build_report_merged, Attribution, DetectorConfig, Predator, Report};
use predator_sim::{Access, CacheGeometry};

use crate::format::TraceMeta;
use crate::reader::{LossStats, TraceReader};

/// Events per batch handed from the reader to another shard's worker.
pub const DISPATCH_BATCH: usize = 4096;
/// Bounded depth of each worker's batch queue.
const CHANNEL_DEPTH: usize = 8;

/// Knobs for one offline analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Detector configuration every shard runs with.
    pub det: DetectorConfig,
    /// Shard count (≥ 1; clusters may cap the useful number).
    pub shards: usize,
}

impl AnalyzeConfig {
    /// Detector config + shard count.
    pub fn new(det: DetectorConfig, shards: usize) -> Self {
        AnalyzeConfig {
            det,
            shards: shards.max(1),
        }
    }
}

/// Result of an offline analysis run.
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// The merged report — identical to what a sequential replay produces.
    pub report: Report,
    /// Events delivered to shard detectors.
    pub events: u64,
    /// Shards that actually received work.
    pub shards_used: usize,
    /// Line clusters found in the trace.
    pub clusters: usize,
    /// Trace damage encountered while reading (zeros for in-memory events).
    pub loss: LossStats,
    /// Attribution metadata was present and applied.
    pub meta_applied: bool,
}

/// Cluster link distance for a detector config: `max(2r, 1)` with
/// `r = (1 << max_scale_log2) − 1` (see the module doc).
fn link_gap(det: &DetectorConfig) -> u64 {
    let r = (1u64 << det.max_scale_log2) - 1;
    (2 * r).max(1)
}

/// Where the planning pass and the replay get their events: a slice at a
/// time, so their loops are slice loops. A [`TraceReader`] hands over each
/// chunk as it decodes it; events already in memory are one chunk.
trait EventChunks {
    /// The next run of events, in stream order; `None` once dry.
    fn next_chunk(&mut self) -> Option<&[Access]>;
}

impl<R: Read> EventChunks for TraceReader<R> {
    fn next_chunk(&mut self) -> Option<&[Access]> {
        TraceReader::next_chunk(self)
    }
}

impl EventChunks for Option<&[Access]> {
    fn next_chunk(&mut self) -> Option<&[Access]> {
        self.take()
    }
}

/// Which cache lines a trace touches: a flat array over the `lines` lines of
/// the traced range, from global line `first` — an event count per line for
/// planning (`per_cell == 1`), a bit per line when only the cluster count is
/// wanted (`per_cell == 64`) — and an ordered map for strays outside it.
struct LineTally {
    geom: CacheGeometry,
    first: u64,
    lines: u64,
    per_cell: u64,
    cells: Vec<u64>,
    /// The in-range line whose bit the last event set: a run of events on
    /// one line marks it once.
    marked: u64,
    strays: BTreeMap<u64, u64>,
}

impl LineTally {
    fn new(cfg: &AnalyzeConfig, (base, size): (u64, u64), per_cell: u64) -> Self {
        let geom = cfg.det.geometry;
        let first = geom.line_index(base);
        let lines = base.saturating_add(size).div_ceil(geom.line_size()) - first;
        LineTally {
            geom,
            first,
            lines,
            per_cell,
            cells: vec![0; lines.div_ceil(per_cell) as usize],
            marked: u64::MAX,
            strays: BTreeMap::new(),
        }
    }

    #[inline]
    fn add(&mut self, a: &Access) {
        let lines = self.geom.lines_touched(a.addr, a.size);
        let i = lines.start().wrapping_sub(self.first);
        if lines.start() == lines.end() && i < self.lines {
            // What nearly every event is: one line of the traced range.
            if self.per_cell == 1 {
                self.cells[i as usize] += 1;
            } else if i != self.marked {
                self.cells[(i / 64) as usize] |= 1 << (i % 64);
                self.marked = i;
            }
            return;
        }
        for line in lines {
            let i = line.wrapping_sub(self.first);
            if i >= self.lines {
                *self.strays.entry(line).or_default() += 1;
            } else if self.per_cell == 1 {
                self.cells[i as usize] += 1;
            } else {
                self.cells[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
    }

    /// Cuts the touched lines into clusters `(first line, last line,
    /// weight)`, ascending: a line joins the cluster before it when their
    /// gap is ≤ `link`. The weight is events, or lines for a bitmap.
    fn clusters(&self, link: u64) -> Vec<(u64, u64, u64)> {
        let per = self.per_cell;
        let cells = self.cells.iter().enumerate().filter(|(_, &c)| c != 0);
        let flat = cells.flat_map(|(i, &c)| {
            let weight = move |bit| if per == 1 { c } else { c >> bit & 1 };
            (0..per).map(move |bit| (self.first + i as u64 * per + bit, weight(bit)))
        });
        let below = self.strays.range(..self.first).map(|(&l, &n)| (l, n));
        let above = self.strays.range(self.first..).map(|(&l, &n)| (l, n));
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        for (line, n) in below.chain(flat).chain(above).filter(|&(_, n)| n != 0) {
            match out.last_mut() {
                Some(c) if line - c.1 <= link => (c.1, c.2) = (line, c.2 + n),
                _ => out.push((line, line, n)),
            }
        }
        out
    }
}

/// Maps every touched cache line to its shard: one `(first line, shard)`
/// entry per cluster, ascending, owning the lines up to the next entry's.
/// Shard 0 is the *home* shard, the heaviest: the trace reader feeds it
/// inline, so the largest share of events never leaves the decoding thread.
struct ShardPlan {
    table: Vec<(u64, usize)>,
    /// Shards holding at least one cluster: `0..shards_used`.
    shards_used: usize,
}

impl ShardPlan {
    /// The planning pass: tallies `events` per line and assigns the clusters
    /// longest-processing-time-first to the least-loaded shard, which keeps
    /// the heaviest from sharing a shard while lighter ones exist.
    fn scan(mut events: impl EventChunks, range: (u64, u64), cfg: &AnalyzeConfig) -> ShardPlan {
        let _sp = predator_obs::span("trace_scan");
        let mut tally = LineTally::new(cfg, range, 1);
        while let Some(chunk) = events.next_chunk() {
            chunk.iter().for_each(|a| tally.add(a));
        }
        let clusters = tally.clusters(link_gap(&cfg.det));
        // A stable sort: ties keep line order, so the plan is deterministic
        // (not that correctness needs it — any assignment merges the same).
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(clusters[i].2));
        let mut load = vec![0u64; cfg.shards];
        let mut table: Vec<(u64, usize)> = clusters.iter().map(|c| (c.0, 0)).collect();
        for i in order {
            let shard = (0..cfg.shards).min_by_key(|&s| (load[s], s)).unwrap();
            load[shard] += clusters[i].2;
            table[i].1 = shard;
        }
        // Swap labels so that the heaviest shard is shard 0.
        let home = (0..cfg.shards).rev().max_by_key(|&s| load[s]).unwrap();
        for (_, shard) in table.iter_mut().filter(|e| e.1 == 0 || e.1 == home) {
            *shard = home - *shard;
        }
        let shards_used = load.iter().filter(|&&w| w > 0).count().max(1);
        ShardPlan { table, shards_used }
    }

    /// Shard owning `line`. A line below every cluster was never seen by
    /// the planning pass and no detector holds state for it: home will do.
    #[inline]
    fn shard_of(&self, line: u64) -> usize {
        let i = self.table.partition_point(|&(first, _)| first <= line);
        i.checked_sub(1).map_or(0, |i| self.table[i].1)
    }
}

/// Who gets an event of the replay: the plan's shard for its line, or — one
/// shard, no plan — the caller, which then marks the lines it sees itself.
enum Route {
    Planned(ShardPlan),
    Alone(LineTally),
}

/// The streaming loop: feeds `events` to one detector per used shard and
/// merges them. The caller is shard 0's worker; other shards get a thread
/// and their events in batches. Without a plan (one shard) it is the only
/// worker and marks the lines it sees. `tail` runs on the dry stream, for
/// what a `.ptrace` knows only then: its META chunk and its loss.
///
/// Each detector has exactly one driver at a time, so none pays for an
/// atomic read-modify-write: shard 0 stays with the caller, every other one
/// is lent `&mut` to its worker, which claims it, and claimed back for the
/// merge once the workers are joined.
fn replay<I: EventChunks, M: Borrow<TraceMeta>>(
    events: &mut I,
    plan: Option<ShardPlan>,
    range: (u64, u64),
    cfg: &AnalyzeConfig,
    tail: impl FnOnce(&mut I) -> (Option<M>, LossStats),
) -> AnalyzeOutcome {
    let mut route = match plan {
        Some(plan) => Route::Planned(plan),
        None => Route::Alone(LineTally::new(cfg, range, 64)),
    };
    let shards_used = match &route {
        Route::Planned(plan) => plan.shards_used,
        Route::Alone(_) => 1,
    };
    let mut rts: Vec<Predator> = (0..shards_used)
        .map(|_| Predator::new(cfg.det, range.0, range.1))
        .collect();
    let (home, away) = rts.split_first_mut().expect("at least one shard");
    let mut delivered = 0u64;
    std::thread::scope(|s| {
        let mut lanes = Vec::with_capacity(shards_used - 1);
        let mut workers = Vec::with_capacity(shards_used - 1);
        for rt in away.iter_mut() {
            let (tx, rx) = sync_channel::<Vec<Access>>(CHANNEL_DEPTH);
            workers.push(s.spawn(move || {
                let _sp = predator_obs::span("shard_analyze");
                rt.claim();
                for a in rx.into_iter().flatten() {
                    rt.handle_access(a.tid, a.addr, a.size, a.kind);
                }
            }));
            lanes.push((tx, Vec::with_capacity(DISPATCH_BATCH)));
        }
        let _sp = predator_obs::span(match shards_used {
            1 => "shard_analyze",
            _ => "shard_dispatch",
        });
        while let Some(chunk) = events.next_chunk() {
            delivered += chunk.len() as u64;
            let plan = match &mut route {
                Route::Planned(plan) => plan,
                Route::Alone(seen) => {
                    for a in chunk {
                        seen.add(a);
                        home.handle_access(a.tid, a.addr, a.size, a.kind);
                    }
                    continue;
                }
            };
            for &a in chunk {
                let line = cfg.det.geometry.line_index(a.addr);
                let Some(away) = plan.shard_of(line).checked_sub(1) else {
                    home.handle_access(a.tid, a.addr, a.size, a.kind);
                    continue;
                };
                let (tx, buf) = &mut lanes[away];
                buf.push(a);
                if buf.len() >= DISPATCH_BATCH {
                    let full = std::mem::replace(buf, Vec::with_capacity(DISPATCH_BATCH));
                    // A send only fails if the worker panicked; propagate.
                    tx.send(full).expect("shard worker died");
                }
            }
        }
        for (tx, buf) in lanes {
            tx.send(buf).expect("shard worker died");
        }
        // Dropping the senders ends each worker's loop. Joined by handle: the
        // scope only waits for closures, not thread-local exit flushes.
        for w in workers {
            w.join().expect("shard worker panicked");
        }
    });
    away.iter_mut().for_each(Predator::claim);
    let (meta, loss) = tail(events);
    let meta = meta.as_ref().map(M::borrow);
    if let Some(m) = meta {
        m.apply_globals(&rts[0]);
    }
    let dir = meta.map(TraceMeta::directory);
    let attr = dir
        .as_ref()
        .map_or(Attribution::None, Attribution::Directory);
    let refs: Vec<&Predator> = rts.iter().collect();
    AnalyzeOutcome {
        report: build_report_merged(&refs, attr),
        events: delivered,
        shards_used,
        clusters: match route {
            Route::Planned(plan) => plan.table.len(),
            Route::Alone(seen) => seen.clusters(link_gap(&cfg.det)).len(),
        },
        loss,
        meta_applied: meta.is_some(),
    }
}

/// Analyses an in-memory event slice.
pub fn analyze_events(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
) -> AnalyzeOutcome {
    let range = (base, size);
    let plan = (cfg.shards > 1).then(|| ShardPlan::scan(Some(events), range, cfg));
    let tail = |_: &mut _| (meta, LossStats::default());
    replay(&mut Some(events), plan, range, cfg, tail)
}

/// Offline analysis of a `.ptrace` file, opened through the one door
/// ([`TraceReader::open`]; JSONL goes through `predator trace import` first).
///
/// The traced address range and attribution metadata come from the file
/// itself, which streams in bounded memory and turns damage past the header
/// into counted loss. The two trailing parameters are unused — they were
/// the range for header-less JSONL input — and stay for the callers' sake.
pub fn analyze_file(
    path: &Path,
    cfg: &AnalyzeConfig,
    _fallback_base: u64,
    _fallback_size: u64,
) -> Result<AnalyzeOutcome, String> {
    let mut r = TraceReader::open(path)?;
    let range = (r.base(), r.size());
    let plan = match cfg.shards {
        0 | 1 => None,
        _ => Some(ShardPlan::scan(TraceReader::open(path)?, range, cfg)),
    };
    let tail = |r: &mut TraceReader<_>| (r.take_meta(), r.stats());
    Ok(replay(&mut r, plan, range, cfg, tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::build_report;
    use predator_sim::ThreadId;

    /// Two threads ping-pong on adjacent words in several well-separated
    /// regions — multiple clusters, real false sharing in each.
    fn multi_cluster_trace(regions: u64, per_region: u64, base: u64) -> Vec<Access> {
        let mut out = Vec::new();
        for i in 0..per_region {
            for r in 0..regions {
                let rbase = base + r * 0x10000;
                out.push(Access::write(
                    ThreadId((i % 2) as u16),
                    rbase + (i % 2) * 8,
                    8,
                ));
            }
        }
        out
    }

    fn sequential_report(events: &[Access], base: u64, size: u64, det: &DetectorConfig) -> Report {
        let rt = Predator::new(*det, base, size);
        for a in events {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
        build_report(&rt, None)
    }

    /// Findings + run stats, serialised. The `obs` section is excluded: it
    /// snapshots process-global telemetry, which accumulates across runs.
    fn essence(r: &Report) -> String {
        format!(
            "{}\n{}",
            serde_json::to_string(&r.findings).unwrap(),
            serde_json::to_string(&r.stats).unwrap()
        )
    }

    const RANGE: (u64, u64) = (0x1000, 1 << 20);

    fn cfg(shards: usize) -> AnalyzeConfig {
        AnalyzeConfig::new(DetectorConfig::sensitive(), shards) // link gap 2
    }

    /// The planning pass over `events`, asked for `shards`.
    fn scan(events: impl Iterator<Item = Access>, shards: usize) -> ShardPlan {
        let events: Vec<Access> = events.collect();
        ShardPlan::scan(Some(&events[..]), RANGE, &cfg(shards))
    }

    /// `n` writes to the first word of in-range line `line` (64 B lines).
    fn on_line(line: u64, n: usize) -> impl Iterator<Item = Access> {
        std::iter::repeat_n(Access::write(ThreadId(0), line * 64, 8), n)
    }

    #[test]
    fn plan_separates_distant_clusters_and_links_near_lines() {
        let events = on_line(100, 10)
            .chain(on_line(200, 20)) // far away → new cluster
            .chain(on_line(102, 5)) // gap 2 ≤ link → same cluster as 100
            .chain(on_line(201, 1));
        let plan = scan(events, 2);
        assert_eq!(plan.table.len(), 2);
        assert_eq!(plan.shard_of(100), plan.shard_of(102));
        assert_eq!(plan.shard_of(200), plan.shard_of(201));
        assert_ne!(plan.shard_of(100), plan.shard_of(200));
        assert_eq!(plan.shards_used, 2);
    }

    #[test]
    fn single_cluster_uses_one_shard() {
        let plan = scan(on_line(70, 100).chain(on_line(71, 100)), 8);
        assert_eq!((plan.table.len(), plan.shards_used), (1, 1));
    }

    #[test]
    fn home_shard_is_the_heaviest_and_used_shards_are_dense() {
        // LPT puts 50 on shard 0, 40 on shard 1, 30 on shard 2, then 25 joins
        // 30: shard 2 ends heaviest (55) and must be relabelled home.
        let events = on_line(100, 50)
            .chain(on_line(200, 40))
            .chain(on_line(300, 30))
            .chain(on_line(400, 25));
        let plan = scan(events, 3);
        assert_eq!(plan.shards_used, 3);
        assert_eq!((plan.shard_of(300), plan.shard_of(400)), (0, 0));
        let mut others = [plan.shard_of(100), plan.shard_of(200)];
        others.sort_unstable();
        assert_eq!(others, [1, 2], "used shards stay 0..shards_used");
        // Lines the planning pass never saw route somewhere valid.
        assert_eq!(plan.shard_of(5), 0);
        assert!(plan.shard_of(u64::MAX) < 3);
    }

    /// The parent commit's planner: a `BTreeMap` insert per touched line,
    /// clusters cut at gaps > link. Returns `(first, last, events)`.
    fn reference_clusters(events: &[Access], link: u64) -> Vec<(u64, u64, u64)> {
        let geom = DetectorConfig::sensitive().geometry;
        let mut counts = BTreeMap::new();
        for a in events {
            for line in geom.lines_touched(a.addr, a.size) {
                *counts.entry(line).or_insert(0u64) += 1;
            }
        }
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        for (line, n) in counts {
            match out.last_mut() {
                Some(c) if line - c.1 <= link => (c.1, c.2) = (line, c.2 + n),
                _ => out.push((line, line, n)),
            }
        }
        out
    }

    #[test]
    fn tally_matches_the_btreemap_planner_in_and_out_of_range() {
        // A range with room below it for the low stray.
        let (base, size) = (0x10_0000u64, 1u64 << 20);
        let end = base + size;
        let w = |addr, size| Access::write(ThreadId(1), addr, size);
        let events = vec![
            w(base - 0x4000, 8), // stray far below
            w(base - 4, 8),      // straddles into the first in-range line
            w(base + 64, 8),
            w(base + 64, 8),
            w(base + 63 * 64, 8),      // last bit of the first bitmap cell...
            w(base + 64 * 64 + 60, 8), // ...links to the next cell, straddling
            w(base + 0x8000, 1),
            w(end - 4, 8),      // straddles out of the range
            w(end + 0x100, 8),  // stray just above: still linked (gap 2)
            w(end + 0x9000, 8), // stray far above
            w(u64::MAX - 7, 8),
        ];
        // In an empty range every line is a stray.
        for (range, label) in [((base, size), "header range"), ((0, 0), "empty range")] {
            let want = reference_clusters(&events, 2);
            let mut counts = LineTally::new(&cfg(1), range, 1);
            let mut bits = LineTally::new(&cfg(1), range, 64);
            for a in &events {
                counts.add(a);
                bits.add(a);
            }
            assert_eq!(counts.clusters(2), want, "{label}: counts");
            let spans = |c: Vec<(u64, u64, u64)>| -> Vec<(u64, u64)> {
                c.into_iter()
                    .map(|(first, last, _)| (first, last))
                    .collect()
            };
            assert_eq!(spans(bits.clusters(2)), spans(want), "{label}: bitmap");
        }
    }

    #[test]
    fn straddling_access_stays_in_one_shard() {
        let a = Access::write(ThreadId(0), 0x2000 - 4, 8); // straddles 2 lines
        let plan = scan(std::iter::once(a), 2);
        assert_eq!(plan.table.len(), 1);
        assert_eq!(plan.shard_of(0x2000 / 64 - 1), plan.shard_of(0x2000 / 64));
    }

    #[test]
    fn sharded_matches_sequential_exactly() {
        let base = 0x4000_0000u64;
        let size = 1u64 << 20;
        let events = multi_cluster_trace(6, 400, base);
        let det = DetectorConfig::sensitive();
        let seq = sequential_report(&events, base, size, &det);
        assert!(!seq.findings.is_empty(), "workload must produce findings");
        for shards in [1usize, 2, 4, 8] {
            let out = analyze_events(&events, base, size, None, &AnalyzeConfig::new(det, shards));
            assert_eq!(out.events, events.len() as u64);
            assert_eq!(out.clusters, 6);
            assert_eq!(
                essence(&out.report),
                essence(&seq),
                "shards={shards} diverged from sequential"
            );
        }
    }

    #[test]
    fn sharded_matches_sequential_with_sampling_and_prediction() {
        let base = 0x4000_0000u64;
        let size = 1u64 << 20;
        let events = multi_cluster_trace(4, 2000, base);
        let det = DetectorConfig::paper(); // sampling + prediction on
        let seq = sequential_report(&events, base, size, &det);
        let out = analyze_events(&events, base, size, None, &AnalyzeConfig::new(det, 4));
        assert_eq!(essence(&out.report), essence(&seq));
    }
}
