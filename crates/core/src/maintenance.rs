//! Background machinery of the controller: periodic flush of dirty deltas
//! to the HDD log, the similarity scan (paper §4.2), reference promotion /
//! demotion, and the three replacement policies of §4.3.

use crate::controller::{EvictedState, Icash};
use crate::delta_log::LogEntry;
use crate::table::VbId;
use crate::virtual_block::Role;
use icash_storage::block::{Lba, BLOCK_SIZE};
use icash_storage::cpu::CpuOp;
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};

impl Icash {
    /// Per-I/O bookkeeping: counts toward the flush interval and the scan
    /// interval, running either phase when due.
    pub(crate) fn after_io(&mut self, at: Ns, ctx: &mut IoCtx<'_>) {
        // The online rebuild rides the host I/O stream: each I/O funds one
        // rate-limited chunk of slot repopulation (no-op unless rebuilding).
        self.rebuild_tick(at);
        self.ios_since_flush += 1;
        self.ios_since_scan += 1;
        if self.ios_since_flush >= self.cfg.flush_interval
            || self.dirty_bytes >= self.cfg.flush_dirty_bytes
        {
            self.flush_dirty(at, ctx);
        }
        if self.ios_since_scan >= self.cfg.scan_interval {
            self.ios_since_scan = 0;
            self.scan(at, ctx);
        }
        if self.fault_plan.scrub_interval > 0 {
            self.ios_since_scrub += 1;
            if self.ios_since_scrub >= self.fault_plan.scrub_interval {
                self.ios_since_scrub = 0;
                self.scrub(at, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Flushing
    // ------------------------------------------------------------------

    /// One flush trigger of the staged write pipeline.
    ///
    /// At `group_commit_depth <= 1` this is the classic synchronous cycle
    /// ([`Icash::commit_now`]): encode, pack, and write every dirty delta to
    /// the HDD log immediately — byte-identical to the pre-pipeline
    /// controller. Above 1 the trigger only *stages* the encoded deltas;
    /// every `depth`-th staged trigger drains the whole buffer into one
    /// sequential multi-entry append ([`Icash::commit_staged`]).
    pub(crate) fn flush_dirty(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        if self.cfg.group_commit_depth <= 1 {
            return self.commit_now(now, ctx);
        }
        self.ios_since_flush = 0;
        self.stage_dirty(now);
        if self.staging.batches() >= self.cfg.group_commit_depth {
            self.commit_staged(now)
        } else {
            now
        }
    }

    /// A *forced* full drain of the pipeline: stages any remaining dirty
    /// deltas and commits everything staged, regardless of the configured
    /// depth. Used by barriers, shutdown, and the replacement policies —
    /// anywhere correctness needs "no delta is RAM-only after this".
    pub(crate) fn flush_all(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        if self.cfg.group_commit_depth <= 1 {
            return self.commit_now(now, ctx);
        }
        self.ios_since_flush = 0;
        self.stage_dirty(now);
        self.commit_staged(now)
    }

    /// The synchronous encode → pack → flush cycle: packs every dirty delta
    /// into log blocks and writes them to the HDD in one sequential
    /// operation. Returns the write completion instant.
    fn commit_now(&mut self, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
        // The watermark at entry: every write accepted so far either has a
        // dirty delta (drained here) or is already on stable media (the
        // controller never leaves accepted data merely RAM-dirty outside
        // the dirty set), so finishing this flush makes them all durable.
        let watermark = self.staging.progress.reserved();
        self.ios_since_flush = 0;
        if self.dirty.is_empty() {
            self.staging.progress.complete_through(watermark);
            return now;
        }
        let mut ids: Vec<usize> = self.dirty.drain().collect();
        ids.sort_unstable(); // determinism
        let n_entries = ids.len() as u32;
        let mut flushed: Vec<VbId> = Vec::with_capacity(ids.len());
        let mut entries = Vec::with_capacity(ids.len());
        for raw in ids {
            let id = VbId::from_raw(raw);
            let gen = self.next_gen();
            let vb = self.table.get(id);
            debug_assert!(vb.dirty_delta);
            let delta = vb
                .delta
                .as_ref()
                .expect("dirty implies resident")
                .delta
                .clone();
            let reference = vb.reference.unwrap_or(vb.lba);
            entries.push(LogEntry::new(vb.lba, reference, gen, delta));
            flushed.push(id);
        }
        let report = self.log.append(entries);
        // A transient write fault clears on retry; should every retry fail,
        // the packed blocks are still buffered and the drive remaps on the
        // next sequential append, so the flush proceeds either way. With a
        // device queue the append parks in the drive's write-behind cache
        // instead (see [`Icash::hdd_log_append`]).
        let t = self.hdd_log_append(
            now,
            self.cfg.log_start() + report.first_block,
            report.blocks_written,
        );
        for (id, &loc) in flushed.iter().zip(report.entry_locs.iter()) {
            let vb = self.table.get_mut(*id);
            vb.dirty_delta = false;
            vb.log_loc = Some(loc);
            if vb.role == Role::Associate {
                // Content is now recoverable from reference + logged delta.
                vb.dirty_data = false;
            }
        }
        self.dirty_bytes = 0;
        self.stats.flushes += 1;
        self.stats.log_blocks_written += report.blocks_written as u64;
        let blocks = report.blocks_written;
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::LogFlush {
                entries: n_entries,
                blocks,
            },
        });
        self.staging.progress.complete_through(watermark);
        if self.log.is_nearly_full() {
            self.clean_log(t);
        }
        t
    }

    /// Stage phase of the pipeline (`group_commit_depth > 1` only): encodes
    /// every dirty delta into a framed [`LogEntry`] and moves it into the
    /// staging buffer. No device I/O happens here; the deltas stay
    /// readable through the buffer (read-your-writes) until the commit.
    fn stage_dirty(&mut self, now: Ns) {
        if self.dirty.is_empty() {
            return;
        }
        let ticket = self.staging.progress.reserved();
        let mut ids: Vec<usize> = self.dirty.drain().collect();
        ids.sort_unstable(); // determinism
        for raw in ids {
            let id = VbId::from_raw(raw);
            let gen = self.next_gen();
            let vb = self.table.get(id);
            debug_assert!(vb.dirty_delta);
            let delta = vb
                .delta
                .as_ref()
                .expect("dirty implies resident")
                .delta
                .clone();
            let reference = vb.reference.unwrap_or(vb.lba);
            let lba = vb.lba;
            let bytes = delta.len() as u32;
            let entry = LogEntry::new(lba, reference, gen, delta);
            {
                let vb = self.table.get_mut(id);
                vb.dirty_delta = false;
                vb.staged = true;
                if vb.role == Role::Associate {
                    // Recoverable from reference + staged delta once the
                    // group commit lands; the full copy needs no home write.
                    vb.dirty_data = false;
                }
            }
            self.staging.push(lba, entry, ticket);
            self.stats.staged_entries += 1;
            self.array.tracer().emit(|| TraceEvent {
                at: now,
                kind: TraceKind::StageEnter {
                    lba: lba.raw(),
                    ticket: ticket.as_u64(),
                    bytes,
                },
            });
        }
        self.dirty_bytes = 0;
        self.stats.staging_high_water = self.stats.staging_high_water.max(self.staging.bytes());
        self.staging.finish_batch();
    }

    /// Commit phase of the pipeline: drains the whole staging buffer into
    /// one sequential multi-entry log append (the group commit) and
    /// completes the ticket watermark it covers.
    fn commit_staged(&mut self, now: Ns) -> Ns {
        let watermark = self.staging.progress.reserved();
        let (staged, bytes) = self.staging.drain();
        if staged.is_empty() {
            // Everything staged was superseded (or nothing was staged):
            // accepted writes are all on stable media already.
            self.staging.progress.complete_through(watermark);
            return now;
        }
        debug_assert!(
            staged.iter().all(|s| s.ticket <= watermark),
            "staged tickets must sit below the commit watermark"
        );
        let entries: Vec<LogEntry> = staged.into_iter().map(|s| s.entry).collect();
        let n_entries = entries.len() as u32;
        let lbas: Vec<Lba> = entries.iter().map(|e| e.lba).collect();
        let report = self.log.append(entries);
        let t = self.hdd_log_append(
            now,
            self.cfg.log_start() + report.first_block,
            report.blocks_written,
        );
        for (lba, &loc) in lbas.iter().zip(report.entry_locs.iter()) {
            if let Some(id) = self.table.lookup(*lba) {
                let vb = self.table.get_mut(id);
                // Skip blocks re-dirtied or superseded since staging; their
                // newer state owns the log_loc pointer.
                if vb.staged {
                    vb.staged = false;
                    vb.log_loc = Some(loc);
                }
            }
        }
        self.stats.flushes += 1;
        self.stats.log_blocks_written += report.blocks_written as u64;
        self.stats.group_commits += 1;
        self.stats.group_commit_entries += n_entries as u64;
        self.stats.group_commit_bytes += bytes;
        let blocks = report.blocks_written;
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::LogFlush {
                entries: n_entries,
                blocks,
            },
        });
        let commit_bytes = bytes.min(u32::MAX as u64) as u32;
        self.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::GroupCommit {
                entries: n_entries,
                bytes: commit_bytes,
            },
        });
        self.staging.progress.complete_through(watermark);
        if self.log.is_nearly_full() {
            self.clean_log(t);
        }
        t
    }

    /// Compacts the delta log, dropping superseded entries, and rewrites
    /// the survivors sequentially from the start of the log region.
    pub(crate) fn clean_log(&mut self, now: Ns) {
        // The compaction rewrites the log region from the start, so any
        // appends still parked in the drive's write-behind cache must land
        // first — they hold positions the rewrite supersedes. Free without
        // a queue (the cache is always empty).
        let now = now.max(self.array.hdd_mut().flush_cache(now));
        // One LRU walk serves both the liveness census and the remap below:
        // neither `log.clean` nor the HDD write touches the table, so the
        // id set cannot go stale in between.
        let ids = self.table.head_ids(usize::MAX);
        // An entry is live iff the block's current state points at it.
        let mut expected: std::collections::HashMap<Lba, u32> = std::collections::HashMap::new();
        for &id in &ids {
            let vb = self.table.get(id);
            if let Some(loc) = vb.log_loc {
                expected.insert(vb.lba, loc);
            }
        }
        for (lba, state) in &self.evicted {
            if let EvictedState::InLog { loc, .. } = state {
                expected.insert(*lba, *loc);
            }
        }
        let (new_locs, blocks) = self.log.clean(|lba, loc| expected.get(&lba) == Some(&loc));
        if blocks > 0 {
            let _ = self.hdd_write_retry(
                now,
                self.cfg.log_start(),
                blocks.min(u32::MAX as u64) as u32,
            );
        }
        for id in ids {
            let lba = self.table.get(id).lba;
            if self.table.get(id).log_loc.is_some() {
                self.table.get_mut(id).log_loc = new_locs.get(&lba).copied();
            }
        }
        for (lba, state) in self.evicted.iter_mut() {
            if let EvictedState::InLog { loc, .. } = state {
                if let Some(new) = new_locs.get(lba) {
                    *loc = *new;
                }
            }
        }
        self.stats.log_cleans += 1;
        self.array.tracer().emit(|| TraceEvent {
            at: now,
            kind: TraceKind::LogClean,
        });
    }

    /// Clean-shutdown flush: staged and dirty deltas go to the log (one
    /// final group commit), dirty independent data goes to the HDD home
    /// area.
    pub(crate) fn shutdown_flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let mut t = self.flush_all(now, ctx);
        let mut dirty_data: Vec<VbId> = self
            .table
            .head_ids(usize::MAX)
            .into_iter()
            .filter(|&id| self.table.get(id).dirty_data && self.table.get(id).data.is_some())
            .collect();
        dirty_data.sort_by_key(|&id| self.home_pos(self.table.get(id).lba));
        t = self.write_home_batch(&dirty_data, t);
        // Durability: cached log appends must reach the media before the
        // flush reports completion. Free without a queue (cache is empty).
        t = t.max(self.array.hdd_mut().flush_cache(t));
        t
    }

    /// Writes a batch of dirty blocks to their HDD home positions. With a
    /// command queue configured (and the health machinery off — backoff
    /// owns per-op retry pacing), the whole batch goes through the NCQ
    /// scheduler so adjacent home positions coalesce into sequential
    /// transfers; otherwise this is exactly the classic per-block loop.
    pub(crate) fn write_home_batch(&mut self, ids: &[VbId], now: Ns) -> Ns {
        if self.cfg.queue.is_none() || self.health.is_some() {
            let mut t = now;
            for &id in ids {
                t = self.write_home(id, t);
            }
            return t;
        }
        let mut reqs = Vec::with_capacity(ids.len());
        for &id in ids {
            let (lba, content) = {
                let vb = self.table.get_mut(id);
                let content = vb.data.clone().expect("home write needs resident data");
                vb.dirty_data = false;
                (vb.lba, content)
            };
            reqs.push((self.home_pos(lba), 1u32));
            self.home_overlay.insert(lba, content);
        }
        self.hdd_write_batch_retry(now, &reqs)
    }

    /// Writes `id`'s cached data to its HDD home position and records it in
    /// the overlay. Clears the dirty-data flag.
    pub(crate) fn write_home(&mut self, id: VbId, now: Ns) -> Ns {
        let (lba, content) = {
            let vb = self.table.get_mut(id);
            let content = vb.data.clone().expect("home write needs resident data");
            vb.dirty_data = false;
            (vb.lba, content)
        };
        let pos = self.home_pos(lba);
        // Transient faults clear on retry; a persistently failing sector is
        // remapped by the drive on rewrite, so the overlay records the
        // intended content either way (never silently stale data).
        let t = self.hdd_write_retry(now, pos, 1).unwrap_or(now);
        self.home_overlay.insert(lba, content);
        t
    }

    // ------------------------------------------------------------------
    // The similarity scan (paper §4.2)
    // ------------------------------------------------------------------

    /// One scan phase: examine the `scan_window` most recent blocks, pick
    /// the most popular (by Heatmap) as new references, re-bind the rest.
    pub(crate) fn scan(&mut self, now: Ns, ctx: &mut IoCtx<'_>) {
        self.stats.scans += 1;
        let ids = self.table.head_ids(self.cfg.scan_window);

        // Rank scanned blocks by Heatmap popularity.
        let mut ranked: Vec<(VbId, u64)> = ids
            .iter()
            .map(|&id| {
                ctx.cpu.charge(CpuOp::Scan);
                let vb = self.table.get(id);
                (id, self.heatmap.popularity(&vb.sig))
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| self.table.get(a.0).lba.cmp(&self.table.get(b.0).lba))
        });

        // Promote the most popular non-references.
        let target = ((ids.len() as f64 * self.cfg.ref_fraction).ceil() as usize).max(1);
        let mut promoted = 0usize;
        for &(id, pop) in &ranked {
            if promoted >= target || pop == 0 {
                break;
            }
            let vb = self.table.get(id);
            if vb.role == Role::Reference || vb.data.is_none() {
                continue;
            }
            // A tightly bound associate gains nothing from promotion.
            if vb.role == Role::Associate {
                if let Some(cd) = &vb.delta {
                    if cd.delta.len() <= self.cfg.delta_threshold / 4 {
                        continue;
                    }
                }
            }
            if self.promote(id, now, ctx).is_none() {
                break; // out of SSD slots even after reclamation
            }
            promoted += 1;
        }

        // Re-bind the rest of the window against the (updated) reference
        // set. Already-bound associates are left alone; attempts are capped
        // so one scan never turns into an encode storm.
        let mut attempts = 0usize;
        for &id in &ids {
            if attempts >= 1024 {
                break;
            }
            let (role, has_data) = {
                let vb = self.table.get(id);
                (vb.role, vb.data.is_some())
            };
            // Only unbound blocks with resident data are worth an encode
            // attempt; bound associates are left alone.
            if role != Role::Independent || !has_data {
                continue;
            }
            let (content, sig) = {
                let vb = self.table.get(id);
                (vb.data.clone().expect("checked"), vb.sig)
            };
            attempts += 1;
            self.try_bind(id, &content, &sig, now, ctx);
        }

        // Age the Heatmap so popularity tracks the recent access mix.
        self.heatmap.decay();
    }

    /// Installs `id`'s current content into the SSD as a new reference
    /// block. Returns the slot used, or `None` if no slot could be found.
    pub(crate) fn promote(&mut self, id: VbId, now: Ns, _ctx: &mut IoCtx<'_>) -> Option<u64> {
        let lba = self.table.get(id).lba;
        let existing_slot = self.table.get(id).ssd_slot;
        let slot = match existing_slot {
            // Direct-written independents are already SSD-resident: adopt
            // the slot without another flash write.
            Some(s) => s,
            None => {
                // No free slot: promotion simply stops. Demote-to-promote
                // churn (each demotion is a mechanical home write) costs
                // far more than the marginal reference is worth.
                let s = self.alloc_slot()?;
                let content = self
                    .table
                    .get(id)
                    .data
                    .clone()
                    .expect("promotion needs data");
                if self.ssd_write_op(now, s).is_err() {
                    // Flash refused the program: skip this promotion.
                    self.free_slots.push(s);
                    self.stats.degraded_writes += 1;
                    return None;
                }
                self.ssd_install(s, content.clone());
                self.harden_slot(lba, &content, now);
                s
            }
        };
        self.unbind(id);
        self.drop_delta(id);
        self.unstage(id);
        if let Some(loc) = self.table.get_mut(id).log_loc.take() {
            self.log.mark_stale(loc);
        }
        let sig = self.table.get(id).sig;
        self.table.set_role(id, Role::Reference);
        {
            let vb = self.table.get_mut(id);
            vb.ssd_slot = Some(slot);
            vb.dirty_data = false;
        }
        let gen = self.next_gen();
        self.slot_dir
            .entry(lba)
            .or_insert(crate::controller::SlotRecord {
                slot,
                generation: gen,
            });
        self.ref_index.insert(lba, &sig);
        self.stats.ref_installs += 1;
        Some(slot)
    }

    // ------------------------------------------------------------------
    // Replacement policies (paper §4.3)
    // ------------------------------------------------------------------

    /// Makes room for one whole data block. Returns false only under
    /// unrelievable pressure (e.g. a pool smaller than one block).
    pub(crate) fn make_room_for_block(
        &mut self,
        protect: VbId,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> bool {
        self.make_room(BLOCK_SIZE, protect, at, ctx)
    }

    /// Makes room for a delta of `len` bytes.
    pub(crate) fn make_room_for_delta(
        &mut self,
        protect: VbId,
        len: usize,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) {
        let needed = self.pool.delta_charge(len);
        let ok = self.make_room(needed, protect, at, ctx);
        assert!(
            ok,
            "delta of {len} bytes cannot fit a {}-byte pool",
            self.pool.capacity()
        );
    }

    /// The replacement ladder (§4.3): (1) drop clean data blocks from the
    /// LRU tail, (2) drop clean logged deltas, (3) flush dirty deltas and
    /// retry, (4) write dirty independents home and drop their data.
    ///
    /// Under sustained pressure each expensive invocation frees a *batch*
    /// (an eighth of the pool) rather than a single block, so the cost of
    /// the tail walk amortises across many subsequent allocations.
    fn make_room(&mut self, needed: usize, protect: VbId, at: Ns, ctx: &mut IoCtx<'_>) -> bool {
        if self.pool.available() >= needed {
            return true;
        }
        let goal = needed.max(self.pool.capacity() / 8);

        // Pass A1: clean data blocks first — they are 4 KB each and cheap
        // to reconstruct (reference + resident delta), while a delta costs
        // a mechanical log fetch to get back.
        //
        // Every pass walks the LRU in place, tail to head. No loop body
        // reorders the list (`drop_data`, `drop_delta`, `flush_all` and
        // `write_home` never touch it), so each walk visits exactly the
        // order a snapshot taken at its start would.
        let mut cursor = self.table.lru_tail();
        while let Some(id) = cursor {
            if self.pool.available() >= goal {
                return true;
            }
            cursor = self.table.newer(id);
            if id == protect {
                continue;
            }
            let vb = self.table.get(id);
            if vb.data.is_some() && !vb.dirty_data {
                self.drop_data(id);
            }
        }
        // Pass A2: only if data alone was not enough, drop clean logged
        // deltas.
        let mut cursor = self.table.lru_tail();
        while let Some(id) = cursor {
            if self.pool.available() >= goal {
                return true;
            }
            cursor = self.table.newer(id);
            if id == protect {
                continue;
            }
            let vb = self.table.get(id);
            // A staged block's delta is recoverable from the staging buffer
            // (RAM, no device op), so it is as droppable as a logged one.
            if vb.delta.is_some() && !vb.dirty_delta && (vb.log_loc.is_some() || vb.staged) {
                self.drop_delta(id);
            }
        }
        if self.pool.available() >= needed {
            return true;
        }

        // Pass B: flushing turns dirty deltas into droppable clean ones and
        // unpins associates' data; dirty independents spill to the home
        // area. Forced full drain: under memory pressure the pipeline must
        // not hold deltas staged past the configured depth.
        self.flush_all(at, ctx);
        let mut spills: Vec<VbId> = Vec::new();
        let mut cursor = self.table.lru_tail();
        while let Some(id) = cursor {
            if self.pool.available() + spills.len() * BLOCK_SIZE >= goal {
                break;
            }
            cursor = self.table.newer(id);
            if id == protect {
                continue;
            }
            let vb = self.table.get(id);
            if vb.delta.is_some() && !vb.dirty_delta && (vb.log_loc.is_some() || vb.staged) {
                self.drop_delta(id);
            }
            let vb = self.table.get(id);
            if vb.data.is_some() {
                if vb.dirty_data {
                    spills.push(id);
                } else {
                    self.drop_data(id);
                }
            }
        }
        // Write the spill batch in home-position order: the writeback
        // stream becomes near-sequential instead of head-thrashing.
        spills.sort_by_key(|&id| self.home_pos(self.table.get(id).lba));
        self.write_home_batch(&spills, at);
        for id in spills {
            self.drop_data(id);
        }
        self.pool.available() >= needed
    }

    /// Bounds the virtual-block table: evicts persisted blocks from the LRU
    /// tail once the table exceeds its limit, preserving a rebuild pointer
    /// for content that is not reachable via the home area.
    pub(crate) fn reserve_table_slot(&mut self, at: Ns, ctx: &mut IoCtx<'_>) {
        if self.table.len() < self.max_virtual_blocks {
            return;
        }
        let mut evicted = 0usize;
        let mut flushed = false;
        // An in-place walk from the LRU tail, capped at 8,192 visits. The
        // cursor moves on before `table.remove(id)` unlinks `id`; nothing
        // else in the body reorders the list.
        let mut cursor = self.table.lru_tail();
        let mut visits = 0usize;
        while let Some(id) = cursor {
            if evicted >= 64 || visits == 8_192 {
                break;
            }
            visits += 1;
            cursor = self.table.newer(id);
            let vb = self.table.get(id);
            if !vb.evictable() {
                continue;
            }
            // Written references cannot be summarized by a single pointer;
            // keep them resident.
            if vb.role == Role::Reference && (vb.delta.is_some() || vb.log_loc.is_some()) {
                continue;
            }
            // A staged block's only copy may be the staging buffer (its
            // clean delta is droppable); evicting it with no rebuild state
            // would lose data. Commit the pipeline first, like the dirty
            // case.
            if (vb.dirty_delta || vb.staged) && !flushed {
                self.flush_all(at, ctx);
                flushed = true;
            }
            let vb = self.table.get(id);
            if vb.dirty_delta || vb.staged {
                continue;
            }
            if vb.dirty_data {
                if vb.data.is_some() {
                    self.write_home(id, at);
                } else {
                    continue; // should not happen; be conservative
                }
            }
            self.drop_data(id);
            self.drop_delta(id);
            let vb = self.table.get(id);
            let state = match vb.role {
                Role::Reference => vb.ssd_slot.map(EvictedState::InSsd),
                Role::Independent => vb.ssd_slot.map(EvictedState::InSsd).or_else(|| {
                    vb.log_loc.map(|loc| EvictedState::InLog {
                        reference: vb.lba, // self: decodes against zero
                        loc,
                    })
                }),
                Role::Associate => vb.log_loc.map(|loc| EvictedState::InLog {
                    reference: vb.reference.expect("associate without reference"),
                    loc,
                }),
            };
            // Associates whose delta was never flushed and never logged have
            // their content only in RAM; they were handled by the flush
            // above. Anything left without a state lives in the home area.
            if vb.role == Role::Reference {
                let (lba, sig) = (vb.lba, vb.sig);
                self.ref_index.remove(lba, &sig);
            }
            let lba = vb.lba;
            let removed = self.table.remove(id);
            debug_assert!(removed.delta.is_none() && removed.data.is_none());
            if let Some(state) = state {
                self.evicted.insert(lba, state);
            }
            evicted += 1;
        }
    }
}
