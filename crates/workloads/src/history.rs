//! The write-history oracle behind every integrity campaign.
//!
//! The integrity contract is: every read returns a version the block
//! really held, or a typed error — never a splice of another block's or
//! another version's bytes, never a panic. [`History`] records, per LBA,
//! every version submitted and whether the system acknowledged it, plus
//! the floor a completed barrier made durable, and checks reads against
//! the [`Accept`] set the call site's situation allows: live service,
//! service across a device death, or recovery after a crash.
//!
//! It also keeps the campaign tallies (reads checked, typed errors,
//! refused writes, violations), so a campaign cell is one `History`.

use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::fault_roll;
use icash_storage::request::{Completion, Request};
use icash_storage::system::{IoCtx, StorageSystem};
use icash_storage::time::Ns;
use std::collections::HashMap;

/// Which versions of a block a read may legally return. Every set also
/// accepts a typed error, except where [`Accept::Durable`] says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// The newest acknowledged version, or pre-history zeroes if there is
    /// none: live service with no crash in between.
    Latest,
    /// Any acknowledged version, or pre-history zeroes: service across a
    /// device death, where reads may legally serve older hardened copies.
    Acknowledged,
    /// Any submitted version, acknowledged or not, or pre-history zeroes:
    /// recovery after a crash that may tear in-flight writes.
    Submitted,
    /// Recovery after a crash under the barrier contract: a block covered
    /// by a completed barrier must read its barrier-covered version or a
    /// newer submitted one (not zeroes, not a typed error); a block no
    /// barrier covered falls back to [`Accept::Submitted`].
    Durable,
}

/// One LBA's history.
#[derive(Debug, Default)]
struct Block {
    /// Every submitted version, oldest first, and whether it was
    /// acknowledged.
    versions: Vec<(BlockBuf, bool)>,
    /// Index into `versions` of the newest version a completed barrier
    /// covers.
    floor: Option<usize>,
}

/// Per-LBA version history plus the campaign tallies.
#[derive(Debug, Default)]
pub struct History {
    blocks: HashMap<u64, Block>,
    stamp: Option<(u8, u64)>,
    /// Reads checked.
    pub reads: u64,
    /// Checked reads the system reported failed with a typed error.
    pub reported_errors: u64,
    /// Writes the system refused with a typed error.
    pub refused_writes: u64,
    /// One line per finding: every silent splice the checks caught, plus
    /// whatever campaign-specific failures the caller records.
    pub violations: Vec<String>,
}

impl History {
    /// A history whose writes carry caller-supplied content
    /// ([`History::write_content`]).
    pub fn new() -> Self {
        History::default()
    }

    /// A history that stamps its own version content
    /// ([`History::write`]): a block of `base` bytes sharing a common body
    /// (so I-CASH forms references and deltas) with a unique 8-byte tag
    /// drawn from `salt` (so any cross-version or cross-block splice is
    /// detectable).
    pub fn stamped(base: u8, salt: u64) -> Self {
        History {
            stamp: Some((base, salt)),
            ..History::default()
        }
    }

    /// The stamped content of version `ver` of `lba`.
    ///
    /// # Panics
    ///
    /// Panics on a history built with [`History::new`].
    fn version_content(&self, lba: u64, ver: u32) -> BlockBuf {
        let (base, salt) = self.stamp.expect("version_content needs a stamped history");
        let mut v = vec![base; 4096];
        let tag = fault_roll(lba, salt, ver as u64, 0);
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v[100] = (lba % 251) as u8;
        v[2000] = (ver % 251) as u8;
        BlockBuf::from_vec(v)
    }

    /// Writes the next stamped version of `lba` at `at` and records it.
    /// Versions number from 1 and count every submission, refused or not.
    pub fn write(
        &mut self,
        sys: &mut dyn StorageSystem,
        ctx: &mut IoCtx<'_>,
        lba: u64,
        at: Ns,
    ) -> Completion {
        let ver = self.blocks.get(&lba).map_or(0, |b| b.versions.len()) as u32 + 1;
        let content = self.version_content(lba, ver);
        self.write_content(sys, ctx, lba, at, content)
    }

    /// Writes `content` to `lba` at `at` and records it.
    pub fn write_content(
        &mut self,
        sys: &mut dyn StorageSystem,
        ctx: &mut IoCtx<'_>,
        lba: u64,
        at: Ns,
        content: BlockBuf,
    ) -> Completion {
        let c = sys.submit(&Request::write(Lba::new(lba), at, content.clone()), ctx);
        self.record(lba, content, &c);
        c
    }

    /// Records a write of `content` to `lba` that completed as `c`: it is
    /// acknowledged unless `c` reports `lba` failed.
    fn record(&mut self, lba: u64, content: BlockBuf, c: &Completion) {
        let acked = !c.failed(Lba::new(lba));
        if !acked {
            self.refused_writes += 1;
        }
        self.blocks
            .entry(lba)
            .or_default()
            .versions
            .push((content, acked));
    }

    /// Marks a completed barrier: every block's newest acknowledged
    /// version becomes its durable floor.
    pub fn barrier(&mut self) {
        for block in self.blocks.values_mut() {
            if let Some(i) = block.versions.iter().rposition(|&(_, acked)| acked) {
                block.floor = Some(i);
            }
        }
    }

    /// Reads `lba` at `at` and checks the result against `accept`.
    pub fn read(
        &mut self,
        sys: &mut dyn StorageSystem,
        ctx: &mut IoCtx<'_>,
        lba: u64,
        at: Ns,
        accept: Accept,
    ) -> Completion {
        let c = sys.submit(&Request::read(Lba::new(lba), at), ctx);
        self.check(lba, &c, accept);
        c
    }

    /// Checks one read completion of `lba` against `accept`, tallying it;
    /// returns whether it was acceptable. A violation is also recorded in
    /// [`History::violations`].
    fn check(&mut self, lba: u64, c: &Completion, accept: Accept) -> bool {
        self.reads += 1;
        let block = self.blocks.get(&lba);
        let floor = block
            .and_then(|b| b.floor)
            .filter(|_| accept == Accept::Durable);
        if c.failed(Lba::new(lba)) {
            if floor.is_none() {
                self.reported_errors += 1;
                return true;
            }
            self.violations
                .push(format!("lba {lba}: barrier-covered read failed"));
            return false;
        }
        let versions = block.map_or(&[][..], |b| &b.versions[..]);
        let mut acked = versions.iter().filter(|(_, a)| *a).map(|(v, _)| v);
        let mut all = versions.iter().map(|(v, _)| v);
        let got = &c.data[0];
        let zeroes = *got == BlockBuf::zeroed();
        let ok = match (accept, floor) {
            (Accept::Latest, _) => acked.next_back().map_or(zeroes, |v| v == got),
            (Accept::Acknowledged, _) => zeroes || acked.any(|v| v == got),
            (_, Some(i)) => versions[i..].iter().any(|(v, _)| v == got),
            (Accept::Submitted | Accept::Durable, None) => zeroes || all.any(|v| v == got),
        };
        if !ok {
            self.violations.push(format!(
                "lba {lba}: read returned bytes outside its {accept:?} set \
                 ({} versions on record)",
                versions.len()
            ));
        }
        ok
    }

    /// Every LBA with a submitted write, ascending.
    pub fn written(&self) -> Vec<u64> {
        let mut lbas: Vec<u64> = self.blocks.keys().copied().collect();
        lbas.sort_unstable();
        lbas
    }

    /// Every LBA with an acknowledged write, ascending.
    pub fn acknowledged(&self) -> Vec<u64> {
        let mut lbas: Vec<u64> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.versions.iter().any(|&(_, acked)| acked))
            .map(|(&lba, _)| lba)
            .collect();
        lbas.sort_unstable();
        lbas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::request::{BlockError, IoErrorKind};

    fn data(content: &BlockBuf) -> Completion {
        Completion::with_data(Ns::ZERO, vec![content.clone()])
    }

    fn refused(lba: u64) -> Completion {
        Completion::at(Ns::ZERO).with_errors(vec![BlockError {
            lba: Lba::new(lba),
            kind: IoErrorKind::Busy,
        }])
    }

    fn failed_read(lba: u64) -> Completion {
        Completion::with_data(Ns::ZERO, vec![BlockBuf::zeroed()]).with_errors(vec![BlockError {
            lba: Lba::new(lba),
            kind: IoErrorKind::HddMedia,
        }])
    }

    /// A history with two versions of LBA 7: v1 acknowledged, v2 as given.
    fn two_versions(second_acked: bool) -> (History, BlockBuf, BlockBuf) {
        let mut h = History::stamped(0xA5, 0x7A6);
        let v1 = h.version_content(7, 1);
        let v2 = h.version_content(7, 2);
        h.record(7, v1.clone(), &Completion::at(Ns::ZERO));
        let c = if second_acked {
            Completion::at(Ns::ZERO)
        } else {
            refused(7)
        };
        h.record(7, v2.clone(), &c);
        (h, v1, v2)
    }

    #[test]
    fn a_refused_write_does_not_advance_the_acknowledged_set() {
        let (mut h, v1, v2) = two_versions(false);
        assert_eq!(h.refused_writes, 1);
        assert!(h.check(7, &data(&v1), Accept::Latest));
        assert!(!h.check(7, &data(&v2), Accept::Latest));
        assert!(!h.check(7, &data(&v2), Accept::Acknowledged));
        // A crash may still surface the refused write's bytes.
        assert!(h.check(7, &data(&v2), Accept::Submitted));
        // An LBA whose only write was refused has no acknowledged history.
        h.record(9, h.version_content(9, 1), &refused(9));
        assert_eq!(h.written(), vec![7, 9]);
        assert_eq!(h.acknowledged(), vec![7]);
    }

    #[test]
    fn pre_history_zeroes_are_accepted_only_where_allowed() {
        let (mut h, _, _) = two_versions(true);
        let zeroes = data(&BlockBuf::zeroed());
        assert!(
            !h.check(7, &zeroes, Accept::Latest),
            "a written block is not zero"
        );
        assert!(h.check(7, &zeroes, Accept::Acknowledged));
        assert!(h.check(7, &zeroes, Accept::Submitted));
        assert!(h.check(7, &zeroes, Accept::Durable), "no barrier yet");
        // A never-written block reads as zeroes under every set.
        for accept in [Accept::Latest, Accept::Acknowledged, Accept::Submitted] {
            assert!(h.check(3, &zeroes, accept), "{accept:?}");
        }
        h.barrier();
        assert!(!h.check(7, &zeroes, Accept::Durable), "behind the barrier");
        assert_eq!(h.violations.len(), 2);
    }

    #[test]
    fn after_a_barrier_a_crash_rolls_forward_never_back() {
        let mut h = History::stamped(0xA5, 0x7A6);
        let v: Vec<BlockBuf> = (1..=3).map(|ver| h.version_content(7, ver)).collect();
        let ok = Completion::at(Ns::ZERO);
        h.record(7, v[0].clone(), &ok);
        h.record(7, v[1].clone(), &ok);
        h.barrier();
        h.record(7, v[2].clone(), &ok);
        assert!(!h.check(7, &data(&v[0]), Accept::Durable), "rolled back");
        assert!(
            h.check(7, &data(&v[1]), Accept::Durable),
            "the floor itself"
        );
        assert!(h.check(7, &data(&v[2]), Accept::Durable), "rolled forward");
        // A typed error is no excuse for a barrier-covered block...
        assert!(!h.check(7, &failed_read(7), Accept::Durable));
        // ...but is for the weaker sets.
        assert!(h.check(7, &failed_read(7), Accept::Submitted));
        assert_eq!(h.reported_errors, 1);
        // The floor only binds the Durable set.
        assert!(h.check(7, &data(&v[0]), Accept::Submitted));
    }

    #[test]
    fn a_splice_is_always_flagged() {
        let (mut h, v1, v2) = two_versions(true);
        h.record(8, h.version_content(8, 1), &Completion::at(Ns::ZERO));
        h.barrier();
        // Another LBA's bytes, and a version this LBA never held.
        let foreign = h.version_content(8, 1);
        let unheld = h.version_content(7, 3);
        // One version's tag spliced onto the other's body.
        let mut mixed = v1.as_slice().to_vec();
        mixed[..8].copy_from_slice(&v2.as_slice()[..8]);
        let mixed = BlockBuf::from_vec(mixed);
        for accept in [
            Accept::Latest,
            Accept::Acknowledged,
            Accept::Submitted,
            Accept::Durable,
        ] {
            for bad in [&foreign, &unheld, &mixed] {
                assert!(!h.check(7, &data(bad), accept), "{accept:?}");
            }
        }
        assert_eq!(h.violations.len(), 12);
        assert_eq!(h.reads, 12);
    }
}
