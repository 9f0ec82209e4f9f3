//! Interest profiles (paper §II-B/C/E).
//!
//! A profile is a set of `<item id, timestamp, score>` triples with at most
//! one entry per item:
//!
//! * **User profiles** (`P̃`) hold the node's own opinions; scores are binary
//!   (1 = like, 0 = dislike).
//! * **Item profiles** (`P^I`) travel with every copy of a news item and
//!   aggregate the profiles of the users that liked it along the copy's
//!   path; scores are reals in `[0, 1]`, updated by averaging
//!   (`addToNewsProfile`, Algorithm 1).
//!
//! A profile keeps its entries in one of two stores:
//!
//! * **Packed**: the profile's [`Layout`] over the run's item index is its
//!   whole store — ids and scores are slots and bits or weights, and a
//!   node stamps each entry with its item's creation time (§II-A), which
//!   the index keeps once per item. Three kinds exist. A node's own
//!   profile is its planes, which its ratings and window purges edit in
//!   place ([`Profile::rate_in`], [`Profile::purge_in`]). The snapshot a
//!   node discloses ([`Profile::snapshot`]) is a copy of those planes, and
//!   an item profile a node folded ([`Profile::folded`]) is its weights,
//!   folded word-wise from the liker's planes; both are read-only to
//!   everything but a window purge. Each costs a few bits or bytes an
//!   entry where a flat copy costs 16.
//! * **Flat**: one vector sorted by item id. Every profile built from
//!   entries is flat: decoded from a frame, or merged where a fold cannot
//!   run in slot space. A node's own profile is flat only while the index
//!   cannot give its entries back — an id the index does not know, an
//!   entry stamped at another time than its item's creation, a `-0.0` —
//!   or its planes would span more words than it has entries; it packs
//!   again at the first rating or purge after which it can.
//!
//! Readers that need the ⟨id, t, s⟩ triples in id order — the encoder,
//! walked pairs, cold start, a checkpoint, obfuscation, `==` and `Debug` —
//! get a packed profile's rebuilt from [`Profile::entries`], so no reader
//! tells the stores apart.
//!
//! Who builds a layout: a flat profile's is built on first use
//! ([`Profile::layout`]) and is derived state, like the norm; a node's own
//! flat profile builds it at each of its ratings and purges, to see
//! whether it packs, and every other mutation drops it. A packed
//! profile's layout is built when the profile is: rated into, copied from
//! the node's planes, or folded.

use crate::hash::mix64;
use crate::item::{ItemId, ItemIndexMap, Timestamp};
use crate::planes::{score_of, Counts, Layout, Planes, Weights};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Opinion strength for an item: `1.0` = interesting, `0.0` = not.
/// User profiles only ever store the two extremes; item profiles hold
/// averaged intermediate values.
type Score = f32;

/// One `<id, t, s>` triple. Invariant: `score` is finite and in `[0, 1]` —
/// ratings are 0 or 1, `addToNewsProfile` averages stay in between, and
/// the wire codec rejects anything else (`DecodeError::BadScore`). The
/// constructors do not check it: similarity ranking relies on it only to
/// never meet a `NaN`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    pub item: ItemId,
    pub timestamp: Timestamp,
    pub score: Score,
}

/// A profile: sorted-by-item-id vector of entries, unique per item, scores
/// finite and in `[0, 1]` (see [`ProfileEntry`]) — or the same entries
/// packed into a layout (a node's own, [`Self::snapshot`],
/// [`Self::folded`]).
///
/// The Euclidean norm of the score vector is memoized at mutation time:
/// similarity scoring reads it on every candidate ranking (the hottest loop
/// in the system), while mutations are comparatively rare. The cache is
/// recomputed with a full deterministic scan on every mutation — or, for
/// a profile of 0/1 scores, from the like count, which gives the scan's
/// bits (see [`Self::upsert`]); a folded item profile's from its weights'
/// `Σ q²`, likewise exact — so two profiles with equal entries
/// always carry bit-identical cached norms regardless of the operation
/// history that produced them. Equality is
/// defined over `entries` alone (see the manual `PartialEq` below), so a
/// path that bypasses the mutating methods cannot break `==`;
/// `Self::norm` additionally debug-asserts the cache against a fresh
/// recompute to catch such a stale cache before it skews similarity, and
/// [`Self::any_older_than`] does the same for the oldest timestamp.
pub struct Profile {
    entries: Store,
    /// Memoized `‖scores‖₂`; maintained by every mutating method. Never
    /// serialized — it is derived state, and a deserializer must recompute
    /// it from `entries` (as the wire codec does via `from_entries`) rather
    /// than trust external data for an internal invariant.
    norm: f64,
    /// Memoized 128-bit Bloom fingerprint of the *rated* item-id set (one
    /// hashed bit per entry). Similarity scoring uses it to reject
    /// no-overlap pairs in two instructions: if two fingerprints share no
    /// bit, the profiles share no rated item, and every metric is exactly
    /// `0.0` (see `crate::similarity`). False positives merely fall through
    /// to the exact merge-join; false negatives are impossible. Maintained
    /// by the same mutation-time recompute as the norm, and like the norm
    /// it is derived state: never serialized, always rebuilt from
    /// `entries`.
    fingerprint: u128,
    /// Number of entries with `score > 0.5`, kept by every mutating
    /// method. Derived state like the norm.
    likes: u32,
    /// Number of entries whose score is neither `0` nor `1`. Zero — the
    /// profile is *binary* — for everything [`Self::rate`] builds: every
    /// user profile, every gossip snapshot. A binary profile's norm is
    /// `sqrt(likes)`, bit-identical to the scan (a sum of 0s and 1s is
    /// exact), and only a binary profile can have [`Self::planes`].
    non_binary: u32,
    /// The oldest entry's timestamp, `Timestamp::MAX` while there is none:
    /// what [`Self::any_older_than`] compares a window cutoff with, on
    /// every first reception of an item and at every cycle start. Computed
    /// by the same scan as the norm and kept by [`Self::upsert`]; derived
    /// state like the norm.
    oldest: Timestamp,
    /// The entries laid out for the counting path of `crate::similarity`,
    /// over the run's item index: bit planes if the profile is binary,
    /// weights otherwise. A flat profile's is built on first use
    /// ([`Self::layout`], [`Self::planes`]); `Some(None)` records that the
    /// build declined (see [`Planes::build`], [`Weights::build`]). It is
    /// derived state there: never serialized, never compared, built again
    /// by [`Self::rate_in`] and [`Self::purge_in`], dropped by every other
    /// mutation — and shared, once built, by every holder of a
    /// [`SharedProfile`] on every thread. A packed profile's layout is its
    /// ids and scores, and lives as long as it does.
    layout: OnceLock<Option<Layout>>,
}

/// Where a profile keeps its entries.
enum Store {
    /// One vector sorted by id.
    Flat(Vec<ProfileEntry>),
    /// The layout is the store: its ids and scores are the planes or the
    /// weights in it, its timestamps the creation times the index
    /// numbering the slots keeps, and `len` its entry count. A node's own
    /// planes are rated and purged in place ([`Profile::rate_in`],
    /// [`Profile::purge_in`]), a window purge keeps any packed profile
    /// packed while its layout fits, and any other mutation flattens it
    /// first.
    Packed {
        len: usize,
        index: Arc<ItemIndexMap>,
    },
}

/// The empty profile; its oldest timestamp is the one no cutoff is above.
impl Default for Profile {
    fn default() -> Self {
        Self {
            entries: Store::Flat(Vec::new()),
            norm: 0.0,
            fingerprint: 0,
            likes: 0,
            non_binary: 0,
            oldest: Timestamp::MAX,
            layout: OnceLock::new(),
        }
    }
}

/// Entries fully determine a profile, whichever form holds them; the
/// memoized norm is derived state and deliberately excluded so equality
/// cannot be broken by a stale cache.
impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        self.entries().eq(other.entries())
    }
}

/// A copy, layout included — a packed profile's layout is its entries, so
/// the copy-on-write `Arc::make_mut` of an item profile to purge stays
/// packed, and so does a copy of a node's own profile — except a flat
/// profile's weights: that is an item profile `make_mut` copies to purge,
/// which would drop them.
impl Clone for Profile {
    fn clone(&self) -> Self {
        let entries = match &self.entries {
            Store::Flat(entries) => Store::Flat(entries.clone()),
            Store::Packed { len, index } => Store::Packed {
                len: *len,
                index: Arc::clone(index),
            },
        };
        let layout = match (&entries, self.layout.get()) {
            (Store::Flat(_), Some(Some(Layout::Weights(_)))) => OnceLock::new(),
            _ => self.layout.clone(),
        };
        Self {
            entries,
            layout,
            ..*self
        }
    }
}

/// What `derive(Debug)` printed before the counting path's fields existed:
/// whether a layout happens to be built must not show in it.
impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("entries", &self.entries().collect::<Vec<_>>())
            .field("norm", &self.norm)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// Whether `score` is exactly `0` (`-0.0` included) or `1`. No
/// short-circuit: the derived-state scan calls this per entry, and a
/// branch on the first comparison mispredicts on real-valued profiles.
#[inline]
fn is_binary(score: Score) -> bool {
    (score == 0.0) | (score == 1.0)
}

/// Euclidean norm of the entries' score vector — the single definition both
/// the mutation-time recompute and the [`Profile::norm`] debug assertion
/// use, so the cache check is exact. An empty (or all-zero) scan is
/// canonicalized to `+0.0`: `Sum for f64` folds from `-0.0`, which would
/// otherwise make recomputed empties bitwise-distinct from the
/// `Default`-constructed cache.
fn norm_of(entries: impl IntoIterator<Item = ProfileEntry>) -> f64 {
    let n = entries
        .into_iter()
        .map(|e| (e.score as f64) * (e.score as f64))
        .sum::<f64>()
        .sqrt();
    if n == 0.0 {
        0.0
    } else {
        n
    }
}

/// One Bloom bit per item id. The SplitMix64 finalizer spreads consecutive
/// ids (datasets hand them out densely from 0) across the 128-bit word; the
/// exact mix constant set does not matter for correctness — only that the
/// mapping id → bit is a pure function, so equal entry sets always produce
/// equal fingerprints.
#[inline]
fn fingerprint_bit(item: ItemId) -> u128 {
    1u128 << (mix64(item.wrapping_add(0x9e37_79b9_7f4a_7c15)) & 127)
}

/// Fingerprint of an entry slice — the single definition shared by the
/// mutation-time recompute and the [`Profile::fingerprint`] debug assertion.
fn fingerprint_of(entries: impl IntoIterator<Item = ProfileEntry>) -> u128 {
    entries
        .into_iter()
        .fold(0u128, |fp, e| fp | fingerprint_bit(e.item))
}

/// The oldest timestamp of some entries, `Timestamp::MAX` if there are
/// none — the rescan [`Profile::upsert`] falls back on.
fn oldest_of(entries: impl IntoIterator<Item = ProfileEntry>) -> Timestamp {
    entries
        .into_iter()
        .fold(Timestamp::MAX, |oldest, e| oldest.min(e.timestamp))
}

/// A rating: score 1 if liked, 0 if not.
fn rating(item: ItemId, timestamp: Timestamp, liked: bool) -> ProfileEntry {
    ProfileEntry {
        item,
        timestamp,
        score: if liked { 1.0 } else { 0.0 },
    }
}

/// A profile shared immutably across views, messages and threads.
/// Gossip descriptors carry these so exchanges and merges never deep-clone
/// entry vectors.
pub type SharedProfile = std::sync::Arc<Profile>;

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from arbitrary-order entries; keeps the last entry per item.
    pub fn from_entries(entries: impl IntoIterator<Item = ProfileEntry>) -> Self {
        let mut p = Self::new();
        for e in entries {
            p.upsert_unnormed(e);
        }
        p.recompute_norm();
        p
    }

    /// Builds from an owned entry vector, reusing the allocation when the
    /// vector is already sorted by strictly ascending item id — the form
    /// every serialized profile arrives in, since profiles are encoded from
    /// sorted storage. Decoding hot paths call this to skip the per-entry
    /// binary-search rebuild of [`Self::from_entries`]; unsorted input
    /// (possible only from an untrusted wire peer) falls back to the full
    /// rebuild, so the sortedness invariant cannot be violated from
    /// outside.
    pub fn from_vec(entries: Vec<ProfileEntry>) -> Self {
        if entries.windows(2).any(|w| w[0].item >= w[1].item) {
            return Self::from_entries(entries);
        }
        let mut p = Self {
            entries: Store::Flat(entries),
            ..Self::default()
        };
        p.recompute_norm();
        p
    }

    /// The read-only snapshot of `live` that a node discloses. The
    /// derived state is `live`'s, and so are the planes over the node's
    /// `index`: a packed `live`'s store (built on a flat one if it has
    /// none yet), copied word for word — with the index, the whole
    /// snapshot. One whose planes are not a pack (see [`Planes::is_pack`])
    /// stays flat, a copy of `live` with a copy of its layout.
    pub(crate) fn snapshot(live: &Profile, index: &Arc<ItemIndexMap>) -> Self {
        let snapshot = match live.planes(index) {
            Some(planes) if planes.is_pack() => Self {
                entries: Store::Packed {
                    len: live.len(),
                    index: Arc::clone(index),
                },
                layout: OnceLock::from(Some(Layout::Planes(planes.clone()))),
                ..*live
            },
            _ => Self {
                entries: Store::Flat(live.flat().into_owned()),
                layout: OnceLock::from(live.layout(index).cloned()),
                ..*live
            },
        };
        debug_assert!(
            snapshot.entries().eq(live.entries()),
            "a snapshot differs from the profile it was taken of"
        );
        snapshot
    }

    /// Recomputes the memoized derived state (norm, fingerprint, like and
    /// non-binary counts, oldest timestamp) of a flat profile.
    fn recompute_norm(&mut self) {
        self.fingerprint = fingerprint_of(self.entries());
        self.recompute_scores();
    }

    /// [`Self::recompute_norm`] for a caller that knows the fingerprint.
    /// The norm accumulator runs the exact op sequence of [`norm_of`]
    /// (ascending entry order, `sum += s·s`, then `sqrt`), so the cache
    /// stays bit-identical to the reference recompute.
    fn recompute_scores(&mut self) {
        let mut sum = 0.0f64;
        let (mut likes, mut non_binary, mut oldest) = (0, 0, Timestamp::MAX);
        for e in self.flat().iter() {
            let s = e.score as f64;
            sum += s * s;
            likes += u32::from(e.score > 0.5);
            non_binary += u32::from(!is_binary(e.score));
            oldest = oldest.min(e.timestamp);
        }
        let n = sum.sqrt();
        self.norm = if n == 0.0 { 0.0 } else { n };
        self.likes = likes;
        self.non_binary = non_binary;
        self.oldest = oldest;
    }

    /// The entry vector every mutation edits: a packed profile's entries
    /// rebuilt first. Its layout stays: it still lays out these entries.
    fn vec(&mut self) -> &mut Vec<ProfileEntry> {
        if let Store::Packed { .. } = self.entries {
            self.entries = Store::Flat(self.flat().into_owned());
        }
        match &mut self.entries {
            Store::Flat(entries) => entries,
            Store::Packed { .. } => unreachable!("flattened above"),
        }
    }

    /// A mutation that keeps no layout ends here: a layout describes the
    /// entries it was built from. Only a flat profile's is derived state.
    fn drop_layout(&mut self) {
        debug_assert!(
            self.as_slice().is_some(),
            "a packed profile's layout dropped"
        );
        self.layout.take();
    }

    /// A node's own profile over the run's `index`, from entries — a
    /// checkpoint's, or none: packed where its planes are a pack, flat
    /// otherwise (see [`Self::pack_in`]).
    pub(crate) fn own(
        entries: impl IntoIterator<Item = ProfileEntry>,
        index: &Arc<ItemIndexMap>,
    ) -> Self {
        let mut own = Self::from_entries(entries);
        own.pack_in(index);
        own
    }

    /// After a node's own flat profile changed: its layout over `index`
    /// built again, and the profile packed into it where that is planes
    /// that are a pack ([`Planes::is_pack`]) — the index gives every
    /// entry back, and they span no more words than there are entries.
    fn pack_in(&mut self, index: &Arc<ItemIndexMap>) {
        self.layout = OnceLock::from(self.build_layout(index));
        if let Some(Some(Layout::Planes(planes))) = self.built_layout() {
            if planes.is_pack() {
                self.entries = Store::Packed {
                    len: self.len(),
                    index: Arc::clone(index),
                };
            }
        }
    }

    /// Debug builds: a node's own profile after a rating or a purge has
    /// the derived state of a flat rescan of its entries, and is packed
    /// exactly where a build of their planes over `index` is a pack.
    fn check_own(&self, index: &ItemIndexMap) {
        if cfg!(debug_assertions) {
            let flat = Self::from_entries(self.entries());
            let derived = |p: &Profile| {
                let counts = (p.likes, p.non_binary, p.oldest, p.len());
                (p.norm.to_bits(), p.fingerprint, counts)
            };
            assert_eq!(derived(self), derived(&flat), "an own profile's state");
            let pack = Planes::build(&flat.flat(), index).is_some_and(|p| p.is_pack());
            assert_eq!(self.as_slice().is_none(), pack, "an own profile packs");
        }
    }

    /// Insert/replace without touching the derived-state caches; callers
    /// must [`Self::recompute_norm`] before the profile is observable again.
    fn upsert_unnormed(&mut self, e: ProfileEntry) {
        let entries = self.vec();
        match entries.binary_search_by_key(&e.item, |x| x.item) {
            Ok(i) => entries[i] = e,
            Err(i) => entries.insert(i, e),
        }
    }

    pub fn len(&self) -> usize {
        match &self.entries {
            Store::Flat(entries) => entries.len(),
            Store::Packed { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in ascending item-id order: a flat profile's walked in
    /// place, a packed one's rebuilt.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = ProfileEntry> + '_ {
        let entries = self.flat();
        (0..entries.len()).map(move |i| entries[i])
    }

    /// The entries of a flat profile, as its one id-sorted slice.
    fn as_slice(&self) -> Option<&[ProfileEntry]> {
        match &self.entries {
            Store::Flat(entries) => Some(entries),
            Store::Packed { .. } => None,
        }
    }

    /// The entries as one id-sorted slice: a packed profile's rebuilt, id
    /// and creation time by slot from the index, score from its planes or
    /// weights, then sorted by id.
    pub(crate) fn flat(&self) -> Cow<'_, [ProfileEntry]> {
        let (len, index) = match &self.entries {
            Store::Flat(entries) => return Cow::Borrowed(entries),
            Store::Packed { len, index } => (*len, index),
        };
        let entry = |slot, score| ProfileEntry {
            item: index.id_of(slot),
            timestamp: index.created_at(slot),
            score,
        };
        let mut entries = Vec::with_capacity(len);
        match self.built_layout() {
            Some(Some(Layout::Planes(planes))) => entries.extend(
                (planes.rated()).map(|(slot, liked)| entry(slot, f32::from(u8::from(liked)))),
            ),
            Some(Some(Layout::Weights(weights))) => {
                entries.extend(weights.held().map(|(slot, q)| entry(slot, score_of(q))))
            }
            _ => unreachable!("a packed profile keeps its layout"),
        }
        entries.sort_unstable_by_key(|e| e.item);
        Cow::Owned(entries)
    }

    /// Heap bytes this profile owns: the allocated (not occupied) entry
    /// slots of a flat profile — a packed profile, a node's own included,
    /// owns none, and not the index, which every node of the run shares —
    /// and the layout, if built. Memory diagnostics only.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        let layout = self.built_layout().flatten().map_or(0, Layout::heap_bytes);
        let entries = match &self.entries {
            Store::Flat(entries) => entries.capacity() * std::mem::size_of::<ProfileEntry>(),
            Store::Packed { .. } => 0,
        };
        entries + layout
    }

    /// Heap bytes of the planes, `0` while there are none (not built yet,
    /// not binary, or declined). Builds nothing — diagnostics and tests.
    #[doc(hidden)]
    pub fn plane_bytes(&self) -> usize {
        match self.built_layout() {
            Some(Some(layout @ Layout::Planes(_))) => layout.heap_bytes(),
            _ => 0,
        }
    }

    /// Whether the profile contains an opinion on `item`.
    pub fn contains(&self, item: ItemId) -> bool {
        self.flat().binary_search_by_key(&item, |e| e.item).is_ok()
    }

    /// Inserts or replaces the entry for `e.item` (§II-B: "each profile
    /// contains only a single entry for a given identifier").
    ///
    /// The fingerprint and the two counts are updated incrementally — an
    /// OR-fold over the item set is order-independent, a replace keeps the
    /// item set unchanged, an insert adds exactly one bit, and a count
    /// loses the replaced entry and gains the new one. The norm of a
    /// binary profile follows from the like count: its squares are 0s and
    /// 1s, whose f64 sum is exact in any order, so `sqrt(likes)` is what
    /// the scan returns, bit for bit. Any other profile gets the full
    /// reference scan (f64 summation is order-sensitive, so only the
    /// canonical scan is bit-exact). The oldest timestamp can only fall,
    /// except when a replace moves the oldest entry forward: that one
    /// rescans.
    pub fn upsert(&mut self, e: ProfileEntry) {
        self.put(e);
        self.drop_layout();
    }

    /// [`Self::upsert`] but for the layout, which is the caller's to
    /// build again or drop.
    fn put(&mut self, e: ProfileEntry) {
        match self.vec().binary_search_by_key(&e.item, |x| x.item) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.vec()[i], e);
                self.likes -= u32::from(old.score > 0.5);
                self.non_binary -= u32::from(!is_binary(old.score));
                self.oldest = if old.timestamp == self.oldest && e.timestamp > old.timestamp {
                    oldest_of(self.entries())
                } else {
                    self.oldest.min(e.timestamp)
                };
            }
            Err(i) => {
                self.vec().insert(i, e);
                self.fingerprint |= fingerprint_bit(e.item);
                self.oldest = self.oldest.min(e.timestamp);
            }
        }
        self.likes += u32::from(e.score > 0.5);
        self.non_binary += u32::from(!is_binary(e.score));
        self.norm = if self.non_binary == 0 {
            f64::from(self.likes).sqrt()
        } else {
            norm_of(self.entries())
        };
    }

    /// Records the user's opinion on an item (Algorithm 1, lines 5/7/14).
    pub fn rate(&mut self, item: ItemId, timestamp: Timestamp, liked: bool) {
        self.upsert(rating(item, timestamp, liked));
    }

    /// [`Self::rate`] for a node's own profile over the run's `index`. A
    /// packed one sets the rating's bits in place where the index gives it
    /// back, so its next snapshot copies them and its next fold reads
    /// them; any other rating goes into the flat vector, which then packs
    /// if it can ([`Self::pack_in`]).
    pub(crate) fn rate_in(
        &mut self,
        index: &Arc<ItemIndexMap>,
        item: ItemId,
        timestamp: Timestamp,
        liked: bool,
    ) {
        let e = rating(item, timestamp, liked);
        if !self.rate_packed(index, e) {
            self.put(e);
            match index.contains_key(&item) || !self.is_binary() {
                true => self.pack_in(index),
                // The planes of an id the index does not know decline.
                false => self.layout = OnceLock::from(None),
            }
        }
        self.check_own(index);
    }

    /// The packed half of [`Self::rate_in`]: `false`, with nothing
    /// changed, for a flat profile and for a rating the index does not
    /// give back from its slot. The derived state follows from what the
    /// rating changed, as in [`Self::upsert`]: a re-rating keeps the item
    /// and its creation time. Planes the rating widens past the entries
    /// are what a build would decline: the profile goes flat.
    fn rate_packed(&mut self, index: &ItemIndexMap, e: ProfileEntry) -> bool {
        let (Store::Packed { len, .. }, Some(Some(Layout::Planes(planes)))) =
            (&mut self.entries, self.layout.get_mut())
        else {
            return false;
        };
        let exact = |slot: &&u32| index.created_at(**slot) == e.timestamp;
        let Some(&slot) = index.get(&e.item).filter(exact) else {
            return false;
        };
        let liked = e.score == 1.0;
        match planes.rate(slot, liked) {
            Some(was_liked) => self.likes -= u32::from(was_liked),
            None => {
                *len += 1;
                self.fingerprint |= fingerprint_bit(e.item);
                self.oldest = self.oldest.min(e.timestamp);
            }
        }
        self.likes += u32::from(liked);
        self.norm = f64::from(self.likes).sqrt();
        if !planes.fits(*len) {
            self.entries = Store::Flat(self.flat().into_owned());
            self.layout = OnceLock::from(None);
        }
        true
    }

    /// Folds an entire user profile into this item profile (Algorithm 1,
    /// lines 3–4 and 15–16): [`Self::aggregated_with`], in place.
    pub fn aggregate_user_profile(&mut self, user: &Profile) {
        if user.is_empty() {
            return;
        }
        *self = self.aggregated_with(user);
    }

    /// This item profile with an entire user profile folded in, leaving
    /// `self` untouched: the copy-on-write news path builds the next hop's
    /// item profile straight from a shared (`Arc`ed) predecessor, under
    /// the per-item rule of `addToNewsProfile` (Algorithm 1, lines 18–22:
    /// average an item both hold, keeping the freshest timestamp) —
    /// entries and derived state are those of folding the user's entries
    /// in one by one. A folded item profile knows the run's index, and is
    /// folded again in slot space where it can be ([`Self::folded`]);
    /// any other is merged flat ([`Self::merged`]).
    pub fn aggregated_with(&self, user: &Profile) -> Profile {
        match &self.entries {
            Store::Packed { index, .. } => self.folded(user, index),
            Store::Flat(_) => self.merged(user),
        }
    }

    /// [`Self::aggregated_with`] as one linear merge of the two sorted
    /// entry vectors: the flat form of every fold, and the reference
    /// [`Self::folded`] is held to.
    ///
    /// The merged item set is the union of the two, so its fingerprint is
    /// the OR of theirs; only the score-derived state is rescanned.
    pub(crate) fn merged(&self, user: &Profile) -> Profile {
        let (a, b) = (self.flat(), user.flat());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].item.cmp(&b[j].item) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let (cur, e) = (a[i], b[j]);
                    merged.push(ProfileEntry {
                        item: cur.item,
                        timestamp: cur.timestamp.max(e.timestamp),
                        score: (cur.score + e.score) / 2.0,
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        let mut p = Self {
            entries: Store::Flat(merged),
            fingerprint: self.fingerprint | user.fingerprint,
            ..Self::default()
        };
        p.recompute_scores();
        p
    }

    /// This item profile with a node's own profile `own` folded in, in
    /// slot space where the run's `index` can express the result: `own`
    /// has planes that are a pack, the item profile is a folded one, empty,
    /// or flat with weights that are the whole of it ([`Weights::pack`]),
    /// and the fold's weights fit (see [`Weights::fold`]). The result is then
    /// packed, its weights folded word-wise from `own`'s planes — no id
    /// looked up, no entry sorted — and its derived state follows from the
    /// two profiles': the fingerprint is the OR of theirs, the oldest
    /// timestamp the older of theirs (a common item keeps its creation
    /// time), the counts and `Σ q²` what the fold changed. Anything else
    /// is the flat merge. Either way the entries and derived state are
    /// [`Self::merged`]'s, bit for bit.
    pub(crate) fn folded(&self, own: &Profile, index: &Arc<ItemIndexMap>) -> Profile {
        let folded = self
            .fold_in_slots(own, index)
            .unwrap_or_else(|| self.merged(own));
        #[cfg(debug_assertions)]
        {
            let merged = self.merged(own);
            let bits = |p: &Profile| -> Vec<(ItemId, Timestamp, u32)> {
                (p.entries()
                    .map(|e| (e.item, e.timestamp, e.score.to_bits())))
                .collect()
            };
            let derived = |p: &Profile| {
                let counts = (p.likes, p.non_binary, p.oldest);
                (p.norm.to_bits(), p.fingerprint, counts)
            };
            assert_eq!(bits(&folded), bits(&merged), "a fold in slots differs");
            assert_eq!(
                derived(&folded),
                derived(&merged),
                "a fold in slots differs"
            );
        }
        folded
    }

    /// The slot-space half of [`Self::folded`]: `None` where the flat
    /// merge must do.
    fn fold_in_slots(&self, own: &Profile, index: &Arc<ItemIndexMap>) -> Option<Profile> {
        let planes = own.planes(index).filter(|planes| planes.is_pack())?;
        let packed;
        let item = match (&self.entries, self.built_layout()) {
            (Store::Packed { .. }, Some(Some(Layout::Weights(weights)))) => Some(weights),
            _ if self.is_empty() => None,
            (Store::Flat(entries), _) => {
                packed = Weights::pack(entries, index)?;
                Some(&packed)
            }
            _ => return None,
        };
        let counts = Counts {
            len: self.len(),
            likes: self.likes,
            non_binary: self.non_binary,
        };
        let (weights, counts) = Weights::fold(item, counts, planes)?;
        Some(Self {
            entries: Store::Packed {
                len: counts.len,
                index: Arc::clone(index),
            },
            norm: weights.norm(),
            fingerprint: self.fingerprint | own.fingerprint,
            likes: counts.likes,
            non_binary: counts.non_binary,
            oldest: self.oldest.min(own.oldest),
            layout: OnceLock::from(Some(Layout::Weights(weights))),
        })
    }

    /// Removes entries strictly older than `cutoff` (profile window, §II-E).
    /// `cutoff = now - window`; an entry stamped exactly at the cutoff
    /// survives. A packed profile is purged in slot space and stays packed
    /// while its layout fits (see [`Planes::fits`], [`Weights::fits`]);
    /// any other profile is flat, or flattened, and loses its layout.
    pub fn purge_older_than(&mut self, cutoff: Timestamp) {
        if self.any_older_than(cutoff) && !self.purge_packed(cutoff) {
            self.vec().retain(|e| e.timestamp >= cutoff);
            self.recompute_norm();
            self.drop_layout();
        }
    }

    /// [`Self::purge_older_than`] of a node's own profile over the run's
    /// `index`: a packed one's planes purged in place, a flat one's vector,
    /// which then packs if it can ([`Self::pack_in`]).
    pub(crate) fn purge_in(&mut self, index: &Arc<ItemIndexMap>, cutoff: Timestamp) {
        if self.any_older_than(cutoff) {
            if !self.purge_packed(cutoff) {
                self.vec().retain(|e| e.timestamp >= cutoff);
                self.recompute_norm();
                self.pack_in(index);
            }
            self.check_own(index);
        }
    }

    /// [`Self::purge_older_than`] of a packed profile by slot: an entry's
    /// timestamp is its slot's creation time. `false` — with the purge
    /// done to the layout, which still lays the entries out — if the
    /// profile is flat, or its layout no longer fits.
    fn purge_packed(&mut self, cutoff: Timestamp) -> bool {
        let (Store::Packed { len, index }, Some(Some(layout))) =
            (&mut self.entries, self.layout.get_mut())
        else {
            return false;
        };
        let (mut fingerprint, mut oldest) = (0, Timestamp::MAX);
        let keep = |slot| {
            let created = index.created_at(slot);
            if created >= cutoff {
                fingerprint |= fingerprint_bit(index.id_of(slot));
                oldest = oldest.min(created);
            }
            created >= cutoff
        };
        let (counts, fits, norm) = match layout {
            Layout::Planes(planes) => {
                let counts = planes.retain(keep);
                let norm = f64::from(counts.likes).sqrt();
                (counts, planes.fits(counts.len), norm)
            }
            Layout::Weights(weights) => {
                let counts = weights.retain(keep);
                (counts, weights.fits(counts.len), weights.norm())
            }
        };
        if !fits {
            return false;
        }
        *len = counts.len;
        self.norm = norm;
        (self.fingerprint, self.oldest) = (fingerprint, oldest);
        (self.likes, self.non_binary) = (counts.likes, counts.non_binary);
        true
    }

    /// Whether [`Self::purge_older_than`] would remove an entry — asked
    /// before copying a shared profile to purge it. One comparison with the
    /// memoized oldest timestamp, debug-asserted against the scan it
    /// replaces.
    pub(crate) fn any_older_than(&self, cutoff: Timestamp) -> bool {
        debug_assert_eq!(
            self.oldest < cutoff,
            self.entries().any(|e| e.timestamp < cutoff),
            "stale oldest timestamp: a construction path skipped recompute_norm"
        );
        self.oldest < cutoff
    }

    /// The layout over `index`, built now if need be — planes if the
    /// profile is binary, weights otherwise — and shared by every scorer
    /// of this allocation, on every thread. Every scorer of a run asks
    /// with the run's one index. A packed profile's is its store.
    pub(crate) fn layout(&self, index: &ItemIndexMap) -> Option<&Layout> {
        self.layout
            .get_or_init(|| self.build_layout(index))
            .as_ref()
    }

    /// Planes if the profile is binary, weights otherwise (`None` if the
    /// build declines).
    fn build_layout(&self, index: &ItemIndexMap) -> Option<Layout> {
        let entries = self.flat();
        match self.is_binary() {
            true => Planes::build(&entries, index).map(Layout::Planes),
            false => Weights::build(&entries, index).map(Layout::Weights),
        }
    }

    /// The layout if one was asked for: `Some(None)` if its build
    /// declined. Builds nothing.
    pub(crate) fn built_layout(&self) -> Option<Option<&Layout>> {
        self.layout.get().map(Option::as_ref)
    }

    /// The bit planes of a *binary* profile, built now if need be. `None`
    /// for one whose build declined, for a folded item profile (its
    /// layout is weights, whatever its scores), and for a profile holding
    /// any other score, which builds nothing here.
    pub(crate) fn planes(&self, index: &ItemIndexMap) -> Option<&Planes> {
        if !self.is_binary() {
            return None;
        }
        match self.layout(index)? {
            Layout::Planes(planes) => Some(planes),
            Layout::Weights(_) => None,
        }
    }

    /// Whether every score is exactly `0` or `1` — what [`Self::rate`]
    /// builds, and the only kind of profile that can have planes.
    fn is_binary(&self) -> bool {
        self.non_binary == 0
    }

    /// Euclidean norm of the score vector (memoized; O(1)).
    pub(crate) fn norm(&self) -> f64 {
        // A packed profile's norm is checked where it is made: only a
        // slice is rescanned.
        debug_assert!(
            (self.as_slice())
                .is_none_or(|e| self.norm.to_bits() == norm_of(e.iter().copied()).to_bits()),
            "stale norm cache: a construction path skipped recompute_norm"
        );
        self.norm
    }

    /// Bloom fingerprint of the rated item-id set (memoized; O(1)).
    ///
    /// `a.fingerprint() & b.fingerprint() == 0` proves `a` and `b` share no
    /// rated item — the zero-rejection fast path in `crate::similarity`.
    pub(crate) fn fingerprint(&self) -> u128 {
        // Likewise for a packed profile's fingerprint.
        debug_assert!(
            (self.as_slice()).is_none_or(|e| self.fingerprint == fingerprint_of(e.iter().copied())),
            "stale fingerprint cache: a construction path skipped recompute_norm"
        );
        self.fingerprint
    }
}

#[cfg(test)]
impl Profile {
    /// Whether the layout is the store.
    pub(crate) fn is_packed(&self) -> bool {
        self.as_slice().is_none()
    }

    /// `addToNewsProfile` (Algorithm 1, lines 18–22): folds one user-profile
    /// entry into this *item* profile — averaging with the existing score if
    /// present, inserting otherwise. Averaging keeps the freshest timestamp
    /// so the window purge reflects the most recent supporting opinion.
    /// The reference [`Self::aggregated_with`] is tested against.
    pub(crate) fn add_to_news_profile(&mut self, e: ProfileEntry) {
        let entries = self.vec();
        match entries.binary_search_by_key(&e.item, |x| x.item) {
            Ok(i) => {
                let cur = &mut entries[i];
                cur.score = (cur.score + e.score) / 2.0;
                cur.timestamp = cur.timestamp.max(e.timestamp);
            }
            Err(i) => entries.insert(i, e),
        }
        self.recompute_norm();
        self.drop_layout();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{reference, Metric, Prepared};
    use proptest::prelude::*;

    fn e(item: ItemId, t: Timestamp, s: Score) -> ProfileEntry {
        ProfileEntry {
            item,
            timestamp: t,
            score: s,
        }
    }

    /// [`Profile::any_older_than`] by its definition, at each cutoff.
    fn older_by_scan(p: &Profile, cutoffs: &[Timestamp]) {
        for &c in cutoffs {
            let scan = p.entries().any(|x| x.timestamp < c);
            assert_eq!(p.any_older_than(c), scan, "cutoff {c}");
        }
        assert_eq!(p.oldest, oldest_of(p.entries()));
    }

    /// A run's index for the slot-space tests: 160 items with content-hash
    /// ids, numbered in publication order (so slot order is not id order),
    /// item `k` created at time `k / 3`; and 40 more ids it does not know.
    fn fold_index() -> (Vec<ItemId>, Arc<ItemIndexMap>) {
        let ids: Vec<ItemId> = (0..200)
            .map(|k| crate::item::NewsItem::new(format!("f{k}"), "", "", 0, k / 3).id())
            .collect();
        let index = (ids[..160].iter().zip(0..))
            .map(|(&id, k)| (id, k, k / 3))
            .collect();
        (ids, Arc::new(index))
    }

    /// A node's own-profile history, `(kind, k, liked)` drawn by the
    /// tests, as the single mutations it makes: a rating of item `k` (a
    /// re-rating if it is rated), a flipped re-rating of the `k`-th entry,
    /// a window purge at `k / 12`, a cold start's three ratings, a rating
    /// of an id the index does not know, one stamped a cycle after its
    /// item's creation, or a restore from its checkpointed entries — with
    /// the `k`-th entry's `0` turned `-0.0` unless `liked`.
    fn own_steps(steps: &[(u8, usize, bool)]) -> impl Iterator<Item = (u8, usize, bool)> + '_ {
        steps.iter().flat_map(|&(kind, k, liked)| match kind {
            3 => vec![
                (0, k, liked),
                (0, (k + 1) % 160, liked),
                (0, (k + 2) % 160, liked),
            ],
            _ => vec![(kind, k, liked)],
        })
    }

    /// One of [`own_steps`]' mutations.
    fn own_step(
        own: &mut Profile,
        ids: &[ItemId],
        index: &Arc<ItemIndexMap>,
        step: (u8, usize, bool),
    ) {
        let created = |k: usize| (k / 3) as Timestamp;
        match step {
            (0, k, liked) => own.rate_in(index, ids[k], created(k), liked),
            (1, k, _) if !own.is_empty() => {
                let e = own.entries().nth(k % own.len()).expect("k % len < len");
                own.rate_in(index, e.item, e.timestamp, e.score != 1.0);
            }
            (2, k, _) => own.purge_in(index, created(k / 4)),
            (4, k, liked) => own.rate_in(index, ids[160 + k % 40], 0, liked),
            (5, k, liked) => own.rate_in(index, ids[k], created(k) + 1, liked),
            (6, k, liked) => *own = Profile::own(restored(own, k, liked), index),
            _ => {}
        }
    }

    /// [`own_step`] by the flat profile's own mutations, [`Profile::rate`]
    /// and [`Profile::purge_older_than`]: the reference an own profile is
    /// held to.
    fn flat_step(flat: &mut Profile, ids: &[ItemId], step: (u8, usize, bool)) {
        let created = |k: usize| (k / 3) as Timestamp;
        match step {
            (0, k, liked) => flat.rate(ids[k], created(k), liked),
            (1, k, _) if !flat.is_empty() => {
                let e = flat.entries().nth(k % flat.len()).expect("k % len < len");
                flat.rate(e.item, e.timestamp, e.score != 1.0);
            }
            (2, k, _) => flat.purge_older_than(created(k / 4)),
            (4, k, liked) => flat.rate(ids[160 + k % 40], 0, liked),
            (5, k, liked) => flat.rate(ids[k], created(k) + 1, liked),
            (6, k, liked) => *flat = Profile::from_entries(restored(flat, k, liked)),
            _ => {}
        }
    }

    /// A checkpoint of `p`'s entries, the `k`-th one's `0` turned `-0.0`
    /// unless `liked`.
    fn restored(p: &Profile, k: usize, liked: bool) -> Vec<ProfileEntry> {
        let mut entries: Vec<ProfileEntry> = p.entries().collect();
        let len = entries.len();
        if let Some(e) = entries
            .get_mut(k % len.max(1))
            .filter(|e| !liked && e.score == 0.0)
        {
            e.score = -0.0;
        }
        entries
    }

    /// A binary profile of `(k, liked)` ratings stamped at creation time.
    fn rated(ids: &[ItemId], ratings: &[(usize, bool)]) -> Profile {
        Profile::from_entries(
            ratings
                .iter()
                .map(|&(k, liked)| rating(ids[k], (k / 3) as Timestamp, liked)),
        )
    }

    #[test]
    fn rate_inserts_sorted_unique() {
        let mut p = Profile::new();
        p.rate(30, 0, true);
        p.rate(10, 1, false);
        p.rate(20, 2, true);
        p.rate(10, 3, true); // re-rating replaces
        let ids: Vec<ItemId> = p.entries().map(|x| x.item).collect();
        assert_eq!(ids, vec![10, 20, 30]);
        let entry = p.entries().find(|x| x.item == 10).unwrap();
        assert_eq!((entry.score, entry.timestamp), (1.0, 3));
    }

    #[test]
    fn add_to_news_profile_averages() {
        let mut item_profile = Profile::new();
        item_profile.add_to_news_profile(e(1, 0, 1.0));
        item_profile.add_to_news_profile(e(1, 5, 0.0));
        let entry = item_profile.entries().find(|x| x.item == 1).unwrap();
        assert_eq!(entry.score, 0.5);
        assert_eq!(entry.timestamp, 5, "freshest timestamp kept");
        item_profile.add_to_news_profile(e(1, 2, 1.0));
        let entry = item_profile.entries().find(|x| x.item == 1).unwrap();
        assert_eq!(entry.score, 0.75);
    }

    #[test]
    fn aggregate_folds_every_entry() {
        let user = Profile::from_entries([e(1, 0, 1.0), e(2, 0, 0.0)]);
        let mut item_profile = Profile::new();
        item_profile.aggregate_user_profile(&user);
        assert_eq!(item_profile.len(), 2);
        let entry = item_profile.entries().find(|x| x.item == 2).unwrap();
        assert_eq!(entry.score, 0.0);
    }

    #[test]
    fn purge_respects_cutoff_inclusively() {
        let mut p = Profile::from_entries([e(1, 5, 1.0), e(2, 6, 1.0), e(3, 4, 1.0)]);
        p.purge_older_than(5);
        assert!(p.contains(1));
        assert!(p.contains(2));
        assert!(!p.contains(3));
    }

    #[test]
    fn likes_and_norm() {
        let p = Profile::from_entries([e(1, 0, 1.0), e(2, 0, 0.0), e(3, 0, 1.0)]);
        assert_eq!(p.likes, 2);
        assert!((p.norm() - (2.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_properties() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.norm(), 0.0);
        let snapshot = Profile::snapshot(&p, &Arc::default());
        assert!(snapshot.as_slice().is_none(), "nothing to look up: packed");
        assert!(snapshot.is_empty() && snapshot == p);
        assert_eq!(format!("{snapshot:?}"), format!("{p:?}"));
        assert!(!snapshot.contains(0));
        assert_eq!(snapshot.heap_bytes(), 0);
    }

    #[test]
    fn from_entries_keeps_last_per_item() {
        let p = Profile::from_entries([e(1, 0, 1.0), e(1, 9, 0.0)]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries().find(|x| x.item == 1).unwrap().score, 0.0);
    }

    proptest! {
        #[test]
        fn entries_always_sorted_unique(
            ops in prop::collection::vec((0u64..50, 0u32..100, prop::bool::ANY), 0..200)
        ) {
            let mut p = Profile::new();
            for (item, t, liked) in ops {
                p.rate(item, t, liked);
            }
            let ids: Vec<ItemId> = p.entries().map(|x| x.item).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(ids, sorted);
        }

        #[test]
        fn item_profile_scores_stay_in_unit_interval(
            ops in prop::collection::vec((0u64..10, prop::bool::ANY), 1..100)
        ) {
            let mut ip = Profile::new();
            for (item, liked) in ops {
                ip.add_to_news_profile(e(item, 0, if liked { 1.0 } else { 0.0 }));
            }
            for entry in ip.entries() {
                prop_assert!((0.0..=1.0).contains(&entry.score));
            }
        }

        #[test]
        fn cached_norm_matches_recomputation(
            ops in prop::collection::vec((0u64..30, 0u32..50, prop::bool::ANY), 0..120),
            cutoff in 0u32..50
        ) {
            let mut p = Profile::new();
            for &(item, t, liked) in &ops {
                p.rate(item, t, liked);
            }
            let mut ip = Profile::new();
            for &(item, t, liked) in &ops {
                ip.add_to_news_profile(e(item, t, if liked { 1.0 } else { 0.5 }));
            }
            ip.aggregate_user_profile(&p);
            ip.purge_older_than(cutoff);
            for profile in [&p, &ip] {
                let expected = profile
                    .entries()
                    .map(|x| (x.score as f64) * (x.score as f64))
                    .sum::<f64>()
                    .sqrt();
                prop_assert_eq!(profile.norm(), expected, "cache must be exact");
            }
        }

        /// The one-pass merge against the definition it replaces: folding
        /// the user's entries in one at a time with `add_to_news_profile`.
        /// Entries (scores by bits), norm bits, fingerprint, like count and
        /// binariness must all agree, whichever side is empty, shorter or
        /// runs out first, and whether the user's scores are the ratings a
        /// node folds or the averages of another item profile.
        #[test]
        fn aggregated_with_equals_the_sequential_fold(
            item in prop::collection::vec((0u64..120, 0u32..50, 0u32..9), 0..100),
            user in prop::collection::vec((0u64..120, 0u32..50, 0u32..9), 0..100),
            user_is_binary in prop::bool::ANY,
            cutoffs in prop::collection::vec(0u32..52, 4..5),
        ) {
            let item = Profile::from_entries(
                item.iter().map(|&(i, t, eighths)| e(i, t, eighths as f32 / 8.0)),
            );
            let user = Profile::from_entries(user.iter().map(|&(i, t, eighths)| {
                let score = if user_is_binary { (eighths % 2) as f32 } else { eighths as f32 / 8.0 };
                e(i, t, score)
            }));
            let merged = item.aggregated_with(&user);
            let mut folded = item.clone();
            for entry in user.entries() {
                folded.add_to_news_profile(entry);
            }
            let bits = |p: &Profile| -> Vec<(ItemId, Timestamp, u32)> {
                p.entries().map(|x| (x.item, x.timestamp, x.score.to_bits())).collect()
            };
            prop_assert_eq!(bits(&merged), bits(&folded));
            prop_assert_eq!(merged.norm().to_bits(), folded.norm().to_bits());
            prop_assert_eq!(merged.fingerprint(), folded.fingerprint());
            prop_assert_eq!(merged.fingerprint, fingerprint_of(merged.entries()));
            prop_assert_eq!(merged.likes, folded.likes);
            prop_assert_eq!(merged.non_binary, folded.non_binary);
            older_by_scan(&merged, &cutoffs);
            older_by_scan(&folded, &cutoffs);
            let mut in_place = item.clone();
            in_place.aggregate_user_profile(&user);
            prop_assert_eq!(bits(&in_place), bits(&folded));
            older_by_scan(&in_place, &cutoffs);
        }

        /// The incrementally kept counts and oldest timestamp — and the
        /// binary profile's norm derived from the counts — against a fresh
        /// scan, as ratings and real values replace one another and
        /// timestamps move both ways. `norm()` and `any_older_than()`
        /// debug-assert their caches; the reference
        /// expressions are repeated here so the property also holds in
        /// release builds.
        #[test]
        fn counts_follow_upserts(
            ops in prop::collection::vec((0u64..12, 0u32..5, 0u32..8), 0..80),
            cutoffs in prop::collection::vec(0u32..10, 3..4),
        ) {
            let mut p = Profile::new();
            older_by_scan(&p, &cutoffs);
            for &(item, class, t) in &ops {
                p.upsert(e(item, t, [0.0, 1.0, -0.0, 0.5, 0.75][class as usize]));
                older_by_scan(&p, &cutoffs);
                let likes = p.entries().filter(|e| e.score > 0.5).count();
                prop_assert_eq!(p.likes as usize, likes);
                prop_assert_eq!(p.norm().to_bits(), norm_of(p.entries()).to_bits());
                let rescanned = Profile::from_entries(p.entries());
                prop_assert_eq!(
                    (p.likes, p.non_binary, p.fingerprint),
                    (rescanned.likes, rescanned.non_binary, rescanned.fingerprint)
                );
                let binary = p.entries().all(|x| is_binary(x.score));
                prop_assert_eq!(p.non_binary == 0, binary);
                prop_assert!(binary || p.planes(&(0..12).zip(0..).collect()).is_none());
            }
        }

        #[test]
        fn purge_is_monotone(
            ts in prop::collection::vec(0u32..100, 0..50),
            cutoff in 0u32..100,
            cutoffs in prop::collection::vec(0u32..102, 4..5),
        ) {
            let mut p = Profile::from_entries(
                ts.iter().enumerate().map(|(i, &t)| e(i as u64, t, 1.0))
            );
            older_by_scan(&p, &cutoffs);
            let before = p.len();
            p.purge_older_than(cutoff);
            prop_assert!(p.len() <= before);
            prop_assert!(p.entries().all(|x| x.timestamp >= cutoff));
            older_by_scan(&p, &cutoffs);
            prop_assert!(!p.any_older_than(cutoff));
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A node's own profile reads as the flat profile [`Profile::rate`]
        /// and [`Profile::purge_older_than`] build, after every rating,
        /// re-rating, window purge, cold start, rating of an id the index
        /// does not know, rating stamped off its item's creation time and
        /// restore from a checkpoint holding a `-0.0`: its entries by
        /// bits, length, norm bits, fingerprint, likes, oldest timestamp
        /// and `any_older_than`; its snapshot's entries and length, all
        /// the wire codec writes; every `Prepared` score either side of
        /// it, against the reference by bits, for both metrics; and it is
        /// packed — its planes alone — exactly where [`Planes::build`] of
        /// the flat entries is a pack.
        #[test]
        fn an_own_profile_reads_as_its_flat_reference(
            steps in prop::collection::vec((0u8..7, 0usize..160, prop::bool::ANY), 1..80),
            cands in prop::collection::vec(prop::collection::vec((0usize..160, prop::bool::ANY), 0..40), 1..3),
            cutoffs in prop::collection::vec(0u32..56, 3..4),
        ) {
            let (ids, index) = fold_index();
            let cands: Vec<Profile> = cands.iter().map(|cand| rated(&ids, cand)).collect();
            let bits = |p: &Profile| -> Vec<(ItemId, Timestamp, u32)> {
                p.entries().map(|x| (x.item, x.timestamp, x.score.to_bits())).collect()
            };
            let (mut own, mut flat) = (Profile::own([], &index), Profile::new());
            for step in own_steps(&steps) {
                own_step(&mut own, &ids, &index, step);
                flat_step(&mut flat, &ids, step);
                prop_assert!(flat.as_slice().is_some(), "the reference stays flat");
                prop_assert_eq!(bits(&own), bits(&flat), "after {:?}", step);
                prop_assert_eq!((own.len(), own.entries().len()), (flat.len(), flat.len()));
                prop_assert_eq!(own.norm().to_bits(), flat.norm().to_bits());
                prop_assert_eq!(own.fingerprint(), flat.fingerprint());
                prop_assert_eq!((own.likes, own.oldest), (flat.likes, flat.oldest));
                older_by_scan(&own, &cutoffs);
                for &c in &cutoffs {
                    prop_assert_eq!(own.any_older_than(c), flat.any_older_than(c));
                }
                let snapshot = Profile::snapshot(&own, &index);
                prop_assert_eq!((snapshot.len(), bits(&snapshot)), (flat.len(), bits(&flat)));
                for cand in &cands {
                    for metric in [Metric::Wup, Metric::Cosine] {
                        let by_reference = |pn: &Profile, pc: &Profile| match metric {
                            Metric::Wup => reference::wup_similarity(pn, pc),
                            Metric::Cosine => reference::cosine_similarity(pn, pc),
                        };
                        let score = Prepared::new(&own, &index).score(metric, cand);
                        prop_assert_eq!(score.to_bits(), by_reference(&flat, cand).to_bits());
                        let score = Prepared::new(cand, &index).score(metric, &own);
                        prop_assert_eq!(score.to_bits(), by_reference(cand, &flat).to_bits());
                    }
                }
                let pack = Planes::build(&flat.flat(), &index).is_some_and(|p| p.is_pack());
                prop_assert_eq!(own.is_packed(), pack, "after {:?}", step);
                if pack {
                    prop_assert_eq!(own.heap_bytes(), own.plane_bytes());
                }
            }
        }

        /// The slot-space fold against the flat merge it replaces, by bits:
        /// entries, norm, fingerprint, like and non-binary counts and the
        /// oldest timestamp. The own side has a random history (see
        /// [`own_step`]) — planes that are a pack, or none because of an id
        /// the index does not know, or not a pack because of an entry
        /// stamped off its creation time — or is its obfuscated share. The
        /// item side is empty; folded from up to three likers; folded from
        /// one liker of items 0–39 and then `deep` dislikers of item 0, so
        /// that its score halves past 2⁻²⁰; or flat — dyadic, non-dyadic, or
        /// holding an id the index does not know or an off-time stamp. The
        /// fold runs in slots exactly where both sides can, a flat item
        /// side through [`Weights::pack`], and the merge's weights fit. A
        /// packed result's weights are the [`Weights::build`] of the flat
        /// merge's entries word for word, and its scores against binary
        /// candidates are the reference's for both metrics, with no layout
        /// built; and a window purge of it is the flat purge.
        #[test]
        fn a_fold_in_slots_is_the_flat_merge(
            steps in prop::collection::vec((0u8..4, 0usize..160, prop::bool::ANY), 1..90),
            spoil in (0u8..6, 0usize..160),
            item_kind in 0u8..6,
            likers in prop::collection::vec(prop::collection::vec((0usize..160, prop::bool::ANY), 1..40), 1..4),
            deep in 0usize..24,
            flat_entries in prop::collection::vec((0usize..160, 0u32..9), 1..30),
            obfuscated in prop::bool::ANY,
            cands in prop::collection::vec(prop::collection::vec((0usize..160, prop::bool::ANY), 0..40), 1..5),
            cutoff in 0u32..56,
        ) {
            let (ids, index) = fold_index();
            let mut own = Profile::new();
            own.planes(&index);
            for step in own_steps(&steps) {
                own_step(&mut own, &ids, &index, step);
            }
            // In a third of the cases, one rating of an id the index does
            // not know, or one stamped off its item's creation time.
            own_step(&mut own, &ids, &index, (spoil.0, spoil.1, true));
            let item = match item_kind {
                0 => Profile::new(),
                1 => likers.iter().fold(Profile::new(), |item, liker| item.folded(&rated(&ids, liker), &index)),
                2 => {
                    let first: Vec<(usize, bool)> = (0..40).map(|k| (k, true)).collect();
                    let first = Profile::new().folded(&rated(&ids, &first), &index);
                    (0..deep).fold(first, |item, _| item.folded(&rated(&ids, &[(0, false)]), &index))
                }
                kind => Profile::from_entries(flat_entries.iter().map(|&(k, eighths)| {
                    let score = if kind == 4 { eighths as f32 / 9.0 } else { eighths as f32 / 8.0 };
                    let e = ProfileEntry { item: ids[k], timestamp: (k / 3) as Timestamp, score };
                    match kind {
                        5 if k % 2 == 0 => ProfileEntry { item: ids[160 + k % 40], ..e },
                        5 => ProfileEntry { timestamp: e.timestamp + 1, ..e },
                        _ => e,
                    }
                })),
            };
            let shared = crate::obfuscation::Obfuscation::randomized_response(0.5, 7).share(3, &own);
            let disclosed = if obfuscated { &shared } else { &own };
            let folded = item.folded(disclosed, &index);
            let merged = item.merged(disclosed);
            let bits = |p: &Profile| -> Vec<(ItemId, Timestamp, u32)> {
                p.entries().map(|x| (x.item, x.timestamp, x.score.to_bits())).collect()
            };
            prop_assert_eq!(bits(&folded), bits(&merged));
            prop_assert_eq!(folded.norm().to_bits(), merged.norm().to_bits());
            prop_assert_eq!(folded.fingerprint(), merged.fingerprint());
            prop_assert_eq!((folded.likes, folded.non_binary), (merged.likes, merged.non_binary));
            prop_assert_eq!(folded.oldest, merged.oldest);
            prop_assert_eq!(folded.len(), merged.len());
            let packed = folded.as_slice().is_none();
            let item_in_slots = item.is_empty() || item.as_slice().is_none()
                || Weights::pack(&item.flat(), &index).is_some();
            let own_pack = disclosed.planes(&index).is_some_and(Planes::is_pack);
            if item_in_slots && own_pack {
                let fits = Weights::pack(&merged.flat(), &index).is_some_and(|w| w.fits(merged.len()));
                prop_assert_eq!(packed, fits, "folded in slots from {:?}", item);
            }
            if packed {
                prop_assert!(item_in_slots && own_pack, "folded in slots from {:?}", item);
                let Some(Some(Layout::Weights(weights))) = folded.built_layout() else {
                    panic!("a packed fold keeps its weights");
                };
                prop_assert_eq!(Some(weights), Weights::build(&merged.flat(), &index).as_ref());
            }
            if item_kind == 2 {
                prop_assert_eq!(item.as_slice().is_none(), deep <= 20, "a score of 2⁻²¹ has no weight");
            }
            let layout = folded.built_layout().flatten().map(|l| l as *const Layout);
            for cand in &cands {
                let cand = rated(&ids, cand);
                for metric in [Metric::Wup, Metric::Cosine] {
                    let expected = match metric {
                        Metric::Wup => reference::wup_similarity(&merged, &cand),
                        Metric::Cosine => reference::cosine_similarity(&merged, &cand),
                    };
                    let score = Prepared::new(&folded, &index).score(metric, &cand);
                    prop_assert_eq!(score.to_bits(), expected.to_bits());
                }
            }
            if packed {
                prop_assert_eq!(folded.built_layout().flatten().map(|l| l as *const Layout), layout);
            }
            // A window purge by slot is the flat purge, and stays packed
            // while its weights fit.
            let (mut purged, mut flat) = (folded.clone(), merged.clone());
            purged.purge_older_than(cutoff);
            flat.purge_older_than(cutoff);
            prop_assert_eq!(bits(&purged), bits(&flat));
            prop_assert_eq!(purged.norm().to_bits(), flat.norm().to_bits());
            prop_assert_eq!(purged.fingerprint(), flat.fingerprint());
            prop_assert_eq!((purged.likes, purged.non_binary, purged.oldest), (flat.likes, flat.non_binary, flat.oldest));
            prop_assert_eq!(purged.len(), flat.len());
            if let Some(Some(Layout::Weights(weights))) = purged.built_layout().filter(|_| purged.is_packed()) {
                prop_assert!(packed && weights.fits(flat.len()));
                prop_assert_eq!(Some(weights), Weights::build(&flat.flat(), &index).as_ref());
            }
        }

        /// A snapshot reads as the flat profile it was taken of: order (and
        /// so `==`, `Debug` and every ordered reader), length, lookups, the
        /// newest timestamp, derived state by bits, planes, every score
        /// against the reference, either side of it — and a mutation of a
        /// copy. The ids are content hashes, as `NewsItem::id` makes them,
        /// and the index numbers them in publication order, so slot order
        /// is not id order; item `k` is created at time `k`, and every
        /// entry is stamped with its item's creation time — except, in
        /// half the cases, one stamped later, whose snapshot stays flat.
        /// Some profiles hold an id the index does not know, and some span
        /// more words than they have entries: their planes decline, and
        /// the snapshot stays flat too.
        #[test]
        fn a_snapshot_reads_as_its_flat_profile(
            raw in prop::collection::vec((0usize..160, prop::bool::ANY), 0..120),
            stranger in prop::bool::ANY,
            off in (prop::bool::ANY, 0usize..160, 1u32..30),
            cand in prop::collection::vec((0usize..160, prop::bool::ANY), 0..60),
            cutoffs in prop::collection::vec(0u32..192, 4..5),
        ) {
            let off = off.0.then_some((off.1, off.2));
            let ids: Vec<ItemId> = (0..161)
                .map(|k| crate::item::NewsItem::new(format!("t{k}"), "", "", 0, k).id())
                .collect();
            let index = Arc::new(ids[..160].iter().copied().zip(0..).map(|(id, k)| (id, k, k)).collect::<ItemIndexMap>());
            let binary = |(k, t, liked): (usize, u32, bool)| e(ids[k], t, f32::from(u8::from(liked)));
            let created = |(k, liked): (usize, bool)| binary((k, k as u32, liked));
            let flat = Profile::from_entries(
                raw.iter().copied().map(created)
                    .chain(stranger.then(|| created((160, true))))
                    .chain(off.map(|(k, late)| binary((k, k as u32 + late, true)))),
            );
            let snapshot = Profile::snapshot(&flat, &index);
            let packed = Planes::build(&flat.flat(), &index).is_some_and(|p| p.is_pack());
            let planes = Planes::build(&flat.flat(), &index).is_some();
            prop_assert_eq!(packed, planes && off.is_none());
            prop_assert_eq!(snapshot.as_slice().is_none(), packed);
            prop_assert_eq!(snapshot.planes(&index).is_some(), planes);
            if packed {
                prop_assert_eq!(snapshot.heap_bytes(), snapshot.plane_bytes());
            }
            prop_assert!(snapshot.entries().eq(flat.entries()));
            prop_assert!(snapshot == flat);
            prop_assert!(flat == snapshot);
            prop_assert_eq!(format!("{snapshot:?}"), format!("{flat:?}"));
            prop_assert_eq!(snapshot.entries().len(), flat.len());
            prop_assert_eq!((snapshot.len(), snapshot.is_empty()), (flat.len(), flat.is_empty()));
            for &item in &ids {
                prop_assert_eq!(snapshot.contains(item), flat.contains(item));
            }
            prop_assert_eq!(snapshot.norm().to_bits(), flat.norm().to_bits());
            prop_assert_eq!(snapshot.fingerprint(), flat.fingerprint());
            prop_assert_eq!(snapshot.likes, flat.likes);
            prop_assert_eq!(snapshot.oldest, flat.oldest);
            older_by_scan(&snapshot, &cutoffs);

            let cand = Profile::from_entries(cand.iter().copied().map(created));
            let overlap = |p: &Profile| p.planes(&index).zip(cand.planes(&index)).map(|(a, b)| a.overlap(b));
            prop_assert_eq!(overlap(&snapshot), overlap(&flat));
            for metric in [Metric::Wup, Metric::Cosine] {
                let by_reference = |pn: &Profile, pc: &Profile| match metric {
                    Metric::Wup => reference::wup_similarity(pn, pc),
                    Metric::Cosine => reference::cosine_similarity(pn, pc),
                };
                let pairs = [
                    (&snapshot, &cand, &flat, &cand),
                    (&cand, &snapshot, &cand, &flat),
                    (&snapshot, &snapshot, &flat, &flat),
                ];
                for (pn, pc, flat_pn, flat_pc) in pairs {
                    let expected = by_reference(flat_pn, flat_pc);
                    for _ in 0..2 {
                        prop_assert_eq!(Prepared::new(pn, &index).score(metric, pc).to_bits(), expected.to_bits());
                    }
                    prop_assert_eq!(by_reference(pn, pc).to_bits(), expected.to_bits());
                }
            }

            let (mut copy, mut reference_copy) = (snapshot.clone(), flat.clone());
            prop_assert_eq!(copy.as_slice().is_none(), packed);
            prop_assert!(copy == snapshot);
            copy.rate(ids[7], 191, true);
            reference_copy.rate(ids[7], 191, true);
            prop_assert!(copy == reference_copy);
            prop_assert_eq!(copy.norm().to_bits(), reference_copy.norm().to_bits());
        }
    }
}
