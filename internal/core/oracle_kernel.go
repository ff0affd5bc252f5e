package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// This file is the oracle's columnar hot path: the whole-trace profile
// and collection passes. It computes exactly what oracle_reference.go
// computes — differential tests enforce bit-identical Candidates and
// Selections — but over packed (SoA, dense-ID) trace columns, with
// three structural changes:
//
//   - window tag resolution is a flat backward scan over the dense-ID
//     column with epoch-stamped occurrence/segment scratch arrays, not a
//     closure-based walk with linear per-PC searches (oracleEmitter);
//   - pass 1's per-(record × window-entry) map[Ref]*candStats lookups
//     become open-addressed flat candidate tables keyed by packed ref
//     keys (candTable);
//   - the reference's pass 2 (all pairs) and pass 3 (triple extensions)
//     trace streams fold into ONE stream that tallies each branch's
//     joint (beam-state vector, outcome) distribution into a small
//     per-window histogram (stateHist): the paper's §3.4 pattern table,
//     with counts in place of counters. Pairs and triples are then
//     scored off-trace by summing over its entries, embarrassingly
//     parallel per branch through the internal/runner worker pool.
//
// Every pass also serves several window lengths at once. Both tagging
// schemes resolve an entry's tag from strictly more-recent entries, so
// the first n steps of a window-32 walk ARE the window-n walk: the
// emitter walks once at the largest window and records where each
// smaller window's emissions end. Profile counts are bucketed by the
// smallest window that saw them (window-n statistics are prefix sums),
// and the collection stream resolves each branch's union of per-window
// beams once per walk. A one-window run is the same code with one
// bucket.
//
// Both passes also walk once per distinct path signature, not once per
// record. What a walk emits for record i depends only on its branch and
// the previous n (id, taken, backward) entries, so records are first
// classified by that signature (pathmemo.go) and each class of repeated
// signatures walks once, at its first record: the profile pass adds the
// class's outcome counts in one go, and the collection pass adds them
// to the histogram entry of the class's state vectors. Only the first n
// records, one-record classes and records the memo declined (budget or
// bypass) walk on their own, in record order. The classes and their
// outcome counts are computed once per oracle run, over the whole trace,
// and both passes share them.
//
// Each walk writes only its own branch's state: the profile walk its
// candidate table, the collection walk its matcher's histograms. Both
// passes therefore run on shards of the static branches
// (branchShards), each shard with its own emitter and each branch's
// walks in their serial order, on the cfg.ScoreParallel workers that
// scoring uses; the shards need no merge.
//
// Net: 3 trace passes -> 2 for any number of windows, one emitter walk
// per distinct signature, no per-candidate allocations, no closures in
// the per-record loop.

// A refKey packs a Ref against the trace's dense branch IDs:
// bits [6..) dense ID, bit 5 scheme, bits [0..5) tag. For one PC the key
// order (scheme, then tag) matches refLess; across PCs keys must be
// compared through the ID -> Addr table (keyRefLess). The emitter
// additionally smuggles the emitted instance's direction in bit 63
// (refKeyTakenBit), so one uint64 buffer carries both the ref identity
// and its state; consumers mask the bit off before table lookups.
const (
	refKeySchemeBit = 1 << 5
	refKeyTagMask   = refKeySchemeBit - 1
	refKeyLow       = refKeySchemeBit | refKeyTagMask // (scheme, tag): a key's bit in its ID's refKeySet bitmap
	refKeyIDShift   = 6
	refKeyTakenBit  = uint64(1) << 63
)

func refKeyOcc(rid int32, tag uint8) uint64 {
	return uint64(uint32(rid))<<refKeyIDShift | uint64(tag)
}

func refKeyBack(rid int32, tag uint8) uint64 {
	return uint64(uint32(rid))<<refKeyIDShift | refKeySchemeBit | uint64(tag)
}

// refKeyOf packs r against its PC's dense ID. ok is false when the ref
// can never be emitted — its tag exceeds MaxTag — so it stays
// StateAbsent, exactly like the reference's States resolution.
func refKeyOf(rid int32, r Ref) (key uint64, ok bool) {
	if r.Tag > MaxTag {
		return 0, false
	}
	if r.Scheme == BackwardCount {
		return refKeyBack(rid, r.Tag), true
	}
	return refKeyOcc(rid, r.Tag), true
}

func decodeRefKey(key uint64, addrs []trace.Addr) Ref {
	s := Occurrence
	if key&refKeySchemeBit != 0 {
		s = BackwardCount
	}
	return Ref{PC: addrs[key>>refKeyIDShift], Scheme: s, Tag: uint8(key & refKeyTagMask)}
}

// keyRefLess orders packed ref keys identically to refLess on the
// decoded Refs: by address, then scheme, then tag. The low 6 bits encode
// (scheme, tag) in exactly refLess's lexicographic order, so only the ID
// needs decoding.
func keyRefLess(a, b uint64, addrs []trace.Addr) bool {
	aa, ab := addrs[a>>refKeyIDShift], addrs[b>>refKeyIDShift]
	if aa != ab {
		return aa < ab
	}
	return a&refKeyLow < b&refKeyLow
}

// emitScratch is one dense branch ID's per-window bookkeeping, packed
// into a single cache-line-friendly struct so each window entry touches
// one array element instead of three. bits and group are the ID's share
// of the focused refKeySet, copied in by focus: bits is zero for every
// ID outside the set, so a focused emit needs no stamp to skip them.
type emitScratch struct {
	occGen uint64 // emit-generation stamp: occCnt is valid when it matches
	segGen uint64 // backward-segment stamp for per-segment dedup
	bits   uint64 // the focused set's (scheme, tag) bitmap for the ID (refKeySet.bits)
	group  int32  // index in the focused set of the ID's first key
	occCnt uint8  // occurrence count within the current emit
}

// oracleEmitter reproduces Window.Visit's emission sequence — the
// nameable tagged instances of the n records preceding a trace position,
// most recent first, occurrence ref before backward ref per entry — as a
// flat buffer of packed ref keys (direction in bit 63). Occurrence
// counts and backward-segment dedup use epoch-stamped scratch indexed by
// dense branch ID, so each window entry costs O(1) instead of a linear
// scan over the PCs seen so far.
//
// One walk serves several window lengths: the emitter walks at the
// largest and records in ends[w] how many keys the w-th window emits,
// so window w's emissions are keys[:ends[w]] (the prefix property noted
// on Window.Visit). Every packed key occurs at most once per walk —
// occurrence tags strictly increase per PC and backward refs dedup per
// segment — so a ref's state in window w is its emission if that
// emission's index is below ends[w], and absent otherwise.
//
// The emitter reads a packed trace's columns; every oracle pass (and
// through the collection's state vectors every selective sweep) runs
// the identical emit loop.
type oracleEmitter struct {
	windows []int // ascending distinct window lengths; the walk covers the last

	ids   []int32  // dense-ID column
	taken []uint64 // taken bitset, bit i = column record i
	back  []uint64 // backward bitset

	scratch []emitScratch // per dense ID
	gen     uint64        // current emit generation
	seg     uint64        // current backward-segment stamp

	keys []uint64 // emitted packed ref keys | direction bit, Visit order
	ends []int    // ends[w]: window windows[w]'s emissions are keys[:ends[w]]
	vecs []uint64 // collection scratch: the last collectWalk's state vector per window

	focused []int32 // the focused set's IDs: the scratch entries whose bits are set
}

// refKeySet is a sorted set of packed ref keys grouped by dense ID — a
// branch's union of beam keys. Each ID's group also carries a
// bitmap of the (scheme, tag) pairs it holds: bit key&refKeyLow, so
// occurrence tag o is bit o and backward tag b is bit 32|b. Keys within
// a group ascend in that same low-bit order, so a member's index is its
// group's start plus the number of lower bits set in the bitmap.
// Resolving a walk against the set goes through the emitter: focus
// copies the set's bitmaps and group starts into the per-ID scratch, a
// focused emit appends only the instances whose exact bit is set, and
// find resolves each of them in O(1).
type refKeySet struct {
	keys  []uint64
	rids  []int32  // distinct dense IDs of keys, ascending
	start []int32  // rids[g]'s keys begin at keys[start[g]]
	bits  []uint64 // rids[g]'s (scheme, tag) bitmap
}

// newRefKeySet groups sorted distinct keys by dense ID.
func newRefKeySet(keys []uint64) refKeySet {
	s := refKeySet{keys: keys}
	for i, key := range keys {
		if rid := int32(key >> refKeyIDShift); i == 0 || rid != s.rids[len(s.rids)-1] {
			s.rids = append(s.rids, rid)
			s.start = append(s.start, int32(i))
			s.bits = append(s.bits, 0)
		}
		s.bits[len(s.bits)-1] |= 1 << (key & refKeyLow)
	}
	return s
}

// focus makes s the set the next focused emits and finds resolve
// against: it clears the previous set's bitmaps from the scratch and
// copies in s's. It costs O(IDs of both sets) and allocates nothing.
func (e *oracleEmitter) focus(s *refKeySet) {
	scratch := e.scratch
	for _, rid := range e.focused {
		scratch[rid].bits = 0
	}
	masks, starts := s.bits, s.start
	for g, rid := range s.rids {
		sc := &scratch[rid]
		sc.bits, sc.group = masks[g], starts[g]
	}
	e.focused = s.rids
}

// find returns the index in the focused set of key, a focused emission
// with its direction bit cleared: its group's start plus the members of
// its group below it in the bitmap. A focused emit emits only members,
// so there is no miss case.
func (e *oracleEmitter) find(key uint64) int {
	sc := &e.scratch[key>>refKeyIDShift]
	return int(sc.group) + bits.OnesCount64(sc.bits&(1<<(key&refKeyLow)-1))
}

// checkWindows panics unless windows is a non-empty, strictly ascending
// list of positive window lengths.
func checkWindows(windows []int) {
	if len(windows) == 0 {
		panic("core: no window lengths")
	}
	for i, n := range windows {
		if n <= 0 {
			panic(fmt.Sprintf("core: window length %d must be positive", n))
		}
		if i > 0 && n <= windows[i-1] {
			panic(fmt.Sprintf("core: window lengths %v not strictly ascending", windows))
		}
	}
}

// newPackedEmitter returns an emitter over a packed trace's columns at
// the given windows, its per-ID scratch sized to the trace's intern
// table.
func newPackedEmitter(pt *trace.Packed, windows []int) *oracleEmitter {
	checkWindows(windows)
	return &oracleEmitter{
		windows: append([]int(nil), windows...),
		ids:     pt.IDs(),
		taken:   pt.TakenWords(),
		back:    pt.BackwardWords(),
		scratch: make([]emitScratch, pt.NumBranches()),
		keys:    make([]uint64, 0, 2*windows[len(windows)-1]),
		ends:    make([]int, len(windows)),
		vecs:    make([]uint64, len(windows)),
	}
}

// taken1 reports column record p's direction.
func (e *oracleEmitter) taken1(p int) bool {
	return e.taken[p>>6]>>(uint(p)&63)&1 != 0
}

// back1 reports whether column record p is a backward branch.
func (e *oracleEmitter) back1(p int) bool {
	return e.back[p>>6]>>(uint(p)&63)&1 != 0
}

// emit fills e.keys with the tagged instances visible from trace
// position i, and e.ends with each window's share of them. The loop
// mirrors Window.Visit line for line: emission happens before the
// occurrence count update, backward refs dedup within one iteration
// segment, and both counters saturate exactly like the reference's uint8
// arithmetic. Each window boundary only closes a segment of the one
// walk, so the per-entry work is independent of the window count. A
// focused emit appends an instance only if its exact (scheme, tag) bit
// is set in its ID's focused bitmap; tag bookkeeping still covers every
// entry, so the emitted keys are exactly the unfocused emission filtered
// to the focused set's keys. An unfocused emit reads every bitmap as all
// ones.
//
//bplint:hot
func (e *oracleEmitter) emit(i int, focused bool) {
	e.keys = e.keys[:0]
	e.gen++
	e.seg++
	backs := uint8(0)
	ids := e.ids
	scratch := e.scratch
	ends := e.ends
	all := ^uint64(0) // OR-ed into each bitmap: all ones unless focused
	if focused {
		all = 0
	}
	p := i - 1
	for w, n := range e.windows {
		stop := i - n
		if stop < 0 {
			stop = 0
		}
		for ; p >= stop; p-- {
			rid := ids[p]
			tb := uint64(0)
			tk := e.taken1(p)
			if tk {
				tb = refKeyTakenBit
			}
			sc := &scratch[rid]
			want := sc.bits | all
			var o uint8
			if sc.occGen == e.gen {
				o = sc.occCnt
			}
			if o <= MaxTag && want>>o&1 != 0 {
				e.keys = append(e.keys, refKeyOcc(rid, o)|tb)
			}
			if sc.occGen != e.gen {
				sc.occGen = e.gen
				sc.occCnt = 1
			} else if o < 255 {
				sc.occCnt = o + 1
			}
			if backs <= MaxTag && sc.segGen != e.seg {
				// Within one iteration segment the same PC can appear more
				// than once with an identical tag; emit only the most recent
				// instance, matching States resolution.
				sc.segGen = e.seg
				if want>>(refKeySchemeBit|backs)&1 != 0 {
					e.keys = append(e.keys, refKeyBack(rid, backs)|tb)
				}
			}
			if tk && e.back1(p) && backs < 255 {
				backs++
				e.seg++ // new segment: fresh dedup stamps
			}
		}
		ends[w] = len(e.keys) //bplint:ignore bce-hoist ends and windows are allocated together with equal lengths
	}
}

// keyIndex is an open-addressed (linear-probe) index over a dense key
// column: slots hold indices into keys, so probing touches one flat
// int32 array, and the tables built on it keep their counters in flat
// rows aligned with keys — no pointers, no per-entry allocation.
type keyIndex struct {
	slots []int32 // index into keys, -1 = empty; power-of-two sized
	shift uint    // 64 - log2(len(slots)), for fibonacci hashing
	keys  []uint64
}

const keyIndexInitSlots = 16

// init sizes the slot array up front, so hot loops that hand-inline the
// hit path (probe + increment) never check for a nil table.
func (x *keyIndex) init() { x.rebuild(keyIndexInitSlots) }

// probe returns the slot holding key, or the first empty slot of its
// probe chain.
func (x *keyIndex) probe(key uint64) int {
	slots := x.slots
	keys := x.keys
	mask := uint64(len(slots) - 1)
	h := (key * 0x9E3779B97F4A7C15) >> x.shift
	for {
		s := slots[h]
		if s < 0 || keys[s] == key {
			return int(h)
		}
		h = (h + 1) & mask
	}
}

// push appends key at the empty slot h that probe returned for it, and
// doubles the slot array at 3/4 load.
func (x *keyIndex) push(h int, key uint64) {
	x.keys = append(x.keys, key)
	x.slots[h] = int32(len(x.keys) - 1)
	if 4*len(x.keys) >= 3*len(x.slots) {
		x.rebuild(2 * len(x.slots))
	}
}

// rebuild re-inserts every key into a fresh slot array of the given
// power-of-two size.
func (x *keyIndex) rebuild(size int) {
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	x.slots = slots
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, key := range x.keys {
		slots[x.probe(key)] = int32(i)
	}
}

// candTable is pass 1's per-branch candidate table: a keyIndex over
// packed ref keys. Each candidate's row holds one joint distribution per
// window bucket, cnts[bucket*4 + state*2 + outcome] (state/outcome 0 =
// taken, 1 = not-taken), where bucket b counts the emissions whose
// smallest covering window is the b-th. It reproduces the reference's
// mid-stream watermark prune (see OracleConfig.MaxCandidates) bit for
// bit for the largest window.
type candTable struct {
	keyIndex
	cnts   []uint32 // stride counters per candidate
	stride int      // 4 × window buckets
	prunes int      // watermark prunes fired (summed into core.oracle.prune.events)
}

// init readies the table for the given number of window buckets.
func (t *candTable) init(buckets int) {
	t.keyIndex.init()
	t.stride = 4 * buckets
}

// presence is candidate ci's instance count over every bucket: its
// window presence at the largest window.
func (t *candTable) presence(ci int) uint32 {
	n := uint32(0)
	for _, c := range t.cnts[ci*t.stride : (ci+1)*t.stride] {
		n += c
	}
	return n
}

// insert is the counting loop's miss path: h is the empty slot probe
// returned for key, and wt the instances to count under cell (taken
// outcome) and cell+1 (not-taken outcome). The watermark prune fires
// exactly where the reference's does — before an insertion that would
// exceed 2*maxCandidates live candidates.
func (t *candTable) insert(h int, key uint64, cell int, wt [2]uint32, maxCandidates int, addrs []trace.Addr) {
	if len(t.keys) >= 2*maxCandidates {
		t.prune(maxCandidates, addrs)
		h = t.probe(key) // table rebuilt: find the new insert slot
	}
	n := len(t.cnts)
	t.cnts = slices.Grow(t.cnts, t.stride)[:n+t.stride]
	clear(t.cnts[n:])
	t.cnts[n+cell], t.cnts[n+cell+1] = wt[0], wt[1]
	t.push(h, key)
}

// prune keeps only the maxKeep candidates with the highest presence
// counts, ties broken by ref identity — the same total order as the
// reference's branchProfile.prune.
func (t *candTable) prune(maxKeep int, addrs []trace.Addr) {
	if len(t.keys) <= maxKeep {
		return
	}
	t.prunes++
	order := make([]int, len(t.keys))
	pres := make([]uint32, len(t.keys))
	for ci := range order {
		order[ci] = ci
		pres[ci] = t.presence(ci)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if pres[a] != pres[b] {
			return pres[a] > pres[b]
		}
		return keyRefLess(t.keys[a], t.keys[b], addrs)
	})
	oldKeys, oldCnts, stride := t.keys, t.cnts, t.stride
	keys := make([]uint64, 0, cap(oldKeys))
	cnts := make([]uint32, 0, cap(oldCnts))
	for _, ci := range order[:maxKeep] {
		keys = append(keys, oldKeys[ci])
		cnts = append(cnts, oldCnts[ci*stride:(ci+1)*stride]...)
	}
	t.keys, t.cnts = keys, cnts
	t.rebuild(len(t.slots))
}

// kernelProfile is the pass-1 state for one static branch (dense-ID
// indexed; ready once its table is initialized).
type kernelProfile struct {
	total [2]uint32 // outcome totals: [taken, not-taken]
	tab   candTable
}

// newProfiles returns nb ready per-branch profiles over the given
// number of window buckets.
func newProfiles(nb, buckets int) []kernelProfile {
	profiles := make([]kernelProfile, nb)
	for id := range profiles {
		profiles[id].tab.init(buckets)
	}
	return profiles
}

// profileScore mirrors branchProfile.profileScore over one window's
// flat counts.
func (p *kernelProfile) profileScore(cnt *[4]uint32) uint32 {
	score := max(cnt[0], cnt[1]) + max(cnt[2], cnt[3])
	presentT := cnt[0] + cnt[2]
	presentN := cnt[1] + cnt[3]
	return score + max(p.total[0]-presentT, p.total[1]-presentN)
}

// profileWindows is oracle pass 1 over the packed trace for every
// window in windows (strictly ascending) at once: one walk at the
// largest window, flat per-branch candidate tables with per-window
// buckets, no closures and no per-candidate allocations. Result w is
// bit-identical to a one-window pass at windows[w] and to
// ReferenceProfileCandidates. Records are walked by pc's path-signature
// class, and the collection pass reuses the classes, so no record is
// hashed twice. The walks run on the shards of the branches
// (branchShards), cfg.ScoreParallel workers at most; the outcome
// totals are counted first, serially.
//
// Exactness rests on table occupancy: a smaller window's table is a
// subset of the largest window's at every point of the stream, so when
// the shared tables never prune, no one-window table would have pruned
// either. When any table did prune, the smaller windows are recomputed
// with one-window passes, each counted in core.oracle.windows.fallbacks.
// Those passes reuse the signature classes: positions with equal
// signatures at the largest window have equal signatures at any smaller
// one.
func profileWindows(pt *trace.Packed, pc *PathClasses, windows []int, cfg OracleConfig) []map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	defer reg.StartSpan("core.oracle.profile").End()
	sh := planShards(pc, oracleWorkers(cfg), nil)
	profile := func(windows []int) []kernelProfile { return profileShards(pt, pc, windows, cfg, sh) }
	addrs := pt.Addrs()
	profiles := profile(windows)
	last := len(windows) - 1
	if last == 0 || !pruned(profiles) {
		return assembleCandidates(profiles, addrs, cfg, len(windows), 0)
	}
	out := assembleCandidates(profiles, addrs, cfg, len(windows), last)
	reg.Counter("core.oracle.windows.fallbacks").Add(int64(last))
	for w := 0; w < last; w++ {
		out[w] = assembleCandidates(profile(windows[w:w+1]), addrs, cfg, 1, 0)[0]
	}
	return out
}

// profileShards is one pass-1 run over pc at windows on sh's shards,
// each with its own emitter. It returns every branch's profile and
// counts the shards' class walks and table reruns into cfg.Obs.
func profileShards(pt *trace.Packed, pc *PathClasses, windows []int, cfg OracleConfig, sh branchShards) []kernelProfile {
	profiles := newProfiles(pt.NumBranches(), len(windows))
	countOutcomes(pt.IDs(), pt.TakenWords(), profiles)
	stats := make([]memoStats, sh.n)
	reruns := make([]int, sh.n)
	sh.run(func(sd shard) {
		pf := newProfiler(pt, profiles, windows, cfg, sd)
		pf.profileTrace(pc, &stats[sd.s])
		reruns[sd.s] = pf.rerunPruned(pc)
	})
	reg := obs.Or(cfg.Obs)
	n := 0
	for s := range stats {
		stats[s].flush(reg)
		n += reruns[s]
	}
	if n > 0 {
		reg.Counter("core.oracle.memo.reruns").Add(int64(n))
	}
	return profiles
}

// oracleWorkers is the worker budget cfg.ScoreParallel gives the
// oracle's profile, collection and scoring stages: GOMAXPROCS when it
// is 0.
func oracleWorkers(cfg OracleConfig) int {
	if cfg.ScoreParallel > 0 {
		return cfg.ScoreParallel
	}
	return runtime.GOMAXPROCS(0)
}

// branchShards partitions a trace's dense branch IDs across the workers
// of one oracle pass. A branch's walks — its declined records in
// position order, then its classes in class order — all run on its
// shard, so each branch sees exactly the walk sequence of a serial pass
// and writes only its own candidate table, matcher and histograms: the
// shards need no merge, and watermark prunes, reruns and window
// fallbacks are those of the serial pass. One shard (of nil) is the
// serial pass, run inline.
type branchShards struct {
	n  int
	of []int32 // per dense ID: its shard, -1 = no walks; nil when n is 1
}

// shard is one shard of a branchShards: the branches its walks cover.
// The zero shard covers every branch.
type shard struct {
	of []int32 // the plan's assignment; nil: every branch
	s  int32
}

// has reports whether the shard walks dense branch ID id.
func (sd shard) has(id int32) bool { return sd.of == nil || sd.of[id] == sd.s }

// planShards splits the branches that walk over pc into at most par
// shards. A branch walks once per record of it the classification
// declined and once per class of it; with live non-nil, only branches
// with a live matcher walk (the collection skips branches without a
// beam). The shards are balanced by walk count: largest branch first,
// each onto the least-loaded shard. With par 1, or fewer than two
// branches that walk, the plan is one shard and costs no scan.
func planShards(pc *PathClasses, par int, live []*beamMatcher) branchShards {
	if par <= 1 {
		return branchShards{n: 1}
	}
	ids := pc.ids
	walks := make([]int, pc.pt.NumBranches())
	for k, c := range pc.class {
		if c < 0 {
			walks[ids[k]]++
		}
	}
	for c, rep := range pc.reps {
		if pc.counts[c] > 0 {
			walks[ids[rep]]++
		}
	}
	var order []int32
	for id, n := range walks {
		if n > 0 && (live == nil || live[id] != nil) {
			order = append(order, int32(id))
		}
	}
	n := min(par, len(order))
	if n <= 1 {
		return branchShards{n: 1}
	}
	// Stable: equal walk counts keep ascending ID order.
	sort.SliceStable(order, func(a, b int) bool { return walks[order[a]] > walks[order[b]] })
	sh := branchShards{n: n, of: make([]int32, len(walks))}
	for id := range sh.of {
		sh.of[id] = -1
	}
	load := make([]int, n)
	for _, id := range order {
		s := 0
		for k := 1; k < n; k++ {
			if load[k] < load[s] {
				s = k
			}
		}
		sh.of[id] = int32(s)
		load[s] += walks[id]
	}
	return sh
}

// run calls walk once per shard: inline for one shard, otherwise as one
// internal/runner cell per shard on as many workers.
func (sh branchShards) run(walk func(sd shard)) {
	if sh.n == 1 {
		walk(shard{})
		return
	}
	cells := make([]runner.Cell, sh.n)
	for s := range cells {
		sd := shard{of: sh.of, s: int32(s)}
		cells[s] = runner.Cell{
			Exhibit:  "oracle-shard",
			Workload: strconv.Itoa(s),
			Run: func(context.Context) error {
				walk(sd)
				return nil
			},
		}
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: sh.n}); err != nil {
		// Cells are infallible and the context is never cancelled.
		panic("core: oracle shard pool failed: " + err.Error())
	}
}

// pruned reports whether any branch's candidate table fired a watermark
// prune.
func pruned(profiles []kernelProfile) bool {
	for id := range profiles {
		if profiles[id].tab.prunes > 0 {
			return true
		}
	}
	return false
}

// assembleCandidates turns pass 1's per-branch candidate tables into one
// ranked Candidates map per window bucket (nw buckets) from `from` on (earlier
// entries of the result stay nil). Window w's counts are the prefix sums
// of buckets 0..w, and a candidate with zero window-w presence is not in
// window w's table, exactly as a one-window pass would never have
// inserted it. Each window ranks its candidates with a beamRanker,
// reused from branch to branch.
func assembleCandidates(profiles []kernelProfile, addrs []trace.Addr, cfg OracleConfig, nw, from int) []map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	result := make([]map[trace.Addr]*Candidates, nw)
	rankers := make([]beamRanker, nw)
	for w := from; w < nw; w++ {
		result[w] = make(map[trace.Addr]*Candidates, len(profiles))
		rankers[w] = newBeamRanker(addrs, cfg.TopK)
	}
	var prunes, occupancy int64
	for id := range profiles {
		p := &profiles[id]
		prunes += int64(p.tab.prunes)
		for w := from; w < nw; w++ {
			rankers[w].reset()
		}
		for ci, key := range p.tab.keys {
			row := p.tab.cnts[ci*p.tab.stride : (ci+1)*p.tab.stride]
			var cnt [4]uint32
			for w := 0; w < nw; w++ {
				for c := range cnt {
					cnt[c] += row[4*w+c]
				}
				pres := cnt[0] + cnt[1] + cnt[2] + cnt[3]
				if w < from || pres == 0 {
					continue
				}
				rankers[w].add(rankEntry{key: key, score: p.profileScore(&cnt), presence: pres})
			}
		}
		total := int(p.total[0] + p.total[1])
		for w := from; w < nw; w++ {
			n := int64(rankers[w].n)
			occupancy += n
			reg.Gauge("core.oracle.candidates.peak").Max(n)
			result[w][addrs[id]] = rankers[w].candidates(total)
		}
	}
	// Candidate occupancy and prune pressure depend only on (trace,
	// config): the profiling stream is sequential, so the counters are
	// deterministic and comparable across runs.
	reg.Counter("core.oracle.prune.events").Add(prunes)
	reg.Counter("core.oracle.candidates").Add(occupancy)
	return result
}

// rankEntry is one profiled candidate offered to a beamRanker: its
// packed ref key and the statistics rankCandidates orders by.
type rankEntry struct {
	key      uint64
	score    uint32
	presence uint32
}

// scoreBefore is rankCandidates' first order: score descending, then
// ref ascending.
func scoreBefore(a, b *rankEntry, addrs []trace.Addr) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return keyRefLess(a.key, b.key, addrs)
}

// presenceBefore is rankCandidates' second order: presence descending,
// then tag ascending, then ref ascending.
func presenceBefore(a, b *rankEntry, addrs []trace.Addr) bool {
	if a.presence != b.presence {
		return a.presence > b.presence
	}
	if at, bt := a.key&refKeyTagMask, b.key&refKeyTagMask; at != bt {
		return at < bt
	}
	return keyRefLess(a.key, b.key, addrs)
}

// beamRanker computes rankCandidates' beam for one branch and window by
// bounded selection instead of two full sorts: as candidates are
// offered, it keeps the best ⌈topK/2⌉ by score and the best topK by
// presence in two short ordered lists. Once all are in, with k =
// min(topK, candidates), the beam is the first ⌈k/2⌉ by score, then the
// first k−⌈k/2⌉ by presence that are not among those: at most ⌈k/2⌉ of
// the presence list's first k are, so it holds enough. Both orders are
// strict total orders over distinct keys, so the beam equals
// rankCandidates' exactly; only the winners' keys are decoded.
type beamRanker struct {
	addrs   []trace.Addr
	topK    int
	n       int         // candidates offered since the last reset
	byScore []rankEntry // the best ⌈topK/2⌉ so far by scoreBefore
	byPres  []rankEntry // the best topK so far by presenceBefore
}

func newBeamRanker(addrs []trace.Addr, topK int) beamRanker {
	topK = max(topK, 0)
	return beamRanker{
		addrs:   addrs,
		topK:    topK,
		byScore: make([]rankEntry, 0, (topK+1)/2),
		byPres:  make([]rankEntry, 0, topK),
	}
}

// reset empties the ranker for the next branch, keeping its lists.
func (r *beamRanker) reset() {
	r.n, r.byScore, r.byPres = 0, r.byScore[:0], r.byPres[:0]
}

// add offers one candidate. Keys must be distinct since the last reset.
func (r *beamRanker) add(e rankEntry) {
	r.n++
	r.byScore = offer(r.byScore, (r.topK+1)/2, &e, scoreBefore, r.addrs)
	r.byPres = offer(r.byPres, r.topK, &e, presenceBefore, r.addrs)
}

// offer inserts e into l, ordered by before and holding at most bound
// entries, and returns the list. A full list rejects an entry that does
// not beat its last in one comparison.
func offer(l []rankEntry, bound int, e *rankEntry, before func(a, b *rankEntry, addrs []trace.Addr) bool, addrs []trace.Addr) []rankEntry {
	i := len(l)
	if i == bound {
		if i == 0 || !before(e, &l[i-1], addrs) {
			return l
		}
		i-- // the last entry drops out
	} else {
		l = l[:i+1]
	}
	for ; i > 0 && before(e, &l[i-1], addrs); i-- {
		l[i] = l[i-1]
	}
	l[i] = *e
	return l
}

// candidates returns the beam of the candidates offered since the last
// reset, with total as its branch's execution count: rankCandidates'
// result over the same candidates.
func (r *beamRanker) candidates(total int) *Candidates {
	c := &Candidates{Total: total}
	k := min(r.topK, r.n)
	if k == 0 {
		return c
	}
	half := (k + 1) / 2
	c.Refs, c.Scores = make([]Ref, 0, k), make([]uint32, 0, k)
	first := r.byScore[:half]
	for _, e := range first {
		c.Refs = append(c.Refs, decodeRefKey(e.key, r.addrs))
		c.Scores = append(c.Scores, e.score)
	}
rest:
	for _, e := range r.byPres {
		if len(c.Refs) == k {
			break
		}
		for _, f := range first {
			if f.key == e.key {
				continue rest
			}
		}
		c.Refs = append(c.Refs, decodeRefKey(e.key, r.addrs))
		c.Scores = append(c.Scores, e.score)
	}
	return c
}

// memoStats counts what the class walks of one oracle run saved.
type memoStats struct {
	walks int64 // walks made once for a whole class
	hits  int64 // records a class walk served without walking
}

// flush adds the counts gathered since the last flush to reg:
// core.oracle.memo.walks counts class walks, core.oracle.memo.hits the
// records they served beyond their representatives. Both depend only on
// the trace, the config and the classes' window.
func (st *memoStats) flush(reg *obs.Registry) {
	reg.Counter("core.oracle.memo.walks").Add(st.walks)
	reg.Counter("core.oracle.memo.hits").Add(st.hits)
	*st = memoStats{}
}

// profiler is pass 1's walk context on one shard: its own emitter, the
// per-branch tables it counts into (shared by every shard; a shard
// writes only its own branches'), the intern table their prunes order
// keys by, and the config's scheme filter and prune watermark.
type profiler struct {
	em                  *oracleEmitter
	profiles            []kernelProfile
	sd                  shard
	addrs               []trace.Addr
	maxCandidates       int
	allowOcc, allowBack bool
}

func newProfiler(pt *trace.Packed, profiles []kernelProfile, windows []int, cfg OracleConfig, sd shard) *profiler {
	return &profiler{
		em:            newPackedEmitter(pt, windows),
		profiles:      profiles,
		sd:            sd,
		addrs:         pt.Addrs(),
		maxCandidates: cfg.MaxCandidates,
		allowOcc:      cfg.schemeAllowed(Occurrence),
		allowBack:     cfg.schemeAllowed(BackwardCount),
	}
}

// countOutcomes adds every record's outcome to its branch's totals.
//
//bplint:hot
func countOutcomes(ids []int32, taken []uint64, profiles []kernelProfile) {
	for i, id := range ids {
		profiles[id].total[taken[i>>6]>>(uint(i)&63)&1^1]++
	}
}

// profileTrace is pass 1's walks for the shard's branches. A record the
// memo declined walks on its own, in record order; then each class
// walks once, at its representative, with its instances by outcome.
// Counts are sums, so the order only matters to the watermark prune
// (see rerunPruned).
//
//bplint:hot
func (pf *profiler) profileTrace(pc *PathClasses, st *memoStats) {
	ids := pf.em.ids
	sd := pf.sd
	class, reps, counts, taken := pc.class, pc.reps, pc.counts, pc.taken
	for i, c := range class {
		if c >= 0 || !sd.has(ids[i]) {
			continue
		}
		wt := [2]uint32{0, 1}
		if pf.em.taken1(i) {
			wt = [2]uint32{1, 0}
		}
		pf.walk(i, wt) //bplint:ignore kernel-purity the walk allocates only on its table's insert miss path
	}
	for c, n := range counts {
		if n > 0 && sd.has(ids[reps[c]]) {
			pf.walk(int(reps[c]), [2]uint32{uint32(taken[c]), uint32(n - taken[c])}) //bplint:ignore kernel-purity the walk allocates only on its table's insert miss path
			st.walks++
			st.hits += int64(n - 1)
		}
	}
}

// rerunPruned restores record order for every branch of the shard whose
// table pruned after taking class walks. A watermark prune fires in
// class order exactly when it fires in record order — both happen iff
// the branch's distinct-key count exceeds 2×MaxCandidates — but which
// candidates survive depends on the order. Each such table is rebuilt
// by the per-record walk over the branch's records. It returns the
// number of tables rebuilt.
func (pf *profiler) rerunPruned(pc *PathClasses) int {
	ids := pf.em.ids
	var redo []bool
	n := 0
	for c, count := range pc.counts {
		id := ids[pc.reps[c]]
		if count == 0 || !pf.sd.has(id) {
			continue // another shard's tables are not this shard's to read
		}
		if tab := &pf.profiles[id].tab; tab.prunes > 0 && (redo == nil || !redo[id]) {
			if redo == nil {
				redo = make([]bool, len(pf.profiles))
			}
			redo[id] = true
			*tab = candTable{}
			tab.init(len(pf.em.windows))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	for i, id := range ids {
		if redo[id] {
			wt := [2]uint32{0, 1}
			if pf.em.taken1(i) {
				wt = [2]uint32{1, 0}
			}
			pf.walk(i, wt)
		}
	}
	return n
}

// walk is pass 1's one emission loop: emit position i's window and
// count wt (instances by outcome) for each emitted candidate into the
// branch's flat table under its window bucket, hand-inlining the table
// hit path.
//
//bplint:hot
func (pf *profiler) walk(i int, wt [2]uint32) {
	em := pf.em
	em.emit(i, false)
	tab := &pf.profiles[em.ids[i]].tab
	allowOcc, allowBack := pf.allowOcc, pf.allowBack
	start := 0
	for b, end := range em.ends {
		for _, key := range em.keys[start:end] {
			if key&refKeySchemeBit != 0 {
				if !allowBack {
					continue
				}
			} else if !allowOcc {
				continue
			}
			cell := 4 * b
			if key&refKeyTakenBit == 0 {
				cell += 2 // state = not-taken
			}
			key &^= refKeyTakenBit
			// Hand-inlined table hit path; misses take the insert call.
			h := tab.probe(key)
			if s := tab.slots[h]; s >= 0 { //bplint:ignore bce-hoist insert may swap the slot array mid-loop; the header reload is the correctness contract
				row := tab.cnts[int(s)*tab.stride+cell:]
				row[0] += wt[0]
				row[1] += wt[1]
			} else {
				tab.insert(h, key, cell, wt, pf.maxCandidates, pf.addrs) //bplint:ignore kernel-purity miss path only; growth is amortized and bounded by the watermark prune
			}
		}
		start = end
	}
}

// A state vector packs one dynamic instance's states for one window's
// beam, two bits per beam slot (slot s at bits 2s and 2s+1): zero while
// the candidate is absent from the window, stateVecTaken or
// stateVecNotTaken when it is present. maxTopK slots fill one uint64.
const (
	stateVecTaken    = 1
	stateVecNotTaken = 2
)

// beamMatcher resolves emitted ref keys for one static branch against
// the union of its per-window beams, and holds each scored window's
// state histogram.
type beamMatcher struct {
	set    refKeySet   // union of the windows' packed beam keys
	slots  []int8      // [key index × windows + w]: the key's slot in beam w, -1 if absent
	beams  [][]Ref     // per window: the beam, in slot order
	hists  []stateHist // per window; an empty or unscored beam's histogram has no slot array
	scored bool        // some window's histogram has a slot array
}

// newBeamMatcher builds a matcher over one branch's per-window beams
// (beams[w] may be empty; the matcher keeps the slice), resolving each
// ref's PC to its dense ID in pt. Window w gets a histogram only when
// scored is nil or scored[w] holds.
func newBeamMatcher(pt *trace.Packed, beams [][]Ref, scored []bool) *beamMatcher {
	nw := len(beams)
	bm := &beamMatcher{beams: beams, hists: make([]stateHist, nw)}
	type keySlot struct {
		key     uint64
		w, slot int
	}
	var pairs []keySlot
	for w, refs := range beams {
		if len(refs) > 0 && (scored == nil || scored[w]) {
			bm.hists[w].init()
			bm.scored = true
		}
		for slot, r := range refs {
			rid, ok := pt.IDOf(r.PC)
			if !ok {
				// A ref naming a PC absent from the trace can never be in any
				// window: it stays StateAbsent, exactly like the reference's
				// States resolution.
				continue
			}
			if key, ok := refKeyOf(rid, r); ok {
				pairs = append(pairs, keySlot{key, w, slot})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	var keys []uint64
	for i, p := range pairs {
		if i == 0 || p.key != pairs[i-1].key {
			keys = append(keys, p.key)
			for w := 0; w < nw; w++ {
				bm.slots = append(bm.slots, -1)
			}
		}
		bm.slots[(len(keys)-1)*nw+p.w] = int8(p.slot)
	}
	bm.set = newRefKeySet(keys)
	return bm
}

// add counts wt (instances by outcome) under each window's state
// vector vecs[w].
func (bm *beamMatcher) add(vecs []uint64, wt [2]uint32) {
	hists := bm.hists
	for w := range hists {
		if h := &hists[w]; h.slots != nil {
			h.add(vecs[w], wt) //bplint:ignore kernel-purity a histogram allocates only when it meets a new state vector
		}
	}
}

// stateHist is one branch's joint (state vector, outcome) distribution
// over one window's beam — the paper's §3.4 pattern table, with counts
// in place of counters: a keyIndex over the vectors the branch's
// instances resolved to, each with its instances by outcome. All
// instances of a path-signature class resolve to one vector, so a
// k-candidate beam's histogram holds at most min(3^k, classes +
// declined records) entries.
type stateHist struct {
	keyIndex
	cnts [][2]uint32 // aligned with keys: instances by outcome (0 = taken, 1 = not-taken)
}

// add counts wt (instances by outcome) under vec.
func (h *stateHist) add(vec uint64, wt [2]uint32) {
	s := h.probe(vec)
	if e := h.slots[s]; e >= 0 {
		c := &h.cnts[e]
		c[0] += wt[0]
		c[1] += wt[1]
		return
	}
	h.cnts = append(h.cnts, wt)
	h.push(s, vec)
}

// branchSelection is one branch's scored selections, written into a
// pre-assigned slot by the parallel scoring stage.
type branchSelection struct {
	size1, size2, size3 []Ref
}

// selectWindows is oracle passes 2+3 for every window in windows
// (strictly ascending, cands aligned with it) over the packed trace.
// With each branch's TopK candidates
// fixed, it scores the exact joint distribution of every candidate
// *pair* with the branch outcome (so purely interacting correlations —
// e.g. branch X = Y AND Z of figure 1c, where neither Y nor Z alone
// predicts X — are found as long as both components are in the beam),
// picks the best pair, then greedily extends it with each remaining
// candidate to choose the best triple. This approximates the paper's
// oracle choice of "the 1, 2 or 3 most important branches" (section
// 3.4); the approximation is exact for sizes 1 and 2 within the beam.
// Result w is bit-identical to ReferenceSelectRefs at windows[w].
//
// The passes fold into a single collection stream plus an off-trace
// scoring stage. Once per path-signature class of pc (and once per
// record the classification declined) of a branch with a non-empty beam in some
// window, it resolves the window-max emissions against the union of the
// branch's beams into one state vector per window, and adds the class's
// outcome counts to that vector's histogram entry. The exact pair and
// triple joint distributions are then summed per window and branch from
// the histogram entries and scored in parallel across the
// internal/runner pool (cfg.ScoreParallel workers, identical output at
// any level); the collection walks run on the same budget, sharded by
// branch. core.oracle.select.patterns counts the histogram entries.
//
// A window with scored[w] false (scored nil: every window is scored) is
// a held column: its beam is resolved like any other, but it gets no
// histogram and no scoring, and its result entry is nil. With keep set,
// the collection's state vectors are returned as BeamStates; otherwise
// the states are nil and the vectors are never stored.
func selectWindows(pt *trace.Packed, pc *PathClasses, windows []int, cands []map[trace.Addr]*Candidates, scored []bool, keep bool, cfg OracleConfig) ([]*Selections, *BeamStates) {
	reg := obs.Or(cfg.Obs)
	defer reg.StartSpan("core.oracle.select").End()

	pcs := sortedPCs(cands)
	matchers, matcherOf := buildMatchers(pcs, cands, pt, scored)

	// Collection stream: one walk per class or declined record, one
	// histogram count per window.
	var states *BeamStates
	if keep {
		states = newBeamStates(pc, windows, matchers)
	}
	collectShards(pt, pc, windows, matchers, planShards(pc, oracleWorkers(cfg), matchers), states, reg)
	entries := int64(0)
	for _, bm := range matcherOf {
		for w := range bm.hists {
			entries += int64(len(bm.hists[w].keys))
		}
	}
	reg.Counter("core.oracle.select.patterns").Add(entries)

	out := make([]*Selections, len(windows))
	for w := range windows {
		if scored == nil || scored[w] {
			out[w] = scoreSelections(pcs, cands[w], matcherOf, w, cfg)
		}
	}
	return out, states
}

// sortedPCs returns the canonical branch order: the candidate maps' keys,
// sorted. Scoring cells are created in this order, so the Selections are
// deterministic at any parallelism.
func sortedPCs(cands []map[trace.Addr]*Candidates) []trace.Addr {
	seen := make(map[trace.Addr]bool)
	var pcs []trace.Addr
	for _, m := range cands {
		for pc := range m {
			if !seen[pc] {
				seen[pc] = true
				pcs = append(pcs, pc)
			}
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// buildMatchers constructs one beam matcher per branch of pt with a
// non-empty beam in any window, both dense-ID indexed (for the
// collection loop) and keyed by PC (for the scoring stage); scored is
// newBeamMatcher's.
func buildMatchers(pcs []trace.Addr, cands []map[trace.Addr]*Candidates, pt *trace.Packed, scored []bool) ([]*beamMatcher, map[trace.Addr]*beamMatcher) {
	matchers := make([]*beamMatcher, pt.NumBranches())
	matcherOf := make(map[trace.Addr]*beamMatcher, len(pcs))
	for _, pc := range pcs {
		var beams [][]Ref
		for w, m := range cands {
			if c := m[pc]; c != nil && len(c.Refs) > 0 {
				if beams == nil {
					beams = make([][]Ref, len(cands))
				}
				beams[w] = c.Refs
			}
		}
		if beams == nil {
			continue
		}
		bm := newBeamMatcher(pt, beams, scored)
		matcherOf[pc] = bm
		if rid, ok := pt.IDOf(pc); ok {
			matchers[rid] = bm
		}
	}
	return matchers, matcherOf
}

// scoreSelections runs window w's off-trace scoring stage — per-branch,
// embarrassingly parallel, pre-assigned result slots — and assembles its
// Selections.
func scoreSelections(pcs []trace.Addr, cands map[trace.Addr]*Candidates, matcherOf map[trace.Addr]*beamMatcher, w int, cfg OracleConfig) *Selections {
	results := make([]branchSelection, len(pcs))
	cells := make([]runner.Cell, 0, len(pcs))
	for i, pc := range pcs {
		c := cands[pc]
		if c == nil || len(c.Refs) == 0 {
			continue
		}
		i, h, refs := i, &matcherOf[pc].hists[w], c.Refs
		cells = append(cells, runner.Cell{
			Exhibit:  "oracle-score",
			Workload: fmt.Sprintf("0x%x", uint32(pc)),
			Run: func(context.Context) error {
				results[i] = scoreBranch(refs, h)
				return nil
			},
		})
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: cfg.ScoreParallel}); err != nil {
		// Cells are infallible and the context is never cancelled.
		panic("core: oracle scoring pool failed: " + err.Error())
	}

	sel := &Selections{}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		sel.BySize[k] = make(Assignment, len(cands))
	}
	for i, pc := range pcs {
		r := &results[i]
		if r.size1 == nil {
			continue // empty beam: no assignment, like the reference
		}
		sel.BySize[1][pc] = r.size1
		sel.BySize[2][pc] = r.size2
		sel.BySize[3][pc] = r.size3
	}
	return sel
}

// collectShards runs the collection over pc on sh's shards, each with
// its own emitter, and counts the shards' class walks into reg. keep is
// collectTrace's.
func collectShards(pt *trace.Packed, pc *PathClasses, windows []int, matchers []*beamMatcher, sh branchShards, keep *BeamStates, reg *obs.Registry) {
	stats := make([]memoStats, sh.n)
	sh.run(func(sd shard) {
		collectTrace(newPackedEmitter(pt, windows), matchers, pc, sd, &stats[sd.s], keep)
	})
	for s := range stats {
		stats[s].flush(reg)
	}
}

// collectTrace is the folded pass-2/3 loop over the walks of the
// shard's branches: each record pc left unclassified walks on its own
// and adds itself to its branch's histograms; then each class walks
// once, at its representative, and adds all its instances by outcome.
// The vectors depend only on the signature, so the histograms are
// identical to a per-record walk's. A non-nil keep receives every
// walk's vectors at the walk's place in the order BeamStates documents;
// the places count every shard's walks, so the shards fill disjoint
// parts of one buffer.
//
//bplint:hot
func collectTrace(em *oracleEmitter, matchers []*beamMatcher, pc *PathClasses, sd shard, st *memoStats, keep *BeamStates) {
	ids := em.ids
	nw := len(em.vecs)
	var recs, classes []uint64
	if keep != nil {
		recs, classes = keep.recs, keep.classes
	}
	at := 0 // the end of the current walk's vectors, counting every shard's walks
	for i, c := range pc.class {
		if c >= 0 {
			continue
		}
		id := ids[i]
		bm := matchers[id]
		if bm == nil {
			continue
		}
		at += nw
		if !sd.has(id) {
			continue
		}
		wt := [2]uint32{0, 1}
		if em.taken1(i) {
			wt = [2]uint32{1, 0}
		}
		vecs := collectWalk(em, bm, i)
		if bm.scored {
			bm.add(vecs, wt) //bplint:ignore kernel-purity a histogram allocates only when it meets a new state vector
		}
		if keep != nil {
			copy(recs[at-nw:at], vecs)
		}
	}
	counts, taken := pc.counts, pc.taken
	at = 0
	for c, rep := range pc.reps {
		n := counts[c]
		if n == 0 {
			continue
		}
		id := ids[rep]
		bm := matchers[id]
		if bm == nil {
			continue
		}
		at += nw
		if !sd.has(id) {
			continue
		}
		vecs := collectWalk(em, bm, int(rep))
		if bm.scored {
			bm.add(vecs, [2]uint32{uint32(taken[c]), uint32(n - taken[c])}) //bplint:ignore kernel-purity a histogram allocates only when it meets a new state vector
		}
		if keep != nil {
			copy(classes[at-nw:at], vecs)
		}
		st.walks++
		st.hits += int64(n - 1)
	}
}

// collectWalk is the collection's one emission loop: it resolves
// position i's walk against the union of bm's beams and returns the
// state vector of every window — each resolved key's state in the slot
// it holds in each window whose prefix holds the emission — in the
// emitter's scratch. The focused emit yields only union keys, so every
// emission resolves, through find, to its key's index. Each key occurs
// at most once per walk, so the walk stops once every union key has
// resolved. The matcher changes every call, so its headers cannot hoist.
//
//bplint:hot
func collectWalk(em *oracleEmitter, bm *beamMatcher, i int) []uint64 {
	em.focus(&bm.set)
	em.emit(i, true)
	vecs := em.vecs
	clear(vecs)
	nw := len(vecs)
	remaining := len(bm.set.keys)
	start := 0
walk:
	for b, end := range em.ends {
		for _, key := range em.keys[start:end] {
			ki := em.find(key &^ refKeyTakenBit)
			state := uint64(stateVecNotTaken)
			if key&refKeyTakenBit != 0 {
				state = stateVecTaken
			}
			for w := b; w < nw; w++ {
				if slot := bm.slots[ki*nw+w]; slot >= 0 { //bplint:ignore bce-hoist bm changes every call; its slot array cannot hoist
					vecs[w] |= state << (2 * uint(slot))
				}
			}
			remaining--
			if remaining == 0 {
				break walk
			}
		}
		start = end
	}
	return vecs
}

// score is subsetScore for the candidates at beam slots a, b and c
// (c < 0: the pair a, b alone): each entry's instances land in the
// joint pattern of those slots' 2-bit states. A shift past the vector
// reads the missing third slot as absent, so a pair fills 9 of the 64
// patterns.
func (h *stateHist) score(a, b, c int) uint32 {
	sa, sb, sc := 2*uint(a), 2*uint(b), uint(64)
	if c >= 0 {
		sc = 2 * uint(c)
	}
	var flat [64 * 2]uint32
	cnts := h.cnts[:len(h.keys)]
	for e, vec := range h.keys {
		i := 2 * ((vec>>sa&3)<<4 | (vec>>sb&3)<<2 | vec>>sc&3)
		flat[i] += cnts[e][0]
		flat[i+1] += cnts[e][1]
	}
	return subsetScore(flat[:])
}

// scoreBranch recovers the reference's pass-2/pass-3 subset search for
// one branch's window beam from its state histogram: the exact best
// pair by exhaustive scoring (lexicographic enumeration, strict
// improvement — the same tie-breaks as the reference), then the best
// greedy triple extension of that pair. Size 1 is pass 1's top
// candidate, so a one-candidate beam scores nothing.
//
//bplint:hot
func scoreBranch(refs []Ref, h *stateHist) branchSelection {
	out := branchSelection{size1: []Ref{refs[0]}, size2: []Ref{refs[0]}}
	out.size3 = out.size2
	k := len(refs)
	if k == 1 {
		return out
	}
	var bestI, bestJ int
	var bestScore uint32
	first := true
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if sc := h.score(i, j, -1); first || sc > bestScore {
				bestI, bestJ, bestScore = i, j, sc
				first = false
			}
		}
	}
	out.size2 = []Ref{refs[bestI], refs[bestJ]}
	out.size3 = out.size2

	triBest, ext := bestScore, -1
	for e := 0; e < k; e++ {
		if e == bestI || e == bestJ {
			continue
		}
		if sc := h.score(bestI, bestJ, e); sc > triBest {
			triBest, ext = sc, e
		}
	}
	if ext >= 0 {
		tri := []int{bestI, bestJ, ext}
		sort.Ints(tri)
		out.size3 = []Ref{refs[tri[0]], refs[tri[1]], refs[tri[2]]}
	}
	return out
}
