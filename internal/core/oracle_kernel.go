package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
	return a&(refKeySchemeBit|refKeyTagMask) < b&(refKeySchemeBit|refKeyTagMask)
}

// emitScratch is one dense branch ID's per-window bookkeeping, packed
// into a single cache-line-friendly struct so each window entry touches
// one array element instead of three.
type emitScratch struct {
	occGen uint64 // emit-generation stamp: occCnt is valid when it matches
	segGen uint64 // backward-segment stamp for per-segment dedup
	mark   uint64 // focus stamp: the ID belongs to the focused refKeySet
	group  int32  // the ID's key group in the focused set, when marked
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
// The emitter works over raw packed columns, not a *trace.Packed: the
// oracle passes point it at the whole trace's columns, and
// SelectiveSweep at each kernel block's full columns. Every path runs
// the identical emit loop.
type oracleEmitter struct {
	windows []int // ascending distinct window lengths; the walk covers the last

	ids   []int32  // dense-ID column currently in view
	taken []uint64 // taken bitset, bit i = column record i
	back  []uint64 // backward bitset

	scratch []emitScratch // per dense ID
	gen     uint64        // current emit generation
	seg     uint64        // current backward-segment stamp

	keys []uint64 // emitted packed ref keys | direction bit, Visit order
	ends []int    // ends[w]: window windows[w]'s emissions are keys[:ends[w]]
	vecs []uint64 // collection scratch: the last collectWalk's state vector per window

	mark uint64 // current focus stamp
}

// refKeySet is a sorted set of packed ref keys grouped by dense ID — a
// branch's union of beam or config keys. Resolving a walk against it
// goes through the emitter: focus stamps the set's member IDs into the
// per-ID scratch, a focused emit skips every other ID's instances, and
// find scans only the emitted key's own ID group (a handful of keys).
type refKeySet struct {
	keys  []uint64
	rids  []int32 // distinct dense IDs of keys, ascending
	start []int32 // rids[g]'s keys are keys[start[g]:start[g+1]]
}

// newRefKeySet groups sorted distinct keys by dense ID.
func newRefKeySet(keys []uint64) refKeySet {
	s := refKeySet{keys: keys}
	for i, key := range keys {
		if rid := int32(key >> refKeyIDShift); i == 0 || rid != s.rids[len(s.rids)-1] {
			s.rids = append(s.rids, rid)
			s.start = append(s.start, int32(i))
		}
	}
	s.start = append(s.start, int32(len(keys)))
	return s
}

// focus makes s the set the next focused emits and finds resolve
// against.
func (e *oracleEmitter) focus(s *refKeySet) {
	e.mark++
	scratch := e.scratch
	for g, rid := range s.rids {
		sc := &scratch[rid]
		sc.mark, sc.group = e.mark, int32(g)
	}
}

// find returns the index in the focused set s of key, a focused
// emission with its direction bit cleared, or -1.
func (e *oracleEmitter) find(s *refKeySet, key uint64) int {
	g := e.scratch[key>>refKeyIDShift].group
	start, keys := s.start, s.keys
	for ki := start[g]; ki < start[g+1]; ki++ {
		if keys[ki] == key {
			return int(ki)
		}
	}
	return -1
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

func newOracleEmitter(windows []int) *oracleEmitter {
	checkWindows(windows)
	n := windows[len(windows)-1]
	return &oracleEmitter{
		windows: append([]int(nil), windows...),
		keys:    make([]uint64, 0, 2*n),
		ends:    make([]int, len(windows)),
		vecs:    make([]uint64, len(windows)),
	}
}

// newPackedEmitter returns an emitter over a packed trace's columns,
// its scratch sized to the trace's intern table.
func newPackedEmitter(pt *trace.Packed, windows []int) *oracleEmitter {
	e := newOracleEmitter(windows)
	e.setColumns(pt.IDs(), pt.TakenWords(), pt.BackwardWords())
	e.growScratch(pt.NumBranches())
	return e
}

// setColumns re-points the emitter at a column triple. Epoch stamps stay
// valid across calls: scratch state is per-emit, never per-column.
func (e *oracleEmitter) setColumns(ids []int32, taken, back []uint64) {
	e.ids, e.taken, e.back = ids, taken, back
}

// growScratch extends the per-ID scratch to cover nb dense IDs; existing
// stamps are preserved (they only compare against the current emit
// generation, and zero never matches a positive generation).
func (e *oracleEmitter) growScratch(nb int) {
	if nb <= len(e.scratch) {
		return
	}
	grown := make([]emitScratch, nb)
	copy(grown, e.scratch)
	e.scratch = grown
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
// focused emit appends only the instances of IDs in the focused set;
// tag bookkeeping still covers every entry, so the emitted keys are
// exactly the unfocused emission filtered to those IDs.
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
			want := !focused || sc.mark == e.mark
			var o uint8
			if sc.occGen == e.gen {
				o = sc.occCnt
			}
			if o <= MaxTag && want {
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
				if want {
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
// hashed twice.
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
	var st memoStats
	defer st.flush(reg)
	profile := func(windows []int) []kernelProfile {
		pf := newProfiler(pt, windows, cfg)
		pf.profileTrace(pc, &st)
		if n := pf.rerunPruned(pc); n > 0 {
			reg.Counter("core.oracle.memo.reruns").Add(int64(n))
		}
		return pf.profiles
	}
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
// inserted it.
func assembleCandidates(profiles []kernelProfile, addrs []trace.Addr, cfg OracleConfig, nw, from int) []map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	result := make([]map[trace.Addr]*Candidates, nw)
	for w := from; w < nw; w++ {
		result[w] = make(map[trace.Addr]*Candidates, len(profiles))
	}
	scratch := make([][]scoredRef, nw)
	var prunes, occupancy int64
	for id := range profiles {
		p := &profiles[id]
		prunes += int64(p.tab.prunes)
		for w := range scratch {
			scratch[w] = scratch[w][:0]
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
				scratch[w] = append(scratch[w], scoredRef{
					ref:      decodeRefKey(key, addrs),
					score:    p.profileScore(&cnt),
					presence: pres,
				})
			}
		}
		total := int(p.total[0] + p.total[1])
		for w := from; w < nw; w++ {
			occupancy += int64(len(scratch[w]))
			reg.Gauge("core.oracle.candidates.peak").Max(int64(len(scratch[w])))
			result[w][addrs[id]] = rankCandidates(scratch[w], total, cfg.TopK)
		}
	}
	// Candidate occupancy and prune pressure depend only on (trace,
	// config): the profiling stream is sequential, so the counters are
	// deterministic and comparable across runs.
	reg.Counter("core.oracle.prune.events").Add(prunes)
	reg.Counter("core.oracle.candidates").Add(occupancy)
	return result
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

// profiler is pass 1's walk context: the emitter, the per-branch tables
// it counts into, the intern table their prunes order keys by, and the
// config's scheme filter and prune watermark.
type profiler struct {
	em                  *oracleEmitter
	profiles            []kernelProfile
	addrs               []trace.Addr
	maxCandidates       int
	allowOcc, allowBack bool
}

func newProfiler(pt *trace.Packed, windows []int, cfg OracleConfig) *profiler {
	return &profiler{
		em:            newPackedEmitter(pt, windows),
		profiles:      newProfiles(pt.NumBranches(), len(windows)),
		addrs:         pt.Addrs(),
		maxCandidates: cfg.MaxCandidates,
		allowOcc:      cfg.schemeAllowed(Occurrence),
		allowBack:     cfg.schemeAllowed(BackwardCount),
	}
}

// profileTrace is pass 1 over every record of the trace. Every record's
// outcome lands in its branch's totals. A record the memo classified
// is counted by its class; the rest walk on the spot. Then each class
// walks once, at its representative, with its instances by outcome.
// Counts are sums, so the order only matters to the watermark prune
// (see rerunPruned).
//
//bplint:hot
func (pf *profiler) profileTrace(pc *PathClasses, st *memoStats) {
	ids := pf.em.ids
	profiles := pf.profiles
	class, reps, counts, taken := pc.class, pc.reps, pc.counts, pc.taken
	for i, id := range ids {
		out := 1
		if pf.em.taken1(i) {
			out = 0
		}
		profiles[id].total[out]++
		if class[i] >= 0 {
			continue
		}
		var wt [2]uint32
		wt[out] = 1
		pf.walk(i, wt) //bplint:ignore kernel-purity the walk allocates only on its table's insert miss path
	}
	for c, n := range counts {
		if n > 0 {
			pf.walk(int(reps[c]), [2]uint32{uint32(taken[c]), uint32(n - taken[c])}) //bplint:ignore kernel-purity the walk allocates only on its table's insert miss path
			st.walks++
			st.hits += int64(n - 1)
		}
	}
}

// rerunPruned restores record order for every branch whose table
// pruned after taking class walks. A watermark prune fires in class
// order exactly when it fires in record order — both happen iff the
// branch's distinct-key count exceeds 2×MaxCandidates — but which
// candidates survive depends on the order. Each such table is rebuilt
// by the per-record walk over the branch's records. It returns the
// number of tables rebuilt.
func (pf *profiler) rerunPruned(pc *PathClasses) int {
	ids := pf.em.ids
	var redo []bool
	n := 0
	for c, count := range pc.counts {
		id := ids[pc.reps[c]]
		if tab := &pf.profiles[id].tab; count > 0 && tab.prunes > 0 && (redo == nil || !redo[id]) {
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
// the union of its per-window beams, and holds each window's state
// histogram.
type beamMatcher struct {
	set   refKeySet   // union of the windows' packed beam keys
	slots []int8      // [key index × windows + w]: the key's slot in beam w, -1 if absent
	hists []stateHist // per window; an empty beam's histogram has no slot array
}

// newBeamMatcher builds a matcher over one branch's per-window beams
// (beams[w] may be empty). idOf maps each PC of the trace's intern
// table to its dense ID.
func newBeamMatcher(idOf map[trace.Addr]int32, beams [][]Ref) *beamMatcher {
	nw := len(beams)
	bm := &beamMatcher{hists: make([]stateHist, nw)}
	type keySlot struct {
		key     uint64
		w, slot int
	}
	var pairs []keySlot
	for w, refs := range beams {
		if len(refs) > 0 {
			bm.hists[w].init()
		}
		for slot, r := range refs {
			rid, ok := idOf[r.PC]
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
// any level). core.oracle.select.patterns counts the histogram entries.
func selectWindows(pt *trace.Packed, pc *PathClasses, windows []int, cands []map[trace.Addr]*Candidates, cfg OracleConfig) []*Selections {
	reg := obs.Or(cfg.Obs)
	defer reg.StartSpan("core.oracle.select").End()

	pcs := sortedPCs(cands)
	matchers, matcherOf := buildMatchers(pcs, cands, pt.Addrs())

	// Collection stream: one walk per class or declined record, one
	// histogram count per window.
	var st memoStats
	collectTrace(newPackedEmitter(pt, windows), matchers, pc, &st)
	st.flush(reg)
	entries := int64(0)
	for _, bm := range matcherOf {
		for w := range bm.hists {
			entries += int64(len(bm.hists[w].keys))
		}
	}
	reg.Counter("core.oracle.select.patterns").Add(entries)

	out := make([]*Selections, len(windows))
	for w := range windows {
		out[w] = scoreSelections(pcs, cands[w], matcherOf, w, cfg)
	}
	return out
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

// buildMatchers constructs one beam matcher per branch with a non-empty
// beam in any window, both dense-ID indexed (for the collection loop)
// and keyed by PC (for the scoring stage). addrs is the trace's
// complete intern table.
func buildMatchers(pcs []trace.Addr, cands []map[trace.Addr]*Candidates, addrs []trace.Addr) ([]*beamMatcher, map[trace.Addr]*beamMatcher) {
	idOf := make(map[trace.Addr]int32, len(addrs))
	for id, a := range addrs {
		idOf[a] = int32(id)
	}
	matchers := make([]*beamMatcher, len(addrs))
	matcherOf := make(map[trace.Addr]*beamMatcher, len(pcs))
	beams := make([][]Ref, len(cands))
	for _, pc := range pcs {
		any := false
		for w, m := range cands {
			beams[w] = nil
			if c := m[pc]; c != nil {
				beams[w] = c.Refs
				any = any || len(c.Refs) > 0
			}
		}
		if !any {
			continue
		}
		bm := newBeamMatcher(idOf, beams)
		matcherOf[pc] = bm
		if rid, ok := idOf[pc]; ok {
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

// collectTrace is the folded pass-2/3 loop over the trace: each record
// pc left unclassified walks on its own and adds itself to its branch's
// histograms; then each class walks once, at its representative, and
// adds all its instances by outcome. The vectors depend only on the
// signature, so the histograms are identical to a per-record walk's.
//
//bplint:hot
func collectTrace(em *oracleEmitter, matchers []*beamMatcher, pc *PathClasses, st *memoStats) {
	ids := em.ids
	for i, c := range pc.class {
		if c >= 0 {
			continue
		}
		if bm := matchers[ids[i]]; bm != nil {
			wt := [2]uint32{0, 1}
			if em.taken1(i) {
				wt = [2]uint32{1, 0}
			}
			bm.add(collectWalk(em, bm, i), wt) //bplint:ignore kernel-purity a histogram allocates only when it meets a new state vector
		}
	}
	counts, taken := pc.counts, pc.taken
	for c, rep := range pc.reps {
		n := counts[c]
		if bm := matchers[ids[rep]]; bm != nil && n > 0 {
			bm.add(collectWalk(em, bm, int(rep)), [2]uint32{uint32(taken[c]), uint32(n - taken[c])}) //bplint:ignore kernel-purity a histogram allocates only when it meets a new state vector
			st.walks++
			st.hits += int64(n - 1)
		}
	}
}

// collectWalk is the collection's one emission loop: it resolves
// position i's walk against the union of bm's beams and returns the
// state vector of every window — each resolved key's state in the slot
// it holds in each window whose prefix holds the emission — in the
// emitter's scratch. Each key occurs at most once per walk, so the walk
// stops once every union key has resolved. The matcher changes every
// call, so its headers cannot hoist.
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
			ki := em.find(&bm.set, key&^refKeyTakenBit)
			if ki < 0 {
				continue
			}
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
