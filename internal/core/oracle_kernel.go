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

// This file is the oracle's columnar hot path. It computes exactly what
// oracle_reference.go computes — differential tests enforce bit-identical
// Candidates and Selections — but over the packed (SoA, dense-ID) trace
// view, with three structural changes:
//
//   - window tag resolution is a flat backward scan over the dense-ID
//     column with epoch-stamped occurrence/segment scratch arrays, not a
//     closure-based walk with linear per-PC searches (oracleEmitter);
//   - pass 1's per-(record × window-entry) map[Ref]*candStats lookups
//     become open-addressed flat candidate tables keyed by packed ref
//     keys (candTable);
//   - the reference's pass 2 (all pairs) and pass 3 (triple extensions)
//     trace streams fold into ONE stream that records each dynamic
//     instance's candidate states into per-branch bit-sliced
//     taken/not-taken planes; pairs and triples are then scored
//     off-trace with popcount kernels, embarrassingly parallel per
//     branch through the internal/runner worker pool.
//
// Every pass also serves several window lengths at once. Both tagging
// schemes resolve an entry's tag from strictly more-recent entries, so
// the first n steps of a window-32 walk ARE the window-n walk: the
// emitter walks once at the largest window and records where each
// smaller window's emissions end. Profile counts are bucketed by the
// smallest window that saw them (window-n statistics are prefix sums),
// and the collection stream resolves each branch's union of per-window
// beams once per record. A one-window run is the same code with one
// bucket.
//
// Net: 3 trace passes -> 2 for any number of windows, no per-candidate
// allocations, no closures in the per-record loop.

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
// in-memory path hands it the full packed columns once, while the
// streaming paths (oracle_blocks.go, SelectiveSweep) re-point it at a
// carry+chunk window per block and grow the scratch as the intern table
// grows. Every path runs the identical emit loop.
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
	}
}

// newPackedEmitter points a fresh emitter at a packed view's full columns.
func newPackedEmitter(pt *trace.Packed, windows []int) *oracleEmitter {
	e := newOracleEmitter(windows)
	e.setColumns(pt.IDs(), pt.TakenWords(), pt.BackwardWords())
	e.growScratch(pt.NumBranches())
	return e
}

// setColumns re-points the emitter at a column view. Epoch stamps stay
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

// candTable is an open-addressed (linear-probe) candidate table: slots
// hold indices into the dense keys/cnts columns, so probing touches one
// flat int32 array and stats updates touch one flat counter row — no
// pointers, no per-candidate allocation. Each candidate's row holds one
// joint distribution per window bucket, cnts[bucket*4 + state*2 +
// outcome] (state/outcome 0 = taken, 1 = not-taken), where bucket b
// counts the emissions whose smallest covering window is the b-th. It
// reproduces the reference's mid-stream watermark prune (see
// OracleConfig.MaxCandidates) bit for bit for the largest window.
type candTable struct {
	slots  []int32 // index into keys, -1 = empty; power-of-two sized
	shift  uint    // 64 - log2(len(slots)), for fibonacci hashing
	keys   []uint64
	cnts   []uint32 // stride counters per candidate
	stride int      // 4 × window buckets
	prunes int      // watermark prunes fired (summed into core.oracle.prune.events)
}

const candTableInitSlots = 16

// probe returns the slot holding key, or the first empty slot of its
// probe chain.
func (t *candTable) probe(key uint64) int {
	slots := t.slots
	keys := t.keys
	mask := uint64(len(slots) - 1)
	h := (key * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := slots[h]
		if s < 0 || keys[s] == key {
			return int(h)
		}
		h = (h + 1) & mask
	}
}

// init sizes the slot array up front for the given number of window
// buckets; the counting loop hand-inlines the hit path (probe +
// increment), so it never checks for a nil table.
func (t *candTable) init(buckets int) {
	t.slots = make([]int32, candTableInitSlots)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.shift = 64 - uint(bits.TrailingZeros(candTableInitSlots))
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
// returned for key. The watermark prune fires exactly where the
// reference's does — before an insertion that would exceed
// 2*maxCandidates live candidates.
func (t *candTable) insert(h int, key uint64, cell int, maxCandidates int, addrs []trace.Addr) {
	if len(t.keys) >= 2*maxCandidates {
		t.prune(maxCandidates, addrs)
		h = t.probe(key) // table rebuilt: find the new insert slot
	}
	t.keys = append(t.keys, key)
	n := len(t.cnts)
	t.cnts = slices.Grow(t.cnts, t.stride)[:n+t.stride]
	clear(t.cnts[n:])
	t.cnts[n+cell] = 1
	t.slots[h] = int32(len(t.keys) - 1)
	if 4*len(t.keys) >= 3*len(t.slots) {
		t.rebuild(2 * len(t.slots))
	}
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

// rebuild re-inserts every candidate into a fresh slot array of the
// given power-of-two size.
func (t *candTable) rebuild(size int) {
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	t.slots = slots
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, key := range t.keys {
		slots[t.probe(key)] = int32(i)
	}
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
	score := max32(cnt[0], cnt[1]) + max32(cnt[2], cnt[3])
	presentT := cnt[0] + cnt[2]
	presentN := cnt[1] + cnt[3]
	return score + max32(p.total[0]-presentT, p.total[1]-presentN)
}

// ProfileCandidatesPacked is oracle pass 1 over the columnar trace view.
//
// Deprecated: ProfileCandidatesPacked is Oracle with Stage: StageProfile
// (project .Candidates); new code should call Oracle.
func ProfileCandidatesPacked(pt *trace.Packed, cfg OracleConfig) map[trace.Addr]*Candidates {
	return profilePacked(pt, cfg)
}

// profilePacked is oracle pass 1 at the config's window over the
// columnar trace view. It produces bit-identical results to
// ReferenceProfileCandidates.
func profilePacked(pt *trace.Packed, cfg OracleConfig) map[trace.Addr]*Candidates {
	cfg = cfg.withDefaults()
	return profileWindows(pt, []int{cfg.WindowLen}, cfg)[0]
}

// profileWindows is oracle pass 1 over the columnar trace view for every
// window in windows (strictly ascending) at once: one stream at the
// largest window, flat per-branch candidate tables with per-window
// buckets, no closures and no per-candidate allocations. Result w is
// bit-identical to a one-window pass at windows[w].
//
// Exactness rests on table occupancy: a smaller window's table is a
// subset of the largest window's at every point of the stream, so when
// the shared tables never prune, no one-window table would have pruned
// either. When any table did prune, the smaller windows are recomputed
// with one-window passes, each counted in core.oracle.windows.fallbacks.
func profileWindows(pt *trace.Packed, windows []int, cfg OracleConfig) []map[trace.Addr]*Candidates {
	reg := obs.Or(cfg.Obs)
	defer reg.StartSpan("core.oracle.profile").End()
	addrs := pt.Addrs()
	profile := func(windows []int) []kernelProfile {
		profiles := newProfiles(pt.NumBranches(), len(windows))
		profileRange(newPackedEmitter(pt, windows), profiles, cfg, addrs, 0, pt.Len())
		return profiles
	}
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
// entries of the result stay nil) — the shared tail of the packed and
// streaming profile entry points. Window w's counts are the prefix sums
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

// profileRange is pass 1's per-record loop over emitter column positions
// [lo, hi): emit the window at every position and count each emitted
// candidate into the branch's flat table under its window bucket,
// hand-inlining the table hit path. The packed path runs it once over
// the whole column; the streaming path runs it once per chunk with lo at
// the carry boundary.
//
//bplint:hot
func profileRange(em *oracleEmitter, profiles []kernelProfile, cfg OracleConfig, addrs []trace.Addr, lo, hi int) {
	allowOcc := cfg.schemeAllowed(Occurrence)
	allowBack := cfg.schemeAllowed(BackwardCount)
	ids := em.ids
	for i := lo; i < hi; i++ {
		p := &profiles[ids[i]]
		out := 1
		if em.taken1(i) {
			out = 0
		}
		p.total[out]++
		em.emit(i, false)
		tab := &p.tab
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
				cell := 4*b + out
				if key&refKeyTakenBit == 0 {
					cell += 2 // state = not-taken
				}
				key &^= refKeyTakenBit
				// Hand-inlined table hit path; misses take the insert call.
				h := tab.probe(key)
				if s := tab.slots[h]; s >= 0 { //bplint:ignore bce-hoist insert may swap the slot array mid-loop; the header reload is the correctness contract
					tab.cnts[int(s)*tab.stride+cell]++ //bplint:ignore bce-hoist insert may grow the counter array mid-loop; the header reload is the correctness contract
				} else {
					tab.insert(h, key, cell, cfg.MaxCandidates, addrs) //bplint:ignore kernel-purity miss path only; growth is amortized and bounded by the watermark prune
				}
			}
			start = end
		}
	}
}

// beamMatcher resolves emitted ref keys for one static branch against
// the union of its per-window beams, and holds each window's instance
// matrix: for every dynamic instance t and beam slot, bit t of the
// slot's taken plane or not-taken plane is set when the candidate was in
// that state (neither bit: StateAbsent). The outcome bitset is shared by
// every window — each sees the same instances.
type beamMatcher struct {
	set   refKeySet // union of the windows' packed beam keys
	slots []int8    // [key index × windows + w]: the key's slot in beam w, -1 if absent
	mats  [][]uint64
	outs  []uint64 // bit t = instance t resolved taken
	words int      // words per plane
	n     int      // instances collected
}

// plane returns window w's bit plane for beam slot and state (0 =
// taken, 1 = not-taken).
func (bm *beamMatcher) plane(w, slot, state int) []uint64 {
	off := (2*slot + state) * bm.words
	return bm.mats[w][off : off+bm.words]
}

// newBeamMatcher builds a matcher over one branch's per-window beams
// (beams[w] may be empty) for total dynamic instances. idOf resolves a
// PC to its dense ID in the trace's intern table (the packed path passes
// pt.IDOf; the streaming path closes over the complete table produced by
// the profile pass).
func newBeamMatcher(idOf func(trace.Addr) (int32, bool), beams [][]Ref, total int) *beamMatcher {
	nw := len(beams)
	bm := &beamMatcher{words: (total + 63) / 64, mats: make([][]uint64, nw)}
	type keySlot struct {
		key     uint64
		w, slot int
	}
	var pairs []keySlot
	for w, refs := range beams {
		if len(refs) > 0 {
			bm.mats[w] = make([]uint64, 2*len(refs)*bm.words)
		}
		for slot, r := range refs {
			rid, ok := idOf(r.PC)
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
	bm.outs = make([]uint64, bm.words)
	return bm
}

// grow doubles the instance capacity — only reached when a caller's
// Candidates under-report a branch's dynamic count.
func (bm *beamMatcher) grow() {
	old, words := bm.words, 2*bm.words+1
	mats := bm.mats
	for w, m := range mats {
		if m == nil {
			continue
		}
		grown := make([]uint64, len(m)/old*words) //bplint:ignore kernel-purity growth path for under-reported instance counts only
		for p := 0; p < len(m)/old; p++ {
			copy(grown[p*words:], m[p*old:(p+1)*old])
		}
		mats[w] = grown
	}
	bm.outs = append(bm.outs, make([]uint64, words-bm.words)...)
	bm.words = words
}

// branchSelection is one branch's scored selections, written into a
// pre-assigned slot by the parallel scoring stage.
type branchSelection struct {
	size1, size2, size3 []Ref
}

// SelectRefsPacked is oracle passes 2+3 over the columnar trace view.
//
// Deprecated: SelectRefsPacked is Oracle with Stage: StageSelect and
// Options.Candidates; new code should call Oracle.
func SelectRefsPacked(pt *trace.Packed, cands map[trace.Addr]*Candidates, cfg OracleConfig) *Selections {
	return selectPacked(pt, cands, cfg)
}

// selectPacked is oracle passes 2+3 at the config's window over the
// columnar trace view. Produces bit-identical Selections to
// ReferenceSelectRefs.
func selectPacked(pt *trace.Packed, cands map[trace.Addr]*Candidates, cfg OracleConfig) *Selections {
	cfg = cfg.withDefaults()
	return selectWindows(pt, []int{cfg.WindowLen}, []map[trace.Addr]*Candidates{cands}, cfg)[0]
}

// selectWindows is oracle passes 2+3 for every window in windows
// (strictly ascending, cands aligned with it), folded into a single
// collection stream plus an off-trace scoring stage. For every dynamic
// instance of a branch with a non-empty beam in some window it resolves
// the window-max emissions against the union of the branch's beams once
// and sets each window's bit planes; the exact pair/triple joint
// distributions are then recovered per window and branch with popcount
// kernels and scored in parallel across the internal/runner pool
// (cfg.ScoreParallel workers, identical output at any level).
func selectWindows(pt *trace.Packed, windows []int, cands []map[trace.Addr]*Candidates, cfg OracleConfig) []*Selections {
	defer obs.Or(cfg.Obs).StartSpan("core.oracle.select").End()

	pcs := sortedPCs(cands)
	matchers, matcherOf := buildMatchers(pcs, cands, pt.NumBranches(), pt.IDOf)

	// Collection stream: one pass over the trace, one set of plane bits
	// per dynamic instance.
	collectRange(newPackedEmitter(pt, windows), matchers, 0, pt.Len())

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
// and keyed by PC (for the scoring stage).
func buildMatchers(pcs []trace.Addr, cands []map[trace.Addr]*Candidates, nb int, idOf func(trace.Addr) (int32, bool)) ([]*beamMatcher, map[trace.Addr]*beamMatcher) {
	matchers := make([]*beamMatcher, nb)
	matcherOf := make(map[trace.Addr]*beamMatcher, len(pcs))
	beams := make([][]Ref, len(cands))
	for _, pc := range pcs {
		total, any := 0, false
		for w, m := range cands {
			beams[w] = nil
			if c := m[pc]; c != nil {
				beams[w] = c.Refs
				total = max(total, c.Total)
				any = any || len(c.Refs) > 0
			}
		}
		if !any {
			continue
		}
		bm := newBeamMatcher(idOf, beams, total)
		matcherOf[pc] = bm
		if rid, ok := idOf(pc); ok {
			matchers[rid] = bm
		}
	}
	return matchers, matcherOf
}

// scoreSelections runs window w's off-trace scoring stage — per-branch,
// embarrassingly parallel, pre-assigned result slots — and assembles its
// Selections. Shared tail of the packed and streaming select entry
// points.
func scoreSelections(pcs []trace.Addr, cands map[trace.Addr]*Candidates, matcherOf map[trace.Addr]*beamMatcher, w int, cfg OracleConfig) *Selections {
	results := make([]branchSelection, len(pcs))
	cells := make([]runner.Cell, 0, len(pcs))
	for i, pc := range pcs {
		c := cands[pc]
		if c == nil || len(c.Refs) == 0 {
			continue
		}
		i, bm, refs := i, matcherOf[pc], c.Refs
		cells = append(cells, runner.Cell{
			Exhibit:  "oracle-score",
			Workload: fmt.Sprintf("0x%x", uint32(pc)),
			Run: func(context.Context) error {
				results[i] = scoreBranch(refs, bm, w)
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

// collectRange is the folded pass-2/3 per-record loop over emitter
// column positions [lo, hi): for every dynamic instance of a branch with
// a beam, resolve the walk's emissions against the union of the
// branch's beams and set the instance's plane bits in every window whose
// prefix holds the emission. Each key occurs at most once per walk, so
// the walk stops once every union key has resolved. The active matcher
// changes every record, so its headers cannot hoist above the record
// loop.
//
//bplint:hot
func collectRange(em *oracleEmitter, matchers []*beamMatcher, lo, hi int) {
	ids := em.ids
	nw := len(em.windows)
	for i := lo; i < hi; i++ {
		bm := matchers[ids[i]]
		if bm == nil {
			continue
		}
		em.focus(&bm.set)
		em.emit(i, true)
		t := bm.n
		bm.n++
		word, bit := t>>6, uint64(1)<<(uint(t)&63)
		if word >= bm.words {
			bm.grow() //bplint:ignore kernel-purity reached only when caller-supplied Candidates under-report the instance count
		}
		if em.taken1(i) {
			bm.outs[word] |= bit //bplint:ignore bce-hoist bm is selected per record; its outcome bitset cannot hoist above the record loop
		}
		words := bm.words
		remaining := len(bm.set.keys) //bplint:ignore bce-hoist bm is selected per record; its key count cannot hoist above the record loop
		start := 0
	walk:
		for b, end := range em.ends {
			for _, key := range em.keys[start:end] {
				ki := em.find(&bm.set, key&^refKeyTakenBit)
				if ki < 0 {
					continue
				}
				state := 0
				if key&refKeyTakenBit == 0 {
					state = 1
				}
				for w := b; w < nw; w++ {
					slot := int(bm.slots[ki*nw+w]) //bplint:ignore bce-hoist bm is selected per record; its slot array cannot hoist above the record loop
					if slot >= 0 {
						bm.mats[w][(2*slot+state)*words+word] |= bit //bplint:ignore bce-hoist per-window planes are selected per emission
					}
				}
				remaining--
				if remaining == 0 {
					break walk
				}
			}
			start = end
		}
	}
}

// jointCount is one joint pattern's instance count and how many of
// those instances resolved taken.
type jointCount struct{ tot, taken uint32 }

func (j jointCount) minus(a, b jointCount) jointCount {
	return jointCount{j.tot - a.tot - b.tot, j.taken - a.taken - b.taken}
}

// score is the statically-filled-PHT correct count of the pattern:
// max(taken, not-taken).
func (j jointCount) score() uint32 { return max32(j.taken, j.tot-j.taken) }

// countPlane tallies the instances set in plane a, split by outcome.
func countPlane(a, outT []uint64) jointCount {
	var c jointCount
	for w, aw := range a {
		c.tot += uint32(bits.OnesCount64(aw))
		c.taken += uint32(bits.OnesCount64(aw & outT[w]))
	}
	return c
}

// countAnd tallies the instances set in both a and b, split by outcome.
func countAnd(a, b, outT []uint64) jointCount {
	var c jointCount
	for w, aw := range a {
		x := aw & b[w]
		c.tot += uint32(bits.OnesCount64(x))
		c.taken += uint32(bits.OnesCount64(x & outT[w]))
	}
	return c
}

// planeScorer recovers one branch's subset scores for one window from
// its taken/not-taken planes. Absent-state patterns are never
// materialized as planes: each is a marginal minus its present-state
// patterns, so a pair costs four plane intersections, not nine.
type planeScorer struct {
	bm   *beamMatcher
	w    int
	outT []uint64
	marg [maxTopK][NumStates]jointCount // per-slot single-candidate patterns
}

func newPlaneScorer(bm *beamMatcher, w, k int) *planeScorer {
	s := &planeScorer{bm: bm, w: w, outT: bm.outs}
	all := jointCount{uint32(bm.n), countPlane(bm.outs, bm.outs).taken}
	for slot := 0; slot < k; slot++ {
		m := &s.marg[slot]
		m[StateTaken] = countPlane(bm.plane(w, slot, 0), s.outT)
		m[StateNotTaken] = countPlane(bm.plane(w, slot, 1), s.outT)
		m[StateAbsent] = all.minus(m[StateTaken], m[StateNotTaken])
	}
	return s
}

// singleScore is subsetScore for a one-candidate subset.
func (s *planeScorer) singleScore(a int) uint32 {
	score := uint32(0)
	for _, j := range s.marg[a] {
		score += j.score()
	}
	return score
}

// pairScore is subsetScore for a two-candidate subset: the four
// present-state patterns by plane intersection, the five absent-state
// ones by subtraction from the marginals.
func (s *planeScorer) pairScore(a, b int) uint32 {
	var j [NumStates][NumStates]jointCount
	for sa := 0; sa < 2; sa++ {
		for sb := 0; sb < 2; sb++ {
			j[sa][sb] = countAnd(s.bm.plane(s.w, a, sa), s.bm.plane(s.w, b, sb), s.outT)
		}
	}
	for st := 0; st < 2; st++ {
		j[st][StateAbsent] = s.marg[a][st].minus(j[st][0], j[st][1])
		j[StateAbsent][st] = s.marg[b][st].minus(j[0][st], j[1][st])
	}
	j[StateAbsent][StateAbsent] = s.marg[a][StateAbsent].minus(j[StateAbsent][0], j[StateAbsent][1])
	score := uint32(0)
	for sa := range j {
		for _, c := range j[sa] {
			score += c.score()
		}
	}
	return score
}

// pairPatterns materializes the nine joint-pattern masks of the pair
// (a, b), pattern sa*3+sb, with the absent state as the complement of
// the two present planes within the branch's instance count.
func (s *planeScorer) pairPatterns(a, b int) *[9][]uint64 {
	bm := s.bm
	words := bm.words
	flat := make([]uint64, 9*words)
	var pm [9][]uint64
	for p := range pm {
		pm[p] = flat[p*words : (p+1)*words]
	}
	at, an := bm.plane(s.w, a, 0), bm.plane(s.w, a, 1)
	bt, bn := bm.plane(s.w, b, 0), bm.plane(s.w, b, 1)
	for x := 0; x < words; x++ {
		valid := ^uint64(0)
		if rest := bm.n - 64*x; rest < 64 {
			valid = uint64(1)<<uint(max(rest, 0)) - 1
		}
		as := [NumStates]uint64{at[x], an[x], valid &^ (at[x] | an[x])}
		bs := [NumStates]uint64{bt[x], bn[x], valid &^ (bt[x] | bn[x])}
		for sa := 0; sa < NumStates; sa++ {
			for sb := 0; sb < NumStates; sb++ {
				pm[sa*3+sb][x] = as[sa] & bs[sb]
			}
		}
	}
	return &pm
}

// tripleScore is subsetScore for the best pair's nine pattern masks
// extended by candidate c (27 joint patterns, the absent third by
// subtraction).
func (s *planeScorer) tripleScore(pm *[9][]uint64, pmMarg *[9]jointCount, c int) uint32 {
	ct, cn := s.bm.plane(s.w, c, 0), s.bm.plane(s.w, c, 1)
	score := uint32(0)
	for p := range pm {
		jt := countAnd(pm[p], ct, s.outT)
		jn := countAnd(pm[p], cn, s.outT)
		score += jt.score() + jn.score() + pmMarg[p].minus(jt, jn).score()
	}
	return score
}

// scoreBranch recovers the reference's pass-2/pass-3 subset search for
// one branch's window-w beam from its instance planes: exact best pair
// by exhaustive popcount scoring (lexicographic enumeration, strict
// improvement — the same tie-breaks as the reference), then the best
// greedy triple extension of that pair.
//
//bplint:hot
func scoreBranch(refs []Ref, bm *beamMatcher, w int) branchSelection {
	k := len(refs)
	s := newPlaneScorer(bm, w, k)

	var bestI, bestJ int
	var bestScore uint32
	if k == 1 {
		bestI, bestJ = 0, -1
		bestScore = s.singleScore(0)
	} else {
		first := true
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if sc := s.pairScore(i, j); first || sc > bestScore {
					bestI, bestJ, bestScore = i, j, sc
					first = false
				}
			}
		}
	}

	var out branchSelection
	out.size1 = []Ref{refs[0]}
	if bestJ < 0 {
		out.size2 = []Ref{refs[0]}
	} else {
		out.size2 = []Ref{refs[bestI], refs[bestJ]}
	}
	out.size3 = out.size2

	if bestJ >= 0 && k > 2 {
		pm := s.pairPatterns(bestI, bestJ)
		var pmMarg [9]jointCount
		for p := range pm {
			pmMarg[p] = countPlane(pm[p], s.outT)
		}
		triBest := bestScore
		ext := -1
		for e := 0; e < k; e++ {
			if e == bestI || e == bestJ {
				continue
			}
			if sc := s.tripleScore(pm, &pmMarg, e); sc > triBest {
				triBest, ext = sc, e
			}
		}
		if ext >= 0 {
			tri := []int{bestI, bestJ, ext}
			sort.Ints(tri)
			out.size3 = []Ref{refs[tri[0]], refs[tri[1]], refs[tri[2]]}
		}
	}
	return out
}
