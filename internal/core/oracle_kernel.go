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

// This file is the oracle's columnar hot path: one branch-major pass
// over a trace's path classes. It computes exactly what
// oracle_reference.go computes — differential tests enforce
// bit-identical Candidates and Selections — but over packed (SoA,
// dense-ID) trace columns, with three structural changes:
//
//   - window tag resolution is a flat backward scan over the dense-ID
//     column with epoch-stamped occurrence/segment scratch arrays, not a
//     closure-based walk with linear per-PC searches (oracleEmitter);
//   - pass 1's per-(record × window-entry) map[Ref]*candStats lookups
//     become open-addressed flat candidate tables keyed by packed ref
//     keys (candTable);
//   - the reference's pass 2 (all pairs) and pass 3 (triple extensions)
//     trace streams become each branch's joint (beam-state vector,
//     outcome) distribution in a small per-window histogram (stateHist):
//     the paper's §3.4 pattern table, with counts in place of counters.
//     Pairs and triples are then scored off-trace by summing over its
//     entries.
//
// Every walk also serves several window lengths at once. Both tagging
// schemes resolve an entry's tag from strictly more-recent entries, so
// the first n steps of a window-32 walk ARE the window-n walk: the
// emitter walks once at the largest window and records where each
// smaller window's emissions end. Profile counts are bucketed by the
// smallest window that saw them (window-n statistics are prefix sums),
// and each walk resolves its branch's union of per-window beams into
// one state vector per window. A one-window run is the same code with
// one bucket.
//
// The walks go once per distinct path signature, not once per record.
// What a walk emits for record i depends only on its branch and the
// previous n (id, taken, backward) entries, so records are first
// classified by that signature (pathmemo.go) and each class of repeated
// signatures walks once, at its first record, carrying the class's
// outcome counts. Only the first n records, one-record classes and
// records the memo declined (budget or bypass) walk on their own.
//
// A walk writes only its own branch's state, so the pass is
// branch-major: the static branches are split into shards
// (branchShards) on the cfg.ScoreParallel workers, and each shard
// finishes its branches one at a time (branchWorker.branch). For one
// branch it
//
//  1. profiles: runs the branch's walks — its declined records in
//     position order, then its classes in class order (walkIndex) —
//     into the shard's one candidate table, keeping each emission as a
//     2-byte entry (candidate, window bucket, direction) with an offset
//     per walk;
//  2. ranks each built window's beam (beamRanker);
//  3. resolves each walk's state vectors from its kept entries through
//     a per-candidate slot table, into the branch's histograms and the
//     walk's place in BeamStates;
//  4. scores each scored window (scoreBranch);
//  5. drops the kept entries and resets the table.
//
// So each walk is emitted once. A walk without kept entries resolves by
// walking again against the branch's beam keys, through the same
// resolve step: every walk of a branch whose table fired a watermark
// prune, or whose beam includes refs the caller handed in (held
// columns, StageSelect's candidates), and every walk after its branch
// passed keptEntriesCap or a candidate index its 2-byte field cannot
// hold. So do callers that know every beam before any walk.

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
// The emitter reads a packed trace's columns; every oracle walk (and
// through the oracle's state vectors every selective sweep) runs the
// identical emit loop.
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

// reset makes s the set of sorted distinct keys, grouped by dense ID,
// reusing its arrays.
func (s *refKeySet) reset(keys []uint64) {
	s.keys, s.rids, s.start, s.bits = keys, s.rids[:0], s.start[:0], s.bits[:0]
	for i, key := range keys {
		if rid := int32(key >> refKeyIDShift); i == 0 || rid != s.rids[len(s.rids)-1] {
			s.rids = append(s.rids, rid)
			s.start = append(s.start, int32(i))
			s.bits = append(s.bits, 0)
		}
		s.bits[len(s.bits)-1] |= 1 << (key & refKeyLow)
	}
}

// focus makes s the set the next focused emits and finds resolve
// against: it clears the previous set's bitmaps from the scratch and
// copies in s's. It costs O(IDs of both sets) and allocates only to
// grow its list of the set's IDs.
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
	e.focused = append(e.focused[:0], s.rids...) // s may be reset before the next focus
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

// weight is record p's one instance by outcome: {1, 0} taken, {0, 1}
// not taken.
func (e *oracleEmitter) weight(p int) [2]uint32 {
	if e.taken1(p) {
		return [2]uint32{1, 0}
	}
	return [2]uint32{0, 1}
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

// reset empties the index for reuse, keeping its arrays: the slot array
// shrinks back to its initial size, so a small table after a large one
// clears only its own slots.
func (x *keyIndex) reset() {
	x.keys = x.keys[:0]
	x.rebuild(keyIndexInitSlots)
}

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

// index returns key's index in keys, or -1 when it is absent.
func (x *keyIndex) index(key uint64) int {
	return int(x.slots[x.probe(key)])
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

// rebuild re-inserts every key into a cleared slot array of the given
// power-of-two size, reusing the current array's capacity.
func (x *keyIndex) rebuild(size int) {
	slots := x.slots[:0]
	if cap(slots) < size {
		slots = make([]int32, size)
	}
	slots = slots[:size]
	for i := range slots {
		slots[i] = -1
	}
	x.slots = slots
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, key := range x.keys {
		slots[x.probe(key)] = int32(i)
	}
}

// candTable is the profile's per-branch candidate table: a keyIndex over
// packed ref keys. Each candidate's row holds one joint distribution per
// window bucket, cnts[bucket*4 + state*2 + outcome] (state/outcome 0 =
// taken, 1 = not-taken), where bucket b counts the emissions whose
// smallest covering window is the b-th. It reproduces the reference's
// mid-stream watermark prune (see OracleConfig.MaxCandidates) bit for
// bit for the largest window. A shard reuses one table from branch to
// branch.
type candTable struct {
	keyIndex
	cnts   []uint32 // stride counters per candidate
	stride int      // 4 × window buckets
	prunes int      // watermark prunes fired (summed into core.oracle.prune.events)
}

// reset empties the table for a branch over the given number of window
// buckets, keeping its arrays.
func (t *candTable) reset(buckets int) {
	t.keyIndex.reset()
	t.cnts = t.cnts[:0]
	t.stride = 4 * buckets
	t.prunes = 0
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

// profileScore mirrors branchProfile.profileScore over one window's
// flat counts, total being the branch's outcome totals.
func profileScore(total [2]uint32, cnt *[4]uint32) uint32 {
	score := max(cnt[0], cnt[1]) + max(cnt[2], cnt[3])
	presentT := cnt[0] + cnt[2]
	presentN := cnt[1] + cnt[3]
	return score + max(total[0]-presentT, total[1]-presentN)
}

// oracleWorkers is the worker budget cfg.ScoreParallel gives the
// oracle's branch shards: GOMAXPROCS when it is 0.
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
// and writes only its own results: the shards need no merge, and
// watermark prunes, reruns and window fallbacks are those of the serial
// pass. One shard (of nil) is the serial pass, run inline.
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
// with live[id] set walk. The shards are balanced by walk count:
// largest branch first, each onto the least-loaded shard. With par 1,
// or fewer than two branches that walk, the plan is one shard.
func planShards(pc *PathClasses, par int, live []bool) branchShards {
	if par <= 1 {
		return branchShards{n: 1}
	}
	x := pc.walks()
	nb := pc.pt.NumBranches()
	var order []int32
	for id := 0; id < nb; id++ {
		if x.numWalks(id) > 0 && (live == nil || live[id]) {
			order = append(order, int32(id))
		}
	}
	n := min(par, len(order))
	if n <= 1 {
		return branchShards{n: 1}
	}
	// Stable: equal walk counts keep ascending ID order.
	sort.SliceStable(order, func(a, b int) bool { return x.numWalks(int(order[a])) > x.numWalks(int(order[b])) })
	sh := branchShards{n: n, of: make([]int32, nb)}
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
		load[s] += x.numWalks(int(id))
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
	out     []rankEntry // beam's result buffer
}

func newBeamRanker(addrs []trace.Addr, topK int) beamRanker {
	topK = max(topK, 0)
	return beamRanker{
		addrs:   addrs,
		topK:    topK,
		byScore: make([]rankEntry, 0, (topK+1)/2),
		byPres:  make([]rankEntry, 0, topK),
		out:     make([]rankEntry, 0, topK),
	}
}

// reset empties the ranker for the next branch, keeping its lists.
func (r *beamRanker) reset() {
	r.n, r.byScore, r.byPres = 0, r.byScore[:0], r.byPres[:0]
}

// add offers one candidate. Keys must be distinct since the last reset.
func (r *beamRanker) add(e rankEntry) {
	r.n++
	r.byScore = offer(r.byScore, (r.topK+1)/2, &e, true, r.addrs)
	r.byPres = offer(r.byPres, r.topK, &e, false, r.addrs)
}

// offer inserts e into l, ordered by scoreBefore (byScore) or
// presenceBefore and holding at most bound entries, and returns the
// list. A full list rejects an entry that does not beat its last in one
// comparison. The order is a flag, not a function value, so e stays on
// its caller's stack.
func offer(l []rankEntry, bound int, e *rankEntry, byScore bool, addrs []trace.Addr) []rankEntry {
	before := func(a, b *rankEntry) bool {
		if byScore {
			return scoreBefore(a, b, addrs)
		}
		return presenceBefore(a, b, addrs)
	}
	i := len(l)
	if i == bound {
		if i == 0 || !before(e, &l[i-1]) {
			return l
		}
		i-- // the last entry drops out
	} else {
		l = l[:i+1]
	}
	for ; i > 0 && before(e, &l[i-1]); i-- {
		l[i] = l[i-1]
	}
	l[i] = *e
	return l
}

// beam returns the beam of the candidates offered since the last reset,
// in rankCandidates' order. The slice is reused by the next call.
func (r *beamRanker) beam() []rankEntry {
	out := r.out[:0]
	k := min(r.topK, r.n)
	if k == 0 {
		return out
	}
	first := r.byScore[:(k+1)/2]
	out = append(out, first...)
rest:
	for _, e := range r.byPres {
		if len(out) == k {
			break
		}
		for _, f := range first {
			if f.key == e.key {
				continue rest
			}
		}
		out = append(out, e)
	}
	r.out = out
	return out
}

// candidates returns the beam of the candidates offered since the last
// reset, with total as its branch's execution count: rankCandidates'
// result over the same candidates.
func (r *beamRanker) candidates(total int) *Candidates {
	c := &Candidates{Total: total}
	beam := r.beam()
	if len(beam) == 0 {
		return c
	}
	c.Refs, c.Scores = make([]Ref, len(beam)), make([]uint32, len(beam))
	for s, e := range beam {
		c.Refs[s], c.Scores[s] = decodeRefKey(e.key, r.addrs), e.score
	}
	return c
}

// A state vector packs one dynamic instance's states for one window's
// beam, two bits per beam slot (slot s at bits 2s and 2s+1): zero while
// the candidate is absent from the window, stateVecTaken or
// stateVecNotTaken when it is present. maxTopK slots fill one uint64.
const (
	stateVecTaken    = 1
	stateVecNotTaken = 2
)

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

// reset empties the histogram for the next branch, keeping its arrays.
func (h *stateHist) reset() {
	h.keyIndex.reset()
	h.cnts = h.cnts[:0]
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
// pre-assigned slot by its shard.
type branchSelection struct {
	size1, size2, size3 []Ref
}

// An oracleJob is one oracle call over a trace's path classes: the
// columns (window lengths) whose state vectors its walks resolve, which
// of them it profiles and ranks (built) and which beams the caller
// hands in (known), which it scores, and what it returns. Oracle,
// OracleStates and NewSelectiveSweep's collection each describe their
// call as one job.
type oracleJob struct {
	pc          *PathClasses
	cfg         OracleConfig                 // defaults applied
	windows     []int                        // every column, strictly ascending
	built       []bool                       // per column: its beams are profiled and ranked here
	known       []map[trace.Addr]*Candidates // per column not built: the caller's beams; nil entries hold none
	scored      []bool                       // per column: its beams get histograms and Selections
	profileOnly bool                         // StageProfile: rank the built columns, resolve nothing
	keep        bool                         // return every walk's state vectors as BeamStates
}

// oracleOut is what an oracleJob returns, per column.
type oracleOut struct {
	cands  []map[trace.Addr]*Candidates // profileOnly jobs: each built column's ranked candidates
	sels   []*Selections                // each scored column's selections
	states *BeamStates                  // keep jobs: the walks' state vectors
}

// keptEntriesCap bounds the entries one branch keeps from its profile
// walks (2 bytes each, so 2 MB per shard): once they pass it, the
// branch's later walks keep none and resolve by walking again against
// its beam. A variable so tests can force that path.
var keptEntriesCap = 1 << 20

// maxOracleColumns bounds one call's windows, so that a resolve walk's
// 4-byte entry (walkEntries) — 32 bits less a direction bit and the
// bucket bits — holds the index of every beam key of a branch: up to
// maxTopK per column. A kept entry has 2 bytes; a branch whose
// candidates outgrow its field resolves by walking again.
const maxOracleColumns = 1 << 12

// oraclePlan is a job's derived per-call state, shared read-only by its
// shards.
type oraclePlan struct {
	*oracleJob
	pt        *trace.Packed
	x         *walkIndex
	addrs     []trace.Addr
	nw        int
	top       int       // the largest built column; -1 without one
	knownByID [][][]Ref // per dense ID: per column, the caller's beam; nil without one
	has       []bool    // per dense ID: some column gives it a non-empty beam
	entBits   uint      // a kept entry's candidate field starts here (direction bit + bucket bits)
	keepable  bool      // a 2-byte kept entry has room for a candidate field
	recOff    []int32   // keep: per record rank, its vectors' place among the stored records
	clsOff    []int32   // keep: per class rank, its vectors' place among the stored classes

	sels   [][]branchSelection // per scored column: per dense ID
	cands  [][]*Candidates     // profileOnly: per built column: per dense ID
	states *BeamStates
}

// run executes the job: one branch-major pass on the shards of the
// branches, then the assembly of its results and counters.
func (j *oracleJob) run() oracleOut {
	reg := obs.Or(j.cfg.Obs)
	defer reg.StartSpan("core.oracle.pass").End()
	if len(j.windows) > maxOracleColumns {
		panic(fmt.Sprintf("core: oracle call over %d windows, max %d", len(j.windows), maxOracleColumns))
	}
	checkWindows(j.windows)
	pl := j.plan()
	live := pl.has
	if pl.top >= 0 {
		live = nil // every branch is profiled
	}
	sh := planShards(j.pc, oracleWorkers(j.cfg), live)
	tallies := make([]oracleTally, sh.n)
	sh.run(func(sd shard) {
		var ids []int
		for id := range pl.has {
			if sd.has(int32(id)) && (live == nil || live[id]) && pl.x.numWalks(id) > 0 {
				ids = append(ids, id)
			}
		}
		w := newBranchWorker(pl, ids)
		for _, id := range ids {
			w.branch(id)
		}
		tallies[sd.s] = w.tally
	})
	var t oracleTally
	for _, s := range tallies {
		t.merge(&s)
	}
	t.flush(reg, pl)
	return pl.assemble()
}

// plan derives the job's per-call state: the caller's beams by dense
// ID, which branches have a beam, and the BeamStates layout.
func (j *oracleJob) plan() *oraclePlan {
	pt := j.pc.pt
	nb := pt.NumBranches()
	pl := &oraclePlan{oracleJob: j, pt: pt, x: j.pc.walks(), addrs: pt.Addrs(), nw: len(j.windows), top: -1}
	pl.entBits = 1 + uint(bits.Len(uint(pl.nw-1)))
	pl.keepable = pl.entBits < 16
	for c, b := range j.built {
		if b {
			pl.top = c
		}
	}
	pl.knownByID = make([][][]Ref, nb)
	for c, m := range j.known {
		for pc, cand := range m {
			id, ok := pt.IDOf(pc)
			if !ok || len(cand.Refs) == 0 {
				continue
			}
			if pl.knownByID[id] == nil {
				pl.knownByID[id] = make([][]Ref, pl.nw)
			}
			pl.knownByID[id][c] = cand.Refs
		}
	}
	pl.has = make([]bool, nb)
	for id := range pl.has {
		pl.has[id] = pl.knownByID[id] != nil || pl.top >= 0 && pl.builtBeam(id)
	}
	for c := range j.windows {
		if j.scored[c] {
			if pl.sels == nil {
				pl.sels = make([][]branchSelection, pl.nw)
			}
			pl.sels[c] = make([]branchSelection, nb)
		}
		if j.profileOnly && j.built[c] {
			if pl.cands == nil {
				pl.cands = make([][]*Candidates, pl.nw)
			}
			pl.cands[c] = make([]*Candidates, nb)
		}
	}
	if j.keep {
		pl.newBeamStates()
	}
	return pl
}

// builtBeam reports whether dense ID id gets a non-empty beam at some
// built column. Any walk at a position past 0 emits the occurrence and
// the backward ref of the record before it, within every window, so
// the branch's table holds a candidate unless the config allows no
// scheme or its one walk is the trace's first record; its beam is then
// non-empty unless TopK is. The branch step checks the prediction.
func (pl *oraclePlan) builtBeam(id int) bool {
	x := pl.x
	if pl.cfg.TopK < 1 || !pl.cfg.schemeAllowed(Occurrence) && !pl.cfg.schemeAllowed(BackwardCount) {
		return false
	}
	recs := x.recs[x.recAt[id]:x.recAt[id+1]]
	return x.clsAt[id+1] > x.clsAt[id] || len(recs) > 1 || len(recs) == 1 && x.recPos[recs[0]] != 0
}

// newBeamStates sizes the job's state vectors: one per column for every
// walk of a branch with a beam, the records' in position order, then
// the classes' in class order, and records each walk's place.
func (pl *oraclePlan) newBeamStates() {
	x, ids := pl.x, pl.pc.ids
	st := &BeamStates{pc: pl.pc, windows: pl.windows, beams: make([][][]Ref, len(pl.has))}
	var recs, classes int
	pl.recOff, recs = beamPlaces(x.recPos, func(pos int32) bool { return pl.has[ids[pos]] })
	pl.clsOff, classes = beamPlaces(x.clsOf, func(c int32) bool { return pl.has[ids[pl.pc.reps[c]]] })
	st.recs = make([]uint64, recs*pl.nw)
	st.classes = make([]uint64, classes*pl.nw)
	pl.states = st
}

// beamPlaces returns each walk's place among the walks kept (those of
// branches with a beam), the walks listed in rank order, and how many
// are kept.
func beamPlaces(walks []int32, kept func(int32) bool) ([]int32, int) {
	places := make([]int32, len(walks))
	n := int32(0)
	for r, w := range walks {
		places[r] = n
		if kept(w) {
			n++
		}
	}
	return places, int(n)
}

// assemble turns the shards' per-branch results into the job's output.
// A StageSelect branch whose PC is absent from the trace never walks;
// it is scored over an empty histogram, as every instance it has.
func (pl *oraclePlan) assemble() oracleOut {
	out := oracleOut{states: pl.states}
	if pl.cands != nil {
		out.cands = make([]map[trace.Addr]*Candidates, pl.nw)
		for c, byID := range pl.cands {
			if byID == nil {
				continue
			}
			m := make(map[trace.Addr]*Candidates, len(byID))
			for id, cand := range byID {
				if cand != nil {
					m[pl.addrs[id]] = cand
				}
			}
			out.cands[c] = m
		}
	}
	if pl.sels == nil {
		return out
	}
	out.sels = make([]*Selections, pl.nw)
	for c, byID := range pl.sels {
		if byID == nil {
			continue
		}
		sel := &Selections{}
		for k := 1; k <= MaxSelectiveRefs; k++ {
			sel.BySize[k] = make(Assignment, len(byID))
		}
		put := func(pc trace.Addr, r *branchSelection) {
			sel.BySize[1][pc] = r.size1
			sel.BySize[2][pc] = r.size2
			sel.BySize[3][pc] = r.size3
		}
		for id := range byID {
			if r := &byID[id]; r.size1 != nil {
				put(pl.addrs[id], r)
			}
		}
		if pl.known == nil {
			out.sels[c] = sel
			continue
		}
		for pc, cand := range pl.known[c] {
			if _, ok := pl.pt.IDOf(pc); !ok && len(cand.Refs) > 0 {
				r := scoreBranch(cand.Refs, &stateHist{})
				put(pc, &r)
			}
		}
		out.sels[c] = sel
	}
	return out
}

// oracleTally is what one shard's branches add to the job's counters.
type oracleTally struct {
	ranked              bool  // some branch was ranked: the candidate gauge is set
	occupancy, peak     int64 // candidates ranked over every built column; the largest branch-column count
	prunes, reruns      int64
	pruned              bool  // some branch's multi-column table pruned
	profWalks, profHits int64 // the profile's class walks and the records they served beyond their representatives
	collWalks, collHits int64 // the same for the branches with a beam
	patterns            int64
	retained            int // the most entries one branch kept
}

func (t *oracleTally) merge(s *oracleTally) {
	t.ranked = t.ranked || s.ranked
	t.occupancy += s.occupancy
	t.peak = max(t.peak, s.peak)
	t.prunes += s.prunes
	t.reruns += s.reruns
	t.pruned = t.pruned || s.pruned
	t.profWalks += s.profWalks
	t.profHits += s.profHits
	t.collWalks += s.collWalks
	t.collHits += s.collHits
	t.patterns += s.patterns
	t.retained = max(t.retained, s.retained)
}

// flush adds the job's counters to reg. They read what a profile pass
// over every branch, one-window profile passes at every smaller built
// column when any table pruned, and a collection pass over every branch
// with a beam count:
//
//   - core.oracle.prune.events, core.oracle.candidates and the
//     core.oracle.candidates.peak gauge count the ranked tables;
//   - core.oracle.memo.walks and core.oracle.memo.hits count each
//     pass's class walks and the records they served beyond their
//     representatives — the profile's once per profile pass;
//   - core.oracle.memo.reruns counts the tables rebuilt in record order
//     (touched only when one is) and core.oracle.windows.fallbacks the
//     one-window passes (touched only when one runs);
//   - core.oracle.select.patterns counts the histogram entries, and the
//     core.oracle.retained.peak_bytes gauge the most bytes of kept
//     entries one branch held.
//
// Every figure is a sum or a maximum over branches, so none depends on
// ScoreParallel.
func (t *oracleTally) flush(reg *obs.Registry, pl *oraclePlan) {
	walks, hits := t.collWalks, t.collHits
	if pl.top >= 0 {
		passes := int64(1)
		if fallbacks := int64(pl.builtColumns() - 1); t.pruned && fallbacks > 0 {
			reg.Counter("core.oracle.windows.fallbacks").Add(fallbacks)
			passes += fallbacks
		}
		walks += passes * t.profWalks
		hits += passes * t.profHits
		if t.reruns > 0 {
			reg.Counter("core.oracle.memo.reruns").Add(t.reruns)
		}
		reg.Counter("core.oracle.prune.events").Add(t.prunes)
		reg.Counter("core.oracle.candidates").Add(t.occupancy)
		if t.ranked {
			reg.Gauge("core.oracle.candidates.peak").Max(t.peak)
		}
	}
	reg.Counter("core.oracle.memo.walks").Add(walks)
	reg.Counter("core.oracle.memo.hits").Add(hits)
	if !pl.profileOnly {
		reg.Counter("core.oracle.select.patterns").Add(t.patterns)
		if pl.top >= 0 {
			reg.Gauge("core.oracle.retained.peak_bytes").Max(2 * int64(t.retained))
		}
	}
}

// builtColumns is the number of built columns.
func (pl *oraclePlan) builtColumns() int {
	n := 0
	for _, b := range pl.built {
		if b {
			n++
		}
	}
	return n
}

// branchWorker is one shard's walk context: its emitter, candidate
// table, rankers, histograms and kept entries, reused from branch to
// branch.
type branchWorker struct {
	pl                  *oraclePlan
	em                  *oracleEmitter
	tab                 candTable
	allowOcc, allowBack bool

	kept    keptEntries // the current branch's kept entries
	keeping bool        // the branch's profile walks keep their entries

	rankers  []beamRanker // per built column
	beamKeys [][]uint64   // per column: the current branch's beam keys, in slot order
	union    refKeySet    // a resolve walk's beam keys
	unionIn  []uint64     // the beam keys' buffer, sorted into union
	rowOf    []int32      // per table candidate: its union key, -1 = in no beam
	rows     []int32      // the candidates rowOf maps, to reset it
	ident    []int32      // ident[u] = u: a walked-again entry names its union key
	slots    []int8       // [union key × column]: the key's slot in the column's beam, -1 = absent
	walkEnts []uint32     // a resolve walk's entries
	vecs     []uint64     // the current walk's state vector per column
	hists    []stateHist  // per column
	histCols []int        // the columns whose histograms the current branch counts

	tally oracleTally
}

// newBranchWorker returns a worker for the branches ids, its kept
// entries sized for the largest of them, so they never grow.
func newBranchWorker(pl *oraclePlan, ids []int) *branchWorker {
	w := &branchWorker{
		pl:        pl,
		em:        newPackedEmitter(pl.pt, pl.windows),
		allowOcc:  pl.cfg.schemeAllowed(Occurrence),
		allowBack: pl.cfg.schemeAllowed(BackwardCount),
		rankers:   make([]beamRanker, pl.nw),
		beamKeys:  make([][]uint64, pl.nw),
		vecs:      make([]uint64, pl.nw),
		hists:     make([]stateHist, pl.nw),
	}
	if pl.top >= 0 && pl.keepable && !pl.profileOnly {
		// A walk keeps at most two entries per window entry, and the
		// branch stops keeping once past keptEntriesCap.
		maxWalk := 2 * pl.windows[pl.top]
		n := 0
		for _, id := range ids {
			n = max(n, min(pl.x.numWalks(id)*maxWalk, keptEntriesCap+maxWalk))
		}
		w.kept.ents = make([]uint16, 0, n)
	}
	w.kept.release()
	for c := range w.hists {
		w.hists[c].init()
		if pl.built[c] {
			w.rankers[c] = newBeamRanker(pl.addrs, pl.cfg.TopK)
		}
	}
	return w
}

// branch runs dense ID id's five steps: profile, rank, resolve, score,
// drop.
func (w *branchWorker) branch(id int) {
	pl := w.pl
	beams := make([][]Ref, pl.nw)
	if pl.top >= 0 {
		total := w.profile(id, !pl.profileOnly && pl.knownByID[id] == nil)
		w.rank(id, total, beams)
		if pl.profileOnly {
			return
		}
	}
	for c, refs := range pl.knownByID[id] {
		if refs != nil {
			beams[c] = refs
		}
	}
	beamed := false
	for _, refs := range beams {
		beamed = beamed || len(refs) > 0
	}
	if beamed != pl.has[id] {
		panic(fmt.Sprintf("core: oracle branch 0x%x: beam %v, planned %v", uint32(pl.addrs[id]), beamed, pl.has[id]))
	}
	if !beamed {
		w.kept.release()
		return
	}
	if pl.states != nil {
		pl.states.beams[id] = beams
	}
	w.resolve(id, beams)
	w.score(id, beams)
	w.kept.release()
}

// recWalks and clsWalks are dense ID id's record and class ranks.
func (pl *oraclePlan) recWalks(id int) []int32 { return pl.x.recs[pl.x.recAt[id]:pl.x.recAt[id+1]] }
func (pl *oraclePlan) clsWalks(id int) []int32 { return pl.x.cls[pl.x.clsAt[id]:pl.x.clsAt[id+1]] }

// classWeight is live class rank r's representative and its instances
// by outcome.
func (pl *oraclePlan) classWeight(r int32) (int, [2]uint32) {
	pc := pl.pc
	c := pl.x.clsOf[r]
	return int(pc.reps[c]), [2]uint32{uint32(pc.taken[c]), uint32(pc.counts[c] - pc.taken[c])}
}

// profile is step 1: the branch's walks into the table at the buckets
// of columns 0..top, keeping each walk's entries when keep is set. A
// branch whose table pruned after taking class walks is rebuilt in
// record order (see rerun). It returns the branch's outcome totals.
func (w *branchWorker) profile(id int, keep bool) [2]uint32 {
	pl := w.pl
	w.tab.reset(pl.top + 1)
	w.keeping = keep && pl.keepable
	w.kept.release()
	var total [2]uint32
	for _, r := range pl.recWalks(id) {
		i := int(pl.x.recPos[r])
		wt := w.em.weight(i)
		w.walk(i, wt, pl.top)
		total[0] += wt[0]
		total[1] += wt[1]
	}
	for _, r := range pl.clsWalks(id) {
		rep, wt := pl.classWeight(r)
		w.walk(rep, wt, pl.top)
		total[0] += wt[0]
		total[1] += wt[1]
		w.tally.profWalks++
		w.tally.profHits += int64(wt[0] + wt[1] - 1)
	}
	// A prune moved the table's candidates, and the rerun and fallbacks
	// replace it, so the kept entries' indices no longer name them: a
	// pruned branch resolves every walk by walking again.
	w.tally.retained = max(w.tally.retained, w.kept.size())
	if w.tab.prunes > 0 {
		w.kept.release()
	}
	w.rerun(id, pl.top)
	return total
}

// rerun restores record order for a branch whose table pruned after
// taking class walks. A watermark prune fires in class order exactly
// when it fires in record order — both happen iff the branch's
// distinct-key count exceeds 2×MaxCandidates — but which candidates
// survive depends on the order, so the table is rebuilt by the
// per-record walk over every record of the branch, at the buckets of
// columns 0..upto (folded into the table's buckets as walk folds them).
// The table's final prunes count into core.oracle.prune.events.
func (w *branchWorker) rerun(id, upto int) {
	pl := w.pl
	if w.tab.prunes > 0 && len(pl.clsWalks(id)) > 0 {
		w.tab.reset(w.tab.stride / 4)
		for _, p := range pl.x.positions(pl.pc, id) {
			w.walk(int(p), w.em.weight(int(p)), upto)
		}
		w.tally.reruns++
	}
	w.tally.prunes += int64(w.tab.prunes)
}

// stopKeeping ends the branch's keeping when its table prunes, its
// candidates outgrow the entries' field or its entries pass
// keptEntriesCap: it keeps the walks kept so far and drops the current
// walk's. The walks without entries resolve by walking again, and
// profile drops the rest too if the table pruned.
func (w *branchWorker) stopKeeping() {
	w.tally.retained = max(w.tally.retained, w.kept.size())
	w.keeping = false
	w.kept.ents = w.kept.ents[:w.kept.offs[w.kept.walks()]]
}

// walk is the profile's one emission loop: emit position i's window
// and count wt (instances by outcome) for each emitted candidate of
// columns 0..upto into the table under its bucket — bucket b, or the
// table's last when it has fewer (a one-window table folds columns
// 0..upto into its one bucket) — hand-inlining the table hit path.
// While the branch keeps entries, each emission is kept too.
//
//bplint:hot
func (w *branchWorker) walk(i int, wt [2]uint32, upto int) {
	em := w.em
	em.emit(i, false)
	tab := &w.tab
	last := tab.stride/4 - 1
	allowOcc, allowBack := w.allowOcc, w.allowBack
	keep := w.keeping
	shift := w.pl.entBits
	maxCand := int32(1)<<(16-shift) - 1
	ents := w.kept.ents
	start := 0
	for b, end := range em.ends[:upto+1] {
		cell0 := 4 * min(b, last)
		for _, key := range em.keys[start:end] {
			if key&refKeySchemeBit != 0 {
				if !allowBack {
					continue
				}
			} else if !allowOcc {
				continue
			}
			cell, bdir := cell0, uint16(b)<<1
			if key&refKeyTakenBit == 0 {
				cell, bdir = cell+2, bdir|1 // state = not-taken
			}
			key &^= refKeyTakenBit
			// Hand-inlined table hit path; misses take the insert call.
			h := tab.probe(key)
			ci := tab.slots[h] //bplint:ignore bce-hoist insert may swap the slot array mid-loop; the header reload is the correctness contract
			if ci >= 0 {
				row := tab.cnts[int(ci)*tab.stride+cell:]
				row[0] += wt[0]
				row[1] += wt[1]
			} else {
				prunes := tab.prunes
				tab.insert(h, key, cell, wt, w.pl.cfg.MaxCandidates, w.pl.addrs) //bplint:ignore kernel-purity miss path only; growth is amortized and bounded by the watermark prune
				ci = int32(len(tab.keys) - 1)                                    //bplint:ignore bce-hoist insert just appended the key; its index is the new length
				if keep && (tab.prunes != prunes || ci > maxCand) {
					w.stopKeeping()
					keep = false
				}
			}
			if keep {
				ents = append(ents, uint16(ci)<<shift|bdir) //bplint:ignore kernel-purity the entries grow amortized, up to keptEntriesCap, and are reused from branch to branch
			}
		}
		start = end
	}
	if keep {
		w.kept.ents = ents
		if len(ents) > keptEntriesCap {
			w.stopKeeping()
			return
		}
		w.kept.offs = append(w.kept.offs, int32(len(ents)))
	}
}

// keptEntries is one branch's kept entries: each emission of its first
// walks as cand<<entBits | bucket<<1 | direction (1 = not taken), walk
// w's at ents[offs[w]:offs[w+1]]. The shard reuses them from branch to
// branch.
type keptEntries struct {
	ents []uint16
	offs []int32
}

// size is the number of entries kept.
func (k *keptEntries) size() int { return len(k.ents) }

// walks is the number of walks whose entries are kept.
func (k *keptEntries) walks() int { return len(k.offs) - 1 }

// walk returns walk w's entries.
func (k *keptEntries) walk(w int) []uint16 { return k.ents[k.offs[w]:k.offs[w+1]] }

// release empties the entries.
func (k *keptEntries) release() { k.ents, k.offs = k.ents[:0], append(k.offs[:0], 0) }

// rank is step 2: each built column's beam from the table, into beams
// and beamKeys (and the job's candidates when it only profiles). A
// column's counts are the prefix sums of buckets 0..c, and a candidate
// with zero presence there is not in its table, exactly as a one-window
// pass would never have inserted it. When the table pruned, each
// smaller built column is exact only from a one-window pass of its own
// (fallback).
func (w *branchWorker) rank(id int, total [2]uint32, beams [][]Ref) {
	pl := w.pl
	tab := &w.tab
	pruned := tab.prunes > 0
	w.tally.pruned = w.tally.pruned || pruned
	for c := range w.rankers {
		if pl.built[c] {
			w.rankers[c].reset()
		}
	}
	for ci, key := range tab.keys {
		row := tab.cnts[ci*tab.stride : (ci+1)*tab.stride]
		var cnt [4]uint32
		for c := 0; c <= pl.top; c++ {
			for k := range cnt {
				cnt[k] += row[4*c+k]
			}
			if !pl.built[c] || pruned && c != pl.top {
				continue
			}
			if pres := cnt[0] + cnt[1] + cnt[2] + cnt[3]; pres > 0 {
				w.rankers[c].add(rankEntry{key: key, score: profileScore(total, &cnt), presence: pres})
			}
		}
	}
	w.take(id, pl.top, total, beams)
	if !pruned {
		for c := 0; c < pl.top; c++ {
			if pl.built[c] {
				w.take(id, c, total, beams)
			}
		}
		return
	}
	for c := 0; c < pl.top; c++ {
		if pl.built[c] {
			w.fallback(id, c, total)
			w.take(id, c, total, beams)
		}
	}
}

// fallback re-profiles the branch at column c alone — its walks in
// class order into a one-bucket table, then the record-order rerun if
// that table pruned — and offers the table to column c's ranker.
func (w *branchWorker) fallback(id, c int, total [2]uint32) {
	pl := w.pl
	tab := &w.tab
	tab.reset(1)
	for _, r := range pl.recWalks(id) {
		i := int(pl.x.recPos[r])
		w.walk(i, w.em.weight(i), c)
	}
	for _, r := range pl.clsWalks(id) {
		rep, wt := pl.classWeight(r)
		w.walk(rep, wt, c)
	}
	w.rerun(id, c)
	rk := &w.rankers[c]
	rk.reset()
	for ci, key := range tab.keys {
		cnt := [4]uint32(tab.cnts[4*ci : 4*ci+4])
		if pres := cnt[0] + cnt[1] + cnt[2] + cnt[3]; pres > 0 {
			rk.add(rankEntry{key: key, score: profileScore(total, &cnt), presence: pres})
		}
	}
}

// take reads built column c's beam off its ranker into beams and
// beamKeys, counting it into the candidate tallies.
func (w *branchWorker) take(id, c int, total [2]uint32, beams [][]Ref) {
	pl := w.pl
	rk := &w.rankers[c]
	n := int64(rk.n)
	w.tally.ranked = true
	w.tally.occupancy += n
	w.tally.peak = max(w.tally.peak, n)
	if pl.profileOnly {
		pl.cands[c][id] = rk.candidates(int(total[0] + total[1]))
		return
	}
	beam := rk.beam()
	keys := w.beamKeys[c][:0]
	var refs []Ref
	if len(beam) > 0 {
		refs = make([]Ref, len(beam))
	}
	for s, e := range beam {
		refs[s] = decodeRefKey(e.key, pl.addrs)
		keys = append(keys, e.key)
	}
	beams[c], w.beamKeys[c] = refs, keys
}

// resolve is step 3: every walk's state vector per column, added to the
// scored columns' histograms and stored at the walk's place in the
// job's BeamStates. The walks whose entries the profile kept resolve
// them through their candidates' slots; the others walk again, keeping
// one walk's entries against the beam keys (walkEntries). Both feed
// resolveWalk.
func (w *branchWorker) resolve(id int, beams [][]Ref) {
	pl := w.pl
	nw := pl.nw
	w.focus(beams)
	kept := w.kept.walks()
	if kept > 0 {
		for len(w.rowOf) < len(w.tab.keys) {
			w.rowOf = append(w.rowOf, -1)
		}
		for c, keys := range w.beamKeys {
			if !pl.built[c] {
				continue
			}
			for _, key := range keys {
				ci := w.tab.index(key)
				w.rowOf[ci] = int32(w.em.find(key))
				w.rows = append(w.rows, int32(ci))
			}
		}
	}
	hist := w.histCols[:0] // the columns whose histograms count
	for c, refs := range beams {
		if pl.scored[c] && len(refs) > 0 {
			hist = append(hist, c)
		}
	}
	w.histCols = hist
	k := 0
	walk := func(i int, wt [2]uint32, places []int32, r int32, dst []uint64) {
		if k < kept {
			resolveWalk(w.kept.walk(k), pl.entBits, w.rowOf, w.slots, w.vecs)
		} else {
			resolveWalk(w.walkEntries(i), pl.entBits, w.ident, w.slots, w.vecs)
		}
		k++
		for _, c := range hist {
			w.hists[c].add(w.vecs[c], wt)
		}
		if dst != nil {
			copy(dst[int(places[r])*nw:], w.vecs)
		}
	}
	var recs, classes []uint64
	if st := pl.states; st != nil {
		recs, classes = st.recs, st.classes
	}
	for _, r := range pl.recWalks(id) {
		i := int(pl.x.recPos[r])
		walk(i, w.em.weight(i), pl.recOff, r, recs)
	}
	for _, r := range pl.clsWalks(id) {
		rep, wt := pl.classWeight(r)
		walk(rep, wt, pl.clsOff, r, classes)
		w.tally.collWalks++
		w.tally.collHits += int64(wt[0] + wt[1] - 1)
	}
	for _, ci := range w.rows {
		w.rowOf[ci] = -1
	}
	w.rows = w.rows[:0]
}

// focus makes the union of beams' keys the emitter's focused set, and
// lays out its slots: slots[u×column] is union key u's slot in the
// column's beam, -1 when the beam lacks it. A ref naming a PC absent from the
// trace, or a tag past MaxTag, is never in any window: it stays
// StateAbsent, exactly like the reference's States resolution.
func (w *branchWorker) focus(beams [][]Ref) {
	pt, nw := w.pl.pt, w.pl.nw
	key := func(r Ref) (uint64, bool) {
		rid, ok := pt.IDOf(r.PC)
		if !ok {
			return 0, false
		}
		return refKeyOf(rid, r)
	}
	keys := w.unionIn[:0]
	for _, refs := range beams {
		for _, r := range refs {
			if k, ok := key(r); ok {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	w.unionIn = keys
	w.union.reset(keys)
	w.em.focus(&w.union)
	w.slots = slices.Grow(w.slots[:0], len(keys)*nw)[:len(keys)*nw]
	for i := range w.slots {
		w.slots[i] = -1
	}
	for c, refs := range beams {
		for s, r := range refs {
			if k, ok := key(r); ok {
				w.slots[w.em.find(k)*nw+c] = int8(s)
			}
		}
	}
	for len(w.ident) < len(keys) {
		w.ident = append(w.ident, int32(len(w.ident)))
	}
}

// walkEntries emits position i's walk focused on the branch's beam keys
// and returns its entries: one per emission, its field the key's index
// in the focused set. Each key occurs at most once per walk, so the
// entries end once every key has one.
//
//bplint:hot
func (w *branchWorker) walkEntries(i int) []uint32 {
	em := w.em
	em.emit(i, true)
	shift := w.pl.entBits
	ents := w.walkEnts[:0]
	remaining := len(w.unionIn)
	start := 0
walk:
	for b, end := range em.ends {
		for _, key := range em.keys[start:end] {
			dir := uint32(0)
			if key&refKeyTakenBit == 0 {
				dir = 1
			}
			ents = append(ents, uint32(em.find(key&^refKeyTakenBit))<<shift|uint32(b)<<1|dir) //bplint:ignore kernel-purity one walk's entries, in a buffer reused from walk to walk
			if remaining--; remaining == 0 {
				break walk
			}
		}
		start = end
	}
	w.walkEnts = ents
	return ents
}

// resolveWalk is the one resolve step: it fills vecs with one walk's
// state vector per column from the walk's entries. An entry's field
// (bits [shift..)) names a candidate, its bits [1..shift) the bucket of
// the smallest column whose window holds the emission, and bit 0 its
// direction (1 = not taken); rowOf maps every candidate to its row of
// slots ([row × column]: its slot in the column's beam, -1 when
// absent) — its union key — or to -1 when it is in no beam. The
// emission sets the candidate's state in each column from its bucket
// on that gives it a slot.
//
//bplint:hot
func resolveWalk[E uint16 | uint32](ents []E, shift uint, rowOf []int32, slots []int8, vecs []uint64) {
	clear(vecs)
	nw := len(vecs)
	bucketMask := E(1)<<(shift-1) - 1
	for _, e := range ents {
		row := rowOf[e>>shift]
		if row < 0 {
			continue
		}
		state := uint64(stateVecTaken) << (e & 1)
		sl := slots[int(row)*nw : int(row+1)*nw]
		for c := int(e >> 1 & bucketMask); c < nw; c++ {
			if s := sl[c]; s >= 0 {
				vecs[c] |= state << (2 * uint(s))
			}
		}
	}
}

// score is step 4: each scored column's selections from its histogram,
// then the histograms reset for the next branch.
func (w *branchWorker) score(id int, beams [][]Ref) {
	pl := w.pl
	for c, refs := range beams {
		h := &w.hists[c]
		if pl.scored[c] && len(refs) > 0 {
			pl.sels[c][id] = scoreBranch(refs, h)
			w.tally.patterns += int64(len(h.keys))
		}
		h.reset()
	}
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
