package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/service"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// server is one bpsimd instance on a loopback listener, with the
// registry it reports through GET /v1/metrics.
type server struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	done   chan error
	client *http.Client
}

// startServer is a serve workload's set-up: a fresh server over an empty
// corpus, every trace the stream names resolved into the corpus (one
// cheap request per trace), and for warm workloads the primed set. A
// fresh server per pass keeps cold requests cold.
func startServer(w workload, dir string, prime []request) (*server, error) {
	srv, err := service.New(service.Config{CorpusDir: dir, Registry: obs.New()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.Clients,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	for _, name := range serveTraces {
		body := mustJSON(v1.SimulateRequest{Trace: v1.TraceRef{Workload: name, N: w.N}, Specs: []string{"taken"}})
		if err := s.mustPost(request{kind: "simulate", body: body}); err != nil {
			return nil, errors.Join(err, s.stop())
		}
	}
	for _, r := range prime {
		if err := s.mustPost(r); err != nil {
			return nil, errors.Join(err, s.stop())
		}
	}
	return s, nil
}

// stop shuts the server down, waits for its serve loop to return, and
// removes its corpus.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

func (s *server) post(r request) (int, []byte, error) {
	resp, err := s.client.Post(s.base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

func (s *server) mustPost(r request) error {
	code, b, err := s.post(r)
	if err != nil {
		return fmt.Errorf("set-up %s: %w", r.path(), err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("set-up %s: status %d: %s", r.path(), code, b)
	}
	return nil
}

// metrics reads the server's registry through GET /v1/metrics.
func (s *server) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := s.client.Get(s.base + v1.PathPrefix + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// passResult is what one pass of the stream produced.
type passResult struct {
	wall   float64
	lat    []float64
	status []int
	// bodies holds each distinct response body once, with its kind and
	// how many requests returned it; checked keeps the sampled requests'
	// bodies by stream index.
	bodies  map[string]bodyInfo
	checked map[int]string
	errs    []string
}

type bodyInfo struct {
	kind string
	n    int
}

// runPass replays the stream with a closed loop of w.Clients clients:
// each client sends its next request only when the previous one has
// completed. Response bodies are checked after the pass, outside the
// timed window. With a tracer, each request's loopback time is a span.
func runPass(s *server, reqs []request, clients int, tr *tracer) passResult {
	res := passResult{lat: make([]float64, len(reqs)), status: make([]int, len(reqs))}
	type clientState struct {
		bodies  map[string]bodyInfo
		checked map[int]string
		errs    []string
	}
	states := make([]clientState, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := now()
	for c := range states {
		st := &states[c]
		st.bodies, st.checked = map[string]bodyInfo{}, map[int]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				var id int
				if tr != nil {
					id = tr.start("pass.request", 0, len(reqs)+i+1)
				}
				start := now()
				code, body, err := s.post(r)
				res.lat[i] = now() - start
				if tr != nil {
					tr.end(id)
				}
				res.status[i] = code
				if err != nil {
					st.errs = append(st.errs, fmt.Sprintf("request %d %s: %v", i, r.path(), err))
					continue
				}
				if info, ok := st.bodies[string(body)]; ok {
					info.n++
					st.bodies[string(body)] = info
				} else {
					st.bodies[string(body)] = bodyInfo{kind: r.kind, n: 1}
				}
				if r.check {
					st.checked[i] = string(body)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = now() - t0
	res.bodies, res.checked = map[string]bodyInfo{}, map[int]string{}
	for _, st := range states {
		for b, info := range st.bodies {
			merged := res.bodies[b]
			merged.kind = info.kind
			merged.n += info.n
			res.bodies[b] = merged
		}
		for i, b := range st.checked {
			res.checked[i] = b
		}
		res.errs = append(res.errs, st.errs...)
	}
	sort.Strings(res.errs)
	return res
}

// checkPass is a serve pass's correctness gate: every response is a 200
// that decodes strictly into its v1 response type, the sampled responses
// match direct engine calls, and the cache saw only misses (cold) or
// only hits (warm) during the pass.
func checkPass(o *outcome, w workload, reqs []request, res passResult, before, after obs.Snapshot, ref *reference) {
	o.attempted += int64(len(reqs))
	for _, e := range res.errs {
		o.fail("%s", e)
	}
	for i, code := range res.status {
		if code != 0 && code != http.StatusOK {
			o.fail("request %d %s: status %d", i, reqs[i].path(), code)
		}
	}
	bodies := make([]string, 0, len(res.bodies))
	for b := range res.bodies {
		bodies = append(bodies, b)
	}
	sort.Strings(bodies)
	for _, b := range bodies {
		info := res.bodies[b]
		if _, err := decodeResponse(info.kind, []byte(b)); err != nil {
			for k := 0; k < info.n; k++ {
				o.fail("%s response does not decode strictly: %v", info.kind, err)
			}
		}
	}
	idx := make([]int, 0, len(res.checked))
	for i := range res.checked {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		if err := ref.verify(reqs[i], []byte(res.checked[i])); err != nil {
			o.fail("request %d %s: %v", i, reqs[i].path(), err)
		}
	}
	hits := after.Counters["service.cache.hits"] - before.Counters["service.cache.hits"]
	misses := after.Counters["service.cache.misses"] - before.Counters["service.cache.misses"]
	if w.Warm {
		for k := int64(0); k < misses; k++ {
			o.fail("warm request missed the cache")
		}
	} else {
		for k := int64(0); k < hits; k++ {
			o.fail("cold request hit the cache")
		}
	}
}

func decodeResponse(kind string, b []byte) (any, error) {
	var v any
	switch kind {
	case "simulate":
		v = &v1.SimulateResponse{}
	case "sweep":
		v = &v1.SweepResponse{}
	case "oracle":
		v = &v1.OracleResponse{}
	case "classify":
		v = &v1.ClassifyResponse{}
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	return v, v1.DecodeStrict(bytes.NewReader(b), v)
}

func decodeRequest(kind string, b []byte) (any, error) {
	var v any
	switch kind {
	case "simulate":
		v = &v1.SimulateRequest{}
	case "sweep":
		v = &v1.SweepRequest{}
	case "oracle":
		v = &v1.OracleRequest{}
	case "classify":
		v = &v1.ClassifyRequest{}
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	return v, v1.DecodeStrict(bytes.NewReader(b), v)
}

// reference holds the benchmark's own copies of the traces the streams
// name, for the direct engine calls that check sampled responses.
type reference struct {
	traces map[string]*trace.Trace
	stats  map[string]*trace.Stats
	// want memoizes expected summaries by request body; only the
	// sequential checks after each pass touch it.
	want map[string]string
}

func newReference(n int, tr *tracer, parent int) (*reference, error) {
	ref := &reference{traces: map[string]*trace.Trace{}, stats: map[string]*trace.Stats{}, want: map[string]string{}}
	for _, name := range serveTraces {
		wl, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		var t *trace.Trace
		tr.do("workloads.generate", parent, 0, func() { t = wl.Generate(n) })
		ref.traces[name] = t
		ref.stats[name] = trace.Summarize(t)
	}
	return ref, nil
}

// verify compares a response's results — correct counts and totals,
// selected refs, class weights — with a direct engine call on the same
// trace. Whole payload bytes are deliberately not compared.
func (ref *reference) verify(r request, body []byte) error {
	v, err := decodeResponse(r.kind, body)
	if err != nil {
		return err
	}
	got, err := summarizeResponse(v)
	if err != nil {
		return err
	}
	want, ok := ref.want[string(r.body)]
	if !ok {
		if want, err = ref.engine(r, nil, 0, 0, nil); err != nil {
			return err
		}
		ref.want[string(r.body)] = want
	}
	if got != want {
		return fmt.Errorf("results differ from the direct engine call:\n got %.200s\nwant %.200s", got, want)
	}
	return nil
}

// engine makes the engine call a request asks for, directly on the
// benchmark's own trace (inside spans when tr is non-nil), and returns
// the result summary the response must match.
func (ref *reference) engine(r request, tr *tracer, parent, req int, work *layerWork) (string, error) {
	v, err := decodeRequest(r.kind, r.body)
	if err != nil {
		return "", err
	}
	t := ref.traces[r.trace]
	reg := obs.New()
	var sb strings.Builder
	switch q := v.(type) {
	case *v1.SimulateRequest:
		env := bp.Env{Stats: ref.stats[r.trace], Trace: t}
		preds := make([]bp.Predictor, len(q.Specs))
		for i, spec := range q.Specs {
			if preds[i], err = bp.Parse(spec, env); err != nil {
				return "", err
			}
		}
		var out *sim.Outcome
		tr.do("sim.simulate", parent, req, func() {
			out = sim.Simulate(t, preds, sim.Options{Parallel: 1, BucketSize: q.BucketSize, Observer: reg})
		})
		if work != nil {
			work.simRecords += len(preds) * t.Len()
		}
		for _, res := range out.Results {
			fmt.Fprintf(&sb, "%s=%d/%d;", res.Predictor, res.Correct, res.Total)
		}
	case *v1.SweepRequest:
		grid, err := gridFor(q.Grid)
		if err != nil {
			return "", err
		}
		var out *sim.SweepOutcome
		tr.do("sim.sweep", parent, req, func() {
			out = sim.SimulateSweep(t, grid, sim.Options{Parallel: 1, Observer: reg})
		})
		fmt.Fprintf(&sb, "total=%d;", out.Total)
		for i, name := range out.Configs {
			fmt.Fprintf(&sb, "%s=%d;", name, out.Correct[i])
		}
	case *v1.OracleRequest:
		cfg := core.OracleConfig{WindowLen: q.WindowLen, TopK: q.TopK, MaxCandidates: q.MaxCandidates, ScoreParallel: 1, Obs: reg}
		var prof, sel *core.Selections
		tr.do("core.oracle.profile", parent, req, func() {
			prof = core.Oracle(t, core.OracleOptions{OracleConfig: cfg, Stage: core.StageProfile})
		})
		tr.do("core.oracle.select", parent, req, func() {
			sel = core.Oracle(t, core.OracleOptions{OracleConfig: cfg, Stage: core.StageSelect, Candidates: prof.Candidates})
		})
		if work != nil {
			work.oracleRecords += t.Len()
		}
		writeAssignments(&sb, v1.NewOracleAssignments(sel))
	case *v1.ClassifyRequest:
		cfg := core.ClassifyConfig{IFPAsHistoryBits: q.IFPAsHistoryBits, HighBias: q.HighBias, Obs: reg}
		var p *core.PAClassification
		tr.do("core.classify", parent, req, func() { p = core.ClassifyPerAddress(t, cfg) })
		writeClasses(&sb, v1.NewClassShares(p))
	}
	return sb.String(), nil
}

// gridFor builds the sweep grid for the families the streams use, with
// the service's documented defaults.
func gridFor(g v1.GridSpec) (bp.SweepGrid, error) {
	switch g.Family {
	case "gshare-hist":
		return bp.NewGshareSweep(g.Hist), nil
	case "bimodal-size":
		return bp.NewBimodalSweep(g.Table), nil
	case "if-gshare":
		return bp.NewIFGshareSweep(g.Hist), nil
	case "hybrid":
		bimodal, chooser := g.BimodalBits, g.ChooserBits
		if bimodal == 0 {
			bimodal = 12
		}
		if chooser == 0 {
			chooser = 12
		}
		return bp.NewHybridSweep(g.Hist, bimodal, chooser), nil
	}
	return nil, fmt.Errorf("grid family %q is not used by the streams", g.Family)
}

// summarizeResponse renders the same summary engine does, from a decoded
// response.
func summarizeResponse(v any) (string, error) {
	var sb strings.Builder
	switch r := v.(type) {
	case *v1.SimulateResponse:
		for _, res := range r.Results {
			fmt.Fprintf(&sb, "%s=%d/%d;", res.Spec, res.Correct, res.Total)
		}
	case *v1.SweepResponse:
		fmt.Fprintf(&sb, "total=%d;", r.Total)
		for _, c := range r.Configs {
			fmt.Fprintf(&sb, "%s=%d;", c.Name, c.Correct)
		}
	case *v1.OracleResponse:
		writeAssignments(&sb, r.Sizes)
	case *v1.ClassifyResponse:
		writeClasses(&sb, r.Classes)
	default:
		return "", fmt.Errorf("unexpected response type %T", v)
	}
	return sb.String(), nil
}

func writeAssignments(sb *strings.Builder, sizes []v1.OracleAssignment) {
	for _, a := range sizes {
		fmt.Fprintf(sb, "k=%d:", a.Size)
		for _, b := range a.Branches {
			fmt.Fprintf(sb, "%s[%s]", b.PC, strings.Join(b.Refs, ","))
		}
		sb.WriteString(";")
	}
}

func writeClasses(sb *strings.Builder, classes []v1.ClassShare) {
	for _, c := range classes {
		fmt.Fprintf(sb, "%s=%d;", c.Class, c.DynWeight)
	}
}

// serveInputs generates the run's request stream (one pass) and the
// requests that prime a warm server.
func serveInputs(w workload, seed int64) (stream, prime []request, err error) {
	if w.Warm {
		set := warmSet(w.N)
		return warmStream(seed, set, w.PassLen), primeRequests(set), nil
	}
	stream, err = coldStream(seed, w.N, w.PassLen)
	return stream, nil, err
}

func runServe(w workload, opts runOpts) (*outcome, []span, error) {
	if opts.trace {
		return traceServe(w, opts)
	}
	o := newOutcome()
	stream, prime, err := serveInputs(w, opts.seed)
	if err != nil {
		return nil, nil, err
	}
	ref, err := newReference(w.N, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	// Each pass yields one value per metric and the run reports their
	// medians, so a pass slowed by something outside the benchmark moves
	// no result.
	var setups, walls, p50s, p99s []float64
	deadline := now() + opts.seconds
	o.speed = newSpeed()
	for pass := 0; pass < w.MinPasses || now() < deadline; pass++ {
		o.speed.sample(2)
		runtime.GC()
		t0 := now()
		s, err := startServer(w, filepath.Join(opts.work, fmt.Sprintf("corpus-%d", pass)), prime)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, now()-t0)
		res, before, after, err := measuredPass(s, stream, w.Clients, nil)
		if err = errors.Join(err, s.stop()); err != nil {
			return nil, nil, err
		}
		walls = append(walls, res.wall)
		p50s = append(p50s, median(res.lat))
		p99s = append(p99s, percentile(res.lat, 99))
		checkPass(o, w, stream, res, before, after, ref)
	}
	o.speed.sample(2)
	o.set("wall_s", median(walls), len(walls))
	o.set("setup_s", median(setups), len(setups))
	o.set("peak_rss_mb", peakRSSMB(), 1)
	o.set("throughput_rps", float64(len(stream))/median(walls), len(walls))
	o.set("latency_p50_ms", 1000*median(p50s), len(walls)*len(stream))
	o.set("latency_p99_ms", 1000*median(p99s), len(walls)*len(stream))
	return o, nil, nil
}

// measuredPass runs one pass between two metric snapshots.
func measuredPass(s *server, stream []request, clients int, tr *tracer) (res passResult, before, after obs.Snapshot, err error) {
	if before, err = s.metrics(); err != nil {
		return
	}
	res = runPass(s, stream, clients, tr)
	after, err = s.metrics()
	return
}

// traceServe is the traced serve run: generate, pack and store the
// traces directly; replay the stream untraced and with per-request
// spans, alternately, each pass on a fresh server; then send requests
// one at a time, with spans around the strict decode, the handler on a
// fresh server, the same request over loopback to another, the matching
// engine call (cold only: warm requests never reach an engine) and the
// marshal.
func traceServe(w workload, opts runOpts) (*outcome, []span, error) {
	o := newOutcome()
	tr := &tracer{}
	stream, prime, err := serveInputs(w, opts.seed)
	if err != nil {
		return nil, nil, err
	}
	root := tr.start("layers", 0, 0)
	ref, err := newReference(w.N, tr, root)
	if err != nil {
		return nil, nil, err
	}
	store, err := corpus.Open(filepath.Join(opts.work, "puts"), obs.New())
	if err != nil {
		return nil, nil, err
	}
	for _, name := range serveTraces {
		t := ref.traces[name]
		tr.do("trace.pack", root, 0, func() { t.Packed() })
		tr.do("corpus.put", root, 0, func() { err = store.PutPacked(corpus.Key(name, w.N, workloads.Revision), t.Packed()) })
		if err != nil {
			return nil, nil, err
		}
	}
	tr.end(root)

	// Tracing overhead: untraced and traced passes alternate, each on a
	// fresh server. The last traced server's counters give the per-layer
	// counts.
	var walls [2][]float64
	var snap, full obs.Snapshot
	var packs int64
	for k := 0; k < 4; k++ {
		var ptr *tracer
		if k%2 == 1 {
			ptr = tr
		}
		runtime.GC()
		built := obs.Default().Counter("trace.pack.builds").Value()
		s, err := startServer(w, filepath.Join(opts.work, fmt.Sprintf("corpus-%d", k)), prime)
		if err != nil {
			return nil, nil, err
		}
		res, before, after, err := measuredPass(s, stream, w.Clients, ptr)
		if err = errors.Join(err, s.stop()); err != nil {
			return nil, nil, err
		}
		checkPass(o, w, stream, res, before, after, ref)
		walls[k%2] = append(walls[k%2], res.wall)
		if ptr != nil {
			packs = obs.Default().Counter("trace.pack.builds").Value() - built
			snap, full = deltaSnapshot(before, after), after
		}
	}

	// The handler path, one request at a time: the handler on one fresh
	// server, the same request over loopback to another.
	hs, err := startServer(w, filepath.Join(opts.work, "corpus-handler"), prime)
	if err != nil {
		return nil, nil, err
	}
	ls, err := startServer(w, filepath.Join(opts.work, "corpus-loopback"), prime)
	if err != nil {
		return nil, nil, errors.Join(err, hs.stop())
	}
	h := hs.srv.Handler()
	var work layerWork
	var respBytes int
	hp := stream[:min(w.TracedLen, len(stream))]
	for i, r := range hp {
		o.attempted++
		n, err := tracedRequest(tr, h, ls, ref, r, i+1, !w.Warm, &work)
		if err != nil {
			o.fail("request %d %s: %v", i, r.path(), err)
		}
		respBytes += n
	}
	if err := errors.Join(hs.stop(), ls.stop()); err != nil {
		return nil, nil, err
	}

	setLayerMetrics(o, tr, work, snap)
	o.set("trace.pack_builds", float64(packs), 1)
	o.set("corpus.misses", float64(full.Counters["corpus.misses"]), 1)
	for _, e := range exhibitNames {
		o.set("experiments.exhibit_s."+e, 0, 0)
	}
	o.set("experiments.render_s", 0, 0)
	o.set("experiments.memo_hit_ratio", 0, 0)
	o.set("corpus.put_s", tr.total("corpus.put"), len(tr.durations("corpus.put")))

	ms := func(xs []float64, p float64) float64 { return 1000 * percentile(xs, p) }
	handler := tr.durations("service.handler")
	o.set("api.decode_ms_p50", 1000*median(tr.durations("api.decode")), len(hp))
	o.set("api.marshal_ms_p50", 1000*median(tr.durations("api.marshal")), len(hp))
	o.set("api.bytes_per_request", float64(respBytes)/float64(len(hp)), len(hp))
	o.set("service.handler_ms_p50", 1000*median(handler), len(handler))
	o.set("service.handler_ms_p99", ms(handler, 99), len(handler))
	gaps := envelopeGaps(tr)
	o.set("service.http_ms_p50", 1000*median(gaps), len(gaps))
	engine := 0.0
	for _, name := range []string{"sim.simulate", "sim.sweep", "core.oracle.profile", "core.oracle.select", "core.classify"} {
		engine += tr.total(name)
	}
	o.set("service.engine_share", engine/sum(handler), len(handler))
	hits, misses := float64(snap.Counters["service.cache.hits"]), float64(snap.Counters["service.cache.misses"])
	o.set("service.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	o.set("service.queue_max", float64(full.Gauges["service.queue"]), 1)
	o.set("entropy.ceilings_s", 0, 0)
	o.set("bench.trace_overhead_frac", (sum(walls[1])-sum(walls[0]))/sum(walls[0]), 4)
	covered := engine + tr.total("api.decode") + tr.total("api.marshal")
	o.set("bench.unattributed_frac", 1-covered/sum(handler), len(handler))
	return o, tr.spans, nil
}

// tracedRequest sends one request down the handler path with a span
// around each layer call; its spans share the request's ID. It returns
// the response size.
func tracedRequest(tr *tracer, h http.Handler, loop *server, ref *reference, r request, id int, cold bool, work *layerWork) (int, error) {
	req := tr.start("request", 0, id)
	defer tr.end(req)
	var err error
	tr.do("api.decode", req, id, func() { _, err = decodeRequest(r.kind, r.body) })
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	tr.do("service.handler", req, id, func() {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body)))
	})
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d", rec.Code)
	}
	var code int
	tr.do("http.request", req, id, func() { code, _, err = loop.post(r) })
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("loopback: status %d: %v", code, err)
	}
	if cold {
		if _, err := ref.engine(r, tr, req, id, work); err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
	}
	v, err := decodeResponse(r.kind, rec.Body.Bytes())
	if err != nil {
		return 0, err
	}
	tr.do("api.marshal", req, id, func() { _, err = v1.Marshal(v) })
	return rec.Body.Len(), err
}

// envelopeGaps pairs each request's loopback span with its handler span:
// the difference is what net/http and the loopback socket add.
func envelopeGaps(tr *tracer) []float64 {
	handler := map[int]float64{}
	for _, s := range tr.spans {
		if s.Name == "service.handler" {
			handler[s.Req] = s.dur()
		}
	}
	var gaps []float64
	for _, s := range tr.spans {
		if h, ok := handler[s.Req]; ok && s.Name == "http.request" {
			gaps = append(gaps, s.dur()-h)
		}
	}
	return gaps
}

// deltaSnapshot is after − before for every counter.
func deltaSnapshot(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}}
	for name, v := range after.Counters {
		d.Counters[name] = v - before.Counters[name]
	}
	return d
}
