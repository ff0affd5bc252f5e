// Package v1 is the bpsimd wire schema, version 1: the request and
// response types of every service endpoint, one canonical JSON encoding
// shared by the server and cmd/bpload, and the structured error
// envelope.
//
// Schema discipline:
//
//   - Requests decode strictly (DecodeStrict): unknown fields and
//     trailing data are rejected, so a client typo fails loudly instead
//     of silently running a default configuration.
//   - Responses encode canonically (Encode/Marshal): compact JSON, map
//     keys sorted by encoding/json, a single trailing newline. Two equal
//     payload values always serialize to identical bytes — the service's
//     byte-determinism contract rides on this.
//   - The version lives in the package path and the URL prefix
//     (PathPrefix). Breaking changes fork a v2 package instead of
//     mutating these types.
package v1

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
)

// PathPrefix is the URL prefix every v1 endpoint lives under.
const PathPrefix = "/v1"

// MaxRequestBytes bounds a JSON request body; bodies beyond it are
// rejected before decoding. (Trace uploads are binary and governed by
// the service's MaxUploadBytes instead.)
const MaxRequestBytes = 1 << 20

// TraceRef identifies the trace a request runs over: either the content
// address (Key) of an uploaded or previously generated trace, or a
// synthetic Workload + N to generate on demand (the service caches the
// generated bytes in its corpus store, so repeated references are
// cheap). Exactly one of Key and Workload must be set.
type TraceRef struct {
	Key      string `json:"key,omitempty"`
	Workload string `json:"workload,omitempty"`
	// N is the dynamic branch count for a generated workload trace; 0
	// selects the service's default length.
	N int `json:"n,omitempty"`
}

// Validate checks the ref names exactly one source and that Key, if
// set, is a well-formed content address.
func (t TraceRef) Validate() error {
	switch {
	case t.Key == "" && t.Workload == "":
		return errors.New("trace: one of key or workload is required")
	case t.Key != "" && t.Workload != "":
		return errors.New("trace: key and workload are mutually exclusive")
	case t.Key != "" && !validKey(t.Key):
		// Keys reach the corpus store as file names; anything but the
		// exact sha256 hex form is rejected before touching the store.
		return errors.New("trace: key must be a 64-character lowercase hex content address")
	case t.Key != "" && t.N != 0:
		return errors.New("trace: n applies only to workload refs")
	case t.N < 0:
		return errors.New("trace: n must be non-negative")
	}
	return nil
}

// validKey reports whether s is a sha256 content address: exactly 64
// lowercase hex characters.
func validKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// TraceInfo describes the resolved trace a response was computed over.
type TraceInfo struct {
	// Key is the trace's content address in the corpus store.
	Key string `json:"key"`
	// Name is the trace's self-reported name.
	Name string `json:"name"`
	// Branches is the dynamic conditional-branch count.
	Branches int `json:"branches"`
	// Sites is the number of distinct static branch sites.
	Sites int `json:"sites"`
}

// SimulateRequest runs one or more predictors over a trace.
type SimulateRequest struct {
	Trace TraceRef `json:"trace"`
	// Specs are predictor specs in the bp.Parse grammar (e.g.
	// "gshare:16"); responses report each predictor under its canonical
	// name (e.g. "gshare(16)").
	Specs []string `json:"specs"`
	// BucketSize, when positive, additionally returns each predictor's
	// accuracy timeline per bucket of this many dynamic branches.
	BucketSize int `json:"bucket_size,omitempty"`
	// PerBranch includes per-static-branch accounting in the response
	// (sorted by PC; sizable for large traces).
	PerBranch bool `json:"per_branch,omitempty"`
}

// BranchAcc is one static branch's accounting.
type BranchAcc struct {
	PC      string `json:"pc"` // "0x%x"
	Correct int64  `json:"correct"`
	Total   int64  `json:"total"`
}

// PredictorResult is one predictor's outcome.
type PredictorResult struct {
	// Spec is the predictor's canonical name (bp.Predictor.Name()).
	Spec     string  `json:"spec"`
	Correct  int64   `json:"correct"`
	Total    int64   `json:"total"`
	Accuracy float64 `json:"accuracy"`
	// Timeline is the per-bucket accuracy curve (present only when the
	// request set BucketSize).
	Timeline []float64 `json:"timeline,omitempty"`
	// PerBranch is per-site accounting sorted by PC (present only when
	// the request set PerBranch).
	PerBranch []BranchAcc `json:"per_branch,omitempty"`
}

// SimulateResponse answers a SimulateRequest. Results are in request
// spec order.
type SimulateResponse struct {
	Trace   TraceInfo         `json:"trace"`
	Results []PredictorResult `json:"results"`
	// Metrics is the request's private registry snapshot — counters and
	// gauges only (histograms carry wall-clock durations, which would
	// break payload determinism). Values depend only on the trace and
	// the request, never on service concurrency or cache state.
	Metrics obs.Snapshot `json:"metrics"`
}

// SweepRequest replays a whole predictor-parameter grid over a trace in
// one fused pass.
type SweepRequest struct {
	Trace TraceRef `json:"trace"`
	Grid  GridSpec `json:"grid"`
}

// GridSpec names a sweep family and its axis. Families mirror the
// bp.Sweep constructors:
//
//   - "gshare-hist":  Hist = gshare history bits
//   - "bimodal-size": Table = bimodal table index bits
//   - "if-gshare":    Hist = interference-free gshare history bits
//   - "if-pas":       Hist = interference-free PAs history bits
//   - "hybrid":       Hist = gshare bits, plus BimodalBits/ChooserBits
//   - "specs":        Specs = arbitrary predictor specs (PredictorGrid)
type GridSpec struct {
	Family string `json:"family"`
	Hist   []uint `json:"hist,omitempty"`
	Table  []uint `json:"table,omitempty"`
	// BimodalBits/ChooserBits parameterize the hybrid family's shared
	// bimodal and chooser tables.
	BimodalBits uint `json:"bimodal_bits,omitempty"`
	ChooserBits uint `json:"chooser_bits,omitempty"`
	// Specs is the "specs" family's explicit predictor list.
	Specs []string `json:"specs,omitempty"`
}

// SweepConfig is one grid point's outcome.
type SweepConfig struct {
	Name     string  `json:"name"`
	Correct  int64   `json:"correct"`
	Accuracy float64 `json:"accuracy"`
}

// SweepResponse answers a SweepRequest; Configs are in grid order.
type SweepResponse struct {
	Trace   TraceInfo     `json:"trace"`
	Grid    string        `json:"grid"`
	Total   int64         `json:"total"`
	Configs []SweepConfig `json:"configs"`
	Metrics obs.Snapshot  `json:"metrics"`
}

// OracleRequest runs the correlation oracle (DESIGN §8) over a trace.
type OracleRequest struct {
	Trace TraceRef `json:"trace"`
	// Stage is "full" (default: selections) or "profile" (candidate
	// beam only).
	Stage string `json:"stage,omitempty"`
	// WindowLen, TopK, MaxCandidates, and Schemes mirror
	// core.OracleConfig; zero values select the core defaults. Schemes
	// entries are "occ" and/or "back".
	WindowLen     int      `json:"window_len,omitempty"`
	TopK          int      `json:"top_k,omitempty"`
	MaxCandidates int      `json:"max_candidates,omitempty"`
	Schemes       []string `json:"schemes,omitempty"`
}

// BranchRefs is one branch's selected refs, rendered canonically
// ("0x4000/occ0").
type BranchRefs struct {
	PC   string   `json:"pc"`
	Refs []string `json:"refs"`
}

// OracleAssignment is the ref selection for one history size.
type OracleAssignment struct {
	Size     int          `json:"size"`
	Branches []BranchRefs `json:"branches"`
}

// OracleCandidates is one branch's ranked candidate beam.
type OracleCandidates struct {
	PC     string   `json:"pc"`
	Total  int64    `json:"total"`
	Refs   []string `json:"refs"`
	Scores []uint32 `json:"scores"`
}

// OracleResponse answers an OracleRequest: Sizes for "full" runs,
// Candidates for "profile" runs, both sorted by PC.
type OracleResponse struct {
	Trace      TraceInfo          `json:"trace"`
	Sizes      []OracleAssignment `json:"sizes,omitempty"`
	Candidates []OracleCandidates `json:"candidates,omitempty"`
	Metrics    obs.Snapshot       `json:"metrics"`
}

// ClassifyRequest classifies a trace's branches by per-address
// predictability (the paper's section 4.1 / Figure 6 method).
type ClassifyRequest struct {
	Trace TraceRef `json:"trace"`
	// IFPAsHistoryBits and HighBias mirror core.ClassifyConfig; zero
	// values select the core defaults.
	IFPAsHistoryBits uint    `json:"if_pas_history_bits,omitempty"`
	HighBias         float64 `json:"high_bias,omitempty"`
}

// ClassShare is one predictability class's dynamic share.
type ClassShare struct {
	Class     string  `json:"class"`
	DynWeight int64   `json:"dyn_weight"`
	Frac      float64 `json:"frac"`
}

// ClassifyResponse answers a ClassifyRequest; Classes are in class
// order (ideal-static, loop, repeating, non-repeating).
type ClassifyResponse struct {
	Trace              TraceInfo    `json:"trace"`
	Classes            []ClassShare `json:"classes"`
	StaticHighBiasFrac float64      `json:"static_high_bias_frac"`
	Metrics            obs.Snapshot `json:"metrics"`
}

// UploadResponse answers a trace upload (POST /v1/traces, body = BTR1
// or BPK1 bytes). Uploads are content-addressed and idempotent: the
// response depends only on the uploaded bytes, whether or not the store
// already held them.
type UploadResponse struct {
	Key      string `json:"key"`
	Branches int    `json:"branches"`
	Sites    int    `json:"sites"`
}

// Error is the structured error envelope. Code is one of the
// bp.ErrKind names ("unknown-name", "bad-param", "missing-context") for
// spec errors — with Spec and Token carried through from the parser —
// or a service code: "bad-request", "not-found", "too-large",
// "internal".
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Spec    string `json:"spec,omitempty"`
	Token   string `json:"token,omitempty"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// ErrorFrom shapes an error for the wire, preserving bp.ParseError
// structure when present.
func ErrorFrom(code string, err error) Error {
	var pe *bp.ParseError
	if errors.As(err, &pe) {
		return Error{Code: pe.Kind.String(), Message: pe.Error(), Spec: pe.Spec, Token: pe.Token}
	}
	return Error{Code: code, Message: err.Error()}
}

// Marshal renders v canonically: compact JSON plus one trailing
// newline. Equal values marshal to identical bytes.
func Marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Encode writes v's canonical encoding to w.
func Encode(w io.Writer, v any) error {
	b, err := Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields and trailing data.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
