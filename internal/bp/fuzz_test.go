package bp

import (
	"errors"
	"testing"
)

// FuzzParse hammers the predictor spec grammar: Parse must never panic
// on any string (constructor range guards are converted to ParseErrors,
// and every guard fires before its table allocation), and every failure
// must be a *ParseError as the API documents.
func FuzzParse(f *testing.F) {
	for _, s := range KnownSpecs() {
		f.Add(s)
	}
	f.Add("gshare:200") // out-of-range geometry: must error, not panic
	f.Add("pas:8,8")    // arity mismatch
	f.Add("hybrid:(gshare:10),(bimodal:8),6")
	f.Add("hybrid:(hybrid:(gshare:1),(loop),2),(tage),3")
	f.Add("ideal-static") // needs Env.Stats: ErrMissingContext
	f.Add("")
	f.Add("gshare:")
	f.Add("gshare:-1")
	f.Add("gshare:999999999999999999999")

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec, Env{})
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q) error is %T, want *ParseError", spec, err)
			}
			if p != nil {
				t.Fatalf("Parse(%q) returned both a predictor and an error", spec)
			}
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned nil predictor without error", spec)
		}
		if p.Name() == "" {
			t.Fatalf("Parse(%q): empty predictor name", spec)
		}
	})
}
