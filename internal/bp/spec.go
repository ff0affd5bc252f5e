package bp

import (
	"fmt"
	"strconv"
	"strings"

	"branchcorr/internal/trace"
)

// ErrKind classifies a spec parse failure, so callers can distinguish a
// typo in the predictor name from a malformed parameter or a spec whose
// profiling context is missing.
type ErrKind int

const (
	// ErrUnknownName: the spec names no known predictor.
	ErrUnknownName ErrKind = iota
	// ErrBadParam: a parameter is missing, extra, or malformed.
	ErrBadParam
	// ErrMissingContext: the spec is valid but needs profiling context
	// (stats or the full trace) the Env does not carry.
	ErrMissingContext
)

// String names the kind for diagnostics and tests.
func (k ErrKind) String() string {
	switch k {
	case ErrUnknownName:
		return "unknown-name"
	case ErrBadParam:
		return "bad-param"
	case ErrMissingContext:
		return "missing-context"
	}
	return fmt.Sprintf("ErrKind(%d)", int(k))
}

// ParseError is the structured error Parse returns: the full spec as
// given, the offending token, and the failure kind. Both commands print
// parse failures through its Error method, so bpsim and experiments emit
// identical diagnostics for the same bad spec.
type ParseError struct {
	// Spec is the spec string being parsed (for hybrids, the innermost
	// failing sub-spec).
	Spec string
	// Token is the offending token: the unknown name, or the bad
	// parameter text.
	Token string
	// Kind classifies the failure.
	Kind ErrKind
	// Reason is the human-readable detail.
	Reason string
}

// Error renders the canonical one-line diagnostic.
func (e *ParseError) Error() string {
	switch e.Kind {
	case ErrUnknownName:
		return fmt.Sprintf("bp: spec %q: unknown predictor %q (see bpsim -specs for examples)", e.Spec, e.Token)
	case ErrBadParam:
		return fmt.Sprintf("bp: spec %q: bad parameter %q: %s", e.Spec, e.Token, e.Reason)
	default:
		return fmt.Sprintf("bp: spec %q: %s", e.Spec, e.Reason)
	}
}

// Env carries the profiling context specs may require: summary
// statistics for ideal-static, the full trace for statically-filled
// (profiled) predictors. Either field may be nil; specs needing an
// absent field fail with ErrMissingContext.
type Env struct {
	Stats *trace.Stats
	Trace *trace.Trace
}

// Parse builds a predictor from a textual spec — the single entry point
// behind the bpsim -p and experiments -p flags — with whatever profiling
// context the caller has in env (Env{} is fine for specs that need
// none). Failures are *ParseError values naming the offending token.
//
// The grammar:
//
//	taken | not-taken | btfnt
//	ideal-static                     (requires Env.Stats)
//	bimodal:TABLEBITS
//	gshare:HISTBITS
//	ifgshare:HISTBITS
//	gas:HISTBITS,ADDRBITS
//	pas:HISTBITS,BHTBITS,PHTBITS
//	ifpas:HISTBITS
//	path:DEPTH,PHTBITS
//	loop | block
//	finite-loop:SETBITS,WAYS
//	fixedk:K
//	bimode:HISTBITS,CHOICEBITS
//	yags:CHOICEBITS,CACHEBITS
//	gskew:BANKBITS
//	perceptron:HISTLEN,TABLEBITS
//	tournament:LOCALHIST,LOCALBHT,GLOBALHIST,CHOOSERBITS
//	tage
//	profiled-gshare:HISTBITS         (requires Env.Trace)
//	hybrid:(SPEC),(SPEC),CHOOSERBITS
func Parse(spec string, env Env) (p Predictor, err error) {
	// Constructors reject out-of-range geometries with a panic (they are
	// API-misuse guards); a textual spec is user input, so surface those
	// as ParseErrors like every other invalid spec. Every guard fires
	// before its table allocation, so no oversized make happens first —
	// FuzzParse pins both properties.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, &ParseError{Spec: spec, Token: spec, Kind: ErrBadParam, Reason: fmt.Sprint(r)}
		}
	}()
	name, args, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	badParam := func(token, format string, a ...any) error {
		return &ParseError{Spec: spec, Token: token, Kind: ErrBadParam, Reason: fmt.Sprintf(format, a...)}
	}
	ints := func(want int) ([]uint, error) {
		parts := strings.Split(args, ",")
		if args == "" || len(parts) != want {
			return nil, badParam(args, "need %d comma-separated numeric argument(s), have %d", want, len(strings.FieldsFunc(args, func(r rune) bool { return r == ',' })))
		}
		out := make([]uint, want)
		for i, p := range parts {
			p = strings.TrimSpace(p)
			v, err := strconv.ParseUint(p, 10, 8)
			if err != nil {
				return nil, badParam(p, "not an integer in [0,255]")
			}
			out[i] = uint(v)
		}
		return out, nil
	}
	switch name {
	case "taken":
		return AlwaysTaken{}, nil
	case "not-taken":
		return AlwaysNotTaken{}, nil
	case "btfnt":
		return BTFNT{}, nil
	case "ideal-static":
		if env.Stats == nil {
			return nil, &ParseError{Spec: spec, Token: name, Kind: ErrMissingContext,
				Reason: "ideal-static needs trace statistics (profile the trace first)"}
		}
		return NewIdealStatic(env.Stats), nil
	case "bimodal":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewBimodal(a[0]), nil
	case "gshare":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewGshare(a[0]), nil
	case "ifgshare":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewIFGshare(a[0]), nil
	case "gas":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewGAs(a[0], a[1]), nil
	case "pas":
		a, err := ints(3)
		if err != nil {
			return nil, err
		}
		return NewPAs(a[0], a[1], a[2]), nil
	case "ifpas":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewIFPAs(a[0]), nil
	case "path":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewPath(int(a[0]), a[1]), nil
	case "loop":
		return NewLoop(), nil
	case "finite-loop":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewFiniteLoop(a[0], int(a[1])), nil
	case "block":
		return NewBlock(), nil
	case "fixedk":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewFixedK(int(a[0])), nil
	case "bimode":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewBiMode(a[0], a[1]), nil
	case "yags":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewYAGS(a[0], a[1]), nil
	case "gskew":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return NewGSkew(a[0]), nil
	case "perceptron":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return NewPerceptron(int(a[0]), a[1]), nil
	case "tage":
		if args != "" {
			return nil, badParam(args, "tage takes no arguments (uses the default geometry)")
		}
		return NewTAGEDefault(), nil
	case "profiled-gshare":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		if env.Trace == nil {
			return nil, &ParseError{Spec: spec, Token: name, Kind: ErrMissingContext,
				Reason: "profiled-gshare needs the full profiling trace (unavailable when streaming)"}
		}
		return NewProfiledGshare(env.Trace, a[0]), nil
	case "tournament":
		a, err := ints(4)
		if err != nil {
			return nil, err
		}
		return NewTournament(a[0], a[1], a[2], a[3]), nil
	case "hybrid":
		specA, specB, bits, err := splitHybrid(spec, args)
		if err != nil {
			return nil, err
		}
		a, err := Parse(specA, env)
		if err != nil {
			return nil, err
		}
		b, err := Parse(specB, env)
		if err != nil {
			return nil, err
		}
		return NewHybrid(a, b, bits), nil
	default:
		return nil, &ParseError{Spec: spec, Token: name, Kind: ErrUnknownName,
			Reason: "no such predictor"}
	}
}

// ParseAll parses every spec in order, stopping at the first failure.
// It is the shared helper behind the commands' repeatable -p flags.
func ParseAll(specs []string, env Env) ([]Predictor, error) {
	out := make([]Predictor, 0, len(specs))
	for _, s := range specs {
		p, err := Parse(s, env)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// splitHybrid parses "(SPEC),(SPEC),BITS".
func splitHybrid(spec, args string) (string, string, uint, error) {
	specA, rest, err := takeParen(spec, args)
	if err != nil {
		return "", "", 0, err
	}
	rest = strings.TrimPrefix(rest, ",")
	specB, rest, err := takeParen(spec, rest)
	if err != nil {
		return "", "", 0, err
	}
	rest = strings.TrimPrefix(rest, ",")
	bits, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 8)
	if err != nil {
		return "", "", 0, &ParseError{Spec: spec, Token: rest, Kind: ErrBadParam,
			Reason: "bad chooser bits: not an integer in [0,255]"}
	}
	return specA, specB, uint(bits), nil
}

// takeParen consumes a balanced "(...)" prefix and returns its contents
// and the remainder.
func takeParen(spec, s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") {
		return "", "", &ParseError{Spec: spec, Token: s, Kind: ErrBadParam,
			Reason: "hybrid sub-specs must be parenthesized: expected '('"}
	}
	depth := 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[1:i], s[i+1:], nil
			}
		}
	}
	return "", "", &ParseError{Spec: spec, Token: s, Kind: ErrBadParam,
		Reason: "unbalanced parentheses"}
}

// KnownSpecs lists example specs for help output.
func KnownSpecs() []string {
	return []string{
		"taken", "not-taken", "btfnt", "ideal-static",
		"bimodal:14", "gshare:16", "ifgshare:16", "gas:12,4",
		"pas:12,10,6", "ifpas:16", "path:8,14", "loop", "block",
		"fixedk:4", "finite-loop:8,4", "bimode:14,12", "yags:13,11", "gskew:13",
		"perceptron:24,10", "tournament:10,10,12,12", "tage", "profiled-gshare:16",
		"hybrid:(gshare:14),(pas:12,10,6),12",
	}
}
