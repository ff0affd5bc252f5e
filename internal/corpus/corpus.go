package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// Store is a content-addressed directory of BPK1-encoded traces. Every
// entry is written atomically (temp file + rename), so concurrent
// writers of the same key race benignly: the last rename wins with a
// complete file either way.
type Store struct {
	dir string
	reg *obs.Registry
}

// Open creates (if needed) and opens a store rooted at dir. reg
// receives the corpus.hits / corpus.misses / corpus.errors counters;
// nil selects obs.Default().
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &Store{dir: dir, reg: obs.Or(reg)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key derives the content address for a generated workload trace. The
// key covers everything that determines the trace bytes: the workload
// name, the requested dynamic-branch count, and a generator revision
// (bump it whenever generator output changes, e.g. workloads.Revision).
func Key(workload string, length int, revision string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("bpk1\x00%s\x00%d\x00%s", workload, length, revision)))
	return hex.EncodeToString(h[:])
}

// Path returns where the entry for key lives (whether or not it exists).
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+".bpk")
}

// Has reports whether an entry for key exists.
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// PutPacked stores a packed trace under key, atomically.
func (s *Store) PutPacked(key string, pt *trace.Packed) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Encode(tmp, pt, DefaultChunkLen); err != nil {
		_ = tmp.Close() // the encode error is the one worth reporting
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// LoadPacked decodes the entry for key into a packed trace view.
func (s *Store) LoadPacked(key string) (*trace.Packed, error) {
	f, err := os.Open(s.Path(key))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	pt, _, err := Decode(f)
	return pt, err
}

// LoadTrace decodes the entry for key into a trace that wraps the
// decoded columns (trace.FromPacked): a corpus hit skips both
// generation and interning.
func (s *Store) LoadTrace(key string) (*trace.Trace, error) {
	pt, err := s.LoadPacked(key)
	if err != nil {
		return nil, err
	}
	return trace.FromPacked(pt), nil
}

// GetTrace returns the trace for key, loading it from the store on a
// hit (corpus.hits) and otherwise generating, storing, and returning it
// (corpus.misses). A present-but-undecodable entry counts corpus.errors
// and is regenerated and overwritten rather than failing the run.
func (s *Store) GetTrace(key string, generate func() *trace.Trace) (*trace.Trace, error) {
	if s.Has(key) {
		tr, err := s.LoadTrace(key)
		if err == nil {
			s.reg.Counter("corpus.hits").Inc()
			return tr, nil
		}
		s.reg.Counter("corpus.errors").Inc()
	}
	s.reg.Counter("corpus.misses").Inc()
	tr := generate()
	if err := s.PutPacked(key, tr.Packed()); err != nil {
		return nil, err
	}
	return tr, nil
}
