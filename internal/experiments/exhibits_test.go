package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"branchcorr/internal/runner"
)

// goldenConfig is the small suite the byte-identity tests run: three
// workloads including both Figure 9 benchmarks, short traces, and a
// two-point Figure 5 sweep so every exhibit (including the expensive
// oracle paths) executes at test scale.
func goldenConfig() Config {
	return Config{
		Length:      20_000,
		Workloads:   []string{"gcc", "perl", "compress"},
		Fig5Windows: []int{8, 16},
	}
}

func buildJSON(t *testing.T, parallel int) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), report.Render()
}

// TestBuildReportByteIdentity is the determinism contract of the
// parallel runner: a full report computed at parallel=1 and at
// parallel=8, each on a freshly generated suite, must be byte-equal in
// both JSON and rendered-text form. CI runs this under -race, so any
// unsynchronized sharing between cells fails the build too.
func TestBuildReportByteIdentity(t *testing.T) {
	seqJSON, seqText := buildJSON(t, 1)
	parJSON, parText := buildJSON(t, 8)
	if seqJSON != parJSON {
		t.Errorf("JSON reports differ between parallel=1 (%d bytes) and parallel=8 (%d bytes)",
			len(seqJSON), len(parJSON))
	}
	if seqText != parText {
		t.Errorf("rendered reports differ between parallel=1 and parallel=8")
	}
	// Sanity: the report actually contains every exhibit.
	for _, key := range []string{`"table1"`, `"figure5"`, `"figure9"`, `"training"`, `"ceiling"`} {
		if !strings.Contains(seqJSON, key) {
			t.Errorf("full report missing %s", key)
		}
	}
}

func TestBuildReportUnknownExhibit(t *testing.T) {
	s := testSuite(t)
	if _, err := s.BuildReport(context.Background(), []string{"fig4", "nope"}, runner.Options{}); err == nil {
		t.Error("unknown exhibit should fail")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("err %v does not name the unknown exhibit", err)
	}
}

// TestBuildReportFig9ErrorAbortsPool checks error propagation from a
// failing cell: a suite without perl cannot compute fig9, and the cell
// error must surface with the cell identity.
func TestBuildReportFig9ErrorAbortsPool(t *testing.T) {
	s, err := NewSuite(Config{Length: 2_000, Workloads: []string{"gcc"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.BuildReport(context.Background(), []string{"table1", "fig9"}, runner.Options{Parallel: 2})
	if err == nil {
		t.Fatal("fig9 without perl should fail the report")
	}
	if !strings.Contains(err.Error(), "fig9/perl") || !strings.Contains(err.Error(), "not in suite") {
		t.Errorf("err = %v, want cell-identified fig9 error", err)
	}
}

func TestBuildReportCancelledContext(t *testing.T) {
	s := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BuildReport(ctx, []string{"table1"}, runner.Options{Parallel: 2}); err == nil {
		t.Error("cancelled context should fail the report")
	}
}

// TestBuildReportExhibitTable checks the exhibit table against Report:
// every exhibit field is set by exactly one entry and rendered by that
// entry alone, a full report renders every entry, and the JSON keys stay
// those of the committed report format.
func TestBuildReportExhibitTable(t *testing.T) {
	s := testSuite(t)
	rt := reflect.TypeOf(Report{})
	fieldOf := map[string]string{} // exhibit name -> Report field it sets
	setBy := map[string][]string{} // Report field -> exhibits setting it
	for _, e := range exhibits {
		r := &Report{}
		e.plan(s, r)
		rv := reflect.ValueOf(r).Elem()
		var set []string
		for f := range rt.NumField() {
			if fv := rv.Field(f); fv.Kind() == reflect.Pointer && !fv.IsNil() {
				set = append(set, rt.Field(f).Name)
			}
		}
		if len(set) != 1 {
			t.Errorf("exhibit %s sets Report fields %v, want exactly one", e.name, set)
			continue
		}
		fieldOf[e.name] = set[0]
		setBy[set[0]] = append(setBy[set[0]], e.name)
	}
	for f := range rt.NumField() {
		if field := rt.Field(f); field.Type.Kind() == reflect.Pointer && len(setBy[field.Name]) != 1 {
			t.Errorf("Report.%s is set by exhibits %v, want exactly one", field.Name, setBy[field.Name])
		}
	}

	full, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, e := range exhibits {
		out, ok := full.RenderExhibit(e.name)
		if !ok {
			t.Errorf("exhibit %s missing from full report", e.name)
		}
		text.WriteString(out + "\n")
		// A report holding only e's field renders e and nothing else.
		only := &Report{}
		field := fieldOf[e.name]
		reflect.ValueOf(only).Elem().FieldByName(field).Set(reflect.ValueOf(full).Elem().FieldByName(field))
		for _, other := range exhibits {
			if _, ok := other.render(only); ok != (other.name == e.name) {
				t.Errorf("report holding only Report.%s: exhibit %s renders = %v", field, other.name, ok)
			}
		}
	}
	if full.Render() != text.String() {
		t.Error("Render differs from the exhibits rendered one by one in table order")
	}
	if _, ok := full.RenderExhibit("bogus"); ok {
		t.Error("bogus exhibit rendered")
	}

	var buf strings.Builder
	if err := full.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"config", "table1", "figure4", "figure5", "table2", "figure6", "table3",
		"figure7", "figure8", "figure9", "inpath", "ceiling", "hybrids", "training", "sweeps", "extra"}
	if !slices.Equal(keys, want) {
		t.Errorf("JSON keys = %v, want %v", keys, want)
	}
}
