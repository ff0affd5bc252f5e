package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// relPath renders a finding's file relative to the analysis root (with
// forward slashes), the stable form every output format and the baseline
// use; files outside the root stay absolute.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || len(rel) >= 2 && rel[:2] == ".." {
		return file
	}
	return filepath.ToSlash(rel)
}

// WriteText prints the canonical "file:line: [rule] msg" lines.
func WriteText(w io.Writer, findings []Finding, root string) error {
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s:%d: [%s] %s\n", relPath(root, f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg); err != nil {
			return err
		}
	}
	return nil
}

// jsonFinding is the -format json record shape.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// WriteJSON emits the findings as a JSON array (deterministic order and
// formatting; empty input yields an empty array, not null).
func WriteJSON(w io.Writer, findings []Finding, root string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: relPath(root, f.Pos.Filename),
			Line: f.Pos.Line,
			Rule: f.Rule,
			Msg:  f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Minimal SARIF 2.1.0 document model — just the slice GitHub code
// scanning and editors consume.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// WriteSARIF emits a SARIF 2.1.0 run: one driver rule entry per rule in
// the selected set (reporting order) and one error-level result per
// finding. Output is byte-deterministic for a given finding list.
func WriteSARIF(w io.Writer, findings []Finding, rules []Rule, root string) error {
	srules := make([]sarifRule, 0, len(rules))
	for _, r := range rules {
		srules = append(srules, sarifRule{ID: r.ID(), ShortDescription: sarifText{Text: r.Doc()}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifText{Text: f.Msg},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(root, f.Pos.Filename)},
				Region:           sarifRegion{StartLine: f.Pos.Line},
			}}},
		})
	}
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "bplint", Rules: srules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
