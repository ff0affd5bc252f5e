package lint

import (
	"strings"
)

// directive is one //bplint:ignore comment: the rule ids it suppresses,
// the justification text that follows them, and — filled in during a run
// — which of its ids actually suppressed a finding. The ignore-reason
// rule reads the latter to flag stale directives.
type directive struct {
	file   string
	line   int
	ids    []string
	reason string
	used   map[string]bool
}

// ignoreIndex records every ignore directive of the analyzed packages,
// addressable by file and line. A directive suppresses findings on its
// own line (trailing comment) and on the line directly below it
// (standalone comment above the offending statement).
type ignoreIndex struct {
	lines map[string]map[int][]*directive
	all   []*directive
}

// buildIgnoreIndex scans every comment of every package.
func buildIgnoreIndex(pkgs []*Package) *ignoreIndex {
	idx := &ignoreIndex{lines: make(map[string]map[int][]*directive)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					ids, reason, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					d := &directive{
						file:   pos.Filename,
						line:   pos.Line,
						ids:    ids,
						reason: reason,
						used:   make(map[string]bool),
					}
					m := idx.lines[pos.Filename]
					if m == nil {
						m = make(map[int][]*directive)
						idx.lines[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], d)
					idx.all = append(idx.all, d)
				}
			}
		}
	}
	return idx
}

// parseIgnore extracts the suppressed rule ids and the justification from
// one comment; ok is false when the comment is not an ignore directive.
// Accepted forms:
//
//	//bplint:ignore rule-id reason text
//	//bplint:ignore rule-a,rule-b reason text
//	//bplint:ignore all reason text
//
// The reason (everything after the id list) is required by the
// ignore-reason rule; parseIgnore itself accepts its absence so the rule
// can report it.
func parseIgnore(text string) (ids []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//bplint:ignore")
	if !ok {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	idField, reason, _ := strings.Cut(rest, " ")
	if idField == "" {
		return nil, "", false
	}
	for _, id := range strings.Split(idField, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids, strings.TrimSpace(reason), len(ids) > 0
}

// suppress reports whether the finding is covered by an ignore directive
// on its line or the line above, marking the matching directive id as
// used (the ignore-reason rule flags ids that never suppress anything).
// The blanket "all" form never covers ignore-reason findings: a stale or
// unjustified directive must not be able to hide its own diagnosis.
func (idx *ignoreIndex) suppress(f Finding) bool {
	m := idx.lines[f.Pos.Filename]
	if m == nil {
		return false
	}
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range m[line] {
			for _, id := range d.ids {
				if id == f.Rule || (id == "all" && f.Rule != "ignore-reason") {
					d.used[id] = true
					hit = true
				}
			}
		}
	}
	return hit
}
