package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// ignoreReasonRule (ignore-reason) keeps the suppression escape hatch
// honest: every //bplint:ignore directive must carry a justification
// after its rule-id list, and a directive that no longer suppresses any
// finding is stale and must be deleted. Staleness is judged against the
// rules actually
// selected for the run, so `-rules det-time` never declares an io-print
// ignore stale; the blanket "all" form is only judged under the full
// rule set.
type ignoreReasonRule struct{}

func (ignoreReasonRule) ID() string { return "ignore-reason" }
func (ignoreReasonRule) Doc() string {
	return "every //bplint:ignore needs a justification; stale ignores are errors"
}

// Check is unused: ignore-reason runs after the suppression pass inside
// Run, where directive usage is known. See checkIgnoreReasons.
func (ignoreReasonRule) Check(*Package) []Finding { return nil }

// checkIgnoreReasons produces the ignore-reason findings for one
// completed suppression pass. selected is the rule set of the run;
// fullSet reports whether it is the complete AllRules set.
func checkIgnoreReasons(idx *ignoreIndex, selected []Rule, fullSet bool) []Finding {
	selectedIDs := make(map[string]bool, len(selected))
	for _, r := range selected {
		selectedIDs[r.ID()] = true
	}
	var out []Finding
	for _, d := range idx.all {
		pos := token.Position{Filename: d.file, Line: d.line}
		if d.reason == "" {
			out = append(out, Finding{
				Pos:  pos,
				Rule: "ignore-reason",
				Msg:  "ignore directive has no justification; add a reason after the rule ids",
			})
		}
		var stale []string
		for _, id := range d.ids {
			if id == "all" {
				if !fullSet {
					continue
				}
			} else if !selectedIDs[id] {
				continue
			}
			if !d.used[id] {
				stale = append(stale, id)
			}
		}
		if len(stale) == 0 {
			continue
		}
		out = append(out, Finding{
			Pos:  pos,
			Rule: "ignore-reason",
			Msg: fmt.Sprintf("stale ignore: %s no longer suppresses anything here; delete it",
				strings.Join(stale, ",")),
		})
	}
	return out
}
