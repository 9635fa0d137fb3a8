package lint

import (
	"strings"
)

// ignorePrefix introduces a suppression directive comment:
//
//	//lint:ignore rule1,rule2 reason
//
// The directive suppresses findings of the listed rules (or every rule,
// with "*") on the directive's own line and on the line directly below
// it, so it works both as a trailing comment on the offending line and
// as a standalone comment above it. The reason is mandatory.
const ignorePrefix = "//lint:ignore "

// site is one source line.
type site struct {
	file string
	line int
}

// directives parses every ignore directive of the load once. A
// well-formed one adds its rules to the lines it covers; one without a
// rule list and a reason suppresses nothing and becomes a finding of the
// "ignore" rule.
func directives(pkgs []*Package) (covered map[site]map[string]bool, malformed []Finding) {
	covered = make(map[site]map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(body)
					if len(fields) < 2 {
						malformed = append(malformed, Finding{Pos: pos, Rule: "ignore",
							Msg: "lint:ignore directive needs a rule list and a reason: //lint:ignore rule reason"})
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := site{pos.Filename, line}
						if covered[k] == nil {
							covered[k] = make(map[string]bool)
						}
						for _, r := range strings.Split(fields[0], ",") {
							covered[k][strings.TrimSpace(r)] = true
						}
					}
				}
			}
		}
	}
	return covered, malformed
}

// suppress drops findings covered by a well-formed ignore directive.
func suppress(covered map[site]map[string]bool, findings []Finding) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		rules := covered[site{f.Pos.Filename, f.Pos.Line}]
		if f.Rule != "ignore" && (rules["*"] || rules[f.Rule]) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}
