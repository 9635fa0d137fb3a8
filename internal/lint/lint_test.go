package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture loads one testdata module and returns its packages.
func fixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load([]string{"./..."}, filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkgs
}

// wantRe extracts the quoted regexps of a `// want "re" "re"` comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// golden runs one analyzer over its fixture module and checks the
// findings against the fixture's `// want` comments: every want must be
// matched by a finding on its line, and every finding must have a want.
func golden(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs := fixture(t, a.Name)
	findings := Run(pkgs, []*Analyzer{a})

	type site struct {
		file string
		line int
	}
	wants := make(map[site][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := site{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", a.Name)
	}
	for _, f := range findings {
		k := site{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(f.Msg) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding %s", f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, re)
		}
	}
}

func TestGoldenLockHeld(t *testing.T) { golden(t, AnalyzerLockHeld) }
func TestGoldenLayering(t *testing.T) { golden(t, AnalyzerLayering) }
func TestGoldenDetPTime(t *testing.T) { golden(t, AnalyzerDetPTime) }
func TestGoldenMapOrder(t *testing.T) { golden(t, AnalyzerMapOrder) }
func TestGoldenHotAlloc(t *testing.T) { golden(t, AnalyzerHotAlloc) }
func TestGoldenErrDrop(t *testing.T)  { golden(t, AnalyzerErrDrop) }
func TestGoldenTestOnly(t *testing.T) { golden(t, AnalyzerTestOnly) }

// TestIgnoreSuppression checks the directive semantics end to end: a
// well-formed directive suppresses, a reason-less one is reported and
// suppresses nothing, and a directive for another rule does not help.
func TestIgnoreSuppression(t *testing.T) {
	pkgs := fixture(t, "ignore")
	findings := Run(pkgs, []*Analyzer{AnalyzerDetPTime})

	var rules []string
	for _, f := range findings {
		rules = append(rules, fmt.Sprintf("%s@%d", f.Rule, f.Pos.Line))
	}
	// The fixture has four time.Now sites; only the first is suppressed.
	// Line numbers: see testdata/src/ignore/internal/lattice/lattice.go.
	detptime := 0
	ignore := 0
	for _, f := range findings {
		switch f.Rule {
		case "detptime":
			detptime++
		case "ignore":
			ignore++
		}
	}
	if detptime != 3 {
		t.Errorf("want 3 surviving detptime findings, got %d (%v)", detptime, rules)
	}
	if ignore != 1 {
		t.Errorf("want 1 malformed-directive finding, got %d (%v)", ignore, rules)
	}
	for _, f := range findings {
		if f.Rule == "detptime" && strings.Contains(f.Msg, "never replayed") {
			t.Errorf("suppressed finding survived: %s", f)
		}
	}
}

// TestExecExitCodes drives the whole Exec path over the three fixture
// shapes the driver distinguishes.
func TestExecExitCodes(t *testing.T) {
	cases := []struct {
		fixture string
		want    int
	}{
		{"clean", ExitClean},
		{"detptime", ExitFindings},
		{"broken", ExitError},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		got := Exec(filepath.Join("testdata", "src", tc.fixture), []string{"./..."},
			Analyzers(), &out, &errOut)
		if got != tc.want {
			t.Errorf("Exec(%s) = %d, want %d (stdout=%q stderr=%q)",
				tc.fixture, got, tc.want, out.String(), errOut.String())
		}
		if tc.want == ExitClean && !strings.Contains(errOut.String(), "detptime 0") {
			t.Errorf("Exec(%s) summary missing per-rule counts: %q", tc.fixture, errOut.String())
		}
		if tc.want == ExitFindings && out.Len() == 0 {
			t.Errorf("Exec(%s) printed no findings", tc.fixture)
		}
		if tc.want == ExitError && !strings.Contains(errOut.String(), "gpdlint:") {
			t.Errorf("Exec(%s) printed no load error: %q", tc.fixture, errOut.String())
		}
	}
}

// TestExecSummaryOnFindings checks the per-rule summary also prints on
// failure, with the right counts.
func TestExecSummaryOnFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	got := Exec(filepath.Join("testdata", "src", "layering"), []string{"./..."},
		[]*Analyzer{AnalyzerLayering}, &out, &errOut)
	if got != ExitFindings {
		t.Fatalf("exit = %d, want %d", got, ExitFindings)
	}
	if !strings.Contains(errOut.String(), "layering 9") {
		t.Errorf("summary missing layering count: %q", errOut.String())
	}
}

// TestByName resolves rule subsets and rejects unknown names.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := ByName("lockheld, layering")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset: got %d, err %v", len(two), err)
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("ByName(nosuchrule) did not fail")
	}
	_, err = ByName("maporder,nosuchrule,alsomissing,nosuchrule")
	if err == nil {
		t.Fatal("ByName with unknown rules did not fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nosuchrule") || !strings.Contains(msg, "alsomissing") {
		t.Errorf("error does not name every unknown rule: %q", msg)
	}
	if !strings.Contains(msg, "available:") || !strings.Contains(msg, "maporder") {
		t.Errorf("error does not list the available rules: %q", msg)
	}
	if strings.Count(msg, "nosuchrule") != 1 {
		t.Errorf("duplicate unknown rule reported twice: %q", msg)
	}
}

// TestLoadRealModule smoke-tests the loader against the enclosing
// module itself: internal/lint must load, type-check, and classify its
// module-relative path.
func TestLoadRealModule(t *testing.T) {
	pkgs, err := Load([]string{"."}, ".")
	if err != nil {
		t.Fatalf("load self: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].RelPath != "internal/lint" {
		t.Fatalf("loaded %d packages, rel %q; want 1, internal/lint", len(pkgs), pkgs[0].RelPath)
	}
}
