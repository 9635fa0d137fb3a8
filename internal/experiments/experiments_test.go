package experiments

import (
	"maps"
	"os"
	"strings"
	"testing"
)

// measured memoizes each claim's rows (the short ladder under -short),
// so the three tests that read them measure once.
var measured = map[string][]Row{}

func rowsOf(t *testing.T, cl *Claim) []Row {
	t.Helper()
	if rows, ok := measured[cl.ID]; ok {
		return rows
	}
	rows, err := cl.Run(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	measured[cl.ID] = rows
	return rows
}

// TestClaims measures every ladder and asserts the paper's bound over it:
// a refused instance, a failed conversion or a violated bound fails the
// claim instead of printing a cell.
func TestClaims(t *testing.T) {
	for _, cl := range Claims {
		t.Run(cl.ID, func(t *testing.T) {
			if len(cl.Bounds) == 0 {
				t.Fatal("claim states no bound")
			}
			for i, row := range rowsOf(t, cl) {
				if len(row) != len(cl.Columns) {
					t.Errorf("row %d has %d quantities, the table %d columns: %v", i, len(row), len(cl.Columns), row)
				}
				for _, col := range cl.Columns {
					if _, ok := row[col]; !ok {
						t.Errorf("row %d lacks column %q", i, col)
					}
				}
			}
		})
	}
}

// TestChecksRejectBadRows: no Check is vacuous. Each case takes a claim's
// measured rows, which pass, breaks the bound in one cell, and the Check
// must say so.
func TestChecksRejectBadRows(t *testing.T) {
	last := func(rows []Row) Row { return rows[len(rows)-1] }
	cases := []struct {
		id, name string
		violate  func(rows []Row)
	}{
		{"F1", "an answer disagrees with the lattice", func(r []Row) { r[0]["agree"] = 0 }},
		{"F1", "a polynomial class is refused", func(r []Row) { r[0]["answered"], r[0]["agree"] = 0, NA }},
		{"F2", "e,g consistent", func(r []Row) { r[0]["e,g consistent"] = 1 }},
		{"F2", "g,h unordered", func(r []Row) { r[0]["g,h ordered"] = 0 }},
		{"F3", "detection disagrees with DPLL", func(r []Row) { r[0]["detected"] = 0 }},
		{"F3", "assignment does not satisfy", func(r []Row) { r[0]["assignment satisfies"] = 0 }},
		{"E1", "agreement 9/10", func(r []Row) { r[0]["agree"] = 9 }},
		{"E1", "a skipped instance", func(r []Row) { r[0]["agree"], r[0]["trials"] = 9, 9 }},
		{"E2", "selection enumeration", func(r []Row) { r[0]["CPDHB runs"] = 3 }},
		{"E2", "superlinear eliminations", func(r []Row) { last(r)["eliminations"] = last(r)["candidates"] + 1 }},
		{"E2", "oracle disagrees", func(r []Row) { r[0]["oracle agree"] = 1 }},
		{"E3", "combos B = combos A", func(r []Row) { r[1]["combos B"] = r[1]["combos A"] }},
		{"E3", "A beyond k^g", func(r []Row) { r[1]["combos A"] = r[1]["k^g"] + 1 }},
		{"E3", "A and B disagree", func(r []Row) { r[0]["found B"] = 1 }},
		{"E4", "exponent above the degree", func(r []Row) { last(r)["augmenting paths"] *= 1_000_000 }},
		{"E4", "closure verdict != lattice verdict", func(r []Row) { r[0]["closure verdict"] = 1 - r[0]["lattice verdict"] }},
		{"E4", "oracle never ran", func(r []Row) {
			for _, row := range r {
				row["lattice verdict"] = NA
			}
		}},
		{"E5", "agreement 9/10", func(r []Row) { r[0]["agree"] = 9 }},
		{"E5", "an instance answered instead of refused", func(r []Row) { r[0]["refused"] = 9 }},
		{"E5", "lattice smaller than 2^n", func(r []Row) { r[0]["lattice cuts"]-- }},
		{"E6", "oracle disagrees", func(r []Row) { r[0]["oracle agree"] = 2 }},
		{"E6", "exponent above the degree", func(r []Row) { last(r)["augmenting paths"] *= 1_000_000 }},
		{"E7", "verdict != lattice verdict", func(r []Row) { r[0]["found"] = 1 - r[0]["lattice verdict"] }},
		{"E7", "more eliminations than candidates", func(r []Row) { last(r)["tokens advanced"] = last(r)["candidates"] + 1 }},
		{"X1", "slice cuts > lattice cuts", func(r []Row) {
			r[0]["slice cuts"], r[0]["satisfying cuts"] = r[0]["lattice cuts"]+1, r[0]["lattice cuts"]+1
		}},
		{"X1", "slice misses a satisfying cut", func(r []Row) { r[0]["slice cuts"]-- }},
		{"X1", "slice route disagrees", func(r []Row) { r[0]["slice verdict"] = 1 - r[0]["lattice verdict"] }},
		{"X2", "quiescence unreachable", func(r []Row) { r[0]["min"], r[0]["replay min"] = 1, 1 }},
		{"X2", "replay range differs", func(r []Row) { r[0]["replay max"]++ }},
		{"X2", "more in flight than sent", func(r []Row) { r[0]["max"], r[0]["replay max"] = r[0]["msgs"]+1, r[0]["msgs"]+1 }},
		{"X3", "verdict != lattice verdict", func(r []Row) { r[0]["holds"] = 1 - r[0]["lattice verdict"] }},
		{"X3", "more eliminations than intervals", func(r []Row) { last(r)["eliminated"] = last(r)["true intervals"] + 1 }},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.id] = true
		t.Run(tc.id+"/"+tc.name, func(t *testing.T) {
			cl := Get(tc.id)
			var rows []Row
			for _, row := range rowsOf(t, cl) {
				rows = append(rows, maps.Clone(row))
			}
			tc.violate(rows)
			if err := cl.Check(rows); err == nil {
				t.Fatalf("Check accepted the violated rows %v", rows)
			}
		})
	}
	for _, cl := range Claims {
		if !covered[cl.ID] {
			t.Errorf("%s has no violating row", cl.ID)
		}
	}
}

// TestAllExperimentsRun keeps EXPERIMENTS.md current: the block between
// its markers is, section by section and byte for byte, what gpdbench
// prints. Regenerate with `go run ./cmd/gpdbench` and paste.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the committed block holds the full ladders")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- BEGIN GENERATED: go run ./cmd/gpdbench -->\n", "<!-- END GENERATED -->\n"
	_, rest, ok := strings.Cut(string(doc), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md lacks the markers %q ... %q", begin, end)
	}
	var want strings.Builder
	for _, cl := range Claims {
		t.Run(cl.ID, func(t *testing.T) {
			section := cl.Markdown(rowsOf(t, cl))
			want.WriteString(section)
			if !strings.Contains(block, section) {
				t.Errorf("EXPERIMENTS.md is stale for %s; gpdbench prints:\n%s", cl.ID, section)
			}
		})
	}
	if !t.Failed() && block != want.String() {
		t.Error("EXPERIMENTS.md's generated block holds text gpdbench does not print")
	}
}

func TestFig2RelationsMatchText(t *testing.T) {
	c, ev := fig2Computation()
	if !c.ConsistentEvents(ev["e"], ev["f"]) {
		t.Error("e,f must be consistent")
	}
	if !c.Independent(ev["e"], ev["f"]) {
		t.Error("e,f must be independent")
	}
	if c.ConsistentEvents(ev["e"], ev["g"]) {
		t.Error("e,g must be inconsistent")
	}
	if !c.Precedes(ev["g"], ev["h"]) {
		t.Error("g must precede h")
	}
	if !c.ConsistentEvents(ev["g"], ev["h"]) {
		t.Error("g,h must be consistent despite being ordered")
	}
}

func TestGet(t *testing.T) {
	if Get("e3") == nil || Get("E3") == nil {
		t.Error("Get must be case-insensitive")
	}
	if Get("nope") != nil {
		t.Error("unknown id must return nil")
	}
}

func TestTableRendering(t *testing.T) {
	cl := &Claim{ID: "T", Ref: "nowhere", Title: "demo", Columns: []string{"a", "bb"},
		Sizes: []Size{{Name: "first"}, {Name: "second"}}, Bounds: []Bound{bound("a", "<=", "bb")}}
	got := cl.Markdown([]Row{{"a": 1, "bb": 2}, {"a": 3, "bb": NA}})
	want := "### T — nowhere: demo\n\n| case | a | bb |\n|---|---|---|\n| first | 1 | 2 |\n| second | 3 | - |\n\n" +
		"Checked on every row that measures both sides: `a <= bb`.\n\n"
	if got != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkClaims times each claim's ladder end to end; the quantities it
// produces are the deterministic ones TestClaims asserts.
func BenchmarkClaims(b *testing.B) {
	for _, cl := range Claims {
		b.Run(cl.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cl.Run(testing.Short()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
